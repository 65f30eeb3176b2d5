"""Covariance assembly and dense Cholesky helpers.

The assembly takes a kernel object and one point batch of that kernel
(``kernel.batch(x, t)``) and evaluates it in row bands that are slices of
the batch, so the points' features are computed once, not once per band.
Cholesky failures are rescued by escalating jitter (the ladder below).
"""

from __future__ import annotations

from functools import cache

import numpy as np
from scipy.linalg import cho_solve, cholesky, solve_triangular

from .exceptions import KernelEvaluationError, SingularCovarianceError

# Jitter ladder: start at 1e-10 * mean(diag), escalate x10 up to 1e-4 * mean(diag).
JITTER_START = 1e-10
JITTER_MAX = 1e-4


# Row-band height of assemble_covariance.  A band also evaluates the
# BAND * (BAND - 1) / 2 entries below the diagonal of its own square, so
# taller bands waste more; shorter bands call pairwise more often, and at
# 32 and 48 rows that per-call cost outweighs the saving.  At p = 288 /
# 592 / 789 (case-3 kernel, one BLAS thread, 2-vCPU Xeon, best of two runs
# of 11) 64-row bands took 3.3 / 10.9 / 18.8 ms against 5.2 / 27.3 /
# 41.0 ms for one p x p call.  96 rows (3.2 / 10.9 / 18.3 ms) and 128 rows
# (3.3 / 10.3 / 18.6 ms) were within 5%, inside the run-to-run spread, and
# tied with 64 at one size each; 32, 48, 192 and 256 were slower.  A new
# height would also change how many entries an assembly evaluates, which
# WaveKernel.eval_count and the benchmark's entry counters count.
BAND = 64


def assemble_covariance(kernel, batch):
    """Covariance matrix of a kernel on one batch of space-time points.

    Only the upper triangle is evaluated: rows [a, a + BAND) are one
    ``pairwise`` call against the columns [a, p), so a band evaluates its
    own diagonal square whole and nothing to its left.  Each band is
    mirrored as it is written: its transpose fills the columns [a, a +
    BAND) below the band, and the lower half of its diagonal square is
    taken from the upper half, so the result is symmetric to exact
    arithmetic.  Non-finite entries raise KernelEvaluationError naming the
    offending pair.  ``batch`` is ``kernel.batch(x, t)``, and a kernel
    object must provide ``pairwise(b1, b2) -> (len(b1), len(b2))`` over
    slices of it.
    """
    p = len(batch)
    if p == 0:
        raise ValueError("point batch must be nonempty")
    kmat = np.empty((p, p))
    for a in range(0, p, BAND):
        b = min(a + BAND, p)
        band = kernel.pairwise(batch[a:b], batch[a:])
        kmat[a:b, a:] = band
        kmat[b:, a:b] = band[:, b - a:].T
        i, j = _strict_lower(b - a)
        square = kmat[a:b, a:b]
        square[i, j] = square[j, i]
    if not np.all(np.isfinite(kmat)):
        i, j = np.argwhere(~np.isfinite(kmat))[0]
        raise KernelEvaluationError(
            f"non-finite covariance between points {i} and {j}: "
            f"z_i=({batch.x[i]}, {batch.t[i]}), "
            f"z_j=({batch.x[j]}, {batch.t[j]})")
    return kmat


@cache
def _strict_lower(n):
    """Indices of the strictly lower triangle of an n x n matrix."""
    return np.tril_indices(n, -1)


def chol_with_jitter(mat):
    """Lower Cholesky factor of a PSD matrix, rescuing with escalating jitter.

    Returns (L, jitter_used).  Raises SingularCovarianceError listing the
    attempted jitters when even the largest jitter fails.
    """
    n = mat.shape[0]
    if n == 0:
        return np.zeros((0, 0)), 0.0
    mean_diag = float(np.trace(mat)) / n
    if mean_diag <= 0.0:
        mean_diag = 1.0
    attempted = []
    jitter = 0.0
    while True:
        try:
            shifted = mat if jitter == 0.0 else mat + jitter * np.eye(n)
            return cholesky(shifted, lower=True), jitter
        except np.linalg.LinAlgError:
            pass
        attempted.append(jitter)
        if jitter == 0.0:
            jitter = JITTER_START * mean_diag
        else:
            jitter *= 10.0
        if jitter > JITTER_MAX * mean_diag * (1.0 + 1e-12):
            raise SingularCovarianceError(
                f"Cholesky failed after jitters {attempted}")


def chol_solve_vec(chol_lower, rhs):
    """Solve (L L^T) x = rhs given the lower factor."""
    if chol_lower.shape[0] == 0:
        return np.zeros_like(rhs)
    return cho_solve((chol_lower, True), rhs)


def half_solve(chol_lower, rhs):
    """Solve L v = rhs (so that rhs^T (L L^T)^{-1} rhs = |v|^2)."""
    if chol_lower.shape[0] == 0:
        return np.zeros_like(rhs)
    return solve_triangular(chol_lower, rhs, lower=True)


def logdet_from_chol(chol_lower):
    if chol_lower.shape[0] == 0:
        return 0.0
    return 2.0 * float(np.sum(np.log(np.diag(chol_lower))))
