"""Covariance assembly and dense Cholesky helpers.

Cholesky failures are rescued by escalating jitter (the ladder below).
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import cho_solve, cholesky, solve_triangular

from .exceptions import KernelEvaluationError, SingularCovarianceError

# Jitter ladder: start at 1e-10 * mean(diag), escalate x10 up to 1e-4 * mean(diag).
JITTER_START = 1e-10
JITTER_MAX = 1e-4


# Row-band height of assemble_covariance.  A band also evaluates the
# BAND * (BAND - 1) / 2 entries below the diagonal of its own square, so
# taller bands waste more; shorter bands call pairwise more often, and
# below about 32 rows that per-call cost dominates.  At p = 288 / 592 / 789
# (case-3 kernel, one BLAS thread, 2-vCPU Xeon) 64-row bands took
# 5.0 / 18 / 29 ms against 9.6 / 40 / 64 ms for one p x p call, within 5%
# of the best of the heights tried (32 to 256).
BAND = 64


def assemble_covariance(kernel, x, t):
    """Covariance matrix of a kernel on one batch of space-time points.

    Only the upper triangle is evaluated: rows [a, a + BAND) are one
    ``pairwise`` call against the columns [a, p), so a band evaluates its
    own diagonal square whole and nothing to its left.  The upper triangle
    is then mirrored, so the result is symmetric to exact arithmetic.
    Non-finite entries raise KernelEvaluationError naming the offending
    pair.  A kernel object must provide
    ``pairwise(x1, t1, x2, t2) -> (n, m)``.
    """
    x = np.asarray(x, dtype=float).reshape(-1, 3)
    t = np.asarray(t, dtype=float).reshape(-1)
    if t.size == 0:
        raise ValueError("point batch must be nonempty")
    p = t.size
    kmat = np.zeros((p, p))
    for a in range(0, p, BAND):
        rows = slice(a, a + BAND)
        kmat[rows, a:] = kernel.pairwise(x[rows], t[rows], x[a:], t[a:])
    kmat = np.triu(kmat) + np.triu(kmat, 1).T
    if not np.all(np.isfinite(kmat)):
        i, j = np.argwhere(~np.isfinite(kmat))[0]
        raise KernelEvaluationError(
            f"non-finite covariance between points {i} and {j}: "
            f"z_i=({x[i]}, {t[i]}), z_j=({x[j]}, {t[j]})")
    return kmat


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
