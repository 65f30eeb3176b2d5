"""Exact computational shortcuts for truncated kernels.

A compactly supported wave kernel makes whole covariance columns exactly
zero; a necessary and sufficient condition for column j to vanish is a zero
diagonal entry.  Permuting the active (nonzero-diagonal) columns first puts
the covariance in block form, so the Tikhonov-regularized inverse reduces to
the active block plus a 1/lambda identity.  This module implements the
active-set detection, the factorization of the active block that the
likelihood and the posterior share, the reduced likelihood and Kriging
formulas, and the rank-one point-source likelihood (Sherman-Morrison
closed form and its small-lambda limit).

The likelihood, the factorization and the Kriging variance take any kernel
object with ``pairwise`` and ``diag``.  The Kriging mean takes a
``WaveKernel``: it is linear in the kernel, so it is taken one component
at a time, and a component sees a query only through (|x - x0|, t) about
its own center.  On a grid at one time its mean is a function of the
radius, evaluated once per distinct radius and scattered back to the grid.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .exceptions import SingularCovarianceError
from .kernels import _as_points, _time_sign, smooth_cutoff
from .linalg import (assemble_covariance, chol_with_jitter, half_solve,
                     logdet_from_chol)

# Query points per (n_active, chunk) cross-covariance block; the variance
# block is smaller because its triangular solve is held next to it.
MEAN_CHUNK = 4096
VAR_CHUNK = 1024

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class ActiveSet:
    """Permutation splitting indices into active (nonzero diagonal) and inactive."""

    permutation: np.ndarray
    p: int

    @property
    def q(self):
        return self.permutation.size - self.p

    @property
    def active(self):
        return self.permutation[: self.p]

    @property
    def inactive(self):
        return self.permutation[self.p:]


def detect_active(kernel, x, t):
    """Active set from n diagonal kernel calls.

    For truncated kernels the diagonal is exactly zero outside the support,
    so a point is active iff its diagonal entry is positive.
    """
    diag = np.asarray(kernel.diag(x, t), dtype=float)
    live = diag > 0.0
    active, inactive = np.flatnonzero(live), np.flatnonzero(~live)
    return ActiveSet(permutation=np.concatenate([active, inactive]),
                     p=active.size)


@dataclass(frozen=True)
class ActiveFactor:
    """K~ + lam I factored on the active points; the data split by activity.

    ``chol`` is the lower Cholesky factor of the active block (0 x 0 when
    p = 0) and ``jitter`` what its rescue added to the diagonal.
    """

    active_set: ActiveSet
    x_active: np.ndarray
    t_active: np.ndarray
    y_active: np.ndarray
    y_inactive: np.ndarray
    chol: np.ndarray
    jitter: float


def factor_active(kernel, x, t, y, lam):
    """Active set and Cholesky factor of K~ + lam I on the active block.

    The step shared by ``fast_nll`` and ``gp.fit_posterior``.  Before the
    active set is detected, refuses a non-finite position or time, an
    observation vector whose length is not the point count, a non-finite
    observation, and a lam that is not finite and >= 0; before any
    covariance is assembled, lam = 0 with nonzero observations outside the
    support (the reduced form has no variance to explain them).  A
    non-finite covariance entry raises KernelEvaluationError.  A Cholesky
    that needs jitter is logged at WARNING with p and the jitter.
    """
    x, t = _as_points(x, t)
    y = np.asarray(y, dtype=float).reshape(-1)
    if y.size != t.size:
        raise ValueError("observation vector length must match point count")
    if not np.isfinite(y).all():
        raise ValueError("observations must be finite")
    if not 0.0 <= lam < math.inf:
        raise ValueError(f"lam must be finite and >= 0, got {lam}")
    act = detect_active(kernel, x, t)
    x_active, t_active = x[act.active], t[act.active]
    y_inactive = y[act.inactive]
    if lam == 0.0 and np.any(y_inactive != 0.0):
        raise SingularCovarianceError(
            "lam = 0 with nonzero observations outside the kernel support")
    chol, jitter = np.zeros((0, 0)), 0.0
    if act.p > 0:
        kmat = assemble_covariance(kernel, x_active, t_active)
        kmat.flat[::act.p + 1] += lam
        chol, jitter = chol_with_jitter(kmat)
        if jitter > 0.0:
            _log.warning("Cholesky of the %d x %d active block needed "
                         "jitter %.3g", act.p, act.p, jitter)
    return ActiveFactor(active_set=act, x_active=x_active, t_active=t_active,
                        y_active=y[act.active], y_inactive=y_inactive,
                        chol=chol, jitter=jitter)


def fast_nll(kernel, x, t, y, lam):
    """Negative log marginal likelihood through the active-set reduction.

    y_a^T (K~ + lam I)^{-1} y_a + |y_i|^2 / lam + log det(K~ + lam I)
    + q log lam, with y_a and y_i the observations at the active and the
    inactive points.  Exactly equal to the dense formula.
    Refusals, errors and the jitter log are those of ``factor_active``; a
    rescued value is the likelihood of K~ + (lam + jitter) I on the active
    block.
    """
    if not lam > 0.0:
        raise ValueError("fast_nll requires lam > 0")
    fac = factor_active(kernel, x, t, y, lam)
    v = half_solve(fac.chol, fac.y_active)
    return (float(fac.y_inactive @ fac.y_inactive) / lam
            + fac.active_set.q * math.log(lam)
            + (float(v @ v) + logdet_from_chol(fac.chol)))


def _distinct_rows(key):
    """Index of the first of each bitwise-distinct row, and the inverse map."""
    key = np.ascontiguousarray(key)
    rows = key.view(np.dtype((np.void, key.itemsize * key.shape[1])))
    _, first, inverse = np.unique(rows.ravel(), return_index=True,
                                  return_inverse=True)
    return first, inverse


def posterior_mean(model, x, t):
    """Kriging mean k(X_in, z)^T alpha, one WaveKernel component at a time.

    ``model.kernel`` must be a :class:`~waveinform.kernels.WaveKernel`.
    Each component sees a query only through its key (|x - x0|, t) about
    its own center, and is evaluated once per bitwise-distinct key, so on a
    grid at one time a component costs one column per distinct radius.
    Keys with a zero component diagonal are never evaluated against the
    training set; queries outside every component's support return an
    exact 0.  A non-finite query point is refused with ValueError.
    """
    x, t = _as_points(x, t)
    out = np.zeros(t.shape)
    if model.active_count == 0:
        return out
    kernel, fac = model.kernel, model.factor
    for comp in kernel.params.components:
        x0 = getattr(kernel.params, comp).x0
        key = np.column_stack([np.linalg.norm(x - x0, axis=1), t])
        first, inverse = _distinct_rows(key)
        r, tk = key[first, 0], key[first, 1]
        g = np.zeros(first.size)
        live = np.flatnonzero(kernel.radial(comp, r, tk) > 0.0)
        r_in = np.linalg.norm(fac.x_active - x0, axis=1)
        for lo in range(0, live.size, MEAN_CHUNK):
            sel = live[lo: lo + MEAN_CHUNK]
            cross = kernel.radial(comp, r_in, fac.t_active, r[sel], tk[sel])
            g[sel] = cross.T @ model.alpha
        out += g[inverse]
    return out


def posterior_var(model, x, t):
    """Kriging variance k(z,z) - k(X_in,z)^T (K~+lam I)^{-1} k(X_in,z).

    Clamped below at zero against floating-point cancellation.  A
    non-finite query point is refused with ValueError.
    """
    x, t = _as_points(x, t)
    prior = np.asarray(model.kernel.diag(x, t), dtype=float)
    out = prior.copy()
    if model.active_count == 0:
        return np.maximum(out, 0.0)
    live = np.flatnonzero(prior > 0.0)
    fac = model.factor
    for lo in range(0, live.size, VAR_CHUNK):
        sel = live[lo: lo + VAR_CHUNK]
        cross = model.kernel.pairwise(fac.x_active, fac.t_active, x[sel],
                                      t[sel])
        v = half_solve(fac.chol, cross)
        out[sel] = prior[sel] - np.einsum("ij,ij->j", v, v)
    return np.maximum(out, 0.0)


def rank_one_objective(w2, f2, fw, n, lam=None):
    """Rank-one objective from |W|^2, |F|^2, <F,W> and n; vectorised in F.

    With ``lam``: the likelihood of F F^T + lam I,
    |W|^2/lam * (1 - <F,W>^2 / (|W|^2 (lam + |F|^2)))
    + (n-1) log lam + log(lam + |F|^2).
    Without: its small-lambda limit |W|^2 (1 - <F,W>^2 / (|F|^2 |W|^2)),
    which is |W|^2 where F = 0 and is undefined for W = 0.
    """
    if lam is None:
        if w2 == 0.0:
            raise ValueError("limit profile requires a nonzero observation "
                             "vector")
        live = f2 > 0.0
        return w2 * (1.0 - np.where(live, fw * fw / (np.where(live, f2, 1.0)
                                                     * w2), 0.0))
    quad = w2 / lam
    if w2 > 0.0:
        quad = quad * (1.0 - fw * fw / (w2 * (lam + f2)))
    return quad + (n - 1) * math.log(lam) + np.log(lam + f2)


def regularized_green(dist, t, c, radius):
    """Mollified spherical-shell Green evaluation f_t(d).

    A smooth radial bump of half-width ``radius`` centered on the shell
    |y| = c|t|, normalized so its integral over R^3 equals t (the mass of
    the shell measure it regularizes) when c|t| >= radius.  Below that the
    bump reaches the origin and the integral falls short of t: 0.85 t at
    c|t| = radius / 4, 0.98 t at radius / 2.  Vectorized over distances.
    """
    dist = np.asarray(dist, dtype=float)
    if _time_sign(t) == 0.0:
        return np.zeros_like(dist)
    ct = c * abs(t)
    bump = smooth_cutoff(np.abs(dist - ct) / radius)
    i0, i2 = _bump_moments()
    mass = 4.0 * math.pi * radius * (ct * ct * i0 + radius * radius * i2)
    return (t / mass) * bump


@cache
def _bump_moments():
    """Moments integral s^k * cutoff(|s|) ds over [-1, 1], k in {0, 2}."""
    s = np.linspace(-1.0, 1.0, 2001)
    b = smooth_cutoff(np.abs(s))
    i0 = float(np.trapezoid(b, s))
    i2 = float(np.trapezoid(s * s * b, s))
    return i0, i2


def green_traces(dists, times, c, radius):
    """Regularized Green traces f_t(d) for all distances and times, (m, N)."""
    dists = np.asarray(dists, dtype=float).reshape(-1)
    times = np.asarray(times, dtype=float).reshape(-1)
    out = np.zeros((dists.size, times.size))
    for k, t in enumerate(times):
        out[:, k] = regularized_green(dists, t, c, radius)
    return out
