"""Exact computational shortcuts for truncated kernels.

A compactly supported wave kernel makes whole covariance columns exactly
zero; a necessary and sufficient condition for column j to vanish is a zero
diagonal entry.  Permuting the active (nonzero-diagonal) columns first puts
the covariance in block form, so the Tikhonov-regularized inverse reduces to
the active block plus a 1/lambda identity.  This module implements the
active-set detection, the analytic light-cone membership predicate, the
reduced likelihood and Kriging formulas, and the rank-one point-source
likelihood machinery (Sherman-Morrison closed form and its small-lambda /
dense-time limits).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .kernels import HyperParams, smooth_cutoff
from .linalg import (assemble_covariance, chol_with_jitter, half_solve,
                     logdet_from_chol)

# Query points per (n_active, chunk) cross-covariance block; the variance
# block is smaller because its triangular solve is held next to it.
MEAN_CHUNK = 4096
VAR_CHUNK = 1024


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


def light_cone_contains(params: HyperParams, x, t):
    """Analytic membership in the union of the enabled components' shells.

    True iff c|t| - R <= |x - x0| <= c|t| + R for at least one enabled
    component (closed shell).
    """
    x = np.asarray(x, dtype=float).reshape(-1, 3)
    t = np.asarray(t, dtype=float).reshape(-1)
    out = np.zeros(t.shape, dtype=bool)
    ct = params.c * np.abs(t)
    for name in params.components:
        src = getattr(params, name)
        r = np.linalg.norm(x - src.x0, axis=1)
        out |= (r >= ct - src.radius) & (r <= ct + src.radius)
    return out


def fast_nll(kernel, x, t, y, lam):
    """Negative log marginal likelihood through the active-set reduction.

    y_in^T (K~ + lam I)^{-1} y_in + |y_out|^2 / lam
    + log det(K~ + lam I) + q log lam.  Exactly equal to the dense formula.
    A non-finite covariance entry raises KernelEvaluationError.
    """
    if not lam > 0.0:
        raise ValueError("fast_nll requires lam > 0")
    x = np.asarray(x, dtype=float).reshape(-1, 3)
    t = np.asarray(t, dtype=float).reshape(-1)
    y = np.asarray(y, dtype=float).reshape(-1)
    act = detect_active(kernel, x, t)
    idx = act.active
    y_in = y[idx]
    y_out = y[act.inactive]
    total = float(y_out @ y_out) / lam + act.q * math.log(lam)
    if act.p > 0:
        kmat = assemble_covariance(kernel, x[idx], t[idx])
        chol, _ = chol_with_jitter(kmat + lam * np.eye(act.p))
        v = half_solve(chol, y_in)
        total += float(v @ v) + logdet_from_chol(chol)
    return total


def posterior_mean(model, x, t):
    """Kriging mean k(X_in, z)^T alpha with light-cone pruning.

    Queries with zero kernel diagonal are never evaluated against the
    training set and return an exact 0.
    """
    x = np.asarray(x, dtype=float).reshape(-1, 3)
    t = np.asarray(t, dtype=float).reshape(-1)
    out = np.zeros(t.shape)
    if model.active_count == 0:
        return out
    live = np.flatnonzero(np.asarray(model.kernel.diag(x, t)) > 0.0)
    for lo in range(0, live.size, MEAN_CHUNK):
        sel = live[lo: lo + MEAN_CHUNK]
        cross = model.kernel.pairwise(model.x_in, model.t_in, x[sel], t[sel])
        out[sel] = cross.T @ model.alpha
    return out


def posterior_var(model, x, t):
    """Kriging variance k(z,z) - k(X_in,z)^T (K~+lam I)^{-1} k(X_in,z).

    Clamped below at zero against floating-point cancellation.
    """
    x = np.asarray(x, dtype=float).reshape(-1, 3)
    t = np.asarray(t, dtype=float).reshape(-1)
    prior = np.asarray(model.kernel.diag(x, t), dtype=float)
    out = prior.copy()
    if model.active_count == 0:
        return np.maximum(out, 0.0)
    live = np.flatnonzero(prior > 0.0)
    for lo in range(0, live.size, VAR_CHUNK):
        sel = live[lo: lo + VAR_CHUNK]
        cross = model.kernel.pairwise(model.x_in, model.t_in, x[sel], t[sel])
        v = half_solve(model.chol_factor, cross)
        out[sel] = prior[sel] - np.einsum("ij,ij->j", v, v)
    return np.maximum(out, 0.0)


@dataclass(frozen=True)
class RankOneData:
    """Inputs of the regularized point-source likelihood.

    ``green``: regularized Green evaluations F stacked sensor-major;
    ``obs``: the approximated observation vector W in the same ordering;
    ``lam``: Tikhonov regularization (noise variance), > 0.
    """

    green: np.ndarray
    obs: np.ndarray
    lam: float

    def __post_init__(self):
        green = np.asarray(self.green, dtype=float).reshape(-1)
        obs = np.asarray(self.obs, dtype=float).reshape(-1)
        if green.size != obs.size:
            raise ValueError("green and obs must have the same length")
        object.__setattr__(self, "green", green)
        object.__setattr__(self, "obs", obs)
        if not self.lam > 0.0:
            raise ValueError("lam must be positive")


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


def _sums(data: RankOneData):
    f, w = data.green, data.obs
    return float(w @ w), float(f @ f), float(f @ w), w.size


def rank_one_nll(data: RankOneData):
    """Likelihood of F F^T + lam I in O(n), no matrix formed."""
    return float(rank_one_objective(*_sums(data), data.lam))


def limit_profile(data: RankOneData):
    """Small-lambda limit |W|^2 (1 - r^2), r = <F,W>/(|F||W|), r = 0 if F = 0."""
    return float(rank_one_objective(*_sums(data)))


def r_infinity(traces_obs, traces_green, total_time):
    """Dense-time correlation of sensor traces over [0, T].

    Time-trapezoid approximation of <I_u, I_x0> / (|I_u| |I_x0|) in
    L2([0,T], R^q); traces are (q, N) arrays sampled at equally spaced
    times spanning [0, T].
    """
    u = np.asarray(traces_obs, dtype=float)
    g = np.asarray(traces_green, dtype=float)
    if u.shape != g.shape or u.ndim != 2 or u.shape[1] < 2:
        raise ValueError("traces must be matching (q, N) arrays with N >= 2")
    dt = total_time / (u.shape[1] - 1)

    def inner(a, b):
        prod = a * b
        return float(np.trapezoid(prod, dx=dt, axis=1).sum())

    norm_g = inner(g, g)
    if norm_g == 0.0:
        raise ValueError("correlation undefined: green traces are zero")
    norm_u = inner(u, u)
    if norm_u == 0.0:
        raise ValueError("correlation undefined: observation traces are zero")
    return inner(u, g) / math.sqrt(norm_u * norm_g)


def regularized_green(dist, t, c, radius, alpha=0.8):
    """Mollified spherical-shell Green evaluation f_t(d).

    A smooth radial bump of half-width ``radius`` centered on the shell
    |y| = c|t|, normalized so its integral over R^3 equals t (the mass of
    the shell measure it regularizes).  Vectorized over distances.
    """
    dist = np.asarray(dist, dtype=float)
    if abs(t) < 1e-12:
        return np.zeros_like(dist)
    ct = c * abs(t)
    bump = smooth_cutoff(np.abs(dist - ct) / radius, alpha)
    i0, i2 = _bump_moments(alpha)
    mass = 4.0 * math.pi * radius * (ct * ct * i0 + radius * radius * i2)
    return (t / mass) * bump


@lru_cache(maxsize=8)
def _bump_moments(alpha, n=2001):
    """Moments integral s^k * cutoff(|s|) ds over [-1, 1], k in {0, 2}."""
    s = np.linspace(-1.0, 1.0, n)
    b = smooth_cutoff(np.abs(s), alpha)
    i0 = float(np.trapezoid(b, s))
    i2 = float(np.trapezoid(s * s * b, s))
    return i0, i2


def green_traces(dists, times, c, radius, alpha=0.8):
    """Regularized Green traces f_t(d) for all distances and times, (m, N)."""
    dists = np.asarray(dists, dtype=float).reshape(-1)
    times = np.asarray(times, dtype=float).reshape(-1)
    out = np.zeros((dists.size, times.size))
    for k, t in enumerate(times):
        out[:, k] = regularized_green(dists, t, c, radius, alpha)
    return out
