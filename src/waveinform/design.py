"""Sensor-layout generation and hyperparameter estimation.

Latin hypercube designs improved by a maximin-by-restart criterion, a
derivative-free box-constrained local minimizer (Nelder-Mead on a logistic
reparametrization of the box), and the multistart negative-log-likelihood
fitting loop.  Everything is a deterministic function of the seeds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit, logit

from .exceptions import KernelEvaluationError, SingularCovarianceError
from .fast import fast_nll
from .fields import atomic_write_text, fmt17
from .kernels import HyperParams, WaveKernel


@dataclass(frozen=True)
class HyperBox:
    """Componentwise bounds for an optimization domain."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lower = np.asarray(self.lower, dtype=float).reshape(-1)
        upper = np.asarray(self.upper, dtype=float).reshape(-1)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        if lower.size != upper.size:
            raise ValueError("lower and upper must have the same length")
        if not np.all(lower < upper):
            raise ValueError("need lower < upper componentwise")

    @property
    def dim(self):
        return self.lower.size

    def contains(self, x):
        x = np.asarray(x, dtype=float)
        return bool(np.all(x >= self.lower) and np.all(x <= self.upper))


def _lhs_candidate(n, dim, rng):
    """One Latin hypercube sample on the unit cube."""
    sample = np.empty((n, dim))
    for j in range(dim):
        perm = rng.permutation(n)
        sample[:, j] = (perm + rng.uniform(size=n)) / n
    return sample


def _min_pairwise_distance(pts):
    if pts.shape[0] < 2:
        return np.inf
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.linalg.norm(diff, axis=2)
    iu = np.triu_indices(pts.shape[0], 1)
    return float(dist[iu].min())


def lhs_design(n, lower, upper, restarts, seed):
    """Latin hypercube design improved by maximin over seeded restarts.

    Among ``restarts`` candidates, keeps the one with the largest minimum
    pairwise distance (computed on the unit cube).  Deterministic under the
    seed.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    lower = np.asarray(lower, dtype=float).reshape(-1)
    upper = np.asarray(upper, dtype=float).reshape(-1)
    rng = np.random.default_rng(int(seed))
    best = None
    best_crit = -np.inf
    for _ in range(max(1, restarts)):
        cand = _lhs_candidate(n, lower.size, rng)
        crit = _min_pairwise_distance(cand)
        if crit > best_crit:
            best, best_crit = cand, crit
    return lower + best * (upper - lower)


_LOGIT_EPS = 1e-12


def _to_unbounded(x, box: HyperBox):
    frac = (np.asarray(x, dtype=float) - box.lower) / (box.upper - box.lower)
    return logit(np.clip(frac, _LOGIT_EPS, 1.0 - _LOGIT_EPS))


def _to_box(z, box: HyperBox):
    return box.lower + expit(z) * (box.upper - box.lower)


def minimize_box(objective, box: HyperBox, x_start, tol, max_evals):
    """Derivative-free minimization over a box.

    Runs Nelder-Mead on a logistic bijection of the box onto R^d, so every
    iterate stays strictly inside the box; terminates when the simplex
    spread falls below ``tol`` (in transformed coordinates) or on the
    evaluation budget.  Returns (x_best, f_best, n_evals), where n_evals
    counts every objective call.  A non-finite value at the start point
    (Nelder-Mead's first evaluation) raises ValueError.
    """
    # Imported here: scipy.optimize is a third of the package's import time
    # and only the likelihood fit needs it.
    from scipy.optimize import minimize

    x_start = np.asarray(x_start, dtype=float).reshape(-1)
    if x_start.size != box.dim:
        raise ValueError("start point dimension mismatch")
    evals = [0]

    def wrapped(z):
        evals[0] += 1
        val = objective(_to_box(z, box))
        if np.isfinite(val):
            return float(val)
        if evals[0] == 1:
            raise ValueError(
                f"objective is non-finite at the start point {x_start}")
        # Non-finite trial values are repelled, not fatal.
        return 1e300

    z0 = _to_unbounded(x_start, box)
    simplex = np.vstack([z0, z0 + 0.5 * np.eye(box.dim)])
    result = minimize(wrapped, z0, method="Nelder-Mead",
                      options={"initial_simplex": simplex, "xatol": tol,
                               "fatol": np.inf, "maxfev": max_evals,
                               "disp": False})
    x_best = _to_box(result.x, box)
    return x_best, float(result.fun), evals[0]


@dataclass
class FitTraceRow:
    start_id: int
    theta_start: np.ndarray
    theta_end: np.ndarray
    nll_end: float
    evals: int


def nll_objective(dataset, components):
    """Negative log marginal likelihood of a dataset as a function of theta.

    The flat vector layout is [x0, R, rho, sigma2] per enabled component
    followed by (c, lam); lam is treated as an ordinary hyperparameter.
    """
    x, t = dataset.points()
    y = dataset.values

    def objective(vec):
        params = HyperParams.from_vector(vec, components)
        return fast_nll(WaveKernel(params), x, t, y, params.lam)

    return objective


def multistart_fit(objective, box: HyperBox, n_mult, seed, tol, max_evals):
    """Multistart minimization of ``objective`` over a box.

    Runs :func:`minimize_box` from ``n_mult`` Latin-hypercube starting
    points and keeps the argmin over all runs.  Returns the best vector and
    the full trace of every start; :func:`nll_objective` gives the
    likelihood objective, whose vectors ``HyperParams.from_vector`` decodes.
    A start whose objective raises ValueError, SingularCovarianceError or
    KernelEvaluationError is recorded as failed (NaN values, 0
    evaluations); RuntimeError is raised only when every start fails.
    """
    if n_mult < 1:
        raise ValueError("need n_mult >= 1")
    starts = lhs_design(n_mult, box.lower, box.upper, restarts=10, seed=seed)
    trace = []
    best_vec, best_val = None, np.inf
    for sid in range(n_mult):
        x0 = starts[sid]
        try:
            x_end, f_end, evals = minimize_box(objective, box, x0,
                                               tol=tol, max_evals=max_evals)
        except (ValueError, SingularCovarianceError, KernelEvaluationError):
            trace.append(FitTraceRow(sid, x0, np.full_like(x0, np.nan),
                                     np.nan, 0))
            continue
        trace.append(FitTraceRow(sid, x0, x_end, f_end, evals))
        if f_end < best_val:
            best_vec, best_val = x_end, f_end
    if best_vec is None:
        raise RuntimeError("all multistart runs failed")
    return best_vec, trace


def write_trace_csv(trace, components, path):
    """Fit trace as CSV: start_id, theta_start..., theta_end..., nll_end, evals."""
    names = HyperParams.vector_names(components)
    header = (["start_id"] + [f"start_{n}" for n in names]
              + [f"end_{n}" for n in names] + ["nll_end", "evals"])
    lines = [",".join(header)]
    for row in trace:
        cells = ([str(row.start_id)]
                 + [fmt17(v) for v in row.theta_start]
                 + [fmt17(v) for v in row.theta_end]
                 + [fmt17(row.nll_end), str(row.evals)])
        lines.append(",".join(cells))
    atomic_write_text(path, "\n".join(lines) + "\n")
