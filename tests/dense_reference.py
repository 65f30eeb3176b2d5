"""Dense references and test-only helpers that the tests compare against.

``FunctionKernel`` evaluates a scalar two-point function entry by entry,
``dense_nll`` is the likelihood of the full covariance, with no
active-set reduction, and ``reference_simulation`` is the FDTD time loop
with the absorbing boundary applied face by face.  ``FunctionIC`` turns a
function (and optionally its gradient) into an initial condition,
``NumericalBase`` gives any spatial kernel central-difference derivative
contractions for the shell quadratures, ``light_cone_contains`` is the
analytic membership in a wave kernel's support shells, ``r_infinity`` the
dense-time correlation of sensor traces, ``subset`` restricts a sensor
dataset to its first sensors, and ``rank_one`` states the point-source
likelihood in the vectors F and W.
"""

import math

import numpy as np

from waveinform.fast import rank_one_objective
from waveinform.linalg import (assemble_covariance, chol_with_jitter,
                               half_solve, logdet_from_chol)
from waveinform.oracle import SpatialBaseKernel
from waveinform.sim import FieldHistory, SensorDataset


class FunctionKernel:
    """Adapter turning a scalar two-point function into a kernel object."""

    def __init__(self, func):
        self.func = func
        self.eval_count = 0

    def pairwise(self, x1, t1, x2, t2):
        x1, t1 = _as_points(x1, t1)
        x2, t2 = _as_points(x2, t2)
        out = np.empty((x1.shape[0], x2.shape[0]))
        for i in range(x1.shape[0]):
            for j in range(x2.shape[0]):
                out[i, j] = self.func(x1[i], t1[i], x2[j], t2[j])
        self.eval_count += out.size
        return out

    def diag(self, x, t):
        x, t = _as_points(x, t)
        out = np.array([self.func(x[i], t[i], x[i], t[i]) for i in range(len(t))])
        self.eval_count += out.size
        return out


class FunctionIC:
    """Adapter turning a value function, and optionally its gradient, into
    an initial condition.

    It has no radial support, so no simulation checks that it stays inside
    the box.
    """

    support_radius = 0.0

    def __init__(self, func, grad_func=None):
        self.func = func
        self.grad_func = grad_func

    def eval(self, x):
        x = np.asarray(x, dtype=float).reshape(-1, 3)
        return np.asarray(self.func(x), dtype=float).reshape(-1)

    def grad(self, x):
        if self.grad_func is None:
            raise ValueError("this initial condition has no gradient")
        x = np.asarray(x, dtype=float).reshape(-1, 3)
        return np.asarray(self.grad_func(x), dtype=float).reshape(-1, 3)


class NumericalBase(SpatialBaseKernel):
    """Wraps a pairwise kernel function; derivatives by central differences."""

    def __init__(self, func, step=1e-5):
        self.func = func
        self.step = step

    def value(self, y1, y2):
        return self.func(y1, y2)

    def grad1_dot(self, y1, y2, d1):
        h = self.step
        return (self.func(y1 + h * d1, y2) - self.func(y1 - h * d1, y2)) / (2.0 * h)

    def grad2_dot(self, y1, y2, d2):
        h = self.step
        return (self.func(y1, y2 + h * d2) - self.func(y1, y2 - h * d2)) / (2.0 * h)

    def cross_dot(self, y1, y2, d1, d2):
        h = self.step
        pp = self.func(y1 + h * d1, y2 + h * d2)
        pm = self.func(y1 + h * d1, y2 - h * d2)
        mp = self.func(y1 - h * d1, y2 + h * d2)
        mm = self.func(y1 - h * d1, y2 - h * d2)
        return (pp - pm - mp + mm) / (4.0 * h * h)


def light_cone_contains(params, x, t):
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


def subset(dataset, n_sensors):
    """Restriction of a sensor dataset to the first n_sensors sensors."""
    return SensorDataset(positions=dataset.positions[:n_sensors],
                         times=dataset.times,
                         values=dataset.values[: n_sensors * dataset.n_times])


def rank_one(f, w, lam=None):
    """``rank_one_objective`` on |W|^2, |F|^2, <F,W> and n, as a float."""
    f, w = np.asarray(f, dtype=float), np.asarray(w, dtype=float)
    return float(rank_one_objective(float(w @ w), float(f @ f), float(f @ w),
                                    w.size, lam))


def _as_points(x, t):
    x = np.asarray(x, dtype=float).reshape(-1, 3)
    t = np.asarray(t, dtype=float).reshape(-1)
    if x.shape[0] != t.shape[0]:
        raise ValueError("positions and times must have matching lengths")
    return x, t


def dense_nll(kernel, x, t, y, lam):
    """Likelihood from the Cholesky factor of the full (n, n) covariance."""
    x = np.asarray(x, dtype=float).reshape(-1, 3)
    t = np.asarray(t, dtype=float).reshape(-1)
    y = np.asarray(y, dtype=float).reshape(-1)
    kmat = assemble_covariance(kernel, x, t) + lam * np.eye(t.size)
    chol, _ = chol_with_jitter(kmat)
    v = half_solve(chol, y)
    return float(v @ v) + logdet_from_chol(chol)


def _laplacian(w):
    """Undivided 7-point Laplacian on the interior nodes."""
    out = np.zeros_like(w)
    out[1:-1, 1:-1, 1:-1] = (
        w[2:, 1:-1, 1:-1] + w[:-2, 1:-1, 1:-1]
        + w[1:-1, 2:, 1:-1] + w[1:-1, :-2, 1:-1]
        + w[1:-1, 1:-1, 2:] + w[1:-1, 1:-1, :-2]
        - 6.0 * w[1:-1, 1:-1, 1:-1])
    return out


def _face_tangential(face):
    """Undivided tangential Laplacian on the interior of a 2D face."""
    return (face[2:, 1:-1] + face[:-2, 1:-1] + face[1:-1, 2:]
            + face[1:-1, :-2] - 4.0 * face[1:-1, 1:-1])


def _apply_abc(wn, w, wm, cdt, dx):
    inner_face = (slice(1, -1), slice(1, -1))
    k1 = (cdt - dx) / (cdt + dx)
    k2 = 2.0 * dx / (cdt + dx)
    k3 = cdt * cdt / (2.0 * dx * (cdt + dx))
    for axis in range(3):
        for bidx, iidx in ((0, 1), (-1, -2)):
            wn_v = np.moveaxis(wn, axis, 0)
            w_v = np.moveaxis(w, axis, 0)
            wm_v = np.moveaxis(wm, axis, 0)
            t2 = _face_tangential(w_v[bidx]) + _face_tangential(w_v[iidx])
            wn_v[(bidx,) + inner_face] = (
                -wm_v[(iidx,) + inner_face]
                + k1 * (wn_v[(iidx,) + inner_face]
                        + wm_v[(bidx,) + inner_face])
                + k2 * (w_v[(bidx,) + inner_face]
                        + w_v[(iidx,) + inner_face])
                + k3 * t2)

    # Edges and corners: first-order condition along the inward diagonal.
    def mur1(bounds_idx, diag_idx, dist):
        coeff = (cdt - dist) / (cdt + dist)
        wn[bounds_idx] = w[diag_idx] + coeff * (wn[diag_idx] - w[bounds_idx])

    sides = ((0, 1), (-1, -2))
    for a in range(3):
        for b in range(a + 1, 3):
            for sa, ia in sides:
                for sb, ib in sides:
                    bidx = [slice(1, -1)] * 3
                    didx = [slice(1, -1)] * 3
                    bidx[a], bidx[b] = sa, sb
                    didx[a], didx[b] = ia, ib
                    mur1(tuple(bidx), tuple(didx), math.sqrt(2.0) * dx)
    for sa, ia in sides:
        for sb, ib in sides:
            for sc, ic in sides:
                mur1((sa, sb, sc), (ia, ib, ic), math.sqrt(3.0) * dx)


def reference_simulation(cfg, u0, v0, sample_rate=50.0):
    """Reference FDTD loop: ``run_simulation`` must match its snapshots bitwise.

    The absorbing boundary goes face by face, edge by edge and corner by
    corner through ``_apply_abc``, after an allocating leapfrog step.

    Snapshots are recorded at t_k = k / sample_rate for
    k = 0 .. round(T * sample_rate) - 1; the sample rate must divide the
    simulation rate.  Raises on CFL violation (at construction) and on
    non-finite field values (instability guard).
    """
    stride_f = 1.0 / (cfg.dt * sample_rate)
    stride = int(round(stride_f))
    if abs(stride_f - stride) > 1e-9 or stride < 1:
        raise ValueError("sample rate must divide the simulation rate")
    for ic in (u0, v0):
        reach = ic.support_radius
        if reach > 0.0 and (np.any(ic.x0 - reach < 0.0)
                            or np.any(ic.x0 + reach > cfg.L)):
            raise ValueError("initial condition support leaves the box")
    n = cfg.n_nodes
    dx = cfg.dx_eff
    axis = np.linspace(0.0, cfg.L, n)
    gx, gy, gz = np.meshgrid(axis, axis, axis, indexing="ij")
    pts = np.column_stack([gx.ravel(), gy.ravel(), gz.ravel()])
    u_grid = u0.eval(pts).reshape(n, n, n)
    v_grid = v0.eval(pts).reshape(n, n, n)

    cou2 = (cfg.c * cfg.dt / dx) ** 2
    cdt = cfg.c * cfg.dt
    n_samples = int(round(cfg.T * sample_rate))
    snaps = np.empty((n_samples, n, n, n))
    times = np.arange(n_samples) / sample_rate

    w_prev = u_grid.copy()
    snaps[0] = w_prev
    # Second-order accurate first step.
    w = u_grid + cfg.dt * v_grid + 0.5 * cou2 * _laplacian(u_grid)
    recorded = 1
    for step in range(1, cfg.n_steps + 1):
        if step % stride == 0 and recorded < n_samples:
            snaps[recorded] = w
            recorded += 1
        if recorded >= n_samples:
            break
        w_next = 2.0 * w - w_prev + cou2 * _laplacian(w)
        _apply_abc(w_next, w, w_prev, cdt, dx)
        w_prev, w = w, w_next
        if step % 25 == 0 and not np.isfinite(w).all():
            raise FloatingPointError(f"instability detected at step {step}")
    if recorded != n_samples:
        raise ValueError("simulation too short for the requested samples")
    return FieldHistory(cfg=cfg, times=times, snaps=snaps)
