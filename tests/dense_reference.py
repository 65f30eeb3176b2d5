"""Dense references and test-only helpers that the tests compare against.

``FunctionKernel`` evaluates a scalar two-point function entry by entry,
``dense_nll`` is the likelihood of the full covariance, with no
active-set reduction, and ``reference_simulation`` is the FDTD time loop
with the absorbing boundary applied face by face.  ``FunctionIC`` turns a
function (and optionally its gradient) into an initial condition,
``NumericalBase`` gives any spatial kernel central-difference derivative
contractions, ``light_cone_contains`` is the analytic membership in a
wave kernel's support shells, ``r_infinity`` the dense-time correlation of
sensor traces, ``subset`` restricts a sensor dataset to its first
sensors, ``speed_central_difference`` is the Kriging mean's central
difference in t about t = 0, and ``rank_one`` states the point-source
likelihood in the vectors F and W.  ``four_term_radial`` and ``four_term_kernel`` assemble
the wave kernel's closed form with all four characteristic terms of every
entry evaluated, including those with a zero weight; the package
evaluates only the live terms and is compared against them.
``lp_stability_fields`` and ``lp_stability_dense`` are the Lp stability
check evaluated at every grid node, where ``oracle.lp_stability_check``
evaluates each field only inside its ball.

The paper's stationary-prior closed forms and the Kirchhoff formula are
independent checks of the theory that no pipeline stage runs:
``stationary_ftft_density`` is the shell-pair density (singular at the
origin, ``SingularEvaluationError``), ``stationary_gaussian_wave`` the
closed form for the ``StationaryGaussianBase`` kernel with its prefactor
sqrt(pi/2), and ``kirchhoff_eval`` / ``kirchhoff_trace`` the Kirchhoff
solution formula on a spherical rule.

The shell quadratures of ``oracle`` sum Matern-5/2 profile polynomials.
Their dense references go another way: ``kernels.matern52_d1`` and
``matern52_d2`` are the closed derivatives of ``kernels.matern52``,
``radial_matern`` and ``radial_matern_terms`` the value and the chain-rule
contractions of a radial oracle base built on them, and
``dense_kv_quadrature`` / ``dense_ku_quadrature`` the full double sums
over node pairs, the kv one for any base ``value(y1, y2)`` such as
``StationaryGaussianBase``.
"""

import math

import numpy as np
from scipy.special import ndtr

from waveinform.fast import rank_one_objective
from waveinform.kernels import (PointBatch, _features, _time_sign,
                                _weighted_matern, matern52, matern52_d1)
from waveinform.linalg import (assemble_covariance, chol_with_jitter,
                               half_solve, logdet_from_chol)
from waveinform.oracle import (LP_STABILITY_TOL, spherical_mean_radial,
                               spherical_mean_radial_dt)
from waveinform.sim import FieldHistory, SensorDataset


class SingularEvaluationError(ArithmeticError):
    """A closed-form density was evaluated at one of its singular points."""


class FunctionKernel:
    """Adapter turning a scalar two-point function into a kernel object.

    Its batch is the plain (x, t) points, with no features.
    """

    def __init__(self, func):
        self.func = func
        self.eval_count = 0

    def batch(self, x, t):
        return PointBatch(*_as_points(x, t), {}, None)

    def pairwise(self, b1, b2):
        out = np.empty((len(b1), len(b2)))
        for i in range(len(b1)):
            for j in range(len(b2)):
                out[i, j] = self.func(b1.x[i], b1.t[i], b2.x[j], b2.t[j])
        self.eval_count += out.size
        return out

    def diag(self, b):
        out = np.array([self.func(b.x[i], b.t[i], b.x[i], b.t[i])
                        for i in range(len(b))])
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


class NumericalBase:
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


class StationaryGaussianBase:
    """Stationary Gaussian base kernel C * exp(-|y-y'|^2 / (2 L^2))."""

    def __init__(self, amplitude, length):
        self.amplitude = float(amplitude)
        self.length = float(length)

    def value(self, y1, y2):
        sq = (np.einsum("ij,ij->i", y1, y1)[:, None]
              + np.einsum("ij,ij->i", y2, y2)[None, :]
              - 2.0 * y1 @ y2.T)
        return self.amplitude * np.exp(-0.5 * np.maximum(sq, 0.0) / self.length**2)


def matern52_d2(h, rho, sigma2):
    """Second derivative of ``kernels.matern52`` with respect to h (even in h)."""
    a = np.abs(h) / rho
    return -sigma2 * (1.0 + a - a * a) * np.exp(-a) / (3.0 * rho**2)


def radial_matern(base, order, y1, y2):
    """The order-th derivative of a radial oracle base's profile g at
    s(y1_i) - s(y2_j), from the closed Matern derivatives."""
    sign, k = base._derivative(order)
    delta = base.radial(y1)[:, None] - base.radial(y2)[None, :]
    return sign * (matern52, matern52_d1, matern52_d2)[k](delta, base.rho,
                                                          base.sigma2)


def radial_matern_terms(base, y1, y2, d1, d2):
    """k, grad1 k . d1, grad2 k . d2 and d1' (grad1 grad2 k) d2 of a radial
    oracle base k(y, y') = g(s(y) - s(y')), by the chain rule."""
    a1 = base.radial_slope(y1, d1)[:, None]
    a2 = base.radial_slope(y2, d2)[None, :]
    g1 = radial_matern(base, 1, y1, y2)
    return (radial_matern(base, 0, y1, y2), a1 * g1, -g1 * a2,
            -a1 * a2 * radial_matern(base, 2, y1, y2))


def _shell_nodes(z, zp, c, rule):
    (x, t), (xp, tp) = z, zp
    y1 = np.asarray(x, dtype=float)[None, :] - c * abs(t) * rule.nodes
    y2 = np.asarray(xp, dtype=float)[None, :] - c * abs(tp) * rule.nodes
    return y1, y2


def _row_block_sum(block, w):
    """w' K w and w' |K| w, with K's rows from ``block(rows)`` 256 at a time."""
    acc = scale = 0.0
    for lo in range(0, w.size, 256):
        rows = slice(lo, lo + 256)
        kmat = block(rows)
        acc += w[rows] @ (kmat @ w)
        scale += w[rows] @ (np.abs(kmat) @ w)
    return acc, scale


def dense_kv_quadrature(value, z, zp, c, rule):
    """``oracle.kv_wave_quadrature`` of the base ``value(y1, y2)`` by the
    full double sum over node pairs; also the sum of the terms' magnitudes."""
    t, tp = z[1], zp[1]
    y1, y2 = _shell_nodes(z, zp, c, rule)
    acc, scale = _row_block_sum(lambda rows: value(y1[rows], y2), rule.weights)
    return t * tp * acc, abs(t * tp) * scale


def dense_ku_quadrature(base, z, zp, c, rule):
    """``oracle.ku_wave_quadrature`` of a radial oracle base by the full
    double sum of ``radial_matern_terms``; also the sum of the magnitudes."""
    ct, ctp = c * abs(z[1]), c * abs(zp[1])
    y1, y2 = _shell_nodes(z, zp, c, rule)

    def block(rows):
        v, g1, g2, g12 = radial_matern_terms(base, y1[rows], y2,
                                             rule.nodes[rows], rule.nodes)
        return v - ct * g1 - ctp * g2 + (ct * ctp) * g12

    return _row_block_sum(block, rule.weights)


def stationary_ftft_density(hnorm, t, tp, c):
    """Density of the convolved spherical shell measures at radius hnorm.

    sgn(t) sgn(t') / (8 pi c^2 hnorm) on the band
    [c||t|-|t'||, c(|t|+|t'|)], zero outside.  Evaluating at hnorm = 0
    inside the band is singular.
    """
    if hnorm < 0.0:
        raise ValueError("hnorm must be >= 0")
    sgn = _time_sign(t) * _time_sign(tp)
    if sgn == 0.0:
        return 0.0
    lo = c * abs(abs(t) - abs(tp))
    hi = c * (abs(t) + abs(tp))
    if hnorm < lo or hnorm > hi:
        return 0.0
    if hnorm == 0.0:
        raise SingularEvaluationError(
            "shell convolution density diverges at hnorm = 0 inside the band")
    return sgn / (8.0 * math.pi * c * c * hnorm)


def stationary_gaussian_wave(h, t, tp, c, C, L):
    """Closed form for a stationary Gaussian base kernel C*exp(-|h|^2/(2L^2)).

    sgn(t t') * sqrt(pi/2) * L^3 / c^2 * (q(R1) - q(R2)) with
    q(R) = (Phi((R+|h|)/L) - Phi((R-|h|)/L)) / (2|h|),
    R1 = c||t|-|t'||, R2 = c(|t|+|t'|), Phi the standard normal CDF.
    Near |h| = 0 the difference quotient is replaced by its analytic limit.
    """
    sgn = _time_sign(t) * _time_sign(tp)
    if sgn == 0.0:
        return 0.0
    hn = float(np.linalg.norm(np.asarray(h, dtype=float).reshape(-1)))
    r1 = c * abs(abs(t) - abs(tp))
    r2 = c * (abs(t) + abs(tp))

    def quotient(radius):
        if hn < 1e-8:
            return math.exp(-0.5 * (radius / L) ** 2) / (L * math.sqrt(2.0 * math.pi))
        return (ndtr((radius + hn) / L) - ndtr((radius - hn) / L)) / (2.0 * hn)

    return (sgn * math.sqrt(math.pi / 2) * C * L**3 / c**2
            * (quotient(r1) - quotient(r2)))


def kirchhoff_eval(u0, grad_u0, v0, x, t, c, rule):
    """Kirchhoff solution formula at one space-time point.

    Surface average of t v0(x - c|t| g) + u0(x - c|t| g)
    - c|t| g . grad u0(x - c|t| g).
    """
    x = np.asarray(x, dtype=float).reshape(3)
    y = x[None, :] - c * abs(t) * rule.nodes
    vals = u0(y).astype(float)
    if t != 0.0:
        vals = vals + t * v0(y)
        vals = vals - c * abs(t) * np.einsum("ij,ij->i", rule.nodes, grad_u0(y))
    return float(rule.weights @ vals)


def kirchhoff_trace(u0, grad_u0, v0, x, times, c, rule):
    """Kirchhoff formula evaluated along a time series at a fixed probe."""
    return np.array([kirchhoff_eval(u0, grad_u0, v0, x, t, c, rule) for t in times])


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


def speed_central_difference(model, x, h=1e-4):
    """(m(x, h) - m(x, -h)) / (2h) for the Kriging mean m of ``model``,
    from the whole kernel's cross-covariance with the training points.

    The position part of the kernel depends on |t| and cancels exactly;
    the speed part is odd in t, so the error is O(h^2).
    """
    k_plus, k_minus = (model.kernel.pairwise(
        model.points, model.kernel.batch(x, np.full(len(x), t)))
        for t in (h, -h))
    return (k_plus - k_minus).T @ model.alpha / (2.0 * h)


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


def four_term_assemble(w1, s1, w2, s2, src):
    """sum_e' w2[e'] * (sum_e w1[e] * m52(s1[e] - s2[e'])), broadcast, with
    all four terms evaluated.

    Rows are the two characteristic radii; the remaining axes broadcast, so
    (2, n, 1) against (2, 1, m) gives a pairwise block and (2, n) against
    (2, n) a diagonal.
    """
    shape = np.broadcast_shapes(s1.shape[1:], s2.shape[1:])
    acc, inner, term, h = (np.empty(shape) for _ in range(4))
    for e2 in (0, 1):
        for e in (0, 1):
            np.subtract(s1[e], s2[e2], out=h)
            _weighted_matern(h, w1[e], src.rho, src.sigma2,
                             term if e else inner)
        inner += term
        if e2:
            inner *= w2[1]
            acc += inner
        else:
            np.multiply(inner, w2[0], out=acc)
    return acc


def four_term_radial(comp, src, c, r1, t1, r2=None, t2=None):
    """One component's (len(r1), len(r2)) block at radii r = |x - x0|, or
    its diagonal when r2 is None, through ``four_term_assemble``.
    ``WaveKernel`` returns it plus +0: ``pairwise`` against a
    ``radial_batch`` at (r2, t2), ``diag`` of one at (r1, t1)."""
    w1, s1 = _features(comp, r1, t1, c, src)
    if r2 is None:
        return four_term_assemble(w1, s1, w1, s1, src)
    w2, s2 = _features(comp, r2, t2, c, src)
    return four_term_assemble(w1[:, :, None], s1[:, :, None],
                              w2[:, None, :], s2[:, None, :], src)


def four_term_kernel(params, x1, t1, x2=None, t2=None):
    """``wave_kernel`` (``wave_kernel_diag`` when x2 is None) through
    ``four_term_assemble``."""
    x1, t1 = _as_points(x1, t1)
    if x2 is not None:
        x2, t2 = _as_points(x2, t2)
    out = np.zeros(t1.shape if x2 is None else (t1.size, t2.size))
    for comp in params.components:
        src = getattr(params, comp)
        r2 = None if x2 is None else np.linalg.norm(x2 - src.x0, axis=1)
        out += four_term_radial(comp, src, params.c,
                                np.linalg.norm(x1 - src.x0, axis=1), t1,
                                r2, t2)
    return out


def dense_nll(kernel, x, t, y, lam):
    """Likelihood from the Cholesky factor of the full (n, n) covariance."""
    y = np.asarray(y, dtype=float).reshape(-1)
    kmat = (assemble_covariance(kernel, kernel.batch(x, t))
            + lam * np.eye(y.size))
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


def lp_stability_fields(u0_ic, v0_ic, c, t, grid):
    """The Lp stability check's fields at every node of ``grid``, as fields:
    the propagated "v" and "u", the truths "v0" and "u0", and "grad", the
    (N, 3) absolute gradient of u0."""
    pts = grid.points()
    return {
        "v": grid.like(spherical_mean_radial(
            v0_ic.profile_antideriv, np.linalg.norm(pts - v0_ic.x0, axis=1),
            t, c)),
        "v0": grid.like(v0_ic.eval(pts)),
        "u": grid.like(spherical_mean_radial_dt(
            u0_ic.profile, np.linalg.norm(pts - u0_ic.x0, axis=1), t, c)),
        "u0": grid.like(u0_ic.eval(pts)),
        "grad": np.abs(u0_ic.grad(pts))}


def lp_stability_dense(u0_ic, v0_ic, c, t, norms, grid):
    """``oracle.lp_stability_check``'s reports from the full-grid fields."""
    fields = lp_stability_fields(u0_ic, v0_ic, c, t, grid)
    grad = fields["grad"]
    reports = []
    for p in norms:
        if p == np.inf:
            grad_mag = grad.max(axis=1)
        else:
            grad_mag = (grad ** p).sum(axis=1) ** (1.0 / p)
        lhs_v = fields["v"].norm(p)
        rhs_v = abs(t) * fields["v0"].norm(p)
        lhs_u = fields["u"].norm(p)
        rhs_u = (fields["u0"].norm(p)
                 + 3.0 * c * abs(t) * grid.like(grad_mag).norm(p))
        reports.append({
            "t": t, "p": p, "tol": LP_STABILITY_TOL,
            "v_lhs": lhs_v, "v_rhs": rhs_v,
            "v_ok": bool(lhs_v <= rhs_v * (1.0 + LP_STABILITY_TOL) + 1e-12),
            "u_lhs": lhs_u, "u_rhs": rhs_u,
            "u_ok": bool(lhs_u <= rhs_u * (1.0 + LP_STABILITY_TOL) + 1e-12)})
    return reports
