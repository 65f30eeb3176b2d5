"""Independent numerical oracles for the wave-kernel closed forms.

Spherical product quadrature of the shell-measure integral forms, exact
spherical means for radial functions, grid Lp norms/errors, and a
finite-difference d'Alembertian residual checker: the checks that
``experiments.cmd_verify`` runs.  These are deliberately independent
evaluation paths: they never reuse the characteristic-radii closed forms
they are used to validate, nor the Matern functions of ``kernels``.
Each quadrature states its integrand once, as a list of Matern-5/2 profile
terms in the increment of the base's radial scalar
(``matern52_profile``).  The double sum of that list over node pairs is
taken exactly by sorting (``sorted_matern_sum``), or, when the scalars
spread too wide for the sorted sum's expansion, by the dense chunked sum
(``dense_matern_sum``).  The Kirchhoff formula and the dense references
for other bases, which only tests use, live in ``tests/dense_reference.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as P

from .fields import ScalarField3D
from .kernels import CUTOFF_ALPHA, RADIUS_CLAMP, _as_points, _time_sign

# Rows per block of the dense quadrature double sum.
QUAD_CHUNK = 256
# Largest spread of the radial scalar over rho (both node sets) for which
# the radial Matern bases take the sorted sum.  Its binomial expansion
# cancels about spread^2 eps relative (1.2e-9 at a spread of 300); the
# criterion-1 pair rule reaches about 38.  Wider spreads take the dense sum.
SORTED_SPREAD_MAX = 64.0
# Relative slack of the Lp stability bounds for the Riemann-sum norms.
LP_STABILITY_TOL = 0.02


@dataclass(frozen=True)
class SphericalRule:
    """Product quadrature rule on the unit sphere.

    Gauss-Legendre in cos(theta) times a uniform (trapezoid) grid in phi.
    Weights include the 1/(4 pi) normalization, so they sum to one and
    quadrature sums approximate surface averages.
    """

    nodes: np.ndarray
    weights: np.ndarray

    @classmethod
    def product(cls, n_polar):
        """n_polar Gauss-Legendre nodes times 2 n_polar uniform azimuths."""
        n_azimuth = 2 * n_polar
        cos_t, w_polar = np.polynomial.legendre.leggauss(n_polar)
        phi = 2.0 * np.pi * np.arange(n_azimuth) / n_azimuth
        sin_t = np.sqrt(np.maximum(1.0 - cos_t**2, 0.0))
        gx = np.outer(sin_t, np.cos(phi)).ravel()
        gy = np.outer(sin_t, np.sin(phi)).ravel()
        gz = np.outer(cos_t, np.ones(n_azimuth)).ravel()
        nodes = np.column_stack([gx, gy, gz])
        weights = np.outer(w_polar / 2.0, np.full(n_azimuth, 1.0 / n_azimuth)).ravel()
        return cls(nodes=nodes, weights=weights)

    @property
    def size(self):
        return self.weights.size


def matern52_profile(rho, sigma2, order):
    """The ``order``-th derivative of ``kernels.matern52`` as ``(p, parity)``.

    g(d) = exp(-d/rho) p(d/rho) for d >= 0 and g(-d) = parity g(d), with p
    as ascending coefficients.  p keeps degree 2 at every order, since
    d/dd [exp(-x) p(x)] = exp(-x) (p'(x) - p(x)) / rho with x = d/rho.
    """
    p = sigma2 * np.array([1.0, 1.0, 1.0 / 3.0])
    parity = 1.0
    for _ in range(order):
        p = (np.append(P.polyder(p), 0.0) - p) / rho
        parity = -parity
    return p, parity


class _RadialMatern:
    """Base kernel g(s(y) - s(y')) of one radial scalar s about ``center``.

    g is a signed derivative of the Matern-5/2 (:func:`matern52_profile`).
    Subclasses give ``radial`` (s at each node) and ``radial_slope``
    ((grad s) . d at each node), and may override ``_derivative``.  The
    shell quadratures see the base only through these and ``profile``.
    """

    def __init__(self, center, rho, sigma2):
        self.center = np.asarray(center, dtype=float).reshape(3)
        self.rho = float(rho)
        self.sigma2 = float(sigma2)

    def _derivative(self, order):
        """(sign, k): the order-th derivative of g is sign times m52's k-th."""
        return 1.0, order

    def profile(self, order):
        sign, k = self._derivative(order)
        p, parity = matern52_profile(self.rho, self.sigma2, k)
        return sign * p, parity


class MaternSquaredBase(_RadialMatern):
    """Radial base kernel k(y, y') = g(|y-x0|^2 - |y'-x0|^2).

    ``deriv_order=0`` uses the Matern-5/2 profile itself; ``deriv_order=2``
    uses its negated second derivative, the mixed partial of the Matern
    antiderivative surface (the speed-component prior).
    """

    def __init__(self, center, rho, sigma2, deriv_order):
        super().__init__(center, rho, sigma2)
        if deriv_order not in (0, 2):
            raise ValueError("deriv_order must be 0 or 2")
        self.deriv_order = deriv_order

    def radial(self, y):
        d = y - self.center
        return np.einsum("ij,ij->i", d, d)

    def radial_slope(self, y, d):
        return 2.0 * np.einsum("ij,ij->i", y - self.center, d)

    def _derivative(self, order):
        if self.deriv_order == 0:
            return 1.0, order
        if order != 0:
            raise NotImplementedError("derivative terms only for the plain profile")
        return -1.0, 2


class MaternRadiusBase(_RadialMatern):
    """Radial base kernel k(y, y') = m52(|y-x0| - |y'-x0|).

    The plain radial Matern prior of the position component.
    """

    def radial(self, y):
        return np.maximum(np.linalg.norm(y - self.center, axis=1), RADIUS_CLAMP)

    def radial_slope(self, y, d):
        return np.einsum("ij,ij->i", y - self.center, d) / self.radial(y)


def _unpack(z):
    x, t = z
    return np.asarray(x, dtype=float).reshape(3), float(t)


def _binomial_rows(p, x, moments):
    """Rows sum_j v_j e_j p(x_i - x'_j) from moments[i, m] = sum_j v_j e_j x'_j^m.

    Expands (x - x')^k binomially: the coefficient of (-x')^m is the m-th
    Taylor coefficient of p at x.
    """
    out = np.zeros_like(x)
    for m in range(p.size):
        taylor = [math.comb(k, m) * p[k] for k in range(m, p.size)]
        out += (-1.0) ** m * P.polyval(x, taylor) * moments[:, m]
    return out


def sorted_matern_sum(s1, s2, rho, terms):
    """Sum of u_i v_j g(s1_i - s2_j) over i, j and each (u, v, g) in ``terms``.

    Each g is a Matern-5/2 profile ``(p, parity)`` of :func:`matern52_profile`:
    exp(-|x|) times a polynomial in x = (s1_i - s2_j)/rho, one for x >= 0
    and its parity image for x < 0.  With s2 sorted, the x >= 0 pairs of
    each i are a prefix, where exp(-x) = exp(hi - x1) exp(x2 - hi) splits
    into a row and a column factor; the x < 0 pairs are the suffix, split
    at lo.  Prefix and suffix sums of v exp(+-x2) x2^m, m <= 2, then give
    every row exactly in O((n + m) log m) instead of the O(n m) double sum.
    The row factors reach exp(spread), spread = (max - min of s1, s2)/rho,
    and the binomial expansion cancels about spread^2 eps, so callers
    bound the spread (``SORTED_SPREAD_MAX``).
    """
    mid = 0.5 * (min(s1.min(), s2.min()) + max(s1.max(), s2.max()))
    order = np.argsort(s2, kind="stable")
    x1 = (s1 - mid) / rho
    x2 = (s2[order] - mid) / rho
    lo, hi = x2[0], x2[-1]
    split = np.searchsorted(x2, x1, side="right")   # x2[:split] <= x1
    powers = x2[:, None] ** np.arange(3)
    below = powers * np.exp(x2 - hi)[:, None]
    above = powers * np.exp(lo - x2)[:, None]
    row_below = np.exp(hi - x1)
    row_above = np.exp(x1 - lo)
    prefix = np.zeros((x2.size + 1, 3))
    suffix = np.zeros((x2.size + 1, 3))
    total = 0.0
    for u, v, (p, parity) in terms:
        v = v[order, None]
        np.cumsum(v * below, axis=0, out=prefix[1:])
        suffix[:-1] = np.cumsum((v * above)[::-1], axis=0)[::-1]
        q = parity * p * (-1.0) ** np.arange(p.size)   # g(x) = exp(x) q(x), x < 0
        rows = (row_below * _binomial_rows(p, x1, prefix[split])
                + row_above * _binomial_rows(q, x1, suffix[split]))
        total += u @ rows
    return total


def dense_matern_sum(s1, s2, rho, terms):
    """:func:`sorted_matern_sum` by the O(n m) double sum in row blocks.

    Each g is exp(-|x|) p(|x|), times its parity where x < 0; nothing
    cancels, so any spread can take it.
    """
    total = 0.0
    for lo in range(0, s1.size, QUAD_CHUNK):
        rows = slice(lo, lo + QUAD_CHUNK)
        x = (s1[rows, None] - s2[None, :]) / rho
        a = np.abs(x)
        e = np.exp(-a)
        negative = x < 0.0
        for u, v, (p, parity) in terms:
            g = e * P.polyval(a, p)
            total += u[rows] @ (np.where(negative, parity * g, g) @ v)
    return total


def _shell_sum(base, y1, y2, terms):
    """The ``terms`` sum over both node sets' radial scalars: sorted, or
    dense when they spread over more than ``SORTED_SPREAD_MAX`` rho."""
    s1, s2 = base.radial(y1), base.radial(y2)
    spread = max(s1.max(), s2.max()) - min(s1.min(), s2.min())
    if spread > SORTED_SPREAD_MAX * base.rho:
        return dense_matern_sum(s1, s2, base.rho, terms)
    return sorted_matern_sum(s1, s2, base.rho, terms)


def kv_wave_quadrature(base, z, zp, c, rule):
    """Double spherical quadrature of the shell-measure convolution.

    t t' * sum_{g,g'} w w' k(x - c|t| g, x' - c|t'| g'); the independent
    reference for the speed-component closed form.  For a radial Matern
    base this is one term, the profile g itself.
    """
    x, t = _unpack(z)
    xp, tp = _unpack(zp)
    y1 = x[None, :] - c * abs(t) * rule.nodes
    y2 = xp[None, :] - c * abs(tp) * rule.nodes
    w = rule.weights
    return t * tp * _shell_sum(base, y1, y2, [(w, w, base.profile(0))])


def ku_wave_quadrature(base, z, zp, c, rule):
    """Double spherical quadrature of the differentiated-shell convolution.

    Integrand: k - c|t| (grad1 k . g) - c|t'| (grad2 k . g')
    + c^2 |t||t'| g^T (grad1 grad2 k) g'; the independent reference for the
    position-component closed form.  For a radial Matern base it is
    g + (P + Q) g' + P Q g'' in the radial increment, with row factor
    P = -c|t| (grad s . g) and column factor Q = c|t'| (grad s . g'): four
    terms.
    """
    x, t = _unpack(z)
    xp, tp = _unpack(zp)
    ct, ctp = c * abs(t), c * abs(tp)
    y1 = x[None, :] - ct * rule.nodes
    y2 = xp[None, :] - ctp * rule.nodes
    w = rule.weights
    g, g1, g2 = (base.profile(k) for k in range(3))
    wp = -ct * base.radial_slope(y1, rule.nodes) * w
    wq = ctp * base.radial_slope(y2, rule.nodes) * w
    return _shell_sum(base, y1, y2,
                      [(w, w, g), (wp, w, g1), (w, wq, g1), (wp, wq, g2)])


def spherical_mean_radial(antideriv, x, t, c):
    """Shell average of a radial function, exactly, from an antiderivative.

    For g(y) = f(|y|^2) with F an antiderivative of f, the shell convolution
    at radius c|t| equals sgn(t)/(4 c r) * (F((r+c|t|)^2) - F((r-c|t|)^2)).
    Positions are taken relative to the profile center.
    """
    x = np.asarray(x, dtype=float).reshape(-1, 3)
    r = np.maximum(np.linalg.norm(x, axis=1), RADIUS_CLAMP)
    ct = c * abs(t)
    return (_time_sign(t) * (antideriv((r + ct) ** 2)
                             - antideriv((r - ct) ** 2)) / (4.0 * c * r))


def spherical_mean_radial_dt(profile, x, t, c):
    """Time derivative of the shell average of a radial function.

    Equals (1/(2 r)) * sum_eps (r + eps c|t|) f((r + eps c|t|)^2) for
    g(y) = f(|y|^2); used for exact grid evaluation of the differentiated
    shell convolution of radial initial positions.
    """
    x = np.asarray(x, dtype=float).reshape(-1, 3)
    r = np.maximum(np.linalg.norm(x, axis=1), RADIUS_CLAMP)
    ct = c * abs(t)
    bp = r + ct
    bm = r - ct
    return (bp * profile(bp * bp) + bm * profile(bm * bm)) / (2.0 * r)


def dalembert_residuals(f, x, t, c, step):
    """Normalized central-difference d'Alembertian residuals, batched.

    ``f(X, T)`` must accept (m, 3) positions and (m,) times.  The raw
    residual (1/c^2) d2f/dt2 - lap f is normalized by the largest
    second-derivative magnitude in the stencil, making it scale-free.
    """
    x, t = _as_points(x, t)
    m = x.shape[0]
    pts = [x, x, x]
    tms = [t, t + step, t - step]
    for axis in range(3):
        for sign in (1.0, -1.0):
            shifted = x.copy()
            shifted[:, axis] += sign * step
            pts.append(shifted)
            tms.append(t)
    allx = np.concatenate(pts, axis=0)
    allt = np.concatenate(tms, axis=0)
    vals = np.asarray(f(allx, allt), dtype=float).reshape(9, m)
    center = vals[0]
    d2t = (vals[1] - 2.0 * center + vals[2]) / step**2
    second = [d2t / c**2]
    for axis in range(3):
        plus = vals[3 + 2 * axis]
        minus = vals[4 + 2 * axis]
        second.append((plus - 2.0 * center + minus) / step**2)
    second = np.stack(second, axis=0)
    raw = second[0] - second[1:].sum(axis=0)
    scale = np.abs(second).max(axis=0)
    return np.where(scale > 0.0, np.abs(raw) / np.where(scale > 0, scale, 1.0), 0.0)


def is_smooth_point(params, x, t, step):
    """Filter for PDE-residual checks near a wave kernel's kink sets.

    Excludes stencil centers within a few steps of the spheres
    |r +- c|t|| = R (indicator truncation of the speed component), of the
    cutoff knee of the position component, of the focusing cone r = c|t| of
    the position component (the plain radial prior admits cone-singular
    draws at the center, so the propagated kernel is not pointwise C2
    there), of r = 0 and of t = 0.
    """
    x, t = _as_points(x, t)
    c = params.c
    margin = 3.0 * step * (1.0 + c)
    cone_margin = max(margin, 0.01)
    ok = (np.abs(t) > 3.0 * step)
    for name in params.components:
        src = getattr(params, name)
        r = np.linalg.norm(x - src.x0, axis=1)
        ok &= r > 0.05
        qm = np.abs(r - c * np.abs(t))
        qp = r + c * np.abs(t)
        radii = [src.radius]
        if name == "u":
            radii.append(CUTOFF_ALPHA * src.radius)
            ok &= qm > cone_margin
        for kink in radii:
            ok &= np.abs(qm - kink) > margin
            ok &= np.abs(qp - kink) > margin
    return ok


def lp_relative_error(approx: ScalarField3D, truth: ScalarField3D, p):
    """Relative Lp error between two fields on identical grids."""
    if not truth.same_grid(approx):
        raise ValueError("fields must share the same grid")
    denom = truth.norm(p)
    if denom == 0.0:
        raise ZeroDivisionError("truth field has zero norm")
    diff = ScalarField3D(origin=truth.origin, dx=truth.dx, dims=truth.dims,
                         values=truth.values - approx.values)
    return diff.norm(p) / denom


def lp_stability_check(u0_ic, v0_ic, c, t, norms, grid: ScalarField3D):
    """Check the Lp stability bounds of the propagated initial conditions.

    Verifies ||shell_mean(v0)||_p <= |t| ||v0||_p and
    ||d/dt shell_mean(u0)||_p <= ||u0||_p + 3 c |t| ||grad u0||_p, each with
    the multiplicative grid tolerance ``LP_STABILITY_TOL``, for every p in
    ``norms``.  The fields are built once and shared by the norms.  Returns
    one report dict with both sides per norm, in the order given.
    """
    pts = grid.points()
    v_field = grid.like(spherical_mean_radial(
        v0_ic.profile_antideriv, pts - v0_ic.x0, t, c))
    v_truth = grid.like(v0_ic.eval(pts))
    u_field = grid.like(spherical_mean_radial_dt(
        u0_ic.profile, pts - u0_ic.x0, t, c))
    u_truth = grid.like(u0_ic.eval(pts))
    grad = np.abs(u0_ic.grad(pts))
    reports = []
    for p in norms:
        if p == np.inf:
            grad_mag = grad.max(axis=1)
        else:
            grad_mag = (grad ** p).sum(axis=1) ** (1.0 / p)
        lhs_v = v_field.norm(p)
        rhs_v = abs(t) * v_truth.norm(p)
        lhs_u = u_field.norm(p)
        rhs_u = u_truth.norm(p) + 3.0 * c * abs(t) * grid.like(grad_mag).norm(p)
        reports.append({
            "t": t, "p": p, "tol": LP_STABILITY_TOL,
            "v_lhs": lhs_v, "v_rhs": rhs_v,
            "v_ok": bool(lhs_v <= rhs_v * (1.0 + LP_STABILITY_TOL) + 1e-12),
            "u_lhs": lhs_u, "u_rhs": rhs_u,
            "u_ok": bool(lhs_u <= rhs_u * (1.0 + LP_STABILITY_TOL) + 1e-12)})
    return reports


