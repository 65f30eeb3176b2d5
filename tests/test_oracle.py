"""Quadrature and finite-difference oracle unit tests."""

import math

import numpy as np
import pytest

from dense_reference import (NumericalBase, StationaryGaussianBase,
                             dense_ku_quadrature, dense_kv_quadrature,
                             kirchhoff_eval, lp_stability_dense,
                             lp_stability_fields, matern52_d2,
                             radial_matern, radial_matern_terms,
                             stationary_gaussian_wave)
from waveinform import oracle
from waveinform.fields import ScalarField3D
from waveinform.kernels import (CUTOFF_ALPHA, HyperParams, SourceParams,
                                ku_wave_radial, kv_wave_radial, matern52,
                                matern52_d1)
from waveinform.oracle import (MaternRadiusBase, MaternSquaredBase,
                               SphericalRule, dalembert_residuals,
                               is_smooth_point, ku_wave_quadrature,
                               kv_wave_quadrature, lp_relative_error,
                               lp_stability_check, spherical_mean_radial,
                               spherical_mean_radial_dt)
from waveinform.sim import ZERO_IC, InitialCondition


def test_rule_weights_sum_to_one():
    rule = SphericalRule.product(16)
    assert rule.weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert rule.nodes.shape == (16 * 32, 3)
    assert np.allclose(np.linalg.norm(rule.nodes, axis=1), 1.0)


def test_rule_first_moment_vanishes():
    rule = SphericalRule.product(12)
    moment = rule.weights @ rule.nodes
    assert np.allclose(moment, 0.0, atol=1e-14)


def test_ku_quadrature_time_zero_reduces_to_base():
    rule = SphericalRule.product(8)
    base = MaternRadiusBase([0.2, 0.2, 0.2], 0.3, 2.0)
    x1 = np.array([0.5, 0.4, 0.3])
    x2 = np.array([0.1, 0.6, 0.2])
    got = ku_wave_quadrature(base, (x1, 0.0), (x2, 0.0), 0.5, rule)
    assert got == pytest.approx(radial_matern(base, 0, x1[None], x2[None])[0, 0],
                                rel=1e-12)


def test_closed_forms_match_quadrature_fast():
    # small random spot check; the full order-64 sweep lives in acceptance
    rng = np.random.default_rng(3)
    rule = SphericalRule.product(24)
    for _ in range(3):
        x0 = rng.uniform(0.3, 0.7, 3)
        src = SourceParams(x0=x0, radius=np.inf, rho=rng.uniform(0.2, 0.8),
                           sigma2=rng.uniform(0.5, 3.0))
        c = rng.uniform(0.4, 0.8)
        z = (x0 + rng.normal(size=3) * 0.25, rng.uniform(0.1, 1.0))
        zp = (x0 + rng.normal(size=3) * 0.25, rng.uniform(0.1, 1.0))
        closed_v = kv_wave_radial([z[0]], [z[1]], [zp[0]], [zp[1]], c, src)[0, 0]
        quad_v = kv_wave_quadrature(
            MaternSquaredBase(x0, src.rho, src.sigma2, 2), z, zp, c, rule)
        assert quad_v == pytest.approx(closed_v, rel=2e-4)
        closed_u = ku_wave_radial([z[0]], [z[1]], [zp[0]], [zp[1]], c, src)[0, 0]
        quad_u = ku_wave_quadrature(
            MaternRadiusBase(x0, src.rho, src.sigma2), z, zp, c, rule)
        assert quad_u == pytest.approx(closed_u, rel=2e-4)


def test_quadrature_order_convergence():
    rng = np.random.default_rng(4)
    x0 = np.array([0.5, 0.5, 0.5])
    src = SourceParams(x0=x0, radius=np.inf, rho=0.5, sigma2=2.0)
    z = (x0 + np.array([0.3, 0.1, -0.2]), 0.8)
    zp = (x0 + np.array([-0.1, 0.25, 0.15]), 0.5)
    base = MaternSquaredBase(x0, 0.5, 2.0, 2)
    exact = kv_wave_radial([z[0]], [z[1]], [zp[0]], [zp[1]], 0.5, src)[0, 0]
    errs = [abs(kv_wave_quadrature(base, z, zp, 0.5,
                                   SphericalRule.product(order)) - exact)
            for order in (8, 16, 32)]
    assert errs[1] <= errs[0] / 4.0 or errs[1] < 1e-12
    assert errs[2] <= errs[1] / 4.0 or errs[2] < 1e-12


def _dense_kv(base, z, zp, c, rule):
    """kv by the full double sum of the closed-form base value."""
    return dense_kv_quadrature(lambda y1, y2: radial_matern(base, 0, y1, y2),
                               z, zp, c, rule)


def _matern_cases(x0, rho, sigma2):
    """(quadrature, base, dense reference) for every supported combination."""
    return [(kv_wave_quadrature, MaternSquaredBase(x0, rho, sigma2, 2), _dense_kv),
            (kv_wave_quadrature, MaternSquaredBase(x0, rho, sigma2, 0), _dense_kv),
            (kv_wave_quadrature, MaternRadiusBase(x0, rho, sigma2), _dense_kv),
            (ku_wave_quadrature, MaternSquaredBase(x0, rho, sigma2, 0),
             dense_ku_quadrature),
            (ku_wave_quadrature, MaternRadiusBase(x0, rho, sigma2),
             dense_ku_quadrature)]


def _assert_matches_dense_reference(x0, rho, sigma2, z, zp, c, rule):
    # the binomial expansion cancels about spread^2 eps <= 64^2 eps ~ 1e-12
    # of the sum of |terms|; 4e-12 leaves room for the summation order
    for quad, base, dense in _matern_cases(x0, rho, sigma2):
        with np.errstate(over="raise", invalid="raise"):
            got = quad(base, z, zp, c, rule)
        ref, scale = dense(base, z, zp, c, rule)
        assert abs(got - ref) <= 4e-12 * scale, (quad.__name__, type(base))


def _refuse(name):
    def refuse(*args):
        raise AssertionError(f"{name} taken")
    return refuse


@pytest.fixture
def no_dense_sum(monkeypatch):
    monkeypatch.setattr(oracle, "dense_matern_sum", _refuse("dense sum"))


@pytest.fixture
def no_sorted_sum(monkeypatch):
    # every spread is above a bound of 0, so the dense sum is taken
    monkeypatch.setattr(oracle, "SORTED_SPREAD_MAX", 0.0)
    monkeypatch.setattr(oracle, "sorted_matern_sum", _refuse("sorted sum"))


def _random_pairs(order):
    rng = np.random.default_rng(order)
    for _ in range(10):
        c = rng.uniform(0.3, 0.8)
        x0 = rng.uniform(0.2, 0.8, 3)
        rho, sigma2 = rng.uniform(0.1, 0.8), rng.uniform(0.5, 4.0)
        z = (x0 + rng.normal(size=3) * 0.3, rng.uniform(-1.3, 1.3))
        zp = (x0 + rng.normal(size=3) * 0.3, rng.uniform(0.05, 1.3))
        yield x0, rho, sigma2, z, zp, c


@pytest.mark.parametrize("order", [8, 16, 24])
def test_sorted_sum_matches_dense_random_pairs(order, no_dense_sum):
    rule = SphericalRule.product(order)
    for x0, rho, sigma2, z, zp, c in _random_pairs(order):
        _assert_matches_dense_reference(x0, rho, sigma2, z, zp, c, rule)


@pytest.mark.parametrize("order", [8, 16])
def test_dense_sum_matches_closed_derivatives_random_pairs(order,
                                                          no_sorted_sum):
    # the package's dense sum of profile polynomials against the tests'
    # chain-rule contractions of the closed Matern derivatives
    rule = SphericalRule.product(order)
    for x0, rho, sigma2, z, zp, c in _random_pairs(order):
        _assert_matches_dense_reference(x0, rho, sigma2, z, zp, c, rule)


def test_sorted_sum_ties_centre_and_time_zero(no_dense_sum):
    rule = SphericalRule.product(16)
    x0 = np.array([0.4, 0.5, 0.6])
    x = x0 + np.array([0.2, -0.1, 0.05])
    c, rho, sigma2 = 0.6, 0.3, 1.7
    cases = [((x, 0.0), (x, 0.0)),                 # t = t' = 0 at one point
             ((x0, 0.7), (x0, 0.7)),               # both at the centre: all ties
             ((x0, 0.0), (x0, 1e-5)),              # every radius clamped equal
             ((x, 0.0), (x0 + 0.25, 0.9)),         # t = 0 for ku
             ((x0 + 0.1, 0.4), (x, 0.0))]
    for z, zp in cases:
        _assert_matches_dense_reference(x0, rho, sigma2, z, zp, c, rule)
    # t = t' = 0 at one point: ku is the base value there, kv vanishes
    got = ku_wave_quadrature(MaternRadiusBase(x0, rho, sigma2), (x, 0.0),
                             (x, 0.0), c, rule)
    assert got == pytest.approx(sigma2, rel=1e-14)
    assert kv_wave_quadrature(MaternSquaredBase(x0, rho, sigma2, 2), (x, 0.0),
                              (x, 0.0), c, rule) == 0.0


@pytest.mark.parametrize("factor, sorted_taken", [(1.001, True), (0.999, False)])
def test_sorted_sum_spread_bound(factor, sorted_taken, monkeypatch):
    # rho just above / just below the one at which the radial spread over
    # both node sets reaches SORTED_SPREAD_MAX
    rule = SphericalRule.product(16)
    x0 = np.array([0.5, 0.5, 0.5])
    c = 0.5
    z = (x0 + np.array([0.3, 0.1, -0.2]), 0.8)
    zp = (x0 + np.array([-0.1, 0.25, 0.15]), 0.5)
    y1 = z[0][None, :] - c * z[1] * rule.nodes
    y2 = zp[0][None, :] - c * zp[1] * rule.nodes
    calls = []

    def counting(name):
        real = getattr(oracle, name)

        def count(*args):
            calls.append(name)
            return real(*args)
        return count

    for name in ("sorted_matern_sum", "dense_matern_sum"):
        monkeypatch.setattr(oracle, name, counting(name))
    for quad, base, dense in _matern_cases(x0, 1.0, 2.0):
        s = np.concatenate([base.radial(y1), base.radial(y2)])
        base.rho = factor * (s.max() - s.min()) / oracle.SORTED_SPREAD_MAX
        del calls[:]
        with np.errstate(over="raise", invalid="raise"):
            got = quad(base, z, zp, c, rule)
        ref, scale = dense(base, z, zp, c, rule)
        assert abs(got - ref) <= 4e-12 * scale
        assert calls == ["sorted_matern_sum" if sorted_taken
                         else "dense_matern_sum"]


def test_ku_quadrature_refuses_derivative_profile():
    # ku needs g' and g''; the deriv_order=2 base has neither, on both paths
    rule = SphericalRule.product(8)
    x0 = np.array([0.5, 0.5, 0.5])
    z, zp = (x0 + 0.2, 0.6), (x0 - 0.1, 0.4)
    for rho in (0.3, 1e-4):   # sorted, then dense (spread above the bound)
        with pytest.raises(NotImplementedError):
            ku_wave_quadrature(MaternSquaredBase(x0, rho, 1.0, 2), z, zp, 0.5, rule)


def test_matern52_profile_matches_closed_derivatives():
    rho, sigma2 = 0.37, 1.9
    h = rho * np.array([0.0, 1e-3, -1e-3, 1.0, -1.0, 30.0, -30.0])
    a = np.abs(h) / rho
    for order, closed in enumerate((matern52, matern52_d1, matern52_d2)):
        p, parity = oracle.matern52_profile(rho, sigma2, order)
        got = np.exp(-a) * np.polynomial.polynomial.polyval(a, p)
        got = np.where(h < 0.0, parity * got, got)
        np.testing.assert_allclose(got, closed(h, rho, sigma2), rtol=1e-13,
                                   atol=0.0)
    # the speed prior's base is the negated second derivative
    p, parity = MaternSquaredBase(np.zeros(3), rho, sigma2, 2).profile(0)
    p2, parity2 = oracle.matern52_profile(rho, sigma2, 2)
    assert np.array_equal(p, -p2) and parity == parity2 == 1.0


def test_numerical_base_matches_analytic_terms():
    rng = np.random.default_rng(5)
    base_a = MaternRadiusBase([0.4, 0.4, 0.4], 0.35, 1.5)
    base_n = NumericalBase(lambda y1, y2: radial_matern(base_a, 0, y1, y2),
                           step=1e-6)
    y1 = rng.uniform(0, 1, (4, 3))
    y2 = rng.uniform(0, 1, (5, 3))
    d1 = rng.normal(size=(4, 3))
    d1 /= np.linalg.norm(d1, axis=1, keepdims=True)
    d2 = rng.normal(size=(5, 3))
    d2 /= np.linalg.norm(d2, axis=1, keepdims=True)
    va, g1a, g2a, g12a = radial_matern_terms(base_a, y1, y2, d1, d2)
    assert np.allclose(g1a, base_n.grad1_dot(y1, y2, d1), atol=1e-6)
    assert np.allclose(g2a, base_n.grad2_dot(y1, y2, d2), atol=1e-6)
    assert np.allclose(g12a, base_n.cross_dot(y1, y2, d1, d2), atol=1e-4)


def test_spherical_mean_radial_constant_profile():
    # f = 1 has antiderivative F(s) = s, and the shell mean of 1 is t
    pts = np.array([[0.3, 0.2, 0.1], [0.9, 0.0, 0.0]])
    for t in (0.4, -0.7):
        vals = spherical_mean_radial(lambda s: s,
                                     np.linalg.norm(pts, axis=1), t, 0.5)
        assert np.allclose(vals, t, rtol=1e-12)


def test_spherical_mean_radial_time_zero():
    r = np.linalg.norm([[0.3, 0.2, 0.1]], axis=1)
    assert spherical_mean_radial(lambda s: s**2, r, 0.0, 0.5)[0] == 0.0


def test_spherical_mean_gaussian_vs_quadrature():
    length = 0.3

    def antideriv(s):
        # antiderivative of f(s) = exp(-s / L^2)
        return -length**2 * np.exp(-s / length**2)

    def g(y):
        return np.exp(-np.einsum("ij,ij->i", y, y) / length**2)

    rule = SphericalRule.product(48)
    x = np.array([0.25, 0.1, -0.2])
    t, c = 0.6, 0.7
    exact = spherical_mean_radial(antideriv, np.linalg.norm(x), t, c)
    nodes = x[None, :] - c * abs(t) * rule.nodes
    quad = t * float(rule.weights @ g(nodes))
    assert exact == pytest.approx(quad, rel=1e-8)


def test_spherical_mean_polynomial_exactness():
    # f(s) = s: F(s) = s^2/2; shell mean of |y|^2 is t (r^2 + c^2 t^2)
    x = np.array([[0.4, 0.1, 0.2]])
    r2 = float(np.einsum("ij,ij->i", x, x)[0])
    t, c = 0.5, 0.8
    got = spherical_mean_radial(lambda s: 0.5 * s * s,
                                np.linalg.norm(x, axis=1), t, c)[0]
    assert got == pytest.approx(t * (r2 + c * c * t * t), rel=1e-12)


def test_spherical_mean_dt_constant():
    # d/dt of the shell convolution of 1 is 1
    x = np.array([[0.3, -0.2, 0.4]])
    got = spherical_mean_radial_dt(lambda s: np.ones_like(s),
                                   np.linalg.norm(x, axis=1), 0.7, 0.5)[0]
    assert got == pytest.approx(1.0, rel=1e-12)


def test_kirchhoff_constant_solution():
    rule = SphericalRule.product(16)
    val = kirchhoff_eval(lambda y: np.full(len(y), 3.5),
                         lambda y: np.zeros((len(y), 3)),
                         lambda y: np.zeros(len(y)),
                         np.array([0.2, 0.3, 0.4]), 0.8, 0.5, rule)
    assert val == pytest.approx(3.5, rel=1e-12)


def test_kirchhoff_linear_in_time():
    rule = SphericalRule.product(16)
    val = kirchhoff_eval(lambda y: np.zeros(len(y)),
                         lambda y: np.zeros((len(y), 3)),
                         lambda y: np.ones(len(y)),
                         np.array([0.2, 0.3, 0.4]), 0.65, 0.5, rule)
    assert val == pytest.approx(0.65, rel=1e-12)


def test_kirchhoff_time_zero_returns_u0():
    rule = SphericalRule.product(8)
    u0 = InitialCondition(x0=[0.5, 0.5, 0.5], mid=0.0, half=0.3, amplitude=2.0)
    x = np.array([0.55, 0.5, 0.45])
    val = kirchhoff_eval(u0.eval, u0.grad, lambda y: np.zeros(len(y)),
                         x, 0.0, 0.5, rule)
    assert val == pytest.approx(u0.eval(x[None])[0], rel=1e-12)


def test_dalembert_linear_time_exact_zero():
    assert dalembert_residuals(lambda x, t: t, [[0.3, 0.3, 0.3]], [0.5],
                               0.5, 1e-3)[0] == 0.0


def test_dalembert_plane_wave_residual_and_decay():
    c = 1.0

    def f(x, t):
        return np.sin(x[:, 0] - c * t)

    res = [dalembert_residuals(f, [[0.3, 0.2, 0.6]], [0.4], c, step)[0]
           for step in (2e-3, 1e-3)]
    assert res[0] <= (2e-3)**2 * 10.0
    assert res[1] <= res[0] / 3.0


def test_dalembert_batched_matches_scalar():
    c = 0.7

    def f(x, t):
        return np.cos(x[:, 1] + 0.3 * x[:, 2] - c * t * math.sqrt(1.09))

    xs = np.array([[0.3, 0.4, 0.5], [0.1, 0.9, 0.2]])
    ts = np.array([0.3, 0.8])
    batch = dalembert_residuals(f, xs, ts, c, 1e-3)
    singles = [dalembert_residuals(f, xs[i:i + 1], ts[i:i + 1], c, 1e-3)[0]
               for i in range(2)]
    assert np.allclose(batch, singles)


def test_smooth_point_filter_excludes_kinks():
    params = HyperParams(
        c=0.5,
        v=SourceParams(x0=[0.5, 0.5, 0.5], radius=0.2, rho=0.05, sigma2=1.0))
    # a point exactly on |r - c t| = R is filtered out
    t = 0.8
    r_kink = params.v.radius + params.c * t
    x_kink = np.array([0.5 + r_kink, 0.5, 0.5])
    assert not is_smooth_point(params, [x_kink], [t], 1e-3)[0]
    x_ok = np.array([0.5 + r_kink - 0.1, 0.5, 0.5])
    assert is_smooth_point(params, [x_ok], [t], 1e-3)[0]
    assert not is_smooth_point(params, [x_ok], [1e-4], 1e-3)[0]
    # position component: the cutoff knee |r - c t| = CUTOFF_ALPHA R, on
    # both sides of the cone, and the focusing cone r = c t itself
    params = HyperParams(
        c=0.5,
        u=SourceParams(x0=[0.5, 0.5, 0.5], radius=0.2, rho=0.05, sigma2=1.0))
    ct, knee = params.c * t, CUTOFF_ALPHA * params.u.radius
    for r in (ct + knee, ct - knee, ct):
        x = np.array([0.5 + r, 0.5, 0.5])
        assert not is_smooth_point(params, [x], [t], 1e-3)[0]
    x_ok = np.array([0.5 + ct + 0.5 * knee, 0.5, 0.5])
    assert is_smooth_point(params, [x_ok], [t], 1e-3)[0]


def test_lp_relative_error_basics():
    grid = ScalarField3D.zeros([0, 0, 0], 0.1, (4, 4, 4))
    rng = np.random.default_rng(6)
    truth = grid.like(rng.normal(size=64))
    assert lp_relative_error(truth, truth, 2) == 0.0
    zero = grid.like(np.zeros(64))
    for p in (1, 2, np.inf):
        assert lp_relative_error(zero, truth, p) == pytest.approx(1.0)
    scaled = grid.like(1.5 * truth.values)
    assert lp_relative_error(scaled, truth, 2) == pytest.approx(0.5)
    with pytest.raises(ZeroDivisionError):
        lp_relative_error(truth, zero, 2)
    other = ScalarField3D.zeros([0, 0, 0], 0.2, (4, 4, 4))
    with pytest.raises(ValueError):
        lp_relative_error(other, truth, 2)


def test_lp_stability_zero_speed_profile():
    u0 = InitialCondition(x0=[0, 0, 0], mid=0.0, half=0.25, amplitude=5.0)
    v0 = ZERO_IC
    grid = ScalarField3D.zeros([-0.8, -0.8, -0.8], 0.05, (33, 33, 33))
    [rep] = lp_stability_check(u0, v0, 0.5, 0.5, (2,), grid)
    assert rep["v_lhs"] == 0.0 and rep["v_rhs"] == 0.0
    assert rep["v_ok"] and rep["u_ok"]


def test_lp_stability_ring_speed_bound():
    u0 = ZERO_IC
    v0 = InitialCondition(x0=[0, 0, 0], mid=(0.05 + 0.15) / 2,
                          half=(0.15 - 0.05) / 2, amplitude=50.0)
    grid = ScalarField3D.zeros([-0.6, -0.6, -0.6], 0.01, (121, 121, 121))
    [rep] = lp_stability_check(u0, v0, 0.5, 0.5, (2,), grid)
    assert rep["v_ok"]
    assert rep["v_lhs"] <= 0.5 * grid.like(v0.eval(grid.points())).norm(2) * 1.02


RAISED = InitialCondition(x0=[0, 0, 0], mid=0.0, half=0.25, amplitude=5.0)
RING = InitialCondition(x0=[0, 0, 0], mid=(0.05 + 0.15) / 2,
                        half=(0.15 - 0.05) / 2, amplitude=50.0)
# Radius 0.004 about a cell centre of the 0.025 grid: no node inside.
TINY = InitialCondition(x0=[0.0125] * 3, mid=0.0, half=0.004, amplitude=1.0)
LP_CASES = {
    "centred": (RAISED, RING, 0.5),
    "off_node": (InitialCondition(x0=[0.013, -0.0271, 0.0093], mid=0.0,
                                  half=0.25, amplitude=5.0),
                 InitialCondition(x0=[-0.021, 0.017, 0.004], mid=0.1,
                                  half=0.05, amplitude=50.0), 0.35),
    "zero_u0": (ZERO_IC, RING, 0.5),
    "zero_v0": (RAISED, ZERO_IC, 0.5),
    "ring_u0": (InitialCondition(x0=[0, 0, 0], mid=0.15, half=0.1,
                                 amplitude=5.0),
                InitialCondition(x0=[0.01, 0, 0], mid=0.0, half=0.2,
                                 amplitude=3.0), 0.45),
    "negative_t": (RAISED, RING, -0.4),
    "t_zero": (RAISED, RING, 0.0),
    "t_zero_empty": (TINY, TINY, 0.0),
}


def _lp_grid():
    return ScalarField3D.zeros([-0.65] * 3, 0.025, (53, 53, 53))


@pytest.mark.parametrize("case", sorted(LP_CASES))
def test_lp_stability_matches_dense_reference(case):
    u0, v0, t = LP_CASES[case]
    grid = _lp_grid()
    norms = (1, 2, np.inf)
    got = lp_stability_check(u0, v0, 0.5, t, norms, grid)
    want = lp_stability_dense(u0, v0, 0.5, t, norms, grid)
    for rep, ref in zip(got, want, strict=True):
        assert rep.keys() == ref.keys()
        for key, value in ref.items():
            if isinstance(value, float) and key.endswith(("lhs", "rhs")):
                assert rep[key] == pytest.approx(value, rel=1e-14, abs=0.0)
            else:
                assert rep[key] == value
    if case == "t_zero_empty":
        assert all(rep[k] == 0.0 for rep in got
                   for k in ("v_lhs", "v_rhs", "u_lhs", "u_rhs"))


@pytest.mark.parametrize("case", sorted(LP_CASES))
def test_lp_stability_balls_hold_every_nonzero_node(case):
    u0, v0, t = LP_CASES[case]
    grid = _lp_grid()
    fields = lp_stability_fields(u0, v0, 0.5, t, grid)
    balls = oracle._stability_balls(u0, v0, 0.5, t, grid)
    pts = grid.points()
    for name, ic in (("v", v0), ("u", u0), ("v0", v0), ("u0", u0)):
        index, r = balls[name]
        assert np.isin(np.flatnonzero(fields[name].values), index).all()
        # the ball's radii are the norms of its nodes, bitwise
        assert np.array_equal(r, np.linalg.norm(pts[index] - ic.x0, axis=1))
    nonzero_grad = np.flatnonzero(fields["grad"].any(axis=1))
    assert np.isin(nonzero_grad, balls["u0"][0]).all()


def test_lp_stability_refuses_a_grid_cutting_the_support():
    # At t = 0.5 the raised cosine's propagated ball has radius 0.5; the
    # grid reaches 0.2, inside even the support's radius 0.25.
    grid = ScalarField3D.zeros([-0.2] * 3, 0.02, (21, 21, 21))
    with pytest.raises(ValueError, match=r"radius 0\.5 .*propagated u"):
        lp_stability_check(RAISED, ZERO_IC, 0.5, 0.5, (2,), grid)
    # the ring's ball (0.4) leaves a grid that holds the zero u0's
    grid = ScalarField3D.zeros([-0.3] * 3, 0.02, (31, 31, 31))
    with pytest.raises(ValueError, match=r"\[-0\.3, -0\.3, -0\.3\].*"
                                         r"propagated v"):
        lp_stability_check(ZERO_IC, RING, 0.5, 0.5, (2,), grid)
    # the same ring fits at t = 0.2 (radius 0.25)
    lp_stability_check(ZERO_IC, RING, 0.5, 0.2, (2,), grid)


@pytest.mark.parametrize("c", [0.0, -0.5, np.inf, np.nan, True, "0.5"])
def test_lp_stability_refuses_bad_c(c):
    with pytest.raises(ValueError, match="c must be finite and positive"):
        lp_stability_check(RAISED, RING, c, 0.5, (2,), _lp_grid())


@pytest.mark.parametrize("t", [np.inf, -np.inf, np.nan, None])
def test_lp_stability_refuses_bad_t(t):
    with pytest.raises(ValueError, match="t must be finite"):
        lp_stability_check(RAISED, RING, 0.5, t, (2,), _lp_grid())


@pytest.mark.parametrize("p", [0, -1, 0.5, True, np.nan, "2"])
def test_lp_stability_refuses_bad_norm(p):
    with pytest.raises(ValueError, match=f"got {p!r}"):
        lp_stability_check(RAISED, RING, 0.5, 0.5, (2, p), _lp_grid())


def test_gaussian_prefactor_calibration_consistency():
    # the closed form, with its prefactor sqrt(pi/2), matches the quadrature
    rule = SphericalRule.product(32)
    amp, length, c = 1.3, 0.35, 0.8
    base = StationaryGaussianBase(amp, length)
    rng = np.random.default_rng(7)
    for _ in range(3):
        h = rng.normal(size=3) * 0.3
        t, tp = rng.uniform(0.3, 1.0, 2)
        closed = stationary_gaussian_wave(h, t, tp, c, amp, length)
        quad, _ = dense_kv_quadrature(base.value, (h, t), (np.zeros(3), tp),
                                      c, rule)
        assert closed == pytest.approx(quad, rel=1e-4)
    # and to 1e-6 at one reference geometry (unit amplitude, L = 0.4)
    h, t, tp = np.array([0.35, 0.0, 0.0]), 0.7, 0.45
    closed = stationary_gaussian_wave(h, t, tp, 1.0, 1.0, 0.4)
    quad, _ = dense_kv_quadrature(StationaryGaussianBase(1.0, 0.4).value,
                                  (h, t), (np.zeros(3), tp), 1.0, rule)
    assert quad == pytest.approx(closed, rel=1e-6)
