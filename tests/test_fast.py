"""Active-set shortcuts and rank-one likelihood tests."""

import math

import numpy as np
import pytest

from dense_reference import dense_nll, light_cone_contains, r_infinity, rank_one
from waveinform import experiments, fast, gp
from waveinform.fast import (detect_active, fast_nll, green_traces,
                             posterior_mean, posterior_var, regularized_green)
from waveinform.kernels import HyperParams, SourceParams, WaveKernel
from waveinform.linalg import assemble_covariance


def random_instance(rng, n):
    """Truncated-kernel instance with a mix of active and inactive points."""
    params = HyperParams(
        c=rng.uniform(0.3, 0.8),
        u=SourceParams(x0=rng.uniform(0.3, 0.7, 3), radius=rng.uniform(0.1, 0.25),
                       rho=rng.uniform(0.05, 0.3), sigma2=rng.uniform(0.5, 3.0)),
        v=SourceParams(x0=rng.uniform(0.3, 0.7, 3), radius=rng.uniform(0.05, 0.2),
                       rho=rng.uniform(0.005, 0.05), sigma2=rng.uniform(0.5, 3.0)))
    x = rng.uniform(0, 1, (n, 3))
    t = rng.uniform(0, 1.5, n)
    y = rng.normal(size=n)
    return WaveKernel(params), x, t, y


def test_detect_active_all_positive():
    rng = np.random.default_rng(0)
    params = HyperParams(c=0.5, u=SourceParams(
        x0=[0.5, 0.5, 0.5], radius=np.inf, rho=0.3, sigma2=1.0))
    kern = WaveKernel(params)
    x = rng.uniform(0, 1, (6, 3))
    t = rng.uniform(0, 1, 6)
    act = detect_active(kern, x, t)
    assert act.p == 6 and act.q == 0
    assert np.array_equal(act.permutation, np.arange(6))


def test_detect_active_matches_column_scan():
    rng = np.random.default_rng(1)
    kern, x, t, _ = random_instance(rng, 30)
    act = detect_active(kern, x, t)
    kmat = assemble_covariance(kern, x, t)
    brute = np.flatnonzero(np.abs(kmat).sum(axis=0) > 0.0)
    assert np.array_equal(np.sort(act.active), brute)


def test_detect_active_sensor_outside_all_cones():
    params = HyperParams(c=0.5, v=SourceParams(
        x0=[0.5, 0.5, 0.5], radius=0.05, rho=0.02, sigma2=1.0))
    kern = WaveKernel(params)
    times = np.linspace(0.0, 1.5, 10)
    # sensor distance 0.86 > c*T + R = 0.8: never reached
    x = np.tile([1.0, 1.0, 1.0], (10, 1))
    act = detect_active(kern, x, times)
    assert act.p == 0 and act.q == 10


def test_light_cone_agrees_with_diagonal():
    rng = np.random.default_rng(2)
    kern, x, t, _ = random_instance(rng, 200)
    analytic = light_cone_contains(kern.params, x, t)
    diag = kern.diag(x, t) > 0.0
    assert np.array_equal(analytic, diag)


def test_light_cone_basics():
    params = HyperParams(c=0.5, u=SourceParams(
        x0=[0.5, 0.5, 0.5], radius=0.2, rho=0.1, sigma2=1.0))
    assert light_cone_contains(params, [[0.6, 0.5, 0.5]], [0.0])[0]
    assert not light_cone_contains(params, [[0.95, 0.5, 0.5]], [0.2])[0]
    # closed shell: boundary belongs
    assert light_cone_contains(params, [[0.5 + 0.2 + 0.5 * 0.4, 0.5, 0.5]],
                               [0.4])[0]


def test_fast_nll_dense_equivalence_sweep():
    rng = np.random.default_rng(3)
    for _ in range(10):
        n = int(rng.integers(4, 20))
        kern, x, t, y = random_instance(rng, n)
        lam = 10.0 ** rng.uniform(-6, -2)
        fastval = fast_nll(kern, x, t, y, lam)
        denseval = dense_nll(kern, x, t, y, lam)
        assert fastval == pytest.approx(denseval, rel=1e-10)


def test_fast_nll_p_zero():
    params = HyperParams(c=0.5, v=SourceParams(
        x0=[0.5, 0.5, 0.5], radius=0.01, rho=0.01, sigma2=1.0))
    kern = WaveKernel(params)
    x = np.tile([0.95, 0.95, 0.95], (4, 1))
    t = np.linspace(0.0, 0.2, 4)
    lam = 1e-3
    y = np.array([0.0, 0.0, 0.0, 0.0])
    assert fast_nll(kern, x, t, y, lam) == pytest.approx(4 * math.log(lam))
    y2 = np.array([1.0, 2.0, 0.5, -1.0])
    assert fast_nll(kern, x, t, y2, lam) == pytest.approx(
        float(y2 @ y2) / lam + 4 * math.log(lam))


def test_fast_predict_matches_dense():
    rng = np.random.default_rng(4)
    kern, x, t, y = random_instance(rng, 25)
    lam = 1e-4
    model = gp.fit_posterior(kern, x, t, y, lam)
    xq = rng.uniform(0, 1, (30, 3))
    tq = rng.uniform(0, 1.5, 30)
    mean, var = posterior_mean(model, xq, tq), posterior_var(model, xq, tq)
    kmat = assemble_covariance(kern, x, t) + lam * np.eye(25)
    cross = kern.pairwise(x, t, xq, tq)
    dmean = cross.T @ np.linalg.solve(kmat, y)
    dvar = kern.diag(xq, tq) - np.einsum(
        "ij,ij->j", cross, np.linalg.solve(kmat, cross))
    assert np.allclose(mean, dmean, rtol=1e-10, atol=1e-12)
    assert np.allclose(var, np.maximum(dvar, 0.0), rtol=1e-8, atol=1e-10)


def test_fast_predict_prunes_kernel_calls():
    rng = np.random.default_rng(5)
    params = HyperParams(c=0.5, u=SourceParams(
        x0=[0.5, 0.5, 0.5], radius=0.1, rho=0.1, sigma2=1.0))
    kern = WaveKernel(params)
    x, t = [], []
    while len(t) < 10:
        xc = rng.uniform(0.3, 0.7, 3)
        tc = rng.uniform(0.05, 0.8)
        if light_cone_contains(params, [xc], [tc])[0]:
            x.append(xc)
            t.append(tc)
    model = gp.fit_posterior(kern, np.array(x), np.array(t),
                             rng.normal(size=10), 1e-6)
    # query grid mostly outside the light cone at t = 0; its first 100
    # points are queried twice
    grid = rng.uniform(0, 1, (500, 3))
    inside = light_cone_contains(params, grid, np.zeros(500)).sum()
    query = np.concatenate([grid, grid[:100]])
    kern.eval_count = 0
    mean = posterior_mean(model, query, np.zeros(600))
    assert np.array_equal(mean[500:], mean[:100])
    # one diagonal entry per distinct key, p cross entries per distinct
    # live key: the repeats cost nothing
    assert kern.eval_count == 500 + model.active_count * inside


def _in_cone_points(rng, params, n):
    x, t = [], []
    while len(t) < n:
        xc = rng.uniform(0.05, 0.95, 3)
        tc = rng.uniform(0.05, 1.4)
        if light_cone_contains(params, [xc], [tc])[0]:
            x.append(xc)
            t.append(tc)
    return np.array(x), np.array(t)


def _assert_matches_dense(model, xq, tq):
    """posterior_mean against k(X_in, z)^T alpha from the whole kernel.

    A query with a zero whole-kernel diagonal is an exact 0 by contract.
    (At a speed center at |t| ~ 1e-7 that diagonal rounds to 0 although
    the cross-covariance does not, so the unmasked product differs there.)
    """
    mean = posterior_mean(model, xq, tq)
    kern = model.kernel
    dense = np.where(kern.diag(xq, tq) > 0.0, kern.pairwise(
        model.factor.x_active, model.factor.t_active, xq, tq).T @ model.alpha,
        0.0)
    assert np.array_equal(mean == 0.0, dense == 0.0)
    assert np.max(np.abs(mean - dense)) <= 1e-12 * np.max(np.abs(dense))
    return dense


@pytest.mark.parametrize("case", [1, 2, 3])
def test_posterior_mean_matches_dense_cross(case):
    rng = np.random.default_rng(40 + case)
    params = experiments.case_theta(case)
    x, t = _in_cone_points(rng, params, 40)
    model = gp.fit_posterior(WaveKernel(params), x, t, rng.normal(size=40),
                             params.lam)
    # 0.05 spacing puts both source centers on nodes, so radii tie
    cfg = experiments.ExperimentConfig(test_case=case, dx_grid=0.05)
    pts = experiments.reconstruction_grid(cfg).points()
    zero_t = np.zeros(len(pts))
    _assert_matches_dense(model, pts, zero_t)
    assert np.any(_assert_matches_dense(model, pts, zero_t + cfg.dt_v))
    # random queries, mixed signs of t, both zeros, repeated rows
    xq = rng.uniform(0, 1, (600, 3))
    tq = rng.uniform(-1.4, 1.4, 600)
    tq[:50], tq[50:100] = 0.0, -0.0
    xq[100:150], tq[100:150] = xq[150:200], -tq[150:200]
    xq[200:250], tq[200:250] = xq[250:300], tq[250:300]
    assert np.any(_assert_matches_dense(model, xq, tq))


def test_rank_one_reference_value():
    assert rank_one([1.0, 0.0], [1.0, 1.0], 1.0) == pytest.approx(
        1.5 + math.log(2.0))
    assert 1.5 + math.log(2.0) == pytest.approx(2.1931, abs=1e-4)


def test_rank_one_zero_green():
    w = np.array([0.3, -0.4, 1.2])
    lam = 1e-2
    assert rank_one(np.zeros(3), w, lam) == pytest.approx(
        float(w @ w) / lam + 2 * math.log(lam) + math.log(lam))


def test_rank_one_matches_dense_two_by_two():
    rng = np.random.default_rng(6)
    for _ in range(5):
        f = rng.normal(size=4)
        w = rng.normal(size=4)
        lam = 10.0 ** rng.uniform(-4, 0)
        kmat = np.outer(f, f) + lam * np.eye(4)
        dense = float(w @ np.linalg.solve(kmat, w)) + np.linalg.slogdet(kmat)[1]
        assert rank_one(f, w, lam) == pytest.approx(dense, rel=1e-12)


def test_rank_one_rotation_invariance():
    rng = np.random.default_rng(7)
    f = rng.normal(size=6)
    w = rng.normal(size=6)
    q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
    a = rank_one(f, w, 1e-3)
    b = rank_one(q @ f, q @ w, 1e-3)
    assert a == pytest.approx(b, rel=1e-12)


def test_limit_profile_cases():
    w = np.array([1.0, 2.0, -1.0])
    assert rank_one(2.5 * w, w) == pytest.approx(0.0, abs=1e-12)
    f_orth = np.array([2.0, -1.0, 0.0])
    assert abs(f_orth @ w) < 1e-12
    assert rank_one(f_orth, w) == pytest.approx(float(w @ w))
    assert rank_one(np.zeros(3), w) == pytest.approx(float(w @ w))


def test_rank_one_limit_lambda_path():
    rng = np.random.default_rng(8)
    f = rng.normal(size=20)
    w = rng.normal(size=20)
    lim = rank_one(f, w)
    gaps = [abs(lam * rank_one(f, w, lam) - lim)
            for lam in (1e-2, 1e-4, 1e-6)]
    assert gaps[0] > gaps[1] > gaps[2]


def test_proportional_case_small_lambda():
    w = np.array([0.5, 1.0, -2.0])
    f = 3.0 * w
    vals = [lam * rank_one(f, w, lam) for lam in (1e-2, 1e-4, 1e-6)]
    assert abs(vals[-1]) < 1e-3


def test_r_infinity_cases():
    times = np.linspace(0.0, 1.0, 50)
    base = np.sin(2 * np.pi * times)[None, :] * np.ones((3, 1))
    assert r_infinity(2.0 * base, base, 1.0) == pytest.approx(1.0)
    orth = np.cos(2 * np.pi * times)[None, :] * np.ones((3, 1))
    assert abs(r_infinity(orth, base, 1.0)) < 1e-2
    with pytest.raises(ValueError):
        r_infinity(base, np.zeros_like(base), 1.0)


def test_regularized_green_mass_and_support():
    # the mass is t once the bump clears the origin: c|t| >= radius
    dist = np.linspace(0.0, 2.0, 4001)
    c, radius = 1.0, 0.1
    for t in (0.7, 0.1, 0.15):
        vals = regularized_green(dist, t, c, radius)
        assert np.all(vals[np.abs(dist - c * t) >= radius] == 0.0)
        mass = np.trapezoid(4 * np.pi * dist**2 * vals, dist)
        assert mass == pytest.approx(t, rel=1e-3)
    assert np.all(regularized_green(dist, 0.0, c, radius) == 0.0)


def test_green_traces_shape():
    out = green_traces([0.3, 0.5], np.linspace(0, 1, 11), 1.0, 0.05)
    assert out.shape == (2, 11)
