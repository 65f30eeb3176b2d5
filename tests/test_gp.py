"""GP core tests against dense-solve oracles."""

import numpy as np
import pytest

from dense_reference import FunctionKernel, dense_nll
from waveinform import fast, gp
from waveinform.exceptions import KernelEvaluationError, SingularCovarianceError
from waveinform.kernels import HyperParams, SourceParams, WaveKernel, matern52
from waveinform.linalg import assemble_covariance


def truncated_params(rng=None, both=True):
    return HyperParams(
        c=0.5,
        u=SourceParams(x0=[0.65, 0.3, 0.5], radius=0.3, rho=0.08, sigma2=3.0),
        v=SourceParams(x0=[0.3, 0.6, 0.7], radius=0.15, rho=0.01, sigma2=2.0)
        if both else None,
        lam=0.0)


def draw_points(rng, params, n, active=True):
    """Points inside (or regardless of) the light cones."""
    xs, ts = [], []
    while len(ts) < n:
        x = rng.uniform(0.02, 0.98, 3)
        t = rng.uniform(0.05, 1.4)
        if not active or fast.light_cone_contains(params, [x], [t])[0]:
            xs.append(x)
            ts.append(t)
    return np.array(xs), np.array(ts)


def dense_solve(kernel, x, t, y, lam):
    kmat = assemble_covariance(kernel, x, t) + lam * np.eye(len(t))
    return np.linalg.solve(kmat, y)


def draw_conditioned(rng, params, kern, n, cond_max=1e8):
    """In-cone points whose covariance is numerically invertible.

    Exact interpolation at lam = 0 presumes an invertible covariance, so
    near-singular draws (smooth kernels produce them readily) are rejected.
    """
    while True:
        x, t = draw_points(rng, params, n)
        kmat = assemble_covariance(kern, x, t)
        if np.linalg.cond(kmat) < cond_max:
            return x, t


def test_assemble_constant_kernel():
    kern = FunctionKernel(lambda x1, t1, x2, t2: 1.0)
    k = assemble_covariance(kern, np.zeros((2, 3)), [0.0, 1.0])
    assert np.array_equal(k, np.ones((2, 2)))


def test_assemble_single_point_matern():
    kern = FunctionKernel(
        lambda x1, t1, x2, t2: matern52(np.linalg.norm(x1 - x2), 1.0, 3.0))
    k = assemble_covariance(kern, np.zeros((1, 3)), [0.0])
    assert k.shape == (1, 1) and k[0, 0] == pytest.approx(3.0)


def test_assemble_exact_symmetry_truncated_kernel():
    rng = np.random.default_rng(0)
    params = truncated_params()
    kern = WaveKernel(params)
    x = rng.uniform(0, 1, (10, 3))
    t = rng.uniform(0, 1.4, 10)
    k = assemble_covariance(kern, x, t)
    assert np.array_equal(k, k.T)
    assert np.linalg.eigvalsh(k).min() >= -1e-8 * max(k.diagonal().max(), 1e-30)


def test_assemble_nonfinite_raises_with_pair():
    def bad(x1, t1, x2, t2):
        if t1 > 0.5 and t2 > 0.5:
            return np.nan
        return 1.0 if np.allclose(x1, x2) and t1 == t2 else 0.5

    with pytest.raises(KernelEvaluationError, match="points 1"):
        assemble_covariance(FunctionKernel(bad), np.zeros((2, 3)), [0.0, 1.0])


def test_posterior_and_likelihood_refuse_nonfinite_covariance():
    # finite diagonal (both points active), NaN between them
    kern = FunctionKernel(lambda x1, t1, x2, t2: 1.0 if t1 == t2 else np.nan)
    x, t, y = np.zeros((2, 3)), [0.0, 1.0], [1.0, 2.0]
    with pytest.raises(KernelEvaluationError, match="points 0 and 1"):
        gp.fit_posterior(kern, x, t, y, 1e-3)
    with pytest.raises(KernelEvaluationError, match="points 0 and 1"):
        fast.fast_nll(kern, x, t, y, 1e-3)


def test_fit_single_point_scalar():
    kern = FunctionKernel(lambda x1, t1, x2, t2: 1.0)
    model = gp.fit_posterior(kern, np.zeros((1, 3)), [0.0], [2.0], 0.0)
    assert model.alpha == pytest.approx([2.0])


def test_interpolation_at_lam_zero():
    rng = np.random.default_rng(1)
    params = truncated_params()
    kern = WaveKernel(params)
    x, t = draw_conditioned(rng, params, kern, 6)
    y = rng.normal(size=6)
    model = gp.fit_posterior(kern, x, t, y, 0.0)
    mean = fast.posterior_mean(model, x, t)
    assert np.abs(mean - y).max() <= 1e-6 * np.abs(y).max()


def test_alpha_matches_dense_solve():
    rng = np.random.default_rng(2)
    params = truncated_params()
    kern = WaveKernel(params)
    x, t = draw_conditioned(rng, params, kern, 5)
    y = rng.normal(size=5)
    model = gp.fit_posterior(kern, x, t, y, 0.0)
    alpha_dense = dense_solve(kern, x, t, y, 0.0)
    assert np.allclose(model.alpha, alpha_dense, rtol=1e-10)


def test_fit_lam_zero_rejects_unexplainable_data():
    params = truncated_params()
    kern = WaveKernel(params)
    x = np.array([[0.65, 0.3, 0.5], [0.01, 0.01, 0.01]])
    t = np.array([0.1, 0.01])  # second point is outside every cone
    assert kern.diag(x, t)[1] == 0.0
    with pytest.raises(SingularCovarianceError):
        gp.fit_posterior(kern, x, t, [1.0, 0.5], 0.0)
    # zero observation outside the support is fine
    model = gp.fit_posterior(kern, x, t, [1.0, 0.0], 0.0)
    assert model.active_count == 1


def test_predict_mean_outside_cone_is_zero():
    rng = np.random.default_rng(3)
    params = truncated_params()
    kern = WaveKernel(params)
    x, t = draw_points(rng, params, 5)
    model = gp.fit_posterior(kern, x, t, rng.normal(size=5), 1e-6)
    xq = np.array([[0.99, 0.99, 0.99]])
    tq = np.array([0.02])
    assert kern.diag(xq, tq)[0] == 0.0
    assert fast.posterior_mean(model, xq, tq)[0] == 0.0
    assert fast.posterior_var(model, xq, tq)[0] == 0.0


def test_predict_matches_dense_oracle():
    rng = np.random.default_rng(4)
    params = truncated_params()
    kern = WaveKernel(params)
    x, t = draw_points(rng, params, 8)
    y = rng.normal(size=8)
    lam = 1e-4
    model = gp.fit_posterior(kern, x, t, y, lam)
    xq, tq = draw_points(rng, params, 6, active=False)
    mean = fast.posterior_mean(model, xq, tq)
    var = fast.posterior_var(model, xq, tq)
    kmat = assemble_covariance(kern, x, t) + lam * np.eye(8)
    cross = kern.pairwise(x, t, xq, tq)
    dmean = cross.T @ np.linalg.solve(kmat, y)
    prior = kern.diag(xq, tq)
    dvar = prior - np.einsum("ij,ij->j", cross, np.linalg.solve(kmat, cross))
    assert np.allclose(mean, dmean, rtol=1e-10, atol=1e-12)
    assert np.allclose(var, np.maximum(dvar, 0.0), rtol=1e-8, atol=1e-10)


def test_variance_bounds():
    rng = np.random.default_rng(5)
    params = truncated_params()
    kern = WaveKernel(params)
    x, t = draw_conditioned(rng, params, kern, 8)
    model = gp.fit_posterior(kern, x, t, rng.normal(size=8), 1e-5)
    xq, tq = draw_points(rng, params, 40, active=False)
    var = fast.posterior_var(model, xq, tq)
    prior = kern.diag(xq, tq)
    assert np.all(var >= 0.0)
    assert np.all(var <= prior + 1e-10)
    # training variance vanishes for noiseless conditioning
    model0 = gp.fit_posterior(kern, x, t, rng.normal(size=8), 0.0)
    assert np.abs(fast.posterior_var(model0, x, t)).max() <= 1e-8


def test_nll_single_point_unit_kernel():
    kern = FunctionKernel(lambda x1, t1, x2, t2: 1.0)
    val = fast.fast_nll(kern, np.zeros((1, 3)), [0.0], [1.0], 1e-12)
    assert val == pytest.approx(1.0, abs=1e-9)


def test_nll_zero_data_is_logdet():
    rng = np.random.default_rng(6)
    params = truncated_params()
    kern = WaveKernel(params)
    x, t = draw_points(rng, params, 5)
    lam = 1e-3
    val = fast.fast_nll(kern, x, t, np.zeros(5), lam)
    kmat = assemble_covariance(kern, x, t) + lam * np.eye(5)
    assert val == pytest.approx(np.linalg.slogdet(kmat)[1], rel=1e-10)


def test_nll_null_column_matches_dense_6x6():
    rng = np.random.default_rng(7)
    params = truncated_params()
    kern = WaveKernel(params)
    x, t = draw_points(rng, params, 5)
    # append a point outside every light cone: one exactly-null column
    x = np.vstack([x, [0.99, 0.99, 0.99]])
    t = np.append(t, 0.02)
    assert kern.diag(x, t)[5] == 0.0
    y = rng.normal(size=6)
    lam = 1e-3
    assert fast.fast_nll(kern, x, t, y, lam) == pytest.approx(
        dense_nll(kern, x, t, y, lam), rel=1e-10)


def test_nll_requires_positive_lam():
    kern = FunctionKernel(lambda x1, t1, x2, t2: 1.0)
    with pytest.raises(ValueError):
        fast.fast_nll(kern, np.zeros((1, 3)), [0.0], [1.0], 0.0)


def test_jitter_ladder_exhaustion():
    # a hard-indefinite "kernel" defeats every jitter level
    def indefinite(x1, t1, x2, t2):
        return 1.0 if (t1 == t2) else 2.0

    kern = FunctionKernel(indefinite)
    with pytest.raises(SingularCovarianceError, match="jitters"):
        gp.fit_posterior(kern, np.zeros((3, 3)), [0.0, 1.0, 2.0],
                         [1.0, 2.0, 3.0], 0.0)


def test_posterior_model_is_frozen():
    kern = FunctionKernel(lambda x1, t1, x2, t2: 1.0 if t1 == t2 else 0.0)
    model = gp.fit_posterior(kern, np.zeros((2, 3)), [0.0, 1.0], [1.0, 2.0], 0.0)
    with pytest.raises(Exception):
        model.lam = 1.0
