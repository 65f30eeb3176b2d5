"""GP core tests against dense-solve oracles."""

import numpy as np
import pytest

from dense_reference import FunctionKernel, dense_nll, light_cone_contains
from waveinform import fast, gp
from waveinform.exceptions import KernelEvaluationError, SingularCovarianceError
from waveinform.experiments import case_theta
from waveinform.kernels import HyperParams, SourceParams, WaveKernel, matern52
from waveinform.linalg import BAND, assemble_covariance


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
        if not active or light_cone_contains(params, [x], [t])[0]:
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


BAND_SIZES = [1, BAND - 1, BAND, BAND + 1, 2 * BAND + 7]


def single_call_assembly(kernel, x, t):
    """One pairwise call on the whole block, upper triangle mirrored."""
    k = kernel.pairwise(x, t, x, t)
    return np.triu(k) + np.triu(k, 1).T


def mixed_points(rng, params, n):
    """n points, about half inside the light cones and half anywhere."""
    x_in, t_in = draw_points(rng, params, (n + 1) // 2)
    x_any, t_any = draw_points(rng, params, n // 2, active=False)
    order = rng.permutation(n)
    x = np.vstack([x_in, x_any.reshape(-1, 3)])
    return x[order], np.concatenate([t_in, t_any])[order]


@pytest.mark.parametrize("n", BAND_SIZES)
@pytest.mark.parametrize("case", [1, 2, 3])
def test_banded_assembly_is_bitwise_the_single_call(case, n):
    rng = np.random.default_rng(100 * case + n)
    params = case_theta(case)
    x, t = mixed_points(rng, params, n)
    kern = WaveKernel(params)
    k = assemble_covariance(kern, x, t)
    assert k.tobytes() == single_call_assembly(kern, x, t).tobytes()
    if n > BAND:
        inside = light_cone_contains(params, x, t)
        assert inside.any() and not inside.all() and np.any(k == 0.0)


@pytest.mark.parametrize("n", BAND_SIZES)
def test_banded_assembly_evaluates_the_upper_band_only(n):
    kern = FunctionKernel(lambda x1, t1, x2, t2: 1.0 + t1 * t2)
    t = np.linspace(0.0, 1.0, n)
    k = assemble_covariance(kern, np.zeros((n, 3)), t)
    assert np.array_equal(k, 1.0 + np.outer(t, t))
    starts = range(0, n, BAND)
    assert kern.eval_count == sum(min(BAND, n - a) * (n - a) for a in starts)


def test_banded_assembly_names_a_nonfinite_pair_in_a_later_band():
    n, i, j = 2 * BAND + 7, BAND + 1, BAND + 2

    def nan_at_pair(x1, t1, x2, t2):
        return np.nan if {t1, t2} == {i, j} else float(t1 == t2)

    with pytest.raises(KernelEvaluationError, match=f"points {i} and {j}:"):
        assemble_covariance(FunctionKernel(nan_at_pair), np.zeros((n, 3)),
                            np.arange(n, dtype=float))


def triu_mirror_assembly(kernel, x, t):
    """The banded upper triangle, mirrored afterwards through np.triu."""
    p = t.size
    kmat = np.zeros((p, p))
    for a in range(0, p, BAND):
        kmat[a:a + BAND, a:] = kernel.pairwise(x[a:a + BAND], t[a:a + BAND],
                                               x[a:], t[a:])
    return np.triu(kmat) + np.triu(kmat, 1).T


@pytest.mark.parametrize("n", [1, BAND - 1, BAND, BAND + 1, 2 * BAND + 1,
                               300])
def test_band_mirror_is_bitwise_the_triu_mirror(n):
    rng = np.random.default_rng(n)
    x, t = mixed_points(rng, case_theta(3), n)
    kern = WaveKernel(case_theta(3))
    k = assemble_covariance(kern, x, t)
    assert k.tobytes() == k.T.tobytes()
    assert k.tobytes() == triu_mirror_assembly(kern, x, t).tobytes()
    # A kernel that is not symmetric shows which half is kept.
    skew = FunctionKernel(lambda x1, t1, x2, t2: t1 - 2.0 * t2)
    t = rng.uniform(0.0, 1.0, n)
    k = assemble_covariance(skew, x, t)
    assert k.tobytes() == triu_mirror_assembly(skew, x, t).tobytes()
    # A non-finite entry is named by the same pair as before.
    i, j = np.sort(rng.integers(0, n, 2))
    nan_at = FunctionKernel(
        lambda x1, t1, x2, t2: np.nan if {t1, t2} == {t[i], t[j]}
        else t1 - 2.0 * t2)
    first = np.argwhere(np.isnan(triu_mirror_assembly(nan_at, x, t)))[0]
    with pytest.raises(KernelEvaluationError,
                       match=f"points {first[0]} and {first[1]}:"):
        assemble_covariance(nan_at, x, t)


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


def test_jitter_rescue_is_logged(caplog):
    # all off-diagonal entries 1 + 1e-8 against a unit diagonal: two
    # eigenvalues of -1e-8, which lam = 1e-12 does not lift
    def slightly_indefinite(x1, t1, x2, t2):
        return 1.0 if t1 == t2 else 1.0 + 1e-8

    kern = FunctionKernel(slightly_indefinite)
    x, t, y = np.zeros((3, 3)), [0.0, 1.0, 2.0], [1.0, 2.0, 3.0]
    with caplog.at_level("WARNING", logger="waveinform"):
        model = gp.fit_posterior(kern, x, t, y, 1e-12)
        fast.fast_nll(kern, x, t, y, 1e-12)
    assert model.factor.jitter > 0.0
    assert len(caplog.records) == 2
    for record in caplog.records:
        assert record.name == "waveinform.fast"
        assert record.levelname == "WARNING"
        assert record.args == (3, 3, model.factor.jitter)


@pytest.mark.parametrize("fit", [fast.fast_nll, gp.fit_posterior])
@pytest.mark.parametrize("n_obs", [5, 7])
def test_observation_length_must_match_point_count(fit, n_obs):
    kern = WaveKernel(case_theta(1))
    rng = np.random.default_rng(3)
    x, t = rng.uniform(0.0, 1.0, (6, 3)), rng.uniform(0.0, 1.4, 6)
    with pytest.raises(ValueError, match="length must match point count"):
        fit(kern, x, t, rng.normal(size=n_obs), case_theta(1).lam)


@pytest.mark.parametrize("fit", [fast.fast_nll, gp.fit_posterior])
@pytest.mark.parametrize("nan_at, lam, match", [
    (3, 0.01, "observations must be finite"),
    (0, 0.01, "observations must be finite"),
    (None, np.inf, "lam must be finite")],
    ids=["nan-inactive", "nan-active", "lam-inf"])
def test_non_finite_input_is_refused_before_detection(fit, nan_at, lam,
                                                      match):
    params = case_theta(1)
    x, t = draw_points(np.random.default_rng(8), params, 3)
    x, t = np.vstack([x, [0.05, 0.95, 0.95]]), np.append(t, 0.05)
    assert not light_cone_contains(params, x[3:], t[3:])[0]
    y = np.ones(4)
    if nan_at is not None:
        y[nan_at] = np.nan
    kern = WaveKernel(params)
    with pytest.raises(ValueError, match=match):
        fit(kern, x, t, y, lam)
    assert kern.eval_count == 0


@pytest.mark.parametrize("fit", [fast.fast_nll, gp.fit_posterior])
@pytest.mark.parametrize("where, value", [
    ("x", np.nan), ("x", np.inf), ("t", np.nan), ("t", np.inf)])
def test_non_finite_point_is_refused_before_detection(fit, where, value):
    params = case_theta(3)
    x, t = draw_points(np.random.default_rng(9), params, 4)
    if where == "x":
        x[2, 1] = value
    else:
        t[2] = value
    kern = WaveKernel(params)
    with pytest.raises(ValueError, match="positions and times must be finite"):
        fit(kern, x, t, np.ones(4), params.lam)
    assert kern.eval_count == 0


@pytest.mark.parametrize("predict", [fast.posterior_mean, fast.posterior_var])
@pytest.mark.parametrize("where, value", [
    ("x", np.nan), ("x", -np.inf), ("t", np.nan), ("t", np.inf)])
def test_non_finite_query_is_refused(predict, where, value):
    params = case_theta(3)
    rng = np.random.default_rng(10)
    x, t = draw_points(rng, params, 6)
    model = gp.fit_posterior(WaveKernel(params), x, t, rng.normal(size=6),
                             params.lam)
    xq, tq = x[:3].copy(), t[:3].copy()
    if where == "x":
        xq[1, 0] = value
    else:
        tq[1] = value
    with pytest.raises(ValueError, match="positions and times must be finite"):
        predict(model, xq, tq)


def test_posterior_model_is_frozen():
    kern = FunctionKernel(lambda x1, t1, x2, t2: 1.0 if t1 == t2 else 0.0)
    model = gp.fit_posterior(kern, np.zeros((2, 3)), [0.0, 1.0], [1.0, 2.0], 0.0)
    with pytest.raises(Exception):
        model.lam = 1.0
