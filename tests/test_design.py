"""Design-of-experiments and optimizer tests."""

import numpy as np
import pytest

from waveinform.design import (HyperBox, lhs_design, minimize_box,
                               multistart_fit, nll_objective)
from waveinform.exceptions import KernelEvaluationError, SingularCovarianceError
from waveinform.kernels import HyperParams


class FakeDataset:
    def points(self):
        return np.zeros((1, 3)), np.zeros(1)

    values = np.zeros(1)


def test_lhs_marginal_strata():
    design = lhs_design(30, [0.2] * 3, [0.8] * 3, restarts=5, seed=0)
    assert design.shape == (30, 3)
    for j in range(3):
        strata = np.floor((design[:, j] - 0.2) / 0.6 * 30).astype(int)
        assert np.array_equal(np.sort(strata), np.arange(30))


def test_lhs_single_point():
    design = lhs_design(1, [0.0, 0.0], [1.0, 2.0], seed=1)
    assert design.shape == (1, 2)
    assert np.all(design >= 0.0) and np.all(design[:, 1] <= 2.0)


def test_lhs_maximin_selection():
    design, criteria, best = lhs_design(12, [0.0] * 2, [1.0] * 2, restarts=15,
                                        seed=2, return_criteria=True)
    assert best == pytest.approx(criteria.max())
    assert np.all(best >= criteria - 1e-15)


def test_lhs_deterministic():
    a = lhs_design(10, [0.0] * 3, [1.0] * 3, seed=5)
    b = lhs_design(10, [0.0] * 3, [1.0] * 3, seed=5)
    assert np.array_equal(a, b)


def test_minimize_box_quadratic_bowl():
    box = HyperBox(lower=[-2.0, -1.0], upper=[3.0, 4.0])
    target = np.array([0.7, 1.3])

    def objective(x):
        return float(((x - target)**2).sum())

    x_best, f_best, evals = minimize_box(objective, box, [0.0, 0.0],
                                         tol=1e-8, max_evals=2000)
    assert np.abs(x_best - target).max() <= 1e-4
    assert evals <= 2000


def test_minimize_box_boundary_optimum():
    box = HyperBox(lower=[0.0], upper=[1.0])
    x_best, _, _ = minimize_box(lambda x: float(x[0]), box, [0.6],
                                tol=1e-10, max_evals=4000)
    assert box.contains(x_best)
    assert x_best[0] <= 1e-3


def test_minimize_box_deterministic():
    box = HyperBox(lower=[-1.0, -1.0], upper=[1.0, 1.0])

    def objective(x):
        return float(np.cos(3 * x[0]) + (x[1] - 0.2)**2)

    a = minimize_box(objective, box, [0.3, -0.5], tol=1e-7, max_evals=500)
    b = minimize_box(objective, box, [0.3, -0.5], tol=1e-7, max_evals=500)
    assert np.array_equal(a[0], b[0]) and a[1] == b[1] and a[2] == b[2]


def test_minimize_box_nonfinite_start_raises():
    box = HyperBox(lower=[0.0], upper=[1.0])
    with pytest.raises(ValueError, match="non-finite"):
        minimize_box(lambda x: float("nan"), box, [0.5])


def test_minimize_box_counts_every_objective_call():
    box = HyperBox(lower=[0.0, 0.2, 1e-8], upper=[1.0, 0.8, 1e-2])
    calls = []

    def objective(x):
        calls.append(x)
        return float(((x - 0.3)**2).sum())

    start = np.array([0.4, 0.5, 3e-3])
    _, _, evals = minimize_box(objective, box, start, max_evals=12)
    assert evals == len(calls) == 12
    assert np.allclose(calls[0], start, rtol=1e-12, atol=1e-15)


def test_multistart_surrogate_quadratic():
    box = HyperBox(lower=[0.0] * 3, upper=[1.0] * 3)
    target = np.array([0.31, 0.62, 0.48])

    def objective(vec):
        return float(((vec - target)**2).sum())

    best, trace = multistart_fit(FakeDataset(), ("u",), box, n_mult=6, seed=3,
                                 tol=1e-8, max_evals=800, objective=objective)
    nlls = [row.nll_end for row in trace]
    assert min(nlls) <= 1e-7
    # monotone best-so-far
    running = np.minimum.accumulate(nlls)
    assert np.all(np.diff(running) <= 0.0)


@pytest.mark.parametrize("error", [SingularCovarianceError,
                                   KernelEvaluationError])
def test_multistart_records_a_failed_start(error):
    box = HyperBox(lower=[0.0] * 2, upper=[1.0] * 2)
    starts = lhs_design(3, box.lower, box.upper, restarts=10, seed=6)

    def objective(vec):
        if np.allclose(vec, starts[1]):
            raise error("injected")
        return float(((vec - 0.5)**2).sum())

    best, trace = multistart_fit(FakeDataset(), (), box, n_mult=3, seed=6,
                                 tol=1e-8, max_evals=200, objective=objective)
    assert [row.start_id for row in trace] == [0, 1, 2]
    failed = trace[1]
    assert np.isnan(failed.nll_end) and failed.evals == 0
    assert np.all(np.isnan(failed.theta_end))
    assert all(row.evals > 0 for row in (trace[0], trace[2]))
    assert np.allclose(best, 0.5, atol=1e-3)

    def always(vec):
        raise error("injected")

    with pytest.raises(RuntimeError, match="all multistart runs failed"):
        multistart_fit(FakeDataset(), (), box, n_mult=2, seed=6,
                       objective=always)


def test_multistart_single_start_equals_minimize_box():
    box = HyperBox(lower=[0.0] * 2, upper=[1.0] * 2)

    def objective(vec):
        return float(((vec - 0.5)**2).sum())

    best, trace = multistart_fit(FakeDataset(), (), box, n_mult=1, seed=4,
                                 tol=1e-8, max_evals=400, objective=objective)
    start = lhs_design(1, box.lower, box.upper, restarts=10, seed=4)[0]
    x_ref, f_ref, _ = minimize_box(objective, box, start, tol=1e-8,
                                   max_evals=400)
    assert trace[0].nll_end == pytest.approx(f_ref)
    assert np.allclose(trace[0].theta_end, x_ref)


def test_hyperbox_validation():
    with pytest.raises(ValueError):
        HyperBox(lower=[0.0, 1.0], upper=[1.0, 0.5])
    with pytest.raises(ValueError):
        HyperBox(lower=[0.0], upper=[1.0, 2.0])


def test_nll_objective_matches_fast_nll():
    from waveinform import fast
    from waveinform.sim import SensorDataset

    rng = np.random.default_rng(5)
    ds = SensorDataset(positions=rng.uniform(0.2, 0.8, (3, 3)),
                       times=np.linspace(0.05, 1.0, 6),
                       values=rng.normal(size=18))
    objective = nll_objective(ds, ("u",))
    vec = np.array([0.5, 0.5, 0.5, 0.3, 0.2, 2.0, 0.5, 1e-3])
    params = HyperParams.from_vector(vec, ("u",))
    from waveinform.kernels import WaveKernel

    x, t = ds.points()
    expected = fast.fast_nll(WaveKernel(params), x, t, ds.values, params.lam)
    assert objective(vec) == pytest.approx(expected)
