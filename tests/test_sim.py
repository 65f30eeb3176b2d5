"""FDTD solver, initial conditions, sensing and noise tests."""

import numpy as np
import pytest

from dense_reference import FunctionIC, kirchhoff_trace, reference_simulation
from waveinform import sim
from waveinform.experiments import DEFAULT_SIM
from waveinform.oracle import SphericalRule
from waveinform.sim import (ZERO_IC, InitialCondition, SensorDataset,
                            SimConfig, add_noise, run_simulation,
                            sample_sensors)

COARSE = SimConfig(L=1.0, dx=1.0 / 12.0, dt=1.0 / 60.0, c=0.5, T=1.0)


def test_ic_raised_cosine_values():
    ic = InitialCondition(x0=[0.65, 0.3, 0.5], mid=0.0, half=0.25,
                          amplitude=5.0)
    center = ic.eval([[0.65, 0.3, 0.5]])[0]
    assert center == pytest.approx(10.0)  # 2A at the center
    edge = ic.eval([[0.65 + 0.25, 0.3, 0.5]])[0]
    assert edge == pytest.approx(0.0, abs=1e-12)
    outside = ic.eval([[0.65 + 0.3, 0.3, 0.5]])[0]
    assert outside == 0.0


def test_ic_ring_cosine_values():
    ic = InitialCondition(x0=[0.3, 0.6, 0.7], mid=(0.05 + 0.15) / 2,
                          half=(0.15 - 0.05) / 2, amplitude=50.0)
    mid = ic.eval([[0.3 + 0.1, 0.6, 0.7]])[0]
    assert mid == pytest.approx(100.0)  # 2A at the ring middle
    assert ic.eval([[0.3 + 0.05, 0.6, 0.7]])[0] == pytest.approx(0.0,
                                                                  abs=1e-12)
    assert ic.eval([[0.3, 0.6, 0.7]])[0] == 0.0


def test_ic_gradient_matches_finite_differences():
    rng = np.random.default_rng(0)
    for ic in (InitialCondition(x0=[0.5, 0.5, 0.5], mid=0.0, half=0.3,
                                amplitude=2.0),
               InitialCondition(x0=[0.5, 0.5, 0.5], mid=(0.1 + 0.3) / 2,
                                half=(0.3 - 0.1) / 2, amplitude=4.0)):
        x = 0.5 + rng.uniform(-0.28, 0.28, (20, 3))
        grad = ic.grad(x)
        eps = 1e-7
        for axis in range(3):
            shift = np.zeros(3)
            shift[axis] = eps
            fd = (ic.eval(x + shift) - ic.eval(x - shift)) / (2 * eps)
            assert np.allclose(grad[:, axis], fd, atol=1e-5)


def test_ic_profile_antiderivative_consistency():
    ic = InitialCondition(x0=[0, 0, 0], mid=(0.05 + 0.15) / 2,
                          half=(0.15 - 0.05) / 2, amplitude=50.0)
    s = np.linspace(0.0, 0.05, 2001)
    num = np.concatenate([[0.0], np.cumsum(
        0.5 * (ic.profile(s[1:]) + ic.profile(s[:-1])) * np.diff(s))])
    assert np.allclose(ic.profile_antideriv(s), num, atol=1e-6)


@pytest.mark.parametrize("x0, mid, half, amplitude", [
    ([0.5, 0.5, 0.5], 0.0, 0.0, 1.0), ([0.5, 0.5, 0.5], 0.0, -0.1, 1.0),
    ([0.5, 0.5, 0.5], 0.05, 0.1, 1.0), ([0.5, 0.5, 0.5], 0.1, 0.1, 1.0),
    ([0.5, 0.5, 0.5], -0.1, 0.2, 1.0), ([0.5, 0.5, 0.5], np.nan, 0.1, 1.0),
    ([0.5, 0.5, 0.5], 0.0, np.inf, 1.0), ([0.5, 0.5, 0.5], 0.0, 0.1, np.nan),
    ([0.5, np.inf, 0.5], 0.0, 0.1, 1.0),
], ids=["half-0", "half-negative", "mid-inside-half", "mid-equals-half",
        "mid-negative", "mid-nan", "half-inf", "amplitude-nan", "x0-inf"])
def test_ic_refuses_a_shape_outside_the_family(x0, mid, half, amplitude):
    with pytest.raises(ValueError, match="an initial condition needs"):
        InitialCondition(x0=x0, mid=mid, half=half, amplitude=amplitude)


def test_zero_ic_has_no_support():
    ring = InitialCondition(x0=[0.5, 0.5, 0.5], mid=0.2, half=0.1,
                            amplitude=0.0)
    x = np.random.default_rng(4).uniform(0.0, 1.0, (50, 3))
    for ic in (ZERO_IC, ring):
        assert ic.support_radius == 0.0
        assert np.all(ic.eval(x) == 0.0)
        assert np.all(ic.grad(x) == 0.0)
        assert np.all(ic.profile_antideriv(np.linspace(0.0, 1.0, 11)) == 0.0)


def test_ic_center_is_a_read_only_copy():
    x0 = np.array([0.5, 0.5, 0.5])
    ic = InitialCondition(x0=x0, mid=0.0, half=0.1, amplitude=1.0)
    x0[0] = 0.0
    assert ic.x0[0] == 0.5
    with pytest.raises(ValueError, match="read-only"):
        ZERO_IC.x0[0] = 1.0


def test_cfl_violation_raises():
    with pytest.raises(ValueError, match="CFL"):
        SimConfig(L=1.0, dx=0.01, dt=0.05, c=1.0, T=1.0)


def test_grid_without_interior_nodes_raises():
    with pytest.raises(ValueError, match="two cells"):
        SimConfig(L=1.0, dx=1.0, dt=0.1, c=0.5, T=1.0)


@pytest.mark.parametrize("value", [np.inf, np.nan])
@pytest.mark.parametrize("name", ["L", "dx", "dt", "c", "T"])
def test_sim_config_refuses_a_non_finite_value(name, value):
    fields = {"L": 1.0, "dx": 1.0 / 12.0, "dt": 1.0 / 60.0, "c": 0.5, "T": 1.0}
    fields[name] = value
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        SimConfig(**fields)


def test_grid_snapping():
    cfg = SimConfig(L=1.0, dx=0.043, dt=0.005, c=0.5, T=1.5)
    assert cfg.n_cells == 24
    assert cfg.dx_eff == pytest.approx(1.0 / 24.0)


def test_constant_field_preserved_in_interior():
    # constant u0 filling the box: interior nodes away from the boundary
    # stay constant until boundary effects arrive
    ic = FunctionIC(lambda x: np.full(len(x), 2.0),
                    grad_func=lambda x: np.zeros((len(x), 3)))
    zero = ZERO_IC
    cfg = SimConfig(L=1.0, dx=1.0 / 16.0, dt=1.0 / 80.0, c=0.5, T=0.5)
    hist = run_simulation(cfg, ic, zero, sample_rate=20)
    n = cfg.n_nodes
    mid = hist.snaps[:, n // 2, n // 2, n // 2]
    # boundary influence reaches the center after t = 0.5 / c = 1.0 s
    assert np.abs(mid - 2.0).max() <= 1e-10


# (config, sample rate): the 25^3 production grid, COARSE (13^3), and the
# smallest grids the solver accepts, whose faces are one or two nodes wide.
FDTD_GRIDS = {
    "production": (DEFAULT_SIM, 50.0),
    "coarse": (COARSE, 20.0),
    "n3": (SimConfig(L=1.0, dx=0.5, dt=0.1, c=0.5, T=3.0), 10.0),
    "n4": (SimConfig(L=1.0, dx=1.0 / 3.0, dt=0.1, c=0.5, T=3.0), 10.0),
}


def _fdtd_matches_reference(cfg, rate):
    # Both components nonzero on every node, the boundary included, so the
    # faces, edges and corners all carry signal from the first step.
    u0 = FunctionIC(lambda x: np.exp(-4.0 * ((x - [0.3, 0.6, 0.45])**2)
                                     .sum(axis=1)))
    v0 = FunctionIC(lambda x: np.cos(3.0 * x[:, 0]) * np.sin(
        2.0 * x[:, 1] + 1.0) * (1.0 + x[:, 2]))
    hist = run_simulation(cfg, u0, v0, sample_rate=rate)
    ref = reference_simulation(cfg, u0, v0, sample_rate=rate)
    assert np.array_equal(hist.times, ref.times)
    assert np.array_equal(hist.snaps, ref.snaps)
    assert np.abs(ref.snaps[-1]).max() > 0.0


@pytest.mark.parametrize("grid", sorted(FDTD_GRIDS))
def test_fdtd_matches_reference_loop(grid):
    _fdtd_matches_reference(*FDTD_GRIDS[grid])


@pytest.mark.parametrize("depth", [1, 2, 4])
def test_fdtd_slab_depth_leaves_snapshots_unchanged(monkeypatch, depth):
    # COARSE has 11 interior x-planes, so depths 2 and 4 end on a short slab.
    monkeypatch.setattr(sim, "_SLAB_BYTES", depth * 8 * 11**2)
    _fdtd_matches_reference(COARSE, 20.0)


def test_huygens_quiet_before_front():
    u0 = InitialCondition(x0=[0.3, 0.3, 0.3], mid=0.0, half=0.1, amplitude=1.0)
    zero = ZERO_IC
    cfg = SimConfig(L=1.0, dx=1.0 / 24.0, dt=1.0 / 120.0, c=0.5, T=0.6)
    hist = run_simulation(cfg, u0, zero, sample_rate=20)
    probe = np.array([0.8, 0.8, 0.8])  # distance ~0.87 from the source
    ds = sample_sensors(hist, probe[None, :])
    arrival = (np.linalg.norm(probe - [0.3, 0.3, 0.3]) - 0.1) / 0.5
    quiet = ds.values[ds.times < arrival - 0.05]
    assert np.abs(quiet).max() <= 1e-3 * 1.0


def test_stability_amplitude_bound():
    u0 = InitialCondition(x0=[0.5, 0.5, 0.5], mid=0.0, half=0.2, amplitude=5.0)
    zero = ZERO_IC
    cfg = SimConfig(L=1.0, dx=1.0 / 16.0, dt=1.0 / 80.0, c=0.5, T=1.5)
    hist = run_simulation(cfg, u0, zero, sample_rate=16)
    assert np.abs(hist.snaps).max() <= 4.0 * 10.0  # 4x the initial peak 2A


def test_low_reflection_after_front_exits():
    u0 = InitialCondition(x0=[0.5, 0.5, 0.5], mid=0.0, half=0.2, amplitude=5.0)
    zero = ZERO_IC
    cfg = SimConfig(L=1.0, dx=1.0 / 16.0, dt=1.0 / 80.0, c=0.5, T=3.0)
    hist = run_simulation(cfg, u0, zero, sample_rate=16)
    energy = (hist.snaps**2).sum(axis=(1, 2, 3))
    # outgoing front fully exits by t = (sqrt(3)/2 + 0.2)/0.5 ~ 2.1 s
    late = energy[hist.times >= 2.5]
    assert late.max() <= 0.05 * energy.max()


def test_fdtd_matches_kirchhoff_at_interior_probe():
    u0 = InitialCondition(x0=[0.65, 0.3, 0.5], mid=0.0, half=0.25,
                          amplitude=5.0)
    zero = ZERO_IC
    cfg = SimConfig(L=1.0, dx=0.043, dt=0.005, c=0.5, T=1.5)
    hist = run_simulation(cfg, u0, zero, sample_rate=50)
    probe = np.array([0.375, 10.0 / 24.0, 0.5])  # grid node, r ~ 0.3
    ds = sample_sensors(hist, probe[None, :])
    ref = kirchhoff_trace(u0.eval, u0.grad, zero.eval, probe, ds.times, 0.5,
                          SphericalRule.product(24))
    rel = np.linalg.norm(ds.values - ref) / np.linalg.norm(ref)
    assert rel <= 0.10


def test_smooth_ic_second_order_convergence():
    # C-infinity bump: the scheme shows its clean second order
    x0 = np.array([0.5, 0.5, 0.5])
    length = 0.12

    def bump(x):
        d2 = ((x - x0)**2).sum(axis=1)
        return 5.0 * np.exp(-0.5 * d2 / length**2)

    def bump_grad(x):
        d = x - x0
        return bump(x)[:, None] * (-d / length**2)

    u0 = FunctionIC(bump, grad_func=bump_grad)
    zero = ZERO_IC
    probe = np.array([0.25, 0.5, 0.5])
    rule = SphericalRule.product(24)
    errs = []
    for dx, dt in ((1.0 / 16.0, 1.0 / 80.0), (1.0 / 32.0, 1.0 / 160.0)):
        cfg = SimConfig(L=1.0, dx=dx, dt=dt, c=0.5, T=1.0)
        hist = run_simulation(cfg, u0, zero, sample_rate=16)
        ds = sample_sensors(hist, probe[None, :])
        ref = kirchhoff_trace(bump, bump_grad, zero.eval, probe, ds.times,
                              0.5, rule)
        errs.append(np.linalg.norm(ds.values - ref) / np.linalg.norm(ref))
    assert errs[1] <= errs[0] / 3.0


def test_sensor_on_node_exact():
    u0 = InitialCondition(x0=[0.5, 0.5, 0.5], mid=0.0, half=0.3, amplitude=1.0)
    zero = ZERO_IC
    hist = run_simulation(COARSE, u0, zero, sample_rate=20)
    node = np.array([4.0 / 12.0, 5.0 / 12.0, 6.0 / 12.0])
    ds = sample_sensors(hist, node[None, :])
    idx = (4, 5, 6)
    assert np.allclose(ds.values, hist.snaps[:, idx[0], idx[1], idx[2]])


def test_sensor_counts_paper_defaults():
    # 30 sensors x 75 samples = 2250 observations
    cfg = SimConfig(L=1.0, dx=0.043, dt=0.005, c=0.5, T=1.5)
    u0 = ZERO_IC
    hist = run_simulation(cfg, u0, u0, sample_rate=50)
    assert len(hist.times) == 75
    rng = np.random.default_rng(1)
    ds = sample_sensors(hist, rng.uniform(0.2, 0.8, (30, 3)))
    assert ds.n == 2250 and ds.q == 30 and ds.n_times == 75


def test_zero_ic_zero_traces():
    zero = ZERO_IC
    hist = run_simulation(COARSE, zero, zero, sample_rate=20)
    ds = sample_sensors(hist, [[0.4, 0.5, 0.6]])
    assert np.all(ds.values == 0.0)


def test_sensor_outside_box_raises():
    zero = ZERO_IC
    hist = run_simulation(COARSE, zero, zero, sample_rate=20)
    with pytest.raises(ValueError):
        sample_sensors(hist, [[1.2, 0.5, 0.5]])


def test_constant_field_constant_traces():
    ic = FunctionIC(lambda x: np.full(len(x), 1.5))
    zero = ZERO_IC
    cfg = SimConfig(L=1.0, dx=1.0 / 12.0, dt=1.0 / 60.0, c=0.5, T=0.3)
    hist = run_simulation(cfg, ic, zero, sample_rate=20)
    ds = sample_sensors(hist, [[0.5, 0.5, 0.5]])
    assert np.allclose(ds.values, 1.5, atol=1e-10)


def test_noise_zero_sigma_identity():
    ds = SensorDataset(positions=[[0.1, 0.2, 0.3]], times=[0.0, 0.1],
                       values=[1.0, 2.0])
    out = add_noise(ds, 0.0, 42)
    assert np.array_equal(out.values, ds.values)


def test_noise_deterministic_and_distribution():
    rng = np.random.default_rng(2)
    n = 100000
    times = np.arange(n, dtype=float)
    ds = SensorDataset(positions=[[0.1, 0.2, 0.3]], times=times,
                       values=np.zeros(n))
    a = add_noise(ds, 0.09, 7)
    b = add_noise(ds, 0.09, 7)
    assert np.array_equal(a.values, b.values)
    assert np.var(a.values) == pytest.approx(0.09**2, rel=0.05)
    assert not np.array_equal(a.values, add_noise(ds, 0.09, 8).values)


def test_dataset_validation():
    with pytest.raises(ValueError):
        SensorDataset(positions=[[0, 0, 0]], times=[0.1, 0.1], values=[1, 2])
    with pytest.raises(ValueError):
        SensorDataset(positions=[[0, 0, 0], [0, 0, 0]], times=[0.0],
                      values=[1, 2])
    with pytest.raises(ValueError):
        SensorDataset(positions=[[0, 0, 0]], times=[0.0, 0.1], values=[1.0])


def test_dataset_points_ordering():
    ds = SensorDataset(positions=[[0, 0, 0], [1, 1, 1]], times=[0.0, 0.5],
                       values=[10.0, 11.0, 20.0, 21.0])
    x, t = ds.points()
    # sensor-major: entry i*N + k is sensor i at time t_k
    assert np.array_equal(x[:2], np.zeros((2, 3)))
    assert np.array_equal(t, [0.0, 0.5, 0.0, 0.5])
    assert np.array_equal(ds.traces()[1], [20.0, 21.0])


def test_dataset_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(3)
    ds = SensorDataset(positions=rng.uniform(0, 1, (3, 3)),
                       times=np.sort(rng.uniform(0, 1, 4)),
                       values=rng.normal(size=12))
    path = tmp_path / "sensors.csv"
    ds.to_csv(path)
    back = SensorDataset.from_csv(path)
    assert np.array_equal(back.positions, ds.positions)
    assert np.array_equal(back.times, ds.times)
    assert np.array_equal(back.values, ds.values)
    header = path.read_text().splitlines()[0]
    assert header == "sensor_id,x,y,z,t,value"


def test_ic_support_outside_box_raises():
    u0 = InitialCondition(x0=[0.9, 0.5, 0.5], mid=0.0, half=0.3, amplitude=1.0)
    zero = ZERO_IC
    with pytest.raises(ValueError, match="support"):
        run_simulation(COARSE, u0, zero, sample_rate=20)
    # the ring's inner radius fits; its outer radius leaves the box
    ring = InitialCondition(x0=[0.5, 0.5, 0.15], mid=(0.05 + 0.2) / 2,
                            half=(0.2 - 0.05) / 2, amplitude=1.0)
    for run in (run_simulation, reference_simulation):
        with pytest.raises(ValueError, match="support"):
            run(COARSE, zero, ring, sample_rate=20)


def test_ic_without_support_is_not_checked():
    # a zero condition's x0 and a function's values say nothing about a
    # support, so neither is refused
    off_box = InitialCondition(x0=[1.5, -0.5, 0.5], mid=0.0, half=1.0,
                               amplitude=0.0)
    everywhere = FunctionIC(lambda x: np.full(len(x), 1.0))
    zero = ZERO_IC
    for u0, v0 in ((off_box, off_box), (everywhere, zero)):
        hist = run_simulation(COARSE, u0, v0, sample_rate=20)
        ref = reference_simulation(COARSE, u0, v0, sample_rate=20)
        assert np.array_equal(hist.snaps, ref.snaps)


def _write_sensor_csv(path, rows):
    lines = ["sensor_id,x,y,z,t,value"]
    lines += [",".join(str(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("times", [(0.3, 0.7), (0.1, 0.0), (0.0,),
                                   (0.0, 0.1, 0.2)])
def test_dataset_csv_refuses_ragged_times(tmp_path, times):
    # sensor 0 is sampled at {0.0, 0.1}; sensor 1 at other values, in
    # another order, or at another count
    path = tmp_path / "sensors.csv"
    rows = [(0, 0.2, 0.2, 0.2, 0.0, 1.0), (0, 0.2, 0.2, 0.2, 0.1, 2.0)]
    rows += [(1, 0.5, 0.5, 0.5, t, 3.0) for t in times]
    _write_sensor_csv(path, rows)
    with pytest.raises(ValueError, match="sensor 1"):
        SensorDataset.from_csv(path)


def test_dataset_csv_refuses_moving_sensor(tmp_path):
    path = tmp_path / "sensors.csv"
    _write_sensor_csv(path, [(0, 0.2, 0.2, 0.2, 0.0, 1.0),
                             (0, 0.2, 0.2, 0.2, 0.1, 2.0),
                             (1, 0.5, 0.5, 0.5, 0.0, 3.0),
                             (1, 0.6, 0.5, 0.5, 0.1, 4.0)])
    with pytest.raises(ValueError, match="sensor 1"):
        SensorDataset.from_csv(path)


def test_dataset_csv_refuses_a_header_only_file(tmp_path):
    path = tmp_path / "sensors.csv"
    _write_sensor_csv(path, [])
    with pytest.raises(ValueError, match="no observations"):
        SensorDataset.from_csv(path)


def test_dataset_csv_refuses_a_row_with_five_fields(tmp_path):
    path = tmp_path / "sensors.csv"
    _write_sensor_csv(path, [(0, 0.2, 0.2, 0.2, 0.0, 1.0),
                             (0, 0.2, 0.2, 0.2, 0.1)])
    with pytest.raises(ValueError, match="line 3 has 5 fields"):
        SensorDataset.from_csv(path)


@pytest.mark.parametrize("bad_row, field", [
    ((0, 0.2, 0.2, "x", 0.1, 2.0), "x"),
    (("s1", 0.5, 0.5, 0.5, 0.0, 3.0), "s1"),
], ids=["value", "sensor-id"])
def test_dataset_csv_names_the_line_of_a_non_numeric_field(tmp_path, bad_row,
                                                           field):
    path = tmp_path / "sensors.csv"
    _write_sensor_csv(path, [(0, 0.2, 0.2, 0.2, 0.0, 1.0), bad_row])
    with pytest.raises(ValueError, match=r"sensors\.csv: line 3 has a "
                       rf"non-numeric field: .*'{field}'"):
        SensorDataset.from_csv(path)


@pytest.mark.parametrize("bad_row", [
    (0, 0.2, 0.2, 0.2, 0.1, "nan"),
    (0, 0.2, 0.2, 0.2, 0.1, "-inf"),
    (0, 0.2, "inf", 0.2, 0.1, 2.0),
    (0, 0.2, 0.2, 0.2, "nan", 2.0),
], ids=["value-nan", "value-inf", "position-inf", "time-nan"])
def test_dataset_csv_refuses_a_non_finite_field(tmp_path, bad_row):
    path = tmp_path / "sensors.csv"
    _write_sensor_csv(path, [(0, 0.2, 0.2, 0.2, 0.0, 1.0), bad_row])
    with pytest.raises(ValueError, match=r"sensors\.csv: line 3 has a "
                       "non-finite field"):
        SensorDataset.from_csv(path)
