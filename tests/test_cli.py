"""End-to-end command and CLI tests, on a coarse configuration unless a
test says it runs at the production size."""

import hashlib
import json
import logging
import os
import re
import shutil
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from dense_reference import speed_central_difference, subset
from waveinform import experiments
from waveinform.cli import main
from waveinform.experiments import (DEFAULT_SIM, ExperimentConfig, case_theta,
                                    cmd_errors, cmd_fit, cmd_pointsource_scan,
                                    cmd_reconstruct, cmd_simulate, cmd_verify,
                                    theta_from_json, theta_to_json)
from waveinform.fields import ScalarField3D
from waveinform.sim import SensorDataset, SimConfig

COARSE_SIM = SimConfig(L=1.0, dx=1.0 / 12.0, dt=1.0 / 60.0, c=0.5, T=1.0)


@pytest.fixture(scope="module")
def coarse_config():
    return ExperimentConfig(test_case=1, sim=COARSE_SIM, n_sensors=5,
                            sample_rate=20.0, noise_sigma=0.05, noise_seed=3,
                            fit_n_mult=0, dx_grid=0.1)


@pytest.fixture(scope="module")
def simulated(coarse_config, tmp_path_factory):
    outdir = tmp_path_factory.mktemp("sim")
    history, dataset = cmd_simulate(coarse_config, str(outdir))
    return outdir, history, dataset


def test_simulate_outputs_and_manifest(simulated, coarse_config):
    outdir, history, dataset = simulated
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["n_observations"] == dataset.n == 5 * 20
    # every listed file exists and hashes match
    for name, digest in manifest["files"].items():
        blob = (outdir / name).read_bytes()
        assert hashlib.sha256(blob).hexdigest() == digest
    # every output file is listed (manifest completeness)
    produced = {p.name for p in outdir.iterdir() if p.name != "manifest.json"}
    assert produced == set(manifest["files"])


def test_simulate_deterministic(coarse_config, simulated, tmp_path):
    outdir, _, _ = simulated
    cmd_simulate(coarse_config, str(tmp_path / "again"))
    a = (outdir / "sensors.csv").read_bytes()
    b = (tmp_path / "again" / "sensors.csv").read_bytes()
    assert a == b


def test_fit_passthrough_and_trace(coarse_config, simulated, tmp_path):
    _, _, dataset = simulated
    theta = case_theta(1, coarse_config.noise_sigma)
    best, trace = cmd_fit(coarse_config, dataset, str(tmp_path),
                          theta_true=theta)
    assert best is theta and trace == []
    saved = theta_from_json((tmp_path / "theta.json").read_text())
    assert saved.c == theta.c
    assert np.allclose(saved.u.x0, theta.u.x0)
    lines = (tmp_path / "fit_trace.csv").read_text().splitlines()
    assert lines[0].startswith("start_id,")
    summary = (tmp_path / "fit_summary.csv").read_text().splitlines()
    assert summary[0] == "case,n_sensors,rho_u,sigma2_u,lam"
    assert summary[1].startswith("1,5,")


@pytest.mark.parametrize("test_case, theta_case, theirs, ours", [
    (3, 1, "('u',)", "('u', 'v')"), (1, 3, "('u', 'v')", "('u',)")])
def test_fit_refuses_a_passthrough_theta_of_other_components(
        coarse_config, simulated, tmp_path, test_case, theta_case, theirs,
        ours):
    outdir, _, _ = simulated
    cfg_path, theta_path = tmp_path / "config.json", tmp_path / "theta.json"
    cfg_path.write_text(replace(coarse_config, test_case=test_case).to_json())
    theta_path.write_text(theta_to_json(case_theta(theta_case)))
    out = tmp_path / "fit"
    match = re.escape(f"components {theirs}, test case {test_case} has {ours}")
    with pytest.raises(ValueError, match=match):
        main(["fit", "--config", str(cfg_path), "--theta", str(theta_path),
              "--sensors", str(outdir / "sensors.csv"), "--out", str(out)])
    assert not out.exists()


def test_fit_multistart_writes_trace(coarse_config, simulated, tmp_path):
    _, _, dataset = simulated
    cfg = replace(coarse_config, fit_n_mult=2, fit_max_evals=40)
    best, trace = cmd_fit(cfg, subset(dataset, 2), str(tmp_path))
    assert len(trace) == 2
    lines = (tmp_path / "fit_trace.csv").read_text().splitlines()
    assert len(lines) == 3


def test_reconstruct_errors_roundtrip(coarse_config, simulated, tmp_path):
    _, _, dataset = simulated
    theta = case_theta(1, coarse_config.noise_sigma)
    u_field, v_field, model = cmd_reconstruct(coarse_config, dataset, theta,
                                              str(tmp_path))
    report = cmd_errors(coarse_config, u_field, v_field, str(tmp_path / "err"))
    assert ("u0", 2) in report
    assert report[("u0", 2)] < 1.0  # beats the null estimator on coarse data
    # truth of case 1 has zero v0: only u0 rows are reported
    assert not any(name == "v0" for name, _ in report)
    back = ScalarField3D.load(tmp_path / "u0_recon")
    assert np.array_equal(back.values, u_field.values)


def test_reconstruct_zero_ic_gives_zero_fields(tmp_path):
    cfg = ExperimentConfig(test_case=1, sim=COARSE_SIM, n_sensors=3,
                           sample_rate=20.0, noise_sigma=0.0, fit_n_mult=0,
                           dx_grid=0.2)
    # zero observations: posterior mean is identically zero
    times = np.arange(20) / 20.0
    ds = SensorDataset(positions=np.random.default_rng(0).uniform(0.2, 0.8, (3, 3)),
                       times=times, values=np.zeros(60))
    theta = case_theta(1, 0.05)
    u_field, v_field, _ = cmd_reconstruct(cfg, ds, theta, str(tmp_path))
    assert np.all(u_field.values == 0.0)
    assert np.all(v_field.values == 0.0)


def test_reconstruct_outside_cone_exact_zero(coarse_config, simulated,
                                             tmp_path):
    _, _, dataset = simulated
    theta = case_theta(1, coarse_config.noise_sigma)
    u_field, _, _ = cmd_reconstruct(coarse_config, dataset, theta,
                                    str(tmp_path))
    pts = u_field.points()
    outside = np.linalg.norm(pts - theta.u.x0, axis=1) > theta.u.radius
    assert np.all(u_field.values[outside] == 0.0)


@pytest.mark.parametrize("case", [1, 2, 3])
def test_reconstructed_speed_at_production_size(case, tmp_path):
    """The written v0 at the production config: all exact zeros without a
    v component, exact zeros from R_v on, and the whole kernel's central
    difference inside R_v, the ring's center node included (about 28.0 in
    case 2)."""
    cfg = ExperimentConfig(test_case=case, fit_n_mult=0)
    _, dataset = cmd_simulate(cfg, str(tmp_path / "sim"))
    theta = case_theta(case)
    _, v_field, model = cmd_reconstruct(cfg, dataset, theta,
                                        str(tmp_path / "rec"))
    v0 = ScalarField3D.load(tmp_path / "rec" / "v0_recon").values
    if theta.v is None:
        assert np.all(v0 == 0.0)
        return
    pts = v_field.points()
    r = np.linalg.norm(pts - theta.v.x0, axis=1)
    inside = r < theta.v.radius
    assert np.all(v0[~inside] == 0.0)
    fd = speed_central_difference(model, pts[inside])
    assert np.max(np.abs(v0[inside] - fd)) <= 1e-5 * np.max(np.abs(v0))
    center = np.argmin(r)
    assert r[center] < 1e-12
    assert v0[center] == pytest.approx({2: 27.975, 3: 15.078}[case], abs=1e-3)


def test_pointsource_scan_api(tmp_path):
    from waveinform.fast import green_traces

    sensors = np.array([[0.25, 0.25, 0.3], [0.75, 0.3, 0.35],
                        [0.3, 0.72, 0.7], [0.7, 0.7, 0.3], [0.45, 0.3, 0.75]])
    x_star = np.array([0.5, 0.45, 0.55])
    times = np.arange(40) / 20.0 * 0.75
    dists = np.linalg.norm(sensors - x_star, axis=1)
    values = green_traces(dists, times, 0.5, 0.05).ravel()
    ds = SensorDataset(positions=sensors, times=times, values=values)
    grid = ScalarField3D.zeros([0.3] * 3, 0.4 / 10, (11, 11, 11))
    volume, argmin = cmd_pointsource_scan(ds, grid, 0.05, 0.5, 1e-6,
                                          str(tmp_path), mode="limit")
    assert np.abs(argmin - x_star).max() <= 0.04 + 1e-12
    assert (tmp_path / "scan_argmin.json").exists()


def test_verify_report_and_mutation(tmp_path):
    report = cmd_verify("fast", outdir=str(tmp_path / "ok"))
    assert report["passed"]
    assert all(c["passed"] for c in report["checks"])
    blob = json.loads((tmp_path / "ok" / "verify.json").read_text())
    assert blob["selector"] == "fast"
    # a sign-flipped kernel must FAIL the PSD check, reported not raised
    bad = cmd_verify("fast", outdir=str(tmp_path / "bad"), tamper_psd=True)
    psd = [c for c in bad["checks"] if c["name"] == "kernel_psd"][0]
    assert not psd["passed"]
    assert not bad["passed"]


def test_verify_reduced_quadrature_reported(tmp_path, monkeypatch):
    # a crude quadrature order exceeds the oracle tolerance: reported
    monkeypatch.setattr(experiments, "VERIFY_QUAD_ORDER", 4)
    report = cmd_verify("fast", outdir=str(tmp_path))
    oracle = [c for c in report["checks"]
              if c["name"] == "oracle_equivalence"][0]
    assert not oracle["passed"]


def test_cli_end_to_end(tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg = ExperimentConfig(test_case=1, sim=COARSE_SIM, n_sensors=4,
                           sample_rate=20.0, noise_sigma=0.05, noise_seed=3,
                           fit_n_mult=0, dx_grid=0.2)
    cfg_path.write_text(cfg.to_json())
    out = tmp_path / "sim"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert main(["fit", "--config", str(cfg_path),
                 "--sensors", str(out / "sensors.csv"),
                 "--out", str(tmp_path / "fit")]) == 0
    assert main(["reconstruct", "--config", str(cfg_path),
                 "--sensors", str(out / "sensors.csv"),
                 "--theta", str(tmp_path / "fit" / "theta.json"),
                 "--out", str(tmp_path / "rec")]) == 0
    assert main(["errors", "--config", str(cfg_path),
                 "--fields", str(tmp_path / "rec"),
                 "--out", str(tmp_path / "err")]) == 0
    assert (tmp_path / "err" / "errors.csv").exists()
    assert main(["verify", "--out", str(tmp_path / "ver")]) == 0
    assert main(["pointsource-scan", "--sensors", str(out / "sensors.csv"),
                 "--out", str(tmp_path / "scan"), "--grid-n", "6",
                 "--radius", "0.05", "--speed", "0.5"]) == 0
    assert (tmp_path / "scan" / "scan_volume.bin").exists()
    # sample command rebuilds sensors from stored snapshots
    assert main(["sample", "--config", str(cfg_path), "--history", str(out),
                 "--out", str(tmp_path / "resample")]) == 0
    a = (out / "sensors.csv").read_bytes()
    b = (tmp_path / "resample" / "sensors.csv").read_bytes()
    assert a == b


def _history_copy(simulated, tmp_path):
    history = tmp_path / "history"
    shutil.copytree(simulated[0], history)
    return history


def _sample_refused(history, tmp_path, match):
    out = tmp_path / "resample"
    with pytest.raises(ValueError, match=match):
        main(["sample", "--config", str(history / "config.json"),
              "--history", str(history), "--out", str(out)])
    assert not out.exists()


def test_sample_refuses_a_missing_snapshot(simulated, tmp_path):
    history = _history_copy(simulated, tmp_path)
    (history / "snapshot_0010.json").unlink()
    _sample_refused(history, tmp_path, "snapshot_0010.json is missing")


def test_sample_refuses_a_snapshot_past_the_count(simulated, tmp_path):
    # T = 1 at 20 snapshots per unit time: snapshot_0000 .. snapshot_0019.
    history = _history_copy(simulated, tmp_path)
    for ext in (".json", ".bin"):
        shutil.copy(history / f"snapshot_0019{ext}",
                    history / f"snapshot_0020{ext}")
    _sample_refused(history, tmp_path, "snapshot_0020.json is past the 20")


def test_sample_names_a_cut_snapshot(simulated, tmp_path):
    history = _history_copy(simulated, tmp_path)
    with open(history / "snapshot_0005.bin", "r+b") as fh:
        fh.truncate(100)
    _sample_refused(history, tmp_path,
                    "snapshot_0005: the .bin holds 100 bytes")


@pytest.mark.parametrize("dx", [0.1, 0.0625])
def test_sample_refuses_snapshots_off_the_stored_grid(simulated, tmp_path,
                                                       dx):
    history = _history_copy(simulated, tmp_path)
    blob = json.loads((history / "config.json").read_text())
    blob["sim"]["dx"] = dx
    (history / "config.json").write_text(json.dumps(blob))
    _sample_refused(history, tmp_path,
                    "snapshot_0000.json is on dims \\(13, 13, 13\\)")


def test_config_json_roundtrip():
    cfg = ExperimentConfig(test_case=2, sim=COARSE_SIM, n_sensors=7,
                           noise_sigma=0.01)
    back = ExperimentConfig.from_json(cfg.to_json())
    assert back == cfg


def test_theta_json_roundtrip():
    theta = case_theta(3)
    back = theta_from_json(theta_to_json(theta))
    assert np.allclose(back.to_vector(), theta.to_vector())
    assert back.components == ("u", "v")


def _theta_blob():
    return json.loads(theta_to_json(case_theta(3)))


def test_theta_json_refuses_unknown_keys():
    # a theta.json written before the cutoff plateau became a constant
    blob = _theta_blob()
    blob["alpha_cut"] = 0.8
    with pytest.raises(ValueError, match="unknown theta keys: alpha_cut"):
        theta_from_json(json.dumps(blob))


def test_theta_json_refuses_unknown_block_keys():
    blob = _theta_blob()
    blob["v"]["radiuss"] = 0.2
    with pytest.raises(ValueError, match="unknown theta v keys: radiuss"):
        theta_from_json(json.dumps(blob))


def test_json_refuses_a_non_object():
    blob = _theta_blob()
    blob["u"] = 5
    with pytest.raises(ValueError, match="theta u must be a JSON object"):
        theta_from_json(json.dumps(blob))
    with pytest.raises(ValueError, match="theta must be a JSON object"):
        theta_from_json("[1]")
    with pytest.raises(ValueError, match="sim must be a JSON object"):
        ExperimentConfig.from_json('{"sim": 3}')


@pytest.mark.parametrize("path", [("c",), ("lam",), ("u", "x0"),
                                  ("v", "sigma2")], ids=".".join)
def test_theta_json_refuses_missing_keys(path):
    blob = _theta_blob()
    *block, key = path
    del (blob[block[0]] if block else blob)[key]
    with pytest.raises(ValueError, match=f"missing theta .*keys: {key}$"):
        theta_from_json(json.dumps(blob))


@pytest.mark.parametrize("path, value, match", [
    (("c",), "0.5", "theta c must be a number"),
    (("lam",), "x", "theta lam must be a number"),
    (("u", "radius"), None, "theta u radius must be a number"),
    (("u", "rho"), [0.2], "theta u rho must be a number"),
    (("v", "sigma2"), True, "theta v sigma2 must be a number"),
    (("u", "x0"), [0.65, 0.3], "theta u x0 must be three finite numbers"),
    (("v", "x0"), [0.3, "0.6", 0.7], "theta v x0 must be three finite"),
    (("v", "x0"), [0.3, float("nan"), 0.7],
     "theta v x0 must be three finite")],
    ids=["c-string", "lam-string", "radius-null", "rho-list", "sigma2-bool",
         "x0-two", "x0-string", "x0-nan"])
def test_theta_json_refuses_malformed_values(path, value, match):
    blob = _theta_blob()
    *block, key = path
    (blob[block[0]] if block else blob)[key] = value
    with pytest.raises(ValueError, match=match):
        theta_from_json(json.dumps(blob))


def test_theta_json_refuses_a_theta_without_components():
    with pytest.raises(ValueError, match="neither a u nor a v block"):
        theta_from_json('{"c": 0.5, "lam": 0.001}')


def test_reconstruction_at_sensors_consistency():
    # noiseless (model-consistent) data with lam -> 0: the Kriging mean
    # reproduces the observations at the observation space-time points.
    # Out-of-model data cannot be interpolated past the covariance
    # conditioning floor (~2e-4 here), so the draw comes from the prior.
    from waveinform.kernels import WaveKernel
    from waveinform import fast
    from waveinform.linalg import assemble_covariance

    rng = np.random.default_rng(9)
    theta = case_theta(1)
    kern = WaveKernel(theta)
    sensors = rng.uniform(0.25, 0.75, (6, 3))
    times = np.arange(1, 16) / 15.0
    x = np.repeat(sensors, 15, axis=0)
    t = np.tile(times, 6)
    batch = kern.batch(x, t)
    active = kern.diag(batch) > 0
    kmat = assemble_covariance(kern, batch[active])
    chol = np.linalg.cholesky(kmat + 1e-12 * np.eye(active.sum()))
    y = np.zeros(len(t))
    y[active] = chol @ rng.standard_normal(active.sum())
    model = fast.fit_posterior(kern, x, t, y, 1e-10)
    fitted = fast.posterior_mean(model, x, t)
    assert np.abs(fitted - y).max() <= 1e-4 * np.abs(y).max()


def test_verify_full_selector(tmp_path):
    report = cmd_verify("full", outdir=str(tmp_path))
    names = [c["name"] for c in report["checks"]]
    assert "lp_stability" in names and "rank_one_limit" in names
    assert report["passed"]


def test_pointsource_scan_wrong_speed_has_no_deep_minimum():
    from waveinform.fast import green_traces
    from waveinform.experiments import scan_limit_profile

    rng = np.random.default_rng(13)
    sensors = np.array([[0.25, 0.25, 0.3], [0.75, 0.3, 0.35],
                        [0.3, 0.72, 0.7], [0.7, 0.7, 0.3], [0.45, 0.3, 0.75]])
    x_star = np.array([0.52, 0.47, 0.55])
    times = np.arange(75) / 50.0
    dists = np.linalg.norm(sensors - x_star, axis=1)
    values = green_traces(dists, times, 0.5, 0.02).ravel()
    ds = SensorDataset(positions=sensors, times=times, values=values)
    w2 = float(values @ values)
    grid = ScalarField3D.zeros([0.2] * 3, 0.6 / 19, (20, 20, 20)).points()
    pts = np.vstack([grid, x_star])
    right = scan_limit_profile(ds, pts, 0.5, 0.02, None)
    wrong = scan_limit_profile(ds, pts, 0.4, 0.02, None)
    # correct speed: all shells intersect at the source, profile near zero
    assert right[-1] <= 1e-6 * w2
    # wrong speed: the shell intersection is empty, no deep minimum anywhere
    assert wrong.min() >= 0.5 * w2


def test_pointsource_scan_nll_mode(tmp_path):
    from waveinform.fast import green_traces

    sensors = np.array([[0.25, 0.25, 0.3], [0.75, 0.3, 0.35],
                        [0.3, 0.72, 0.7], [0.7, 0.7, 0.3]])
    x_star = np.array([0.5, 0.45, 0.55])
    times = np.arange(40) / 20.0 * 0.75
    dists = np.linalg.norm(sensors - x_star, axis=1)
    values = green_traces(dists, times, 0.5, 0.05).ravel()
    ds = SensorDataset(positions=sensors, times=times, values=values)
    grid = ScalarField3D.zeros([0.3] * 3, 0.4 / 10, (11, 11, 11))
    volume, argmin = cmd_pointsource_scan(ds, grid, 0.05, 0.5, 1e-4,
                                          str(tmp_path), mode="nll")
    assert np.all(np.isfinite(volume.values))
    assert np.abs(argmin - x_star).max() <= 0.08


def test_pointsource_scan_refuses_an_unknown_mode(tmp_path):
    sensors = np.array([[0.25, 0.25, 0.3], [0.75, 0.3, 0.35],
                        [0.3, 0.72, 0.7]])
    times = np.arange(10) / 20.0
    ds = SensorDataset(positions=sensors, times=times, values=np.ones(30))
    grid = ScalarField3D.zeros([0.3] * 3, 0.1, (3, 3, 3))
    outdir = tmp_path / "scan"
    with pytest.raises(ValueError, match="'limt'"):
        cmd_pointsource_scan(ds, grid, 0.05, 0.5, 1e-4, str(outdir),
                             mode="limt")
    assert not outdir.exists()


def _dense_scan(dataset, pts, c, radius, lam):
    """The scan objective with the Green bump evaluated at every distance."""
    from waveinform.fast import rank_one_objective, regularized_green

    w, wmat = dataset.values, dataset.traces()
    dist = np.linalg.norm(pts[:, None, :] - dataset.positions[None, :, :],
                          axis=2)
    fw = np.zeros(pts.shape[0])
    f2 = np.zeros(pts.shape[0])
    for k, t in enumerate(dataset.times):
        fk = regularized_green(dist, t, c, radius)
        fw += fk @ wmat[:, k]
        f2 += np.einsum("mq,mq->m", fk, fk)
    return rank_one_objective(float(w @ w), f2, fw, dataset.n, lam)


@pytest.mark.parametrize("chunk", [7, 8192])
@pytest.mark.parametrize("lam", [None, 1e-6])
def test_scan_window_matches_dense_reference(lam, chunk, monkeypatch):
    from waveinform.experiments import scan_limit_profile

    monkeypatch.setattr(experiments, "SCAN_CHUNK", chunk)
    c, radius = 0.5, 0.0625
    rng = np.random.default_rng(5)
    sensors = np.array([[0.25, 0.25, 0.25], [0.75, 0.25, 0.5],
                        [0.25, 0.75, 0.75], [0.75, 0.75, 0.25],
                        [0.5, 0.5, 0.75]])
    # c|t| = 0.0625 at t = +-0.125 and 0.1875 at t = +-0.375: dyadic, so
    # the shell edges c|t| -+ R land exactly on the distances below.
    edges = np.array([-0.375, -0.125, 0.0, 0.125, 0.375])
    times = np.unique(np.concatenate([edges, rng.uniform(-1.2, 1.2, 40)]))
    assert times.size == 45
    ds = SensorDataset(positions=sensors, times=times,
                       values=rng.normal(size=5 * times.size))
    offsets = np.array([[0.0, 0.0, 0.0],      # on a sensor: d = 0
                        [0.125, 0.0, 0.0],    # d = 0.125
                        [0.0, 0.0625, 0.0],   # d = 0.0625
                        [0.0, 0.0, 0.25]])    # d = 0.25
    pts = np.vstack([sensors[0] + offsets, rng.uniform(0.1, 0.9, (60, 3))])
    assert np.array_equal(np.linalg.norm(pts[:4] - sensors[0], axis=1),
                          [0.0, 0.125, 0.0625, 0.25])
    ref = _dense_scan(ds, pts, c, radius, lam)
    got = scan_limit_profile(ds, pts, c, radius, lam=lam)
    assert np.argmin(got) == np.argmin(ref)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def _scan_argv(simulated, outdir, *extra):
    sensors = simulated[0] / "sensors.csv"
    return ["pointsource-scan", "--sensors", str(sensors), "--out",
            str(outdir), "--grid-n", "4", *extra]


@pytest.mark.parametrize("extra, match", [
    (("--radius", "0"), "radius"),
    (("--radius", "-0.02"), "radius"),
    (("--speed", "0"), "scan c"),
    (("--mode", "nll", "--lam", "0"), "lam"),
    (("--mode", "nll", "--lam", "-1"), "lam"),
], ids=["radius-0", "radius-negative", "speed-0", "lam-0", "lam-negative"])
def test_pointsource_scan_refuses_bad_input(simulated, tmp_path, extra, match):
    with pytest.raises(ValueError, match=match):
        main(_scan_argv(simulated, tmp_path, *extra))
    assert not (tmp_path / "scan_argmin.json").exists()


def test_refused_pointsource_scan_leaves_no_directory(simulated, tmp_path):
    outdir = tmp_path / "refused"
    with pytest.raises(ValueError, match="radius"):
        main(_scan_argv(simulated, outdir, "--radius", "0"))
    assert not outdir.exists()


def test_pointsource_scan_refuses_a_one_node_grid(simulated, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(_scan_argv(simulated, tmp_path, "--grid-n", "1"))
    assert exc.value.code == 2
    assert "--grid-n" in capsys.readouterr().err
    assert not (tmp_path / "scan_argmin.json").exists()


@pytest.mark.parametrize("bounds", [("0.5", "0.5"), ("0.8", "0.2")],
                         ids=["zero-dx", "negative-dx"])
def test_pointsource_scan_refuses_a_non_positive_spacing(simulated, tmp_path,
                                                         bounds):
    with pytest.raises(ValueError, match="dx must be finite and positive"):
        main(_scan_argv(simulated, tmp_path, "--grid-bounds", *bounds))
    assert not (tmp_path / "scan_argmin.json").exists()


def test_config_json_refuses_unknown_keys():
    with pytest.raises(ValueError, match="noise_sigm"):
        ExperimentConfig.from_json('{"noise_sigm": 0.5}')
    with pytest.raises(ValueError, match="dxx"):
        ExperimentConfig.from_json(
            '{"sim": {"L": 1.0, "dx": 0.05, "dt": 0.01, "c": 0.5, "T": 1.0,'
            ' "dxx": 0.1}}')
    # dt_v is a class constant, not a field: a config.json that names it,
    # such as one written while v0 was a forward difference, is refused.
    with pytest.raises(ValueError, match="unknown config keys: dt_v"):
        ExperimentConfig.from_json('{"dt_v": 1e-7}')
    with pytest.raises(TypeError, match="dt_v"):
        ExperimentConfig(dt_v=1e-7)
    assert "dt_v" not in ExperimentConfig().to_json()


def test_config_json_fills_a_partial_sim_block():
    cfg = ExperimentConfig.from_json('{"sim": {"dx": 0.05}}')
    assert cfg.sim == replace(DEFAULT_SIM, dx=0.05)
    assert ExperimentConfig.from_json(cfg.to_json()) == cfg


def test_config_refuses_unknown_test_case():
    with pytest.raises(ValueError, match="test case"):
        ExperimentConfig.from_json('{"test_case": 7}')
    with pytest.raises(ValueError, match="test case"):
        ExperimentConfig(test_case=7)


@pytest.mark.parametrize("key, value", [
    ("dx_grid", 0.0), ("dx_grid", -0.1), ("dx_grid", float("inf")),
    ("sample_rate", -1.0),
    ("fit_tol", float("nan")), ("noise_sigma", -0.1), ("n_sensors", 0),
    ("fit_max_evals", 0), ("layout_restarts", 0), ("fit_n_mult", -1),
    ("sensor_bounds", (0.8, 0.2)), ("sensor_bounds", (0.2, float("inf"))),
    ("sensor_bounds", (0.2,)),
    ("sensor_positions", ((0.3, 0.3, 0.3), (0.4, float("nan"), 0.4))),
    ("sensor_positions", ((0.3, 0.3, 0.3), (0.4, 0.4))),
    ("dx_grid", "x"), ("n_sensors", "a"), ("sensor_bounds", ("0.2", "0.8")),
    ("sensor_positions", (("0.3", "0.3", "0.3"),)),
    ("test_case", True), ("sample_rate", True), ("noise_sigma", False),
    ("test_case", 1.0), ("n_sensors", 2.5), ("layout_restarts", 4.0),
    ("fit_n_mult", 0.5), ("fit_max_evals", 10.5), ("layout_seed", 7.5),
    ("noise_seed", 1.5), ("fit_seed", 13.0), ("layout_seed", -1),
    ("noise_seed", -1), ("fit_seed", -2)])
def test_config_refuses_malformed_numbers(key, value):
    with pytest.raises(ValueError, match=key):
        ExperimentConfig(**{key: value})
    blob = json.loads(ExperimentConfig().to_json())
    blob[key] = value
    with pytest.raises(ValueError, match=key):
        ExperimentConfig.from_json(json.dumps(blob))


def test_config_refuses_a_non_number_in_the_sim_block():
    with pytest.raises(ValueError, match="^L must be finite"):
        ExperimentConfig.from_json('{"sim": {"L": "x"}}')
    with pytest.raises(ValueError, match="^dt must be finite"):
        ExperimentConfig.from_json('{"sim": {"dt": true}}')


def test_config_accepts_numpy_scalars():
    cfg = ExperimentConfig(test_case=np.int64(2), n_sensors=np.int32(7),
                           layout_seed=np.uint8(3), fit_n_mult=np.int64(0),
                           sample_rate=np.float32(25.0))
    assert cfg == ExperimentConfig(test_case=2, n_sensors=7, layout_seed=3,
                                   fit_n_mult=0, sample_rate=25.0)
    assert ExperimentConfig.from_json(cfg.to_json()) == cfg


def test_cli_refuses_a_negative_seed(tmp_path):
    with pytest.raises(ValueError, match="layout_seed must be an integer"):
        main(["simulate", "--seed", "-1", "--out", str(tmp_path / "sim")])
    assert not (tmp_path / "sim").exists()


def test_readme_example_config_loads():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("```json\n", 1)[1].split("```", 1)[0]
    cfg = ExperimentConfig.from_json(block)
    assert cfg == ExperimentConfig()
    assert ExperimentConfig.from_json(cfg.to_json()) == cfg


def test_verify_refuses_unknown_selector(tmp_path, capsys):
    with pytest.raises(ValueError, match="bogus"):
        cmd_verify("bogus", outdir=str(tmp_path / "verify"))
    assert not (tmp_path / "verify").exists()
    with pytest.raises(SystemExit):
        main(["verify", "--selector", "bogus"])
    assert "invalid choice" in capsys.readouterr().err


@pytest.mark.parametrize("level, shown", [(None, True), ("ERROR", False)])
def test_log_level_filters_package_warnings(tmp_path, capsys, level, shown):
    argv = ["verify", "--out", str(tmp_path)]
    if level is not None:
        argv += ["--log-level", level]
    root, package = logging.getLogger(), logging.getLogger("waveinform")
    saved = root.handlers[:], package.level
    # No root handler, as in a new process, so main's basicConfig adds the
    # stderr handler that the command line would have.
    root.handlers.clear()
    try:
        assert main(argv) == 0
        capsys.readouterr()
        logging.getLogger("waveinform.fast").warning("jitter probe")
        err = capsys.readouterr().err
    finally:
        root.handlers[:] = saved[0]
        package.setLevel(saved[1])
    assert ("WARNING waveinform.fast: jitter probe" in err) is shown


def test_log_level_refuses_unknown_level(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--log-level", "LOUD"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err
