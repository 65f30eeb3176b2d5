"""End-to-end command and CLI tests on a coarse configuration."""

import hashlib
import json
import os
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

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


def test_fit_multistart_writes_trace(coarse_config, simulated, tmp_path):
    _, _, dataset = simulated
    cfg = replace(coarse_config, fit_n_mult=2, fit_max_evals=40)
    best, trace = cmd_fit(cfg, dataset.subset(2), str(tmp_path))
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
    report = cmd_verify("fast", outdir=str(tmp_path))
    assert report["passed"]
    assert all(c["passed"] for c in report["checks"])
    blob = json.loads((tmp_path / "verify.json").read_text())
    assert blob["selector"] == "fast"
    # a sign-flipped kernel must FAIL the PSD check, reported not raised
    bad = cmd_verify("fast", tamper_psd=True)
    psd = [c for c in bad["checks"] if c["name"] == "kernel_psd"][0]
    assert not psd["passed"]
    assert not bad["passed"]


def test_verify_reduced_quadrature_reported(tmp_path):
    # a crude quadrature order exceeds the oracle tolerance: reported
    report = cmd_verify("fast", quad_order=4)
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


def test_reconstruction_at_sensors_consistency():
    # noiseless (model-consistent) data with lam -> 0: the Kriging mean
    # reproduces the observations at the observation space-time points.
    # Out-of-model data cannot be interpolated past the covariance
    # conditioning floor (~2e-4 here), so the draw comes from the prior.
    from waveinform.kernels import WaveKernel
    from waveinform import fast, gp
    from waveinform.linalg import assemble_covariance

    rng = np.random.default_rng(9)
    theta = case_theta(1)
    kern = WaveKernel(theta)
    sensors = rng.uniform(0.25, 0.75, (6, 3))
    times = np.arange(1, 16) / 15.0
    x = np.repeat(sensors, 15, axis=0)
    t = np.tile(times, 6)
    active = kern.diag(x, t) > 0
    kmat = assemble_covariance(kern, x[active], t[active])
    chol = np.linalg.cholesky(kmat + 1e-12 * np.eye(active.sum()))
    y = np.zeros(len(t))
    y[active] = chol @ rng.standard_normal(active.sum())
    model = gp.fit_posterior(kern, x, t, y, 1e-10)
    fitted = fast.posterior_mean(model, x, t)
    assert np.abs(fitted - y).max() <= 1e-4 * np.abs(y).max()


def test_verify_full_selector():
    report = cmd_verify("full")
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
    right = scan_limit_profile(ds, pts, 0.5, 0.02)
    wrong = scan_limit_profile(ds, pts, 0.4, 0.02)
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


def test_config_json_refuses_unknown_keys():
    with pytest.raises(ValueError, match="noise_sigm"):
        ExperimentConfig.from_json('{"noise_sigm": 0.5}')
    with pytest.raises(ValueError, match="dxx"):
        ExperimentConfig.from_json(
            '{"sim": {"L": 1.0, "dx": 0.05, "dt": 0.01, "c": 0.5, "T": 1.0,'
            ' "dxx": 0.1}}')


def test_config_json_fills_a_partial_sim_block():
    cfg = ExperimentConfig.from_json('{"sim": {"dx": 0.05}}')
    assert cfg.sim == replace(DEFAULT_SIM, dx=0.05)
    assert ExperimentConfig.from_json(cfg.to_json()) == cfg


def test_config_refuses_unknown_test_case():
    with pytest.raises(ValueError, match="test case"):
        ExperimentConfig.from_json('{"test_case": 7}')
    with pytest.raises(ValueError, match="test case"):
        ExperimentConfig(test_case=7)


def test_readme_example_config_loads():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("```json\n", 1)[1].split("```", 1)[0]
    cfg = ExperimentConfig.from_json(block)
    assert cfg == ExperimentConfig()
    assert ExperimentConfig.from_json(cfg.to_json()) == cfg


def test_verify_refuses_unknown_selector(capsys):
    with pytest.raises(ValueError, match="bogus"):
        cmd_verify("bogus")
    with pytest.raises(SystemExit):
        main(["verify", "--selector", "bogus"])
    assert "invalid choice" in capsys.readouterr().err
