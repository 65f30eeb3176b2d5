"""Self-tests of the benchmark at toy sizes.

Run from the repository root:

    python3 -m pytest perfbench -q
"""

import functools
import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from waveinform import experiments, gp, linalg  # noqa: E402
from waveinform.kernels import WaveKernel  # noqa: E402
from waveinform.sim import SimConfig  # noqa: E402

# Toy sizes: the same code paths at a second or less per op.
_TOY_SIM = SimConfig(L=1.0, dx=1.0 / 12.0, dt=1.0 / 60.0, c=0.5, T=1.0)
TOY = {
    "reconstruct": dict(n_sensors=6, dx_grid=0.1, sim_config=_TOY_SIM,
                        sample_rate=20.0, max_u0_l2=1.0, max_v0_l2=2.0),
    "fit": dict(n_sensors=4, n_starts=1, max_evals=10, sim_config=_TOY_SIM,
                sample_rate=20.0),
    "scan": dict(n_sensors=8, n_times=40, grid_n=16),
    "verify": dict(selector="fast", quad_order=24, max_rel_err=1e-3),
}


def toy(name):
    return workloads.WORKLOADS[name](**TOY[name])


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_toy_op_passes_its_gate(name, tmp_path):
    workload = toy(name)
    pool = workload.setup(5)
    outputs = workload.op(pool[0], str(tmp_path))
    problems, quality = workload.check(pool[0], outputs)
    assert problems == []
    assert all(np.isfinite(v) for v in quality.values())


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_inputs_depend_only_on_the_seed(name):
    workload = toy(name)
    first, again, other = (workload.setup(s) for s in (5, 5, 6))
    assert repr(first) == repr(again)
    assert repr(first) != repr(other)


def test_tampered_output_counts_as_failed_op(tmp_path, monkeypatch, capsys):
    tampered = functools.partial(experiments.cmd_verify, tamper_psd=True)
    monkeypatch.setattr(experiments, "cmd_verify", tampered)
    result = run.run_workload(toy("verify"), 5, 0.0, False, 0.0,
                              str(tmp_path))
    assert result["attempted"] == 1
    assert result["failed"] == 1
    assert result["correct"] is False
    assert "kernel_psd failed" in capsys.readouterr().out


def test_raising_op_counts_as_failed_and_run_continues(tmp_path,
                                                        monkeypatch):
    def broken(*args, **kwargs):
        raise linalg.SingularCovarianceError("injected")

    monkeypatch.setattr(experiments, "cmd_pointsource_scan", broken)
    result = run.run_workload(toy("scan"), 5, 0.0, True, 0.0, str(tmp_path))
    assert result["attempted"] == 2
    assert result["failed"] == 2


def test_traced_and_bare_op_of_a_pair_share_their_input(tmp_path):
    workload = toy("scan")
    seen = []
    op = workload.op
    workload.op = lambda inputs, workdir: seen.append(inputs) or op(inputs,
                                                                   workdir)
    result = run.run_workload(workload, 5, 0.0, True, 0.0, str(tmp_path))
    assert result["attempted"] == 2 and len(seen) == 2
    assert seen[0] is seen[1]


def test_fresh_sources_leave_bytecode_behind(tmp_path):
    package = tmp_path / "src" / "waveinform"
    (package / "__pycache__").mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "__pycache__" / "__init__.cpython.pyc").write_bytes(b"stale")
    root = run.fresh_sources(str(tmp_path / "src"), str(tmp_path))
    assert sorted(os.listdir(os.path.join(root, "waveinform"))) == [
        "__init__.py"]


def test_tracing_keeps_outputs_and_restores_functions(tmp_path):
    workload = toy("reconstruct")
    inputs = workload.setup(5)[0]
    bare = workload.op(inputs, str(tmp_path / "bare"))
    chol, pairwise = linalg.chol_with_jitter, WaveKernel.pairwise
    tracer = tracing.Tracer()
    with tracer.installed():
        assert gp.chol_with_jitter is not chol
        assert gp.chol_with_jitter is linalg.chol_with_jitter
        assert WaveKernel.pairwise is not pairwise
        traced = workload.op(inputs, str(tmp_path / "traced"))
    assert gp.chol_with_jitter is chol and linalg.chol_with_jitter is chol
    assert WaveKernel.pairwise is pairwise
    for a, b in zip(bare[:2], traced[:2]):
        assert a.values.tobytes() == b.values.tobytes()
    assert bare[2] == traced[2]
    names = {span.name for span in tracer.spans}
    assert {"sim.run_simulation", "gp.fit_posterior", "fast.posterior_mean",
            "kernels.pairwise", "linalg.chol_with_jitter",
            "fields.atomic_write_bytes"} <= names
    assert all(span.end >= span.start for span in tracer.spans)


def test_self_time_subtracts_children():
    spans = []
    for name, parent, start, end in (("experiments.a", None, 0.0, 10.0),
                                     ("gp.b", 0, 1.0, 4.0),
                                     ("linalg.c", 1, 2.0, 3.0),
                                     ("kernels.d", 0, 5.0, 9.0)):
        span = tracing.Span(name, parent, 0)
        span.start, span.end = start, end
        spans.append(span)
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    assert tracing.layer_self_times(spans, 2) == {
        "experiments": 1.5, "gp": 1.0, "kernels": 2.0, "linalg": 0.5}


@pytest.mark.parametrize("name", ["scan", "fit"])
def test_traced_run_reports_every_layer_metric(name, tmp_path):
    result = run.run_workload(toy(name), 5, 0.0, True, 0.0, str(tmp_path))
    assert result["correct"]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert list(metrics) == [k for k, _ in tracing.LAYER_METRICS]
    if name == "scan":
        assert metrics["kernels.pairwise_entries"] == 0
        assert metrics["linalg.chol_calls"] == 0
        assert metrics["fast.green_evals"] > 0
    else:
        assert metrics["fast.nll_calls"] > 0
        assert metrics["linalg.chol_calls"] == metrics["fast.nll_calls"]
        assert metrics["design.evals_per_start"] > 0
    spans = (tmp_path / f"{name}-seed5.spans.jsonl").read_text().splitlines()
    assert spans and {"id", "name", "start", "end", "parent", "op"} <= set(
        json.loads(spans[0]))


def test_tail_has_ten_samples_above_it():
    samples = list(range(40))
    value, label = run.tail(samples)
    assert sum(s > value for s in samples) == 10
    assert label == "p75 of 40"
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, "max of 3")


def test_benchmark_json_matches_the_metrics_printed():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(
        tracing.LAYER_METRICS)
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


@pytest.mark.parametrize("name", ["scan", "all"])
def test_refuses_to_run_without_sources(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", name, "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""
