"""Span tracer for the benchmark's traced run.

The tracer wraps public functions of the waveinform layers from outside the
package.  While ``Tracer.installed()`` is active, every attribute of every
``waveinform`` module that refers to a wrapped function is replaced by the
wrapper, so callers that imported a name directly (``from .linalg import
chol_with_jitter``) are traced too; methods are replaced on their class.
Leaving the block restores the originals.  Wrappers return exactly what the
wrapped function returns.

Each call records one span: name, start, end, parent span, op id and a few
work counters taken at the boundary.  Spans stay in memory until the run
ends.  ``layer_metrics`` turns them into the per-layer metrics listed in
``BENCHMARK.json``; times there are self or total seconds per traced op.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
from contextlib import contextmanager


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "counts")

    def __init__(self, name, parent, op):
        self.name = name
        self.parent = parent
        self.op = op
        self.start = self.end = 0.0
        self.counts = None

    @property
    def layer(self):
        return self.name.split(".", 1)[0]

    @property
    def duration(self):
        return self.end - self.start

    def to_json(self, index):
        return {"id": index, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent, "op": self.op,
                "counts": self.counts}


# Work counters, taken at the layer boundary.  A probe runs before the call
# and its value is handed to the counter with the call's result.

def _kernel_eval_count(args, kwargs):
    return args[0].eval_count


def _kernel_entries(before, args, kwargs, result):
    return {"entries": args[0].eval_count - before}


def _result_size(before, args, kwargs, result):
    return {"entries": int(result.size)}


def _active_set(before, args, kwargs, result):
    return {"p": int(result.p), "n": int(result.permutation.size)}


def _posterior_mean(before, args, kwargs, result):
    # The call evaluates one diagonal entry per query point, then p entries
    # per live query point (the cross-covariance columns).
    model = args[0]
    points = int(result.size)
    if not model.active_count:
        return {"points": points, "live": 0, "cross": 0}
    cross = model.kernel.eval_count - before - points
    return {"points": points, "live": cross // model.active_count,
            "cross": cross}


def _model_eval_count(args, kwargs):
    return args[0].kernel.eval_count


def _cholesky(before, args, kwargs, result):
    return {"dim": int(args[0].shape[0]), "jitter": float(result[1])}


def _fit_trace(before, args, kwargs, result):
    max_evals = kwargs.get("max_evals", 600)
    rows = result[1]
    evals = [row.evals for row in rows]
    return {"starts": len(rows), "evals": sum(evals),
            "at_cap": sum(e >= max_evals for e in evals),
            "failed": sum(math.isnan(row.nll_end) for row in rows)}


def _node_steps(before, args, kwargs, result):
    # Computed from the configuration: nodes times leapfrog steps run.
    cfg = args[0]
    rate = kwargs.get("sample_rate", args[3] if len(args) > 3 else 50.0)
    stride = int(round(1.0 / (cfg.dt * rate)))
    steps = (len(result.times) - 1) * stride
    return {"node_steps": cfg.n_nodes ** 3 * steps}


def _node_pairs(before, args, kwargs, result):
    rule = kwargs.get("rule", args[4] if len(args) > 4 else None)
    return {"node_pairs": int(rule.size) ** 2}


def _bytes(before, args, kwargs, result):
    return {"bytes": len(args[1])}


# (module, attribute or "Class.method", probe, counter).  The span name is
# "<module>.<attribute>" with the class dropped, e.g. "kernels.pairwise".
INSTRUMENTED = [
    ("sim", "run_simulation", None, _node_steps),
    ("sim", "sample_sensors", None, None),
    ("sim", "add_noise", None, None),
    ("kernels", "WaveKernel.pairwise", _kernel_eval_count, _kernel_entries),
    ("kernels", "WaveKernel.diag", _kernel_eval_count, _kernel_entries),
    ("kernels", "wave_kernel", None, _result_size),
    ("kernels", "wave_kernel_diag", None, _result_size),
    ("kernels", "ku_wave_radial", None, _result_size),
    ("kernels", "kv_wave_radial", None, _result_size),
    ("kernels", "ku_wave_diag", None, _result_size),
    ("kernels", "kv_wave_diag", None, _result_size),
    ("fast", "detect_active", None, _active_set),
    ("fast", "fast_nll", None, None),
    ("fast", "posterior_mean", _model_eval_count, _posterior_mean),
    ("fast", "green_traces", None, _result_size),
    ("fast", "regularized_green", None, _result_size),
    ("gp", "fit_posterior", None, None),
    ("gp", "assemble_covariance", None, _result_size),
    ("linalg", "chol_with_jitter", None, _cholesky),
    ("linalg", "chol_solve_vec", None, None),
    ("linalg", "half_solve", None, None),
    ("linalg", "logdet_from_chol", None, None),
    ("design", "lhs_design", None, None),
    ("design", "minimize_box", None, None),
    ("design", "multistart_fit", None, _fit_trace),
    ("oracle", "kv_wave_quadrature", None, _node_pairs),
    ("oracle", "ku_wave_quadrature", None, _node_pairs),
    ("oracle", "dalembert_residuals", None, None),
    ("oracle", "is_smooth_point", None, None),
    ("oracle", "lp_relative_error", None, None),
    ("oracle", "lp_stability_check", None, None),
    ("experiments", "cmd_simulate", None, None),
    ("experiments", "cmd_sample", None, None),
    ("experiments", "cmd_fit", None, None),
    ("experiments", "cmd_reconstruct", None, None),
    ("experiments", "cmd_errors", None, None),
    ("experiments", "render_truth", None, None),
    ("experiments", "scan_limit_profile", None, _result_size),
    ("experiments", "cmd_pointsource_scan", None, None),
    ("experiments", "cmd_verify", None, None),
    ("fields", "ScalarField3D.save", None, None),
    ("fields", "atomic_write_bytes", None, _bytes),
]


class Tracer:
    """Records spans of instrumented waveinform calls, in memory."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []

    def wrap(self, name, func, probe=None, counter=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else None, self.op)
            spans.append(span)
            stack.append(len(spans) - 1)
            before = probe(args, kwargs) if probe else None
            span.start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            except BaseException as exc:
                span.end = time.perf_counter()
                span.counts = {"error": type(exc).__name__}
                raise
            finally:
                stack.pop()
            span.end = time.perf_counter()
            if counter is not None:
                span.counts = counter(before, args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Patch the instrumented functions for the duration of the block."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "waveinform"
                                         or name.startswith("waveinform."))]
        undo = []
        try:
            for module_name, attr, probe, counter in INSTRUMENTED:
                module = sys.modules["waveinform." + module_name]
                span_name = f"{module_name}.{attr.rsplit('.', 1)[-1]}"
                if "." in attr:
                    cls_name, method = attr.split(".")
                    cls = getattr(module, cls_name)
                    original = cls.__dict__[method]
                    setattr(cls, method,
                            self.wrap(span_name, original, probe, counter))
                    undo.append((cls, method, original))
                    continue
                original = getattr(module, attr)
                traced = self.wrap(span_name, original, probe, counter)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, traced)
                            undo.append((mod, key, original))
            yield self
        finally:
            for owner, key, original in reversed(undo):
                setattr(owner, key, original)

    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for index, span in enumerate(self.spans):
                fh.write(json.dumps(span.to_json(index)) + "\n")


def self_times(spans):
    """Per-span self time: duration minus the time its children cover.

    Calls are single-threaded and strictly nested, so the children of a
    span cover disjoint sub-intervals of it.
    """
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.duration
    return [span.duration - cov for span, cov in zip(spans, covered)]


KERNEL_PAIRWISE = {"kernels.pairwise", "kernels.wave_kernel",
                   "kernels.ku_wave_radial", "kernels.kv_wave_radial"}
KERNEL_DIAG = {"kernels.diag", "kernels.wave_kernel_diag",
               "kernels.ku_wave_diag", "kernels.kv_wave_diag"}
GREEN = {"fast.green_traces", "fast.regularized_green"}
ORACLE_CHECKS = {"oracle.dalembert_residuals", "oracle.is_smooth_point",
                 "oracle.lp_stability_check"}
SOLVES = {"linalg.chol_solve_vec", "linalg.half_solve"}
FIELD_WRITES = {"fields.save", "fields.atomic_write_bytes"}

# Name, unit.  Every traced run reports all of them; a layer that a
# workload does not touch reads 0.
LAYER_METRICS = [
    ("kernels.pairwise_s", "s"), ("kernels.pairwise_entries", "count"),
    ("kernels.ns_per_entry", "ns"),
    ("kernels.diag_s", "s"), ("kernels.diag_entries", "count"),
    ("fast.posterior_mean_s", "s"), ("fast.mean_live_points", "count"),
    ("fast.mean_live_frac", "ratio"), ("fast.mean_cross_entries", "count"),
    ("fast.nll_s", "s"), ("fast.nll_calls", "count"),
    ("fast.detect_active_s", "s"), ("fast.active_p_mean", "count"),
    ("fast.active_frac", "ratio"),
    ("fast.green_s", "s"), ("fast.green_evals", "count"),
    ("experiments.scan_self_s", "s"), ("experiments.scan_points_per_s", "1/s"),
    ("gp.fit_posterior_s", "s"), ("gp.assemble_s", "s"),
    ("gp.assemble_entries", "count"),
    ("linalg.chol_s", "s"), ("linalg.chol_calls", "count"),
    ("linalg.chol_dim_max", "count"), ("linalg.chol_flops", "flop"),
    ("linalg.jitter_rescues", "count"), ("linalg.jitter_max", "cov_units"),
    ("linalg.chol_failures", "count"), ("linalg.solve_s", "s"),
    ("design.evals_total", "count"), ("design.evals_per_start", "count"),
    ("design.starts_at_cap_frac", "ratio"), ("design.starts_failed", "count"),
    ("design.self_s", "s"),
    ("sim.run_simulation_s", "s"), ("sim.node_steps", "count"),
    ("sim.sample_sensors_s", "s"),
    ("oracle.quadrature_s", "s"), ("oracle.quad_node_pairs", "count"),
    ("oracle.verify_checks_s", "s"), ("oracle.lp_error_s", "s"),
    ("experiments.self_s", "s"), ("fields.save_s", "s"),
    ("fields.bytes_written", "B"),
    ("trace.overhead_frac", "ratio"),
]


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, n_ops, overhead_frac):
    """Per-layer metrics from the spans of ``n_ops`` traced ops.

    Times and counts are per traced op; ``*_frac``, ``*_mean``,
    ``*_per_*`` and ``*_max`` entries are ratios or extremes over all
    spans.  A span counts toward a kernels, green or fields total only when
    it is the outermost span of its group, so nested calls (``pairwise`` ->
    ``wave_kernel`` -> ``ku_wave_radial``) are not counted twice.
    """
    selfs = self_times(spans)

    def outermost(names):
        for span in spans:
            if span.name in names and (span.parent is None
                                       or spans[span.parent].name not in names):
                yield span

    def total(names, key=None):
        chosen = list(outermost(names))
        if key is None:
            return sum(s.duration for s in chosen)
        return sum((s.counts or {}).get(key, 0) for s in chosen)

    def named(name):
        return [s for s in spans if s.name == name]

    def layer_self(layer):
        return sum(t for s, t in zip(spans, selfs) if s.layer == layer)

    per_op = 1.0 / max(n_ops, 1)
    pair_s, pair_n = total(KERNEL_PAIRWISE), total(KERNEL_PAIRWISE, "entries")
    means = [s.counts for s in named("fast.posterior_mean") if s.counts]
    actives = [s.counts for s in named("fast.detect_active") if s.counts]
    chols = named("linalg.chol_with_jitter")
    chol_ok = [s.counts for s in chols if s.counts and "dim" in s.counts]
    fits = [s.counts for s in named("design.multistart_fit") if s.counts
            and "starts" in s.counts]
    scans = named("experiments.scan_limit_profile")
    starts = sum(f["starts"] for f in fits)
    out = {
        "kernels.pairwise_s": pair_s * per_op,
        "kernels.pairwise_entries": pair_n * per_op,
        "kernels.ns_per_entry": _ratio(pair_s * 1e9, pair_n),
        "kernels.diag_s": total(KERNEL_DIAG) * per_op,
        "kernels.diag_entries": total(KERNEL_DIAG, "entries") * per_op,
        "fast.posterior_mean_s": total({"fast.posterior_mean"}) * per_op,
        "fast.mean_live_points": sum(m["live"] for m in means) * per_op,
        "fast.mean_live_frac": _ratio(sum(m["live"] for m in means),
                                      sum(m["points"] for m in means)),
        "fast.mean_cross_entries": sum(m["cross"] for m in means) * per_op,
        "fast.nll_s": total({"fast.fast_nll"}) * per_op,
        "fast.nll_calls": len(named("fast.fast_nll")) * per_op,
        "fast.detect_active_s": total({"fast.detect_active"}) * per_op,
        "fast.active_p_mean": _ratio(sum(a["p"] for a in actives),
                                     len(actives)),
        "fast.active_frac": _ratio(sum(a["p"] for a in actives),
                                   sum(a["n"] for a in actives)),
        "fast.green_s": total(GREEN) * per_op,
        "fast.green_evals": total(GREEN, "entries") * per_op,
        "experiments.scan_self_s": sum(
            selfs[i] for i, s in enumerate(spans)
            if s.name == "experiments.scan_limit_profile") * per_op,
        "experiments.scan_points_per_s": _ratio(
            sum((s.counts or {}).get("entries", 0) for s in scans),
            sum(s.duration for s in scans)),
        "gp.fit_posterior_s": total({"gp.fit_posterior"}) * per_op,
        "gp.assemble_s": total({"gp.assemble_covariance"}) * per_op,
        "gp.assemble_entries": total({"gp.assemble_covariance"}, "entries")
        * per_op,
        "linalg.chol_s": total({"linalg.chol_with_jitter"}) * per_op,
        "linalg.chol_calls": len(chols) * per_op,
        "linalg.chol_dim_max": max((c["dim"] for c in chol_ok), default=0),
        "linalg.chol_flops": sum(c["dim"] ** 3 / 3.0 for c in chol_ok)
        * per_op,
        "linalg.jitter_rescues": sum(c["jitter"] > 0.0 for c in chol_ok)
        * per_op,
        "linalg.jitter_max": max((c["jitter"] for c in chol_ok), default=0.0),
        "linalg.chol_failures": sum(1 for s in chols if s.counts
                                    and "error" in s.counts) * per_op,
        "linalg.solve_s": total(SOLVES) * per_op,
        "design.evals_total": sum(f["evals"] for f in fits) * per_op,
        "design.evals_per_start": _ratio(sum(f["evals"] for f in fits),
                                         starts),
        "design.starts_at_cap_frac": _ratio(sum(f["at_cap"] for f in fits),
                                            starts),
        "design.starts_failed": sum(f["failed"] for f in fits) * per_op,
        "design.self_s": layer_self("design") * per_op,
        "sim.run_simulation_s": total({"sim.run_simulation"}) * per_op,
        "sim.node_steps": total({"sim.run_simulation"}, "node_steps")
        * per_op,
        "sim.sample_sensors_s": total({"sim.sample_sensors"}) * per_op,
        "oracle.quadrature_s": total({"oracle.kv_wave_quadrature",
                                      "oracle.ku_wave_quadrature"}) * per_op,
        "oracle.quad_node_pairs": total({"oracle.kv_wave_quadrature",
                                         "oracle.ku_wave_quadrature"},
                                        "node_pairs") * per_op,
        "oracle.verify_checks_s": total(ORACLE_CHECKS) * per_op,
        "oracle.lp_error_s": total({"oracle.lp_relative_error"}) * per_op,
        "experiments.self_s": layer_self("experiments") * per_op,
        "fields.save_s": total(FIELD_WRITES) * per_op,
        "fields.bytes_written": total({"fields.atomic_write_bytes"}, "bytes")
        * per_op,
        "trace.overhead_frac": overhead_frac,
    }
    return out


def layer_self_times(spans, n_ops):
    """Self seconds per traced op, summed by layer (for the summary print)."""
    totals = {}
    for span, t in zip(spans, self_times(spans)):
        totals[span.layer] = totals.get(span.layer, 0.0) + t
    return {layer: t / max(n_ops, 1) for layer, t in sorted(totals.items())}
