"""waveinform benchmark: one command, four closed-loop workloads.

Run from the root of a source checkout (the package is imported from
``src/``):

    python3 perfbench/run.py --workload reconstruct --seed 1 --seconds 25
    python3 perfbench/run.py --workload all --trace 1

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` is the separate traced run: ops come in pairs on the same
input, the first with every layer's public functions wrapped (see
tracing.py) and the second bare, which gives the per-layer metrics and the
tracing overhead.  ``--workload all`` runs each workload in a child
process of its own.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  A record with the environment, every op time
and every gate failure goes to ``.perfbench_out/``; the traced run also
writes its spans there.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext

WORKLOAD_NAMES = ("reconstruct", "fit", "scan", "verify")
# BLAS/OpenMP threads, pinned before numpy is imported.  One thread keeps
# op times steady on a shared 2-core machine.
THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_REPEATS = 5
# Times the package import (with numpy and scipy) in a fresh interpreter.
# setup_s counts the median over SETUP_REPEATS imports: this probe run
# SETUP_REPEATS - 1 times, plus the benchmark's own import.
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import waveinform; "
                "print(time.perf_counter() - t)")
OUT_DIR = ".perfbench_out"
END_TO_END = (("setup_s", "s"), ("op_s", "s"), ("op_s_tail", "s"),
              ("peak_rss_mb", "MB"))


def pin_threads():
    for var in THREAD_VARS:
        os.environ[var] = str(THREADS)


def environment():
    import numpy
    import scipy
    import platform

    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"), "pinned_threads": THREADS,
            "thread_env": {var: os.environ.get(var) for var in THREAD_VARS}}


def tail(samples):
    """Highest percentile with at least ten samples above it.

    Below 20 samples that percentile would not exceed the median, so the
    maximum is reported instead.  Returns (value, label).
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n < 20:
        return ordered[-1], f"max of {n}"
    return ordered[n - 11], f"p{100.0 * (n - 10) / n:.0f} of {n}"


def import_seconds(src):
    """Import time of the package in a fresh interpreter, without bytecode."""
    probe = subprocess.run([sys.executable, "-B", "-c", IMPORT_PROBE, src],
                           capture_output=True, text=True, check=True,
                           timeout=120)
    return float(probe.stdout)


def fresh_sources(src, out_dir):
    """Copy the package sources, without any bytecode cache, to a new dir.

    Importing the copy with bytecode writing off compiles every module from
    source, whatever ``__pycache__`` an earlier test or run left in ``src``.
    """
    root = tempfile.mkdtemp(dir=out_dir, prefix="src-")
    shutil.copytree(os.path.join(src, "waveinform"),
                    os.path.join(root, "waveinform"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    return root


def run_workload(workload, seed, seconds, trace, import_s, out_dir):
    """Set up, run closed-loop ops for ``seconds``, print and return metrics."""
    import tracing

    name = workload.name
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        pool = workload.setup(seed)
        setup_times.append(time.perf_counter() - t0)

    tracer = tracing.Tracer() if trace else None
    timed = {True: [], False: []}
    samples, failures, quality = [], [], {}
    min_ops = 2 if trace else 1
    start = time.perf_counter()
    k = 0
    while (len(samples) < min_ops or time.perf_counter() - start
           + statistics.median(samples) <= seconds):
        # A traced op and the bare op after it share their input, so the
        # overhead compares like with like and every entry gets traced.
        entry = (k // 2 if tracer else k) % len(pool)
        inputs = pool[entry]
        traced = tracer is not None and k % 2 == 0
        workdir = tempfile.mkdtemp(dir=out_dir, prefix=f"op-{name}-")
        try:
            with tracer.installed() if traced else nullcontext():
                if traced:
                    tracer.op = k
                t0 = time.perf_counter()
                try:
                    outputs = workload.op(inputs, workdir)
                    error = None
                except Exception as exc:  # a raising op counts as failed
                    error = f"{type(exc).__name__}: {exc}"
                elapsed = time.perf_counter() - t0
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if error is None:
            try:
                problems, values = workload.check(inputs, outputs)
                quality.setdefault(entry, values)
            except Exception as exc:  # a gate that cannot run fails the op
                problems = [f"gate raised {type(exc).__name__}: {exc}"]
        else:
            problems = [error]
        if problems:
            failures.append({"op": k, "entry": entry, "problems": problems})
        samples.append(elapsed)
        timed[traced].append(elapsed)
        k += 1

    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tail_value, tail_label = tail(samples)
    summary = {
        "setup_s": import_s + statistics.median(setup_times),
        "op_s": statistics.median(samples),
        "op_s_tail": tail_value,
        "peak_rss_mb": rss_mb,
    }
    if tracer is None:
        metrics = {key: {"value": summary[key], "unit": unit}
                   for key, unit in END_TO_END}
    else:
        # Median over complete (traced, bare) pairs of their time ratio.
        overhead = statistics.median(
            [a / b for a, b in zip(timed[True], timed[False])]) - 1.0
        layers = tracing.layer_metrics(tracer.spans, len(timed[True]),
                                       overhead)
        metrics = {key: {"value": layers[key], "unit": unit}
                   for key, unit in tracing.LAYER_METRICS}

    attempted, failed = len(samples), len(failures)
    print(f"[{name}] seed {seed}: {attempted} ops in "
          f"{time.perf_counter() - start:.1f} s, {failed} failed "
          f"(fail_rate = {failed / attempted:.4f})")
    print(f"[{name}] setup_s = {summary['setup_s']:.4f} s "
          f"(median of {SETUP_REPEATS} imports {import_s:.4f} s + median of "
          f"{SETUP_REPEATS} set-ups)")
    print(f"[{name}] op_s = {summary['op_s']:.4f} s (median of {attempted})")
    print(f"[{name}] op_s_tail = {tail_value:.4f} s ({tail_label})")
    print(f"[{name}] peak_rss_mb = {rss_mb:.1f} MB")
    for key in sorted({k for v in quality.values() for k in v}):
        values = [v[key] for _, v in sorted(quality.items())]
        print(f"[{name}] {key} = {statistics.median(values):.6g} "
              f"(median over {len(values)} distinct inputs)")
    for failure in failures[:5]:
        print(f"[{name}] FAILED op {failure['op']}: "
              + "; ".join(failure["problems"]))
    if tracer is not None:
        for key, unit in tracing.LAYER_METRICS:
            print(f"[{name}] {key} = {metrics[key]['value']:.6g} {unit}")
        for layer, secs in tracing.layer_self_times(
                tracer.spans, len(timed[True])).items():
            print(f"[{name}] self time {layer} = {secs:.4f} s per traced op")
        tracer.write_jsonl(os.path.join(
            out_dir, f"{name}-seed{seed}.spans.jsonl"))

    record = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": int(trace), "environment": environment(),
              "setup_times_s": setup_times, "import_s": import_s,
              "op_times_s": samples, "traced_op_times_s": timed[True],
              "failures": failures,
              "quality": {str(k): v for k, v in sorted(quality.items())},
              "metrics": metrics}
    with open(os.path.join(out_dir, f"{name}-seed{seed}-trace{int(trace)}"
                           ".json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=float)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def run_all(args):
    """Run each workload in a child process of its own and combine them.

    Separate processes keep each workload's ``peak_rss_mb`` its own.
    """
    results = {}
    for name in WORKLOAD_NAMES:
        child = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], stdout=subprocess.PIPE, text=True)
        lines = child.stdout.splitlines()
        if child.returncode != 0:
            print("\n".join(lines), file=sys.stderr)
            return child.returncode
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{key}": value for name, r in results.items()
                    for key, value in r["metrics"].items()}}))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "waveinform", "__init__.py")):
        print(f"error: no waveinform sources under {src}; run from the root "
              "of a source checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    pin_threads()
    out_dir = os.path.join(os.getcwd(), OUT_DIR)
    os.makedirs(out_dir, exist_ok=True)
    root = fresh_sources(src, out_dir)
    try:
        import_times = [import_seconds(root)
                        for _ in range(SETUP_REPEATS - 1)]
        sys.dont_write_bytecode = True
        sys.path.insert(0, root)
        t0 = time.perf_counter()
        import waveinform
        import_times.append(time.perf_counter() - t0)
        if not os.path.abspath(waveinform.__file__).startswith(root + os.sep):
            print(f"error: imported waveinform from {waveinform.__file__}",
                  file=sys.stderr)
            return 2
        import workloads

        print("environment: " + json.dumps(environment(), sort_keys=True))
        result = run_workload(workloads.WORKLOADS[args.workload](), args.seed,
                              args.seconds, bool(args.trace),
                              statistics.median(import_times), out_dir)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
