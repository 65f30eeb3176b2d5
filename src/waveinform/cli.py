"""Command-line entry point.

waveinform simulate|sample|fit|reconstruct|errors|pointsource-scan|verify
    --config <file> [--out <dir>] [--seed <u64>] [--log-level <level>] ...
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from dataclasses import replace

import numpy as np

from .experiments import (ExperimentConfig, cmd_errors, cmd_fit,
                          cmd_pointsource_scan, cmd_reconstruct, cmd_sample,
                          cmd_simulate, cmd_verify, case_theta,
                          theta_from_json)
from .fields import ScalarField3D
from .sim import FieldHistory, SensorDataset


def _load_config(args):
    if args.config:
        cfg = ExperimentConfig.load(args.config)
    else:
        cfg = ExperimentConfig()
    if args.seed is not None:
        cfg = replace(cfg, layout_seed=args.seed, noise_seed=args.seed + 1,
                      fit_seed=args.seed + 2)
    return cfg


def _grid_n(text):
    n = int(text)
    if n < 2:
        raise argparse.ArgumentTypeError(f"need at least 2 nodes, got {n}")
    return n


def _add_common(parser):
    parser.add_argument("--config", help="experiment config JSON")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--seed", type=int, default=None,
                        help="override layout/noise/fit seeds")
    parser.add_argument("--log-level", default="WARNING",
                        choices=("DEBUG", "INFO", "WARNING", "ERROR"),
                        help="lowest level of the waveinform log records "
                             "written to stderr")


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="waveinform",
        description="Wave-informed GP regression experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("simulate", "sample", "fit", "reconstruct", "errors",
                 "pointsource-scan", "verify"):
        p = sub.add_parser(name)
        _add_common(p)
        if name == "sample":
            p.add_argument("--history", required=True,
                           help="directory with stored snapshots")
        if name in ("fit", "reconstruct"):
            p.add_argument("--sensors", required=True, help="sensor CSV")
        if name == "fit":
            p.add_argument("--theta", help="known theta JSON (pass-through)")
        if name == "reconstruct":
            p.add_argument("--theta", required=True, help="theta JSON")
        if name == "errors":
            p.add_argument("--fields", required=True,
                           help="directory holding u0_recon/v0_recon")
        if name == "pointsource-scan":
            p.add_argument("--sensors", required=True, help="sensor CSV")
            p.add_argument("--radius", type=float, default=0.02)
            p.add_argument("--speed", type=float, default=0.5)
            p.add_argument("--lam", type=float, default=1e-6)
            p.add_argument("--grid-n", type=_grid_n, default=40)
            p.add_argument("--grid-bounds", type=float, nargs=2,
                           default=(0.2, 0.8))
            p.add_argument("--mode", choices=("limit", "nll"), default="limit")
        if name == "verify":
            p.add_argument("--selector", choices=("fast", "full"),
                           default="fast")

    args = parser.parse_args(argv)
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    logging.getLogger("waveinform").setLevel(args.log_level)
    cfg = _load_config(args)

    if args.command == "simulate":
        history, dataset = cmd_simulate(cfg, args.out)
        print(f"simulated {len(history.times)} snapshots; "
              f"{dataset.n} observations -> {args.out}")
    elif args.command == "sample":
        history = _load_history(args.history)
        dataset = cmd_sample(cfg, history, args.out)
        print(f"sampled {dataset.n} observations -> {args.out}")
    elif args.command == "fit":
        dataset = SensorDataset.from_csv(args.sensors)
        theta_true = None
        if args.theta:
            with open(args.theta, "r", encoding="utf-8") as fh:
                theta_true = theta_from_json(fh.read())
        elif cfg.fit_n_mult == 0:
            theta_true = case_theta(cfg.test_case, cfg.noise_sigma)
        best, trace = cmd_fit(cfg, dataset, args.out, theta_true=theta_true)
        print(f"fit complete ({len(trace)} starts) -> {args.out}")
    elif args.command == "reconstruct":
        dataset = SensorDataset.from_csv(args.sensors)
        with open(args.theta, "r", encoding="utf-8") as fh:
            theta = theta_from_json(fh.read())
        cmd_reconstruct(cfg, dataset, theta, args.out)
        print(f"reconstruction written -> {args.out}")
    elif args.command == "errors":
        u_field = ScalarField3D.load(os.path.join(args.fields, "u0_recon"))
        v_field = ScalarField3D.load(os.path.join(args.fields, "v0_recon"))
        report = cmd_errors(cfg, u_field, v_field, args.out)
        for (name, p), err in sorted(report.items(), key=str):
            print(f"{name} L{p} relative error: {err:.4f}")
    elif args.command == "pointsource-scan":
        dataset = SensorDataset.from_csv(args.sensors)
        lo, hi = args.grid_bounds
        n = args.grid_n
        grid = ScalarField3D.zeros([lo] * 3, (hi - lo) / (n - 1), (n, n, n))
        _, argmin = cmd_pointsource_scan(dataset, grid, args.radius,
                                         args.speed, args.lam, args.out,
                                         mode=args.mode)
        print(f"scan argmin at {np.round(argmin, 4)} -> {args.out}")
    elif args.command == "verify":
        report = cmd_verify(args.selector, outdir=args.out)
        for check in report["checks"]:
            status = "PASS" if check["passed"] else "FAIL"
            print(f"[{status}] {check['name']}: measured {check['measured']:.3e}"
                  f" vs tolerance {check['tolerance']:.3e}")
        if not report["passed"]:
            return 1
    return 0


def _load_history(directory):
    """The round(T * sample_rate) snapshots that ``simulate`` wrote.  A
    missing one, one past that count and one off the stored sim grid
    (dims, dx, origin 0) are refused with ValueError naming the file."""
    stored = ExperimentConfig.load(os.path.join(directory, "config.json"))
    sim, count = stored.sim, int(round(stored.sim.T * stored.sample_rate))
    grid = ScalarField3D.zeros(np.zeros(3), sim.dx_eff, (sim.n_nodes,) * 3)
    prefix = os.path.join(directory, "snapshot_{:04d}").format
    if os.path.exists(prefix(count) + ".json"):
        raise ValueError(f"{prefix(count)}.json is past the {count} "
                         "snapshots of the stored T and sample_rate")
    snaps = []
    for k in range(count):
        if not os.path.exists(prefix(k) + ".json"):
            raise ValueError(f"{prefix(k)}.json is missing; the stored T and "
                             f"sample_rate give {count} snapshots")
        field = ScalarField3D.load(prefix(k))
        if not field.same_grid(grid):
            raise ValueError(f"{prefix(k)}.json is on dims {field.dims}, dx "
                             f"{field.dx!r}, origin {field.origin.tolist()}: "
                             "not the stored sim grid")
        snaps.append(field.as_array())
    return FieldHistory(cfg=sim, times=np.arange(count) / stored.sample_rate,
                        snaps=np.stack(snaps))


if __name__ == "__main__":
    sys.exit(main())
