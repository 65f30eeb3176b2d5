"""Experiment orchestration: configs, test-case presets, and the commands.

Each command is a pure function of an ExperimentConfig (plus prior command
outputs) producing files under an output directory together with a manifest
listing every file with its content hash.  All randomness flows through
explicit seeds, so reruns are byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from . import fast
from .design import (HyperBox, lhs_design, multistart_fit, nll_objective,
                     write_trace_csv)
from .fields import (ScalarField3D, _is_integer, _is_number, atomic_write_text,
                     fmt17)
from .kernels import (HyperParams, SourceParams, WaveKernel, ku_wave_radial,
                      kv_wave_radial)
from .linalg import assemble_covariance
from .oracle import (LP_STABILITY_TOL, MaternRadiusBase, MaternSquaredBase,
                     SphericalRule, dalembert_residuals, is_smooth_point,
                     kv_wave_quadrature, ku_wave_quadrature,
                     lp_relative_error, lp_stability_check)
from .sim import (ZERO_IC, FieldHistory, InitialCondition, SensorDataset,
                  SimConfig, add_noise, run_simulation, sample_sensors)

DEFAULT_SIM = SimConfig(L=1.0, dx=0.043, dt=1.0 / 200.0, c=0.5, T=1.5)

# Optimization domains per number of enabled components.
SINGLE_COMPONENT_BOX = HyperBox(
    lower=[0.0, 0.0, 0.0, 0.03, 0.02, 0.1, 0.2, 1e-8],
    upper=[1.0, 1.0, 1.0, 0.50, 2.00, 5.0, 0.8, 1e-2])
DOUBLE_COMPONENT_BOX = HyperBox(
    lower=[0.0, 0.0, 0.0, 0.05, 0.02, 0.1] * 2 + [0.2, 1e-8],
    upper=[1.0, 1.0, 1.0, 0.40, 2.00, 5.0] * 2 + [0.8, 1e-2])

# Lp norms of the relative reconstruction errors written by cmd_errors.
ERROR_NORMS = (1, 2, np.inf)

# Candidates per block of the point-source scan, the order of the
# spherical product rule in verify's oracle check, and candidates per
# block of verify's PDE-residual points (about half of them pass).
SCAN_CHUNK = 8192
VERIFY_QUAD_ORDER = 24
PDE_DRAW_BLOCK = 64


def case_ics(case):
    """Initial conditions (u0, v0) of the three standard test cases."""
    raised = dict(x0=[0.65, 0.3, 0.5], mid=0.0, half=0.25)
    ring = dict(x0=[0.3, 0.6, 0.7], mid=(0.05 + 0.15) / 2,
                half=(0.15 - 0.05) / 2)
    if case == 1:
        return InitialCondition(**raised, amplitude=5.0), ZERO_IC
    if case == 2:
        return ZERO_IC, InitialCondition(**ring, amplitude=50.0)
    if case == 3:
        return (InitialCondition(**raised, amplitude=2.5),
                InitialCondition(**ring, amplitude=30.0))
    raise ValueError(f"unknown test case {case}")


def case_theta(case, noise_sigma=0.09):
    """Reference hyperparameters supplied in the known-theta experiments."""
    lam = noise_sigma**2
    u1 = SourceParams(x0=[0.65, 0.3, 0.5], radius=0.3, rho=0.2, sigma2=3.0)
    v2 = SourceParams(x0=[0.3, 0.6, 0.7], radius=0.15, rho=0.03, sigma2=3.0)
    if case == 1:
        return HyperParams(c=0.5, u=u1, lam=lam)
    if case == 2:
        return HyperParams(c=0.5, v=v2, lam=lam)
    if case == 3:
        u3 = replace(u1, sigma2=0.3)
        return HyperParams(c=0.5, u=u3, v=v2, lam=lam)
    raise ValueError(f"unknown test case {case}")


def default_box(components):
    return SINGLE_COMPONENT_BOX if len(components) == 1 else DOUBLE_COMPONENT_BOX


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: simulation, sensing, fitting and reconstruction."""

    test_case: int = 1
    sim: SimConfig = DEFAULT_SIM
    n_sensors: int = 30
    sensor_bounds: tuple = (0.2, 0.8)
    layout_seed: int = 7
    layout_restarts: int = 40
    sensor_positions: tuple = None  # m x 3, stored as tuples of floats
    sample_rate: float = 50.0
    noise_sigma: float = 0.09
    noise_seed: int = 11
    fit_n_mult: int = 20
    fit_seed: int = 13
    fit_max_evals: int = 600
    fit_tol: float = 1e-4
    dx_grid: float = 0.02
    # Not a field: its one reader is the reconstruct gate in
    # perfbench/workloads.py, and it goes with ROADMAP item 12a.
    dt_v = 1e-7

    def __post_init__(self):
        for names, rule, ok in (
                (("test_case",), "one of the test cases 1, 2 or 3",
                 lambda v: _is_integer(v) and v in (1, 2, 3)),
                (("sample_rate", "fit_tol", "dx_grid"),
                 "a finite number > 0",
                 lambda v: _is_number(v) and np.isfinite(v) and v > 0.0),
                (("noise_sigma",), "a finite number >= 0",
                 lambda v: _is_number(v) and np.isfinite(v) and v >= 0.0),
                (("n_sensors", "layout_restarts", "fit_max_evals"),
                 "an integer >= 1", lambda v: _is_integer(v) and v >= 1),
                (("fit_n_mult", "layout_seed", "noise_seed", "fit_seed"),
                 "an integer >= 0", lambda v: _is_integer(v) and v >= 0)):
            _refuse_values(vars(self), names, "config", rule, ok)
            for name in names:  # numpy scalars, so that to_json writes them
                if isinstance(getattr(self, name), np.generic):
                    object.__setattr__(self, name, getattr(self, name).item())
        lo_hi = _numeric_array(self.sensor_bounds)
        if not (lo_hi.shape == (2,) and np.isfinite(lo_hi).all()
                and lo_hi[0] < lo_hi[1]):
            raise ValueError("config sensor_bounds must be two finite numbers "
                             f"lo < hi, got {self.sensor_bounds!r}")
        if self.sensor_positions is not None:
            pos = _numeric_array(self.sensor_positions)
            if not (pos.shape[1:] == (3,) and len(pos)
                    and np.isfinite(pos).all()):
                raise ValueError("config sensor_positions must be m x 3 finite"
                                 f" numbers, got {self.sensor_positions!r}")
            object.__setattr__(self, "sensor_positions",
                               tuple(map(tuple, pos.tolist())))

    def sensors(self):
        if self.sensor_positions is not None:
            return np.asarray(self.sensor_positions, dtype=float)
        lo, hi = self.sensor_bounds
        return lhs_design(self.n_sensors, [lo] * 3, [hi] * 3,
                          restarts=self.layout_restarts, seed=self.layout_seed)

    def components(self):
        return {1: ("u",), 2: ("v",), 3: ("u", "v")}[self.test_case]

    def to_json(self):
        blob = asdict(self)
        if self.sensor_positions is None:
            del blob["sensor_positions"]
        return json.dumps(blob, sort_keys=True, indent=1)

    @classmethod
    def from_json(cls, text):
        blob = json.loads(text)
        _refuse_unknown_keys(blob, cls, "config")
        sim = blob.pop("sim", None)
        if sim is not None:
            _refuse_unknown_keys(sim, SimConfig, "sim")
            blob["sim"] = replace(DEFAULT_SIM, **sim)
        if "sensor_bounds" in blob:
            blob["sensor_bounds"] = tuple(blob["sensor_bounds"])
        return cls(**blob)

    @classmethod
    def load(cls, path):
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(fh.read())


def _refuse_unknown_keys(blob, cls, where):
    if not isinstance(blob, dict):
        raise ValueError(f"{where} must be a JSON object")
    unknown = sorted(set(blob) - {f.name for f in fields(cls)})
    if unknown:
        raise ValueError(f"unknown {where} keys: {', '.join(unknown)}")


def _refuse_missing_keys(blob, names, where):
    missing = [name for name in names if name not in blob]
    if missing:
        raise ValueError(f"missing {where} keys: {', '.join(missing)}")


def theta_to_json(params: HyperParams):
    blob = {"c": params.c, "lam": params.lam}
    for name in params.components:
        src = getattr(params, name)
        blob[name] = {"x0": list(src.x0), "radius": src.radius,
                      "rho": src.rho, "sigma2": src.sigma2}
    return json.dumps(blob, sort_keys=True, indent=1)


def _refuse_values(blob, names, where, rule, ok):
    for name in names:
        if not ok(blob[name]):
            raise ValueError(f"{where} {name} must be {rule}, "
                             f"got {blob[name]!r}")


def _numeric_array(value):
    """``value`` as a float array; empty when ragged or not all numbers."""
    try:
        arr = np.array(value)
    except ValueError:  # ragged rows
        return np.empty(0)
    return arr.astype(float) if arr.dtype.kind in "iuf" else np.empty(0)


def _is_point(value):
    return (isinstance(value, list) and len(value) == 3
            and all(map(_is_number, value)) and np.isfinite(value).all())


def theta_from_json(text):
    """Parse ``theta.json``; refuse unknown, missing and malformed keys."""
    blob = json.loads(text)
    _refuse_unknown_keys(blob, HyperParams, "theta")
    _refuse_missing_keys(blob, ("c", "lam"), "theta")
    _refuse_values(blob, ("c", "lam"), "theta", "a number", _is_number)
    blocks = {}
    for name in ("u", "v"):
        if name in blob:
            where = f"theta {name}"
            _refuse_unknown_keys(blob[name], SourceParams, where)
            _refuse_missing_keys(blob[name],
                                 [f.name for f in fields(SourceParams)], where)
            _refuse_values(blob[name], ("radius", "rho", "sigma2"), where,
                           "a number", _is_number)
            _refuse_values(blob[name], ("x0",), where, "three finite numbers",
                           _is_point)
            blocks[name] = SourceParams(**blob[name])
    if not blocks:
        raise ValueError("theta has neither a u nor a v block")
    return HyperParams(c=blob["c"], lam=blob["lam"], **blocks)


class Manifest:
    """Collects output files and writes a hash manifest."""

    def __init__(self, outdir):
        self.outdir = outdir
        self.entries = {}
        self.meta = {}
        os.makedirs(outdir, exist_ok=True)

    def path(self, name):
        return os.path.join(self.outdir, name)

    def register(self, *names):
        for name in names:
            with open(self.path(name), "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            self.entries[name] = digest

    def write(self):
        blob = {"files": self.entries, **self.meta}
        atomic_write_text(self.path("manifest.json"),
                          json.dumps(blob, sort_keys=True, indent=1) + "\n")


def cmd_simulate(config: ExperimentConfig, outdir):
    """Run the FDTD, sample sensors, add noise, persist everything."""
    manifest = Manifest(outdir)
    u0, v0 = case_ics(config.test_case)
    history = run_simulation(config.sim, u0, v0, sample_rate=config.sample_rate)
    for k in range(len(history.times)):
        prefix = manifest.path(f"snapshot_{k:04d}")
        history.snapshot_field(k).save(prefix)
        manifest.register(f"snapshot_{k:04d}.bin", f"snapshot_{k:04d}.json")
    dataset = cmd_sample(config, history, outdir)
    manifest.register("sensors.csv")
    manifest.meta["n_observations"] = dataset.n
    manifest.meta["n_sensors"] = dataset.q
    manifest.meta["n_times"] = dataset.n_times
    atomic_write_text(manifest.path("config.json"), config.to_json() + "\n")
    manifest.register("config.json")
    manifest.write()
    return history, dataset


def cmd_sample(config: ExperimentConfig, history: FieldHistory, outdir):
    """Sensor sampling plus seeded noise; writes sensors.csv."""
    manifest = Manifest(outdir)
    clean = sample_sensors(history, config.sensors())
    noisy = add_noise(clean, config.noise_sigma, config.noise_seed)
    noisy.to_csv(manifest.path("sensors.csv"))
    manifest.register("sensors.csv")
    manifest.write()
    return noisy


def cmd_fit(config: ExperimentConfig, dataset: SensorDataset, outdir,
            theta_true: HyperParams = None):
    """Hyperparameter estimation (or pass-through when n_mult = 0).

    With ``fit_n_mult = 0`` the supplied theta is passed through unchanged
    (the known-theta mode); otherwise multistart likelihood minimization
    runs over ``default_box``.  Writes the trace CSV, the selected theta,
    and a summary row of the estimated base-kernel hyperparameters.  A
    pass-through theta whose components are not the test case's is
    refused before the output directory is made.
    """
    components = config.components()
    if config.fit_n_mult == 0:
        if theta_true is None:
            raise ValueError("pass-through fit requires a supplied theta")
        if theta_true.components != components:
            raise ValueError(
                f"pass-through theta has components {theta_true.components}"
                f", test case {config.test_case} has {components}")
        best, trace = theta_true, []
    else:
        best_vec, trace = multistart_fit(
            nll_objective(dataset, components), default_box(components),
            n_mult=config.fit_n_mult, seed=config.fit_seed,
            tol=config.fit_tol, max_evals=config.fit_max_evals)
        best = HyperParams.from_vector(best_vec, components)
    manifest = Manifest(outdir)
    atomic_write_text(manifest.path("theta.json"), theta_to_json(best) + "\n")
    write_trace_csv(trace, components, manifest.path("fit_trace.csv"))
    summary = ["case,n_sensors," + ",".join(
        f"{f}_{c}" for c in components for f in ("rho", "sigma2")) + ",lam"]
    row = [str(config.test_case), str(dataset.q)]
    for name in components:
        src = getattr(best, name)
        row.extend([fmt17(src.rho), fmt17(src.sigma2)])
    row.append(fmt17(best.lam))
    summary.append(",".join(row))
    atomic_write_text(manifest.path("fit_summary.csv"), "\n".join(summary) + "\n")
    manifest.register("theta.json", "fit_trace.csv", "fit_summary.csv")
    manifest.write()
    return best, trace


def reconstruction_grid(config: ExperimentConfig):
    n = int(round(config.sim.L / config.dx_grid)) + 1
    return ScalarField3D.zeros(np.zeros(3), config.dx_grid, (n, n, n))


def cmd_reconstruct(config: ExperimentConfig, dataset: SensorDataset,
                    theta: HyperParams, outdir):
    """Reconstruct u0 as the posterior mean at t = 0 on the grid, and v0 as
    its time derivative at t = 0+ in closed form (``fast.posterior_speed``).
    """
    manifest = Manifest(outdir)
    kernel = WaveKernel(theta)
    x, t = dataset.points()
    model = fast.fit_posterior(kernel, x, t, dataset.values, theta.lam)
    grid = reconstruction_grid(config)
    pts = grid.points()
    u_field = grid.like(fast.posterior_mean(model, pts, np.zeros(len(pts))))
    v_field = grid.like(fast.posterior_speed(model, pts))
    u_field.save(manifest.path("u0_recon"))
    v_field.save(manifest.path("v0_recon"))
    manifest.register("u0_recon.bin", "u0_recon.json",
                      "v0_recon.bin", "v0_recon.json")
    manifest.write()
    return u_field, v_field, model


def render_truth(config: ExperimentConfig):
    """True initial conditions rendered on the reconstruction grid."""
    u0, v0 = case_ics(config.test_case)
    grid = reconstruction_grid(config)
    pts = grid.points()
    return grid.like(u0.eval(pts)), grid.like(v0.eval(pts))


def cmd_errors(config: ExperimentConfig, u_field, v_field, outdir):
    """Relative Lp errors of the reconstructed fields against the truth."""
    manifest = Manifest(outdir)
    u_truth, v_truth = render_truth(config)
    lines = ["field,p,rel_error"]
    report = {}
    for name, approx, truth in (("u0", u_field, u_truth),
                                ("v0", v_field, v_truth)):
        for p in ERROR_NORMS:
            if truth.norm(p) == 0.0:
                continue
            err = lp_relative_error(approx, truth, p)
            report[(name, p)] = err
            lines.append(f"{name},{p},{fmt17(err)}")
    atomic_write_text(manifest.path("errors.csv"), "\n".join(lines) + "\n")
    manifest.register("errors.csv")
    manifest.write()
    return report


def scan_limit_profile(dataset: SensorDataset, scan_points, c, radius, lam):
    """Point-source objective on scan candidates.

    Evaluates the small-lambda limit profile |W|^2 (1 - r(x0)^2) (``lam``
    None) or the regularized rank-one likelihood at ``lam`` against the
    mollified Green traces at each candidate source position.

    The Green bump f_t(d) is exactly zero off the open shell
    c|t| - R < d < c|t| + R.  So per chunk the (candidate, sensor)
    distances are sorted once, and at each time the Green function is
    evaluated only on the contiguous run of sorted distances inside that
    shell, found by binary search.  <F, W> and |F|^2 are accumulated into
    the candidates from that run.  The rounded bounds c|t| -+ R are each
    moved out by one float, so the run holds every distance at which the
    bump can be nonzero; an extra entry evaluates to an exact 0.

    Raises ValueError unless ``c`` and ``radius`` are finite and positive
    and ``lam`` is None or positive.
    """
    for name, value in (("c", c), ("radius", radius)):
        if not (np.isfinite(value) and value > 0.0):
            raise ValueError(f"scan {name} must be finite and positive, "
                             f"got {value}")
    if lam is not None and not lam > 0.0:
        raise ValueError(f"scan lam must be positive, got {lam}")
    scan_points = np.asarray(scan_points, dtype=float).reshape(-1, 3)
    w = dataset.values
    w2 = float(w @ w)
    if w2 == 0.0:
        raise ValueError("degenerate scan: all-zero observation traces")
    times = dataset.times
    out = np.empty(scan_points.shape[0])
    wmat = dataset.traces()
    for lo in range(0, scan_points.shape[0], SCAN_CHUNK):
        block = scan_points[lo: lo + SCAN_CHUNK]
        m = block.shape[0]
        # np.linalg.norm's operations in its order, one axis at a time:
        # the same distances without a strided length-3 reduction.
        dist = np.sqrt(sum((block[:, None, i] - dataset.positions[None, :, i])
                           ** 2 for i in range(3))).ravel()
        order = np.argsort(dist)
        dist = dist[order]
        cand, sensor = np.divmod(order, dataset.q)
        fw = np.zeros(m)
        f2 = np.zeros(m)
        for k, t in enumerate(times):
            ct = c * abs(t)
            lo_k = np.searchsorted(dist, np.nextafter(ct - radius, -np.inf),
                                   side="left")
            hi_k = np.searchsorted(dist, np.nextafter(ct + radius, np.inf),
                                   side="right")
            run = slice(lo_k, hi_k)
            fk = fast.regularized_green(dist[run], t, c, radius)
            fw += np.bincount(cand[run], weights=fk * wmat[sensor[run], k],
                              minlength=m)
            f2 += np.bincount(cand[run], weights=fk * fk, minlength=m)
        out[lo: lo + SCAN_CHUNK] = fast.rank_one_objective(w2, f2, fw,
                                                           dataset.n, lam)
    return out


def cmd_pointsource_scan(dataset: SensorDataset, scan_grid: ScalarField3D,
                         radius, c, lam, outdir, mode):
    """Scan the point-source likelihood over a grid and locate the argmin.

    ``mode`` is "limit" (the lambda -> 0 profile) or "nll" (at ``lam``);
    any other mode raises ValueError.
    """
    if mode not in ("limit", "nll"):
        raise ValueError(f"unknown scan mode {mode!r}; "
                         "expected 'limit' or 'nll'")
    pts = scan_grid.points()
    vals = scan_limit_profile(dataset, pts, c, radius,
                              None if mode == "limit" else lam)
    # Only now: a scan that refuses its inputs leaves no directory behind.
    manifest = Manifest(outdir)
    volume = scan_grid.like(vals)
    volume.save(manifest.path("scan_volume"))
    best = int(np.argmin(vals))
    result = {"argmin_index": best,
              "argmin_point": [fmt17(v) for v in pts[best]],
              "argmin_value": fmt17(vals[best]),
              "mode": mode}
    atomic_write_text(manifest.path("scan_argmin.json"),
                      json.dumps(result, sort_keys=True, indent=1) + "\n")
    manifest.register("scan_volume.bin", "scan_volume.json",
                      "scan_argmin.json")
    manifest.write()
    return volume, pts[best]


def _verify_kernel_psd(params, tamper):
    rng = np.random.default_rng(0)
    x = rng.uniform(0.0, 1.0, (40, 3))
    t = rng.uniform(0.0, 1.4, 40)
    kernel = WaveKernel(params)
    kmat = assemble_covariance(kernel, kernel.batch(x, t))
    if tamper:
        kmat = -kmat
    eig_min = float(np.linalg.eigvalsh(kmat).min())
    bound = -1e-8 * max(float(kmat.diagonal().max()), 1e-30)
    return {"name": "kernel_psd", "measured": eig_min, "tolerance": bound,
            "passed": bool(eig_min >= bound)}


def _verify_oracle_match(params):
    rng = np.random.default_rng(1)
    rule = SphericalRule.product(VERIFY_QUAD_ORDER)
    worst = 0.0
    for _ in range(6):
        x0 = rng.uniform(0.3, 0.7, 3)
        src = SourceParams(x0=x0, radius=np.inf, rho=rng.uniform(0.4, 1.2),
                           sigma2=rng.uniform(0.5, 3.0))
        z = (x0 + rng.normal(size=3) * 0.2, rng.uniform(0.1, 1.0))
        zp = (x0 + rng.normal(size=3) * 0.2, rng.uniform(0.1, 1.0))
        closed_v = kv_wave_radial([z[0]], [z[1]], [zp[0]], [zp[1]],
                                  params.c, src)[0, 0]
        base = (src.x0, src.rho, src.sigma2)
        quad_v = kv_wave_quadrature(MaternSquaredBase(*base, 2), z, zp,
                                    params.c, rule)
        closed_u = ku_wave_radial([z[0]], [z[1]], [zp[0]], [zp[1]],
                                  params.c, src)[0, 0]
        quad_u = ku_wave_quadrature(MaternRadiusBase(*base), z, zp,
                                    params.c, rule)
        for closed, quad in ((closed_v, quad_v), (closed_u, quad_u)):
            if abs(closed) > 1e-12:
                worst = max(worst, abs(quad - closed) / abs(closed))
    return {"name": "oracle_equivalence", "measured": worst,
            "tolerance": 1e-4, "passed": bool(worst <= 1e-4)}


def _pde_residual_points(params, kernel, step, rng):
    """The first 40 uniform draws of (x in [0, 1]^3, t in [0.1, 1.3]) that
    are smooth points where the kernel's variance exceeds 1e-6.

    Drawn in blocks of ``PDE_DRAW_BLOCK`` rows; a row's four numbers are
    bitwise the draws uniform(0, 1, 3) then uniform(0.1, 1.3) of one
    candidate at a time, so the points do not depend on the block size.
    """
    xs, ts = [], []
    while len(ts) < 40:
        draws = rng.uniform([0.0, 0.0, 0.0, 0.1], [1.0, 1.0, 1.0, 1.3],
                            size=(PDE_DRAW_BLOCK, 4))
        x, t = draws[:, :3], draws[:, 3]
        keep = (is_smooth_point(params, x, t, step)
                & (kernel.diag(kernel.batch(x, t)) > 1e-6))
        xs.extend(x[keep])
        ts.extend(t[keep])
    return np.array(xs[:40]), np.array(ts[:40])


def _verify_pde_residual(params):
    rng = np.random.default_rng(2)
    step = 1e-3
    zp_x = getattr(params, params.components[0]).x0 + 0.21
    zp_t = 0.8
    kernel = WaveKernel(params)
    zp = kernel.batch([zp_x], [zp_t])

    def slice_fn(x, t):
        return kernel.pairwise(kernel.batch(x, t), zp)[:, 0]

    xs, ts = _pde_residual_points(params, kernel, step, rng)
    res = dalembert_residuals(slice_fn, xs, ts, params.c, step)
    worst = float(res.max())
    return {"name": "pde_residual_kernel_slice", "measured": worst,
            "tolerance": 5e-2, "passed": bool(worst <= 5e-2)}


def _verify_lp_stability():
    u0 = replace(case_ics(1)[0], x0=[0, 0, 0])
    v0 = replace(case_ics(2)[1], x0=[0, 0, 0])
    t = 0.5
    extent = 0.3 + 0.5 * t + 0.1
    n = int(2 * extent / 0.02) + 1
    grid = ScalarField3D.zeros([-extent] * 3, 2 * extent / (n - 1), (n, n, n))
    [rep] = lp_stability_check(u0, v0, 0.5, t, (2,), grid)
    ratio = max(rep["v_lhs"] / max(rep["v_rhs"], 1e-300),
                rep["u_lhs"] / max(rep["u_rhs"], 1e-300))
    return {"name": "lp_stability", "measured": ratio,
            "tolerance": 1.0 + LP_STABILITY_TOL,
            "passed": bool(rep["v_ok"] and rep["u_ok"])}


def _verify_rank_one_limit():
    rng = np.random.default_rng(4)
    f = rng.normal(size=30)
    w = rng.normal(size=30)
    sums = float(w @ w), float(f @ f), float(f @ w), w.size
    lim = float(fast.rank_one_objective(*sums))
    gaps = [abs(lam * float(fast.rank_one_objective(*sums, lam)) - lim)
            for lam in (1e-2, 1e-4, 1e-6)]
    return {"name": "rank_one_limit", "measured": gaps[-1],
            "tolerance": 1e-4 * float(w @ w),
            "passed": bool(gaps[0] > gaps[1] > gaps[2]
                           and gaps[-1] <= 1e-4 * float(w @ w))}


def cmd_verify(selector, outdir, tamper_psd=False):
    """Machine-readable invariant checks (values vs tolerances).

    ``selector`` picks the suite depth: "fast" runs the kernel PSD, oracle
    equivalence and PDE residual checks at small sizes; "full" adds the Lp
    stability and rank-one limit checks.  The report is returned and
    written to ``outdir/verify.json``; a failed check is an entry in it,
    never raised, and an unknown selector raises ValueError.
    ``tamper_psd`` negates the PSD check's covariance, so that check fails
    (``perfbench``'s self-tests count such a run as a failed op).
    """
    params = HyperParams(c=0.5, u=case_theta(1).u, v=case_theta(2).v,
                         lam=0.09**2)
    if selector not in ("fast", "full"):
        raise ValueError(f"unknown verify selector {selector!r}; "
                         "expected 'fast' or 'full'")
    checks = [_verify_kernel_psd(params, tamper_psd),
              _verify_oracle_match(params),
              _verify_pde_residual(params)]
    if selector == "full":
        checks.append(_verify_lp_stability())
        checks.append(_verify_rank_one_limit())
    report = {"selector": selector,
              "passed": all(c["passed"] for c in checks),
              "checks": checks}
    manifest = Manifest(outdir)
    atomic_write_text(manifest.path("verify.json"),
                      json.dumps(report, sort_keys=True, indent=1,
                                 default=float) + "\n")
    manifest.register("verify.json")
    manifest.write()
    return report
