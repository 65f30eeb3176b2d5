"""Explicit FDTD solver for the free-space wave equation on [0, L]^3.

Two-step leapfrog with the 7-point Laplacian, second-order absorbing
boundary conditions on the faces (first-order on edges and corners, taken
along the inward diagonal), test-case initial conditions with analytic
gradients and squared-radius antiderivatives, trilinear sensor sampling and
seeded Gaussian noise injection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .fields import ScalarField3D, atomic_write_text, fmt17

CFL_LIMIT_3D = 1.0 / math.sqrt(3.0)


@dataclass(frozen=True)
class SimConfig:
    """Simulation box, discretization and physics parameters.

    ``dx`` is snapped to L / ceil(L/dx) so the grid tiles the box exactly.
    """

    L: float
    dx: float
    dt: float
    c: float
    T: float
    abc_order: int = 2

    def __post_init__(self):
        if self.abc_order not in (1, 2):
            raise ValueError("abc_order must be 1 or 2")
        for name in ("L", "dx", "dt", "c", "T"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive")
        if self.courant > CFL_LIMIT_3D + 1e-12:
            raise ValueError(
                f"CFL violation: c*dt/dx = {self.courant:.4f} > 1/sqrt(3)")

    @property
    def n_cells(self):
        return int(math.ceil(self.L / self.dx - 1e-9))

    @property
    def dx_eff(self):
        return self.L / self.n_cells

    @property
    def n_nodes(self):
        return self.n_cells + 1

    @property
    def courant(self):
        return self.c * self.dt / (self.L / int(math.ceil(self.L / self.dx - 1e-9)))

    @property
    def n_steps(self):
        return int(round(self.T / self.dt))


@dataclass(frozen=True)
class InitialCondition:
    """Radial initial-condition families of the experiments.

    raised_cosine: A * 1_[0,R](r) * (1 + cos(pi r / R))
    ring_cosine:   A * 1_[R1,R2](r) * (1 + cos(2 pi (r - (R1+R2)/2)/(R2-R1)))
    plus ``zero`` and ``custom`` (callable value/gradient).
    """

    kind: str
    x0: np.ndarray = field(default_factory=lambda: np.zeros(3))
    radii: tuple = ()
    amplitude: float = 0.0
    func: object = None
    grad_func: object = None

    def __post_init__(self):
        object.__setattr__(self, "x0", np.asarray(self.x0, dtype=float).reshape(3))
        object.__setattr__(self, "radii", tuple(float(r) for r in self.radii))
        if self.kind not in ("raised_cosine", "ring_cosine", "zero", "custom"):
            raise ValueError(f"unknown initial condition kind {self.kind!r}")
        if self.kind == "raised_cosine" and len(self.radii) != 1:
            raise ValueError("raised_cosine takes one radius")
        if self.kind == "ring_cosine":
            if len(self.radii) != 2 or not self.radii[0] < self.radii[1]:
                raise ValueError("ring_cosine takes radii (R1, R2) with R1 < R2")
        if any(r <= 0 for r in self.radii):
            raise ValueError("radii must be positive")
        if self.kind == "custom" and self.func is None:
            raise ValueError("custom initial condition needs a callable")

    @property
    def support_radius(self):
        if self.kind == "raised_cosine":
            return self.radii[0]
        if self.kind == "ring_cosine":
            return self.radii[1]
        return 0.0

    def profile(self, s):
        """Radial profile in squared radius: value = profile(|x - x0|^2)."""
        s = np.asarray(s, dtype=float)
        r = np.sqrt(np.maximum(s, 0.0))
        if self.kind == "zero":
            return np.zeros_like(r)
        if self.kind == "raised_cosine":
            big_r = self.radii[0]
            inside = r <= big_r
            return np.where(inside,
                            self.amplitude * (1.0 + np.cos(np.pi * r / big_r)),
                            0.0)
        if self.kind == "ring_cosine":
            r1, r2 = self.radii
            mid = 0.5 * (r1 + r2)
            k = 2.0 * np.pi / (r2 - r1)
            inside = (r >= r1) & (r <= r2)
            return np.where(inside,
                            self.amplitude * (1.0 + np.cos(k * (r - mid))),
                            0.0)
        raise NotImplementedError("custom profiles are not radial by contract")

    def profile_antideriv(self, s):
        """Antiderivative of :meth:`profile` from 0, in the squared radius."""
        s = np.asarray(s, dtype=float)
        if self.kind == "zero":
            return np.zeros_like(s)
        if self.kind == "raised_cosine":
            big_r = self.radii[0]
            u = np.sqrt(np.clip(s, 0.0, big_r * big_r))
            factor = big_r / np.pi
            val = (u * u + 2.0 * factor * u * np.sin(np.pi * u / big_r)
                   + 2.0 * factor**2 * (np.cos(np.pi * u / big_r) - 1.0))
            return self.amplitude * val
        if self.kind == "ring_cosine":
            r1, r2 = self.radii
            mid = 0.5 * (r1 + r2)
            k = 2.0 * np.pi / (r2 - r1)

            def inner(r):
                return (r * r + 2.0 * r * np.sin(k * (r - mid)) / k
                        + 2.0 * np.cos(k * (r - mid)) / k**2)

            u = np.sqrt(np.clip(s, r1 * r1, r2 * r2))
            return self.amplitude * (inner(u) - inner(r1))
        raise NotImplementedError("custom profiles are not radial by contract")

    def eval(self, x):
        x = np.asarray(x, dtype=float).reshape(-1, 3)
        if self.kind == "custom":
            return np.asarray(self.func(x), dtype=float).reshape(-1)
        d = x - self.x0
        return self.profile(np.einsum("ij,ij->i", d, d))

    def grad(self, x):
        x = np.asarray(x, dtype=float).reshape(-1, 3)
        if self.kind == "custom":
            if self.grad_func is None:
                raise ValueError("custom initial condition has no gradient")
            return np.asarray(self.grad_func(x), dtype=float).reshape(-1, 3)
        d = x - self.x0
        r = np.linalg.norm(d, axis=1)
        slope = np.zeros_like(r)
        if self.kind == "raised_cosine":
            big_r = self.radii[0]
            inside = (r > 0.0) & (r <= big_r)
            slope[inside] = -self.amplitude * np.pi / big_r * np.sin(
                np.pi * r[inside] / big_r)
        elif self.kind == "ring_cosine":
            r1, r2 = self.radii
            mid = 0.5 * (r1 + r2)
            k = 2.0 * np.pi / (r2 - r1)
            inside = (r >= r1) & (r <= r2)
            slope[inside] = -self.amplitude * k * np.sin(k * (r[inside] - mid))
        safe = np.where(r > 0.0, r, 1.0)
        return d * (slope / safe)[:, None]


@dataclass
class FieldHistory:
    """Stored snapshots of the simulated field at the sampling instants."""

    cfg: SimConfig
    times: np.ndarray
    snaps: np.ndarray  # (n_snaps, n, n, n)

    def snapshot_field(self, index):
        return ScalarField3D(origin=np.zeros(3), dx=self.cfg.dx_eff,
                             dims=self.snaps.shape[1:],
                             values=self.snaps[index].ravel(order="F"))

    @property
    def sample_rate(self):
        return 1.0 / (self.times[1] - self.times[0])


def _laplacian(w):
    """Undivided 7-point Laplacian on the interior nodes."""
    out = np.zeros_like(w)
    out[1:-1, 1:-1, 1:-1] = (
        w[2:, 1:-1, 1:-1] + w[:-2, 1:-1, 1:-1]
        + w[1:-1, 2:, 1:-1] + w[1:-1, :-2, 1:-1]
        + w[1:-1, 1:-1, 2:] + w[1:-1, 1:-1, :-2]
        - 6.0 * w[1:-1, 1:-1, 1:-1])
    return out


def _face_tangential(face):
    """Undivided tangential Laplacian on the interior of a 2D face."""
    return (face[2:, 1:-1] + face[:-2, 1:-1] + face[1:-1, 2:]
            + face[1:-1, :-2] - 4.0 * face[1:-1, 1:-1])


def _apply_abc(wn, w, wm, cdt, dx, order):
    inner_face = (slice(1, -1), slice(1, -1))
    k1 = (cdt - dx) / (cdt + dx)
    k2 = 2.0 * dx / (cdt + dx)
    k3 = cdt * cdt / (2.0 * dx * (cdt + dx))
    for axis in range(3):
        for bidx, iidx in ((0, 1), (-1, -2)):
            wn_v = np.moveaxis(wn, axis, 0)
            w_v = np.moveaxis(w, axis, 0)
            wm_v = np.moveaxis(wm, axis, 0)
            if order == 1:
                wn_v[(bidx,) + inner_face] = (
                    w_v[(iidx,) + inner_face]
                    + k1 * (wn_v[(iidx,) + inner_face]
                            - w_v[(bidx,) + inner_face]))
            else:
                t2 = _face_tangential(w_v[bidx]) + _face_tangential(w_v[iidx])
                wn_v[(bidx,) + inner_face] = (
                    -wm_v[(iidx,) + inner_face]
                    + k1 * (wn_v[(iidx,) + inner_face]
                            + wm_v[(bidx,) + inner_face])
                    + k2 * (w_v[(bidx,) + inner_face]
                            + w_v[(iidx,) + inner_face])
                    + k3 * t2)

    # Edges and corners: first-order condition along the inward diagonal.
    def mur1(bounds_idx, diag_idx, dist):
        coeff = (cdt - dist) / (cdt + dist)
        wn[bounds_idx] = w[diag_idx] + coeff * (wn[diag_idx] - w[bounds_idx])

    sides = ((0, 1), (-1, -2))
    for a in range(3):
        for b in range(a + 1, 3):
            for sa, ia in sides:
                for sb, ib in sides:
                    bidx = [slice(1, -1)] * 3
                    didx = [slice(1, -1)] * 3
                    bidx[a], bidx[b] = sa, sb
                    didx[a], didx[b] = ia, ib
                    mur1(tuple(bidx), tuple(didx), math.sqrt(2.0) * dx)
    for sa, ia in sides:
        for sb, ib in sides:
            for sc, ic in sides:
                mur1((sa, sb, sc), (ia, ib, ic), math.sqrt(3.0) * dx)


def run_simulation(cfg: SimConfig, u0: InitialCondition, v0: InitialCondition,
                   sample_rate=50.0):
    """Leapfrog FDTD of the initial value problem; returns stored snapshots.

    Snapshots are recorded at t_k = k / sample_rate for
    k = 0 .. round(T * sample_rate) - 1; the sample rate must divide the
    simulation rate.  Raises on CFL violation (at construction) and on
    non-finite field values (instability guard).
    """
    stride_f = 1.0 / (cfg.dt * sample_rate)
    stride = int(round(stride_f))
    if abs(stride_f - stride) > 1e-9 or stride < 1:
        raise ValueError("sample rate must divide the simulation rate")
    for ic in (u0, v0):
        if ic.kind in ("raised_cosine", "ring_cosine"):
            reach = ic.support_radius
            if np.any(ic.x0 - reach < 0.0) or np.any(ic.x0 + reach > cfg.L):
                raise ValueError("initial condition support leaves the box")
    n = cfg.n_nodes
    dx = cfg.dx_eff
    axis = np.linspace(0.0, cfg.L, n)
    gx, gy, gz = np.meshgrid(axis, axis, axis, indexing="ij")
    pts = np.column_stack([gx.ravel(), gy.ravel(), gz.ravel()])
    u_grid = u0.eval(pts).reshape(n, n, n)
    v_grid = v0.eval(pts).reshape(n, n, n)

    cou2 = (cfg.c * cfg.dt / dx) ** 2
    cdt = cfg.c * cfg.dt
    n_samples = int(round(cfg.T * sample_rate))
    snaps = np.empty((n_samples, n, n, n))
    times = np.arange(n_samples) / sample_rate

    w_prev = u_grid.copy()
    snaps[0] = w_prev
    # Second-order accurate first step.
    w = u_grid + cfg.dt * v_grid + 0.5 * cou2 * _laplacian(u_grid)
    recorded = 1
    for step in range(1, cfg.n_steps + 1):
        if step % stride == 0 and recorded < n_samples:
            snaps[recorded] = w
            recorded += 1
        if recorded >= n_samples:
            break
        w_next = 2.0 * w - w_prev + cou2 * _laplacian(w)
        _apply_abc(w_next, w, w_prev, cdt, dx, cfg.abc_order)
        w_prev, w = w, w_next
        if step % 25 == 0 and not np.isfinite(w).all():
            raise FloatingPointError(f"instability detected at step {step}")
    if recorded != n_samples:
        raise ValueError("simulation too short for the requested samples")
    return FieldHistory(cfg=cfg, times=times, snaps=snaps)


@dataclass
class SensorDataset:
    """Sensor positions, observation times, and the flattened observations.

    Sensor-major ordering contract: entry i*N + k holds sensor i at time
    t_k.
    """

    positions: np.ndarray
    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=float).reshape(-1, 3)
        self.times = np.asarray(self.times, dtype=float).reshape(-1)
        self.values = np.asarray(self.values, dtype=float).reshape(-1)
        if np.any(np.diff(self.times) <= 0.0):
            raise ValueError("observation times must be strictly increasing")
        q, n_t = self.positions.shape[0], self.times.size
        if self.values.size != q * n_t:
            raise ValueError("values length must equal q * N")
        if q > 1:
            d = self.positions[:, None, :] - self.positions[None, :, :]
            dist = np.linalg.norm(d, axis=2)
            if np.min(dist[np.triu_indices(q, 1)]) == 0.0:
                raise ValueError("sensor positions must be pairwise distinct")

    @property
    def q(self):
        return self.positions.shape[0]

    @property
    def n_times(self):
        return self.times.size

    @property
    def n(self):
        return self.values.size

    def points(self):
        """Expanded space-time points (n, 3) and (n,), sensor-major."""
        x = np.repeat(self.positions, self.n_times, axis=0)
        t = np.tile(self.times, self.q)
        return x, t

    def trace(self, i):
        return self.values[i * self.n_times:(i + 1) * self.n_times]

    def traces(self):
        return self.values.reshape(self.q, self.n_times)

    def subset(self, n_sensors):
        """Restriction to the first n_sensors sensors of the layout."""
        return SensorDataset(positions=self.positions[:n_sensors],
                             times=self.times,
                             values=self.values[: n_sensors * self.n_times])

    def to_csv(self, path):
        lines = ["sensor_id,x,y,z,t,value"]
        for i in range(self.q):
            px, py, pz = self.positions[i]
            for k, t in enumerate(self.times):
                v = self.values[i * self.n_times + k]
                lines.append(",".join([str(i)] + [fmt17(u) for u in
                                                  (px, py, pz, t, v)]))
        atomic_write_text(path, "\n".join(lines) + "\n")

    @classmethod
    def from_csv(cls, path):
        ids, rows = [], []
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().strip()
            if header != "sensor_id,x,y,z,t,value":
                raise ValueError(f"unexpected sensor CSV header: {header!r}")
            for line in fh:
                parts = line.strip().split(",")
                if not parts or parts == [""]:
                    continue
                ids.append(int(parts[0]))
                rows.append([float(v) for v in parts[1:]])
        rows = np.asarray(rows)
        ids = np.asarray(ids)
        sensor_ids = np.unique(ids)
        blocks = [rows[ids == s] for s in sensor_ids]
        for s, block in zip(sensor_ids, blocks):
            if not np.array_equal(block[:, 3], blocks[0][:, 3]):
                raise ValueError(f"sensor {s}: observation times differ from "
                                 f"those of sensor {sensor_ids[0]}")
            if np.any(block[:, :3] != block[0, :3]):
                raise ValueError(f"sensor {s}: position changes between rows")
        return cls(positions=np.array([b[0, :3] for b in blocks]),
                   times=blocks[0][:, 3],
                   values=np.concatenate([b[:, 4] for b in blocks]))


def sample_sensors(history: FieldHistory, positions, sample_rate=None):
    """Trilinear interpolation of the stored snapshots at sensor positions."""
    positions = np.asarray(positions, dtype=float).reshape(-1, 3)
    cfg = history.cfg
    if np.any(positions < 0.0) or np.any(positions > cfg.L):
        raise ValueError("sensor positions must lie inside the box")
    if sample_rate is None:
        stride = 1
    else:
        stride_f = history.sample_rate / sample_rate
        stride = int(round(stride_f))
        if abs(stride_f - stride) > 1e-9 or stride < 1:
            raise ValueError("sample rate must divide the stored rate")
    times = history.times[::stride]
    snaps = history.snaps[::stride]

    n = cfg.n_nodes
    dx = cfg.dx_eff
    f = positions / dx
    base = np.minimum(np.floor(f).astype(int), n - 2)
    frac = f - base
    weights = []
    corners = []
    for bx in (0, 1):
        for by in (0, 1):
            for bz in (0, 1):
                wgt = ((frac[:, 0] if bx else 1.0 - frac[:, 0])
                       * (frac[:, 1] if by else 1.0 - frac[:, 1])
                       * (frac[:, 2] if bz else 1.0 - frac[:, 2]))
                idx = np.ravel_multi_index(
                    (base[:, 0] + bx, base[:, 1] + by, base[:, 2] + bz),
                    (n, n, n))
                weights.append(wgt)
                corners.append(idx)
    weights = np.stack(weights, axis=1)
    corners = np.stack(corners, axis=1)
    values = np.empty((positions.shape[0], times.size))
    for k in range(times.size):
        flat = snaps[k].ravel()
        values[:, k] = (flat[corners] * weights).sum(axis=1)
    return SensorDataset(positions=positions, times=times,
                         values=values.ravel())


def add_noise(dataset: SensorDataset, sigma, seed):
    """Add i.i.d. centered Gaussian noise; deterministic under the seed."""
    if sigma < 0.0:
        raise ValueError("sigma must be >= 0")
    if sigma == 0.0:
        values = dataset.values.copy()
    else:
        rng = np.random.default_rng(int(seed))
        values = dataset.values + sigma * rng.standard_normal(dataset.n)
    return SensorDataset(positions=dataset.positions.copy(),
                         times=dataset.times.copy(), values=values)
