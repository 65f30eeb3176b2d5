"""Explicit FDTD solver for the free-space wave equation on [0, L]^3.

Two-step leapfrog with the 7-point Laplacian, second-order absorbing
boundary conditions on the faces (first-order on edges and corners, taken
along the inward diagonal), test-case initial conditions with analytic
gradients and squared-radius antiderivatives, trilinear sensor sampling and
seeded Gaussian noise injection.

A time step is a handful of array operations.  The interior update writes
2 w - w_prev + cou2 * lap(w) into the next level in place, slab by slab of
x-planes through two cache-sized buffers, and three levels rotate.  Every
boundary write reads only interior nodes of the new level and the two old
levels, so the boundary nodes are independent of each other: a plan of
flat indices, built once per run, updates all of them with one gather and
scatter for the second-order faces and one for the first-order edges and
corners.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import ScalarField3D, atomic_write_text, fmt17

CFL_LIMIT_3D = 1.0 / math.sqrt(3.0)


def _is_number(value):
    """A Python or numpy real number; a bool is not one."""
    return (isinstance(value, (int, float, np.integer, np.floating))
            and not isinstance(value, bool))


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

    def __post_init__(self):
        for name in ("L", "dx", "dt", "c", "T"):
            value = getattr(self, name)
            if not (_is_number(value) and 0.0 < value < math.inf):
                raise ValueError(f"{name} must be finite and positive, "
                                 f"got {value!r}")
        if self.n_cells < 2:
            raise ValueError("the grid needs two cells per side (dx < L): "
                             "the absorbing boundary reads interior nodes")
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
        return self.c * self.dt / self.dx_eff

    @property
    def n_steps(self):
        return int(round(self.T / self.dt))


@dataclass(frozen=True)
class InitialCondition:
    """Radial cosine shell: A (1 + cos(pi (r - mid) / half)) on the support.

    The support is |r - mid| <= half, r = |x - x0|.  A raised cosine of
    radius R is (mid 0, half R), a ring on [R1, R2] is (mid (R1 + R2) / 2,
    half (R2 - R1) / 2), and amplitude 0 is the zero condition, whose
    support is empty.
    """

    x0: np.ndarray
    mid: float
    half: float
    amplitude: float

    def __post_init__(self):
        # A copy that cannot be written: ZERO_IC is shared by every caller.
        x0 = np.array(self.x0, dtype=float).reshape(3)
        x0.flags.writeable = False
        object.__setattr__(self, "x0", x0)
        values = [*self.x0, self.mid, self.half, self.amplitude]
        # A ball (mid 0) or a ring whose inner radius mid - half is > 0.
        if not (np.isfinite(values).all() and self.half > 0.0
                and (self.mid == 0.0 or self.mid > self.half)):
            raise ValueError(
                "an initial condition needs finite values, half > 0 and mid 0 "
                f"or above half; got x0 {self.x0}, mid {self.mid}, half "
                f"{self.half}, amplitude {self.amplitude}")

    @property
    def support_radius(self):
        """Outer radius of the support; 0 for the zero condition."""
        return self.mid + self.half if self.amplitude != 0.0 else 0.0

    def _on_support(self, r):
        return (r >= self.mid - self.half) & (r <= self.support_radius)

    def profile(self, s):
        """Radial profile in squared radius: value = profile(|x - x0|^2)."""
        r = np.sqrt(np.maximum(np.asarray(s, dtype=float), 0.0))
        out = np.zeros_like(r)
        inside = self._on_support(r)
        out[inside] = self.amplitude * (1.0 + np.cos(
            np.pi * (r[inside] - self.mid) / self.half))
        return out

    def profile_antideriv(self, s):
        """Antiderivative of :meth:`profile` from 0, in the squared radius."""
        lo = max(self.mid - self.half, 0.0)
        k = np.pi / self.half

        def inner(r):
            return (r * r + 2.0 * r * np.sin(k * (r - self.mid)) / k
                    + 2.0 * np.cos(k * (r - self.mid)) / k**2)

        u = np.sqrt(np.clip(s, lo * lo, self.support_radius ** 2))
        return self.amplitude * (inner(u) - inner(lo))

    def eval(self, x):
        x = np.asarray(x, dtype=float).reshape(-1, 3)
        d = x - self.x0
        return self.profile(np.einsum("ij,ij->i", d, d))

    def grad(self, x):
        x = np.asarray(x, dtype=float).reshape(-1, 3)
        d = x - self.x0
        r = np.linalg.norm(d, axis=1)
        inside = (r > 0.0) & self._on_support(r)
        slope_over_r = np.zeros_like(r)
        slope_over_r[inside] = -self.amplitude * np.pi / self.half * np.sin(
            np.pi * (r[inside] - self.mid) / self.half) / r[inside]
        return d * slope_over_r[:, None]


ZERO_IC = InitialCondition(x0=np.zeros(3), mid=0.0, half=1.0, amplitude=0.0)


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


# Bytes of one slab buffer of the interior step.  A slab's two buffers
# and its reads of w then stay in a core's L2 cache: at 101^3 on a 2 MiB
# L2 this was the fastest of 64 KiB - 4 MiB, 20% under one full pass.
_SLAB_BYTES = 256 * 1024


def _laplacian_into(w, lo, hi, out, scratch):
    """Undivided 7-point Laplacian of w on x-planes lo..hi-1, written to out.

    ``out`` and ``scratch`` have shape (hi - lo, n - 2, n - 2): the y and z
    interior.  The sum runs x, y, z, each +1 before -1, and the centre term
    is subtracted last.
    """
    np.add(w[lo + 1:hi + 1, 1:-1, 1:-1], w[lo - 1:hi - 1, 1:-1, 1:-1],
           out=out)
    out += w[lo:hi, 2:, 1:-1]
    out += w[lo:hi, :-2, 1:-1]
    out += w[lo:hi, 1:-1, 2:]
    out += w[lo:hi, 1:-1, :-2]
    np.multiply(w[lo:hi, 1:-1, 1:-1], 6.0, out=scratch)
    out -= scratch
    return out


def _boundary_plan(n, cdt, dx):
    """Flat-index plan of the absorbing boundary update on an n^3 grid.

    Every boundary node is written from interior nodes of the new level and
    from the two old levels only, so the nodes are independent and one
    gather/scatter per formula updates them all.

    ``face`` is the second-order face formula's plan (planes, boundary,
    inner): ``planes`` (6, 2, n, n) holds each face's boundary and inner
    layer, its two tangential axes in increasing order, and ``boundary``
    / ``inner`` are the face interiors of those layers.  ``mur`` holds
    every edge and corner node, its inward-diagonal node and the
    first-order coefficient (cdt - d) / (cdt + d); d is sqrt(2) dx on the
    edges and sqrt(3) dx on the corners.
    """
    idx = np.arange(n ** 3).reshape(n, n, n)
    sides = ((0, 1), (-1, -2))  # (boundary index, inner index)
    planes = np.stack([np.moveaxis(idx, axis, 0)[[b, i]]
                       for axis in range(3) for b, i in sides])
    face = (planes, planes[:, 0, 1:-1, 1:-1].copy(),
            planes[:, 1, 1:-1, 1:-1].copy())
    # (boundary nodes, inward-diagonal nodes, distance d)
    mur = []
    for a in range(3):
        for b in range(a + 1, 3):
            for sa, ia in sides:
                for sb, ib in sides:
                    bidx = [slice(1, -1)] * 3
                    didx = [slice(1, -1)] * 3
                    bidx[a], bidx[b] = sa, sb
                    didx[a], didx[b] = ia, ib
                    mur.append((idx[tuple(bidx)], idx[tuple(didx)],
                                math.sqrt(2.0) * dx))
    for sa, ia in sides:
        for sb, ib in sides:
            for sc, ic in sides:
                mur.append((idx[sa, sb, sc], idx[ia, ib, ic],
                            math.sqrt(3.0) * dx))
    mur = (np.concatenate([np.ravel(b) for b, _, _ in mur]),
           np.concatenate([np.ravel(d) for _, d, _ in mur]),
           np.concatenate([np.full(np.size(b), (cdt - dist) / (cdt + dist))
                           for b, _, dist in mur]))
    return face, mur


def run_simulation(cfg: SimConfig, u0: InitialCondition, v0: InitialCondition,
                   sample_rate):
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
        reach = ic.support_radius
        if reach > 0.0 and (np.any(ic.x0 - reach < 0.0)
                            or np.any(ic.x0 + reach > cfg.L)):
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
    k1 = (cdt - dx) / (cdt + dx)
    k2 = 2.0 * dx / (cdt + dx)
    k3 = cdt * cdt / (2.0 * dx * (cdt + dx))
    (planes, fb, fi), (mur_b, mur_d, mur_c) = _boundary_plan(n, cdt, dx)
    n_samples = int(round(cfg.T * sample_rate))
    snaps = np.empty((n_samples, n, n, n))
    times = np.arange(n_samples) / sample_rate

    w_prev = u_grid.copy()
    snaps[0] = w_prev
    # Second-order accurate first step.
    lap0 = np.zeros_like(u_grid)
    _laplacian_into(u_grid, 1, n - 1, lap0[1:-1, 1:-1, 1:-1],
                    np.empty((n - 2,) * 3))
    w = u_grid + cfg.dt * v_grid + 0.5 * cou2 * lap0
    w_next = np.empty_like(w)
    # The interior step runs over slabs of x-planes, through two buffers.
    depth = max(1, _SLAB_BYTES // (8 * (n - 2) ** 2))
    slabs = [(lo, min(lo + depth, n - 1)) for lo in range(1, n - 1, depth)]
    lap_buf = np.empty((min(depth, n - 2), n - 2, n - 2))
    tmp_buf = np.empty_like(lap_buf)
    recorded = 1
    for step in range(1, cfg.n_steps + 1):
        if step % stride == 0 and recorded < n_samples:
            snaps[recorded] = w
            recorded += 1
        if recorded >= n_samples:
            break
        # Interior: w_next = 2 w - w_prev + cou2 * lap(w), in that order.
        for lo, hi in slabs:
            lap, tmp = lap_buf[:hi - lo], tmp_buf[:hi - lo]
            _laplacian_into(w, lo, hi, lap, tmp)
            lap *= cou2
            np.multiply(w[lo:hi, 1:-1, 1:-1], 2.0, out=tmp)
            tmp -= w_prev[lo:hi, 1:-1, 1:-1]
            np.add(tmp, lap, out=w_next[lo:hi, 1:-1, 1:-1])
        # Boundary: every node reads interior w_next and the old levels
        # only, so w_next's stale boundary values are never read.
        wn, wc, wm = w_next.reshape(-1), w.reshape(-1), w_prev.reshape(-1)
        f = wc[planes]
        tan = (f[..., 2:, 1:-1] + f[..., :-2, 1:-1] + f[..., 1:-1, 2:]
               + f[..., 1:-1, :-2] - 4.0 * f[..., 1:-1, 1:-1])
        wn[fb] = (-wm[fi] + k1 * (wn[fi] + wm[fb])
                  + k2 * (f[:, 0, 1:-1, 1:-1] + f[:, 1, 1:-1, 1:-1])
                  + k3 * (tan[:, 0] + tan[:, 1]))
        wn[mur_b] = wc[mur_d] + mur_c * (wn[mur_d] - wc[mur_b])
        w_prev, w, w_next = w, w_next, w_prev
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

    def traces(self):
        return self.values.reshape(self.q, self.n_times)

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
            for lineno, line in enumerate(fh, start=2):
                parts = line.strip().split(",")
                if parts == [""]:
                    continue
                if len(parts) != 6:
                    raise ValueError(f"{path}: line {lineno} has {len(parts)} "
                                     "fields, expected 6")
                try:
                    ids.append(int(parts[0]))
                    rows.append([float(v) for v in parts[1:]])
                except ValueError as exc:
                    raise ValueError(f"{path}: line {lineno} has a "
                                     f"non-numeric field: {exc}") from None
                if not all(map(math.isfinite, rows[-1])):
                    raise ValueError(f"{path}: line {lineno} has a "
                                     "non-finite field")
        if not rows:
            raise ValueError(f"{path}: no observations")
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


def sample_sensors(history: FieldHistory, positions):
    """Trilinear interpolation of the stored snapshots at sensor positions."""
    positions = np.asarray(positions, dtype=float).reshape(-1, 3)
    cfg = history.cfg
    if np.any(positions < 0.0) or np.any(positions > cfg.L):
        raise ValueError("sensor positions must lie inside the box")
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
    values = np.empty((positions.shape[0], history.times.size))
    for k in range(history.times.size):
        flat = history.snaps[k].ravel()
        values[:, k] = (flat[corners] * weights).sum(axis=1)
    return SensorDataset(positions=positions, times=history.times,
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
