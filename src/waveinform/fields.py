"""Regular-grid scalar fields on a box, with binary+JSON serialization.

The flat value ordering is x-fastest: entry ix + nx*(iy + ny*iz) holds the
value at (origin + dx*[ix, iy, iz]).  Lp norms are Riemann sums with cell
volume dx^3.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass

import numpy as np


def atomic_write_bytes(path, data: bytes):
    """Write a file atomically (write-temp-rename)."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text: str):
    atomic_write_bytes(path, text.encode("utf-8"))


def fmt17(x):
    """Serialize a float with 17 significant digits (round-trip exact)."""
    return format(float(x), ".17g")


@dataclass
class ScalarField3D:
    """A regular-grid sampling of a scalar function on a box."""

    origin: np.ndarray
    dx: float
    dims: tuple
    values: np.ndarray

    def __post_init__(self):
        self.origin = np.asarray(self.origin, dtype=float).reshape(3)
        if not np.isfinite(self.origin).all():
            raise ValueError(f"origin must be finite, got {self.origin}")
        if not (np.isfinite(self.dx) and self.dx > 0.0):
            raise ValueError(f"dx must be finite and positive, got {self.dx}")
        self.dims = tuple(int(d) for d in self.dims)
        if any(d < 2 for d in self.dims):
            raise ValueError(f"dims must all be >= 2, got {self.dims}")
        self.values = np.asarray(self.values, dtype=float).reshape(-1)
        if self.values.size != int(np.prod(self.dims)):
            raise ValueError("values length must equal the product of dims")

    @classmethod
    def zeros(cls, origin, dx, dims):
        return cls(origin=origin, dx=dx, dims=dims,
                   values=np.zeros(int(np.prod(dims))))

    def like(self, values):
        return ScalarField3D(origin=self.origin, dx=self.dx, dims=self.dims,
                             values=values)

    def same_grid(self, other):
        return (self.dims == other.dims
                and np.allclose(self.origin, other.origin, atol=1e-12)
                and abs(self.dx - other.dx) < 1e-12)

    def axes(self):
        return tuple(self.origin[i] + self.dx * np.arange(self.dims[i])
                     for i in range(3))

    def points(self):
        """All grid points, x-fastest, shape (prod(dims), 3)."""
        xs, ys, zs = self.axes()
        gx, gy, gz = np.meshgrid(xs, ys, zs, indexing="ij")
        return np.column_stack([gx.ravel(order="F"), gy.ravel(order="F"),
                                gz.ravel(order="F")])

    def as_array(self):
        return self.values.reshape(self.dims, order="F")

    def norm(self, p):
        """Riemann-sum Lp norm (max norm for p = inf)."""
        if p == np.inf:
            return float(np.abs(self.values).max())
        p = float(p)
        return float((np.abs(self.values) ** p).sum() * self.dx**3) ** (1.0 / p)

    def save(self, prefix):
        """Write <prefix>.bin (little-endian float64) and <prefix>.json."""
        atomic_write_bytes(str(prefix) + ".bin",
                           self.values.astype("<f8").tobytes())
        header = {
            "origin": [fmt17(v) for v in self.origin],
            "dx": fmt17(self.dx),
            "dims": list(self.dims),
        }
        atomic_write_text(str(prefix) + ".json",
                          json.dumps(header, sort_keys=True, indent=1) + "\n")

    @classmethod
    def load(cls, prefix):
        with open(str(prefix) + ".json", "r", encoding="utf-8") as fh:
            header = json.load(fh)
        with open(str(prefix) + ".bin", "rb") as fh:
            values = np.frombuffer(fh.read(), dtype="<f8")
        return cls(origin=[float(v) for v in header["origin"]],
                   dx=float(header["dx"]), dims=header["dims"], values=values)
