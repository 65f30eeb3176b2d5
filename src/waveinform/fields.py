"""Regular-grid scalar fields on a box, with binary+JSON serialization.

The flat value ordering is x-fastest: entry ix + nx*(iy + ny*iz) holds the
value at (origin + dx*[ix, iy, iz]).  Lp norms are Riemann sums with cell
volume dx^3 (``lp_norm``).
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import dataclass

import numpy as np


def _is_number(value):
    """A Python or numpy real number; a bool is not one."""
    return (isinstance(value, (int, float, np.integer, np.floating))
            and not isinstance(value, bool))


def _is_integer(value):
    """A Python or numpy integer; a bool is not one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def lp_order(p):
    """Refuse an Lp order p that is not a real number >= 1 or inf."""
    if not (_is_number(p) and p >= 1):
        raise ValueError(f"an Lp norm needs a real p >= 1 or inf, got {p!r}")


def lp_norm(values, dx, p):
    """Riemann-sum Lp norm of grid values with cell volume dx^3.

    The max norm for p = inf.  ``values`` may be the nonzero part of a
    field, the other nodes being exact zeros; no values read as 0.  p must
    pass :func:`lp_order`.
    """
    lp_order(p)
    if p == np.inf:
        return float(np.abs(values).max(initial=0.0))
    p = float(p)
    return float((np.abs(values) ** p).sum() * dx**3) ** (1.0 / p)


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
    """Write UTF-8 text atomically; returns the bytes written."""
    data = text.encode("utf-8")
    atomic_write_bytes(path, data)
    return data


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
        if not (_is_number(self.dx) and 0.0 < self.dx < math.inf):
            raise ValueError(f"dx must be finite and positive, got "
                             f"{self.dx!r}")
        dims = tuple(self.dims)
        if not (len(dims) == 3 and all(
                _is_number(d) and isinstance(d, (int, np.integer)) and d >= 2
                for d in dims)):
            raise ValueError(f"dims must be three integers >= 2, got {dims}")
        self.dims = tuple(int(d) for d in dims)
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
        """Riemann-sum Lp norm (max norm for p = inf), see ``lp_norm``."""
        return lp_norm(self.values, self.dx, p)

    def header_text(self):
        """The <prefix>.json text that ``save`` writes: origin, dx, dims."""
        header = {
            "origin": [fmt17(v) for v in self.origin],
            "dx": fmt17(self.dx),
            "dims": list(self.dims),
        }
        return json.dumps(header, sort_keys=True, indent=1) + "\n"

    def save(self, prefix):
        """Write <prefix>.bin (little-endian float64) and <prefix>.json.

        Returns the bytes written to the two files, in that order.
        """
        data = self.values.astype("<f8", copy=False).tobytes()
        atomic_write_bytes(str(prefix) + ".bin", data)
        return data, atomic_write_text(str(prefix) + ".json",
                                       self.header_text())

    @classmethod
    def load(cls, prefix):
        """Read what ``save`` wrote; every refusal names the prefix."""
        try:
            with open(str(prefix) + ".json", "r", encoding="utf-8") as fh:
                header = json.load(fh)
            with open(str(prefix) + ".bin", "rb") as fh:
                data = fh.read()
            if len(data) % 8:
                raise ValueError(f"the .bin holds {len(data)} bytes, not a "
                                 "whole number of float64 values")
            return cls(origin=[float(v) for v in header["origin"]],
                       dx=float(header["dx"]), dims=header["dims"],
                       values=np.frombuffer(data, dtype="<f8"))
        except KeyError as exc:
            raise ValueError(f"{prefix}.json has no {exc} entry") from None
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{prefix}: {exc}") from None
