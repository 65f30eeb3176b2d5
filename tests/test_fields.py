"""Grid field container and serialization tests."""

import gc
import warnings

import numpy as np
import pytest

from waveinform.fields import ScalarField3D, fmt17


def test_points_x_fastest_ordering():
    field = ScalarField3D.zeros([0.0, 10.0, 20.0], 0.5, (3, 2, 2))
    pts = field.points()
    # index ix + nx*(iy + ny*iz): x varies fastest
    assert np.allclose(pts[0], [0.0, 10.0, 20.0])
    assert np.allclose(pts[1], [0.5, 10.0, 20.0])
    assert np.allclose(pts[3], [0.0, 10.5, 20.0])
    assert np.allclose(pts[6], [0.0, 10.0, 20.5])


def test_as_array_roundtrip():
    rng = np.random.default_rng(0)
    field = ScalarField3D(origin=[0, 0, 0], dx=0.1, dims=(3, 4, 5),
                          values=rng.normal(size=60))
    arr = field.as_array()
    assert arr.shape == (3, 4, 5)
    again = ScalarField3D(origin=[0, 0, 0], dx=0.1, dims=(3, 4, 5),
                          values=arr.ravel(order="F"))
    assert np.array_equal(again.values, field.values)


def test_from_function():
    grid = ScalarField3D.zeros([0, 0, 0], 1.0, (2, 2, 2))
    pts = grid.points()
    field = grid.like(pts[:, 0] + 2 * pts[:, 2])
    assert field.values[1] == pytest.approx(1.0)
    assert field.values[4] == pytest.approx(2.0)


def test_norms_riemann():
    field = ScalarField3D(origin=[0, 0, 0], dx=0.5, dims=(2, 2, 2),
                          values=np.full(8, 3.0))
    assert field.norm(np.inf) == 3.0
    assert field.norm(1) == pytest.approx(3.0 * 8 * 0.125)
    assert field.norm(2) == pytest.approx(np.sqrt(9.0 * 8 * 0.125))


def test_binary_json_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    field = ScalarField3D(origin=[0.1, 0.2, 0.3], dx=0.05, dims=(4, 3, 2),
                          values=rng.normal(size=24))
    prefix = tmp_path / "field"
    field.save(prefix)
    back = ScalarField3D.load(prefix)
    assert np.array_equal(back.values, field.values)
    assert back.dims == field.dims
    assert np.array_equal(back.origin, field.origin)
    assert back.dx == field.dx
    raw = (tmp_path / "field.bin").read_bytes()
    assert len(raw) == 24 * 8  # little-endian float64 payload


def test_load_closes_its_files(tmp_path):
    prefix = tmp_path / "field"
    ScalarField3D.zeros([0, 0, 0], 0.5, (2, 2, 2)).save(prefix)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ScalarField3D.load(prefix)
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_fmt17_roundtrip():
    vals = [1.0 / 3.0, 1e-17, -2.5, 123456.789]
    for v in vals:
        assert float(fmt17(v)) == v


def test_dims_validation():
    with pytest.raises(ValueError):
        ScalarField3D.zeros([0, 0, 0], 0.1, (1, 4, 4))
    with pytest.raises(ValueError):
        ScalarField3D(origin=[0, 0, 0], dx=0.1, dims=(2, 2, 2),
                      values=np.zeros(7))
