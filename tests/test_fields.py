"""Grid field container and serialization tests."""

import gc
import json
import re
import warnings

import numpy as np
import pytest

from waveinform.fields import ScalarField3D, fmt17, lp_norm
from waveinform.oracle import lp_relative_error


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


@pytest.mark.parametrize("p", [0, -1, 0.5, True, np.nan, -np.inf, "2", None])
def test_norm_refuses_an_order_that_is_not_a_norm(p):
    # p = 0 divided by zero, p = -1 read 0.0, p = 0.5 gave no norm and
    # True counted as p = 1
    field = ScalarField3D(origin=[0, 0, 0], dx=0.5, dims=(2, 2, 2),
                          values=np.arange(8.0))
    with pytest.raises(ValueError, match=f"real p >= 1 or inf, got {p!r}"):
        field.norm(p)
    with pytest.raises(ValueError, match=f"got {p!r}"):
        lp_relative_error(field, field, p)


def test_norm_accepts_every_real_order_from_one():
    values = np.array([3.0, -4.0])
    assert lp_norm(values, 1.0, 1) == 7.0
    assert lp_norm(values, 1.0, np.float64(2.0)) == 5.0
    assert lp_norm(values, 1.0, 1.5) == pytest.approx(
        (3.0**1.5 + 4.0**1.5) ** (1 / 1.5), rel=1e-15)
    assert lp_norm(values, 1.0, float("inf")) == 4.0


def test_norm_of_no_values_is_zero():
    # the nonzero part of a zero field is empty; RuntimeWarnings are errors
    for p in (1, 2, np.inf):
        assert lp_norm(np.zeros(0), 0.1, p) == 0.0


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


@pytest.mark.parametrize("dims", [(2.9, 3, 3), (3.0, 2, 3), (True, 3, 6),
                                  ("3", 2, 3), (3, 6), (3, 3, 2, 1)])
def test_dims_must_be_three_integers(dims):
    with pytest.raises(ValueError, match="dims must be three integers >= 2"):
        ScalarField3D(origin=[0, 0, 0], dx=0.1, dims=dims, values=np.zeros(18))


def test_numpy_integer_dims_are_stored_as_ints():
    field = ScalarField3D(origin=[0, 0, 0], dx=0.1, dims=np.array([2, 3, 3]),
                          values=np.zeros(18))
    assert field.dims == (2, 3, 3)
    assert all(type(d) is int for d in field.dims)


@pytest.mark.parametrize("dx", [True, "x", None])
def test_dx_must_be_a_real_number(dx):
    with pytest.raises(ValueError, match="dx must be finite and positive"):
        ScalarField3D.zeros([0, 0, 0], dx, (2, 2, 2))


@pytest.mark.parametrize("nbytes, match", [
    (100, "the .bin holds 100 bytes, not a whole number of float64 values"),
    (56, "values length must equal the product of dims"),
], ids=["partial-float", "wrong-count"])
def test_load_names_the_prefix_of_a_bin_of_the_wrong_length(tmp_path, nbytes,
                                                            match):
    prefix = tmp_path / "field"
    ScalarField3D.zeros([0.0, 0.0, 0.0], 0.5, (3, 3, 3)).save(prefix)
    raw = (tmp_path / "field.bin").read_bytes()
    (tmp_path / "field.bin").write_bytes(raw[:nbytes])
    with pytest.raises(ValueError,
                       match=f"^{re.escape(str(prefix))}: {match}"):
        ScalarField3D.load(prefix)


def test_load_names_the_prefix_of_a_header_without_dims(tmp_path):
    prefix = tmp_path / "field"
    ScalarField3D.zeros([0.0, 0.0, 0.0], 0.5, (2, 2, 2)).save(prefix)
    header = json.loads((tmp_path / "field.json").read_text())
    del header["dims"]
    (tmp_path / "field.json").write_text(json.dumps(header))
    with pytest.raises(ValueError, match=re.escape(f"{prefix}.json has no "
                                                   "'dims' entry")):
        ScalarField3D.load(prefix)


@pytest.mark.parametrize("key, value, match", [
    ("dx", "0", "dx"), ("dx", "-0.1", "dx"), ("dx", "nan", "dx"),
    ("dx", "inf", "dx"), ("origin", ["0", "inf", "0"], "origin"),
], ids=["dx-0", "dx-negative", "dx-nan", "dx-inf", "origin-inf"])
def test_load_refuses_a_bad_spacing_or_origin(tmp_path, key, value, match):
    prefix = tmp_path / "field"
    ScalarField3D.zeros([0.0, 0.0, 0.0], 0.5, (2, 2, 2)).save(prefix)
    header = json.loads((tmp_path / "field.json").read_text())
    header[key] = value
    (tmp_path / "field.json").write_text(json.dumps(header))
    with pytest.raises(ValueError, match=match):
        ScalarField3D.load(prefix)
