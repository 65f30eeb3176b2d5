"""Closed-form kernel unit tests."""

import math
from dataclasses import replace

import numpy as np
import pytest

from dense_reference import (SingularEvaluationError, four_term_kernel,
                             four_term_radial, stationary_ftft_density,
                             stationary_gaussian_wave)
from waveinform.experiments import case_theta
from waveinform.kernels import (CUTOFF_ALPHA, RADIUS_CLAMP, TIME_TOL,
                                HyperParams, SourceParams, WaveKernel,
                                _features,
                                ku_wave_diag, ku_wave_radial, kv_wave_diag,
                                kv_wave_radial, matern52, matern52_d1,
                                matern52_d2, smooth_cutoff, wave_kernel,
                                wave_kernel_diag)


def random_source(rng, radius=None):
    return SourceParams(x0=rng.uniform(0.2, 0.8, 3),
                        radius=radius if radius is not None else rng.uniform(0.1, 0.4),
                        rho=rng.uniform(0.05, 0.5),
                        sigma2=rng.uniform(0.5, 4.0))


def test_matern52_at_zero_is_variance():
    assert matern52(0.0, 0.7, 2.5) == pytest.approx(2.5)


def test_matern52_at_one_length_scale():
    # direct substitution: (1 + 1 + 1/3) e^-1
    expected = (1.0 + 1.0 + 1.0 / 3.0) * math.exp(-1.0)
    assert matern52(0.7, 0.7, 1.0) == pytest.approx(expected)
    assert expected == pytest.approx(0.858, abs=5e-4)


def test_matern52_even():
    rng = np.random.default_rng(0)
    h = rng.normal(size=50)
    assert np.allclose(matern52(h, 0.3, 2.0), matern52(-h, 0.3, 2.0))


def test_matern52_derivatives_match_finite_differences():
    rng = np.random.default_rng(1)
    h = rng.uniform(-2.0, 2.0, 40)
    eps = 1e-6
    fd1 = (matern52(h + eps, 0.4, 1.7) - matern52(h - eps, 0.4, 1.7)) / (2 * eps)
    assert np.allclose(matern52_d1(h, 0.4, 1.7), fd1, atol=1e-7)
    fd2 = (matern52_d1(h + eps, 0.4, 1.7) - matern52_d1(h - eps, 0.4, 1.7)) / (2 * eps)
    assert np.allclose(matern52_d2(h, 0.4, 1.7), fd2, atol=1e-6)


def test_smooth_cutoff_plateau_and_support():
    assert smooth_cutoff(0.0) == 1.0
    assert smooth_cutoff(0.5) == 1.0
    assert smooth_cutoff(1.5) == 0.0
    assert smooth_cutoff(1.0) == 0.0


def test_smooth_cutoff_midpoint_symmetry():
    assert smooth_cutoff((1.0 + CUTOFF_ALPHA) / 2.0) == pytest.approx(0.5)


def test_smooth_cutoff_monotone_nonincreasing():
    s = np.linspace(0.0, 1.2, 400)
    vals = smooth_cutoff(s)
    assert np.all(np.diff(vals) <= 1e-12)


def test_kv_zero_at_time_zero():
    rng = np.random.default_rng(2)
    src = random_source(rng)
    x = rng.uniform(0, 1, (4, 3))
    assert np.all(kv_wave_radial(x, np.zeros(4), x, np.full(4, 0.5), 0.5, src) == 0.0)


def test_kv_huygens_exact_zero_outside_shell():
    rng = np.random.default_rng(3)
    src = random_source(rng, radius=0.2)
    c = 0.5
    # (r - c|t|)^2 > R^2 both inside the hole and outside the front
    for r, t in ((0.9, 0.4), (0.05, 1.2)):
        assert abs(r - c * t) > src.radius
        x = src.x0 + np.array([r, 0, 0])
        assert kv_wave_diag([x], [t], c, src)[0] == 0.0


def test_ku_huygens_exact_zero_outside_shell():
    rng = np.random.default_rng(4)
    src = random_source(rng, radius=0.2)
    c = 0.5
    for r, t in ((0.95, 0.5), (0.04, 1.3)):
        assert abs(r - c * t) > src.radius
        x = src.x0 + np.array([0, r, 0])
        assert ku_wave_diag([x], [t], c, src)[0] == 0.0


def test_ku_reduces_to_truncated_base_at_time_zero():
    rng = np.random.default_rng(5)
    src = random_source(rng, radius=0.35)
    x1 = src.x0 + rng.normal(size=(5, 3)) * 0.1
    x2 = src.x0 + rng.normal(size=(6, 3)) * 0.1
    got = ku_wave_radial(x1, np.zeros(5), x2, np.zeros(6), 0.7, src)
    r1 = np.linalg.norm(x1 - src.x0, axis=1)
    r2 = np.linalg.norm(x2 - src.x0, axis=1)
    base = matern52(r1[:, None] - r2[None, :], src.rho, src.sigma2)
    base *= np.outer(smooth_cutoff(r1 / src.radius),
                     smooth_cutoff(r2 / src.radius))
    assert np.allclose(got, base, rtol=1e-10)


def test_wave_kernel_symmetry_random_pairs():
    rng = np.random.default_rng(6)
    params = HyperParams(c=0.6, u=random_source(rng), v=random_source(rng))
    x = rng.uniform(0, 1, (8, 3))
    t = rng.uniform(-1.0, 1.0, 8)
    k = wave_kernel(x, t, x, t, params)
    assert np.allclose(k, k.T, rtol=0, atol=1e-13)


def test_wave_kernel_time_reversal():
    rng = np.random.default_rng(7)
    params = HyperParams(c=0.4, u=random_source(rng), v=random_source(rng))
    x1 = rng.uniform(0, 1, (5, 3))
    x2 = rng.uniform(0, 1, (5, 3))
    t1 = rng.uniform(0.05, 1.0, 5)
    t2 = rng.uniform(0.05, 1.0, 5)
    fwd = wave_kernel(x1, t1, x2, t2, params)
    rev = wave_kernel(x1, -t1, x2, -t2, params)
    assert np.allclose(fwd, rev, rtol=1e-12)


def test_wave_kernel_zero_outside_both_cones():
    rng = np.random.default_rng(8)
    params = HyperParams(
        c=0.5,
        u=SourceParams(x0=[0.6, 0.3, 0.5], radius=0.15, rho=0.2, sigma2=1.0),
        v=SourceParams(x0=[0.3, 0.6, 0.7], radius=0.1, rho=0.05, sigma2=2.0))
    x = np.array([[0.01, 0.01, 0.01]])
    t = np.array([0.05])
    assert wave_kernel_diag(x, t, params)[0] == 0.0
    assert wave_kernel(x, t, x + 0.01, t + 0.01, params)[0, 0] == 0.0


def test_wave_kernel_cauchy_schwarz():
    rng = np.random.default_rng(9)
    params = HyperParams(c=0.5, u=random_source(rng), v=random_source(rng))
    x = rng.uniform(0, 1, (30, 3))
    t = rng.uniform(0, 1.4, 30)
    k = wave_kernel(x, t, x, t, params)
    d = np.diag(k)
    bound = np.sqrt(np.outer(d, d)) + 1e-12
    assert np.all(np.abs(k) <= bound)


def test_wave_kernel_psd_random_design():
    rng = np.random.default_rng(10)
    params = HyperParams(c=0.5, u=random_source(rng), v=random_source(rng))
    x = rng.uniform(0, 1, (50, 3))
    t = rng.uniform(0, 1.4, 50)
    k = wave_kernel(x, t, x, t, params)
    k = 0.5 * (k + k.T)
    eig_min = np.linalg.eigvalsh(k).min()
    assert eig_min >= -1e-8 * k.diagonal().max()


def test_wave_kernel_component_sum():
    rng = np.random.default_rng(11)
    u, v = random_source(rng), random_source(rng)
    params = HyperParams(c=0.5, u=u, v=v)
    x1 = rng.uniform(0, 1, (4, 3))
    x2 = rng.uniform(0, 1, (3, 3))
    t1 = rng.uniform(0, 1, 4)
    t2 = rng.uniform(0, 1, 3)
    total = wave_kernel(x1, t1, x2, t2, params)
    split = (ku_wave_radial(x1, t1, x2, t2, 0.5, u)
             + kv_wave_radial(x1, t1, x2, t2, 0.5, v))
    assert np.allclose(total, split)


def test_wave_kernel_eval_counter():
    rng = np.random.default_rng(12)
    kern = WaveKernel(HyperParams(c=0.5, u=random_source(rng)))
    kern.pairwise(rng.uniform(0, 1, (3, 3)), rng.uniform(0, 1, 3),
                  rng.uniform(0, 1, (5, 3)), rng.uniform(0, 1, 5))
    kern.diag(rng.uniform(0, 1, (7, 3)), rng.uniform(0, 1, 7))
    assert kern.eval_count == 15 + 7


def test_stationary_density_reference_value():
    # c=1, t=t'=1, |h|=1 inside the band [0, 2]
    assert stationary_ftft_density(1.0, 1.0, 1.0, 1.0) == pytest.approx(
        1.0 / (8.0 * math.pi))
    assert 1.0 / (8.0 * math.pi) == pytest.approx(0.0397887, abs=1e-6)


def test_stationary_density_outside_band():
    assert stationary_ftft_density(3.0, 1.0, 1.0, 1.0) == 0.0
    assert stationary_ftft_density(0.05, 0.5, 1.0, 1.0) == 0.0  # below band


def test_stationary_density_time_zero():
    assert stationary_ftft_density(0.7, 0.0, 1.0, 1.0) == 0.0
    assert stationary_ftft_density(0.0, 0.0, 0.0, 1.0) == 0.0


def test_stationary_density_singular_origin():
    with pytest.raises(SingularEvaluationError):
        stationary_ftft_density(0.0, 1.0, 1.0, 1.0)


def test_stationary_density_mass():
    # integral over R^3 equals t*t'
    t, tp, c = 0.8, 0.5, 0.7
    lo, hi = c * abs(t - tp), c * (t + tp)
    rr = np.linspace(lo + 1e-9, hi, 20001)
    f = np.array([stationary_ftft_density(r, t, tp, c) for r in rr])
    mass = np.trapezoid(4 * np.pi * rr**2 * f, rr)
    assert mass == pytest.approx(t * tp, rel=1e-6)


def test_stationary_gaussian_time_zero_and_finite_origin():
    assert stationary_gaussian_wave([0.3, 0, 0], 0.0, 0.5, 1.0, 1.0,
                                    0.4) == 0.0
    near = stationary_gaussian_wave([1e-12, 0, 0], 0.7, 0.5, 1.0, 1.0, 0.4)
    assert np.isfinite(near)
    # continuous at the origin: small-h value close to the limit
    small = stationary_gaussian_wave([1e-6, 0, 0], 0.7, 0.5, 1.0, 1.0, 0.4)
    assert near == pytest.approx(small, rel=1e-4)


def test_hyperparams_vector_roundtrip():
    params = HyperParams(
        c=0.45,
        u=SourceParams(x0=[0.1, 0.2, 0.3], radius=0.3, rho=0.2, sigma2=3.0),
        v=SourceParams(x0=[0.6, 0.5, 0.4], radius=0.15, rho=0.03, sigma2=2.0),
        lam=1e-3)
    vec = params.to_vector()
    back = HyperParams.from_vector(vec, ("u", "v"))
    assert np.allclose(back.to_vector(), vec)
    names = HyperParams.vector_names(("u", "v"))
    assert len(names) == vec.size
    assert names[-2:] == ["c", "lam"]


def test_hyperparams_validation():
    with pytest.raises(ValueError):
        HyperParams(c=-1.0)
    with pytest.raises(ValueError):
        SourceParams(x0=[0, 0, 0], radius=0.0, rho=0.1, sigma2=1.0)
    with pytest.raises(ValueError):
        HyperParams(c=1.0, lam=-0.1)


def _sign(t):
    return 0.0 if abs(t) < TIME_TOL else math.copysign(1.0, t)


def _reference_ku(x1, t1, x2, t2, c, src):
    """Four-term ku closed form, one entry: sum of b b' phi phi' m52 / (4 r r')."""
    r1 = max(float(np.linalg.norm(x1 - src.x0)), RADIUS_CLAMP)
    r2 = max(float(np.linalg.norm(x2 - src.x0)), RADIUS_CLAMP)
    total = 0.0
    for b1 in (r1 - c * abs(t1), r1 + c * abs(t1)):
        for b2 in (r2 - c * abs(t2), r2 + c * abs(t2)):
            total += (b1 * smooth_cutoff(abs(b1) / src.radius)
                      * b2 * smooth_cutoff(abs(b2) / src.radius)
                      * matern52(abs(b1) - abs(b2), src.rho, src.sigma2))
    return total / (4.0 * r1 * r2)


def _reference_kv(x1, t1, x2, t2, c, src):
    """Four-term kv closed form, one entry, grouped for exact cone zeros."""
    r1 = max(float(np.linalg.norm(x1 - src.x0)), RADIUS_CLAMP)
    r2 = max(float(np.linalg.norm(x2 - src.x0)), RADIUS_CLAMP)
    cap = src.radius**2
    am1, ap1 = (min((r1 + e * c * abs(t1)) ** 2, cap) for e in (-1, 1))
    am2, ap2 = (min((r2 + e * c * abs(t2)) ** 2, cap) for e in (-1, 1))

    def m(a, b):
        return matern52(a - b, src.rho, src.sigma2)

    acc = (m(ap1, ap2) - m(am1, ap2)) - (m(ap1, am2) - m(am1, am2))
    return _sign(t1) * _sign(t2) * acc / (16.0 * c * c * r1 * r2)


def _edge_case_points(params, rng):
    """Random points plus, per source: t = 0, r < RADIUS_CLAMP, inside the
    hole r < c|t| - R, beyond the front r > c|t| + R, and near both edges."""
    xs = [rng.uniform(0.0, 1.0, (12, 3))]
    ts = [rng.uniform(-1.5, 1.5, 12)]
    for name in params.components:
        src = getattr(params, name)
        c, big_r = params.c, src.radius
        unit = rng.normal(size=(9, 3))
        unit /= np.linalg.norm(unit, axis=1)[:, None]
        t_hole = (big_r + 0.05) / c + 0.4
        radii = [0.3, 0.5 * RADIUS_CLAMP, 0.5 * RADIUS_CLAMP, 0.05, 0.45,
                 c * 0.8 + 0.99 * big_r, c * 0.8 - 0.99 * big_r,
                 c * 0.8 + big_r, 0.2]
        times = [0.0, 0.0, 0.3, t_hole, 0.1, 0.8, 0.8, 0.8, -0.6]
        xs.append(src.x0 + np.array(radii)[:, None] * unit)
        ts.append(np.array(times))
    return np.vstack(xs), np.concatenate(ts)


@pytest.mark.parametrize("case", [1, 2, 3])
def test_wave_kernel_matches_four_term_reference(case):
    params = case_theta(case)
    x, t = _edge_case_points(params, np.random.default_rng(20 + case))
    got = wave_kernel(x, t, x, t, params)
    ref = np.zeros_like(got)
    for i in range(t.size):
        for j in range(t.size):
            if params.u is not None:
                ref[i, j] += _reference_ku(x[i], t[i], x[j], t[j], params.c,
                                           params.u)
            if params.v is not None:
                ref[i, j] += _reference_kv(x[i], t[i], x[j], t[j], params.c,
                                           params.v)
    scale = np.abs(ref).max()
    assert np.array_equal(got == 0.0, ref == 0.0)
    # Within RADIUS_CLAMP of a center and at t != 0 the four terms cancel
    # down to about 1e-6 of each term, so any two summation orders differ
    # there by about 1e-9 of max|k| (both are that far from a 50-digit
    # evaluation).  Those rows and columns get a rounding-level bound of
    # their own; everything else must agree to 1e-12.
    near = np.zeros(t.size, dtype=bool)
    for name in params.components:
        r = np.linalg.norm(x - getattr(params, name).x0, axis=1)
        near |= (r < RADIUS_CLAMP) & (t != 0.0)
    assert near.any() and (~near).sum() >= 20
    far = np.ix_(~near, ~near)
    assert np.abs(got[far] - ref[far]).max() <= 1e-12 * scale
    assert np.abs(got - ref).max() <= 1e-8 * scale


@pytest.mark.parametrize("case", [1, 2, 3])
def test_wave_kernel_diag_matches_pairwise_diagonal(case):
    params = case_theta(case)
    x, t = _edge_case_points(params, np.random.default_rng(30 + case))
    diag = wave_kernel_diag(x, t, params)
    full = np.diag(wave_kernel(x, t, x, t, params))
    assert np.all(np.abs(diag - full) <= 1e-14 * np.abs(full))
    assert np.array_equal(diag == 0.0, full == 0.0)
    # the edge cases really cover zero and nonzero entries
    assert np.any(diag == 0.0) and np.any(diag > 0.0)


def _around(src, radii, times, rng):
    unit = rng.normal(size=(len(radii), 3))
    unit /= np.linalg.norm(unit, axis=1)[:, None]
    return (src.x0 + np.asarray(radii)[:, None] * unit,
            np.asarray(times, dtype=float))


def _live_term_batches(params, rng):
    """Point batches for the live-term assembly, built around case 3's
    sources: edge cases, rows whose outgoing u weight is dead throughout,
    rows at t = 0 (every v weight dead), rows mostly at t = 0 and random
    points."""
    c, edges = params.c, []
    for src in (params.u, params.v):
        big_r = src.radius
        ct = np.array([0.0, 0.0, 0.0, 0.1, 1.0, 0.6, 0.4, 2.0, 0.3]) * big_r
        r = np.array([0.5, 0.9, 1.2, 0.75, 0.1, 0.7, 1.9, 0.5,
                      0.5 * RADIUS_CLAMP / big_r]) * big_r
        # t = 0 inside, on the ramp and outside; r + ct on the ramp
        # [0.8R, R); r - ct = -0.9R on the ramp; r + ct >= R with r - ct
        # live; ahead of the front; behind the back; at the center.
        edges.append(_around(src, r, np.where(np.arange(9) % 2, 1, -1)
                             * ct / c, rng))
    src = params.u
    ct = rng.uniform(0.5, 1.5, 20) * src.radius
    r = np.maximum(ct + rng.uniform(-0.9, 0.9, 20) * src.radius,
                   src.radius - ct + 1e-3)
    outgoing_dead = _around(src, r, ct / c, rng)
    at_zero = _around(params.v, rng.uniform(0.0, 1.5, 20) * params.v.radius,
                      np.zeros(20), rng)
    # Mostly at t = 0, so the few live v weights are gathered by index.
    mostly_zero = (at_zero[0], np.where(np.arange(20) < 4, 0.1, 0.0))
    random = rng.uniform(0.0, 1.0, (40, 3)), rng.uniform(-1.5, 1.5, 40)
    batches = [(np.vstack([edges[0][0], edges[1][0]]),
                np.concatenate([edges[0][1], edges[1][1]])),
               outgoing_dead, at_zero, mostly_zero, random]
    w_out, _ = _features("u", np.linalg.norm(outgoing_dead[0] - src.x0,
                                             axis=1),
                         outgoing_dead[1], c, src)
    assert np.all(w_out[0] != 0.0) and np.all(w_out[1] == 0.0)
    w_zero, _ = _features("v", np.linalg.norm(at_zero[0] - params.v.x0,
                                              axis=1),
                          at_zero[1], c, params.v)
    assert np.all(w_zero == 0.0)
    return batches


def _variants():
    both = case_theta(3)
    unbounded = HyperParams(c=both.c, u=replace(both.u, radius=np.inf),
                            v=replace(both.v, radius=np.inf), lam=both.lam)
    return {"u": replace(both, v=None), "v": replace(both, u=None),
            "u+v": both, "R=inf": unbounded}


@pytest.mark.parametrize("variant", ["u", "v", "u+v", "R=inf"])
def test_live_term_assembly_is_bitwise_the_four_term_sum(variant):
    params = _variants()[variant]
    batches = _live_term_batches(case_theta(3), np.random.default_rng(40))
    kern = WaveKernel(params)
    zeros = nonzeros = 0
    for x1, t1 in batches:
        assert (kern.diag(x1, t1).tobytes()
                == four_term_kernel(params, x1, t1).tobytes())
        for x2, t2 in batches:
            assert (kern.pairwise(x1, t1, x2, t2).tobytes()
                    == four_term_kernel(params, x1, t1, x2, t2).tobytes())
            for comp in params.components:
                src = getattr(params, comp)
                r1 = np.linalg.norm(x1 - src.x0, axis=1)
                r2 = np.linalg.norm(x2 - src.x0, axis=1)
                # One component alone may hold an exact 0 of either sign
                # where the four-term sum has the other; every caller adds
                # it into +0 (``wave_kernel``, ``posterior_mean``), so the
                # comparison is made after adding +0.
                for got, ref in [
                        (kern.radial(comp, r1, t1, r2, t2),
                         four_term_radial(comp, src, params.c, r1, t1, r2,
                                          t2)),
                        (kern.radial(comp, r1, t1),
                         four_term_radial(comp, src, params.c, r1, t1))]:
                    assert (got + 0.0).tobytes() == (ref + 0.0).tobytes()
                    zeros += np.sum(got == 0.0)
                    nonzeros += np.sum(got != 0.0)
    assert zeros > 0 and nonzeros > 0
