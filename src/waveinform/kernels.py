"""Closed-form space-time covariance kernels for wave-propagated GP priors.

A centered GP prior on the initial position (u component) and/or initial
speed (v component) of the 3D free-space wave equation induces a GP on the
full space-time solution.  When the base kernels are radial around a source
center and compactly supported, the induced space-time kernels have fast
closed forms: four-term sums over the in/outgoing characteristic radii
b_eps = r + eps*c*|t| (eps = -1, +1; r = |x - x0|) of a 1D Matern-5/2.
Both components share one form.  Each point z gets radial features
(w_eps(z), s_eps(z)), and

    k(z, z') = sum_e' w_e'(z') * sum_e w_e(z) * m52(s_e(z) - s_e'(z'))

- position (u): s_eps = |b_eps|, w_eps = b_eps phi(|b_eps|/R) / (2r);
- speed (v): s_eps = min(b_eps^2, R^2), w_eps = eps sgn(t) / (4cr).

This module implements the feature map and its assembly, the Matern-5/2
base profile, the smooth compact-support cutoff, and the two
stationary-prior closed forms (singular shell density and the
Gaussian-base formula).

Base-kernel conventions.  The position prior puts a plain radial Matern on
u0: correlation m52(r - r'), so ``rho_u`` is a length in meters.  The speed
prior models the integrated-profile surface as a Matern of the squared
radii: K_v(a, b) = m52(a - b) with a, b squared radii, so ``rho_v`` carries
units m^2.  (A radius-difference K_v would give the initial-speed prior a
1/r^2 variance divergence at the source center, which destabilizes the
time-derivative reconstruction there; the squared-radius form is regular.)

Everything here is a pure function of immutable parameters and is safe for
unrestricted concurrent evaluation.  Point batches are passed as arrays:
positions with shape (n, 3) and times with shape (n,).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import math

import numpy as np
from scipy.special import ndtr

from .exceptions import SingularEvaluationError

# |t| below this is treated as t = 0 (sgn = 0, degenerate sphere).
TIME_TOL = 1e-12
# Small-r clamp for the 1/r quotients; the quotients are even in r so the
# clamp error is O(RADIUS_CLAMP**2).
RADIUS_CLAMP = 1e-4
# Signs eps of the incoming (row 0) and outgoing (row 1) characteristic radii.
_EPS = np.array([[-1.0], [1.0]])


def matern52(h, rho, sigma2):
    """Stationary Matern-5/2 kernel value at increment h.

    k(h) = sigma2 * (1 + a + a^2/3) * exp(-a) with a = |h|/rho.  Even in h.
    """
    a = np.abs(h) / rho
    return sigma2 * (1.0 + a * (1.0 + a / 3.0)) * np.exp(-a)


def matern52_d1(h, rho, sigma2):
    """First derivative of :func:`matern52` with respect to h (odd in h)."""
    a = np.abs(h) / rho
    return -sigma2 * h * (1.0 + a) * np.exp(-a) / (3.0 * rho**2)


def matern52_d2(h, rho, sigma2):
    """Second derivative of :func:`matern52` with respect to h (even in h)."""
    a = np.abs(h) / rho
    return -sigma2 * (1.0 + a - a * a) * np.exp(-a) / (3.0 * rho**2)


def smooth_cutoff(s, alpha=0.8):
    """C-infinity decreasing cutoff: 1 on [0, alpha), 0 on [1, inf).

    On [alpha, 1) uses the standard smooth partition
    psi(1-u) / (psi(u) + psi(1-u)) with psi(u) = exp(-1/u) and
    u = (s - alpha)/(1 - alpha).
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    s_arr = np.asarray(s, dtype=float)
    u = (s_arr - alpha) / (1.0 - alpha)
    out = np.where(u <= 0.0, 1.0, 0.0)
    inner = (u > 0.0) & (u < 1.0)
    if np.any(inner):
        ui = u[inner]
        pa = np.exp(-1.0 / ui)
        pb = np.exp(-1.0 / (1.0 - ui))
        out[inner] = pb / (pa + pb)
    if np.isscalar(s) or np.ndim(s) == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class SourceParams:
    """Radial base-kernel block for one component (position or speed).

    ``radius`` is the support radius of the initial condition (may be
    ``np.inf`` for an untruncated prior); ``rho`` is the Matern length scale
    (in meters for the position component, in m^2 for the speed component,
    whose Matern acts on squared radii); ``sigma2`` the prior variance.
    """

    x0: np.ndarray
    radius: float
    rho: float
    sigma2: float

    def __post_init__(self):
        x0 = np.asarray(self.x0, dtype=float).reshape(3)
        object.__setattr__(self, "x0", x0)
        if not np.all(np.isfinite(x0)):
            raise ValueError("source center must be finite")
        if not self.radius > 0.0:
            raise ValueError(f"radius must be positive, got {self.radius}")
        if not (np.isfinite(self.rho) and self.rho > 0.0):
            raise ValueError(f"rho must be positive, got {self.rho}")
        if not (np.isfinite(self.sigma2) and self.sigma2 > 0.0):
            raise ValueError(f"sigma2 must be positive, got {self.sigma2}")


@dataclass(frozen=True)
class HyperParams:
    """All physical and kernel parameters plus the noise variance.

    A disabled component (u or v) is represented by ``None``.
    """

    c: float
    u: SourceParams | None = None
    v: SourceParams | None = None
    lam: float = 0.0
    alpha_cut: float = 0.8

    def __post_init__(self):
        if not (np.isfinite(self.c) and self.c > 0.0):
            raise ValueError(f"wave speed must be positive, got {self.c}")
        if not (np.isfinite(self.lam) and self.lam >= 0.0):
            raise ValueError(f"noise variance must be >= 0, got {self.lam}")
        if not 0.0 < self.alpha_cut < 1.0:
            raise ValueError(f"alpha_cut must lie in (0,1), got {self.alpha_cut}")

    @property
    def components(self):
        names = []
        if self.u is not None:
            names.append("u")
        if self.v is not None:
            names.append("v")
        return tuple(names)

    def to_vector(self):
        """Flat encoding: [x0, R, rho, sigma2] per enabled component, then c, lam."""
        parts = []
        for name in self.components:
            src = getattr(self, name)
            parts.extend([*src.x0, src.radius, src.rho, src.sigma2])
        parts.extend([self.c, self.lam])
        return np.array(parts, dtype=float)

    @classmethod
    def from_vector(cls, vec, components, alpha_cut=0.8):
        vec = np.asarray(vec, dtype=float).reshape(-1)
        expected = 6 * len(components) + 2
        if vec.size != expected:
            raise ValueError(f"expected vector of length {expected}, got {vec.size}")
        blocks = {"u": None, "v": None}
        for i, name in enumerate(components):
            b = vec[6 * i : 6 * i + 6]
            blocks[name] = SourceParams(x0=b[:3], radius=b[3], rho=b[4], sigma2=b[5])
        return cls(c=vec[-2], u=blocks["u"], v=blocks["v"], lam=vec[-1],
                   alpha_cut=alpha_cut)

    @staticmethod
    def vector_names(components):
        names = []
        for comp in components:
            names.extend([f"x0{comp}_{ax}" for ax in "xyz"])
            names.extend([f"R_{comp}", f"rho_{comp}", f"sigma2_{comp}"])
        names.extend(["c", "lam"])
        return names

    def with_lam(self, lam):
        return replace(self, lam=lam)


def _as_points(x, t):
    x = np.asarray(x, dtype=float).reshape(-1, 3)
    t = np.asarray(t, dtype=float).reshape(-1)
    if x.shape[0] != t.shape[0]:
        raise ValueError("positions and times must have matching lengths")
    return x, t


def _clamped_radii(x, x0):
    r = np.linalg.norm(x - x0, axis=1)
    return np.maximum(r, RADIUS_CLAMP)


def _time_sign(t):
    s = np.sign(t)
    s[np.abs(t) < TIME_TOL] = 0.0
    return s


def _features(comp, x, t, c, src, alpha_cut):
    """Features (w, s) of component "u" or "v" (module docstring), (2, n) each."""
    r = _clamped_radii(x, src.x0)
    ct = c * np.abs(t)
    b = np.stack([r - ct, r + ct])
    if comp == "u":
        s = np.abs(b)
        return b * smooth_cutoff(s / src.radius, alpha_cut) / (2.0 * r), s
    w = _EPS * (_time_sign(t) / (4.0 * c * r))
    return w, np.minimum(b * b, src.radius**2)


def _weighted_matern(h, w, rho, sigma2, out):
    """out = w * matern52(h, rho, sigma2) without temporaries; h is overwritten.

    Performs matern52's floating-point operations in its order, so the
    Matern factor is bitwise equal to matern52's.
    """
    np.abs(h, out=h)
    h /= rho
    np.divide(h, 3.0, out=out)
    out += 1.0
    out *= h
    out += 1.0
    out *= sigma2
    np.negative(h, out=h)
    np.exp(h, out=h)
    out *= h
    out *= w
    return out


def _assemble(w1, s1, w2, s2, src):
    """sum_e' w2[e'] * (sum_e w1[e] * m52(s1[e] - s2[e'])), broadcast.

    Rows are the two characteristic radii; the remaining axes broadcast, so
    (2, n, 1) against (2, 1, m) gives a pairwise block and (2, n) against
    (2, n) a diagonal.  Summing over e first makes an out-of-cone point,
    whose two features are equal up to sign, contribute an exact 0.
    """
    shape = np.broadcast_shapes(s1.shape[1:], s2.shape[1:])
    acc, inner, term, h = (np.empty(shape) for _ in range(4))
    for e2 in (0, 1):
        for e in (0, 1):
            np.subtract(s1[e], s2[e2], out=h)
            _weighted_matern(h, w1[e], src.rho, src.sigma2,
                             term if e else inner)
        inner += term
        if e2:
            inner *= w2[1]
            acc += inner
        else:
            np.multiply(inner, w2[0], out=acc)
    return acc


def _kernel(c, parts, alpha_cut, x1, t1, x2=None, t2=None):
    """Sum of the (component, source) parts; the diagonal when x2 is None."""
    x1, t1 = _as_points(x1, t1)
    if x2 is not None:
        x2, t2 = _as_points(x2, t2)
    out = np.zeros(t1.shape if x2 is None else (t1.size, t2.size))
    for comp, src in parts:
        w1, s1 = _features(comp, x1, t1, c, src, alpha_cut)
        if x2 is None:
            out += _assemble(w1, s1, w1, s1, src)
        else:
            w2, s2 = _features(comp, x2, t2, c, src, alpha_cut)
            out += _assemble(w1[:, :, None], s1[:, :, None],
                             w2[:, None, :], s2[:, None, :], src)
    return out


def kv_wave_radial(x1, t1, x2, t2, c, src):
    """Speed-component wave kernel (truncated radial base), pairwise.

    sgn(t t') / (16 c^2 r r') * sum_{eps,eps'} eps eps' m52(a_eps - a'_eps')
    with a_eps = min((r + eps c|t|)^2, R^2).  Exact 0 outside the light cone.
    """
    return _kernel(c, [("v", src)], None, x1, t1, x2, t2)


def kv_wave_diag(x, t, c, src):
    """Diagonal kv_wave_radial(z, z); exact zeros outside the light cone."""
    return _kernel(c, [("v", src)], None, x, t)


def ku_wave_radial(x1, t1, x2, t2, c, src, alpha_cut=0.8):
    """Position-component wave kernel (smoothly truncated radial base), pairwise.

    1/(4 r r') * sum_{eps,eps'} b_eps b'_eps' phi(|b_eps|/R) phi(|b'_eps'|/R)
    m52(|b_eps| - |b'_eps'|) with b_eps = r + eps c|t|: a plain radial
    Matern prior on u0 cut off by phi.
    """
    return _kernel(c, [("u", src)], alpha_cut, x1, t1, x2, t2)


def ku_wave_diag(x, t, c, src, alpha_cut=0.8):
    """Diagonal ku_wave_radial(z, z)."""
    return _kernel(c, [("u", src)], alpha_cut, x, t)


def _parts(params):
    return [(name, getattr(params, name)) for name in params.components]


def wave_kernel(x1, t1, x2, t2, params: HyperParams):
    """Full space-time wave kernel: sum of the enabled u and v components."""
    return _kernel(params.c, _parts(params), params.alpha_cut, x1, t1, x2, t2)


def wave_kernel_diag(x, t, params: HyperParams):
    """Diagonal of :func:`wave_kernel`; exact zeros outside both light cones."""
    return _kernel(params.c, _parts(params), params.alpha_cut, x, t)


class WaveKernel:
    """Space-time covariance object backed by :func:`wave_kernel`.

    Immutable apart from ``eval_count``, a diagnostic counter of how many
    kernel entries have been computed (used to check light-cone pruning).
    """

    def __init__(self, params: HyperParams):
        self.params = params
        self.eval_count = 0

    def pairwise(self, x1, t1, x2, t2):
        out = wave_kernel(x1, t1, x2, t2, self.params)
        self.eval_count += out.size
        return out

    def diag(self, x, t):
        out = wave_kernel_diag(x, t, self.params)
        self.eval_count += out.size
        return out


def stationary_ftft_density(hnorm, t, tp, c):
    """Density of the convolved spherical shell measures at radius hnorm.

    sgn(t) sgn(t') / (8 pi c^2 hnorm) on the band
    [c||t|-|t'||, c(|t|+|t'|)], zero outside.  Evaluating at hnorm = 0
    inside the band is singular.
    """
    if hnorm < 0.0:
        raise ValueError("hnorm must be >= 0")
    st = 0.0 if abs(t) < TIME_TOL else math.copysign(1.0, t)
    stp = 0.0 if abs(tp) < TIME_TOL else math.copysign(1.0, tp)
    sgn = st * stp
    if sgn == 0.0:
        return 0.0
    lo = c * abs(abs(t) - abs(tp))
    hi = c * (abs(t) + abs(tp))
    if hnorm < lo or hnorm > hi:
        return 0.0
    if hnorm == 0.0:
        raise SingularEvaluationError(
            "shell convolution density diverges at hnorm = 0 inside the band")
    return sgn / (8.0 * math.pi * c * c * hnorm)


def stationary_gaussian_wave(h, t, tp, c, C, L, cprime=math.sqrt(math.pi / 2)):
    """Closed form for a stationary Gaussian base kernel C*exp(-|h|^2/(2L^2)).

    sgn(t t') * cprime * L^3 / c^2 * (q(R1) - q(R2)) with
    q(R) = (Phi((R+|h|)/L) - Phi((R-|h|)/L)) / (2|h|),
    R1 = c||t|-|t'||, R2 = c(|t|+|t'|), Phi the standard normal CDF.
    ``cprime`` is the dimensionless prefactor sqrt(pi/2); the shell
    quadrature reproduces it (waveinform.oracle.calibrate_gaussian_prefactor).
    Near |h| = 0 the difference quotient is replaced by its analytic limit.
    """
    st = 0.0 if abs(t) < TIME_TOL else math.copysign(1.0, t)
    stp = 0.0 if abs(tp) < TIME_TOL else math.copysign(1.0, tp)
    sgn = st * stp
    if sgn == 0.0:
        return 0.0
    hn = float(np.linalg.norm(np.asarray(h, dtype=float).reshape(-1)))
    r1 = c * abs(abs(t) - abs(tp))
    r2 = c * (abs(t) + abs(tp))

    def quotient(radius):
        if hn < 1e-8:
            return math.exp(-0.5 * (radius / L) ** 2) / (L * math.sqrt(2.0 * math.pi))
        return (ndtr((radius + hn) / L) - ndtr((radius - hn) / L)) / (2.0 * hn)

    return sgn * cprime * C * L**3 / c**2 * (quotient(r1) - quotient(r2))
