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

A weight is exactly 0 where |b_eps| >= R (u) or t = 0 (v), and then its
terms are exact zeros, so the assembly evaluates the Matern terms of the
nonzero weights only: for most data points the outgoing radius r + c|t|
is past R.  Kernel values are bitwise the four-term sum's; one component
alone (``WaveKernel.radial``) may differ from it in the sign of an exact 0.

This module implements the feature map and its assembly, the Matern-5/2
base profile and the smooth compact-support cutoff phi.  phi's plateau is
one constant, ``CUTOFF_ALPHA``, shared with the regularized Green bump of
the point-source scan.  The stationary-prior closed forms of the paper
(the shell-pair density and the Gaussian-base formula) are independent
checks of the theory, not pipeline stages, and live in
``tests/dense_reference.py``.

Base-kernel conventions.  The position prior puts a plain radial Matern on
u0: correlation m52(r - r'), so ``rho_u`` is a length in meters.  The speed
prior models the integrated-profile surface as a Matern of the squared
radii: K_v(a, b) = m52(a - b) with a, b squared radii, so ``rho_v`` carries
units m^2.  (A radius-difference K_v would give the initial-speed prior a
1/r^2 variance divergence at the source center, which destabilizes the
time-derivative reconstruction there; the squared-radius form is regular.)

Everything here is a pure function of immutable parameters and is safe for
unrestricted concurrent evaluation.  Point batches are passed as arrays:
positions with shape (n, 3) and times with shape (n,), all finite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# |t| below this is treated as t = 0 (sgn = 0, degenerate sphere).
TIME_TOL = 1e-12
# Plateau of the smooth cutoff phi: phi = 1 on [0, CUTOFF_ALPHA).
CUTOFF_ALPHA = 0.8
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


def smooth_cutoff(s):
    """C-infinity decreasing cutoff phi: 1 on [0, a), 0 on [1, inf).

    a = CUTOFF_ALPHA.  On [a, 1) uses the standard smooth partition
    psi(1-u) / (psi(u) + psi(1-u)) with psi(u) = exp(-1/u) and
    u = (s - a)/(1 - a).
    """
    s_arr = np.asarray(s, dtype=float)
    u = (s_arr - CUTOFF_ALPHA) / (1.0 - CUTOFF_ALPHA)
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

    def __post_init__(self):
        if not (np.isfinite(self.c) and self.c > 0.0):
            raise ValueError(f"wave speed must be positive, got {self.c}")
        if not (np.isfinite(self.lam) and self.lam >= 0.0):
            raise ValueError(f"noise variance must be >= 0, got {self.lam}")

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
    def from_vector(cls, vec, components):
        vec = np.asarray(vec, dtype=float).reshape(-1)
        expected = 6 * len(components) + 2
        if vec.size != expected:
            raise ValueError(f"expected vector of length {expected}, got {vec.size}")
        blocks = {"u": None, "v": None}
        for i, name in enumerate(components):
            b = vec[6 * i : 6 * i + 6]
            blocks[name] = SourceParams(x0=b[:3], radius=b[3], rho=b[4], sigma2=b[5])
        return cls(c=vec[-2], u=blocks["u"], v=blocks["v"], lam=vec[-1])

    @staticmethod
    def vector_names(components):
        names = []
        for comp in components:
            names.extend([f"x0{comp}_{ax}" for ax in "xyz"])
            names.extend([f"R_{comp}", f"rho_{comp}", f"sigma2_{comp}"])
        names.extend(["c", "lam"])
        return names


def _as_points(x, t):
    """(n, 3) positions and (n,) times; refuses ragged or non-finite batches.

    A non-finite point has a NaN or zero diagonal, so it would pass for a
    point outside the support.
    """
    x = np.asarray(x, dtype=float).reshape(-1, 3)
    t = np.asarray(t, dtype=float).reshape(-1)
    if x.shape[0] != t.shape[0]:
        raise ValueError("positions and times must have matching lengths")
    if not (np.isfinite(x).all() and np.isfinite(t).all()):
        raise ValueError("positions and times must be finite")
    return x, t


def _time_sign(t):
    """sgn(t), 0 within TIME_TOL of t = 0; a scalar t gives a scalar."""
    return np.where(np.abs(t) < TIME_TOL, 0.0, np.sign(t))[()]


def _features(comp, r, t, c, src):
    """Features (w, s) of component "u" or "v" (module docstring), (2, n) each.

    ``r`` holds the radii |x - x0| about the component's center.
    """
    r = np.maximum(r, RADIUS_CLAMP)
    ct = c * np.abs(t)
    b = np.stack([r - ct, r + ct])
    if comp == "u":
        s = np.abs(b)
        return b * smooth_cutoff(s / src.radius) / (2.0 * r), s
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


def _live(w):
    """Where the weights w are nonzero: a full slice when more than half
    are, so a mostly live axis is not gathered, else their indices, or
    None when there are none."""
    live = np.flatnonzero(w)
    if 2 * live.size > w.size:
        return slice(None)
    return live if live.size else None


def _add_into(total, index, part, shape):
    """total[index] += part, where a None total stands for zeros of shape.

    A part of the whole shape (a full-slice index) starts the total
    itself, which saves a zero fill and an add.
    """
    if total is None:
        if part.shape == shape:
            return part
        total = np.zeros(shape)
    total[index] += part
    return total


def _assemble(w1, s1, w2, s2, src):
    """(n, m) block sum_e' w2[e'] * (sum_e w1[e] * m52(s1[e] - s2[e'])).

    Row features are (2, n) and column features (2, m).  m52 is finite and
    >= 0, so a term whose row weight w1[e] or column weight w2[e'] is 0 is
    an exact +-0, and adding it changes no nonzero sum.  Only the rows and
    columns with a nonzero weight are evaluated (all of an axis when most
    of it is live), in the association above: over e first, then times
    w2[e'], then over e'.  So the block equals the four-term sum bit for
    bit, up to the sign of an exact 0.  Summing over e first makes an
    out-of-cone point, whose two features are equal up to sign, contribute
    an exact 0.
    """
    n, m = w1.shape[1], w2.shape[1]
    live_rows = [(e, rows) for e, rows in enumerate(map(_live, w1))
                 if rows is not None]
    acc = None
    for e2 in (0, 1):
        cols = _live(w2[e2])
        if cols is None or not live_rows:
            continue
        s2c = s2[e2, cols]
        inner = None
        for e, rows in live_rows:
            h = np.subtract.outer(s1[e, rows], s2c)
            term = _weighted_matern(h, w1[e, rows, None], src.rho,
                                    src.sigma2, np.empty_like(h))
            inner = _add_into(inner, rows, term, (n, s2c.size))
        inner *= w2[e2, cols]
        acc = _add_into(acc, (slice(None), cols), inner, (n, m))
    return np.zeros((n, m)) if acc is None else acc


def _assemble_diag(w, s, src):
    """The diagonal of :func:`_assemble` for features w, s of shape (2, n).

    The e' sum is evaluated at the entries where w[e'] is nonzero (at every
    entry when most are); a zero w[e] there gives an exact +-0 term.
    """
    n = w.shape[1]
    acc = None
    for e2 in (0, 1):
        sel = _live(w[e2])
        if sel is None:
            continue
        terms = []
        for e in (0, 1):
            h = s[e, sel] - s[e2, sel]
            terms.append(_weighted_matern(h, w[e, sel], src.rho, src.sigma2,
                                          np.empty_like(h)))
        inner = terms[0]
        inner += terms[1]
        inner *= w[e2, sel]
        acc = _add_into(acc, sel, inner, (n,))
    return np.zeros(n) if acc is None else acc


def _radial(comp, src, c, r1, t1, r2=None, t2=None):
    """One component at radii r = |x - x0|; the diagonal when r2 is None."""
    w1, s1 = _features(comp, r1, t1, c, src)
    if r2 is None:
        return _assemble_diag(w1, s1, src)
    return _assemble(w1, s1, *_features(comp, r2, t2, c, src), src)


def _radii(x, src):
    return np.linalg.norm(x - src.x0, axis=1)


def _kernel(c, parts, x1, t1, x2=None, t2=None):
    """Sum of the (component, source) parts; the diagonal when x2 is None."""
    x1, t1 = _as_points(x1, t1)
    if x2 is not None:
        x2, t2 = _as_points(x2, t2)
    out = np.zeros(t1.shape if x2 is None else (t1.size, t2.size))
    for comp, src in parts:
        r2 = None if x2 is None else _radii(x2, src)
        out += _radial(comp, src, c, _radii(x1, src), t1, r2, t2)
    return out


def kv_wave_radial(x1, t1, x2, t2, c, src):
    """Speed-component wave kernel (truncated radial base), pairwise.

    sgn(t t') / (16 c^2 r r') * sum_{eps,eps'} eps eps' m52(a_eps - a'_eps')
    with a_eps = min((r + eps c|t|)^2, R^2).  Exact 0 outside the light cone.
    """
    return _kernel(c, [("v", src)], x1, t1, x2, t2)


def kv_wave_diag(x, t, c, src):
    """Diagonal kv_wave_radial(z, z); exact zeros outside the light cone."""
    return _kernel(c, [("v", src)], x, t)


def ku_wave_radial(x1, t1, x2, t2, c, src):
    """Position-component wave kernel (smoothly truncated radial base), pairwise.

    1/(4 r r') * sum_{eps,eps'} b_eps b'_eps' phi(|b_eps|/R) phi(|b'_eps'|/R)
    m52(|b_eps| - |b'_eps'|) with b_eps = r + eps c|t|: a plain radial
    Matern prior on u0 cut off by phi.
    """
    return _kernel(c, [("u", src)], x1, t1, x2, t2)


def ku_wave_diag(x, t, c, src):
    """Diagonal ku_wave_radial(z, z)."""
    return _kernel(c, [("u", src)], x, t)


def _parts(params):
    return [(name, getattr(params, name)) for name in params.components]


def wave_kernel(x1, t1, x2, t2, params: HyperParams):
    """Full space-time wave kernel: sum of the enabled u and v components."""
    return _kernel(params.c, _parts(params), x1, t1, x2, t2)


def wave_kernel_diag(x, t, params: HyperParams):
    """Diagonal of :func:`wave_kernel`; exact zeros outside both light cones."""
    return _kernel(params.c, _parts(params), x, t)


class WaveKernel:
    """Space-time covariance object backed by :func:`wave_kernel`.

    Immutable apart from ``eval_count``, a diagnostic counter of how many
    kernel entries have been returned (used to check light-cone pruning).
    It counts entries, not the Matern terms behind them, which the
    assembly skips where a weight is 0.
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

    def radial(self, comp, r1, t1, r2=None, t2=None):
        """Component ``comp`` alone, at radii r = |x - x0| about its center.

        The pairwise (len(r1), len(r2)) block, or the diagonal when r2 is
        None.  Each component sees a point only through (r, t), so a caller
        can evaluate it once per distinct pair.
        """
        out = _radial(comp, getattr(self.params, comp), self.params.c,
                      r1, t1, r2, t2)
        self.eval_count += out.size
        return out

