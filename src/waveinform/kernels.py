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
is past R.  As m52(0) = sigma2 and m52 is even, the diagonal takes one
Matern value per point: k(z, z) = sigma2 (w_0^2 + w_1^2) + 2 w_0 w_1
m52(s_0 - s_1).  Values and diagonals are bitwise the four-term sum's.

A point batch (``PointBatch``, built by ``WaveKernel.batch``) carries
each enabled component's features of its points, computed once: a
likelihood evaluation featurizes its points once and every diagonal and
covariance band reads slices of that batch.  The features are elementwise
in the points, so a slice of a batch is bitwise the batch of the slice.
``WaveKernel.radial_batch`` holds one component at radii |x - x0|, and
``pairwise`` and ``diag`` sum over the components their batches carry.

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
unrestricted concurrent evaluation.  Points are positions with shape
(n, 3) and times with shape (n,), all finite; ``wave_kernel`` and
``wave_kernel_diag`` take them as arrays, ``WaveKernel`` as batches.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import _is_number

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
        # As objects, so a bool or a string is seen before numpy converts it.
        x0 = np.asarray(self.x0, dtype=object).reshape(-1)
        if not (x0.size == 3 and all(map(_is_number, x0))
                and np.isfinite(x0.astype(float)).all()):
            raise ValueError(f"x0 must be three finite numbers, got "
                             f"{self.x0!r}")
        object.__setattr__(self, "x0", x0.astype(float))
        if not (_is_number(self.radius) and self.radius > 0.0):
            raise ValueError(f"radius must be > 0, got {self.radius!r}")
        if not (_is_number(self.rho) and 0.0 < self.rho < np.inf):
            raise ValueError(f"rho must be finite > 0, got {self.rho!r}")
        if not (_is_number(self.sigma2) and 0.0 < self.sigma2 < np.inf):
            raise ValueError(f"sigma2 must be finite > 0, got {self.sigma2!r}")


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
        if not (_is_number(self.c) and 0.0 < self.c < np.inf):
            raise ValueError(f"c must be finite > 0, got {self.c!r}")
        if not (_is_number(self.lam) and 0.0 <= self.lam < np.inf):
            raise ValueError(f"lam must be finite >= 0, got {self.lam!r}")

    @property
    def components(self):
        return tuple(name for name in ("u", "v")
                     if getattr(self, name) is not None)

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
    return _as_batch(np.asarray(x, dtype=float).reshape(-1, 3), t,
                     "positions")


def _as_batch(a, t, name):
    t = np.asarray(t, dtype=float).reshape(-1)
    if a.shape[0] != t.shape[0]:
        raise ValueError(f"{name} and times must have matching lengths")
    if not (np.isfinite(a).all() and np.isfinite(t).all()):
        raise ValueError(f"{name} and times must be finite")
    return a, t


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


def _diag_of(w, s, src):
    """One component's diagonal from its features: sum_e' w_e' (sigma2
    w_e' + m52(s_0 - s_1) w_-e'), the four-term sum's products added in
    its order."""
    m = matern52(s[0] - s[1], src.rho, src.sigma2)
    return ((src.sigma2 * w + m * w[::-1]) * w).sum(axis=0)


@dataclass(frozen=True, eq=False)
class PointBatch:
    """Finite space-time points and the kernel features of each point.

    ``x`` is (n, 3) and ``t`` is (n,).  ``features`` maps each enabled
    component of ``params`` to its (w, s) pair, (2, n) each, in
    ``params.components`` order; a batch at radii carries one component
    and (n, 0) positions.  A kernel object that reads its points directly
    leaves it empty, with ``params`` None.  Features are elementwise in
    the points, so ``batch[index]`` (a slice or an index array) slices
    them with the points and is bitwise the batch of the indexed points,
    without recomputing them.
    """

    x: np.ndarray
    t: np.ndarray
    features: dict
    params: HyperParams | None

    def __len__(self):
        return self.t.size

    def __getitem__(self, index):
        return PointBatch(self.x[index], self.t[index],
                          {comp: (w[:, index], s[:, index])
                           for comp, (w, s) in self.features.items()},
                          self.params)


def _featurize(params, x, t):
    """The batch of points (x, t): their features under ``params``, each
    component's radii and (w, s) computed once; refused as
    :func:`_as_points` refuses."""
    x, t = _as_points(x, t)
    features = {}
    for comp in params.components:
        src = getattr(params, comp)
        features[comp] = _features(comp, np.linalg.norm(x - src.x0, axis=1),
                                   t, params.c, src)
    return PointBatch(x, t, features, params)


def _features_of(params, batch):
    """The batch's features, refused unless computed under this very
    ``params`` object (equal parameters in another object are refused)."""
    if batch.params is not params:
        raise ValueError("point batch was built for other kernel parameters")
    return batch.features


def _pairwise(params, b1, b2):
    """Sum over the components both batches carry of their blocks."""
    f1, f2 = _features_of(params, b1), _features_of(params, b2)
    out = np.zeros((len(b1), len(b2)))
    for comp in [comp for comp in f1 if comp in f2]:
        out += _assemble(*f1[comp], *f2[comp], getattr(params, comp))
    return out


def _diag(params, batch):
    """Sum over the components the batch carries of their diagonals."""
    out = np.zeros(len(batch))
    for comp, (w, s) in _features_of(params, batch).items():
        out += _diag_of(w, s, getattr(params, comp))
    return out


def wave_kernel(x1, t1, x2, t2, params: HyperParams):
    """Full space-time wave kernel: sum of the enabled u and v components."""
    return _pairwise(params, _featurize(params, x1, t1),
                     _featurize(params, x2, t2))


def wave_kernel_diag(x, t, params: HyperParams):
    """Diagonal of :func:`wave_kernel`; exact zeros outside both light cones."""
    return _diag(params, _featurize(params, x, t))


def kv_wave_radial(x1, t1, x2, t2, c, src):
    """Speed-component wave kernel (truncated radial base), pairwise.

    sgn(t t') / (16 c^2 r r') * sum_{eps,eps'} eps eps' m52(a_eps - a'_eps')
    with a_eps = min((r + eps c|t|)^2, R^2).  Exact 0 outside the light cone.
    """
    return wave_kernel(x1, t1, x2, t2, HyperParams(c=c, v=src))


def kv_wave_diag(x, t, c, src):
    """Diagonal kv_wave_radial(z, z); exact zeros outside the light cone."""
    return wave_kernel_diag(x, t, HyperParams(c=c, v=src))


def ku_wave_radial(x1, t1, x2, t2, c, src):
    """Position-component wave kernel (smoothly truncated radial base), pairwise.

    1/(4 r r') * sum_{eps,eps'} b_eps b'_eps' phi(|b_eps|/R) phi(|b'_eps'|/R)
    m52(|b_eps| - |b'_eps'|) with b_eps = r + eps c|t|: a plain radial
    Matern prior on u0 cut off by phi.
    """
    return wave_kernel(x1, t1, x2, t2, HyperParams(c=c, u=src))


def ku_wave_diag(x, t, c, src):
    """Diagonal ku_wave_radial(z, z)."""
    return wave_kernel_diag(x, t, HyperParams(c=c, u=src))


class WaveKernel:
    """Space-time covariance object over point batches.

    ``batch(x, t)`` refuses ragged or non-finite points and computes their
    features once, ``radial_batch(comp, r, t)`` those of one component at
    radii; ``pairwise`` and ``diag`` read the features of the batches they
    are given, which must come from a kernel with the same ``params``, and
    sum over the components the batches carry.  Immutable apart from
    ``eval_count``, a diagnostic counter of how many kernel entries have
    been returned (used to check light-cone pruning).  It counts entries,
    not the Matern terms behind them, which the assembly skips where a
    weight is 0.
    """

    def __init__(self, params: HyperParams):
        self.params = params
        self.eval_count = 0

    def _count(self, out):
        self.eval_count += out.size
        return out

    def batch(self, x, t):
        """The :class:`PointBatch` of positions (n, 3) and times (n,)."""
        return _featurize(self.params, x, t)

    def radial_batch(self, comp, r, t):
        """The batch of component ``comp`` alone at radii r = |x - x0| and
        times t, with (n, 0) positions; refuses a component that is not
        enabled, and non-finite or ragged radii and times, with ValueError."""
        if comp not in self.params.components:
            raise ValueError(f"component {comp!r} is not enabled; the "
                             f"enabled ones are {self.params.components}")
        r, t = _as_batch(np.asarray(r, dtype=float).reshape(-1), t, "radii")
        src = getattr(self.params, comp)
        return PointBatch(np.empty((t.size, 0)), t,
                          {comp: _features(comp, r, t, self.params.c, src)},
                          self.params)

    def pairwise(self, b1, b2):
        """The (len(b1), len(b2)) covariance block of two batches."""
        return self._count(_pairwise(self.params, b1, b2))

    def diag(self, batch):
        """The covariance of each point of a batch with itself."""
        return self._count(_diag(self.params, batch))
