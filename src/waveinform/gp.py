"""Gaussian-process posterior for any space-time kernel object.

The posterior is built through the active-set reduction of
waveinform.fast, on the covariance block that
waveinform.linalg.assemble_covariance assembles.  Kriging prediction
(``fast.posterior_mean``, ``fast.posterior_var``) and the negative log
marginal likelihood (``fast.fast_nll``) work on the same reduction.  The
prior mean is fixed at zero.  A kernel object must provide
``pairwise(x1, t1, x2, t2) -> (n, m)`` and ``diag(x, t) -> (n,)``.

PosteriorModel is immutable after construction and safe for concurrent
reads.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .exceptions import SingularCovarianceError
from .fast import ActiveSet, detect_active
from .linalg import assemble_covariance, chol_solve_vec, chol_with_jitter

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class PosteriorModel:
    """Zero-mean GP posterior in reduced (active-set) form.

    chol_factor is the lower Cholesky factor of K~ + lam*I on the active
    points and alpha solves (K~ + lam*I) alpha = y_in.
    """

    kernel: object
    lam: float
    active_set: ActiveSet
    x_in: np.ndarray
    t_in: np.ndarray
    y_in: np.ndarray
    chol_factor: np.ndarray
    alpha: np.ndarray
    jitter: float = 0.0

    @property
    def active_count(self):
        return self.active_set.p


def fit_posterior(kernel, x, t, y, lam):
    """Condition a zero-mean GP prior on observations.

    The factorization is delegated through the active-set reduction: only
    points with nonzero kernel diagonal enter the Cholesky factor.  With
    lam = 0 the observations on inactive points must themselves be zero
    (they are unexplainable by a prior with zero variance there).  A
    Cholesky that needs jitter is logged at WARNING and kept in
    ``PosteriorModel.jitter``.
    """
    if lam < 0.0:
        raise ValueError("lam must be >= 0")
    x = np.asarray(x, dtype=float).reshape(-1, 3)
    t = np.asarray(t, dtype=float).reshape(-1)
    y = np.asarray(y, dtype=float).reshape(-1)
    if y.size != t.size:
        raise ValueError("observation vector length must match point count")
    act = detect_active(kernel, x, t)
    y_out = y[act.inactive]
    if lam == 0.0 and act.q > 0 and np.any(y_out != 0.0):
        raise SingularCovarianceError(
            "lam = 0 with nonzero observations outside the kernel support")
    idx = act.active
    x_in, t_in, y_in = x[idx], t[idx], y[idx]
    if act.p > 0:
        kmat = assemble_covariance(kernel, x_in, t_in)
        kmat.flat[::act.p + 1] += lam
        chol, jitter = chol_with_jitter(kmat)
        if jitter > 0.0:
            _log.warning("posterior Cholesky of the %d x %d active block "
                         "needed jitter %.3g", act.p, act.p, jitter)
        alpha = chol_solve_vec(chol, y_in)
    else:
        chol = np.zeros((0, 0))
        alpha = np.zeros(0)
        jitter = 0.0
    return PosteriorModel(kernel=kernel, lam=lam, active_set=act,
                          x_in=x_in, t_in=t_in, y_in=y_in,
                          chol_factor=chol, alpha=alpha, jitter=jitter)
