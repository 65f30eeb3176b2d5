"""Gaussian-process posterior for any space-time kernel object.

The posterior is built on ``fast.factor_active``, the active-set
factorization that the negative log marginal likelihood
(``fast.fast_nll``) shares; Kriging prediction (``fast.posterior_mean``,
``fast.posterior_var``) works on the same reduction.  The prior mean is
fixed at zero.  A kernel object must provide
``pairwise(x1, t1, x2, t2) -> (n, m)`` and ``diag(x, t) -> (n,)``;
``fast.posterior_mean`` further needs a ``kernels.WaveKernel``, whose
components it evaluates one radius at a time.

PosteriorModel is immutable after construction and safe for concurrent
reads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fast import ActiveFactor, factor_active
from .linalg import chol_solve_vec
# Not called here: perfbench traces gp.assemble_covariance and checks that
# gp.chol_with_jitter is linalg's.  Goes when gp folds into fast.
from .linalg import assemble_covariance, chol_with_jitter  # noqa: F401


@dataclass(frozen=True)
class PosteriorModel:
    """Zero-mean GP posterior in reduced (active-set) form.

    ``factor`` is the active-block factorization it was conditioned on (its
    points, Cholesky factor of K~ + lam*I and jitter) and alpha solves
    (K~ + lam*I) alpha = y_a, the observations at the active points.
    """

    kernel: object
    factor: ActiveFactor
    alpha: np.ndarray

    @property
    def active_count(self):
        return self.factor.active_set.p


def fit_posterior(kernel, x, t, y, lam):
    """Condition a zero-mean GP prior on observations.

    Only points with nonzero kernel diagonal enter the Cholesky factor
    (``fast.factor_active``, whose refusals and jitter log apply).  With
    lam = 0 the observations on inactive points must themselves be zero
    (they are unexplainable by a prior with zero variance there).  The
    jitter of a rescued Cholesky is kept in the model's ``factor.jitter``.
    """
    fac = factor_active(kernel, x, t, y, lam)
    return PosteriorModel(kernel=kernel, factor=fac,
                          alpha=chol_solve_vec(fac.chol, fac.y_active))
