"""Dense references that the GP-layer tests compare the package against.

``FunctionKernel`` evaluates a scalar two-point function entry by entry,
and ``dense_nll`` is the likelihood of the full covariance, with no
active-set reduction.
"""

import numpy as np

from waveinform.linalg import (assemble_covariance, chol_with_jitter,
                               half_solve, logdet_from_chol)


class FunctionKernel:
    """Adapter turning a scalar two-point function into a kernel object."""

    def __init__(self, func):
        self.func = func
        self.eval_count = 0

    def pairwise(self, x1, t1, x2, t2):
        x1, t1 = _as_points(x1, t1)
        x2, t2 = _as_points(x2, t2)
        out = np.empty((x1.shape[0], x2.shape[0]))
        for i in range(x1.shape[0]):
            for j in range(x2.shape[0]):
                out[i, j] = self.func(x1[i], t1[i], x2[j], t2[j])
        self.eval_count += out.size
        return out

    def diag(self, x, t):
        x, t = _as_points(x, t)
        out = np.array([self.func(x[i], t[i], x[i], t[i]) for i in range(len(t))])
        self.eval_count += out.size
        return out


def _as_points(x, t):
    x = np.asarray(x, dtype=float).reshape(-1, 3)
    t = np.asarray(t, dtype=float).reshape(-1)
    if x.shape[0] != t.shape[0]:
        raise ValueError("positions and times must have matching lengths")
    return x, t


def dense_nll(kernel, x, t, y, lam):
    """Likelihood from the Cholesky factor of the full (n, n) covariance."""
    x = np.asarray(x, dtype=float).reshape(-1, 3)
    t = np.asarray(t, dtype=float).reshape(-1)
    y = np.asarray(y, dtype=float).reshape(-1)
    kmat = assemble_covariance(kernel, x, t) + lam * np.eye(t.size)
    chol, _ = chol_with_jitter(kmat)
    v = half_solve(chol, y)
    return float(v @ v) + logdet_from_chol(chol)
