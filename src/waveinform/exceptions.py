"""Exception types shared across the package."""


class KernelEvaluationError(RuntimeError):
    """A covariance evaluation produced a non-finite value."""


class SingularCovarianceError(RuntimeError):
    """Cholesky factorization failed even after jitter escalation."""
