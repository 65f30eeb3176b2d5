# Aliases of the names perfbench traces as gp.*; goes with ROADMAP item 12a.
from .fast import fit_posterior  # noqa: F401
from .linalg import assemble_covariance, chol_with_jitter  # noqa: F401
