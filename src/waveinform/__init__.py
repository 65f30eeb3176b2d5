"""Wave-informed Gaussian process regression for the 3D free-space wave equation."""

from . import (design, experiments, fast, fields, gp, kernels, linalg, oracle,
               sim)
from .exceptions import KernelEvaluationError, SingularCovarianceError
from .fast import (PosteriorModel, fast_nll, fit_posterior, posterior_mean,
                   posterior_var)
from .fields import ScalarField3D
from .kernels import (HyperParams, SourceParams, WaveKernel, matern52,
                      smooth_cutoff, wave_kernel, wave_kernel_diag)
from .linalg import assemble_covariance
from .sim import InitialCondition, SensorDataset, SimConfig, run_simulation

__all__ = [
    "HyperParams",
    "InitialCondition",
    "KernelEvaluationError",
    "PosteriorModel",
    "ScalarField3D",
    "SensorDataset",
    "SimConfig",
    "SingularCovarianceError",
    "SourceParams",
    "WaveKernel",
    "assemble_covariance",
    "design",
    "experiments",
    "fast",
    "fast_nll",
    "fields",
    "fit_posterior",
    "gp",
    "kernels",
    "linalg",
    "matern52",
    "oracle",
    "posterior_mean",
    "posterior_var",
    "run_simulation",
    "sim",
    "smooth_cutoff",
    "wave_kernel",
    "wave_kernel_diag",
]
