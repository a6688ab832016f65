"""Weak-form latent dynamics surrogates for PDE-constrained optimization.

The package covers the full loop: a Burgers full-order model with discrete
direct/adjoint gradients, POD compression, weak-form (and strong-form
baseline) identification of latent ODE dynamics, parametric coefficient
providers, explicit Runge-Kutta latent prediction with residual-based
sensitivities, box-constrained optimizers, and a benchmark harness behind
the ``wlasdi`` command-line tool.
"""
from .core import (
    NoiseSpec,
    ParameterDomain,
    SnapshotMatrix,
    TimeGrid,
    inject_noise,
    relative_param_error,
)
from .features import FeatureLibrary
from .pod import LinearReducer, pod_fit
from .providers import (
    TrainingCoefficients,
    fit_convex,
    fit_gp,
    fit_rbf,
)
from .rom import ButcherTableau, LatentModel, integrate_latent, predict_full
from .sensitivity import (
    GradientResult,
    TargetMismatch,
    fd_gradient,
    reduced_adjoint_gradient,
    reduced_direct_gradient,
    surrogate_objective,
)
from .weakform import build_test_functions, sindy_fit, wendy_fit

__version__ = "0.1.0"
