"""Latent-transfer mixture models: density estimation and implicit VI.

The package represents densities on uniform grids (:mod:`.grid_density`),
builds mixtures of Gaussian noise over a monotone transfer of a uniform
latent (:mod:`.transfer_map`), sharpens kernel smoothing to higher
approximation orders (:mod:`.hi_order_kernel`), places a Gaussian-process
prior on the transfer (:mod:`.gp_prior`), samples its posterior by blocked
MCMC (:mod:`.nllvm_posterior`), fits implicit variational families by
deterministic L-BFGS-B (:mod:`.gpivi`), and verifies the
analytic bounds behind all of it with seeded randomized experiments
(:mod:`.verify_harness`, surfaced by :mod:`.cli`).
"""

from .grid_density import (
    DIVERGENCE_KINDS,
    HELLINGER_SQ,
    KL,
    L1,
    SUP_LOG_RATIO,
    GridDensity,
    GridSpec,
    NumericError,
    ResolutionError,
    convolve_gaussian,
    divergence,
    smooth_bump,
)
from .transfer_map import (
    CoverageError,
    TransferFunction,
    mixture_density,
    quantile_of,
)
from .hi_order_kernel import (
    FbetaResult,
    SigmaTooLargeError,
    approx_order_experiment,
    fbeta_closed_form,
    fbeta_iterative,
    kl_rate_experiment,
)
from .gp_prior import ConditioningError, sample_path_conditional
from .nllvm_posterior import (
    McmcConfig,
    NLLVMState,
    PosteriorSamples,
    contraction_experiment,
    fit_mcmc,
    predictive_density,
    theoretical_rate_exponent,
)
from .gpivi import (
    BayesModel,
    OptimizeResult,
    RestrictedFamily,
    SupportError,
    UnsupportedError,
    VariationalParams,
    logistic_model,
    normal_mean_model,
    normal_normal_model,
    normal_quantile_transfer,
    optimize,
    practical_objective,
    q_density,
    quadrature_posterior,
    risk_bound_rhs,
    risk_integral,
)
from .reports import CheckReport, SlopeReport, slope_fit
from .cli import Report, RunConfig, load_csv, main

__version__ = "0.1.0"

__all__ = [
    "BayesModel",
    "CheckReport",
    "ConditioningError",
    "CoverageError",
    "DIVERGENCE_KINDS",
    "FbetaResult",
    "GridDensity",
    "GridSpec",
    "HELLINGER_SQ",
    "KL",
    "L1",
    "McmcConfig",
    "NLLVMState",
    "NumericError",
    "OptimizeResult",
    "PosteriorSamples",
    "Report",
    "ResolutionError",
    "RestrictedFamily",
    "RunConfig",
    "SUP_LOG_RATIO",
    "SigmaTooLargeError",
    "SlopeReport",
    "SupportError",
    "TransferFunction",
    "UnsupportedError",
    "VariationalParams",
    "approx_order_experiment",
    "contraction_experiment",
    "convolve_gaussian",
    "divergence",
    "fbeta_closed_form",
    "fbeta_iterative",
    "fit_mcmc",
    "kl_rate_experiment",
    "load_csv",
    "logistic_model",
    "main",
    "mixture_density",
    "normal_mean_model",
    "normal_normal_model",
    "normal_quantile_transfer",
    "optimize",
    "practical_objective",
    "predictive_density",
    "q_density",
    "quadrature_posterior",
    "quantile_of",
    "risk_bound_rhs",
    "risk_integral",
    "sample_path_conditional",
    "slope_fit",
    "smooth_bump",
    "theoretical_rate_exponent",
]
