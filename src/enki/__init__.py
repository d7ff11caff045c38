"""Likelihood-free Bayesian inference with ensemble Kalman inversion.

The package bundles the inversion driver (sampling and optimisation modes
with adaptive tempering), ABC-SMC and ABC-MCMC baselines, an analytic
linear-Gaussian oracle, two benchmark simulators, and a batch experiment
harness with a CLI.
"""
from .baselines import (
    AbcMcmcConfig,
    AbcSmcConfig,
    RunningMoments,
    abc_accept,
    run_abc_mcmc,
    run_abc_smc,
    systematic_resample,
)
from .ensembles import Ensemble, GaussPair, MomentSet, compute_moments, ess, mvn_sample
from .harness import ExperimentConfig, rmse, run_experiment
from .inversion import (
    EkiConfig,
    RunResult,
    TemperSchedule,
    eki_step,
    gaussian_eki_step,
    run_eki,
    select_next_lambda,
    stop_discrepancy,
    stop_optimisation,
    stop_sampling,
)
from .models import (
    GkModel,
    GkParams,
    L96Config,
    L96Model,
    LinearGaussianModel,
    SimulatorModel,
    available_models,
    build_model,
    gk_quantile,
    gk_simulate_summaries,
    inverse_transform,
    l96_drift,
    l96_simulate,
    linear_gaussian_posterior,
    linear_gaussian_tempered,
    tempered_recursion_step,
    transform_to_unconstrained,
)

__version__ = "0.1.0"

__all__ = [
    "AbcMcmcConfig",
    "AbcSmcConfig",
    "RunningMoments",
    "abc_accept",
    "run_abc_mcmc",
    "run_abc_smc",
    "systematic_resample",
    "Ensemble",
    "GaussPair",
    "MomentSet",
    "compute_moments",
    "ess",
    "mvn_sample",
    "ExperimentConfig",
    "rmse",
    "run_experiment",
    "EkiConfig",
    "RunResult",
    "TemperSchedule",
    "eki_step",
    "gaussian_eki_step",
    "run_eki",
    "select_next_lambda",
    "stop_discrepancy",
    "stop_optimisation",
    "stop_sampling",
    "GkModel",
    "GkParams",
    "L96Config",
    "L96Model",
    "LinearGaussianModel",
    "SimulatorModel",
    "available_models",
    "build_model",
    "gk_quantile",
    "gk_simulate_summaries",
    "inverse_transform",
    "l96_drift",
    "l96_simulate",
    "linear_gaussian_posterior",
    "linear_gaussian_tempered",
    "tempered_recursion_step",
    "transform_to_unconstrained",
    "__version__",
]
