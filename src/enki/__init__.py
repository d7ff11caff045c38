"""Likelihood-free Bayesian inference with ensemble Kalman inversion.

The package bundles the inversion driver (sampling and optimisation modes
with adaptive tempering), ABC-SMC and ABC-MCMC baselines, an analytic
linear-Gaussian oracle, two benchmark simulators, and a batch experiment
harness with a CLI.

This namespace holds the entry points with their inputs and outputs; the
building blocks (update steps, moments, kernels, oracles) are imported from
the modules that define them, e.g. ``enki.inversion.eki_step``.
"""
from .baselines import AbcMcmcConfig, AbcSmcConfig, run_abc_mcmc, run_abc_smc
from .harness import ExperimentConfig, run_experiment
from .inversion import EkiConfig, RunResult, run_eki
from .models import SimulatorModel, available_models, build_model

__version__ = "0.1.0"

__all__ = [
    "run_eki",
    "EkiConfig",
    "RunResult",
    "run_abc_smc",
    "AbcSmcConfig",
    "run_abc_mcmc",
    "AbcMcmcConfig",
    "run_experiment",
    "ExperimentConfig",
    "build_model",
    "available_models",
    "SimulatorModel",
    "__version__",
]
