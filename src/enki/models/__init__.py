"""Benchmark models and the name-keyed registry the harness builds from."""
from __future__ import annotations

import inspect

import numpy as np

from ..ensembles import GaussPair
from .base import SimulatorModel, _require_int
from .gk import GkModel
from .lingauss import LinearGaussianModel
from .lorenz96 import L96Model

__all__ = [
    "SimulatorModel",
    "GkModel",
    "L96Model",
    "LinearGaussianModel",
    "available_models",
    "build_model",
    "model_note",
]


def _lingauss(d_x=3, prior_mean=None, prior_cov=None, obs_matrix=None, noise_cov=None):
    """Linear-Gaussian model with analytic posterior.

    Defaults: prior N(0, I_{d_x}), obs_matrix I and noise_cov 0.5 I.
    """
    _require_int("d_x", d_x, 1)
    mean = np.asarray(np.zeros(d_x) if prior_mean is None else prior_mean, dtype=float)
    cov = np.asarray(np.eye(d_x) if prior_cov is None else prior_cov, dtype=float)
    for name, value in (("prior_mean", mean), ("prior_cov", cov)):
        if not np.all(np.isfinite(value)):
            raise ValueError(f"{name} must be finite")
    prior = GaussPair(mean, cov)
    if obs_matrix is None:
        obs_matrix = np.eye(prior.dim)
    obs_matrix = np.atleast_2d(np.asarray(obs_matrix, dtype=float))
    if noise_cov is None:
        noise_cov = 0.5 * np.eye(obs_matrix.shape[0])
    return LinearGaussianModel(prior, obs_matrix, noise_cov)


# each factory's keyword parameters are the model's overrides
_REGISTRY = {"gk": GkModel, "l96": L96Model, "lingauss": _lingauss}


def available_models() -> list:
    """Registered model names, sorted."""
    return sorted(_REGISTRY)


def model_note(name: str) -> str:
    """One-line description of a registered model: its factory's docstring summary."""
    return inspect.getdoc(_REGISTRY[name]).partition("\n")[0]


def build_model(name: str, overrides: dict = None) -> SimulatorModel:
    """Instantiate a registered model with optional parameter overrides.

    The overrides are keyword arguments of the model's factory; any other
    name raises ValueError before the model is built.
    """
    if name not in _REGISTRY:
        raise ValueError(
            f"unknown model '{name}'; available: {', '.join(available_models())}"
        )
    factory = _REGISTRY[name]
    overrides = overrides or {}
    unknown = set(map(str, overrides)).difference(inspect.signature(factory).parameters)
    if unknown:
        raise ValueError(
            f"unknown override(s) for model '{name}': {', '.join(sorted(unknown))}"
        )
    return factory(**overrides)
