"""Benchmark models and the name-keyed registry the harness builds from."""
from __future__ import annotations

import inspect

import numpy as np

from ..ensembles import GaussPair
from .base import SimulatorModel, _require_int, _require_reals
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


def _lingauss(d_x=None, prior_mean=None, prior_cov=None, obs_matrix=None, noise_cov=None):
    """Linear-Gaussian model with analytic posterior.

    Defaults: prior N(0, I_{d_x}), obs_matrix I and noise_cov 0.5 I, with
    d_x taken from d_x, prior_mean or prior_cov, whichever is given, and 3
    when none is. Sizes that disagree raise ValueError naming both fields. A
    matrix or vector given must be a (nested) sequence of finite real numbers,
    and a prior_mean must not be empty.
    """
    sizes = []
    if d_x is not None:
        _require_int("d_x", d_x, 1)
        sizes.append(("d_x", d_x))
    if prior_mean is not None:
        prior_mean = _require_reals("prior_mean", prior_mean)
        if prior_mean.ndim != 1:
            raise ValueError(f"prior_mean must be a vector, got shape {prior_mean.shape}")
        if prior_mean.size == 0:
            raise ValueError("prior_mean must not be empty")
        sizes.append(("prior_mean length", len(prior_mean)))
    if prior_cov is not None:
        prior_cov = np.atleast_2d(_require_reals("prior_cov", prior_cov))
        if prior_cov.ndim != 2 or prior_cov.shape[0] != prior_cov.shape[1]:
            raise ValueError(f"prior_cov must be a square matrix, got shape {prior_cov.shape}")
        sizes.append(("prior_cov size", len(prior_cov)))
    dim = sizes[0][1] if sizes else 3
    for name, size in sizes[1:]:
        if size != dim:
            raise ValueError(f"{name} {size} does not match {sizes[0][0]} {dim}")
    mean = np.zeros(dim) if prior_mean is None else prior_mean
    cov = np.eye(dim) if prior_cov is None else prior_cov
    prior = GaussPair(mean, cov)
    h = np.eye(dim) if obs_matrix is None else _require_reals("obs_matrix", obs_matrix)
    h = np.atleast_2d(h)
    r = 0.5 * np.eye(h.shape[0]) if noise_cov is None else _require_reals("noise_cov", noise_cov)
    return LinearGaussianModel(prior, h, r)


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
