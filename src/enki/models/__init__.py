"""Benchmark models and the name-keyed registry the harness builds from."""
from __future__ import annotations

import inspect
from dataclasses import fields

import numpy as np

from ..ensembles import GaussPair
from .base import SimulatorModel, _require_int
from .gk import GkModel
from .lingauss import LinearGaussianModel
from .lorenz96 import L96Config, L96Model

__all__ = [
    "SimulatorModel",
    "GkModel",
    "L96Model",
    "LinearGaussianModel",
    "available_models",
    "build_model",
]


def _check_overrides(name: str, overrides: dict, allowed) -> None:
    unknown = set(overrides).difference(allowed)
    if unknown:
        raise ValueError(
            f"unknown override(s) for model '{name}': {', '.join(sorted(unknown))}"
        )


def _build_gk(overrides: dict) -> GkModel:
    _check_overrides("gk", overrides, inspect.signature(GkModel).parameters)
    return GkModel(**overrides)


def _build_l96(overrides: dict) -> L96Model:
    _check_overrides("l96", overrides, {f.name for f in fields(L96Config)} | {"prior_var"})
    prior_var = overrides.pop("prior_var", 5.0)
    return L96Model(L96Config(**overrides), prior_var=prior_var)


def _build_lingauss(overrides: dict) -> LinearGaussianModel:
    allowed = {"d_x", "prior_mean", "prior_cov", "obs_matrix", "noise_cov"}
    _check_overrides("lingauss", overrides, allowed)
    d_x = overrides.get("d_x", 3)
    _require_int("d_x", d_x, 1)
    mean = np.asarray(overrides.get("prior_mean", np.zeros(d_x)), dtype=float)
    cov = np.asarray(overrides.get("prior_cov", np.eye(d_x)), dtype=float)
    for name, value in (("prior_mean", mean), ("prior_cov", cov)):
        if not np.all(np.isfinite(value)):
            raise ValueError(f"{name} must be finite")
    prior = GaussPair(mean, cov)
    obs_matrix = np.asarray(overrides.get("obs_matrix", np.eye(prior.dim)), dtype=float)
    obs_matrix = np.atleast_2d(obs_matrix)
    noise_cov = np.asarray(
        overrides.get("noise_cov", 0.5 * np.eye(obs_matrix.shape[0])), dtype=float
    )
    return LinearGaussianModel(prior, obs_matrix, noise_cov)


_REGISTRY = {
    "gk": _build_gk,
    "l96": _build_l96,
    "lingauss": _build_lingauss,
}


def available_models() -> list:
    """Registered model names, sorted."""
    return sorted(_REGISTRY)


def build_model(name: str, overrides: dict = None) -> SimulatorModel:
    """Instantiate a registered model with optional parameter overrides."""
    if name not in _REGISTRY:
        raise ValueError(
            f"unknown model '{name}'; available: {', '.join(available_models())}"
        )
    return _REGISTRY[name](dict(overrides or {}))
