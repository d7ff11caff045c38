"""Particle ensembles, their empirical moments, and Gaussian sampling.

The ensemble is the central state of every algorithm here: N parameter
particles, optionally paired with the data each particle simulated. All
covariances use the 1/(N-1) normalization and are explicitly symmetrized.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import chol_psd, solve_psd, symmetrize

__all__ = [
    "Ensemble",
    "MomentSet",
    "GaussPair",
    "compute_moments",
    "ess",
    "mvn_sample",
]


@dataclass(frozen=True)
class Ensemble:
    """N parameter particles plus (optionally) their simulated data.

    Immutable snapshot: algorithms produce a new Ensemble per iteration.

    Parameters
    ----------
    params : (N, d_x) array
        Parameter particles, one per row.
    sims : (N, d_y) array, optional
        Simulated data for each particle; absent before the first
        simulation round.
    """

    params: np.ndarray
    sims: np.ndarray | None = None

    def __post_init__(self):
        params = np.atleast_2d(np.asarray(self.params, dtype=float))
        object.__setattr__(self, "params", params)
        if params.ndim != 2:
            raise ValueError("params must be a 2-d array of shape (N, d_x)")
        if params.shape[0] < 2:
            raise ValueError("ensemble needs at least 2 particles")
        if not np.all(np.isfinite(params)):
            raise ValueError("params contain non-finite entries")
        if self.sims is not None:
            sims = np.atleast_2d(np.asarray(self.sims, dtype=float))
            object.__setattr__(self, "sims", sims)
            if sims.shape[0] != params.shape[0]:
                raise ValueError(
                    f"sims rows ({sims.shape[0]}) != params rows ({params.shape[0]})"
                )
            if not np.all(np.isfinite(sims)):
                raise ValueError("sims contain non-finite entries")

    @property
    def n(self) -> int:
        return self.params.shape[0]

    @property
    def d_x(self) -> int:
        return self.params.shape[1]

    def with_sims(self, sims: np.ndarray) -> "Ensemble":
        """Same particles with a fresh simulation round attached."""
        return Ensemble(self.params, sims=sims)


@dataclass(frozen=True)
class MomentSet:
    """Empirical second moments of a simulated ensemble.

    ``cov_y_given_x`` estimates the likelihood's noise covariance,
    ``cov_yy - cov_yx (cov_xx)^-1 cov_xy``; it is symmetrized but not
    forced positive semi-definite (finite-N estimates can be indefinite).
    ``chol_y_given_x`` is its lower factor under `chol_psd`'s jitter policy,
    computed on first use and then kept, so one factor serves every
    consumer of the estimate.
    """

    cov_xx: np.ndarray
    cov_xy: np.ndarray
    cov_yy: np.ndarray
    cov_y_given_x: np.ndarray

    @cached_property
    def chol_y_given_x(self) -> np.ndarray:
        low, _ = chol_psd(self.cov_y_given_x)
        return low


@dataclass(frozen=True)
class GaussPair:
    """A mean vector and symmetric PSD covariance matrix."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        cov = np.atleast_2d(np.asarray(self.cov, dtype=float))
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)
        if mean.ndim != 1:
            raise ValueError("mean must be a vector")
        if cov.shape != (mean.size, mean.size):
            raise ValueError(f"cov shape {cov.shape} does not match dim {mean.size}")
        if not np.all(np.isfinite(mean)) or not np.all(np.isfinite(cov)):
            raise ValueError("non-finite mean or covariance")
        if not np.allclose(cov, cov.T, atol=1e-8, rtol=1e-8):
            raise ValueError("covariance is not symmetric")

    @property
    def dim(self) -> int:
        return self.mean.size


def compute_moments(ensemble: Ensemble) -> MomentSet:
    """Empirical covariances of (params, sims).

    Covariances use 1/(N-1); the conditional covariance is computed via a
    linear solve against cov_xx (jitter fallback on failure), never an
    explicit inverse. All square outputs are exactly symmetrized.
    """
    if ensemble.sims is None:
        raise ValueError("ensemble has no simulated data; run the simulator first")
    x = ensemble.params
    y = ensemble.sims
    n = ensemble.n
    xc = x - x.mean(axis=0)
    yc = y - y.mean(axis=0)
    cov_xx = symmetrize(xc.T @ xc / (n - 1))
    cov_xy = xc.T @ yc / (n - 1)
    cov_yy = symmetrize(yc.T @ yc / (n - 1))
    # C^yy - C^yx (C^xx)^-1 C^xy, the estimate of the likelihood noise.
    cov_y_given_x = symmetrize(cov_yy - cov_xy.T @ solve_psd(cov_xx, cov_xy))
    return MomentSet(cov_xx, cov_xy, cov_yy, cov_y_given_x)


def ess(weights: np.ndarray) -> float:
    """Effective sample size ``1 / sum(w^2)`` of normalized weights.

    Requires nonnegative weights summing to 1 within 1e-9. Always lies in
    [1, N].
    """
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise ValueError("weights must be a nonempty vector")
    if np.any(w < 0):
        raise ValueError("weights must be nonnegative")
    total = w.sum()
    if total == 0:
        raise ValueError("weights sum to zero")
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"weights must be normalized (sum = {total!r})")
    return float(1.0 / np.dot(w, w))


def mvn_sample(gauss: GaussPair, count: int, rng: np.random.Generator) -> np.ndarray:
    """Draw `count` samples from N(mean, cov), deterministic given `rng`.

    A zero covariance returns exact copies of the mean; otherwise the
    covariance is factored under the jitter policy.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    d = gauss.dim
    if count == 0:
        return np.empty((0, d))
    if not gauss.cov.any():
        return np.tile(gauss.mean, (count, 1))
    low, _ = chol_psd(gauss.cov)
    z = rng.standard_normal((count, d))
    return gauss.mean + z @ low.T
