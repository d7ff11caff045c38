"""Particle ensembles, their empirical moments, and Gaussian sampling.

The ensemble is the central state of every algorithm here: N parameter
particles. The data each particle simulated in a round are passed beside
it, as an (N, d_y) array. All covariances use the 1/(N-1) normalization,
and every square one is exactly symmetric.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg.blas import dgemm

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
    """N parameter particles, validated finite.

    Immutable snapshot: algorithms produce a new Ensemble per iteration.

    Parameters
    ----------
    params : (N, d_x) array
        Parameter particles, one per row.
    """

    params: np.ndarray

    def __post_init__(self):
        params = np.atleast_2d(np.asarray(self.params, dtype=float))
        object.__setattr__(self, "params", params)
        if params.ndim != 2:
            raise ValueError("params must be a 2-d array of shape (N, d_x)")
        if params.shape[0] < 2:
            raise ValueError("ensemble needs at least 2 particles")
        if not np.all(np.isfinite(params)):
            raise ValueError("params contain non-finite entries")

    @property
    def n(self) -> int:
        return self.params.shape[0]


@dataclass(frozen=True)
class MomentSet:
    """Empirical second moments of a simulated ensemble.

    ``cov_y_given_x`` estimates the likelihood's noise covariance: the
    residual covariance ``cov_yy - cov_yx (cov_xx)^-1 cov_xy`` with its
    correlations shrunk toward zero by the factor ``1 - shrinkage`` (see
    `compute_moments`). It is symmetrized but not forced positive
    semi-definite (finite-N estimates can be indefinite). ``chol_y_given_x``
    is the lower factor of ``cov_y_given_x`` under `chol_psd`'s jitter
    policy, computed on first use and then kept, so one factor serves every
    consumer of the estimate.
    """

    cov_xx: np.ndarray
    cov_xy: np.ndarray
    cov_y_given_x: np.ndarray
    shrinkage: float

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


def _round_sims(ensemble: Ensemble, sims) -> np.ndarray:
    """One round's (N, d_y) simulations as floats; ValueError unless N rows, all finite."""
    sims = np.atleast_2d(np.asarray(sims, dtype=float))
    if sims.shape[0] != ensemble.n:
        raise ValueError(f"sims rows ({sims.shape[0]}) != params rows ({ensemble.n})")
    if not np.all(np.isfinite(sims)):
        raise ValueError("sims contain non-finite entries")
    return sims


def compute_moments(ensemble: Ensemble, sims) -> MomentSet:
    """Empirical covariances of (params, sims), with a shrunk noise estimate.

    sims is one round's (N, d_y) array, row i simulated at particle i, with
    N rows, all finite (else ValueError). Covariances use 1/(N-1); the
    residual covariance C = C^yy - C^yx (C^xx)^-1 C^xy is computed via a
    linear solve against cov_xx (jitter fallback on failure), never an
    explicit inverse. cov_xx and C are exactly symmetrized; C^yy is the Gram
    yc^T yc, exactly symmetric as numpy forms it, divided and updated into C
    in place.

    From d_y summaries and N particles C is noisy, so its correlations are
    shrunk toward zero (Schaefer & Strimmer 2005, target D; Ledoit & Wolf
    2004): cov_y_given_x keeps C's diagonal and scales its off-diagonal
    entries by 1 - s, with the intensity

        s = sum_{i!=j} Var(r_ij) / sum_{i!=j} r_ij^2,  clipped to [0, 1],

    where r_ij are C's correlations and
    Var(r_ij) = n/(n-1)^3 sum_k (z_ki z_kj - mean_k z_ki z_kj)^2 over the
    regression residuals E = yc - xc (C^xx)^-1 C^xy standardized by C's
    diagonal, z = E / sqrt(diag C). It costs O(N d_y) plus elementwise
    O(d_y^2) work. A residual column without positive variance (a constant
    summary) has no correlations and is left out of s, so its row of C stays
    zero while the other columns are shrunk. s = 0, and C is returned as it
    is, when fewer than two columns remain (no correlations; likewise when
    every r_ij is 0).
    """
    x = ensemble.params
    y = _round_sims(ensemble, sims)
    n = ensemble.n
    xc = x - x.mean(axis=0)
    yc = y - y.mean(axis=0)
    cov_xx = symmetrize(xc.T @ xc / (n - 1))
    cov_xy = xc.T @ yc / (n - 1)
    # the Gram yc^T yc is exactly symmetric (numpy forms it by syrk), and
    # noise is symmetrized below, so C^yy is divided and updated in place
    noise = yc.T @ yc
    noise /= n - 1
    beta = solve_psd(cov_xx, cov_xy)
    noise -= cov_xy.T @ beta
    noise = symmetrize(noise)
    # E = yc - xc beta, written over yc: gemm updates its output in place
    resid = dgemm(-1.0, beta.T, xc.T, 1.0, yc.T, overwrite_c=True).T
    shrinkage = _correlation_shrinkage(resid, noise)
    var = np.diag(noise).copy()
    noise *= 1.0 - shrinkage
    np.fill_diagonal(noise, var)
    return MomentSet(cov_xx, cov_xy, noise, shrinkage)


def _correlation_shrinkage(resid: np.ndarray, cov: np.ndarray) -> float:
    """The intensity s of `compute_moments`; overwrites resid, the (N, d_y) E.

    With z_ki^2 = E_ki^2 / C_ii, it uses
    sum_{i!=j} sum_k z_ki^2 z_kj^2 = sum_k (sum_i z_ki^2)^2 - sum z^4, and
    takes r_ij from cov itself, so no d_y x d_y product is formed.
    """
    n = resid.shape[0]
    var = np.diag(cov)
    # a column without positive variance gets weight 0: left out of every sum
    inv = np.divide(1.0, var, out=np.zeros_like(var), where=var > 0.0)
    sq = np.square(cov)
    np.fill_diagonal(sq, 0.0)
    r2 = inv @ sq @ inv  # sum_{i!=j} r_ij^2
    if r2 == 0.0:  # nothing to shrink, as when d_y = 1
        return 0.0
    np.square(resid, out=resid)
    row = resid @ inv
    cross = row @ row - np.einsum("ki,ki->i", resid, resid) @ np.square(inv)
    var_r = n / (n - 1) ** 3 * (cross - (n - 1) ** 2 / n * r2)
    return float(np.clip(var_r / r2, 0.0, 1.0))


def ess(weights: np.ndarray) -> float:
    """Effective sample size ``1 / sum(w^2)`` of normalized weights.

    Requires nonnegative weights summing to 1 within 1e-9. Always lies in
    [1, N].
    """
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise ValueError("weights must be a nonempty vector")
    if not (w >= 0).all():  # NaN fails this test too
        raise ValueError("weights must be nonnegative and not NaN")
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
