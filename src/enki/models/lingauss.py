"""Linear-Gaussian model with closed-form (tempered) posteriors.

The one setting where everything is analytic: prior N(m, Q), data
y = H x + N(0, R). Used as the exactness oracle for the ensemble methods,
both at full strength (posterior) and along a tempering path (noise
inflated to R / lambda).
"""
from __future__ import annotations

import numpy as np
from scipy.linalg import solve_triangular

from ..ensembles import GaussPair, mvn_sample
from ..linalg import chol_psd, solve_psd, symmetrize
from .base import SimulatorModel

__all__ = [
    "linear_gaussian_posterior",
    "linear_gaussian_tempered",
    "tempered_recursion_step",
    "LinearGaussianModel",
]


def linear_gaussian_posterior(
    prior: GaussPair, obs_matrix: np.ndarray, noise_cov: np.ndarray, y: np.ndarray
) -> GaussPair:
    """Exact posterior for y = H x + N(0, R) with x ~ N(m, Q).

    m_post = m + Q H^T (H Q H^T + R)^-1 (y - H m),
    Q_post = Q - Q H^T (H Q H^T + R)^-1 H Q.
    """
    h = np.atleast_2d(np.asarray(obs_matrix, dtype=float))
    r = np.atleast_2d(np.asarray(noise_cov, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    q = prior.cov
    if h.shape != (y.size, prior.dim):
        raise ValueError(f"obs_matrix shape {h.shape} incompatible with model")
    if r.shape != (y.size, y.size):
        raise ValueError("noise_cov shape incompatible with y")
    hq = h @ q
    innov_cov = symmetrize(hq @ h.T + r)
    gain = solve_psd(innov_cov, hq).T
    mean = prior.mean + gain @ (y - h @ prior.mean)
    cov = symmetrize(q - gain @ hq)
    return GaussPair(mean, cov)


def linear_gaussian_tempered(
    prior: GaussPair, obs_matrix, noise_cov, y, lam: float
) -> GaussPair:
    """Tempered posterior: likelihood raised to lam, i.e. noise R / lam.

    lam = 0 returns the prior (the defined limit)."""
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    if lam == 0:
        return GaussPair(prior.mean.copy(), prior.cov.copy())
    r = np.atleast_2d(np.asarray(noise_cov, dtype=float))
    return linear_gaussian_posterior(prior, obs_matrix, r / lam, y)


def tempered_recursion_step(
    current: GaussPair, obs_matrix, noise_cov, y, h: float
) -> GaussPair:
    """One incremental tempering update of size h: condition on noise R / h."""
    if h <= 0:
        raise ValueError("stepsize h must be positive")
    r = np.atleast_2d(np.asarray(noise_cov, dtype=float))
    return linear_gaussian_posterior(current, obs_matrix, r / h, y)


class LinearGaussianModel(SimulatorModel):
    """Simulator wrapper around the analytic model, for end-to-end runs.

    simulate_batch returns params @ H^T plus, when the noise is nonzero, one
    rng.standard_normal((n, d_y)) draw through the noise factor L^T. Rows
    equal a serial loop on one generator up to the rounding of a matrix
    product against matrix-vector products.
    """

    def __init__(self, prior: GaussPair, obs_matrix: np.ndarray, noise_cov: np.ndarray):
        self.prior = prior
        self.obs_matrix = np.atleast_2d(np.asarray(obs_matrix, dtype=float))
        self.noise_cov = symmetrize(np.atleast_2d(np.asarray(noise_cov, dtype=float)))
        self.d_x = prior.dim
        self.d_y = self.obs_matrix.shape[0]
        if self.obs_matrix.shape[1] != self.d_x:
            raise ValueError("obs_matrix columns must match prior dimension")
        if not np.all(np.isfinite(self.obs_matrix)):
            raise ValueError("obs_matrix must be finite")
        if self.noise_cov.shape != (self.d_y, self.d_y):
            raise ValueError("noise_cov shape must match obs_matrix rows")
        if self.noise_cov.any():
            self._noise_chol, _ = chol_psd(self.noise_cov)
        else:
            self._noise_chol = None
        self._prior_chol, _ = chol_psd(prior.cov)

    def prior_sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        return mvn_sample(self.prior, count, rng)

    def prior_logpdf(self, params: np.ndarray) -> np.ndarray:
        params = np.atleast_2d(np.asarray(params, dtype=float))
        white = solve_triangular(
            self._prior_chol, (params - self.prior.mean).T, lower=True
        )
        logdet = np.sum(np.log(np.diag(self._prior_chol)))
        return -0.5 * np.sum(white**2, axis=0) - logdet - 0.5 * self.d_x * np.log(2 * np.pi)

    def simulate_batch(self, params: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        params = np.atleast_2d(np.asarray(params, dtype=float))
        out = params @ self.obs_matrix.T
        if self._noise_chol is not None:
            out += rng.standard_normal((params.shape[0], self.d_y)) @ self._noise_chol.T
        return out

    def posterior(self, y: np.ndarray) -> GaussPair:
        return linear_gaussian_posterior(self.prior, self.obs_matrix, self.noise_cov, y)
