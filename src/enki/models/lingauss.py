"""Linear-Gaussian model with closed-form (tempered) posteriors.

The one setting where everything is analytic: prior N(m, Q), data
y = H x + N(0, R). Used as the exactness oracle for the ensemble methods,
both at full strength (posterior) and along a tempering path (noise
inflated to R / lambda).
"""
from __future__ import annotations

import numpy as np
from scipy.linalg import solve_triangular
from scipy.linalg.blas import dtrmm

from ..ensembles import GaussPair, mvn_sample
from ..linalg import chol_psd, solve_psd, symmetrize
from .base import SimulatorModel

__all__ = ["linear_gaussian_posterior", "LinearGaussianModel"]


def linear_gaussian_posterior(
    prior: GaussPair, obs_matrix: np.ndarray, noise_cov: np.ndarray, y: np.ndarray,
    lam: float = 1.0,
) -> GaussPair:
    """Exact posterior for y = H x + N(0, R / lam) with x ~ N(m, Q).

    With R' = R / lam, the likelihood raised to lam:
    m_post = m + Q H^T (H Q H^T + R')^-1 (y - H m),
    Q_post = Q - Q H^T (H Q H^T + R')^-1 H Q.
    lam = 1 is the full posterior; lam = 0 returns a copy of the prior (the
    defined limit), and a negative or NaN lam raises ValueError. Conditioning
    the tempered posterior at a with lam = h gives the one at a + h.
    """
    if not lam >= 0:  # NaN fails this test too
        raise ValueError("lambda must be nonnegative")
    if lam == 0:
        return GaussPair(prior.mean.copy(), prior.cov.copy())
    h = np.atleast_2d(np.asarray(obs_matrix, dtype=float))
    r = np.atleast_2d(np.asarray(noise_cov, dtype=float)) / lam
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


def _factor(name: str, cov: np.ndarray) -> np.ndarray:
    """Cholesky factor of cov; ValueError naming it if non-finite or not PSD."""
    try:
        return chol_psd(cov)[0]
    except np.linalg.LinAlgError as err:
        raise ValueError(f"{name} must be finite and positive semi-definite: {err}") from err


class LinearGaussianModel(SimulatorModel):
    """Simulator wrapper around the analytic model, for end-to-end runs.

    simulate_batch returns params @ H^T plus, when the noise is nonzero, one
    rng.standard_normal((n, d_y)) draw Z times L^T, L the lower noise
    factor, formed in place in Z. A factor with no nonzero entry below the
    diagonal (noted at construction) scales column j of Z by L_jj, at
    O(n d_y), bit for bit the dense Z @ L^T. Any other factor takes a
    triangular multiply (BLAS trmm), whose rows equal a serial loop on one
    generator up to the rounding of a matrix product against matrix-vector
    products.
    """

    def __init__(self, prior: GaussPair, obs_matrix: np.ndarray, noise_cov: np.ndarray):
        self.prior = prior
        self.obs_matrix = np.atleast_2d(np.asarray(obs_matrix, dtype=float))
        self.d_x = prior.dim
        self.d_y = self.obs_matrix.shape[0]
        if self.obs_matrix.shape[1] != self.d_x:
            raise ValueError("obs_matrix columns must match prior dimension")
        if not np.all(np.isfinite(self.obs_matrix)):
            raise ValueError("obs_matrix must be finite")
        noise_cov = np.atleast_2d(np.asarray(noise_cov, dtype=float))
        if noise_cov.shape != (self.d_y, self.d_y):
            raise ValueError(f"noise_cov shape {noise_cov.shape} must be ({self.d_y}, "
                             f"{self.d_y}), the obs_matrix rows")
        self.noise_cov = symmetrize(noise_cov)
        self._noise_chol = None
        self._noise_sd = None
        if self.noise_cov.any():
            self._noise_chol = _factor("noise_cov", self.noise_cov)
            if not np.tril(self._noise_chol, -1).any():
                self._noise_sd = np.diag(self._noise_chol).copy()
        self._prior_chol = _factor("prior_cov", prior.cov)

    def prior_sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        return mvn_sample(self.prior, count, rng)

    def prior_logpdf(self, params: np.ndarray) -> np.ndarray:
        params = self._batch(params)
        white = solve_triangular(
            self._prior_chol, (params - self.prior.mean).T, lower=True
        )
        logdet = np.sum(np.log(np.diag(self._prior_chol)))
        return -0.5 * np.sum(white**2, axis=0) - logdet - 0.5 * self.d_x * np.log(2 * np.pi)

    def simulate_batch(self, params: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        params = self._batch(params)
        out = params @ self.obs_matrix.T
        if self._noise_chol is not None:
            noise = rng.standard_normal((params.shape[0], self.d_y))
            if self._noise_sd is not None:
                noise *= self._noise_sd  # Z L^T scales column j of Z by L_jj
            else:
                # trmm on the Fortran views Z^T and L^T: op(L^T) Z^T = L Z^T = (Z L^T)^T
                noise = dtrmm(1.0, self._noise_chol.T, noise.T, lower=0, trans_a=1,
                              overwrite_b=1).T
            out += noise
        return out

    def posterior(self, y: np.ndarray) -> GaussPair:
        return linear_gaussian_posterior(self.prior, self.obs_matrix, self.noise_cov, y)
