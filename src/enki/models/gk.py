"""The g-and-k distribution benchmark.

A four-parameter family defined through its quantile function; sampling is
trivial (push normal deviates through the quantile) but the density has no
closed form, which makes it a standard likelihood-free test problem. One
dataset is 1000 i.i.d. draws compressed into 100 evenly spaced order
statistics. Parameters live in (0, 10) and are handled internally on the
probit-unconstrained scale, where the uniform prior becomes standard normal.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from ..rng import ParticleStreams
from .base import SimulatorModel
from .transforms import inverse_transform, transform_to_unconstrained

__all__ = ["GkParams", "gk_quantile", "gk_simulate_summaries", "GkModel"]


@dataclass(frozen=True)
class GkParams:
    """Location A, scale B, skewness g, kurtosis k, and the fixed constant c."""

    A: float
    B: float
    g: float
    k: float
    c: float = 0.8


def _gk_values(z, params: GkParams):
    # (1 - e^{-gz}) / (1 + e^{-gz}) written as tanh(gz/2) to avoid overflow.
    skew = 1.0 + params.c * np.tanh(params.g * z / 2.0)
    return params.A + params.B * skew * (1.0 + z**2) ** params.k * z


def gk_quantile(u, params: GkParams):
    """Quantile function A + B(1 + c tanh(gz/2))(1+z^2)^k z, z = ndtri(u).

    Vectorized over `u`; every component must lie strictly inside (0, 1).
    """
    u = np.asarray(u, dtype=float)
    if np.any(u <= 0.0) or np.any(u >= 1.0):
        raise ValueError("u must lie strictly inside (0, 1)")
    out = _gk_values(ndtri(u), params)
    return float(out) if out.ndim == 0 else out


def _order_stat_indices(n_raw: int, n_stats: int) -> np.ndarray:
    # 1-based ranks (j+1)*n_raw/n_stats for j = 0..n_stats-1, i.e. every
    # (n_raw/n_stats)-th sorted value up to and including the maximum.
    ranks = (np.arange(1, n_stats + 1) * n_raw) // n_stats
    return ranks - 1


def _simulate_rows(
    params: np.ndarray, c: float, n_raw: int, n_stats: int, rngs: list
) -> np.ndarray:
    """Order-statistic summaries of each natural-scale row (A, B, g, k).

    Row i draws its n_raw standard normal deviates from rngs[i]; the result
    has shape (n, n_stats).
    """
    z = np.empty((len(rngs), n_raw))
    for i, rng in enumerate(rngs):
        z[i] = rng.standard_normal(n_raw)
    a, b, g, k = (params[:, j : j + 1] for j in range(4))
    vals = np.sort(_gk_values(z, GkParams(a, b, g, k, c)), axis=1)
    return vals[:, _order_stat_indices(n_raw, n_stats)]


def gk_simulate_summaries(
    params: GkParams, n_raw: int = 1000, n_stats: int = 100, rng: np.random.Generator = None
) -> np.ndarray:
    """One dataset: n_raw i.i.d. g-and-k draws reduced to n_stats order statistics.

    Draws standard normal deviates directly (equivalent to uniforms pushed
    through the normal quantile, and safe at the open-interval endpoints),
    evaluates the quantile expression, sorts, and keeps every
    (n_raw/n_stats)-th value. Output is non-decreasing.
    """
    if n_stats > n_raw:
        raise ValueError("n_stats must not exceed n_raw")
    if rng is None:
        raise ValueError("an explicit rng is required")
    row = np.array([[params.A, params.B, params.g, params.k]], dtype=float)
    return _simulate_rows(row, params.c, n_raw, n_stats, [rng])[0]


class GkModel(SimulatorModel):
    """g-and-k inference problem on the unconstrained parameter scale.

    Working-space particles are probit-unconstrained (A, B, g, k); the prior
    Uniform(0, 10)^4 on the natural scale is exactly N(0, I) here. The
    conventional ground truth is (3, 1, 2, 1/2).
    """

    name = "gk"
    d_x = 4

    def __init__(self, n_raw: int = 1000, n_stats: int = 100, c: float = 0.8,
                 upper: float = 10.0):
        if n_stats > n_raw:
            raise ValueError("n_stats must not exceed n_raw")
        self.n_raw = int(n_raw)
        self.n_stats = int(n_stats)
        self.d_y = self.n_stats
        self.c = float(c)
        self.upper = float(upper)

    def prior_sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        return rng.standard_normal((count, self.d_x))

    def prior_logpdf(self, params: np.ndarray) -> np.ndarray:
        params = np.atleast_2d(np.asarray(params, dtype=float))
        return -0.5 * np.sum(params**2, axis=1) - 0.5 * self.d_x * np.log(2 * np.pi)

    def _params_from_working(self, theta: np.ndarray) -> GkParams:
        a, b, g, k = inverse_transform(theta, self.upper)
        return GkParams(a, b, g, k, self.c)

    def simulate(self, params: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        return gk_simulate_summaries(
            self._params_from_working(params), self.n_raw, self.n_stats, rng
        )

    def simulate_batch(self, params: np.ndarray, streams: ParticleStreams) -> np.ndarray:
        params = np.atleast_2d(np.asarray(params, dtype=float))
        rngs = [streams.particle(i) for i in range(params.shape[0])]
        natural = inverse_transform(params, self.upper)
        return _simulate_rows(natural, self.c, self.n_raw, self.n_stats, rngs)

    def constrain(self, params: np.ndarray) -> np.ndarray:
        return inverse_transform(params, self.upper)

    def unconstrain(self, values: np.ndarray) -> np.ndarray:
        return transform_to_unconstrained(values, self.upper)

    def sample_truth(self, rng: np.random.Generator) -> np.ndarray:
        """Fixed conventional truth (3, 1, 2, 0.5), in working space."""
        return self.unconstrain(np.array([3.0, 1.0, 2.0, 0.5]))
