"""The g-and-k distribution benchmark.

A four-parameter family defined through its quantile function; sampling is
trivial (push normal deviates through the quantile) but the density has no
closed form, which makes it a standard likelihood-free test problem. One
dataset is 1000 i.i.d. draws compressed into 100 evenly spaced order
statistics. Parameters live in (0, 10) and are handled internally on the
probit-unconstrained scale, where the uniform prior becomes standard normal.

For B >= 0, k >= 0 and 0 <= c <= 0.8 the quantile Q(z) is non-decreasing in
the normal deviate z (Rayner & MacGillivray 2002), so the j-th order
statistic of the draws Q(z_i) is Q at the j-th order statistic of the z_i.
The kernel therefore draws only the kept order statistics of the deviates,
with their exact joint law. By the Renyi representation of uniform spacings
(Devroye 1986, Non-Uniform Random Variate Generation, ch. V), the r-th of
n_raw sorted uniforms is S_r / S, where S_r sums r i.i.d. Exp(1) variables
and S sums n_raw + 1 of them. The sum between two kept ranks is one Gamma
variate, so a dataset costs n_stats + 1 gamma draws, n_stats probits and
n_stats evaluations of Q: 101, 100 and 100 for the default sizes, instead
of 1000 normals and a sort. The probit map keeps B and k in [0, upper], and
a c outside [0, 0.8] is rejected.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.special import ndtr, ndtri

from .base import SimulatorModel, _require_int, _require_real

__all__ = ["GkModel"]


def _gk_values(z, a, b, g, k, c):
    """Quantile Q(z) = a + b (1 + c tanh(gz/2)) (1 + z^2)^k z at normal deviates z.

    Q(ndtri(u)) is the g-and-k quantile at u in (0, 1); broadcasts.
    """
    # (1 - e^{-gz}) / (1 + e^{-gz}) written as tanh(gz/2) to avoid overflow.
    skew = 1.0 + c * np.tanh(g * z / 2.0)
    return a + b * skew * (1.0 + z**2) ** k * z


def _order_stat_indices(n_raw: int, n_stats: int) -> np.ndarray:
    # 1-based ranks (j+1)*n_raw/n_stats for j = 0..n_stats-1, i.e. every
    # (n_raw/n_stats)-th sorted value up to and including the maximum.
    ranks = (np.arange(1, n_stats + 1) * n_raw) // n_stats
    return ranks - 1


class GkModel(SimulatorModel):
    """g-and-k inference problem on the unconstrained parameter scale.

    Working-space particles are probit-unconstrained (A, B, g, k); the prior
    Uniform(0, 10)^4 on the natural scale is exactly N(0, I) here. The
    conventional ground truth is (3, 1, 2, 1/2).

    Raises TypeError unless n_raw and n_stats are integers and c and upper
    real numbers, and ValueError unless 1 <= n_stats <= n_raw, c lies in
    [0, 0.8], and upper is finite and positive. The probit map keeps every
    B and k in [0, upper].
    """

    d_x = 4

    def __init__(self, n_raw: int = 1000, n_stats: int = 100, c: float = 0.8,
                 upper: float = 10.0):
        _require_int("n_stats", n_stats, 1)
        _require_int("n_raw", n_raw, n_stats)
        self.n_raw = int(n_raw)
        self.n_stats = int(n_stats)
        self.d_y = self.n_stats
        self.c = _require_real("c", c)
        if not 0.0 <= self.c <= 0.8:
            raise ValueError(f"c must lie in [0, 0.8] for a monotone quantile, got {c}")
        self.upper = _require_real("upper", upper)
        if not (math.isfinite(self.upper) and self.upper > 0.0):
            raise ValueError(f"upper must be finite and positive, got {upper}")
        # Gamma shapes of the spacings: up to the first kept rank, between
        # consecutive kept ranks, and from the last one to n_raw + 1
        ranks = _order_stat_indices(self.n_raw, self.n_stats) + 1
        self._gaps = np.diff(ranks, prepend=0, append=self.n_raw + 1).astype(float)
        self._log_norm = 0.5 * self.d_x * np.log(2 * np.pi)

    def prior_sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        return rng.standard_normal((count, self.d_x))

    def prior_logpdf(self, params: np.ndarray) -> np.ndarray:
        params = self._batch(params)
        return -0.5 * np.sum(params**2, axis=1) - self._log_norm

    def simulate_batch(self, params: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Order-statistic summaries of each working-space row, shape (n, n_stats).

        The spacings are one rng.standard_gamma(gaps, (n, n_stats + 1)) draw,
        filled row by row, so a batch equals the serial loop on one
        generator. With S_r a row's sum up to the r-th kept rank and S its
        total, a kept deviate is ndtri(S_r / S) while S_r <= S - S_r and
        -ndtri((S - S_r) / S) after that, with S - S_r summed from the top,
        so both tails keep full relative precision and rows stay
        non-decreasing. Raises ValueError unless params has four columns and
        no NaN.
        """
        params = self._batch(params)
        natural = self.upper * ndtr(params)
        if not np.isfinite(natural).all():
            raise ValueError("params must be finite")
        spacings = rng.standard_gamma(self._gaps, (params.shape[0], self.n_stats + 1))
        below = np.add.accumulate(spacings, axis=1)
        total = below[:, -1:]
        below = below[:, :-1]
        above = np.add.accumulate(spacings[:, :0:-1], axis=1)[:, ::-1]
        upper = above < below
        z = ndtri(np.minimum(above, below) / total)
        np.negative(z, out=z, where=upper)
        a, b, g, k = natural.T[:, :, None]
        return _gk_values(z, a, b, g, k, self.c)

    def constrain(self, params: np.ndarray) -> np.ndarray:
        return self.upper * ndtr(params)

    def unconstrain(self, values: np.ndarray) -> np.ndarray:
        """ndtri(values / upper); ValueError unless inside (0, upper) componentwise."""
        values = np.asarray(values, dtype=float)
        if np.any(values <= 0.0) or np.any(values >= self.upper):
            raise ValueError(f"components must lie strictly inside (0, {self.upper})")
        return ndtri(values / self.upper)

    def sample_truth(self, rng: np.random.Generator) -> np.ndarray:
        """Fixed conventional truth (3, 1, 2, 0.5), in working space."""
        return self.unconstrain(np.array([3.0, 1.0, 2.0, 0.5]))
