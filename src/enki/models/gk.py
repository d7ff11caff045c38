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
The kernel therefore sorts the deviates and evaluates Q only at the kept
ranks: 100 evaluations per dataset instead of 1000, with the same values,
since each kept value is Q of the same deviate either way. The probit map
keeps B and k in [0, upper], and a c outside [0, 0.8] is rejected.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral

import numpy as np
from scipy.special import ndtri

from .base import SimulatorModel
from .transforms import inverse_transform, transform_to_unconstrained

__all__ = ["GkParams", "gk_quantile", "GkModel"]


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
    if not np.all((u > 0.0) & (u < 1.0)):
        raise ValueError("u must lie strictly inside (0, 1)")
    out = _gk_values(ndtri(u), params)
    return float(out) if out.ndim == 0 else out


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

    Raises ValueError unless n_raw and n_stats are integers with
    1 <= n_stats <= n_raw, c lies in [0, 0.8], and upper is finite and
    positive. The probit map keeps every B and k in [0, upper].
    """

    d_x = 4

    def __init__(self, n_raw: int = 1000, n_stats: int = 100, c: float = 0.8,
                 upper: float = 10.0):
        for name, value in (("n_raw", n_raw), ("n_stats", n_stats)):
            if isinstance(value, bool) or not isinstance(value, Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if n_stats < 1:
            raise ValueError(f"n_stats must be at least 1, got {n_stats}")
        if n_stats > n_raw:
            raise ValueError(f"n_stats must not exceed n_raw, got {n_stats} > {n_raw}")
        self.n_raw = int(n_raw)
        self.n_stats = int(n_stats)
        self.d_y = self.n_stats
        self.c = float(c)
        if not 0.0 <= self.c <= 0.8:
            raise ValueError(f"c must lie in [0, 0.8] for a monotone quantile, got {c}")
        self.upper = float(upper)
        if not (math.isfinite(self.upper) and self.upper > 0.0):
            raise ValueError(f"upper must be finite and positive, got {upper}")
        self._kept = _order_stat_indices(self.n_raw, self.n_stats)

    def prior_sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        return rng.standard_normal((count, self.d_x))

    def prior_logpdf(self, params: np.ndarray) -> np.ndarray:
        params = np.atleast_2d(np.asarray(params, dtype=float))
        return -0.5 * np.sum(params**2, axis=1) - 0.5 * self.d_x * np.log(2 * np.pi)

    def simulate_batch(self, params: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Order-statistic summaries of each working-space row, shape (n, n_stats).

        The deviates are one rng.standard_normal((n, n_raw)) draw, filled row
        by row, so a batch equals the serial loop on one generator. Each row
        is sorted and Q is evaluated at the kept ranks only, which equals
        sorting all n_raw values of a non-decreasing Q. Rounding could only
        break that between deviates a few ulps apart; the tests compare the
        two orders bit for bit. Raises ValueError unless params has four
        columns and no NaN.
        """
        params = np.atleast_2d(np.asarray(params, dtype=float))
        if params.shape[1] != self.d_x:
            raise ValueError(f"params must have {self.d_x} columns")
        natural = inverse_transform(params, self.upper)
        if not np.all(np.isfinite(natural)):
            raise ValueError("params must be finite")
        z = rng.standard_normal((params.shape[0], self.n_raw))
        z.sort(axis=1)
        a, b, g, k = (natural[:, j : j + 1] for j in range(4))
        kept = z[:, self._kept]
        return _gk_values(kept, GkParams(a, b, g, k, self.c))

    def constrain(self, params: np.ndarray) -> np.ndarray:
        return inverse_transform(params, self.upper)

    def unconstrain(self, values: np.ndarray) -> np.ndarray:
        return transform_to_unconstrained(values, self.upper)

    def sample_truth(self, rng: np.random.Generator) -> np.ndarray:
        """Fixed conventional truth (3, 1, 2, 0.5), in working space."""
        return self.unconstrain(np.array([3.0, 1.0, 2.0, 0.5]))
