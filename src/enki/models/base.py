"""The simulator-model interface every inference algorithm consumes.

A model is a prior sampler plus a likelihood simulator. Algorithms never
evaluate a likelihood density; they only draw from the prior and push
parameters through `simulate`. Models work in an unconstrained parameter
space; `constrain` maps particles back to the natural space for reporting.
"""
from __future__ import annotations

import numpy as np

from ..rng import ParticleStreams


class SimulatorModel:
    """Prior sampler + likelihood simulator pair.

    Subclasses set `d_x`, `d_y` and implement `prior_sample`, `simulate`,
    and `prior_logpdf`.
    """

    d_x: int
    d_y: int

    def prior_sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Draw `count` prior particles, shape (count, d_x)."""
        raise NotImplementedError

    def simulate(self, params: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Simulate one dataset for one particle, shape (d_y,)."""
        raise NotImplementedError

    def prior_logpdf(self, params: np.ndarray) -> np.ndarray:
        """Log prior density at each row of `params`, shape (n,)."""
        raise NotImplementedError

    def simulate_batch(self, params: np.ndarray, streams: ParticleStreams) -> np.ndarray:
        """Simulate one dataset per particle, shape (n, d_y).

        The default loops over particles, particle i drawing from
        `streams.particle(i)`. Subclasses may override with vectorised code
        that consumes the same per-particle streams.
        """
        params = np.atleast_2d(np.asarray(params, dtype=float))
        out = np.empty((params.shape[0], self.d_y))
        for i, row in enumerate(params):
            out[i] = self.simulate(row, streams.particle(i))
        return out

    def constrain(self, params: np.ndarray) -> np.ndarray:
        """Map working-space particles to the natural parameter space."""
        return np.asarray(params, dtype=float)

    def unconstrain(self, values: np.ndarray) -> np.ndarray:
        """Inverse of `constrain`."""
        return np.asarray(values, dtype=float)

    def sample_truth(self, rng: np.random.Generator) -> np.ndarray:
        """Working-space parameter used as ground truth in experiments.

        Defaults to a prior draw; benchmark models with a conventional
        fixed truth override this.
        """
        return self.prior_sample(1, rng)[0]
