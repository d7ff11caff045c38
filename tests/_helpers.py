"""Shared test fixtures: a scalar toy simulator and random model builders."""
from __future__ import annotations

import numpy as np

from enki.ensembles import GaussPair
from enki.models.base import SimulatorModel
from enki.models.lingauss import LinearGaussianModel
from enki.models.transforms import inverse_transform
from enki.rng import DATA, as_seed_sequence, substream


class ToyModel(SimulatorModel):
    """Scalar location model y = theta + N(0, noise_sd^2), theta ~ U(0, 10).

    Worked on the probit-unconstrained scale, where the prior is exactly
    standard normal. Cheap enough for brute-force rejection sampling.
    """

    d_x = 1
    d_y = 1

    def __init__(self, noise_sd: float = 1.0):
        self.noise_sd = float(noise_sd)

    def prior_sample(self, count, rng):
        return rng.standard_normal((count, 1))

    def prior_logpdf(self, params):
        params = np.atleast_2d(params)
        return -0.5 * np.sum(params**2, axis=1) - 0.5 * np.log(2 * np.pi)

    def simulate_batch(self, params, rng):
        theta = inverse_transform(np.atleast_2d(params))[:, 0]
        return (theta + self.noise_sd * rng.standard_normal(len(theta)))[:, None]

    def constrain(self, params):
        return inverse_transform(params)


class CountingToyModel(ToyModel):
    """ToyModel that counts every simulated dataset, for budget accounting tests."""

    def __init__(self, noise_sd: float = 1.0):
        super().__init__(noise_sd)
        self.calls = 0

    def simulate_batch(self, params, rng):
        sims = super().simulate_batch(params, rng)
        self.calls += len(sims)
        return sims


def random_spd(rng: np.random.Generator, d: int, floor: float = 0.5) -> np.ndarray:
    a = rng.normal(size=(d, d))
    return a @ a.T + floor * np.eye(d)


def random_lingauss(rng: np.random.Generator, d_x: int, d_y: int) -> LinearGaussianModel:
    prior = GaussPair(rng.normal(size=d_x), random_spd(rng, d_x))
    obs_matrix = rng.normal(size=(d_y, d_x))
    return LinearGaussianModel(prior, obs_matrix, random_spd(rng, d_y))


def draw_observation(model: SimulatorModel, seed: int):
    """(root, truth, observed) under the experiment harness's stream layout.

    The harness draws truth and observation from one sequential DATA
    substream of the per-cell root; tests that pin measured numbers must
    use the identical layout.
    """
    root = as_seed_sequence(seed)
    data_rng = substream(root, DATA)
    truth = model.sample_truth(data_rng)
    observed = model.simulate(truth, data_rng)
    return root, truth, observed
