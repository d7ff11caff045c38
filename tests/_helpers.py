"""Shared test fixtures: a scalar toy simulator and random model builders."""
from __future__ import annotations

import numpy as np
from scipy.special import gammaln, polygamma, psi

from enki.baselines import AbcMcmcConfig, AbcSmcConfig, run_abc_mcmc, run_abc_smc
from enki.ensembles import GaussPair
from enki.inversion import EkiConfig, run_eki
from enki.models.base import SimulatorModel
from enki.models.lingauss import LinearGaussianModel
from enki.models.gk import GkModel
from enki.rng import DATA, as_seed_sequence, substream


# each sampler at a small, fixed size, called as SAMPLERS[name](model, observed)
SAMPLERS = {
    "eki": lambda model, y: run_eki(model, y, EkiConfig(n_particles=40), 0),
    "abc-smc": lambda model, y: run_abc_smc(model, y, AbcSmcConfig(n_particles=40), 0),
    "abc-mcmc": lambda model, y: run_abc_mcmc(model, y, AbcMcmcConfig(n_steps=40), 0),
}


# its probit map to (0, 10) is the toy model's too
_PROBIT = GkModel()


class ToyModel(SimulatorModel):
    """Scalar location model y = theta + N(0, noise_sd^2), theta ~ U(0, 10).

    Worked on g-and-k's probit-unconstrained scale, where the prior is
    exactly standard normal. Cheap enough for brute-force rejection sampling.
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
        theta = _PROBIT.constrain(np.atleast_2d(params))[:, 0]
        return (theta + self.noise_sd * rng.standard_normal(len(theta)))[:, None]

    def constrain(self, params):
        return _PROBIT.constrain(params)


class CountingToyModel(ToyModel):
    """ToyModel that counts every simulated dataset, for budget accounting tests."""

    def __init__(self, noise_sd: float = 1.0):
        super().__init__(noise_sd)
        self.calls = 0

    def simulate_batch(self, params, rng):
        sims = super().simulate_batch(params, rng)
        self.calls += len(sims)
        return sims


class PoissonGammaModel(SimulatorModel):
    """n iid Poisson(lambda) counts, as floats, with lambda ~ Gamma(shape a, rate b).

    Worked on x = log lambda, whose prior density is
    b^a / Gamma(a) exp(a x - b e^x). The Gamma prior is conjugate, so the
    exact posterior of lambda is Gamma(a + sum y, b + n): a likelihood that
    is not additive Gaussian, with a closed-form oracle.
    """

    d_x = 1

    def __init__(self, n_obs: int = 10, shape: float = 2.0, rate: float = 0.5):
        self.d_y = n_obs
        self.shape = shape
        self.rate = rate

    def prior_sample(self, count, rng):
        return np.log(rng.gamma(self.shape, 1.0 / self.rate, size=(count, 1)))

    def prior_logpdf(self, params):
        x = np.atleast_2d(params)[:, 0]
        a, b = self.shape, self.rate
        return a * np.log(b) - gammaln(a) + a * x - b * np.exp(x)

    def simulate_batch(self, params, rng):
        rate = np.exp(self._batch(params))
        return rng.poisson(rate, size=(len(rate), self.d_y)).astype(float)

    def posterior_mean_sd(self, observed) -> tuple:
        """Exact posterior mean psi(a + sum y) - log(b + n) and sd sqrt(psi'(a + sum y)) of x."""
        shape = self.shape + np.sum(observed)
        mean = psi(shape) - np.log(self.rate + self.d_y)
        return float(mean), float(np.sqrt(polygamma(1, shape)))


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
