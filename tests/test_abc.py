"""ABC-SMC and ABC-MCMC: primitives, adaptation laws, end-to-end behavior."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enki.baselines import (
    AbcMcmcConfig,
    AbcSmcConfig,
    RunningMoments,
    run_abc_mcmc,
    run_abc_smc,
    systematic_resample,
)
from enki.inversion import EkiConfig, run_eki
from enki.models import build_model
from enki.rng import ALGO, as_seed_sequence, derive

from _helpers import CountingToyModel, ToyModel, draw_observation


# ------------------------------------------------------------------ primitives

def test_systematic_resample_concentrated_weight():
    w = np.array([0.0, 0.0, 1.0, 0.0])
    idx = systematic_resample(w, np.random.default_rng(0))
    assert np.all(idx == 2)


def test_systematic_resample_uniform_is_identity_like():
    # with equal weights every particle lands exactly once
    idx = systematic_resample(np.full(10, 0.1), np.random.default_rng(1))
    assert sorted(idx.tolist()) == list(range(10))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(1e-3, 1.0), min_size=2, max_size=30), st.integers(0, 2**31))
def test_systematic_resample_count_accuracy(raw, seed):
    # stratified counts can miss N * w_i by less than one draw
    w = np.asarray(raw)
    w = w / w.sum()
    idx = systematic_resample(w, np.random.default_rng(seed))
    counts = np.bincount(idx, minlength=w.size)
    assert idx.size == w.size
    assert np.all(np.abs(counts - w.size * w) < 1.0)


def test_systematic_resample_input_contract():
    with pytest.raises(ValueError):
        systematic_resample(np.array([0.5, -0.5]), np.random.default_rng(0))
    with pytest.raises(ValueError):
        systematic_resample(np.zeros(3), np.random.default_rng(0))


def test_running_moments_match_batch_estimates():
    rng = np.random.default_rng(0)
    xs = rng.normal(size=(200, 3))
    run = RunningMoments(3)
    for x in xs:
        run.update(x)
    assert run.count == 200
    assert np.allclose(run.mean, xs.mean(axis=0))
    assert np.allclose(run.cov, np.cov(xs.T, ddof=1))


def test_running_moments_cold_start():
    run = RunningMoments(2)
    assert np.array_equal(run.cov, np.zeros((2, 2)))
    run.update(np.array([1.0, 2.0]))
    assert np.array_equal(run.cov, np.zeros((2, 2)))  # one point: no spread yet
    assert np.allclose(run.mean, [1.0, 2.0])


@settings(max_examples=30, deadline=None)
@given(st.floats(0.1, 100.0))
def test_running_moments_scale_equivariance(scale):
    xs = np.random.default_rng(5).normal(size=(50, 2))
    a, b = RunningMoments(2), RunningMoments(2)
    for x in xs:
        a.update(x)
        b.update(scale * x)
    assert np.allclose(b.mean, scale * a.mean)
    assert np.allclose(b.cov, scale**2 * a.cov, rtol=1e-9)


# --------------------------------------------------------------------- ABC-SMC

@pytest.fixture(scope="module")
def smc_run():
    model = ToyModel()
    _, truth, y = draw_observation(model, 3)
    root = as_seed_sequence(3)
    res = run_abc_smc(model, y, AbcSmcConfig(n_particles=500), derive(root, ALGO))
    return model, truth, y, res


def test_smc_kappa_strictly_decreasing(smc_run):
    _, _, _, res = smc_run
    kappas = res.diagnostics["kappas"]
    assert len(kappas) >= 3
    assert all(b < a for a, b in zip(kappas, kappas[1:]))


def test_smc_stops_on_acceptance_rate(smc_run):
    _, _, _, res = smc_run
    assert res.termination_reason == "acceptance"
    rates = res.diagnostics["acceptance_rates"]
    assert rates[-1] < 0.015
    assert all(r >= 0.015 for r in rates[:-1])


def test_smc_ess_follows_relative_target(smc_run):
    # each adaptation aims at 0.9 x the current ESS (reset to N by a
    # resample); with indicator weights the ESS moves in unit jumps, so
    # misses beyond 2% of N must appear in the infeasible log
    _, _, _, res = smc_run
    ess = res.diagnostics["ess"]
    infeasible = set(res.diagnostics["infeasible_at"])
    resampled = set(res.diagnostics["resampled_at"])
    n = 500
    for it in range(1, len(ess)):
        prev = float(n) if (it - 1) in resampled else ess[it - 1]
        if it not in infeasible:
            assert abs(ess[it] - 0.9 * prev) <= 0.02 * n


def test_smc_posterior_concentrates(smc_run):
    model, truth, y, res = smc_run
    final = model.constrain(res.ensemble.params)[:, 0]
    # every surviving particle simulated within the final kappa at least once;
    # with unit observation noise the cloud sits around the data
    assert abs(np.median(final) - y[0]) < 1.5
    assert res.sim_count > 500  # rejuvenation rounds all counted


def test_smc_bitwise_reproducible():
    model = ToyModel()
    _, _, y = draw_observation(model, 4)
    cfg = AbcSmcConfig(n_particles=100)
    a = run_abc_smc(model, y, cfg, 21)
    b = run_abc_smc(model, y, cfg, 21)
    assert np.array_equal(a.ensemble.params, b.ensemble.params)
    assert a.diagnostics["kappas"] == b.diagnostics["kappas"]
    assert a.sim_count == b.sim_count


def test_smc_config_invariant_chain():
    # the tuning constants are fixed: passing one is an unknown field
    for name in ("ess_kappa_target", "stop_acceptance", "initial_kappa", "max_iters"):
        with pytest.raises(TypeError, match=name):
            AbcSmcConfig(n_particles=100, **{name: 0.5})
    with pytest.raises(ValueError):
        AbcSmcConfig(n_particles=1)
    with pytest.raises(TypeError, match="n_particles"):
        AbcSmcConfig(n_particles=100.0)


# -------------------------------------------------------------------- ABC-MCMC

@pytest.fixture(scope="module")
def mcmc_run():
    model = CountingToyModel()
    _, truth, y = draw_observation(model, 3)
    root = as_seed_sequence(3)
    cfg = AbcMcmcConfig(n_steps=40_000, n_keep=1000)
    res = run_abc_mcmc(model, y, cfg, derive(root, ALGO))
    return model, truth, y, cfg, res


def test_mcmc_long_run_acceptance_near_target(mcmc_run):
    _, _, _, _, res = mcmc_run
    assert 0.07 <= res.diagnostics["acceptance_rate"] <= 0.13


def test_mcmc_counts_every_simulation(mcmc_run):
    # one draw for the initial state, then exactly one per proposal
    model, _, _, cfg, res = mcmc_run
    assert res.sim_count == cfg.n_steps + 1
    assert model.calls == res.sim_count + 1  # +1 for the observed dataset


def test_mcmc_keeps_thinned_tail(mcmc_run):
    _, _, _, cfg, res = mcmc_run
    assert res.ensemble.n == res.diagnostics["n_kept"] <= cfg.n_keep
    assert res.ensemble.n >= cfg.n_keep - 1
    trace = res.diagnostics["kappa_trace"]
    assert len(trace) == cfg.n_steps + 1
    assert res.diagnostics["final_kappa"] == trace[-1]


def test_mcmc_kappa_recursion_settles(mcmc_run):
    # Robbins-Monro on log kappa: late-chain values wander within a band
    # instead of drifting off to 0 or infinity
    _, _, _, cfg, res = mcmc_run
    trace = np.asarray(res.diagnostics["kappa_trace"])
    tail = trace[cfg.n_steps // 2 :]
    assert tail.min() > 0.0
    assert tail.max() / tail.min() < 2.0


def test_mcmc_bitwise_reproducible():
    model = ToyModel()
    _, _, y = draw_observation(model, 6)
    cfg = AbcMcmcConfig(n_steps=2000, n_keep=100)
    a = run_abc_mcmc(model, y, cfg, 31)
    b = run_abc_mcmc(model, y, cfg, 31)
    assert np.array_equal(a.ensemble.params, b.ensemble.params)
    assert a.diagnostics["final_kappa"] == b.diagnostics["final_kappa"]


def test_mcmc_acceptance_shrinks_kappa():
    # accepted step -> kappa multiplied by exp(-gain * 0.9): strictly smaller;
    # rejected step -> multiplied by exp(+gain * 0.1): strictly larger
    model = ToyModel()
    _, _, y = draw_observation(model, 7)
    res = run_abc_mcmc(model, y, AbcMcmcConfig(n_steps=500, n_keep=50), 5)
    trace = np.asarray(res.diagnostics["kappa_trace"])
    steps = np.diff(np.log(trace))
    assert np.all((steps < 0) | (steps > 0))  # never flat: every step adapts
    gains = np.arange(1, 501) ** (-0.6)
    up = np.isclose(steps, 0.10 * gains)
    down = np.isclose(steps, -0.90 * gains)
    assert np.all(up | down)


def test_mcmc_config_validation():
    with pytest.raises(ValueError):
        AbcMcmcConfig(n_steps=5)
    for name in ("target_acceptance", "initial_kappa"):
        with pytest.raises(TypeError, match=name):
            AbcMcmcConfig(n_steps=100, **{name: 0.5})
    with pytest.raises(ValueError, match="n_keep"):
        AbcMcmcConfig(n_steps=100, n_keep=1)
    with pytest.raises(TypeError, match="n_steps"):
        AbcMcmcConfig(n_steps=400.0)
    with pytest.raises(TypeError, match="n_keep"):
        AbcMcmcConfig(n_steps=100, n_keep=True)


# ------------------------------------------------------- shared input policies

_RUNNERS = {
    "eki": lambda model, y: run_eki(model, y, EkiConfig(n_particles=40), 0),
    "abc-smc": lambda model, y: run_abc_smc(model, y, AbcSmcConfig(n_particles=40), 0),
    "abc-mcmc": lambda model, y: run_abc_mcmc(model, y, AbcMcmcConfig(n_steps=40), 0),
}


@pytest.mark.parametrize("runner", sorted(_RUNNERS))
def test_every_sampler_checks_observed(runner):
    model = build_model("lingauss")  # d_y = 3
    _, _, y = draw_observation(model, 0)
    # a length-1 vector would broadcast against every simulation
    for observed in ([0.3], np.append(y, 0.0), y[None, :]):
        with pytest.raises(ValueError, match="observed must have length 3"):
            _RUNNERS[runner](model, observed)
    for bad in (np.nan, np.inf):
        observed = y.copy()
        observed[1] = bad
        with pytest.raises(ValueError, match="observed must be finite"):
            _RUNNERS[runner](model, observed)


class NanAboveToyModel(ToyModel):
    """ToyModel: NaN where working theta > cut, from batch call `start` on."""

    def __init__(self, cut: float, start: int = 0):
        super().__init__()
        self.cut, self.start, self.batches = cut, start, 0

    def simulate_batch(self, params, rng):
        sims = super().simulate_batch(params, rng)
        if self.batches >= self.start:
            sims[np.atleast_2d(params)[:, 0] > self.cut] = np.nan
        self.batches += 1
        return sims


def test_smc_rejects_non_finite_simulation():
    # the prior round is finite; the first rejuvenation round is not
    model = NanAboveToyModel(cut=-1.0, start=1)
    _, _, y = draw_observation(ToyModel(), 3)
    with pytest.raises(ValueError, match="SMC iteration 1: simulation is not finite"):
        run_abc_smc(model, y, AbcSmcConfig(n_particles=200), 3)


def test_mcmc_rejects_non_finite_simulation():
    model = NanAboveToyModel(cut=0.5)
    _, _, y = draw_observation(ToyModel(), 3)
    with pytest.raises(ValueError, match=r"MCMC step \d+: simulation is not finite"):
        run_abc_mcmc(model, y, AbcMcmcConfig(n_steps=400), 3)
