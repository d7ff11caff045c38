"""ABC-SMC and ABC-MCMC: primitives, adaptation laws, end-to-end behavior."""
import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enki.baselines import (
    AbcMcmcConfig,
    AbcSmcConfig,
    _adapt_kappa,
    run_abc_mcmc,
    run_abc_smc,
    systematic_resample,
)
from enki.inversion import EkiConfig, run_eki
from enki.linalg import chol_psd, symmetrize
from enki.models import build_model
from enki.rng import ALGO, CHAIN, as_seed_sequence, derive, substream

from _helpers import SAMPLERS, CountingToyModel, ToyModel, draw_observation


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
    # a NaN or infinite weight must not draw every index onto one particle
    for bad, match in ((np.nan, "nonnegative"), (-np.inf, "nonnegative"), (np.inf, "finite")):
        with pytest.raises(ValueError, match=match):
            systematic_resample(np.array([bad, 1.0]), np.random.default_rng(0))


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


class _RoundedToyModel(ToyModel):
    """ToyModel with its data rounded to integers, so distances tie exactly."""

    def simulate_batch(self, params, rng):
        return np.round(super().simulate_batch(params, rng))


def test_smc_stops_when_no_lower_kappa_keeps_a_particle():
    # integer data: once every alive particle matches the data exactly, each
    # kappa below the last one empties the alive set; the run must stop and
    # return the exact matches, not resample an empty set
    model = _RoundedToyModel()
    observed = np.array([3.0])
    res = run_abc_smc(model, observed, AbcSmcConfig(n_particles=200), 0)
    kappas = res.diagnostics["kappas"]
    assert res.termination_reason == "collapsed"
    assert kappas[-1] == np.nextafter(0.0, 1.0)
    assert all(b < a for a, b in zip(kappas, kappas[1:]))
    assert np.array_equal(res.ensemble.sims, np.full((200, 1), 3.0))


class _ConstantToyModel(ToyModel):
    """ToyModel whose every simulation is 3.0, so all distances tie."""

    def simulate_batch(self, params, rng):
        return np.full((len(params), 1), 3.0)


@pytest.mark.parametrize("gap", [0.0, 2.5])
def test_smc_starts_with_every_particle_alive_when_all_distances_tie(gap):
    # no kappa below the largest distance keeps a particle: the start keeps
    # them all, at kappa 1.0 if the data match exactly and else at the next
    # float above the common distance; no lower kappa keeps any afterwards
    res = run_abc_smc(_ConstantToyModel(), np.array([3.0 + gap]), AbcSmcConfig(n_particles=50), 0)
    assert res.diagnostics["kappas"][0] == (np.nextafter(gap, np.inf) if gap else 1.0)
    assert res.diagnostics["ess"][0] == 50.0
    assert res.termination_reason == "collapsed"


def test_smc_collapses_when_fewer_than_two_particles_survive():
    # at N = 2 the first kappa keeps one particle, too few for a proposal spread
    model = ToyModel()
    _, _, y = draw_observation(model, 5)
    res = run_abc_smc(model, y, AbcSmcConfig(n_particles=2), 0)
    assert res.termination_reason == "collapsed"
    assert res.diagnostics["ess"] == [1.0, 1.0]
    assert res.diagnostics["acceptance_rates"] == []
    assert res.sim_count == 2


def test_smc_config_invariant_chain():
    # the tuning constants are fixed: passing one is an unknown field
    for name in ("ess_kappa_target", "stop_acceptance", "initial_kappa", "max_iters"):
        with pytest.raises(TypeError, match=name):
            AbcSmcConfig(n_particles=100, **{name: 0.5})
    with pytest.raises(ValueError):
        AbcSmcConfig(n_particles=1)
    with pytest.raises(TypeError, match="n_particles"):
        AbcSmcConfig(n_particles=100.0)


def _bisect_kappa(dist, alive, kappa_prev, target):
    # the 60-step bisection that _adapt_kappa replaced, kept as a reference
    def count_at(k):
        return int(np.count_nonzero(alive & (dist < k)))

    lo, hi = 0.0, float(kappa_prev)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if count_at(mid) >= target:
            hi = mid
        else:
            lo = mid
    c_hi = count_at(hi)
    c_lo = count_at(lo)
    if abs(c_hi - target) <= abs(c_lo - target) or c_lo < 1:
        kappa = hi
    else:
        kappa = lo
    if kappa >= kappa_prev:
        kappa = np.nextafter(kappa_prev, 0.0)
    new_alive = alive & (dist < kappa)
    if not new_alive.any():
        kappa = np.nextafter(kappa_prev, 0.0)
        new_alive = alive & (dist < kappa)
    return float(kappa), new_alive


def _kappa_inputs(seed):
    # distances in [1, 2], about half of them tied: on a coarse grid for odd
    # seeds, at one shared value for even ones; an alive mask with a member
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 60))
    dist = rng.uniform(1.0, 2.0, n)
    tied = rng.random(n) < 0.5
    dist[tied] = np.round(dist[tied], 1) if seed % 2 else dist[0]
    alive = rng.random(n) < 0.8
    alive[int(rng.integers(n))] = True
    return rng, dist, alive


@pytest.mark.parametrize("seed", range(40))
def test_adapt_kappa_equals_the_converged_bisection(seed):
    # with kappa_prev / s_m <= 2^6 the 60 halvings end on adjacent floats,
    # s_m and the next float up, and the two rules must agree bit for bit
    rng, dist, alive = _kappa_inputs(seed)
    top = dist[alive].max()
    count = int(alive.sum())
    for kappa_prev in (np.nextafter(top, np.inf), top * rng.uniform(1.01, 32.0)):
        for target in (0.9 * count, count, 1.0 - rng.uniform(), 1.0):
            kappa, new_alive = _adapt_kappa(dist, alive, kappa_prev, target)
            ref_kappa, ref_alive = _bisect_kappa(dist, alive, kappa_prev, target)
            assert kappa == ref_kappa
            assert np.array_equal(new_alive, ref_alive)


@pytest.mark.parametrize("seed", range(10))
def test_adapt_kappa_sits_on_the_jump_where_the_bisection_stops_short(seed):
    # at kappa_prev / s_m = 2^12 the bisection ends about 2^-48 s_m above the
    # jump; the direct rule returns s_m or the next float, and keeps the same
    # particles
    rng = np.random.default_rng(seed)
    dist = rng.uniform(1.0, 2.0, 100)
    alive = np.ones(100, dtype=bool)
    target = 90.0
    s_m = np.sort(dist)[89]
    kappa_prev = 2.0**12 * s_m
    kappa, new_alive = _adapt_kappa(dist, alive, kappa_prev, target)
    ref_kappa, ref_alive = _bisect_kappa(dist, alive, kappa_prev, target)
    assert kappa in (s_m, np.nextafter(s_m, np.inf))
    assert ref_kappa > np.nextafter(s_m, np.inf)
    assert np.array_equal(new_alive, ref_alive)


@pytest.mark.parametrize("seed", range(40))
def test_adapt_kappa_keeps_the_nearest_achievable_count(seed):
    # oracle: every threshold below kappa_prev keeps one of the counts
    # {0} and #{alive d <= v} over the alive distances v; the rule keeps the
    # nonzero count nearest the target, the larger one on a tie
    rng, dist, alive = _kappa_inputs(seed)
    alive_d = dist[alive]
    kappa_prev = alive_d.max() * rng.uniform(1.01, 100.0)
    counts = sorted({int(np.sum(alive_d <= v)) for v in alive_d})
    for target in rng.uniform(0.0, alive_d.size, 5).tolist() + [float(alive_d.size)]:
        kappa, new_alive = _adapt_kappa(dist, alive, kappa_prev, target)
        best = min(counts, key=lambda c: (abs(c - target), -c))
        assert kappa < kappa_prev
        assert new_alive.any()
        assert not (new_alive & ~alive).any()
        assert int(new_alive.sum()) == best


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
    assert res.ensemble.n <= cfg.n_keep
    assert res.ensemble.n >= cfg.n_keep - 1
    trace = res.diagnostics["kappa_trace"]
    assert len(trace) == cfg.n_steps + 1
    assert res.final_temp == trace[-1]


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
    assert a.final_temp == b.final_temp


def _reference_mcmc(model, observed, n_steps, seed):
    """The ABC-MCMC loop written plainly: every step evaluates the prior,
    checks finiteness with np.all and updates the moments with np.outer.

    Returns (chain, kappa_trace, accepted, sim_count, jittered, mean, cov),
    where jittered counts the proposal factors that needed jitter and mean
    and cov are the final running (Welford) moments of the whole chain.
    """
    rng = substream(as_seed_sequence(seed), CHAIN)
    d_x = model.d_x
    rw_scale = 2.38**2 / d_x
    state = model.prior_sample(1, rng)[0]
    sim = model.simulate(state, rng)
    assert np.all(np.isfinite(sim))
    sim_count = 1
    logp_cur = model.prior_logpdf(state[None])[0]
    dist_cur = float(np.linalg.norm(observed - sim))
    kappa = dist_cur if dist_cur > 0 else 1.0
    count, mean, m2 = 1, state.copy(), np.zeros((d_x, d_x))
    chain = [state]
    kappa_trace = [kappa]
    accepted = []
    identity = np.eye(d_x)
    jittered = 0
    for t in range(1, n_steps + 1):
        spread = symmetrize(m2 / (count - 1)) if t > 10 else identity
        if not spread.any():
            spread = identity
        z = rng.standard_normal(d_x)
        low, jitter = chol_psd(rw_scale * spread)
        jittered += jitter > 0.0
        candidate = state + low @ z
        cand_sim = model.simulate(candidate, rng)
        assert np.all(np.isfinite(cand_sim))
        sim_count += 1
        cand_dist = float(np.linalg.norm(observed - cand_sim))
        cand_logp = model.prior_logpdf(candidate[None])[0]
        ok = np.log(rng.random()) < float(cand_logp - logp_cur) and cand_dist < kappa
        if ok:
            state, logp_cur = candidate, cand_logp
        accepted.append(ok)
        gain = t ** (-0.6)
        kappa = float(np.exp(np.log(kappa) - gain * (float(ok) - 0.10)))
        kappa_trace.append(kappa)
        count += 1
        delta = state - mean
        mean = mean + delta / count
        m2 = m2 + np.outer(delta, state - mean)
        chain.append(state)
    return (np.array(chain), np.array(kappa_trace), np.array(accepted), sim_count, jittered,
            mean, m2 / (count - 1))


# Chain seed s runs on the observation drawn with seed 40 + s. For gk these
# are the first two s from 0 on whose reference chain jitters: in the first
# steps after the running covariance takes over (step 11), the chain has
# visited too few distinct states for that covariance to have full rank, so
# the proposal factor comes from the jitter ladder. The test asserts that it
# does, so a change of the gk draws that loses this path fails instead of
# passing without it.
_MCMC_REFERENCE_SEEDS = {"gk": (1, 2), "toy": (0, 1)}


@pytest.mark.parametrize("name", ["gk", "toy"])
def test_mcmc_matches_the_plain_reference_loop(name, caplog):
    # 500 steps keep the whole post-burn-in half (250 <= the 1000 default)
    model = build_model("gk") if name == "gk" else ToyModel()
    n_steps = 500
    for seed in _MCMC_REFERENCE_SEEDS[name]:
        _, _, y = draw_observation(model, 40 + seed)
        chain, kappa_trace, accepted, sim_count, jittered, mean, cov = _reference_mcmc(
            model, y, n_steps, seed
        )
        # Welford's recursion agrees with the batch estimates of the chain
        assert np.allclose(mean, chain.mean(axis=0))
        assert np.allclose(cov, np.cov(chain, rowvar=False))
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="enki.linalg"):
            res = run_abc_mcmc(model, y, AbcMcmcConfig(n_steps=n_steps), seed)
        assert np.array_equal(res.ensemble.params, chain[n_steps // 2 + 1 :])
        assert np.array_equal(res.diagnostics["kappa_trace"], kappa_trace)
        assert res.final_temp == kappa_trace[-1]
        assert res.diagnostics["acceptance_rate_overall"] == float(accepted.mean())
        assert res.diagnostics["acceptance_rate"] == float(accepted[n_steps // 2 :].mean())
        assert res.sim_count == sim_count == n_steps + 1
        records = [r for r in caplog.records if r.name == "enki.linalg"]
        assert len(records) == jittered
        assert all(r.levelno == logging.DEBUG and "jitter" in r.getMessage()
                   for r in records)
        if name == "gk":
            assert jittered > 0
        else:
            assert jittered == 0  # a 1 x 1 running variance never needs jitter


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

@pytest.mark.parametrize("runner", sorted(SAMPLERS))
def test_every_sampler_checks_observed(runner):
    model = build_model("lingauss")  # d_y = 3
    _, _, y = draw_observation(model, 0)
    # a length-1 vector would broadcast against every simulation
    for observed in ([0.3], np.append(y, 0.0), y[None, :]):
        with pytest.raises(ValueError, match="observed must have length 3"):
            SAMPLERS[runner](model, observed)
    for bad in (np.nan, np.inf):
        observed = y.copy()
        observed[1] = bad
        with pytest.raises(ValueError, match="observed must be finite"):
            SAMPLERS[runner](model, observed)


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


@pytest.mark.parametrize(
    "cut, start, run, match",
    [
        # eki and smc: the first simulation round is finite, the second is not
        (-1.0, 1, lambda m, y: run_eki(m, y, EkiConfig(n_particles=200), 3),
         "EKI iteration 2: simulation is not finite"),
        (-1.0, 1, lambda m, y: run_abc_smc(m, y, AbcSmcConfig(n_particles=200), 3),
         "SMC iteration 1: simulation is not finite"),
        (0.5, 0, lambda m, y: run_abc_mcmc(m, y, AbcMcmcConfig(n_steps=400), 3),
         r"MCMC step \d+: simulation is not finite"),
    ],
    ids=["eki", "abc-smc", "abc-mcmc"],
)
def test_sampler_rejects_non_finite_simulation(cut, start, run, match):
    _, _, y = draw_observation(ToyModel(), 3)
    with pytest.raises(ValueError, match=match):
        run(NanAboveToyModel(cut, start), y)
