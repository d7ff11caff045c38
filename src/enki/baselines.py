"""ABC-SMC and ABC-MCMC baselines.

Both target the usual ABC posterior: prior times the indicator that a fresh
simulation lands within distance kappa of the observed data. The SMC
sampler anneals kappa downward with systematic resampling and random-walk
rejuvenation; the MCMC sampler adapts kappa on a stochastic-approximation
schedule toward a fixed acceptance rate.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ensembles import Ensemble, GaussPair, mvn_sample
from .inversion import RunResult, _observed_vector, _require_finite
from .linalg import _one_blas_thread, chol_psd, symmetrize
from .models.base import SimulatorModel, _require_int
from .rng import (
    ACCEPT,
    CHAIN,
    PRIOR,
    PROPOSAL,
    RESAMPLE,
    SIMULATE,
    as_seed_sequence,
    substream,
)

__all__ = [
    "AbcSmcConfig",
    "AbcMcmcConfig",
    "systematic_resample",
    "run_abc_smc",
    "run_abc_mcmc",
]

_ESS_KAPPA_TARGET = 0.9  # SMC keeps this fraction of the ESS per kappa step
_RESAMPLE_THRESHOLD = 0.5  # SMC resamples below this fraction of N
_STOP_ACCEPTANCE = 0.015  # SMC stops once its move acceptance falls below this
_SMC_MAX_ITERS = 1000  # SMC iteration cap
_TARGET_ACCEPTANCE = 0.10  # MCMC steers kappa toward this acceptance rate
_GAIN_DECAY = 0.6  # MCMC log-kappa gain is t^(-_GAIN_DECAY)
_ADAPT_EVERY = 16  # MCMC refreshes its proposal factor once per block of this many steps


@dataclass
class AbcSmcConfig:
    """SMC sampler settings.

    Fixed: the initial kappa is the largest prior-predictive distance; each
    kappa adaptation keeps 0.9 of the ESS, read off the sorted distances;
    resampling triggers below 0.5 * N; the random-walk proposal is
    2.38^2 / d_x times the ensemble covariance; the run stops once the
    rejuvenation acceptance rate first falls below 1.5%, or after 1000
    iterations.
    """

    n_particles: int

    def __post_init__(self):
        _require_int("n_particles", self.n_particles, 2)


@dataclass
class AbcMcmcConfig:
    """Adaptive random-walk chain settings.

    kappa starts at the initial state's distance from the data, and log
    kappa follows a stochastic-approximation recursion with gain t^(-0.6)
    pushing the acceptance rate toward a fixed 10%. The proposal is
    2.38^2 / d_x times the identity for the first 16 steps; after that it
    is 2.38^2 / d_x times the covariance of the chain so far, refreshed
    every 16 steps. The returned ensemble is the
    post-burn-in chain thinned to n_keep >= 2 states (default min(1000,
    tail length); burn-in is the first half).
    """

    n_steps: int
    n_keep: int = None

    def __post_init__(self):
        _require_int("n_steps", self.n_steps, 10)
        if self.n_keep is not None:
            _require_int("n_keep", self.n_keep, 2)


def systematic_resample(weights: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Indices of a systematic resample: one uniform offset, N strata.

    Raises ValueError unless the weights are nonnegative, not NaN, and have
    a finite positive sum.
    """
    w = np.asarray(weights, dtype=float)
    if not (w >= 0).all():  # NaN fails this test too
        raise ValueError("weights must be nonnegative and not NaN")
    total = w.sum()
    if total <= 0:
        raise ValueError("weights sum to zero")
    if not np.isfinite(total):
        raise ValueError(f"weights must have a finite sum, got {total}")
    n = w.size
    positions = (rng.random() + np.arange(n)) / n
    cumulative = np.cumsum(w / total)
    cumulative[-1] = 1.0
    return np.searchsorted(cumulative, positions)


def _adapt_kappa(
    dist: np.ndarray, alive: np.ndarray, kappa_prev: float, target: float
) -> tuple:
    """Kappa below kappa_prev whose alive count is nearest `target`.

    With indicator weights the ESS is the alive count, which first reaches
    a target in (0, alive count] just above s_m, the m-th smallest alive
    distance, m = ceil(target). The two candidates are s_m, which drops the
    m-th particle, and the next float above it, which keeps it; a tie, or a
    drop that would leave no particle alive, keeps it. The returned kappa is
    always strictly below kappa_prev, so s_m wins whenever the next float
    reaches kappa_prev.
    """
    ranked = np.sort(dist[alive])
    s_m = ranked[math.ceil(target) - 1]
    c_hi = np.searchsorted(ranked, s_m, side="right")
    c_lo = np.searchsorted(ranked, s_m, side="left")
    keep = abs(c_hi - target) <= abs(c_lo - target) or c_lo < 1
    kappa = np.nextafter(s_m, np.inf)
    if not keep or kappa >= kappa_prev:
        kappa = s_m
    return float(kappa), alive & (dist < kappa)


@_one_blas_thread()
def run_abc_smc(
    model: SimulatorModel, observed: np.ndarray, config: AbcSmcConfig, seed,
) -> RunResult:
    """Adaptive ABC-SMC with systematic resampling and RW-MH rejuvenation.

    Per iteration: shrink kappa to an alive distance, or the next float
    above it, so the surviving-particle ESS lands nearest 0.9 times its
    previous value; resample when the ESS drops below 0.5 * N; then give
    every surviving particle one random-walk move accepted iff the prior
    ratio passes and a fresh simulation lands inside kappa. Stops when the
    move acceptance rate first falls below 1.5%, or as "collapsed" when
    fewer than two particles survive or no kappa below the current one
    keeps any (every alive distance equal, as with discrete data that all
    match exactly). Every simulate call is counted.
    """
    observed = _observed_vector(observed, model.d_y)
    root = as_seed_sequence(seed)
    n = config.n_particles
    rw_scale = 2.38**2 / model.d_x

    params = model.prior_sample(n, substream(root, PRIOR))
    logp = model.prior_logpdf(params)
    sims = model.simulate_batch(params, substream(root, SIMULATE, 0))
    _require_finite(sims, "SMC iteration 0")
    sim_count = n
    dist = np.linalg.norm(observed - sims, axis=1)

    kappa = float(dist.max())
    alive = dist < kappa
    if not alive.any():  # every distance equal: keep them all, at 1.0 if all are zero
        kappa = np.nextafter(kappa, np.inf) if kappa > 0 else 1.0
        alive[:] = True
    ess_cur = float(alive.sum())

    kappas = [kappa]
    ess_trace = [ess_cur]
    acceptance = []
    infeasible = []
    resampled = []
    reason = "max_iters"

    for iteration in range(1, _SMC_MAX_ITERS + 1):
        target = _ESS_KAPPA_TARGET * ess_cur
        kappa_next, alive_next = _adapt_kappa(dist, alive, kappa, target)
        if not alive_next.any():  # every alive distance ties just below kappa
            reason = "collapsed"
            break
        kappa, alive = kappa_next, alive_next
        ess_cur = float(alive.sum())
        kappas.append(kappa)
        ess_trace.append(ess_cur)
        if abs(ess_cur - target) > 0.02 * n:
            infeasible.append(iteration)

        if ess_cur < _RESAMPLE_THRESHOLD * n:
            weights = alive / alive.sum()
            idx = systematic_resample(weights, substream(root, RESAMPLE, iteration))
            params = params[idx]
            logp = logp[idx]
            dist = dist[idx]
            alive = np.ones(n, dtype=bool)
            ess_cur = float(n)
            resampled.append(iteration)

        alive_idx = np.flatnonzero(alive)
        m = alive_idx.size
        if m < 2:
            reason = "collapsed"
            break
        spread = np.atleast_2d(np.cov(params[alive_idx], rowvar=False, ddof=1))
        proposal = GaussPair(np.zeros(model.d_x), symmetrize(rw_scale * spread))
        steps = mvn_sample(proposal, m, substream(root, PROPOSAL, iteration))
        candidates = params[alive_idx] + steps
        cand_sims = model.simulate_batch(candidates, substream(root, SIMULATE, iteration))
        _require_finite(cand_sims, f"SMC iteration {iteration}")
        sim_count += m
        cand_dist = np.linalg.norm(observed - cand_sims, axis=1)
        cand_logp = model.prior_logpdf(candidates)
        log_ratio = cand_logp - logp[alive_idx]
        uniforms = substream(root, ACCEPT, iteration).random(m)
        accept = (np.log(uniforms) < log_ratio) & (cand_dist < kappa)
        moved = alive_idx[accept]
        params[moved] = candidates[accept]
        logp[moved] = cand_logp[accept]
        dist[moved] = cand_dist[accept]
        rate = float(accept.mean())
        acceptance.append(rate)
        if rate < _STOP_ACCEPTANCE:
            reason = "acceptance"
            break

    if ess_cur < n:
        weights = alive / alive.sum()
        idx = systematic_resample(weights, substream(root, RESAMPLE, 0))
        params = params[idx]

    return RunResult(
        ensemble=Ensemble(params),
        final_temp=float(kappa),
        sim_count=sim_count,
        termination_reason=reason,
        diagnostics={
            "kappas": kappas,
            "ess": ess_trace,
            "acceptance_rates": acceptance,
            "resampled_at": resampled,
            "infeasible_at": infeasible,
        },
    )


@_one_blas_thread()
def run_abc_mcmc(
    model: SimulatorModel, observed: np.ndarray, config: AbcMcmcConfig, seed,
) -> RunResult:
    """Adaptive random-walk ABC-MCMC with one fresh simulation per proposal.

    The chain runs in blocks of 16 steps. At a block start t0 the proposal
    covariance is 2.38^2 / d_x times the chain's covariance over its first
    t0 states (times the identity in the first block, and while the chain
    has never moved), and it is factored once for the block; at the block
    end the block's states are folded into the running mean and M2 by the
    pairwise update of Chan, Golub & LeVeque (1979). A proposal is accepted
    iff the prior MH ratio passes and its simulation lands within kappa.
    After each step log kappa moves by -t^(-0.6) * (accepted - 0.10), so
    kappa shrinks on acceptance and equilibrates where the long-run rate
    matches the target.

    Streams: the initial prior draw and every simulation come from
    `substream(root, CHAIN)`, each block's standard normal moves from
    `substream(root, PROPOSAL)` and its acceptance uniforms from
    `substream(root, ACCEPT)`; a block draws all of its own at once, which
    equals drawing them step by step.
    """
    observed = _observed_vector(observed, model.d_y)
    root = as_seed_sequence(seed)
    rng = substream(root, CHAIN)
    prop_rng = substream(root, PROPOSAL)
    acc_rng = substream(root, ACCEPT)
    d_x = model.d_x
    n_steps = config.n_steps
    rw_scale = 2.38**2 / d_x

    state = model.prior_sample(1, rng)[0]
    sim = model.simulate(state, rng)
    _require_finite(sim, "MCMC step 0")
    logp_cur = model.prior_logpdf(state[None])[0]
    dist_cur = float(np.linalg.norm(observed - sim))
    kappa = dist_cur if dist_cur > 0 else 1.0

    mean, m2 = state.copy(), np.zeros((d_x, d_x))  # running moments of chain[:t0]
    chain = np.empty((n_steps + 1, d_x))
    chain[0] = state
    accepted = np.zeros(n_steps, dtype=bool)
    kappa_trace = np.empty(n_steps + 1)
    kappa_trace[0] = kappa

    identity_factor = math.sqrt(rw_scale) * np.eye(d_x)
    for t0 in range(1, n_steps + 1, _ADAPT_EVERY):
        t1 = min(t0 + _ADAPT_EVERY, n_steps + 1)
        m = t1 - t0
        low = chol_psd(rw_scale * (m2 / (t0 - 1)))[0] if m2.any() else identity_factor
        moves = prop_rng.standard_normal((m, d_x)) @ low.T
        log_u = np.log(acc_rng.random(m))
        for j, t in enumerate(range(t0, t1)):
            candidate = state + moves[j]
            cand_sim = model.simulate(candidate, rng)
            _require_finite(cand_sim, f"MCMC step {t}")
            diff = observed - cand_sim
            ok = False
            if math.sqrt(diff @ diff) < kappa:  # the prior ratio decides only inside kappa
                cand_logp = model.prior_logpdf(candidate[None])[0]
                ok = log_u[j] < cand_logp - logp_cur
                if ok:
                    state, logp_cur = candidate, cand_logp
            accepted[t - 1] = ok
            kappa *= math.exp(-(t ** -_GAIN_DECAY) * (ok - _TARGET_ACCEPTANCE))
            kappa_trace[t] = kappa
            chain[t] = state
        # Chan, Golub & LeVeque's pairwise update, with the block's mean taken
        # about the running one, so a chain that never moved keeps m2 at zero
        dev = chain[t0:t1] - mean
        shift = dev.sum(axis=0) / m
        dev -= shift
        m2 += dev.T @ dev + np.outer(shift, shift) * (t0 * m / t1)
        mean += shift * (m / t1)

    burn = n_steps // 2
    tail = chain[burn + 1 :]
    n_keep = config.n_keep if config.n_keep is not None else min(1000, tail.shape[0])
    n_keep = min(n_keep, tail.shape[0])
    sel = np.unique(np.round(np.linspace(0, tail.shape[0] - 1, n_keep)).astype(int))
    ensemble = Ensemble(tail[sel])
    return RunResult(
        ensemble=ensemble,
        final_temp=kappa,
        sim_count=n_steps + 1,
        termination_reason="completed",
        diagnostics={
            "kappa_trace": kappa_trace,
            "acceptance_rate": float(accepted[burn:].mean()),
            "acceptance_rate_overall": float(accepted.mean()),
        },
    )
