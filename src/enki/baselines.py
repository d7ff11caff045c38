"""ABC-SMC and ABC-MCMC baselines.

Both target the usual ABC posterior: prior times the indicator that a fresh
simulation lands within distance kappa of the observed data. The SMC
sampler anneals kappa downward with systematic resampling and random-walk
rejuvenation; the MCMC sampler adapts kappa on a stochastic-approximation
schedule toward a fixed acceptance rate.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ensembles import Ensemble, GaussPair, mvn_sample
from .inversion import RunResult, _check_observed, _require_finite
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
    "RunningMoments",
    "run_abc_smc",
    "run_abc_mcmc",
]

_ESS_KAPPA_TARGET = 0.9  # SMC keeps this fraction of the ESS per kappa step
_RESAMPLE_THRESHOLD = 0.5  # SMC resamples below this fraction of N
_STOP_ACCEPTANCE = 0.015  # SMC stops once its move acceptance falls below this
_SMC_MAX_ITERS = 1000  # SMC iteration cap
_BISECT_ITERS = 60  # SMC bisection steps per kappa adaptation
_TARGET_ACCEPTANCE = 0.10  # MCMC steers kappa toward this acceptance rate
_GAIN_DECAY = 0.6  # MCMC log-kappa gain is t^(-_GAIN_DECAY)
_ADAPT_START = 10  # MCMC proposes from the identity up to this step


@dataclass
class AbcSmcConfig:
    """SMC sampler settings.

    Fixed: the initial kappa is the largest prior-predictive distance; each
    kappa adaptation keeps 0.9 of the ESS, by 60 bisection steps;
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
    2.38^2 / d_x times the identity for the first 10 steps and times the
    running chain covariance after. The returned ensemble is the
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
    """Indices of a systematic resample: one uniform offset, N strata."""
    w = np.asarray(weights, dtype=float)
    if np.any(w < 0):
        raise ValueError("weights must be nonnegative")
    total = w.sum()
    if total <= 0:
        raise ValueError("weights sum to zero")
    n = w.size
    positions = (rng.random() + np.arange(n)) / n
    cumulative = np.cumsum(w / total)
    cumulative[-1] = 1.0
    return np.searchsorted(cumulative, positions)


class RunningMoments:
    """Streaming mean and covariance of a vector sequence (Welford update)."""

    def __init__(self, dim: int):
        self.count = 0
        self._mean = np.zeros(dim)
        self._m2 = np.zeros((dim, dim))

    def update(self, x: np.ndarray):
        x = np.asarray(x, dtype=float)
        self.count += 1
        delta = x - self._mean
        self._mean = self._mean + delta / self.count
        self._m2 = self._m2 + np.outer(delta, x - self._mean)

    @property
    def mean(self) -> np.ndarray:
        return self._mean.copy()

    @property
    def cov(self) -> np.ndarray:
        if self.count < 2:
            return np.zeros_like(self._m2)
        return symmetrize(self._m2 / (self.count - 1))


def _adapt_kappa(
    dist: np.ndarray, alive: np.ndarray, kappa_prev: float, target: float
) -> tuple:
    """Bisect kappa in (0, kappa_prev) so the alive count hits `target`.

    With indicator weights the ESS equals the number of surviving
    particles, a step function of kappa, so the bisection converges onto
    the jump nearest the target and we keep whichever side is closer. The
    returned kappa is always strictly below kappa_prev.
    """

    def count_at(k: float) -> int:
        return int(np.count_nonzero(alive & (dist < k)))

    lo, hi = 0.0, float(kappa_prev)
    for _ in range(_BISECT_ITERS):
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
        # never annihilate the ensemble; back off to just below kappa_prev
        kappa = np.nextafter(kappa_prev, 0.0)
        new_alive = alive & (dist < kappa)
    return float(kappa), new_alive


@_one_blas_thread()
def run_abc_smc(
    model: SimulatorModel, observed: np.ndarray, config: AbcSmcConfig, seed,
) -> RunResult:
    """Adaptive ABC-SMC with systematic resampling and RW-MH rejuvenation.

    Per iteration: shrink kappa by bisection so the surviving-particle ESS
    stays near 0.9 times its previous value, resample when the
    ESS drops below 0.5 * N, then give every surviving
    particle one random-walk move accepted iff the prior ratio passes and a
    fresh simulation lands inside kappa. Stops when the move acceptance
    rate first falls below 1.5%. Every simulate call is counted.
    """
    observed = _check_observed(model, observed)
    root = as_seed_sequence(seed)
    n = config.n_particles
    rw_scale = 2.38**2 / model.d_x

    params = model.prior_sample(n, substream(root, PRIOR))
    sims = model.simulate_batch(params, substream(root, SIMULATE, 0))
    _require_finite(sims, "SMC iteration 0")
    sim_count = n
    dist = np.linalg.norm(observed - sims, axis=1)

    kappa = float(dist.max())
    if kappa <= 0:
        kappa = 1.0
    alive = dist < kappa
    if not alive.any():
        kappa = np.nextafter(float(dist.max()), np.inf)
        alive = dist < kappa
    ess_cur = float(alive.sum())

    kappas = [kappa]
    ess_trace = [ess_cur]
    acceptance = []
    infeasible = []
    resampled = []
    reason = "max_iters"

    for iteration in range(1, _SMC_MAX_ITERS + 1):
        target = _ESS_KAPPA_TARGET * ess_cur
        kappa, alive = _adapt_kappa(dist, alive, kappa, target)
        ess_cur = float(alive.sum())
        kappas.append(kappa)
        ess_trace.append(ess_cur)
        if abs(ess_cur - target) > 0.02 * n:
            infeasible.append(iteration)

        if ess_cur < _RESAMPLE_THRESHOLD * n:
            weights = alive / alive.sum()
            idx = systematic_resample(weights, substream(root, RESAMPLE, iteration))
            params = params[idx]
            sims = sims[idx]
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
        log_ratio = model.prior_logpdf(candidates) - model.prior_logpdf(params[alive_idx])
        uniforms = substream(root, ACCEPT, iteration).random(m)
        accept = (np.log(uniforms) < log_ratio) & (cand_dist < kappa)
        moved = alive_idx[accept]
        params[moved] = candidates[accept]
        sims[moved] = cand_sims[accept]
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
        sims = sims[idx]

    ensemble = Ensemble(params, sims=sims)
    return RunResult(
        ensemble=ensemble,
        schedule=None,
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

    Proposal covariance is 2.38^2 / d_x times the running covariance of the
    chain (identity for the first 10 steps); a proposal is
    accepted iff the prior MH ratio passes and its simulation lands within
    kappa. After each step log kappa moves by -t^(-0.6) *
    (accepted - 0.10), so kappa shrinks on acceptance and
    equilibrates where the long-run rate matches the target.
    """
    observed = _check_observed(model, observed)
    root = as_seed_sequence(seed)
    rng = substream(root, CHAIN)
    d_x = model.d_x
    rw_scale = 2.38**2 / d_x

    state = model.prior_sample(1, rng)[0]
    sim = model.simulate(state, rng)
    _require_finite(sim, "MCMC step 0")
    sim_count = 1
    logp_cur = model.prior_logpdf(state[None])[0]
    dist_cur = float(np.linalg.norm(observed - sim))
    kappa = dist_cur if dist_cur > 0 else 1.0

    running = RunningMoments(d_x)
    running.update(state)
    chain = np.empty((config.n_steps + 1, d_x))
    chain[0] = state
    accepted = np.zeros(config.n_steps, dtype=bool)
    kappa_trace = np.empty(config.n_steps + 1)
    kappa_trace[0] = kappa

    identity = np.eye(d_x)
    for t in range(1, config.n_steps + 1):
        spread = running.cov if t > _ADAPT_START else identity
        if not spread.any():
            spread = identity
        z = rng.standard_normal(d_x)
        low, _ = chol_psd(rw_scale * spread)
        candidate = state + low @ z
        cand_sim = model.simulate(candidate, rng)
        _require_finite(cand_sim, f"MCMC step {t}")
        sim_count += 1
        cand_dist = float(np.linalg.norm(observed - cand_sim))
        cand_logp = model.prior_logpdf(candidate[None])[0]
        ok = np.log(rng.random()) < float(cand_logp - logp_cur) and cand_dist < kappa
        if ok:
            state, logp_cur = candidate, cand_logp
        accepted[t - 1] = ok
        gain = t ** (-_GAIN_DECAY)
        kappa = float(np.exp(np.log(kappa) - gain * (float(ok) - _TARGET_ACCEPTANCE)))
        kappa_trace[t] = kappa
        running.update(state)
        chain[t] = state

    burn = config.n_steps // 2
    tail = chain[burn + 1 :]
    n_keep = config.n_keep if config.n_keep is not None else min(1000, tail.shape[0])
    n_keep = min(n_keep, tail.shape[0])
    sel = np.unique(np.round(np.linspace(0, tail.shape[0] - 1, n_keep)).astype(int))
    ensemble = Ensemble(tail[sel])
    return RunResult(
        ensemble=ensemble,
        schedule=None,
        sim_count=sim_count,
        termination_reason="completed",
        diagnostics={
            "final_kappa": kappa,
            "kappa_trace": kappa_trace,
            "acceptance_rate": float(accepted[burn:].mean()),
            "acceptance_rate_overall": float(accepted.mean()),
            "n_kept": int(sel.size),
        },
    )
