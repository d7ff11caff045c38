"""Ensemble Kalman inversion for simulator likelihoods.

The driver tempers the ensemble from the prior toward the posterior along
an adaptively chosen inverse-temperature schedule. Each iteration simulates
data for every particle, estimates the likelihood noise covariance from the
joint ensemble, picks the largest temperature step whose pseudo-weight ESS
stays near a target, and applies a perturbed-observation Kalman update. No
likelihood densities are ever evaluated.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_solve, solve_triangular

# mvn_sample and solve_psd kept for perfbench/tracing.py, which wraps them here by name
from .ensembles import Ensemble, MomentSet, compute_moments, ess, mvn_sample
from .linalg import _one_blas_thread, chol_psd, solve_psd, symmetrize
from .models.base import SimulatorModel, _require_int
from .rng import PERTURB, PRIOR, SIMULATE, as_seed_sequence, substream

__all__ = [
    "TemperSchedule",
    "EkiConfig",
    "RunResult",
    "eki_step",
    "gaussian_eki_step",
    "select_next_lambda",
    "stop_optimisation",
    "run_eki",
    "eki_min_particles",
]

STOP_MODES = ("sampling", "optimisation")
_RHO = 0.5  # each tempering step keeps the pseudo-weight ESS at _RHO * N
_BISECT_TOL = 1e-2  # ... to within _BISECT_TOL * N
_UPSILON = 1e-2  # optimisation stops below _UPSILON x each initial variance


@dataclass
class TemperSchedule:
    """Realized inverse-temperature sequence with per-step diagnostics.

    lambdas starts at 0; steps[i] = lambdas[i+1] - lambdas[i]. ess_values
    holds the pseudo-weight ESS at each accepted temperature; clamped marks
    steps where the bracket edge was returned without a search, flagged
    marks steps whose ESS missed the target beyond tolerance.
    """

    lambdas: list = field(default_factory=lambda: [0.0])
    ess_values: list = field(default_factory=list)
    clamped: list = field(default_factory=list)
    flagged: list = field(default_factory=list)

    def record(self, lam: float, ess_value: float, clamped: bool, flagged: bool):
        if lam <= self.lambdas[-1]:
            raise ValueError("temperatures must be strictly increasing")
        self.lambdas.append(lam)
        self.ess_values.append(ess_value)
        self.clamped.append(clamped)
        self.flagged.append(flagged)

    @property
    def steps(self) -> list:
        return [b - a for a, b in zip(self.lambdas, self.lambdas[1:])]

    @property
    def final_lambda(self) -> float:
        return self.lambdas[-1]

    @property
    def n_steps(self) -> int:
        return len(self.lambdas) - 1

    def to_records(self) -> list:
        """Rows of {iteration, lambda, h, ess, clamped, flagged} for serialization."""
        rows = zip(self.lambdas[1:], self.steps, self.ess_values, self.clamped, self.flagged)
        return [
            {"iteration": i, "lambda": lam, "h": h, "ess": e, "clamped": c, "flagged": f}
            for i, (lam, h, e, c, f) in enumerate(rows, start=1)
        ]


@dataclass
class EkiConfig:
    """Driver settings.

    stop_mode picks the termination rule: "sampling" runs the temperature
    to 1 (posterior approximation), "optimisation" runs until every
    marginal ensemble variance drops below 1% of its initial value.
    Fixed: sampling stops at inverse temperature 1.0, and each step targets
    a pseudo-weight ESS of N/2, within 0.01 N.
    """

    n_particles: int
    stop_mode: str = "sampling"
    max_iters: int = 100
    snapshots: bool = False

    def __post_init__(self):
        _require_int("n_particles", self.n_particles, 2)
        _require_int("max_iters", self.max_iters, 1)
        if self.stop_mode not in STOP_MODES:
            raise ValueError(f"stop_mode must be one of {STOP_MODES}")


@dataclass
class RunResult:
    """Final ensemble plus the bookkeeping the experiment harness reports."""

    ensemble: Ensemble
    schedule: TemperSchedule = None
    sim_count: int = 0
    snapshots: list = None
    termination_reason: str = ""
    diagnostics: dict = field(default_factory=dict)


def _kalman_move(
    ensemble: Ensemble,
    observed: np.ndarray,
    moments: MomentSet,
    noise_cov: np.ndarray,
    noise_chol: np.ndarray | None,
    rng: np.random.Generator,
) -> Ensemble:
    """Perturbed-observation Kalman move shared by both update steps.

    Moves particle i by C^xy (C^yy + G)^-1 (y - f_i - eta_i), with f_i the
    particle's row of ensemble.sims, moments = compute_moments(ensemble),
    G = noise_cov and eta_i ~ N(0, G). The caller passes a lower factor L of
    G as noise_chol, and the draw is ``rng.standard_normal((N, d_y)) @ L.T``,
    `mvn_sample`'s layout; noise_chol None draws nothing. A single
    factorization of C^yy + G is shared by all particles.
    """
    low, _ = chol_psd(moments.cov_yy + noise_cov)
    innov = observed - ensemble.sims
    if noise_chol is not None:
        innov = innov - rng.standard_normal(innov.shape) @ noise_chol.T
    moves = (moments.cov_xy @ cho_solve((low, True), innov.T)).T
    return Ensemble(ensemble.params + moves)


def eki_step(
    ensemble: Ensemble,
    observed: np.ndarray,
    h: float,
    moments: MomentSet,
    rng: np.random.Generator,
) -> Ensemble:
    """One perturbed-observation update with simulator-estimated noise.

    Moves each particle by
    C^xy (C^yy + (1/h - 1) C^{y|x})^-1 (y - y_i - eta_i) with
    eta_i ~ N(0, (1/h - 1) C^{y|x}), drawn from sqrt(1/h - 1) times
    moments.chol_y_given_x, the factor `select_next_lambda` was given; C^{y|x}
    is exactly symmetric already (`compute_moments`). The (1/h - 1) factor is
    floored at 0, so h = 1 draws no noise at all and h > 1 (optimisation-mode
    steps) degenerates to the plain C^yy bracket.
    """
    if ensemble.sims is None:
        raise ValueError("ensemble has no simulated data")
    if h <= 0:
        raise ValueError("stepsize h must be positive")
    observed = np.atleast_1d(np.asarray(observed, dtype=float))
    coeff = max(1.0 / h - 1.0, 0.0)
    noise_cov = coeff * moments.cov_y_given_x
    noise_chol = np.sqrt(coeff) * moments.chol_y_given_x if noise_cov.any() else None
    return _kalman_move(ensemble, observed, moments, noise_cov, noise_chol, rng)


def gaussian_eki_step(
    ensemble: Ensemble,
    forward_evals: np.ndarray,
    observed: np.ndarray,
    noise_cov: np.ndarray,
    h: float,
    rng: np.random.Generator,
) -> Ensemble:
    """Classic additive-Gaussian iterate, for models y = H(x) + N(0, R).

    Gain C^xH (C^HH + R/h)^-1, perturbations eta ~ N(0, R/h); h = 1 is the
    single perturbed-observation Kalman filter update step.
    """
    if h <= 0:
        raise ValueError("stepsize h must be positive")
    forward = np.atleast_2d(np.asarray(forward_evals, dtype=float))
    observed = np.atleast_1d(np.asarray(observed, dtype=float))
    r = symmetrize(np.atleast_2d(np.asarray(noise_cov, dtype=float)))
    if forward.shape[0] != ensemble.n:
        raise ValueError("forward_evals rows must match particle count")
    ensemble = ensemble.with_sims(forward)
    noise_cov = r / h
    noise_chol = chol_psd(noise_cov)[0] if noise_cov.any() else None
    moments = compute_moments(ensemble)
    return _kalman_move(ensemble, observed, moments, noise_cov, noise_chol, rng)


def select_next_lambda(
    sims: np.ndarray,
    observed: np.ndarray,
    chol_y_given_x: np.ndarray,
    lambda_prev: float,
    lambda_max: float,
    rho: float = _RHO,
    bisect_tol: float = _BISECT_TOL,
    max_bisect: int = 50,
) -> tuple:
    """Next inverse temperature by bisection on the pseudo-weight ESS.

    Pseudo-weights w_i are proportional to exp(-(lambda - lambda_prev) d_i / 2)
    with d_i = |L^-1 (y - y_i)|^2 the squared Mahalanobis distance of particle
    i's simulation from the observations, L = chol_y_given_x the lower factor
    of the noise covariance (one triangular solve serves all particles, and
    gives the same bits for C- and F-ordered sims). Weights are computed in
    log space with max-subtraction. Returns (lambda_next, normalized weights)
    where lambda_next has ESS within bisect_tol * N of rho * N, or lambda_max
    when even the full step keeps ESS at or above target (clamp, no search).
    Raises ValueError on any non-finite simulation.
    """
    if lambda_prev >= lambda_max:
        raise ValueError("lambda_prev must be below lambda_max")
    sims = np.atleast_2d(np.asarray(sims, dtype=float))
    observed = np.atleast_1d(np.asarray(observed, dtype=float))
    if not np.all(np.isfinite(sims)):
        raise ValueError("sims must be finite")
    n = sims.shape[0]
    resid = (observed - sims).T
    white = solve_triangular(chol_y_given_x, resid, lower=True)
    dist = np.einsum("ij,ij->j", white, white)
    target = rho * n
    tol = bisect_tol * n

    def weights_at(lam: float) -> np.ndarray:
        logw = -0.5 * (lam - lambda_prev) * dist
        logw = logw - logw.max()
        w = np.exp(logw)
        return w / w.sum()

    w_hi = weights_at(lambda_max)
    if ess(w_hi) >= target:
        return float(lambda_max), w_hi

    # collapse: ESS below target even at 2^-40 of the bracket (possible when
    # the d_i spread over many orders of magnitude, as on a near-singular
    # noise covariance)
    lo = lambda_prev
    hi = lambda_max
    eps_lam = lambda_prev + (lambda_max - lambda_prev) * 2.0**-40
    w_eps = weights_at(eps_lam)
    if ess(w_eps) < target - tol:
        return float(eps_lam), w_eps

    best_lam, best_w, best_gap = eps_lam, w_eps, abs(ess(w_eps) - target)
    for _ in range(max_bisect):
        mid = 0.5 * (lo + hi)
        w = weights_at(mid)
        gap = ess(w) - target
        if abs(gap) < best_gap:
            best_lam, best_w, best_gap = mid, w, abs(gap)
        if abs(gap) <= tol:
            return float(mid), w
        if gap > 0:
            lo = mid
        else:
            hi = mid
    return float(best_lam), best_w


def stop_optimisation(
    initial_var: np.ndarray, current_var: np.ndarray, upsilon: float
) -> bool:
    """True iff every marginal variance in current_var is strictly below upsilon x initial_var."""
    return bool(np.all(current_var < upsilon * initial_var))


def eki_min_particles(model: SimulatorModel) -> int:
    """Smallest ensemble run_eki accepts for model: d_x + d_y + 1.

    A smaller ensemble makes the estimated cov_y_given_x rank-deficient by
    construction.
    """
    return model.d_x + model.d_y + 1


def _check_observed(model: SimulatorModel, observed) -> np.ndarray:
    """observed as a float vector; ValueError unless finite and of length d_y."""
    observed = np.atleast_1d(np.asarray(observed, dtype=float))
    if observed.shape != (model.d_y,):
        raise ValueError(f"observed must have length {model.d_y}, got {observed.shape}")
    if not np.all(np.isfinite(observed)):
        raise ValueError("observed must be finite")
    return observed


def _require_finite(sims: np.ndarray, where: str) -> None:
    """The samplers' non-finite policy: a non-finite simulation ends the run."""
    if not np.all(np.isfinite(sims)):
        raise ValueError(f"{where}: simulation is not finite")


@_one_blas_thread()
def run_eki(
    model: SimulatorModel,
    observed: np.ndarray,
    config: EkiConfig,
    seed,
) -> RunResult:
    """Run the full inversion loop.

    Per iteration: simulate one dataset per particle, compute joint moments,
    check the mode's stopping rule, select the next temperature, perturb and
    move. Runs with OpenBLAS on one thread (see `enki.linalg`), so it is
    reproducible bit-for-bit from (model, observed, config, seed) whatever
    the caller's BLAS thread count. Needs n_particles >=
    eki_min_particles(model). A non-finite simulation raises ValueError
    naming the iteration.
    """
    observed = _check_observed(model, observed)
    n_min = eki_min_particles(model)
    if config.n_particles < n_min:
        raise ValueError(
            f"n_particles must be at least d_x + d_y + 1 = {n_min} for this model, "
            f"got {config.n_particles}"
        )
    root = as_seed_sequence(seed)
    params = model.prior_sample(config.n_particles, substream(root, PRIOR))
    ensemble = Ensemble(params)
    schedule = TemperSchedule()
    snapshots = [ensemble] if config.snapshots else None
    initial_var = None
    reason = "max_iters"

    for iteration in range(1, config.max_iters + 1):
        sims = model.simulate_batch(ensemble.params, substream(root, SIMULATE, iteration))
        _require_finite(sims, f"EKI iteration {iteration}")
        ensemble = ensemble.with_sims(sims)
        moments = compute_moments(ensemble)
        current_var = np.diag(moments.cov_xx)
        if initial_var is None:
            initial_var = current_var

        if config.stop_mode == "optimisation" and iteration > 1:
            if stop_optimisation(initial_var, current_var, _UPSILON):
                reason = "optimisation"
                break

        lambda_prev = schedule.final_lambda
        if config.stop_mode == "sampling":
            lambda_hi = 1.0
        else:
            # no terminal temperature in optimisation mode: grow the bracket
            lambda_hi = lambda_prev * 10.0 + 1.0
        lam, weights = select_next_lambda(
            sims, observed, moments.chol_y_given_x, lambda_prev, lambda_hi
        )
        try:
            moved = eki_step(
                ensemble, observed, lam - lambda_prev, moments,
                substream(root, PERTURB, iteration),
            )
        except np.linalg.LinAlgError as err:
            raise np.linalg.LinAlgError(f"iteration {iteration}: {err}") from err
        ess_value = ess(weights)
        clamped = lam == lambda_hi
        flagged = (not clamped) and abs(ess_value - _RHO * ensemble.n) > (
            _BISECT_TOL * ensemble.n
        )
        schedule.record(lam, ess_value, clamped, flagged)
        ensemble = moved
        if config.snapshots:
            snapshots.append(ensemble)
        if config.stop_mode == "sampling" and schedule.final_lambda >= 1.0:
            reason = "sampling"
            break

    return RunResult(
        ensemble=ensemble,
        schedule=schedule,
        # every exit from the loop follows that iteration's simulation round
        sim_count=config.n_particles * iteration,
        snapshots=snapshots,
        termination_reason=reason,
    )
