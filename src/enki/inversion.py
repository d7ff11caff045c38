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
from .ensembles import Ensemble, MomentSet, _round_sims, compute_moments, ess, mvn_sample
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
    marks steps whose ESS missed the target beyond tolerance, and shrinkage
    holds each step's `MomentSet.shrinkage`, the intensity by which its
    noise estimate's correlations were shrunk.
    """

    lambdas: list = field(default_factory=lambda: [0.0])
    ess_values: list = field(default_factory=list)
    clamped: list = field(default_factory=list)
    flagged: list = field(default_factory=list)
    shrinkage: list = field(default_factory=list)

    def record(self, lam: float, ess_value: float, clamped: bool, flagged: bool,
               shrinkage: float):
        if lam <= self.lambdas[-1]:
            raise ValueError("temperatures must be strictly increasing")
        self.lambdas.append(lam)
        self.ess_values.append(ess_value)
        self.clamped.append(clamped)
        self.flagged.append(flagged)
        self.shrinkage.append(shrinkage)

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
        """Rows of {iteration, lambda, h, ess, clamped, flagged, shrinkage} for serialization."""
        rows = zip(self.lambdas[1:], self.steps, self.ess_values, self.clamped, self.flagged,
                   self.shrinkage)
        return [
            {"iteration": i, "lambda": lam, "h": h, "ess": e, "clamped": c, "flagged": f,
             "shrinkage": s}
            for i, (lam, h, e, c, f, s) in enumerate(rows, start=1)
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
    """Final particles plus the harness's bookkeeping.

    final_temp is the temperature the sampler ended at: the last inverse
    temperature lambda for EKI, the last ABC tolerance kappa for ABC-SMC and
    ABC-MCMC.
    """

    ensemble: Ensemble
    final_temp: float
    schedule: TemperSchedule = None
    sim_count: int = 0
    snapshots: list = None
    termination_reason: str = ""
    diagnostics: dict = field(default_factory=dict)


def eki_step(
    ensemble: Ensemble,
    sims: np.ndarray,
    observed: np.ndarray,
    h: float,
    moments: MomentSet,
    rng: np.random.Generator,
) -> Ensemble:
    """One perturbed-observation update with simulator-estimated noise.

    Moves each particle by K (y - y_i - eta_i), y_i its row of sims, with the gain
    K = C^xy (C^yy + c C^{y|x})^-1, c = max(1/h - 1, 0), and
    eta_i ~ N(0, c C^{y|x}), where C^{y|x} is the shrunk noise estimate
    moments.cov_y_given_x, and the gain's C^yy is the signal
    C^yx (C^xx)^-1 C^xy plus that estimate (`compute_moments`). Only the
    gain's image of eta reaches the particles, each row of eta K^T being
    N(0, c K C^{y|x} K^T), so it is drawn as sqrt(c) Z R: Z one
    rng.standard_normal((N, min(d_x, d_y))) draw and R the triangular
    factor of a QR of W below, R^T R = W^T W = K C^{y|x} K^T.
    The floor makes h = 1 draw no noise at all, and h > 1
    (optimisation-mode steps) the plain C^yy bracket.

    The move is computed in the whitened coordinates of
    L = moments.chol_y_given_x, the factor `select_next_lambda` was given.
    With G = L^-1 C^yx and C^yy = C^{y|x} + C^yx (C^xx)^-1 C^xy, the
    push-through identity gives K^T = L^-T W, where
    W = G ((1 + c) C^xx + G^T G)^-1 C^xx. So no d_y x d_y matrix is
    factored or multiplied beyond L itself: per step two triangular solves,
    one d_x x d_x factor and one QR of the d_y x d_x W,
    O(d_y^2 d_x + N d_y d_x + d_x^3). L is needed at every h. Where
    `chol_psd` jittered C^{y|x}, the gain is that of C^{y|x} + jitter I, in
    C^yy and in the law of eta. observed must be finite and of length d_y.
    """
    if not h > 0:  # NaN fails this test too
        raise ValueError("stepsize h must be positive")
    sims = _round_sims(ensemble, sims)
    observed = _observed_vector(observed, sims.shape[1])
    coeff = max(1.0 / h - 1.0, 0.0)
    chol = moments.chol_y_given_x
    white = solve_triangular(chol, moments.cov_xy.T, lower=True)
    low, _ = chol_psd((1.0 + coeff) * moments.cov_xx + white.T @ white)
    w = white @ cho_solve((low, True), moments.cov_xx)
    moves = (observed - sims) @ solve_triangular(chol, w, lower=True, trans="T")
    if coeff > 0.0:
        r = np.linalg.qr(w, mode="r")
        moves -= rng.standard_normal((ensemble.n, r.shape[0])) @ (np.sqrt(coeff) * r)
    return Ensemble(ensemble.params + moves)


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
    single perturbed-observation Kalman filter update step. C^xH and C^HH
    are the ensemble covariances of the particles and forward_evals; no
    noise covariance is estimated. Unlike `eki_step`, it solves against all
    N innovations and then multiplies by C^xH, the written-out filter's
    association, which it reproduces bit for bit. forward_evals must have
    N rows, all finite, observed be finite and of length d_y, its column
    count, and noise_cov be d_y x d_y.
    """
    if not h > 0:  # NaN fails this test too
        raise ValueError("stepsize h must be positive")
    forward = _round_sims(ensemble, forward_evals)
    observed = _observed_vector(observed, forward.shape[1])
    r = np.atleast_2d(np.asarray(noise_cov, dtype=float))
    if r.shape != (observed.size, observed.size):
        raise ValueError(f"noise_cov must be {observed.size} x {observed.size}, got {r.shape}")
    r = symmetrize(r)
    noise_cov = r / h
    n = ensemble.n
    xc = ensemble.params - ensemble.params.mean(axis=0)
    fc = forward - forward.mean(axis=0)
    cov_xh = xc.T @ fc / (n - 1)
    low, _ = chol_psd(symmetrize(fc.T @ fc / (n - 1)) + noise_cov)
    innov = observed - forward
    if noise_cov.any():
        innov = innov - rng.standard_normal(innov.shape) @ chol_psd(noise_cov)[0].T
    return Ensemble(ensemble.params + (cov_xh @ cho_solve((low, True), innov.T)).T)


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
    of the noise covariance, in `run_eki` the shrunk estimate
    `MomentSet.chol_y_given_x` (one triangular solve serves all particles, and
    gives the same bits for C- and F-ordered sims). Weights are computed in
    log space with max-subtraction. Returns (lambda_next, normalized weights)
    where lambda_next has ESS within bisect_tol * N of rho * N, or lambda_max
    when even the full step keeps ESS at or above target (clamp, no search).
    Raises ValueError on any non-finite simulation, or unless observed is
    finite and of length d_y, the column count of sims.
    """
    if not lambda_prev < lambda_max:  # NaN fails this test too
        raise ValueError("lambda_prev must be below lambda_max")
    sims = np.atleast_2d(np.asarray(sims, dtype=float))
    observed = _observed_vector(observed, sims.shape[1])
    if not np.all(np.isfinite(sims)):
        raise ValueError("sims must be finite")
    n = sims.shape[0]
    # a fresh F-ordered temporary, so the solve overwrites it instead of a copy
    resid = (observed - sims).T
    white = solve_triangular(chol_y_given_x, resid, lower=True, overwrite_b=True)
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


def stop_optimisation(initial_var: np.ndarray, current_var: np.ndarray) -> bool:
    """True iff every current_var entry is strictly below _UPSILON (1%) x its initial_var."""
    return bool(np.all(current_var < _UPSILON * initial_var))


def eki_min_particles(model: SimulatorModel) -> int:
    """Smallest ensemble run_eki accepts for model: d_x + d_y + 1.

    A smaller ensemble makes the estimated cov_y_given_x rank-deficient by
    construction.
    """
    return model.d_x + model.d_y + 1


def _observed_vector(observed, d_y: int) -> np.ndarray:
    """observed as a float vector; ValueError unless finite and of length d_y."""
    observed = np.atleast_1d(np.asarray(observed, dtype=float))
    if observed.shape != (d_y,):
        raise ValueError(f"observed must have length {d_y}, got {observed.shape}")
    if not np.all(np.isfinite(observed)):
        raise ValueError("observed must be finite")
    return observed


def _require_finite(sims: np.ndarray, where: str) -> None:
    """The samplers' non-finite policy: a non-finite simulation ends the run."""
    if not np.isfinite(sims).all():
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
    naming the iteration, and a covariance that will not factor, in the
    search or the move, raises LinAlgError naming it.
    """
    observed = _observed_vector(observed, model.d_y)
    n_min = eki_min_particles(model)
    if config.n_particles < n_min:
        raise ValueError(
            f"n_particles must be at least d_x + d_y + 1 = {n_min} for this model, "
            f"got {config.n_particles}"
        )
    root = as_seed_sequence(seed)
    ensemble = Ensemble(model.prior_sample(config.n_particles, substream(root, PRIOR)))
    sampling = config.stop_mode == "sampling"
    schedule = TemperSchedule()
    snapshots = [ensemble] if config.snapshots else None
    reason = "max_iters"

    for iteration in range(1, config.max_iters + 1):
        sims = model.simulate_batch(ensemble.params, substream(root, SIMULATE, iteration))
        _require_finite(sims, f"EKI iteration {iteration}")
        moments = compute_moments(ensemble, sims)
        current_var = np.diag(moments.cov_xx)
        if iteration == 1:
            initial_var = current_var
        elif not sampling and stop_optimisation(initial_var, current_var):
            reason = "optimisation"
            break

        lambda_prev = schedule.final_lambda
        # no terminal temperature in optimisation mode: grow the bracket
        lambda_hi = 1.0 if sampling else lambda_prev * 10.0 + 1.0
        try:
            lam, weights = select_next_lambda(
                sims, observed, moments.chol_y_given_x, lambda_prev, lambda_hi
            )
            ensemble = eki_step(
                ensemble, sims, observed, lam - lambda_prev, moments,
                substream(root, PERTURB, iteration),
            )
        except np.linalg.LinAlgError as err:
            raise np.linalg.LinAlgError(f"iteration {iteration}: {err}") from err
        ess_value = ess(weights)
        clamped = lam == lambda_hi
        flagged = (not clamped) and abs(ess_value - _RHO * ensemble.n) > (
            _BISECT_TOL * ensemble.n
        )
        schedule.record(lam, ess_value, clamped, flagged, moments.shrinkage)
        if config.snapshots:
            snapshots.append(ensemble)
        if sampling and schedule.final_lambda >= 1.0:
            reason = "sampling"
            break

    return RunResult(
        ensemble=ensemble,
        final_temp=schedule.final_lambda,
        schedule=schedule,
        # every exit from the loop follows that iteration's simulation round
        sim_count=config.n_particles * iteration,
        snapshots=snapshots,
        termination_reason=reason,
    )
