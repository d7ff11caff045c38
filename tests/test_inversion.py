"""Kalman inversion: single steps, temperature selection, stop rules, driver."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_solve

import enki
from enki.ensembles import Ensemble, GaussPair, MomentSet, compute_moments, mvn_sample
from enki.inversion import (
    EkiConfig,
    TemperSchedule,
    eki_min_particles,
    eki_step,
    gaussian_eki_step,
    run_eki,
    select_next_lambda,
    stop_optimisation,
)
from enki.linalg import chol_psd, symmetrize
from enki.models.gk import GkModel
from enki.rng import PERTURB, PRIOR, as_seed_sequence, derive, substream

from _helpers import draw_observation, random_lingauss, random_spd


# ------------------------------------------------------------- temper schedule

def test_schedule_records_and_serializes():
    sched = TemperSchedule()
    sched.record(0.25, 100.0, clamped=False, flagged=False)
    sched.record(1.0, 99.0, clamped=True, flagged=False)
    assert sched.final_lambda == 1.0
    assert sched.n_steps == 2
    assert sched.steps == [0.25, 0.75]
    recs = sched.to_records()
    assert recs[0] == {
        "iteration": 1, "lambda": 0.25, "h": 0.25, "ess": 100.0,
        "clamped": False, "flagged": False,
    }
    assert recs[1]["iteration"] == 2


def test_schedule_requires_strict_increase():
    sched = TemperSchedule()
    sched.record(0.5, 10.0, False, False)
    with pytest.raises(ValueError):
        sched.record(0.5, 10.0, False, False)


# ------------------------------------------------------------------- eki_step

def _make_simulated(seed: int, n: int = 200, d_x: int = 2, d_y: int = 2):
    rng = np.random.default_rng(seed)
    params = rng.normal(size=(n, d_x))
    sims = params @ rng.normal(size=(d_x, d_y)) + 0.3 * rng.normal(size=(n, d_y))
    return Ensemble(params, sims=sims)


def test_eki_step_h1_draws_no_noise():
    # h = 1 must not touch the generator at all
    ens = _make_simulated(0)
    mom = compute_moments(ens)
    y = np.array([0.5, -0.5])
    gen = np.random.default_rng(7)
    out = eki_step(ens, y, 1.0, mom, gen)
    probe_after = gen.standard_normal(3)
    fresh = np.random.default_rng(7).standard_normal(3)
    assert np.array_equal(probe_after, fresh)
    # and the move is the plain deterministic Kalman formula
    low, _ = chol_psd(mom.cov_yy)
    moves = (mom.cov_xy @ cho_solve((low, True), (y - ens.sims).T)).T
    assert np.array_equal(out.params, ens.params + moves)
    assert out.sims is None


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_eki_step_h1_degeneracy_property(seed):
    ens = _make_simulated(seed, n=40)
    mom = compute_moments(ens)
    y = np.array([0.1, 0.2])
    a = eki_step(ens, y, 1.0, mom, np.random.default_rng(1))
    b = eki_step(ens, y, 1.0, mom, np.random.default_rng(2))
    assert np.array_equal(a.params, b.params)


def test_eki_step_fractional_h_perturbs():
    ens = _make_simulated(1)
    mom = compute_moments(ens)
    y = np.array([0.0, 0.0])
    a = eki_step(ens, y, 0.5, mom, np.random.default_rng(1))
    b = eki_step(ens, y, 0.5, mom, np.random.default_rng(2))
    assert not np.array_equal(a.params, b.params)


def test_eki_step_oversized_h_floors_coefficient():
    # h > 1 floors (1/h - 1) at zero: same update as h = 1
    ens = _make_simulated(2)
    mom = compute_moments(ens)
    y = np.array([1.0, 1.0])
    one = eki_step(ens, y, 1.0, mom, np.random.default_rng(0))
    big = eki_step(ens, y, 4.0, mom, np.random.default_rng(0))
    assert np.array_equal(one.params, big.params)


def test_eki_step_input_contract():
    ens = _make_simulated(3)
    mom = compute_moments(ens)
    with pytest.raises(ValueError):
        eki_step(Ensemble(ens.params), np.zeros(2), 1.0, mom, np.random.default_rng(0))
    with pytest.raises(ValueError):
        eki_step(ens, np.zeros(2), 0.0, mom, np.random.default_rng(0))


def test_eki_step_draws_eta_from_the_noise_factor():
    # at h = 0.4 the move is the written-out filter step with
    # eta = sqrt(1/h - 1) Z L^T, L the Cholesky factor of C^{y|x}
    ens = _make_simulated(4, n=300, d_x=2, d_y=3)
    mom = compute_moments(ens)
    y = np.array([0.3, -0.2, 0.1])
    out = eki_step(ens, y, 0.4, mom, np.random.default_rng(5))
    z = np.random.default_rng(5).standard_normal((ens.n, 3))
    eta = np.sqrt(1.5) * z @ np.linalg.cholesky(mom.cov_y_given_x).T
    bracket = mom.cov_yy + 1.5 * mom.cov_y_given_x
    moves = (mom.cov_xy @ np.linalg.solve(bracket, (y - ens.sims - eta).T)).T
    assert np.allclose(out.params, ens.params + moves, rtol=1e-10, atol=1e-12)


def test_noise_factor_is_computed_once_and_only_when_needed(monkeypatch):
    calls = []

    def counting_chol(mat):
        calls.append(np.shape(mat))
        return chol_psd(mat)

    monkeypatch.setattr(enki.ensembles, "chol_psd", counting_chol)
    mom = compute_moments(_make_simulated(5))
    first = mom.chol_y_given_x
    assert mom.chol_y_given_x is first
    assert calls == [(2, 2)]
    assert np.allclose(first @ first.T, mom.cov_y_given_x)

    # the known-noise step scales its own R / h, never the estimate
    def refuse(self):
        raise AssertionError("gaussian_eki_step factored cov_y_given_x")

    monkeypatch.setattr(MomentSet, "chol_y_given_x", property(refuse))
    rng = np.random.default_rng(6)
    params = rng.normal(size=(50, 2))
    gaussian_eki_step(Ensemble(params), params @ rng.normal(size=(2, 3)),
                      np.zeros(3), np.eye(3), 0.5, rng)


def test_run_eki_factors_each_dy_matrix_once_per_iteration(monkeypatch):
    # per iteration: C^{y|x} once (distances and eta) and C^yy + G once (move)
    rng = np.random.default_rng(15)
    model = random_lingauss(rng, 2, 6)
    _, _, y = draw_observation(model, 10)
    shapes = []

    def counting_chol(mat):
        shapes.append(np.shape(mat))
        return chol_psd(mat)

    for site in (enki.linalg, enki.ensembles, enki.inversion):
        monkeypatch.setattr(site, "chol_psd", counting_chol)
    res = run_eki(model, y, EkiConfig(n_particles=120), 10)
    assert res.schedule.n_steps > 1
    assert shapes.count((6, 6)) == 2 * res.schedule.n_steps


def test_eki_step_single_update_matches_scalar_posterior():
    # one h=1 step on a linear model is the Kalman update; with a huge
    # ensemble the empirical moments converge and so does the posterior
    rng = np.random.default_rng(5)
    n = 400_000
    params = rng.standard_normal((n, 1))
    sims = params + rng.standard_normal((n, 1))  # H = 1, R = 1
    ens = Ensemble(params, sims=sims)
    out = eki_step(ens, np.array([1.0]), 1.0, compute_moments(ens), rng)
    assert abs(out.params.mean() - 0.5) < 0.01
    assert abs(out.params.var(ddof=1) - 0.5) < 0.01


# ---------------------------------------------------------- gaussian_eki_step

def test_gaussian_step_h1_is_single_enkf_update():
    # byte-identical to the perturbed-observation filter update written out
    rng = np.random.default_rng(9)
    n, d_x, d_y = 64, 3, 2
    params = rng.normal(size=(n, d_x))
    h_mat = rng.normal(size=(d_y, d_x))
    r = np.array([[0.5, 0.1], [0.1, 0.4]])
    y = rng.normal(size=d_y)
    forward = params @ h_mat.T
    root = as_seed_sequence(99)
    stepped = gaussian_eki_step(
        Ensemble(params), forward, y, r, 1.0, substream(root, PERTURB, 1)
    )
    xc = params - params.mean(axis=0)
    fc = forward - forward.mean(axis=0)
    cov_xh = xc.T @ fc / (n - 1)
    cov_hh = symmetrize(fc.T @ fc / (n - 1))
    low, _ = chol_psd(cov_hh + r)
    eta = mvn_sample(GaussPair(np.zeros(d_y), r), n, substream(root, PERTURB, 1))
    gain_applied = (cov_xh @ cho_solve((low, True), (y - forward - eta).T)).T
    assert np.array_equal(stepped.params, params + gain_applied)


def test_gaussian_step_validation():
    params = np.zeros((4, 2))
    with pytest.raises(ValueError):
        gaussian_eki_step(
            Ensemble(params), np.zeros((3, 1)), np.zeros(1), np.eye(1), 1.0,
            np.random.default_rng(0),
        )
    with pytest.raises(ValueError):
        gaussian_eki_step(
            Ensemble(params), np.zeros((4, 1)), np.zeros(1), np.eye(1), 0.0,
            np.random.default_rng(0),
        )


# ------------------------------------------------------------ select_next_lambda

def test_select_lambda_clamps_on_uniform_weights():
    # identical simulations make every pseudo-distance equal: ESS stays N
    sims = np.ones((50, 2))
    y = np.array([2.0, 2.0])
    lam, w = select_next_lambda(sims, y, np.eye(2), 0.0, 1.0)
    assert lam == 1.0
    assert np.allclose(w, 1.0 / 50)


def test_select_lambda_bisection_root_brute_force_oracle():
    # two particles with squared distances (0, 2): weights (1, e^-lam),
    # ESS = (1+t)^2 / (1+t^2) with t = e^-lam; target 1.6 solves to ln 3
    sims = np.array([[0.0], [np.sqrt(2.0)]])
    y = np.array([0.0])
    lam, w = select_next_lambda(
        sims, y, np.eye(1), 0.0, 50.0, rho=0.8, bisect_tol=1e-9, max_bisect=200
    )
    grid = np.linspace(1e-6, 5.0, 2_000_001)
    t = np.exp(-grid)
    ess_grid = (1 + t) ** 2 / (1 + t**2)
    brute = grid[np.argmin(np.abs(ess_grid - 1.6))]
    assert abs(lam - brute) < 1e-5
    assert abs(lam - np.log(3.0)) < 1e-6
    assert w.sum() == pytest.approx(1.0)


def test_select_lambda_hits_ess_target():
    rng = np.random.default_rng(3)
    sims = rng.normal(size=(1000, 3))
    y = np.array([2.0, -1.0, 0.5])
    lam, w = select_next_lambda(sims, y, np.eye(3), 0.0, 1e9, rho=0.5, bisect_tol=1e-2)
    assert 0.0 < lam < 1e9
    assert abs(1.0 / np.dot(w, w) - 500.0) <= 10.0


def test_select_lambda_distances_under_a_general_factor():
    # the factor of a non-identity C gives the lambda and weights of the
    # distances r_i^T C^-1 r_i, fed in as one-dimensional residuals
    rng = np.random.default_rng(8)
    cov = random_spd(rng, 4)
    sims = rng.normal(size=(300, 4)) @ np.linalg.cholesky(cov).T
    y = np.array([1.0, -0.5, 0.2, 0.8])
    resid = y - sims
    dist = np.einsum("ij,ij->i", resid, np.linalg.solve(cov, resid.T).T)
    lam, w = select_next_lambda(sims, y, np.linalg.cholesky(cov), 0.0, 1e9)
    lam_ref, w_ref = select_next_lambda(
        np.sqrt(dist)[:, None], np.zeros(1), np.eye(1), 0.0, 1e9
    )
    assert lam == pytest.approx(lam_ref, rel=1e-9)
    assert np.allclose(w, w_ref, rtol=1e-9, atol=1e-15)
    assert 0.0 < lam < 1e9
    direct = np.exp(-0.5 * lam * (dist - dist.min()))
    assert np.allclose(w, direct / direct.sum(), rtol=1e-9, atol=1e-15)


def test_select_lambda_ignores_the_memory_layout_of_sims():
    # simulators return C- or F-ordered arrays (g-and-k's kept ranks are
    # F-ordered); lambda and the weights must not depend on which
    rng = np.random.default_rng(9)
    low = np.linalg.cholesky(random_spd(rng, 5))
    sims = rng.normal(size=(400, 5)) @ low.T
    y = np.array([0.3, -1.0, 0.5, 0.0, 1.2])
    lam_c, w_c = select_next_lambda(np.ascontiguousarray(sims), y, low, 0.0, 1e9)
    lam_f, w_f = select_next_lambda(np.asfortranarray(sims), y, low, 0.0, 1e9)
    assert 0.0 < lam_c < 1e9
    assert lam_f == lam_c
    assert np.array_equal(w_f, w_c)


def test_select_lambda_respects_lambda_prev():
    rng = np.random.default_rng(4)
    sims = rng.normal(size=(200, 2))
    y = np.zeros(2)
    lam1, _ = select_next_lambda(sims, y, np.eye(2), 0.0, 1e9)
    lam2, _ = select_next_lambda(sims, y, np.eye(2), lam1, 1e9)
    assert lam2 > lam1
    with pytest.raises(ValueError):
        select_next_lambda(sims, y, np.eye(2), 1.0, 1.0)


def test_select_lambda_rejects_non_finite_sims():
    y = np.array([0.0])
    for sims in (
        np.array([[0.0], [np.nan], [0.1], [0.2]]),
        np.full((3, 1), np.inf),
        np.full((3, 1), np.nan),
    ):
        with pytest.raises(ValueError, match="finite"):
            select_next_lambda(sims, y, np.eye(1), 0.0, 1.0)


# ------------------------------------------------------------------ stop rules

def test_stop_optimisation_is_strict():
    base = _make_simulated(0, n=100)
    var = np.diag(compute_moments(base).cov_xx)
    assert not stop_optimisation(var, var, upsilon=1.0)  # equality fails
    shrunk = Ensemble(base.params * 0.01, sims=base.sims)
    shrunk_var = np.diag(compute_moments(shrunk).cov_xx)
    assert stop_optimisation(var, shrunk_var, upsilon=1e-2)
    assert not stop_optimisation(var, shrunk_var, upsilon=1e-5)


# --------------------------------------------------------------------- run_eki

def test_run_eki_sampling_reaches_terminal_temperature():
    rng = np.random.default_rng(0)
    model = random_lingauss(rng, 2, 2)
    _, _, y = draw_observation(model, 3)
    res = run_eki(model, y, EkiConfig(n_particles=400), 3)
    assert res.termination_reason == "sampling"
    assert res.schedule.final_lambda == 1.0
    assert res.schedule.lambdas[0] == 0.0
    assert np.all(np.diff(res.schedule.lambdas) > 0)
    assert res.sim_count == 400 * res.schedule.n_steps
    assert res.schedule.clamped[-1]


def test_run_eki_temper_contract():
    # every non-clamped accepted temperature keeps ESS within 0.01 N of N/2
    model = GkModel()
    _, _, y = draw_observation(model, 1)
    cfg = EkiConfig(n_particles=300)
    res = run_eki(model, y, cfg, 1)
    for ess_val, clamped, flagged in zip(
        res.schedule.ess_values, res.schedule.clamped, res.schedule.flagged
    ):
        if not clamped:
            assert abs(ess_val - 0.5 * 300) <= 1e-2 * 300
            assert not flagged


def test_run_eki_bitwise_reproducible():
    model = GkModel(n_raw=100, n_stats=10)
    _, _, y = draw_observation(model, 5)
    cfg = EkiConfig(n_particles=60)
    a = run_eki(model, y, cfg, 11)
    b = run_eki(model, y, cfg, 11)
    c = run_eki(model, y, cfg, 12)
    assert np.array_equal(a.ensemble.params, b.ensemble.params)
    assert a.schedule.lambdas == b.schedule.lambdas
    assert not np.array_equal(a.ensemble.params, c.ensemble.params)


def test_run_eki_optimisation_contracts_variances():
    model = GkModel()
    _, _, y = draw_observation(model, 0)
    res = run_eki(model, y, EkiConfig(n_particles=150, stop_mode="optimisation"), 0)
    assert res.termination_reason == "optimisation"
    # final spread strictly below upsilon x initial in every coordinate
    prior = model.prior_sample(150, substream(as_seed_sequence(0), PRIOR))
    assert np.all(
        res.ensemble.params.var(axis=0, ddof=1) < 1e-2 * prior.var(axis=0, ddof=1)
    )
    # optimisation mode is not tied to the sampling ceiling: the variance rule
    # may fire on either side of temperature 1
    assert res.schedule.final_lambda > 0.0


def test_run_eki_max_iters_reason():
    rng = np.random.default_rng(12)
    model = random_lingauss(rng, 2, 2)
    _, _, y = draw_observation(model, 8)
    # optimisation mode checks its stop rule only from iteration 2 on, so a
    # one-iteration cap must bite
    cfg = EkiConfig(n_particles=50, stop_mode="optimisation", max_iters=1)
    res = run_eki(model, y, cfg, 8)
    assert res.termination_reason == "max_iters"
    assert res.schedule.n_steps == 1
    assert res.schedule.final_lambda < 1e12


def test_run_eki_snapshots_cover_every_iteration():
    rng = np.random.default_rng(13)
    model = random_lingauss(rng, 2, 2)
    root, _, y = draw_observation(model, 9)
    res = run_eki(model, y, EkiConfig(n_particles=80, snapshots=True), 9)
    assert len(res.snapshots) == res.schedule.n_steps + 1
    # the first snapshot is the prior draw, before any move
    prior = model.prior_sample(80, substream(root, PRIOR))
    assert np.array_equal(res.snapshots[0].params, prior)
    assert np.array_equal(res.snapshots[-1].params, res.ensemble.params)


def test_run_eki_validates_observed_length():
    rng = np.random.default_rng(14)
    model = random_lingauss(rng, 2, 2)
    with pytest.raises(ValueError):
        run_eki(model, np.zeros(5), EkiConfig(n_particles=10), 0)


def test_run_eki_needs_full_rank_noise_estimate():
    # C^{y|x} from N particles has rank at most N - 1 - d_x: gk needs 105
    model = GkModel()
    _, _, y = draw_observation(model, 0)
    assert eki_min_particles(model) == 105
    with pytest.raises(ValueError, match="n_particles.*105"):
        run_eki(model, y, EkiConfig(n_particles=104), 0)
    res = run_eki(model, y, EkiConfig(n_particles=105, max_iters=1), 0)
    assert res.sim_count == 105


def test_eki_config_validation():
    with pytest.raises(ValueError):
        EkiConfig(n_particles=1)
    with pytest.raises(ValueError):
        EkiConfig(n_particles=10, stop_mode="nope")
    with pytest.raises(ValueError, match="stop_mode"):
        EkiConfig(n_particles=10, stop_mode="discrepancy")
    for bad in ({"tau": 1.0}, {"noise_cov": np.eye(2)}):
        with pytest.raises(TypeError):
            EkiConfig(n_particles=10, **bad)
    for name, value in (("n_particles", 10.0), ("n_particles", True), ("max_iters", 2.5)):
        with pytest.raises(TypeError, match=name):
            EkiConfig(**{"n_particles": 10, name: value})
    EkiConfig(n_particles=np.int64(10), max_iters=np.int32(3))
