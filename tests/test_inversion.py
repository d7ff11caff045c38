"""Kalman inversion: single steps, temperature selection, stop rules, driver."""
import logging
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_solve, solve_triangular

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
from enki.models.lingauss import LinearGaussianModel
from enki.rng import PERTURB, PRIOR, as_seed_sequence, derive, substream

from _helpers import draw_observation, random_lingauss, random_spd


# ------------------------------------------------------------- temper schedule

def test_schedule_records_and_serializes():
    sched = TemperSchedule()
    sched.record(0.25, 100.0, clamped=False, flagged=False, shrinkage=0.3)
    sched.record(1.0, 99.0, clamped=True, flagged=False, shrinkage=0.0)
    assert sched.final_lambda == 1.0
    assert sched.n_steps == 2
    assert sched.steps == [0.25, 0.75]
    assert sched.shrinkage == [0.3, 0.0]
    recs = sched.to_records()
    assert recs[0] == {
        "iteration": 1, "lambda": 0.25, "h": 0.25, "ess": 100.0,
        "clamped": False, "flagged": False, "shrinkage": 0.3,
    }
    assert recs[1]["iteration"] == 2
    assert recs[1]["shrinkage"] == 0.0


def test_schedule_requires_strict_increase():
    sched = TemperSchedule()
    sched.record(0.5, 10.0, False, False, 0.0)
    with pytest.raises(ValueError):
        sched.record(0.5, 10.0, False, False, 0.0)


# ------------------------------------------------------------------- eki_step

def _make_simulated(seed: int, n: int = 200, d_x: int = 2, d_y: int = 2):
    rng = np.random.default_rng(seed)
    params = rng.normal(size=(n, d_x))
    sims = params @ rng.normal(size=(d_x, d_y)) + 0.3 * rng.normal(size=(n, d_y))
    return Ensemble(params, sims=sims)


def _signal(mom) -> np.ndarray:
    """C^yx (C^xx)^-1 C^xy: the gain's C^yy less the noise estimate."""
    return mom.cov_xy.T @ np.linalg.solve(mom.cov_xx, mom.cov_xy)


def _perturbation_factor(gain, noise, chol) -> np.ndarray:
    """R from a QR of L^T K^T, checked against the textbook law of eta K^T.

    The move draws eta K^T as sqrt(c) Z R, Z with min(d_x, d_y) columns; its
    rows are N(0, c R^T R), and c R^T R must be the textbook c K C^{y|x} K^T
    of eta ~ N(0, c C^{y|x}), for L the factor of C^{y|x}.
    """
    r = np.linalg.qr(chol.T @ gain.T, mode="r")
    law = gain @ noise @ gain.T
    assert r.shape == (min(gain.shape), gain.shape[0])
    assert np.abs(r.T @ r - law).max() <= 1e-12 * np.abs(law).max()
    return r


def _drawn_image(n, cov_xy, bracket, noise, chol, coeff) -> np.ndarray:
    """sqrt(c) Z R for the textbook gain K = C^xy bracket^-1, Z the move's draw
    from default_rng(5) for n particles."""
    gain = np.linalg.solve(bracket, cov_xy.T).T
    r = _perturbation_factor(gain, noise, chol)
    return np.sqrt(coeff) * np.random.default_rng(5).standard_normal((n, r.shape[0])) @ r


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
    # and the move is the deterministic Kalman formula in the noise factor's
    # whitened coordinates, c = 0: K^T = L^-T G (C^xx + G^T G)^-1 C^xx
    chol = mom.chol_y_given_x
    white = solve_triangular(chol, mom.cov_xy.T, lower=True)
    low, _ = chol_psd(mom.cov_xx + white.T @ white)
    w = white @ cho_solve((low, True), mom.cov_xx)
    moves = (y - ens.sims) @ solve_triangular(chol, w, lower=True, trans="T")
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
    # an observed vector of the wrong length is refused, not broadcast
    ens = _make_simulated(3, d_y=3)
    mom = compute_moments(ens)
    for observed in (np.zeros(1), np.zeros(2)):
        with pytest.raises(ValueError, match="observed must have length 3"):
            eki_step(ens, observed, 1.0, mom, np.random.default_rng(0))


@pytest.mark.parametrize("h", [0.4, 1.0, 4.0])
@pytest.mark.parametrize("d_x, d_y", [(2, 3), (5, 2)])
def test_eki_step_draws_eta_from_the_noise_factor(h, d_x, d_y):
    # the move is the written-out filter step with eta ~ N(0, c C^{y|x}),
    # c = max(1/h - 1, 0) and C^{y|x} the shrunk estimate, whose image
    # eta K^T is drawn as sqrt(c) Z R (`_perturbation_factor`); the gain's
    # C^yy is the signal plus that estimate
    ens = _make_simulated(4, n=300, d_x=d_x, d_y=d_y)
    mom = compute_moments(ens)
    y = np.array([0.3, -0.2, 0.1])[:d_y]
    out = eki_step(ens, y, h, mom, np.random.default_rng(5))
    coeff = max(1.0 / h - 1.0, 0.0)
    bracket = _signal(mom) + (1.0 + coeff) * mom.cov_y_given_x
    image = _drawn_image(ens.n, mom.cov_xy, bracket, mom.cov_y_given_x,
                         np.linalg.cholesky(mom.cov_y_given_x), coeff)
    moves = (mom.cov_xy @ np.linalg.solve(bracket, (y - ens.sims).T)).T - image
    assert np.allclose(out.params, ens.params + moves, rtol=1e-10, atol=1e-12)


class _RecordingGenerator:
    """A generator that records the shape of every standard_normal draw."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.shapes = []

    def standard_normal(self, size):
        self.shapes.append(size)
        return self._rng.standard_normal(size)


@pytest.mark.parametrize("d_x, d_y", [(2, 3), (5, 2)])
def test_eki_step_draws_n_by_min_dx_dy_normals(d_x, d_y):
    # only the gain's image of eta is drawn: one N x min(d_x, d_y) block,
    # never N x d_y, and nothing at h = 1
    ens = _make_simulated(9, n=50, d_x=d_x, d_y=d_y)
    mom = compute_moments(ens)
    for h, shapes in ((0.5, [(50, min(d_x, d_y))]), (1.0, [])):
        gen = _RecordingGenerator(0)
        eki_step(ens, np.zeros(d_y), h, mom, gen)
        assert gen.shapes == shapes


def test_each_step_solves_in_its_own_order(monkeypatch):
    # every solve of eki_step has d_x right-hand sides (whiten C^yx, the
    # d_x x d_x system, unwhiten the gain); gaussian_eki_step solves against
    # every particle's innovation (N right-hand sides)
    shapes = []

    def recording(solve):
        def wrapper(a, b, **kwargs):
            shapes.append(np.shape(b))
            return solve(a, b, **kwargs)
        return wrapper

    monkeypatch.setattr(enki.inversion, "cho_solve", recording(cho_solve))
    monkeypatch.setattr(enki.inversion, "solve_triangular", recording(solve_triangular))
    n, d_x, d_y = 60, 2, 5
    ens = _make_simulated(12, n=n, d_x=d_x, d_y=d_y)
    eki_step(ens, np.zeros(d_y), 0.5, compute_moments(ens), np.random.default_rng(0))
    assert shapes == [(d_y, d_x), (d_x, d_x), (d_y, d_x)]
    shapes.clear()
    gaussian_eki_step(Ensemble(ens.params), ens.sims, np.zeros(d_y), np.eye(d_y), 0.5,
                      np.random.default_rng(0))
    assert shapes == [(d_y, n)]


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

    # the known-noise step forms its own filter moments and scales its own
    # R / h: it neither estimates the noise nor factors that estimate
    def refuse(*args):
        raise AssertionError("gaussian_eki_step estimated the noise")

    monkeypatch.setattr(MomentSet, "chol_y_given_x", property(refuse))
    monkeypatch.setattr(enki.inversion, "compute_moments", refuse)
    rng = np.random.default_rng(6)
    params = rng.normal(size=(50, 2))
    gaussian_eki_step(Ensemble(params), params @ rng.normal(size=(2, 3)),
                      np.zeros(3), np.eye(3), 0.5, rng)


def test_gaussian_step_factors_nothing_singular_when_n_is_at_most_d_x(caplog):
    # N=4 particles in d_x=6 make C^xx singular; the known-noise step never
    # forms it, so chol_psd jitters nothing and logs no line
    rng = np.random.default_rng(8)
    params = rng.normal(size=(4, 6))
    forward = params @ rng.normal(size=(6, 2))
    with caplog.at_level(logging.DEBUG, logger="enki.linalg"):
        out = gaussian_eki_step(Ensemble(params), forward, np.zeros(2), np.eye(2), 0.5, rng)
    assert np.isfinite(out.params).all()
    assert not [rec for rec in caplog.records if "jitter" in rec.getMessage()]


def test_run_eki_factors_each_dy_matrix_once_per_iteration(monkeypatch):
    # per iteration one d_y x d_y factor, C^{y|x} (distances, eta and the
    # whitened gain), beside two d_x x d_x ones: C^xx and the move's system
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
    assert shapes.count((6, 6)) == res.schedule.n_steps
    # the one further factor is the prior draw's
    assert shapes.count((2, 2)) == 2 * res.schedule.n_steps + 1
    assert len(shapes) == 3 * res.schedule.n_steps + 1


def _exact(mat) -> list:
    """Rows of a float array as exact Fractions."""
    return [[Fraction(float(v)) for v in row] for row in np.atleast_2d(mat)]


def _exact_matmul(a: list, b: list) -> list:
    return [[sum((a[i][k] * b[k][j] for k in range(len(b))), Fraction(0))
             for j in range(len(b[0]))] for i in range(len(a))]


def _exact_transpose(a: list) -> list:
    return [list(col) for col in zip(*a)]


def _exact_solve(a: list, b: list) -> list:
    """a^-1 b by Gauss-Jordan elimination on Fractions."""
    n = len(a)
    rows = [list(a[i]) + list(b[i]) for i in range(n)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rows[col] = [v / rows[col][col] for v in rows[col]]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [v - f * u for v, u in zip(rows[r], rows[col])]
    return [row[n:] for row in rows]


def _exact_textbook_move(params, sims, observed, noise, chol, z, coeff) -> np.ndarray:
    """The textbook move K (y - y_i) - eta_i K^T, in exact arithmetic.

    The moments are exact functions of the float data, and the bracket is
    the signal C^yx (C^xx)^-1 C^xy plus (1 + c) times the float noise
    estimate. eta K^T = sqrt(c) Z R for c in {0, 1} (so sqrt(c) = c), with
    R the `_perturbation_factor` of the exact gain K rounded to floats and
    the float factor L. Returns the (N, d_x) moves, rounded once to floats.
    """
    n = len(params)

    def centred(mat):
        rows = _exact(mat)
        mean = [sum(col, Fraction(0)) / n for col in zip(*rows)]
        return [[v - m for v, m in zip(row, mean)] for row in rows]

    def cov(a, b):
        return [[v / (n - 1) for v in row] for row in _exact_matmul(_exact_transpose(a), b)]

    xc, yc = centred(params), centred(sims)
    cov_xx, cov_xy = cov(xc, xc), cov(xc, yc)
    signal = _exact_matmul(_exact_transpose(cov_xy), _exact_solve(cov_xx, cov_xy))
    bracket = [[s + (1 + coeff) * v for s, v in zip(r1, r2)]
               for r1, r2 in zip(signal, _exact(noise))]
    gain_t = _exact_solve(bracket, _exact_transpose(cov_xy))
    gain = np.array([[float(v) for v in row] for row in _exact_transpose(gain_t)])
    r = _perturbation_factor(gain, noise, chol)
    image = _exact_matmul(_exact(z), _exact(r))
    y = _exact(observed)[0]
    innov = [[y[j] - f for j, f in enumerate(frow)] for frow in _exact(sims)]
    moves = [[m - coeff * e for m, e in zip(mrow, erow)]
             for mrow, erow in zip(_exact_matmul(innov, gain_t), image)]
    return np.array([[float(v) for v in row] for row in moves])


@pytest.mark.parametrize("h", [1.0, 0.5])
@pytest.mark.parametrize("seed", range(6))
def test_eki_step_matches_the_exact_textbook_move(seed, h):
    # N=8, d_x=2, d_y=3 against exact rational arithmetic. The bound is ten
    # times the bracket-factor move's worst error over these 12 cases
    # (2.9e-15 of the largest move), measured before the whitened form
    rng = np.random.default_rng(seed)
    params = rng.normal(size=(8, 2))
    sims = params @ rng.normal(size=(2, 3)) + 0.5 * rng.normal(size=(8, 3))
    observed = rng.normal(size=3)
    ens = Ensemble(params, sims=sims)
    mom = compute_moments(ens)
    out = eki_step(ens, observed, h, mom, np.random.default_rng(5))
    z = np.random.default_rng(5).standard_normal((8, 2))  # min(d_x, d_y) columns
    coeff = max(1.0 / h - 1.0, 0.0)
    moves = _exact_textbook_move(
        params, sims, observed, mom.cov_y_given_x, mom.chol_y_given_x, z, coeff
    )
    err = np.abs(out.params - (params + moves)).max() / np.abs(moves).max()
    assert err < 3e-14


@pytest.mark.parametrize("h", [0.4, 1.0])
def test_eki_step_gain_carries_the_noise_factors_jitter(h):
    # a constant summary statistic leaves a zero row in C^{y|x} (the other
    # columns are shrunk), so chol_psd adds jitter j: the move is the textbook
    # one with C^{y|x} + j I in place of C^{y|x}, inside C^yy too, and eta's
    # image drawn from the jittered law
    rng = np.random.default_rng(1)
    params = rng.normal(size=(60, 2))
    sims = params @ rng.normal(size=(2, 3)) + 0.5 * rng.normal(size=(60, 3))
    sims[:, 2] = 0.0
    ens = Ensemble(params, sims=sims)
    mom = compute_moments(ens)
    assert mom.shrinkage > 0.0
    low, jitter = chol_psd(mom.cov_y_given_x)
    assert jitter > 0
    y = np.array([0.3, -0.2, 0.0])
    out = eki_step(ens, y, h, mom, np.random.default_rng(5))
    coeff = max(1.0 / h - 1.0, 0.0)
    noise = mom.cov_y_given_x + jitter * np.eye(3)
    bracket = _signal(mom) + (1.0 + coeff) * noise
    image = _drawn_image(60, mom.cov_xy, bracket, noise, low, coeff)
    moves = (mom.cov_xy @ np.linalg.solve(bracket, (y - sims).T)).T - image
    assert np.abs(out.params - params - moves).max() <= 1e-10 * np.abs(moves).max()


@pytest.mark.parametrize("h", [1.0, 0.4])
@pytest.mark.parametrize("seed", range(5))
def test_eki_step_is_accurate_on_a_repeated_summary(seed, h):
    # two equal summary columns make the raw C^{y|x} singular in a direction
    # that C^yx reaches; the shrunk estimate factors without jitter, and the
    # whitened move matches the textbook one built from it
    rng = np.random.default_rng(seed)
    params = rng.normal(size=(60, 2))
    sims = params @ rng.normal(size=(2, 3)) + 0.5 * rng.normal(size=(60, 3))
    sims[:, 2] = sims[:, 1]
    ens = Ensemble(params, sims=sims)
    mom = compute_moments(ens)
    low, jitter = chol_psd(mom.cov_y_given_x)
    assert jitter == 0.0
    y = np.array([0.3, -0.2, -0.2])
    out = eki_step(ens, y, h, mom, np.random.default_rng(5))
    coeff = max(1.0 / h - 1.0, 0.0)
    bracket = _signal(mom) + (1.0 + coeff) * mom.cov_y_given_x
    image = _drawn_image(60, mom.cov_xy, bracket, mom.cov_y_given_x, low, coeff)
    moves = (mom.cov_xy @ np.linalg.solve(bracket, (y - sims).T)).T - image
    assert np.abs(out.params - params - moves).max() <= 1e-12 * np.abs(moves).max()


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


def test_gaussian_step_rejects_a_noise_cov_row():
    # (R + R^T) / 2 of a 1 x 3 row would broadcast to the rank-one 0.5 * ones((3, 3))
    ens = _make_simulated(4, d_y=3)
    with pytest.raises(ValueError, match=r"noise_cov must be 3 x 3, got \(1, 3\)"):
        gaussian_eki_step(Ensemble(ens.params), ens.sims, np.zeros(3), [[0.5, 0.5, 0.5]],
                          1.0, np.random.default_rng(0))


def test_gaussian_step_names_noise_cov_of_the_wrong_size():
    ens = _make_simulated(4, d_y=3)
    with pytest.raises(ValueError, match=r"noise_cov must be 3 x 3, got \(1, 2\)"):
        gaussian_eki_step(Ensemble(ens.params), ens.sims, np.zeros(3), [[0.5, 0.5]],
                          0.5, np.random.default_rng(0))


def test_building_blocks_reject_a_non_finite_observed():
    ens = _make_simulated(5, d_y=3)
    mom = compute_moments(ens)
    observed = np.array([0.0, np.nan, 0.0])
    with pytest.raises(ValueError, match="observed must be finite"):
        select_next_lambda(ens.sims, observed, mom.chol_y_given_x, 0.0, 1.0)
    with pytest.raises(ValueError, match="observed must be finite"):
        eki_step(ens, observed, 0.5, mom, np.random.default_rng(0))
    with pytest.raises(ValueError, match="observed must be finite"):
        gaussian_eki_step(Ensemble(ens.params), ens.sims, observed, np.eye(3), 1.0,
                          np.random.default_rng(0))


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
    forward = np.arange(12.0).reshape(4, 3)
    for observed in (np.zeros(1), np.zeros(2)):
        with pytest.raises(ValueError, match="observed must have length 3"):
            gaussian_eki_step(
                Ensemble(params), forward, observed, np.eye(3), 1.0,
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


def test_search_and_symmetrize_leave_their_inputs_unmodified():
    # both overwrite temporaries of their own in place, never an argument
    rng = np.random.default_rng(14)
    low = np.linalg.cholesky(random_spd(rng, 6))
    y = rng.normal(size=6)
    for sims in (rng.normal(size=(300, 6)), np.asfortranarray(rng.normal(size=(300, 6)))):
        before, y_before = sims.copy(), y.copy()
        select_next_lambda(sims, y, low, 0.0, 1e9)
        assert np.array_equal(sims, before) and np.array_equal(y, y_before)
    mat = rng.normal(size=(6, 6))
    before = mat.copy()
    out = symmetrize(mat)
    assert np.array_equal(mat, before) and not np.shares_memory(out, mat)


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


def test_select_lambda_rejects_observed_of_the_wrong_length():
    sims = np.random.default_rng(13).normal(size=(50, 3))
    for observed in (np.zeros(1), np.zeros(2), np.zeros(4)):
        with pytest.raises(ValueError, match="observed must have length 3"):
            select_next_lambda(sims, observed, np.eye(3), 0.0, 1.0)


# ------------------------------------------------------------------ stop rules

def test_stop_optimisation_is_strict():
    base = _make_simulated(0, n=100)
    var = np.diag(compute_moments(base).cov_xx)
    assert not stop_optimisation(var, 0.01 * var)  # equality at the 1% threshold fails
    shrunk = Ensemble(base.params * 0.01, sims=base.sims)
    shrunk_var = np.diag(compute_moments(shrunk).cov_xx)
    assert stop_optimisation(var, shrunk_var)
    assert not stop_optimisation(var, 0.011 * var)


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


def test_run_eki_records_each_iterations_noise_shrinkage(monkeypatch):
    rng = np.random.default_rng(16)
    model = random_lingauss(rng, 2, 6)
    _, _, y = draw_observation(model, 11)
    seen = []

    def recording(ensemble):
        mom = compute_moments(ensemble)
        seen.append(mom.shrinkage)
        return mom

    monkeypatch.setattr(enki.inversion, "compute_moments", recording)
    res = run_eki(model, y, EkiConfig(n_particles=60), 11)
    rows = res.schedule.to_records()
    assert res.schedule.n_steps > 1
    assert [row["shrinkage"] for row in rows] == res.schedule.shrinkage == seen
    assert all(0.0 <= value <= 1.0 for value in seen)
    assert any(value > 0.0 for value in seen)


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


def test_run_eki_names_the_iteration_when_the_noise_estimate_will_not_factor():
    # a noiseless simulator leaves C^{y|x} zero up to rounding; the search,
    # which factors it first, raises under the iteration's name
    rng = np.random.default_rng(1)
    model = LinearGaussianModel(
        GaussPair(np.zeros(2), np.eye(2)), rng.normal(size=(6, 2)), np.zeros((6, 6))
    )
    y = model.simulate(np.array([0.3, -0.2]), np.random.default_rng(2))
    with pytest.raises(np.linalg.LinAlgError, match=r"^iteration 1: .*not factorizable"):
        run_eki(model, y, EkiConfig(n_particles=50), 1)


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
