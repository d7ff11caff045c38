"""Ensemble container, moment estimators, ESS, and Gaussian sampling."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enki.ensembles import Ensemble, GaussPair, compute_moments, ess, mvn_sample

from _helpers import random_spd


def test_ensemble_validation():
    with pytest.raises(ValueError):
        Ensemble(np.zeros((1, 2)))  # fewer than 2 particles
    with pytest.raises(ValueError):
        Ensemble(np.array([[0.0, np.nan], [1.0, 2.0]]))
    ens = Ensemble(np.zeros((3, 2)))
    assert ens.n == 3 and ens.d_x == 2 and ens.sims is None


def test_with_sims_attaches_and_validates():
    ens = Ensemble(np.zeros((3, 2)))
    out = ens.with_sims(np.ones((3, 5)))
    assert out.sims.shape == (3, 5)
    with pytest.raises(ValueError):
        ens.with_sims(np.ones((2, 5)))


def test_three_point_moments_hand_oracle():
    # x = (0, 1, 2), y = 2x: with 1/(N-1), cov_xx = 1, cov_xy = 2,
    # cov_yy = 4, and the conditional covariance vanishes.
    ens = Ensemble(np.array([[0.0], [1.0], [2.0]]), sims=np.array([[0.0], [2.0], [4.0]]))
    mom = compute_moments(ens)
    assert np.allclose(mom.cov_xx, [[1.0]])
    assert np.allclose(mom.cov_xy, [[2.0]])
    assert np.allclose(mom.cov_yy, [[4.0]])
    assert np.allclose(mom.cov_y_given_x, [[0.0]], atol=1e-12)


def test_moments_match_numpy_cov():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(40, 3))
    y = rng.normal(size=(40, 2))
    mom = compute_moments(Ensemble(x, sims=y))
    joint = np.cov(np.hstack([x, y]).T, ddof=1)
    assert np.allclose(mom.cov_xx, joint[:3, :3])
    assert np.allclose(mom.cov_xy, joint[:3, 3:])
    assert np.allclose(mom.cov_yy, joint[3:, 3:])


def test_conditional_covariance_zero_for_linear_map():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(30, 3))
    a = rng.normal(size=(3, 2))
    mom = compute_moments(Ensemble(x, sims=x @ a))
    assert np.allclose(mom.cov_y_given_x, 0.0, atol=1e-10)


def test_conditional_covariance_recovers_noise_cov():
    # y = Hx + eps with known noise covariance; the estimate is consistent
    rng = np.random.default_rng(7)
    n, d_x, d_y = 60_000, 3, 2
    x = rng.normal(size=(n, d_x))
    h = rng.normal(size=(d_x, d_y))
    r = np.array([[0.6, 0.2], [0.2, 0.9]])
    noise = rng.multivariate_normal(np.zeros(d_y), r, size=n)
    mom = compute_moments(Ensemble(x, sims=x @ h + noise))
    assert np.allclose(mom.cov_y_given_x, r, atol=0.03)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_moments_permutation_invariant(perm_seed):
    rng = np.random.default_rng(12)
    x = rng.normal(size=(25, 2))
    y = rng.normal(size=(25, 3))
    idx = np.random.default_rng(perm_seed).permutation(25)
    a = compute_moments(Ensemble(x, sims=y))
    b = compute_moments(Ensemble(x[idx], sims=y[idx]))
    for field in ("cov_xx", "cov_xy", "cov_yy", "cov_y_given_x"):
        assert np.allclose(getattr(a, field), getattr(b, field))


def test_moments_require_sims():
    with pytest.raises(ValueError):
        compute_moments(Ensemble(np.zeros((3, 1))))


def test_ess_known_values():
    assert ess(np.full(10, 0.1)) == pytest.approx(10.0)
    assert ess(np.array([1.0, 0.0, 0.0])) == pytest.approx(1.0)
    assert ess(np.array([0.5, 0.5])) == pytest.approx(2.0)


def test_ess_input_contract():
    with pytest.raises(ValueError):
        ess(np.array([0.5, -0.5, 1.0]))
    with pytest.raises(ValueError):
        ess(np.array([0.3, 0.3]))  # not normalized
    with pytest.raises(ValueError):
        ess(np.array([0.0, 0.0]))
    with pytest.raises(ValueError):
        ess(np.empty(0))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(1e-6, 1e6), min_size=1, max_size=40))
def test_ess_bounds(raw):
    w = np.asarray(raw)
    w = w / w.sum()
    w = w / w.sum()  # second pass pins the float sum to 1
    value = ess(w)
    assert 1.0 - 1e-9 <= value <= w.size + 1e-9


def test_mvn_sample_deterministic_and_shaped():
    gauss = GaussPair(np.array([1.0, -2.0]), np.array([[2.0, 0.3], [0.3, 1.0]]))
    a = mvn_sample(gauss, 5, np.random.default_rng(0))
    b = mvn_sample(gauss, 5, np.random.default_rng(0))
    assert a.shape == (5, 2)
    assert np.array_equal(a, b)
    assert mvn_sample(gauss, 0, np.random.default_rng(0)).shape == (0, 2)


def test_mvn_sample_zero_cov_returns_exact_mean():
    gauss = GaussPair(np.array([3.0, 4.0]), np.zeros((2, 2)))
    out = mvn_sample(gauss, 4, np.random.default_rng(1))
    assert np.array_equal(out, np.tile([3.0, 4.0], (4, 1)))


def test_mvn_sample_recovers_moments():
    rng = np.random.default_rng(5)
    cov = random_spd(rng, 3)
    mean = rng.normal(size=3)
    draws = mvn_sample(GaussPair(mean, cov), 200_000, np.random.default_rng(2))
    assert np.allclose(draws.mean(axis=0), mean, atol=0.02)
    assert np.allclose(np.cov(draws.T, ddof=1), cov, atol=0.05)


def test_gauss_pair_validation():
    with pytest.raises(ValueError):
        GaussPair(np.zeros(2), np.array([[1.0, 0.5], [0.0, 1.0]]))  # asymmetric
    with pytest.raises(ValueError):
        GaussPair(np.zeros(2), np.eye(3))
    with pytest.raises(ValueError):
        GaussPair(np.array([np.inf, 0.0]), np.eye(2))
    assert GaussPair(np.zeros(3), np.eye(3)).dim == 3
