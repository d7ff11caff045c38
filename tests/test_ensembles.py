"""Ensemble container, moment estimators, ESS, and Gaussian sampling."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scipy.linalg.blas import dgemm

from enki.ensembles import (
    Ensemble, GaussPair, _correlation_shrinkage, compute_moments, ess, mvn_sample,
)
from enki.linalg import solve_psd, symmetrize
from enki.models import build_model

from _helpers import random_spd


def test_ensemble_validation():
    with pytest.raises(ValueError):
        Ensemble(np.zeros((1, 2)))  # fewer than 2 particles
    with pytest.raises(ValueError):
        Ensemble(np.array([[0.0, np.nan], [1.0, 2.0]]))
    ens = Ensemble(np.zeros((3, 2)))
    assert ens.n == 3 and ens.sims is None


def test_with_sims_attaches_and_validates():
    out = Ensemble(np.zeros((3, 2)), sims=np.ones((3, 5)))
    assert out.sims.shape == (3, 5)
    with pytest.raises(ValueError):
        Ensemble(np.zeros((3, 2)), sims=np.ones((2, 5)))


def test_three_point_moments_hand_oracle():
    # x = (0, 1, 2), y = 2x: with 1/(N-1), cov_xx = 1, cov_xy = 2, and the
    # conditional covariance vanishes.
    ens = Ensemble(np.array([[0.0], [1.0], [2.0]]), sims=np.array([[0.0], [2.0], [4.0]]))
    mom = compute_moments(ens)
    assert np.allclose(mom.cov_xx, [[1.0]])
    assert np.allclose(mom.cov_xy, [[2.0]])
    assert np.allclose(mom.cov_y_given_x, [[0.0]], atol=1e-12)


def test_moments_match_numpy_cov():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(40, 3))
    y = rng.normal(size=(40, 2))
    mom = compute_moments(Ensemble(x, sims=y))
    joint = np.cov(np.hstack([x, y]).T, ddof=1)
    assert np.allclose(mom.cov_xx, joint[:3, :3])
    assert np.allclose(mom.cov_xy, joint[:3, 3:])


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
    for field in ("cov_xx", "cov_xy", "cov_y_given_x"):
        assert np.allclose(getattr(a, field), getattr(b, field))


def _raw_noise(x, y) -> np.ndarray:
    """C^yy - C^yx (C^xx)^-1 C^xy from np.cov, before any shrinkage."""
    d_x = x.shape[1]
    joint = np.cov(np.hstack([x, y]).T, ddof=1)
    cxx, cxy, cyy = joint[:d_x, :d_x], joint[:d_x, d_x:], joint[d_x:, d_x:]
    return cyy - cxy.T @ np.linalg.solve(cxx, cxy)


def _brute_force_shrinkage(x, y) -> float:
    """Schaefer-Strimmer target-D intensity by an explicit loop over i != j."""
    n = len(x)
    noise = _raw_noise(x, y)
    xc, yc = x - x.mean(axis=0), y - y.mean(axis=0)
    resid = yc - xc @ np.linalg.solve(xc.T @ xc, xc.T @ yc)
    z = resid / np.sqrt(np.diag(noise))
    num = den = 0.0
    for i in range(y.shape[1]):
        for j in range(y.shape[1]):
            if i != j:
                w = z[:, i] * z[:, j]
                num += n / (n - 1) ** 3 * np.sum((w - w.mean()) ** 2)
                den += (n / (n - 1) * w.mean()) ** 2
    return min(max(num / den, 0.0), 1.0)


@pytest.mark.parametrize("seed", range(4))
def test_noise_shrinkage_matches_a_brute_force_pair_loop(seed):
    # correlated noise, so the intensity lands inside (0, 1); the estimate
    # keeps the raw diagonal and scales the raw off-diagonal by 1 - s
    rng = np.random.default_rng(seed)
    n, d_x, d_y = 80, 2, 5
    corr = 0.6 * np.ones((d_y, d_y)) + 0.4 * np.eye(d_y)
    x = rng.normal(size=(n, d_x))
    y = x @ rng.normal(size=(d_x, d_y)) + rng.normal(size=(n, d_y)) @ np.linalg.cholesky(corr).T
    mom = compute_moments(Ensemble(x, sims=y))
    expected = _brute_force_shrinkage(x, y)
    assert 0.0 < expected < 1.0
    assert mom.shrinkage == pytest.approx(expected, rel=1e-12)
    raw = _raw_noise(x, y)
    off = ~np.eye(d_y, dtype=bool)
    assert np.allclose(np.diag(mom.cov_y_given_x), np.diag(raw), rtol=1e-12, atol=0)
    assert np.allclose(mom.cov_y_given_x[off], (1 - mom.shrinkage) * raw[off],
                       rtol=1e-10, atol=0)


def test_noise_shrinkage_is_zero_for_one_summary():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(40, 2))
    y = x @ rng.normal(size=(2, 1)) + 0.5 * rng.normal(size=(40, 1))
    mom = compute_moments(Ensemble(x, sims=y))
    assert mom.shrinkage == 0.0
    assert np.allclose(mom.cov_y_given_x, _raw_noise(x, y), rtol=1e-12, atol=0)


def test_noise_shrinkage_is_zero_when_a_residual_column_has_zero_variance():
    # a constant summary statistic has no correlations: the intensity is that
    # of the other columns, and the constant's row of the estimate stays zero
    # (chol_psd jitters it)
    rng = np.random.default_rng(9)
    x = rng.normal(size=(40, 2))
    y = x @ rng.normal(size=(2, 3)) + 0.5 * rng.normal(size=(40, 3))
    y[:, 1] = 0.0
    mom = compute_moments(Ensemble(x, sims=y))
    rest = compute_moments(Ensemble(x, sims=y[:, [0, 2]]))
    assert 0.0 < rest.shrinkage < 1.0
    assert mom.shrinkage == pytest.approx(rest.shrinkage, rel=1e-12)
    assert not mom.cov_y_given_x[1].any()
    kept = np.ix_([0, 2], [0, 2])
    assert np.allclose(mom.cov_y_given_x[kept], rest.cov_y_given_x, rtol=1e-12, atol=0)


def _written_out_moments(x, y):
    # compute_moments as a chain of fresh temporaries, each square one symmetrized
    n = x.shape[0]
    xc = x - x.mean(axis=0)
    yc = y - y.mean(axis=0)
    cov_xx = symmetrize(xc.T @ xc / (n - 1))
    cov_xy = xc.T @ yc / (n - 1)
    cov_yy = symmetrize(yc.T @ yc / (n - 1))
    beta = solve_psd(cov_xx, cov_xy)
    noise = symmetrize(cov_yy - cov_xy.T @ beta)
    resid = dgemm(-1.0, beta.T, xc.T, 1.0, yc.T, overwrite_c=True).T
    shrinkage = _correlation_shrinkage(resid, noise)
    var = np.diag(noise).copy()
    noise *= 1.0 - shrinkage
    np.fill_diagonal(noise, var)
    return cov_xx, cov_xy, noise, shrinkage


@pytest.mark.parametrize("shape", ["lingauss-hd", "gk"])
def test_moments_are_bit_identical_to_the_written_out_formula(shape):
    # the in-place Gram, update and symmetrization keep every bit of the
    # written-out chain, at the ensemble sizes of lingauss-hd and gk-opt
    rng = np.random.default_rng(17)
    if shape == "lingauss-hd":
        n, d_x, d_y = 600, 10, 300
        h = rng.standard_normal((d_y, d_x)) / np.sqrt(d_x)
        model = build_model("lingauss", {"d_x": d_x, "obs_matrix": h.tolist()})
    else:
        n = 500
        model = build_model("gk")
    x = model.prior_sample(n, rng)
    y = model.simulate_batch(x, rng)
    assert y.shape == ((n, 300) if shape == "lingauss-hd" else (n, 100))
    ens = Ensemble(x, sims=y)
    sims = ens.sims.copy()
    mom = compute_moments(ens)
    cov_xx, cov_xy, noise, shrinkage = _written_out_moments(x, y)
    assert np.array_equal(mom.cov_xx, cov_xx)
    assert np.array_equal(mom.cov_xy, cov_xy)
    assert np.array_equal(mom.cov_y_given_x, noise)
    assert mom.shrinkage == shrinkage and 0.0 < shrinkage < 1.0
    assert np.array_equal(mom.cov_xx, mom.cov_xx.T)
    assert np.array_equal(mom.cov_y_given_x, mom.cov_y_given_x.T)
    assert np.array_equal(ens.sims, sims)


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
    # a NaN or infinite weight is rejected, not turned into a NaN or zero ESS
    for bad in (np.nan, -np.inf, np.inf):
        with pytest.raises(ValueError):
            ess(np.array([bad, 1.0]))


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
