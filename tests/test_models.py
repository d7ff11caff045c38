"""Benchmark models: g-and-k and its probit map, Lorenz 96, linear-Gaussian, registry."""
import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

from enki.ensembles import GaussPair
from enki.linalg import chol_psd
from enki.models import _REGISTRY, available_models, build_model
from enki.models.gk import GkModel, _gk_values, _order_stat_indices
from enki.models.lingauss import LinearGaussianModel, linear_gaussian_posterior
from enki.models.lorenz96 import L96Model, l96_drift
from enki.rng import as_seed_sequence, substream

from _helpers import ToyModel, random_lingauss, random_spd

# 50-digit reference values (probit quantile at u = 0.77, and the g-and-k
# quantile at the conventional truth), frozen from an mpmath evaluation.
NDTRI_077 = 0.7388468491852136293212
GK_TRUTH_U090 = 6.511290090395887057146
GK_TRUTH_U025 = 2.569082407113303879111


# ------------------------------------------------------------ g-and-k probit map

# the default upper bound and one other, so no test reads a hard-coded 10
UPPERS = (10.0, 5.0)


def test_transform_round_trip_fixed_points():
    for upper in UPPERS:
        model = GkModel(upper=upper)
        x = upper * np.array([0.01, 0.25, 0.5, 0.77, 0.99])
        z = model.unconstrain(x)
        assert np.allclose(model.constrain(z), x, atol=1e-12)
        assert z[2] == 0.0  # midpoint of (0, upper) maps to the origin
        assert abs(z[3] - NDTRI_077) < 1e-9


def test_transform_rejects_boundary():
    for upper in UPPERS:
        model = GkModel(upper=upper)
        for bad in (0.0, upper, -1.0, upper + 1.0):
            with pytest.raises(ValueError, match=f"inside \\(0, {upper}\\)"):
                model.unconstrain(np.array([bad]))


def test_inverse_transform_range():
    z = np.linspace(-6, 6, 101)
    for upper in UPPERS:
        x = GkModel(upper=upper).constrain(z)
        assert np.all(x > 0.0) and np.all(x < upper)
        assert np.all(np.diff(x) > 0)


@settings(max_examples=60, deadline=None)
@given(st.floats(-5.5, 5.5))
def test_transform_round_trip_property(z):
    # the probit pair is float-exact to ~1e-8 inside +/- 5.5; beyond that the
    # bounded side saturates and precision decays (covered by the range test)
    for upper in UPPERS:
        model = GkModel(upper=upper)
        back = model.unconstrain(model.constrain(np.array([z])))
        assert abs(back[0] - z) < 1e-7


# ---------------------------------------------------------------------- g-and-k

# the g-and-k quantile at u is _gk_values(ndtri(u), A, B, g, k, c), c = 0.8

def test_gk_quantile_median_is_location():
    assert _gk_values(ndtri(0.5), 3.0, 1.0, 2.0, 0.5, 0.8) == pytest.approx(3.0, abs=1e-14)


def test_gk_quantile_frozen_reference_values():
    assert abs(_gk_values(ndtri(0.9), 3.0, 1.0, 2.0, 0.5, 0.8) - GK_TRUTH_U090) < 1e-12
    assert abs(_gk_values(ndtri(0.25), 3.0, 1.0, 2.0, 0.5, 0.8) - GK_TRUTH_U025) < 1e-12


def test_gk_quantile_gaussian_reduction():
    # g = k = 0 collapses the family to N(A, B^2)
    u = np.array([0.1, 0.3, 0.77, 0.95])
    q = _gk_values(ndtri(u), 2.0, 1.5, 0.0, 0.0, 0.8)
    assert np.allclose(q, 2.0 + 1.5 * ndtri(u), atol=1e-12)


def test_gk_quantile_degenerate_scale():
    q = _gk_values(ndtri(np.array([0.01, 0.5, 0.99])), 4.0, 0.0, 1.0, 1.0, 0.8)
    assert np.allclose(q, 4.0)


@settings(max_examples=60, deadline=None)
@given(
    st.floats(0.5, 9.5),
    st.floats(0.1, 9.5),
    st.floats(0.1, 9.5),
    st.floats(0.05, 9.5),
    st.floats(0.001, 0.998),
    st.floats(1e-4, 1e-3),
)
def test_gk_quantile_monotone(a, b, g, k, u, du):
    # positive scale and kurtosis keep the quantile strictly increasing
    assert _gk_values(ndtri(u), a, b, g, k, 0.8) < _gk_values(ndtri(u + du), a, b, g, k, 0.8)


def test_order_stat_indices_layout():
    idx = _order_stat_indices(1000, 100)
    assert idx[0] == 9 and idx[-1] == 999
    assert np.all(np.diff(idx) == 10)
    assert _order_stat_indices(6, 3).tolist() == [1, 3, 5]


def test_gk_summaries_sorted_and_deterministic():
    model = GkModel()
    truth = model.sample_truth(None)
    a = model.simulate(truth, np.random.default_rng(0))
    b = model.simulate(truth, np.random.default_rng(0))
    assert a.shape == (100,)
    assert np.array_equal(a, b)
    assert np.all(np.diff(a) >= 0)


def _sort_the_values(natural, c, n_raw, n_stats, rng):
    # reference kernel: one row of draws at a time from one generator, Q at
    # every draw, sort the values, keep the ranks
    z = np.stack([rng.standard_normal(n_raw) for _ in natural])
    a, b, g, k = (natural[:, j : j + 1] for j in range(4))
    vals = np.sort(_gk_values(z, a, b, g, k, c), axis=1)
    return vals[:, _order_stat_indices(n_raw, n_stats)]


# working-space coordinates, including the probit tails where the natural
# value saturates at exactly 0 or 10
_THETA = st.one_of(
    st.floats(-9.0, 9.0), st.sampled_from([-40.0, -9.0, -6.0, 0.0, 6.0, 9.0, 40.0])
)


@settings(max_examples=120, deadline=None)
@given(
    st.lists(st.lists(_THETA, min_size=4, max_size=4), min_size=1, max_size=4),
    st.sampled_from([0.0, 0.4, 0.8]),
    st.sampled_from([(1000, 100), (150, 100), (7, 7), (1, 1)]),
    st.integers(0, 2**32 - 1),
)
def test_gk_batch_equals_the_serial_loop(theta, c, sizes, seed):
    n_raw, n_stats = sizes
    theta = np.array(theta)
    model = GkModel(n_raw=n_raw, n_stats=n_stats, c=c)
    batch = model.simulate_batch(theta, substream(as_seed_sequence(seed), 3))
    stream = substream(as_seed_sequence(seed), 3)
    serial = np.stack([model.simulate(row, stream) for row in theta])
    assert np.array_equal(batch, serial)
    assert np.all(np.diff(batch, axis=1) >= 0)


def test_gk_kernel_has_the_law_of_the_sort_reference():
    # 20,000 datasets at the truth from the kernel and from sorting 1000
    # values each: per-rank means within 5 SE, per-rank variances within
    # 5 SE of their difference, and two-sample KS at five ranks
    from scipy.stats import ks_2samp

    model = GkModel()
    natural = model.constrain(model.sample_truth(None))
    n_sets, chunk = 20_000, 1_000
    kernel = model.simulate_batch(
        np.tile(model.sample_truth(None), (n_sets, 1)), np.random.default_rng(2)
    )
    rng = np.random.default_rng(1)
    reference = np.concatenate([
        _sort_the_values(np.tile(natural, (chunk, 1)), model.c, 1000, 100, rng)
        for _ in range(n_sets // chunk)
    ])

    def moments(x):
        mean, var = x.mean(axis=0), x.var(axis=0, ddof=1)
        m4 = ((x - mean) ** 4).mean(axis=0)
        return mean, var, (m4 - var**2) / len(x)

    mean_k, var_k, var_se2_k = moments(kernel)
    mean_r, var_r, var_se2_r = moments(reference)
    assert np.all(np.abs(mean_k - mean_r) < 5 * np.sqrt((var_k + var_r) / n_sets))
    assert np.all(np.abs(var_k - var_r) < 5 * np.sqrt(var_se2_k + var_se2_r))
    for rank in (1, 10, 50, 90, 100):
        assert ks_2samp(kernel[:, rank - 1], reference[:, rank - 1]).pvalue > 1e-3


class _TinyEndSpacings:
    # stands in for a generator: each row's spacings are 1 apart from the
    # first and the last, 1e-18, so S = 99 and the bottom and top kept ranks
    # sit 1e-18 / 99 from either end of (0, 1)
    def standard_gamma(self, shape, size):
        spacings = np.ones(size)
        spacings[:, [0, -1]] = 1e-18
        return spacings


def test_gk_kernel_keeps_both_tails_at_full_precision():
    model = GkModel()
    a, b, g, k = model.constrain(model.sample_truth(None))
    summaries = model.simulate(model.sample_truth(None), _TinyEndSpacings())
    tail = 1e-18 / 99.0
    assert np.isfinite(summaries).all()
    assert summaries[0] == _gk_values(ndtri(tail), a, b, g, k, model.c)
    assert summaries[-1] == _gk_values(-ndtri(tail), a, b, g, k, model.c)
    # the top rank read as S_r / S rounds to 1, and its probit to inf
    assert 99.0 / (99.0 + 1e-18) == 1.0 and ndtri(1.0) == np.inf


def test_gk_summary_median_tracks_location():
    # the middle order statistic estimates the median, which equals A
    model = GkModel()
    truth = model.sample_truth(None)
    mids = [model.simulate(truth, np.random.default_rng(s))[49] for s in range(20)]
    assert abs(np.median(mids) - 3.0) < 0.15


def test_gk_model_prior_and_truth():
    model = GkModel()
    draws = model.prior_sample(50_000, np.random.default_rng(0))
    assert abs(draws.mean()) < 0.02 and abs(draws.std() - 1.0) < 0.02
    natural = model.constrain(draws)
    assert np.all((natural > 0) & (natural < 10))
    assert np.allclose(
        model.constrain(model.sample_truth(np.random.default_rng(1))),
        [3.0, 1.0, 2.0, 0.5],
        atol=1e-12,
    )
    # the fixed truth ignores the rng argument entirely
    assert np.array_equal(
        model.sample_truth(np.random.default_rng(2)),
        model.sample_truth(np.random.default_rng(3)),
    )


def test_gk_model_validation():
    with pytest.raises(ValueError):
        GkModel(n_raw=10, n_stats=20)
    bad_inputs = [
        ({"c": 2.0}, "c"),
        ({"c": -0.1}, "c"),
        ({"c": float("nan")}, "c"),
        ({"n_stats": 0}, "n_stats"),
        ({"n_raw": 0, "n_stats": 0}, "n_stats"),
        ({"upper": -1.0}, "upper"),
        ({"upper": 0.0}, "upper"),
        ({"upper": float("inf")}, "upper"),
        ({"upper": float("nan")}, "upper"),
    ]
    for kwargs, field in bad_inputs:
        with pytest.raises(ValueError, match=f"^{field} "):
            GkModel(**kwargs)
    # a bool or a float, even an integral one, is not an integer
    for kwargs, field in (({"n_stats": True}, "n_stats"), ({"n_raw": 1000.0}, "n_raw")):
        with pytest.raises(TypeError, match=f"^{field} "):
            GkModel(**kwargs)
    # the edges of the accepted ranges still build
    GkModel(n_raw=1, n_stats=1, c=0.0)
    GkModel(n_raw=np.int64(7), n_stats=np.int64(7), c=0.8, upper=1e-3)
    # a batch must carry exactly the four parameter columns
    for cols in (3, 5):
        with pytest.raises(ValueError, match="4 columns"):
            GkModel().simulate_batch(np.zeros((2, cols)), np.random.default_rng(0))


def test_gk_model_rejects_nan_params_and_simulates_saturated_edges():
    model = GkModel(c=0.0)
    rng = np.random.default_rng(0)
    for theta in ([0.0, 1.0, 2.0, np.nan], [np.nan, 1.0, 2.0, 0.5]):
        with pytest.raises(ValueError, match="finite"):
            model.simulate(np.array(theta), rng)
        # the batch path rejects a NaN row too
        with pytest.raises(ValueError, match="finite"):
            model.simulate_batch(np.array([[0.0, 0.0, 0.0, 0.0], theta]), rng)
    # the probit map saturates at B = k = 0 for working coordinates of -40;
    # with c = 0 every summary is then A = 10 * ndtr(0) = 5 exactly
    flat = model.simulate(np.array([0.0, -40.0, -1.0, -40.0]), rng)
    assert np.all(flat == 5.0)


# ---------------------------------------------------------------------- Lorenz 96

def test_l96_drift_hand_oracle():
    # x[m-1](x[m+1] - x[m-2]) - x[m] at x = (1, 2, 3, 4):
    # (4(2-3)-1, 1(3-4)-2, 2(4-1)-3, 3(1-2)-4) = (-5, -3, 3, -7)
    out = l96_drift(np.array([1.0, 2.0, 3.0, 4.0]), forcing=0.0)
    assert np.allclose(out, [-5.0, -3.0, 3.0, -7.0])


def test_l96_drift_fixed_point():
    x = np.full(6, 2.5)
    assert np.allclose(l96_drift(x, forcing=2.5), 0.0)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(-10, 10), st.integers(4, 12))
def test_l96_drift_cyclic_equivariance(seed, shift, d):
    x = np.random.default_rng(seed).normal(size=d)
    rolled = l96_drift(np.roll(x, shift), 8.0)
    assert np.allclose(rolled, np.roll(l96_drift(x, 8.0), shift))


def test_l96_drift_batched_rows():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(5, 8))
    batch = l96_drift(x, 8.0)
    for i in range(5):
        assert np.allclose(batch[i], l96_drift(x[i], 8.0))


def test_l96_config_layout_and_validation():
    model = L96Model()
    assert model.d_y == 100  # 20 observed dims x 5 times
    assert model.observed_dims == tuple(range(0, 40, 2))
    assert model.obs_steps == (1000, 2000, 3000, 4000, 5000)
    assert model.obs_steps[-1] == 5000
    with pytest.raises(ValueError):
        L96Model(obs_times=(0.00151,), dt=0.001)  # off the step grid
    with pytest.raises(ValueError):
        L96Model(obs_times=(2.0, 1.0))
    with pytest.raises(ValueError):
        L96Model(d_x=3)
    with pytest.raises(TypeError, match="d_x"):
        L96Model(d_x=6.0, observed_dims=(0, 2))
    with pytest.raises(ValueError):
        L96Model(observed_dims=(0, 0))
    with pytest.raises(ValueError, match="observed_dims"):
        L96Model(observed_dims=())
    with pytest.raises(ValueError, match="diffusion"):
        L96Model(diffusion=-1.0)
    nan, inf = float("nan"), float("inf")
    for name, value in (("forcing", nan), ("forcing", inf), ("obs_noise_var", nan),
                        ("obs_noise_var", inf), ("diffusion", nan), ("dt", nan),
                        ("dt", inf), ("obs_times", (inf,)), ("obs_times", (1.0, nan))):
        with pytest.raises(ValueError, match=name):
            L96Model(**{name: value})
    for dims in ((0.5, 2), (2.7,), (True,)):
        with pytest.raises(TypeError, match="observed_dims"):
            L96Model(observed_dims=dims)
    for prior_var in (nan, inf, 0.0):
        with pytest.raises(ValueError, match="prior_var"):
            L96Model(d_x=4, obs_times=(0.01,), dt=0.01, prior_var=prior_var)


def test_l96_simulate_deterministic_given_stream():
    model = L96Model(d_x=6, obs_times=(0.05, 0.1), dt=0.01)
    x0 = np.full(6, 8.0)
    a = model.simulate(x0, np.random.default_rng(3))
    b = model.simulate(x0, np.random.default_rng(3))
    assert a.shape == (6,)  # 3 observed dims x 2 times, time-major
    assert np.array_equal(a, b)


def test_l96_simulate_noiseless_matches_manual_euler():
    model = L96Model(
        d_x=5, obs_times=(0.02, 0.03), dt=0.01, obs_noise_var=0.0, diffusion=0.0,
        observed_dims=(0, 2),
    )
    x0 = np.array([1.0, 0.5, -0.5, 2.0, 8.0])
    out = model.simulate(x0, np.random.default_rng(0))
    x = x0.copy()
    expected = []
    for step in range(1, 4):
        x = x + l96_drift(x, model.forcing) * model.dt
        if step in (2, 3):
            expected.extend(x[[0, 2]])
    assert np.allclose(out, expected, atol=1e-14)


def test_l96_simulate_blowup_names_time():
    # a uniform state would decay (the advection differences cancel), so use
    # an uneven huge start whose quadratic term overflows within a few steps
    model = L96Model(d_x=4, obs_times=(1.0,), dt=0.01, diffusion=0.0)
    rng = np.random.default_rng(0)
    with pytest.raises(FloatingPointError, match="t="):
        with np.errstate(all="ignore"):
            model.simulate(np.array([1e80, 1e80, 0.0, 0.0]), rng)


def test_l96_non_finite_start_fails_before_any_step(monkeypatch):
    # the single and batch paths share one kernel, so one check and one error
    import enki.models.lorenz96 as l96

    def no_step(*args, **kwargs):
        raise AssertionError("integrated a non-finite start")

    monkeypatch.setattr(l96, "l96_drift", no_step)
    model = L96Model(d_x=4, obs_times=(1.0,), dt=0.01)
    start = np.array([8.0, np.nan, 8.0, 8.0])
    with pytest.raises(ValueError, match="initial state must be finite"):
        model.simulate(start, np.random.default_rng(0))
    params = np.array([[8.0, 8.5, 7.5, 8.0], start])
    with pytest.raises(ValueError, match="initial state must be finite"):
        model.simulate_batch(params, np.random.default_rng(0))


def test_l96_model_batch_blowup_names_time():
    # one diverging row aborts the whole batch, as in the single-path case
    model = L96Model(d_x=4, obs_times=(1.0,), dt=0.01, diffusion=0.0)
    params = np.array([
        [8.0, 8.5, 7.5, 8.0],
        [1e80, 1e80, 0.0, 0.0],
        [9.0, 7.0, 8.0, 8.0],
    ])
    with pytest.raises(FloatingPointError, match="t="):
        with np.errstate(all="ignore"):
            model.simulate_batch(params, np.random.default_rng(0))


def _reference_l96(params, model, rng):
    """All particles in lockstep: one (n, d_x) path-noise draw per step, then
    the observation noise."""
    dims = list(model.observed_dims)
    scale = np.sqrt(model.dt) * model.diffusion
    x = params
    blocks = []
    for step in range(1, model.obs_steps[-1] + 1):
        x = x + (l96_drift(x, model.forcing) * model.dt
                 + scale * rng.standard_normal(x.shape))
        if step in model.obs_steps:
            blocks.append(x[:, dims])
    blocks = np.stack(blocks, axis=1)
    eps = rng.standard_normal(blocks.shape)
    return (blocks + np.sqrt(model.obs_noise_var) * eps).reshape(len(x), -1)


@pytest.mark.parametrize("diffusion", [0.0, 1.0])
@pytest.mark.parametrize("d_x", [4, 5, 40])
def test_l96_batch_matches_reference_euler_loop(d_x, diffusion):
    # the kernel integrates one observation segment at a time: the first
    # segment is a single step, then segments of one step and longer ones
    # follow, and the last observation (1090) ends a segment of 89 steps
    steps = (1, 63, 64, 65, 999, 1000, 1001, 1090)
    model = L96Model(d_x=d_x, dt=0.001, obs_times=tuple(s * 0.001 for s in steps),
                     diffusion=diffusion)
    assert model.obs_steps == steps
    root = as_seed_sequence(d_x)
    params = model.prior_sample(3, substream(root, 0))
    batch = model.simulate_batch(params, substream(root, 1, 2))
    reference = _reference_l96(params, model, substream(root, 1, 2))
    assert np.array_equal(batch, reference)


@pytest.mark.parametrize("shape", [(4,), (3, 4)])
def test_l96_drift_out_is_bit_identical(shape):
    x = np.random.default_rng(1).normal(size=shape)
    buf = np.empty(shape)
    assert l96_drift(x, 8.0, out=buf) is buf
    assert np.array_equal(buf, l96_drift(x, 8.0))


def test_l96_batch_calls_drift_once_per_step(monkeypatch):
    # perfbench/tracing.py counts l96_drift calls through the module attribute
    # and divides the kernel time by that count to report models.l96.step_us,
    # so the kernel must make exactly one such call per Euler step
    import enki.models.lorenz96 as l96

    calls = []
    original = l96.l96_drift

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(l96, "l96_drift", counting)
    model = L96Model(d_x=6, dt=0.01, obs_times=(0.5, 1.3))
    params = model.prior_sample(4, np.random.default_rng(0))
    model.simulate_batch(params, np.random.default_rng(1))
    assert len(calls) == model.obs_steps[-1] == 130


def test_l96_model_prior_moments():
    model = L96Model(d_x=8, obs_times=(0.1,), dt=0.01, prior_var=5.0)
    draws = model.prior_sample(100_000, np.random.default_rng(0))
    assert abs(draws.mean() - 8.0) < 0.02
    assert abs(draws.var() - 5.0) < 0.05


@pytest.mark.parametrize("name, overrides, mean, var", [
    ("l96", {"d_x": 8, "forcing": 2.0, "prior_var": 3.0}, 2.0, 3.0),
    ("gk", {}, 0.0, 1.0),  # standard normal on the working scale
])
def test_prior_logpdf_matches_scipy(name, overrides, mean, var):
    # lingauss has the same check in test_lingauss_model_simulate_and_logpdf
    from scipy.stats import multivariate_normal

    model = build_model(name, overrides)
    pts = model.prior_sample(5, np.random.default_rng(3))
    ref = multivariate_normal(np.full(model.d_x, mean), var * np.eye(model.d_x)).logpdf(pts)
    assert np.allclose(model.prior_logpdf(pts), ref, rtol=1e-12, atol=0.0)


# ------------------------------------------------------------- linear-Gaussian

def test_posterior_scalar_hand_oracle():
    # m=0, Q=1, H=1, R=1, y=1: posterior mean 1/2, variance 1/2
    post = linear_gaussian_posterior(GaussPair([0.0], [[1.0]]), [[1.0]], [[1.0]], [1.0])
    assert post.mean == pytest.approx(0.5)
    assert post.cov[0, 0] == pytest.approx(0.5)


def test_posterior_zero_obs_matrix_returns_prior():
    prior = GaussPair(np.array([1.0, -1.0]), np.array([[2.0, 0.5], [0.5, 1.0]]))
    post = linear_gaussian_posterior(prior, np.zeros((2, 2)), np.eye(2), np.zeros(2))
    assert np.allclose(post.mean, prior.mean)
    assert np.allclose(post.cov, prior.cov)


def test_posterior_huge_noise_approaches_prior():
    rng = np.random.default_rng(0)
    prior = GaussPair(rng.normal(size=3), random_spd(rng, 3))
    h = rng.normal(size=(2, 3))
    post = linear_gaussian_posterior(prior, h, 1e12 * np.eye(2), rng.normal(size=2))
    assert np.allclose(post.mean, prior.mean, atol=1e-6)
    assert np.allclose(post.cov, prior.cov, atol=1e-6)


def test_tempered_limits():
    rng = np.random.default_rng(2)
    prior = GaussPair(rng.normal(size=2), random_spd(rng, 2))
    h = rng.normal(size=(2, 2))
    r = random_spd(rng, 2)
    y = rng.normal(size=2)
    at_zero = linear_gaussian_posterior(prior, h, r, y, lam=0.0)
    assert np.allclose(at_zero.mean, prior.mean)
    assert np.allclose(at_zero.cov, prior.cov)
    at_one = linear_gaussian_posterior(prior, h, r, y, lam=1.0)
    post = linear_gaussian_posterior(prior, h, r, y)
    assert np.allclose(at_one.mean, post.mean)
    assert np.allclose(at_one.cov, post.cov)
    with pytest.raises(ValueError):
        linear_gaussian_posterior(prior, h, r, y, lam=-0.1)


def test_tempered_recursion_matches_direct_on_fixed_partition():
    rng = np.random.default_rng(4)
    prior = GaussPair(rng.normal(size=3), random_spd(rng, 3))
    h = rng.normal(size=(2, 3))
    r = random_spd(rng, 2)
    y = rng.normal(size=2)
    cur = GaussPair(prior.mean.copy(), prior.cov.copy())
    prev = 0.0
    for lam in (0.125, 0.5, 0.625, 1.0):
        cur = linear_gaussian_posterior(cur, h, r, y, lam=lam - prev)
        direct = linear_gaussian_posterior(prior, h, r, y, lam=lam)
        assert np.allclose(cur.mean, direct.mean, atol=1e-10)
        assert np.allclose(cur.cov, direct.cov, atol=1e-10)
        prev = lam


def test_lingauss_model_simulate_and_logpdf():
    rng = np.random.default_rng(6)
    model = random_lingauss(rng, 3, 2)
    # deterministic forward map plus noise with the declared covariance
    zero_noise = LinearGaussianModel(
        model.prior, model.obs_matrix, np.zeros((2, 2))
    )
    x = rng.normal(size=3)
    assert np.allclose(zero_noise.simulate(x, np.random.default_rng(0)),
                       model.obs_matrix @ x)
    sims = np.stack(
        [model.simulate(x, np.random.default_rng(s)) for s in range(40_000)]
    )
    assert np.allclose(np.cov(sims.T, ddof=1), model.noise_cov, atol=0.05)
    # log density against scipy's reference implementation
    from scipy.stats import multivariate_normal

    pts = rng.normal(size=(5, 3))
    ref = multivariate_normal(model.prior.mean, model.prior.cov).logpdf(pts)
    assert np.allclose(model.prior_logpdf(pts), ref)


@pytest.mark.parametrize("d_y", [1, 4, 40])
def test_lingauss_noise_is_the_draw_times_the_factor(d_y):
    # a diagonal factor (0.5 I is lingauss-hd's and the factory's default)
    # scales the draw's columns, bit for bit the dense Z @ L^T, in a batch and
    # in simulate, a batch of one; any other factor takes the triangular
    # multiply (trmm)
    rng = np.random.default_rng(21)
    base = random_lingauss(rng, 3, d_y)
    params = base.prior_sample(7, rng)
    for noise in (0.5 * np.eye(d_y), np.diag(rng.uniform(0.1, 3.0, d_y))):
        model = LinearGaussianModel(base.prior, base.obs_matrix, noise)
        assert model._noise_sd is not None
        low = chol_psd(noise)[0]
        dense = params @ base.obs_matrix.T + (
            np.random.default_rng(3).standard_normal((7, d_y)) @ low.T)
        assert np.array_equal(model.simulate_batch(params, np.random.default_rng(3)), dense)
        dense = params[:1] @ base.obs_matrix.T + (
            np.random.default_rng(3).standard_normal((1, d_y)) @ low.T)
        assert np.array_equal(model.simulate(params[0], np.random.default_rng(3)), dense[0])
    # a dense factor: batch rows are the serial loop on one generator, to rounding
    batch = base.simulate_batch(params, np.random.default_rng(4))
    gen = np.random.default_rng(4)
    serial = np.stack([base.simulate(p, gen) for p in params])
    assert np.abs(batch - serial).max() <= 1e-13 * np.abs(serial).max()
    if d_y > 1:
        assert base._noise_sd is None
        # one nonzero entry below the diagonal is enough to take the trmm path
        low = np.diag(rng.uniform(0.1, 3.0, d_y))
        low[d_y - 1, 0] = 0.7
        model = LinearGaussianModel(base.prior, base.obs_matrix, low @ low.T)
        assert model._noise_sd is None
        low = chol_psd(model.noise_cov)[0]
        dense = params @ base.obs_matrix.T + (
            np.random.default_rng(3).standard_normal((7, d_y)) @ low.T)
        batch = model.simulate_batch(params, np.random.default_rng(3))
        assert np.abs(batch - dense).max() <= 1e-13 * np.abs(dense).max()


# ------------------------------------------------------ simulate = batch of one

_CONTRACT_MODELS = {
    "gk": lambda: build_model("gk"),
    "l96": lambda: build_model("l96", {"d_x": 8, "obs_times": [1, 2]}),
    "lingauss": lambda: build_model("lingauss"),
    "toy": ToyModel,
}


@pytest.mark.parametrize("name", sorted(_CONTRACT_MODELS))
def test_simulate_is_a_batch_of_one(name):
    model = _CONTRACT_MODELS[name]()
    root = as_seed_sequence(5)
    params = model.prior_sample(4, substream(root, 0))
    one = model.simulate(params[0], substream(root, 1))
    assert one.shape == (model.d_y,)
    alone = model.simulate_batch(params[:1], substream(root, 1))
    assert np.array_equal(one, alone[0])
    # the same generator state gives the same batch
    rng = substream(root, 2)
    state = rng.bit_generator.state
    batch = model.simulate_batch(params, rng)
    assert batch.shape == (4, model.d_y)
    rng.bit_generator.state = state
    assert np.array_equal(batch, model.simulate_batch(params, rng))
    for bad in (params[0][:-1], np.append(params[0], 0.0), params[:2]):
        with pytest.raises(ValueError, match=f"shape \\({model.d_x},\\)"):
            model.simulate(bad, substream(root, 1))
    if name != "toy":  # ToyModel has no column check
        with pytest.raises(ValueError, match=f"{model.d_x} columns"):
            model.simulate_batch(np.zeros((2, model.d_x + 1)), substream(root, 1))


# ---------------------------------------------------------------------- registry

@pytest.mark.parametrize("name", available_models())
def test_every_model_method_checks_the_parameter_width(name):
    model = build_model(name)
    for params in (np.zeros((2, model.d_x - 1)), np.zeros((2, 1, model.d_x))):
        with pytest.raises(ValueError, match=f"params must have {model.d_x} columns"):
            model.simulate_batch(params, np.random.default_rng(0))
        with pytest.raises(ValueError, match=f"params must have {model.d_x} columns"):
            model.prior_logpdf(params)


def test_lingauss_rejects_a_noise_cov_row():
    # a 1 x 3 row symmetrized would broadcast to 0.5 in every entry: rank-one noise
    with pytest.raises(ValueError, match=r"noise_cov shape \(1, 3\) must be \(3, 3\)"):
        build_model("lingauss", {"noise_cov": [0.5, 0.5, 0.5]})


def test_lingauss_reports_a_noise_cov_row_as_a_shape_error():
    # not as "must be finite and positive semi-definite", which the broadcast gave
    with pytest.raises(ValueError, match=r"noise_cov shape \(1, 3\) must be \(3, 3\)"):
        build_model("lingauss", {"noise_cov": [0.1, 0.5, 0.9]})


def test_registry_lists_and_builds():
    assert available_models() == ["gk", "l96", "lingauss"]
    gk = build_model("gk")
    assert gk.d_x == 4 and gk.d_y == 100
    l96 = build_model("l96", {"d_x": 8, "obs_times": [1.0, 2.0]})
    assert l96.d_x == 8 and l96.d_y == 8
    lg = build_model("lingauss")
    assert lg.d_x == 3 and lg.d_y == 3


def test_registry_rejects_unknown():
    with pytest.raises(ValueError, match="unknown model"):
        build_model("nope")
    with pytest.raises(ValueError, match="unknown override"):
        build_model("gk", {"bogus": 1})
    with pytest.raises(ValueError, match="unknown override"):
        build_model("l96", {"n_raw": 10})
    with pytest.raises(ValueError, match="unknown override.*: 1"):  # a YAML int key
        build_model("lingauss", {1: 2})


def test_lingauss_sizes_its_defaults_from_the_given_prior():
    # d_x comes from d_x, prior_mean or prior_cov, whichever is given; the
    # default prior_cov, obs_matrix and noise_cov take that size
    for overrides, dim in (
        ({"prior_mean": [0.0] * 5}, 5),
        ({"prior_cov": [[1.0]]}, 1),
        ({"d_x": 4}, 4),
        ({"d_x": 2, "prior_mean": [1.0, 2.0], "prior_cov": [[2.0, 0.0], [0.0, 1.0]]}, 2),
    ):
        model = build_model("lingauss", overrides)
        assert (model.d_x, model.d_y) == (dim, dim)
        assert model.prior.cov.shape == model.obs_matrix.shape == (dim, dim)
    # sizes that disagree name both fields
    for overrides, message in (
        ({"d_x": 3, "prior_mean": [0.0] * 5}, "prior_mean length 5 does not match d_x 3"),
        ({"d_x": 3, "prior_cov": [[1.0]]}, "prior_cov size 1 does not match d_x 3"),
        ({"prior_mean": [0.0] * 2, "prior_cov": [[1.0]]},
         "prior_cov size 1 does not match prior_mean length 2"),
    ):
        with pytest.raises(ValueError, match=message):
            build_model("lingauss", overrides)


_OVERRIDES = {
    "gk": ["n_raw", "n_stats", "c", "upper"],
    "l96": ["d_x", "forcing", "dt", "obs_times", "obs_noise_var", "observed_dims",
            "diffusion", "prior_var"],
    "lingauss": ["d_x", "prior_mean", "prior_cov", "obs_matrix", "noise_cov"],
}


@pytest.mark.parametrize("name", available_models())
def test_registry_overrides_are_the_factory_keywords(name):
    # one check for every model: a name outside the factory's keywords is
    # rejected, and each keyword at its default builds the default model
    with pytest.raises(ValueError, match=f"unknown override\\(s\\) for model '{name}': bogus"):
        build_model(name, {"bogus": 1})
    parameters = inspect.signature(_REGISTRY[name]).parameters.values()
    assert [p.name for p in parameters] == _OVERRIDES[name]
    defaults = {p.name: p.default for p in parameters}
    assert inspect.Parameter.empty not in defaults.values()
    default, model = build_model(name), build_model(name, defaults)
    assert (model.d_x, model.d_y) == (default.d_x, default.d_y)
