"""Factorization, jitter-policy and BLAS-thread-policy tests."""
import logging
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from _helpers import SAMPLERS, ToyModel, draw_observation

from enki.linalg import (
    JITTER_REL_MAX,
    JITTER_REL_START,
    _openblas_thread_counters,
    chol_psd,
    solve_psd,
    symmetrize,
)


def test_symmetrize_is_exact():
    a = np.array([[1.0, 2.0], [0.0, 3.0]])
    s = symmetrize(a)
    assert np.array_equal(s, s.T)
    assert np.allclose(s, [[1.0, 1.0], [1.0, 3.0]])


def test_symmetrize_rejects_nonsquare():
    # a row plus its transpose would broadcast to a full, rank-one matrix
    for shape in ((1, 3), (3, 1), (2, 3), (3,), (2, 2, 2)):
        with pytest.raises(ValueError, match=r"expected square matrix, got shape \("):
            symmetrize(np.full(shape, 0.5))


def test_chol_psd_clean_matrix_no_jitter(caplog):
    a = np.array([[4.0, 1.0], [1.0, 3.0]])
    with caplog.at_level(logging.DEBUG, logger="enki.linalg"):
        low, jitter = chol_psd(a)
    assert jitter == 0.0
    assert np.allclose(low @ low.T, a)
    assert np.allclose(np.triu(low, 1), 0.0)
    assert not caplog.records


def test_chol_psd_no_jitter_factor_is_numpy_cholesky_of_the_symmetrized_input():
    rng = np.random.default_rng(3)
    for d in (1, 4, 30):
        a = rng.normal(size=(d, d))
        mat = a @ a.T + 0.1 * np.eye(d)
        mat[np.tril_indices(d, -1)] *= 1 + 1e-9  # not exactly symmetric
        low, jitter = chol_psd(mat)
        assert jitter == 0.0
        assert np.array_equal(low, np.linalg.cholesky(symmetrize(mat)))


def test_chol_psd_rank_deficient_gets_small_jitter(caplog):
    v = np.array([1.0, 2.0, 3.0])
    a = np.outer(v, v)  # rank 1, singular
    with caplog.at_level(logging.DEBUG, logger="enki.linalg"):
        low, jitter = chol_psd(a)
    scale = np.trace(a) / 3
    assert 0.0 < jitter <= JITTER_REL_MAX * scale * (1 + 1e-12)
    assert np.allclose(low @ low.T, a + jitter * np.eye(3))
    [record] = caplog.records
    assert record.levelno == logging.DEBUG
    rel = jitter / scale
    assert record.getMessage() == (
        f"chol_psd: 3 x 3 matrix factored with jitter {jitter:.3e} (relative {rel:.0e})"
    )


def test_chol_psd_zero_matrix_uses_absolute_scale():
    # trace is zero, so the relative ladder degenerates to absolute units
    low, jitter = chol_psd(np.zeros((2, 2)))
    assert jitter >= JITTER_REL_START
    assert np.allclose(low @ low.T, jitter * np.eye(2))


def test_chol_psd_rejects_non_finite():
    # also where the factorization would fail and start the jitter ladder
    for bad in (np.nan, np.inf, -np.inf):
        for where in ((0, 0), (1, 0), (1, 1)):
            for diag in (1.0, -1.0):
                a = np.array([[1.0, 0.0], [0.0, diag]])
                a[where] = bad
                with pytest.raises(np.linalg.LinAlgError, match="non-finite entries"):
                    chol_psd(a)


def test_chol_psd_rejects_nonsquare():
    # the shape check comes first, also for non-finite or negative entries
    for fill in (1.0, np.nan, -1.0):
        for shape in ((2, 3), (3, 2), (4,), (2, 2, 2)):
            with pytest.raises(ValueError, match=r"expected square matrix, got shape \("):
                chol_psd(np.full(shape, fill))


def test_chol_psd_gives_up_on_negative_definite():
    with pytest.raises(np.linalg.LinAlgError):
        chol_psd(-np.eye(3))


def test_solve_psd_matches_direct_solve():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(4, 4))
    mat = a @ a.T + 0.5 * np.eye(4)
    rhs = rng.normal(size=(4, 2))
    assert np.allclose(solve_psd(mat, rhs), np.linalg.solve(mat, rhs))


# ------------------------------------------------------------ BLAS threads

SRC = Path(__file__).resolve().parents[1] / "src"

_GK_RUN = """
import sys
import enki.linalg
from enki import EkiConfig, build_model, run_eki
from enki.rng import DATA, as_seed_sequence, substream

assert enki.linalg._openblas_thread_counters.cache_info().currsize == 0
model = build_model("gk")
data_rng = substream(as_seed_sequence(1), DATA)
observed = model.simulate(model.sample_truth(data_rng), data_rng)
res = run_eki(model, observed, EkiConfig(n_particles=120, max_iters=3), 1)
sys.stdout.write(res.ensemble.params.tobytes().hex())
"""


def _blas_threads() -> list:
    return [get() for get, _ in _openblas_thread_counters()]


@pytest.fixture
def two_blas_threads():
    """The caller's OpenBLAS libraries set to 2 threads, restored after the test."""
    counters = _openblas_thread_counters()
    if not counters:
        pytest.skip("no OpenBLAS library in this process")
    previous = _blas_threads()
    for _, put in counters:
        put(2)
    yield
    for (_, put), count in zip(counters, previous):
        put(count)


class ThreadProbeModel(ToyModel):
    """ToyModel recording the OpenBLAS thread counts of every simulation round."""

    def __init__(self, fail: bool = False):
        super().__init__()
        self.fail, self.seen = fail, []

    def simulate_batch(self, params, rng):
        self.seen.append(_blas_threads())
        if self.fail:
            raise RuntimeError("probe failure")
        return super().simulate_batch(params, rng)


@pytest.mark.parametrize("sampler", sorted(SAMPLERS))
def test_samplers_run_on_one_blas_thread(sampler, two_blas_threads):
    model = ThreadProbeModel()
    _, _, y = draw_observation(ToyModel(), 0)
    SAMPLERS[sampler](model, y)
    assert model.seen
    assert all(counts == [1] * len(counts) for counts in model.seen)
    assert set(_blas_threads()) == {2}


@pytest.mark.parametrize("sampler", sorted(SAMPLERS))
def test_samplers_restore_blas_threads_after_raising(sampler, two_blas_threads):
    model = ThreadProbeModel(fail=True)
    _, _, y = draw_observation(ToyModel(), 0)
    with pytest.raises(RuntimeError, match="probe failure"):
        SAMPLERS[sampler](model, y)
    assert model.seen == [[1] * len(model.seen[0])]
    assert set(_blas_threads()) == {2}


def test_run_eki_output_bits_do_not_depend_on_blas_threads():
    if not _openblas_thread_counters():
        pytest.skip("no OpenBLAS library in this process")
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-c", _GK_RUN], env=env, capture_output=True, text=True,
            timeout=120, check=True,
        )
        outputs.append(out.stdout)
    assert outputs[0]
    assert outputs[0] == outputs[1]
