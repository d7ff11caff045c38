"""Symmetric factorizations and solves with a shared jitter policy.

Empirical covariances from small or collapsed ensembles are routinely
rank-deficient, so every Cholesky in the package goes through `chol_psd`:
symmetrize (which checks the shape), reject non-finite entries, and attempt
to factor. Only on failure does it compute the trace and add diagonal jitter,
starting at ``1e-10 * trace/d`` and escalating tenfold up to
``1e-4 * trace/d`` before giving up. A jittered factor logs one DEBUG line
through this module's `logging` logger, which is silent unless the caller
configures logging. Solves are always against a factorization, never an
explicit inverse.

`run_eki`, `run_abc_smc` and `run_abc_mcmc` run under `_one_blas_thread`:
every OpenBLAS library mapped into the process works on one thread for the
duration of the call, and gets its previous count back afterwards.
Parallelism comes from the harness's worker processes alone, and a seeded
output does not depend on the BLAS thread count. A process whose numpy and
scipy use another BLAS, or a platform without ``/proc/self/maps``, is left
as it is.
"""
from __future__ import annotations

import contextlib
import ctypes
import functools
import logging
from pathlib import Path

import numpy as np
from scipy.linalg import cho_solve

_log = logging.getLogger(__name__)

JITTER_REL_START = 1e-10
JITTER_REL_MAX = 1e-4


def symmetrize(mat: np.ndarray) -> np.ndarray:
    """(C + C.T)/2, the exact-symmetry normalization used everywhere.

    Returns a new array (the sum, halved in place); `mat` is not modified.
    Raises ValueError ``expected square matrix ...`` unless `mat` is a square
    2-D array, so a row or column is never broadcast to a full matrix.
    """
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected square matrix, got shape {mat.shape}")
    out = mat + mat.T
    out /= 2.0
    return out


def chol_psd(mat: np.ndarray) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor of a (near-)PSD matrix under the jitter policy.

    Returns (L, jitter) with ``L @ L.T == symmetrize(mat) + jitter * I``.
    The checks run in this order: shape (`symmetrize`'s check), finiteness,
    then one factorization of ``symmetrize(mat)``, which returns jitter 0.0
    when it succeeds. Only after it fails is the trace computed and the
    jitter ladder climbed from trace/d; for a matrix with nonpositive trace
    (e.g. exactly zero) that relative scale degenerates, so the ladder falls
    back to absolute units. A factor found on the ladder logs one DEBUG line
    with the matrix size, the jitter and its level relative to that scale.

    Raises
    ------
    ValueError
        ``expected square matrix ...`` from `symmetrize`, unless `mat` is a
        square 2-D array.
    numpy.linalg.LinAlgError
        If the matrix contains non-finite entries (numpy's cholesky does
        not reject NaN), or stays non-factorizable at the largest jitter.
    """
    a = symmetrize(mat)
    if not np.isfinite(a).all():
        raise np.linalg.LinAlgError("matrix has non-finite entries")
    try:
        return np.linalg.cholesky(a), 0.0
    except np.linalg.LinAlgError:
        pass
    d = a.shape[0]
    scale = np.trace(a) / d
    if scale <= 0.0:
        scale = 1.0
    rel = JITTER_REL_START
    eye = np.eye(d)
    while rel <= JITTER_REL_MAX * (1 + 1e-12):
        jitter = rel * scale
        try:
            low = np.linalg.cholesky(a + jitter * eye)
        except np.linalg.LinAlgError:
            rel *= 10.0
            continue
        _log.debug("chol_psd: %d x %d matrix factored with jitter %.3e (relative %.0e)",
                   d, d, jitter, rel)
        return low, jitter
    raise np.linalg.LinAlgError(
        f"matrix not factorizable after jitter escalation to {JITTER_REL_MAX * scale:.3e}"
    )


def solve_psd(mat: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``mat @ x = rhs`` for symmetric (near-)PSD `mat` via `chol_psd`."""
    low, _ = chol_psd(mat)
    return cho_solve((low, True), np.asarray(rhs, dtype=float))


@functools.cache
def _openblas_thread_counters() -> tuple:
    """(get, set) thread-count functions of each OpenBLAS mapped into this process.

    Found by library file name in ``/proc/self/maps``; empty where there is
    none, or no such file. numpy's and scipy's libraries are both mapped by
    the imports at the top of this module.
    """
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh}
    except OSError:
        return ()
    counters = []
    for path in sorted(p for p in paths if "openblas" in Path(p).name.lower()):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("scipy_openblas", ""),
                               ("openblas", "64_"), ("openblas", "")):
            try:
                get = getattr(lib, f"{prefix}_get_num_threads{suffix}")
                put = getattr(lib, f"{prefix}_set_num_threads{suffix}")
            except AttributeError:
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            counters.append((get, put))
            break
    return tuple(counters)


@contextlib.contextmanager
def _one_blas_thread():
    """Run the body, or the decorated function, with every OpenBLAS on one thread.

    Each library gets its previous count back on exit, also when the body
    raises. The count is process-wide: of calls running at once in threads
    of one process, the first to return restores it under the others.
    """
    counters = _openblas_thread_counters()
    previous = [get() for get, _ in counters]
    for _, put in counters:
        put(1)
    try:
        yield
    finally:
        for (_, put), count in zip(counters, previous):
            put(count)
