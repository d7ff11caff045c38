"""What a result was measured on: machine, BLAS threading, versions, commit.

The BLAS thread count is read from the loaded OpenBLAS libraries
themselves, so a run under OPENBLAS_NUM_THREADS=1 and one under the
default are told apart by the record.
"""
from __future__ import annotations

import ctypes
import os
import platform
import subprocess
from pathlib import Path

_THREAD_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)
_CONFIG_SYMBOLS = (
    "scipy_openblas_get_config64_",
    "scipy_openblas_get_config",
    "openblas_get_config64_",
    "openblas_get_config",
)
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _symbol(lib, names):
    for name in names:
        try:
            return getattr(lib, name)
        except AttributeError:
            continue
    return None


def blas_libraries() -> list:
    """Every OpenBLAS mapped into this process, with its configured thread count."""
    import numpy  # noqa: F401  (loads numpy's BLAS)
    import scipy.linalg  # noqa: F401  (loads scipy's, if it bundles its own)

    paths = set()
    with open("/proc/self/maps") as fh:
        for line in fh:
            path = line.split()[-1]
            if "openblas" in Path(path).name.lower():
                paths.add(path)
    found = []
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        entry = {"library": Path(path).name}
        threads = _symbol(lib, _THREAD_SYMBOLS)
        if threads is not None:
            threads.restype = ctypes.c_int
            entry["threads"] = threads()
        config = _symbol(lib, _CONFIG_SYMBOLS)
        if config is not None:
            config.restype = ctypes.c_char_p
            entry["config"] = config().decode(errors="replace").strip()
        found.append(entry)
    return found


def _git_commit(root: Path):
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
            timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def record(root: Path, **run) -> dict:
    """Environment of this process, plus the run's own settings in `run`."""
    import numpy
    import scipy

    return {
        **run,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_libraries(),
        "thread_env": {k: os.environ[k] for k in _THREAD_VARS if k in os.environ},
        "git_commit": _git_commit(root),
    }
