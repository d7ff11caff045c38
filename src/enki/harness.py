"""Batch experiment harness: sweeps, budget accounting, metrics files.

A config names one model and one or more algorithms; the harness runs every
(algorithm, N, seed) cell, each with freshly generated observations, and
writes a metrics CSV plus per-run artifact files. The primary budget axis
is sim_count (exact likelihood-simulation calls); wall time is secondary.
"""
from __future__ import annotations

import csv
import functools
import json
import os
import shutil
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .baselines import AbcMcmcConfig, AbcSmcConfig, run_abc_mcmc, run_abc_smc
from .inversion import EkiConfig, eki_min_particles, run_eki
from .models import available_models, build_model
from .rng import ALGO, DATA, as_seed_sequence, derive, substream

__all__ = [
    "ALGORITHMS",
    "METRICS_FIELDS",
    "ConfigError",
    "ExperimentConfig",
    "rmse",
    "run_experiment",
    "summarize_rows",
    "format_summary",
    "read_metrics_csv",
    "write_metrics_csv",
]

ALGORITHMS = ("eki-sampling", "eki-optimisation", "abc-smc", "abc-mcmc")
_METRICS_TYPES = {
    "algorithm": str,
    "model": str,
    "N": int,
    "seed": int,
    "sim_count": int,
    "rmse": float,
    "wall_time_s": float,
    "termination": str,
    "final_temp": float,
}
METRICS_FIELDS = list(_METRICS_TYPES)
# per summary column: its field (the summary CSV's header), its title in the
# text table, the title's alignment and width, and its entries' format
_SUMMARY_COLUMNS = (
    ("algorithm", "algorithm", "<18", ""),
    ("model", "model", "<9", ""),
    ("N", "N", ">6", ""),
    ("runs", "runs", ">4", ""),
    ("rmse_q25", "rmse_q25", ">10", ".4g"),
    ("rmse_median", "rmse_med", ">10", ".4g"),
    ("rmse_q75", "rmse_q75", ">10", ".4g"),
    ("sim_count_median", "sims_med", ">10", ".0f"),
    ("wall_time_s_median", "wall_med", ">9", ".3f"),
)
_SUMMARY_FIELDS = [name for name, *_ in _SUMMARY_COLUMNS]
OUT_ROOT_ENV = "ENKI_OUT_ROOT"


class ConfigError(ValueError):
    """Invalid experiment configuration; message names the offending field."""


def rmse(ensemble_params: np.ndarray, truth: np.ndarray) -> float:
    """Root mean squared error over particles and dimensions."""
    params = np.atleast_2d(np.asarray(ensemble_params, dtype=float))
    truth = np.atleast_1d(np.asarray(truth, dtype=float))
    if params.shape[1] != truth.size:
        raise ValueError(
            f"dimension mismatch: particles have {params.shape[1]} columns, "
            f"truth has {truth.size}"
        )
    return float(np.sqrt(np.mean((params - truth) ** 2)))


@dataclass
class ExperimentConfig:
    """One experiment: a model, algorithms, and an (N, seed) grid."""

    model: str
    algorithms: list
    n_particles: list
    seeds: list
    model_overrides: dict = field(default_factory=dict)
    algo_params: dict = field(default_factory=dict)
    out: str = None
    snapshots: bool = False
    label: str = "experiment"

    @classmethod
    def from_mapping(cls, raw: dict) -> "ExperimentConfig":
        """Build and validate from a parsed config mapping.

        Keys are the field names, with `algorithm` as a second spelling of
        `algorithms` (a config gives one of the two). A single grid scalar
        is wrapped in a list; validate() then checks every value. Raises
        ConfigError naming the field on any schema violation.
        """
        if not isinstance(raw, dict):
            raise ConfigError("config: expected a mapping of fields")
        values = dict(raw)
        names = {f.name for f in fields(cls)} | {"algorithm"}
        unknown = set(values) - names
        if unknown:
            raise ConfigError(f"unknown field(s): {', '.join(sorted(unknown))}")
        if "algorithm" in values and "algorithms" in values:
            raise ConfigError("algorithm, algorithms: give one of the two spellings, not both")
        values["algorithms"] = values.pop("algorithm", values.get("algorithms"))
        for name in ("algorithms", "n_particles", "seeds"):
            value = values.get(name)
            values[name] = value if value is None or isinstance(value, list) else [value]
        for name in ("model_overrides", "algo_params"):  # only null means none
            values[name] = {} if values.get(name) is None else values[name]
        config = cls(model=values.pop("model", None), **values)
        config.validate()
        return config

    def validate(self):
        """Check every field; raises ConfigError naming the first bad one."""
        if not isinstance(self.model, str) or not self.model:
            raise ConfigError("model: required, must be a model name string")
        if self.model not in available_models():
            raise ConfigError(
                f"model: unknown '{self.model}' (available: {', '.join(available_models())})"
            )
        grid = (
            ("algorithm", self.algorithms),
            ("n_particles", self.n_particles),
            ("seeds", self.seeds),
        )
        for name, values in grid:
            if values is None:
                raise ConfigError(f"{name}: required field missing")
            if not isinstance(values, list) or not values:
                raise ConfigError(f"{name}: must be a single entry or a nonempty list")
        for algo in self.algorithms:
            if algo not in ALGORITHMS:
                raise ConfigError(
                    f"algorithm: unknown '{algo}' (available: {', '.join(ALGORITHMS)})"
                )
        for n in self.n_particles:
            if not isinstance(n, int) or n < 2:
                raise ConfigError(f"n_particles: every entry must be an int >= 2, got {n!r}")
        for s in self.seeds:
            if isinstance(s, bool) or not isinstance(s, int) or s < 0:
                raise ConfigError(f"seeds: every entry must be a nonnegative int, got {s!r}")
        for name, values in grid:  # a repeat would run one cell twice into one directory
            if len(set(values)) < len(values):
                raise ConfigError(f"{name}: repeated entries in {values}")
        if not isinstance(self.algo_params, dict):
            raise ConfigError("algo_params: must be a mapping keyed by algorithm")
        for key, params in self.algo_params.items():
            if key not in ALGORITHMS:
                raise ConfigError(f"algo_params: unknown algorithm key '{key}'")
            if params is not None and not isinstance(params, dict):
                raise ConfigError(
                    f"algo_params: entry '{key}' must be a mapping of settings, "
                    f"got {params!r}"
                )
        if not isinstance(self.model_overrides, dict):
            raise ConfigError("model_overrides: must be a mapping")
        if not isinstance(self.snapshots, bool):
            raise ConfigError(f"snapshots: must be true or false, got {self.snapshots!r}")
        if not isinstance(self.label, str) or not self.label:
            raise ConfigError(f"label: must be a nonempty string, got {self.label!r}")
        if self.out is not None and (not isinstance(self.out, str) or not self.out):
            raise ConfigError(f"out: must be a nonempty path string, got {self.out!r}")
        # fail before any simulation if the overrides are malformed
        try:
            model = build_model(self.model, self.model_overrides)
        except (TypeError, ValueError) as err:
            raise ConfigError(f"model_overrides: {err}") from err
        n_min, smallest = eki_min_particles(model), min(self.n_particles)
        if smallest < n_min and any(algo.startswith("eki-") for algo in self.algorithms):
            raise ConfigError(
                f"n_particles: eki-* needs at least d_x + d_y + 1 = {n_min} "
                f"for this model, got {smallest}"
            )
        # settings for an algorithm outside the sweep are checked too, not ignored
        for algo in dict.fromkeys([*self.algorithms, *self.algo_params]):
            for n in self.n_particles:
                try:
                    _algo_config(algo, n, self.algo_params.get(algo), self.snapshots)
                except (TypeError, ValueError) as err:
                    raise ConfigError(f"algo_params: {algo} at N={n}: {err}") from err


def _algo_config(algorithm: str, n: int, params: dict, snapshots: bool) -> tuple:
    """(runner, config) for one cell; raises TypeError or ValueError.

    The runner is looked up in this module's namespace at each call, so a
    wrapper installed on the module attribute is the one that runs.
    """
    params = dict(params or {})
    if algorithm.startswith("eki-"):
        return run_eki, EkiConfig(n_particles=n, stop_mode=algorithm.removeprefix("eki-"),
                                  snapshots=snapshots, **params)
    if algorithm == "abc-smc":
        return run_abc_smc, AbcSmcConfig(n_particles=n, **params)
    # abc-mcmc: validate() has already rejected any name outside ALGORITHMS
    n_steps = params.pop("n_steps", 25 * n)
    n_keep = params.pop("n_keep", n)
    return run_abc_mcmc, AbcMcmcConfig(n_steps=n_steps, n_keep=n_keep, **params)


def _execute_cell(config: ExperimentConfig, out_path: Path, cell: tuple) -> dict:
    """Run one (algorithm, N, seed) cell, write its run directory, return its row.

    The cell's directory from an earlier run into the same output is removed
    first, so a rerun replaces it. A run that fails gives an error row and no
    directory; an OSError from the removal or the writes is not caught, so it
    aborts the sweep.
    """
    algorithm, n, seed = cell
    key = {"algorithm": algorithm, "model": config.model, "N": n, "seed": seed}
    run_dir = out_path / "runs" / f"{algorithm}_{config.model}_N{n}_seed{seed}"
    if run_dir.exists():
        shutil.rmtree(run_dir)
    try:
        model = build_model(config.model, config.model_overrides)
        cell_seq = as_seed_sequence(seed)
        data_rng = substream(cell_seq, DATA)
        truth = model.sample_truth(data_rng)
        observed = model.simulate(truth, data_rng)
        runner, algo_config = _algo_config(algorithm, n, config.algo_params.get(algorithm),
                                           config.snapshots)
        start = time.perf_counter()
        result = runner(model, observed, algo_config, derive(cell_seq, ALGO))
        wall = time.perf_counter() - start
        ensemble, truth = model.constrain(result.ensemble.params), model.constrain(truth)
        outcome = {
            "sim_count": result.sim_count,
            "rmse": rmse(ensemble, truth),
            "wall_time_s": wall,
            "termination": result.termination_reason,
            "final_temp": result.final_temp,
        }
        schedule = result.schedule.to_records() if result.schedule else None
        snapshots = [model.constrain(s.params) for s in result.snapshots or ()]
        meta = {
            **key,
            "model_overrides": config.model_overrides,
            "truth": truth,
            **outcome,
            "diagnostics": {
                k: v for k, v in result.diagnostics.items() if k != "kappa_trace"
            },
        }
    except Exception as err:  # per-run failures must not abort the sweep
        return {
            **key,
            "sim_count": 0,
            "rmse": float("nan"),
            "wall_time_s": 0.0,
            "termination": f"error: {type(err).__name__}: {err}",
            "final_temp": float("nan"),
        }
    run_dir.mkdir(parents=True)
    _write_ensemble_csv(ensemble, run_dir / "ensemble.csv")
    _write_json(meta, run_dir / "meta.json")
    if schedule is not None:
        _write_json(schedule, run_dir / "schedule.json")
    if snapshots:
        (run_dir / "snapshots").mkdir()
        for i, params in enumerate(snapshots):
            _write_ensemble_csv(params, run_dir / "snapshots" / f"iter_{i:03d}.csv")
    return {**key, **outcome}


def _format_value(key: str, value) -> str:
    if key == "wall_time_s":
        return f"{float(value):.3f}"
    if key in ("rmse", "final_temp"):
        return repr(float(value))
    return str(value)


def _write_csv(path, header: list, rows) -> None:
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_metrics_csv(rows: list, path) -> None:
    """Write metrics rows under the fixed header (column order is part of the contract)."""
    _write_csv(path, METRICS_FIELDS,
               ([_format_value(k, row[k]) for k in METRICS_FIELDS] for row in rows))


def read_metrics_csv(path) -> list:
    """Parse a metrics CSV back into typed row dicts."""
    with Path(path).open(newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != METRICS_FIELDS:
            raise ValueError(
                f"unexpected metrics header {reader.fieldnames}; expected {METRICS_FIELDS}"
            )
        return [
            {k: kind(raw[k]) for k, kind in _METRICS_TYPES.items()} for raw in reader
        ]


def _write_ensemble_csv(params: np.ndarray, path: Path) -> None:
    params = np.atleast_2d(np.asarray(params, dtype=float))
    _write_csv(path, [f"x{k + 1}" for k in range(params.shape[1])],
               ([repr(float(v)) for v in row] for row in params))


def _write_json(value, path: Path) -> None:
    with path.open("w") as fh:
        # numpy arrays and scalars are written as the plain values they hold
        json.dump(value, fh, indent=2, default=lambda v: v.tolist())
        fh.write("\n")


def resolve_out_dir(config: ExperimentConfig, override=None) -> Path:
    """Output directory: CLI override, config `out`, then $ENKI_OUT_ROOT/<label>.

    Raises ConfigError for an empty override, as validate() does for `out`.
    """
    if override == "":
        raise ConfigError("out: must be a nonempty path string, got ''")
    if override is not None:
        return Path(override)
    if config.out:
        return Path(config.out)
    root = os.environ.get(OUT_ROOT_ENV, "enki-results")
    return Path(root) / config.label


def run_experiment(config: ExperimentConfig, threads: int = 1, out_dir=None) -> tuple:
    """Run the full sweep and write metrics plus per-run artifacts.

    Returns (rows, out_path). Cells run in parallel processes when
    threads > 1, and each cell writes its own run directory; metrics.csv
    lists the rows in cell order, so every output file is identical for any
    thread count apart from wall_time_s. A failed cell contributes an error
    row and no run directory. Raises ValueError if threads < 1.
    """
    if threads < 1:
        raise ValueError(f"threads: must be at least 1, got {threads}")
    config.validate()
    out_path = resolve_out_dir(config, out_dir)
    out_path.mkdir(parents=True, exist_ok=True)
    cells = [
        (algorithm, n, seed)
        for algorithm in config.algorithms
        for n in config.n_particles
        for seed in config.seeds
    ]
    run_cell = functools.partial(_execute_cell, config, out_path)
    if threads > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            rows = list(pool.map(run_cell, cells))
    else:
        rows = [run_cell(cell) for cell in cells]
    write_metrics_csv(rows, out_path / "metrics.csv")
    return rows, out_path


def summarize_rows(rows: list) -> list:
    """Per (algorithm, model, N) group: rmse quartiles and median sim_count."""
    groups = {}
    for row in rows:
        if str(row.get("termination", "")).startswith("error"):
            continue
        groups.setdefault((row["algorithm"], row["model"], row["N"]), []).append(row)
    out = []
    for (algorithm, model, n), members in sorted(groups.items()):
        errs = np.array([m["rmse"] for m in members], dtype=float)
        sims = np.array([m["sim_count"] for m in members], dtype=float)
        walls = np.array([m["wall_time_s"] for m in members], dtype=float)
        values = (
            algorithm,
            model,
            n,
            len(members),
            float(np.percentile(errs, 25)),
            float(np.median(errs)),
            float(np.percentile(errs, 75)),
            float(np.median(sims)),
            float(np.median(walls)),
        )
        out.append(dict(zip(_SUMMARY_FIELDS, values)))
    return out


def format_summary(groups: list) -> str:
    """Aligned text table of summarize_rows output."""
    header = " ".join(format(title, width) for _, title, width, _ in _SUMMARY_COLUMNS)
    rows = (
        " ".join(format(g[name], width + spec) for name, _, width, spec in _SUMMARY_COLUMNS)
        for g in groups
    )
    return "\n".join([header, "-" * len(header), *rows])


def write_summary_csv(groups: list, path) -> None:
    _write_csv(path, _SUMMARY_FIELDS, ([g[k] for k in _SUMMARY_FIELDS] for g in groups))
