"""Batch experiment harness: sweeps, budget accounting, metrics files.

A config names one model and one or more algorithms; the harness runs every
(algorithm, N, seed) cell, each with freshly generated observations, and
writes a metrics CSV plus per-run artifact files. The primary budget axis
is sim_count (exact likelihood-simulation calls); wall time is secondary.
"""
from __future__ import annotations

import csv
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .baselines import AbcMcmcConfig, AbcSmcConfig, run_abc_mcmc, run_abc_smc
from .inversion import EkiConfig, RunResult, run_eki
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
METRICS_FIELDS = [
    "algorithm",
    "model",
    "N",
    "seed",
    "sim_count",
    "rmse",
    "wall_time_s",
    "termination",
    "final_temp",
]
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
    out_dir: str = None
    snapshots: bool = False
    label: str = "experiment"

    @classmethod
    def from_mapping(cls, raw: dict) -> "ExperimentConfig":
        """Build and validate from a parsed config mapping.

        Raises ConfigError naming the field on any schema violation.
        """
        if not isinstance(raw, dict):
            raise ConfigError("config: expected a mapping of fields")
        known = {
            "model",
            "model_overrides",
            "algorithm",
            "algorithms",
            "n_particles",
            "N",
            "seeds",
            "algo_params",
            "out",
            "snapshots",
            "label",
        }
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown field(s): {', '.join(sorted(unknown))}")

        model = raw.get("model")
        if not isinstance(model, str) or not model:
            raise ConfigError("model: required, must be a model name string")

        algos = raw.get("algorithm", raw.get("algorithms"))
        if algos is None:
            raise ConfigError("algorithm: required field missing")
        if isinstance(algos, str):
            algos = [algos]
        if not isinstance(algos, list) or not algos:
            raise ConfigError("algorithm: must be a name or nonempty list of names")

        n_particles = raw.get("n_particles", raw.get("N"))
        if n_particles is None:
            raise ConfigError("n_particles: required field missing")
        if isinstance(n_particles, int):
            n_particles = [n_particles]
        if not isinstance(n_particles, list) or not n_particles:
            raise ConfigError("n_particles: must be an int or nonempty list of ints")

        seeds = raw.get("seeds")
        if seeds is None:
            raise ConfigError("seeds: required field missing")
        if isinstance(seeds, int):
            seeds = [seeds]
        if not isinstance(seeds, list) or not seeds:
            raise ConfigError("seeds: must be an int or nonempty list of ints")

        overrides = raw.get("model_overrides") or {}
        if not isinstance(overrides, dict):
            raise ConfigError("model_overrides: must be a mapping")
        algo_params = raw.get("algo_params") or {}
        if not isinstance(algo_params, dict):
            raise ConfigError("algo_params: must be a mapping keyed by algorithm")

        config = cls(
            model=model,
            algorithms=[str(a) for a in algos],
            n_particles=list(n_particles),
            seeds=list(seeds),
            model_overrides=dict(overrides),
            algo_params={str(k): dict(v or {}) for k, v in algo_params.items()},
            out_dir=raw.get("out"),
            snapshots=bool(raw.get("snapshots", False)),
            label=str(raw.get("label", "experiment")),
        )
        config.validate()
        return config

    def validate(self):
        if self.model not in available_models():
            raise ConfigError(
                f"model: unknown '{self.model}' (available: {', '.join(available_models())})"
            )
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
        for key in self.algo_params:
            if key not in ALGORITHMS:
                raise ConfigError(f"algo_params: unknown algorithm key '{key}'")
        # fail before any simulation if the overrides are malformed
        try:
            build_model(self.model, self.model_overrides)
        except (TypeError, ValueError) as err:
            raise ConfigError(f"model_overrides: {err}") from err


def _final_temp(algorithm: str, result: RunResult) -> float:
    if algorithm.startswith("eki"):
        return float(result.schedule.final_lambda)
    if algorithm == "abc-smc":
        return float(result.diagnostics["kappas"][-1])
    return float(result.diagnostics["final_kappa"])


def _dispatch(model, observed, algorithm: str, n: int, seed, snapshots: bool,
              params: dict) -> RunResult:
    params = dict(params or {})
    if algorithm.startswith("eki-"):
        cfg = EkiConfig(n_particles=n, stop_mode=algorithm.removeprefix("eki-"),
                        snapshots=snapshots, **params)
        return run_eki(model, observed, cfg, seed)
    if algorithm == "abc-smc":
        cfg = AbcSmcConfig(n_particles=n, **params)
        return run_abc_smc(model, observed, cfg, seed)
    if algorithm == "abc-mcmc":
        n_steps = params.pop("n_steps", 25 * n)
        n_keep = params.pop("n_keep", n)
        cfg = AbcMcmcConfig(n_steps=n_steps, n_keep=n_keep, **params)
        return run_abc_mcmc(model, observed, cfg, seed)
    raise ValueError(f"unknown algorithm '{algorithm}'")


def _jsonable(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _execute_cell(task: tuple) -> tuple:
    """Run one (algorithm, N, seed) cell; never raises, reports errors in-row."""
    model_name, overrides, algorithm, n, seed, snapshots, params = task
    base_row = {
        "algorithm": algorithm,
        "model": model_name,
        "N": n,
        "seed": seed,
    }
    try:
        model = build_model(model_name, overrides)
        cell = as_seed_sequence(seed)
        data_rng = substream(cell, DATA)
        truth = model.sample_truth(data_rng)
        observed = model.simulate(truth, data_rng)
        start = time.perf_counter()
        result = _dispatch(model, observed, algorithm, n, derive(cell, ALGO),
                           snapshots, params)
        wall = time.perf_counter() - start
        row = dict(base_row)
        row.update(
            sim_count=result.sim_count,
            rmse=rmse(model.constrain(result.ensemble.params), model.constrain(truth)),
            wall_time_s=wall,
            termination=result.termination_reason,
            final_temp=_final_temp(algorithm, result),
        )
        diagnostics = {
            k: v for k, v in result.diagnostics.items() if k != "kappa_trace"
        }
        artifacts = {
            "ensemble": model.constrain(result.ensemble.params),
            "schedule": result.schedule.to_records() if result.schedule else None,
            "snapshots": (
                [model.constrain(s.params) for s in result.snapshots]
                if result.snapshots
                else None
            ),
            "meta": _jsonable(
                {
                    **base_row,
                    "model_overrides": overrides,
                    "truth": model.constrain(truth),
                    "sim_count": row["sim_count"],
                    "rmse": row["rmse"],
                    "wall_time_s": row["wall_time_s"],
                    "termination": row["termination"],
                    "final_temp": row["final_temp"],
                    "diagnostics": diagnostics,
                }
            ),
        }
        return row, artifacts
    except Exception as err:  # per-run failures must not abort the sweep
        row = dict(base_row)
        row.update(
            sim_count=0,
            rmse=float("nan"),
            wall_time_s=0.0,
            termination=f"error: {type(err).__name__}: {err}",
            final_temp=float("nan"),
        )
        return row, None


def _format_value(key: str, value) -> str:
    if key == "wall_time_s":
        return f"{float(value):.3f}"
    if key in ("rmse", "final_temp"):
        return repr(float(value))
    return str(value)


def write_metrics_csv(rows: list, path) -> None:
    """Write metrics rows under the fixed header (column order is part of the contract)."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(METRICS_FIELDS)
        for row in rows:
            writer.writerow([_format_value(k, row[k]) for k in METRICS_FIELDS])


def read_metrics_csv(path) -> list:
    """Parse a metrics CSV back into typed row dicts."""
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != METRICS_FIELDS:
            raise ValueError(
                f"unexpected metrics header {reader.fieldnames}; expected {METRICS_FIELDS}"
            )
        rows = []
        for raw in reader:
            rows.append(
                {
                    "algorithm": raw["algorithm"],
                    "model": raw["model"],
                    "N": int(raw["N"]),
                    "seed": int(raw["seed"]),
                    "sim_count": int(raw["sim_count"]),
                    "rmse": float(raw["rmse"]),
                    "wall_time_s": float(raw["wall_time_s"]),
                    "termination": raw["termination"],
                    "final_temp": float(raw["final_temp"]),
                }
            )
    return rows


def _write_ensemble_csv(params: np.ndarray, path: Path) -> None:
    params = np.atleast_2d(np.asarray(params, dtype=float))
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{k + 1}" for k in range(params.shape[1])])
        for row in params:
            writer.writerow([repr(float(v)) for v in row])


def _write_artifacts(run_dir: Path, artifacts: dict) -> None:
    run_dir.mkdir(parents=True, exist_ok=True)
    _write_ensemble_csv(artifacts["ensemble"], run_dir / "ensemble.csv")
    with (run_dir / "meta.json").open("w") as fh:
        json.dump(artifacts["meta"], fh, indent=2)
        fh.write("\n")
    if artifacts["schedule"] is not None:
        with (run_dir / "schedule.json").open("w") as fh:
            json.dump(artifacts["schedule"], fh, indent=2)
            fh.write("\n")
    if artifacts["snapshots"] is not None:
        snap_dir = run_dir / "snapshots"
        snap_dir.mkdir(exist_ok=True)
        for i, params in enumerate(artifacts["snapshots"]):
            _write_ensemble_csv(params, snap_dir / f"iter_{i:03d}.csv")


def resolve_out_dir(config: ExperimentConfig, override=None) -> Path:
    """Output directory: CLI override, config `out`, then $ENKI_OUT_ROOT/<label>."""
    if override:
        return Path(override)
    if config.out_dir:
        return Path(config.out_dir)
    root = os.environ.get(OUT_ROOT_ENV, "enki-results")
    return Path(root) / config.label


def run_experiment(config: ExperimentConfig, threads: int = 1, out_dir=None) -> tuple:
    """Run the full sweep and write metrics plus per-run artifacts.

    Returns (rows, out_path). Cells run in parallel processes when
    threads > 1; results are written in cell order, so output files are
    identical for any thread count. A failed cell contributes an error row
    and no artifact directory. Raises ValueError if threads < 1.
    """
    if threads < 1:
        raise ValueError(f"threads: must be at least 1, got {threads}")
    config.validate()
    out_path = resolve_out_dir(config, out_dir)
    out_path.mkdir(parents=True, exist_ok=True)
    tasks = [
        (
            config.model,
            config.model_overrides,
            algorithm,
            n,
            seed,
            config.snapshots,
            config.algo_params.get(algorithm, {}),
        )
        for algorithm in config.algorithms
        for n in config.n_particles
        for seed in config.seeds
    ]
    if threads > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            outcomes = list(pool.map(_execute_cell, tasks))
    else:
        outcomes = [_execute_cell(task) for task in tasks]

    rows = []
    for task, (row, artifacts) in zip(tasks, outcomes):
        rows.append(row)
        if artifacts is not None:
            _, _, algorithm, n, seed, _, _ = task
            run_dir = out_path / "runs" / f"{algorithm}_{config.model}_N{n}_seed{seed}"
            _write_artifacts(run_dir, artifacts)
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
        out.append(
            {
                "algorithm": algorithm,
                "model": model,
                "N": n,
                "runs": len(members),
                "rmse_q25": float(np.percentile(errs, 25)),
                "rmse_median": float(np.median(errs)),
                "rmse_q75": float(np.percentile(errs, 75)),
                "sim_count_median": float(np.median(sims)),
                "wall_time_s_median": float(np.median(walls)),
            }
        )
    return out


def format_summary(groups: list) -> str:
    """Aligned text table of summarize_rows output."""
    header = (
        f"{'algorithm':<18} {'model':<9} {'N':>6} {'runs':>4} "
        f"{'rmse_q25':>10} {'rmse_med':>10} {'rmse_q75':>10} "
        f"{'sims_med':>10} {'wall_med':>9}"
    )
    lines = [header, "-" * len(header)]
    for g in groups:
        lines.append(
            f"{g['algorithm']:<18} {g['model']:<9} {g['N']:>6} {g['runs']:>4} "
            f"{g['rmse_q25']:>10.4g} {g['rmse_median']:>10.4g} {g['rmse_q75']:>10.4g} "
            f"{g['sim_count_median']:>10.0f} {g['wall_time_s_median']:>9.3f}"
        )
    return "\n".join(lines)


def write_summary_csv(groups: list, path) -> None:
    fields = [
        "algorithm",
        "model",
        "N",
        "runs",
        "rmse_q25",
        "rmse_median",
        "rmse_q75",
        "sim_count_median",
        "wall_time_s_median",
    ]
    with Path(path).open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        for g in groups:
            writer.writerow(g)
