"""Command-line entry point.

Subcommands:
  run <config>        execute an experiment sweep and print the summary
  validate <config>   schema-check a config without running anything
  list-models         show registered models
  summarize <csv>     aggregate a metrics CSV into per-group quartiles
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

import yaml

from .harness import (
    ConfigError,
    ExperimentConfig,
    format_summary,
    read_metrics_csv,
    resolve_out_dir,
    run_experiment,
    summarize_rows,
    write_summary_csv,
)
from .models import available_models, build_model

_MODEL_NOTES = {
    "gk": "g-and-k order-statistic summaries; 4 parameters in (0, 10)",
    "l96": "stochastic cyclic lattice SDE; initial-state inference",
    "lingauss": "linear-Gaussian model with analytic posterior",
}


def _load_config(path: str) -> ExperimentConfig:
    file = Path(path)
    if not file.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = yaml.safe_load(file.read_text())
    except yaml.YAMLError as err:
        raise ConfigError(f"config parse failure: {err}") from err
    if raw is None:
        raise ConfigError("config: file is empty")
    if isinstance(raw, dict) and "label" not in raw:
        raw["label"] = file.stem
    return ExperimentConfig.from_mapping(raw)


def _cmd_run(args) -> int:
    config = _load_config(args.config)
    if args.seed is not None:
        config.seeds = [args.seed]
    if args.snapshots:
        config.snapshots = True
    rows, out_path = run_experiment(config, threads=args.threads, out_dir=args.out)
    failures = [r for r in rows if str(r["termination"]).startswith("error")]
    print(format_summary(summarize_rows(rows)))
    print(f"\n{len(rows)} run(s), {len(failures)} failed; outputs in {out_path}")
    for row in failures:
        print(
            f"  failed: {row['algorithm']} N={row['N']} seed={row['seed']}: "
            f"{row['termination']}",
            file=sys.stderr,
        )
    return 0 if not failures else 1


def _cmd_validate(args) -> int:
    config = _load_config(args.config)
    cells = len(config.algorithms) * len(config.n_particles) * len(config.seeds)
    out_path = resolve_out_dir(config, args.out)
    print(
        f"OK: model={config.model} algorithms={','.join(config.algorithms)} "
        f"cells={cells} out={out_path}"
    )
    return 0


def _cmd_list_models(_args) -> int:
    for name in available_models():
        model = build_model(name)
        note = _MODEL_NOTES.get(name, "")
        print(f"{name:<10} d_x={model.d_x:<4} d_y={model.d_y:<5} {note}")
    return 0


def _cmd_summarize(args) -> int:
    rows = read_metrics_csv(args.metrics)
    groups = summarize_rows(rows)
    print(format_summary(groups))
    if args.out:
        write_summary_csv(groups, args.out)
        print(f"\nsummary written to {args.out}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="enki",
        description="Likelihood-free inference experiments: ensemble Kalman "
        "inversion and ABC baselines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run an experiment config")
    run.add_argument("config", help="path to a YAML experiment config")
    run.add_argument("--seed", type=int, default=None,
                     help="replace the config's seed list with this single seed")
    run.add_argument("--out", default=None, help="output directory override")
    run.add_argument("--snapshots", action="store_true",
                     help="write per-iteration ensemble snapshots")
    run.add_argument("--threads", type=int, default=1,
                     help="parallel worker processes for sweep cells")
    run.set_defaults(func=_cmd_run)

    val = sub.add_parser("validate", help="check a config without running")
    val.add_argument("config", help="path to a YAML experiment config")
    val.add_argument("--out", default=None, help="output directory override")
    val.set_defaults(func=_cmd_validate)

    lsm = sub.add_parser("list-models", help="list registered models")
    lsm.set_defaults(func=_cmd_list_models)

    summ = sub.add_parser("summarize", help="aggregate a metrics CSV")
    summ.add_argument("metrics", help="path to a metrics.csv produced by `run`")
    summ.add_argument("--out", default=None, help="write the summary table as CSV here")
    summ.set_defaults(func=_cmd_summarize)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as err:  # ConfigError is a ValueError
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
