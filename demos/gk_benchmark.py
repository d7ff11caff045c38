"""Head-to-head benchmark: inversion modes vs ABC baselines on g-and-k.

Runs all four algorithms over a small seed grid through the experiment
harness and prints the aggregate table. The inversion runs typically land an
order of magnitude lower in RMSE while spending no more simulations than the
ABC runs (the chain length is set so ABC gets at least as many model calls).

Run:  python3 demos/gk_benchmark.py [--n 500] [--seeds 3] [--threads 4]
      (about a half minute at the defaults)
"""
import argparse
import tempfile

from enki.harness import ExperimentConfig, format_summary, run_experiment, summarize_rows


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=500, help="ensemble / particle count")
    parser.add_argument("--seeds", type=int, default=3, help="number of seeds")
    parser.add_argument(
        "--threads", type=int, default=4, help="worker processes for sweep cells"
    )
    parser.add_argument("--out", default=None, help="keep artifacts here (default: temp dir)")
    args = parser.parse_args()

    config = ExperimentConfig.from_mapping(
        {
            "label": "gk-benchmark",
            "model": "gk",
            "algorithm": ["eki-sampling", "eki-optimisation", "abc-smc", "abc-mcmc"],
            "n_particles": args.n,
            "seeds": list(range(args.seeds)),
            "algo_params": {"abc-mcmc": {"n_steps": 50 * args.n}},
        }
    )
    if args.out is not None:
        rows, out_path = run_experiment(config, threads=args.threads, out_dir=args.out)
    else:
        with tempfile.TemporaryDirectory() as tmp:
            rows, out_path = run_experiment(config, threads=args.threads, out_dir=tmp)
            out_path = None

    print(format_summary(summarize_rows(rows)))
    print()
    failures = [r for r in rows if str(r["termination"]).startswith("error")]
    print(f"{len(rows)} runs, {len(failures)} failed" + (f"; artifacts in {out_path}" if out_path else ""))


if __name__ == "__main__":
    main()
