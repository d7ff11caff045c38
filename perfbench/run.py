"""enki's benchmark: end-to-end and per-layer metrics of four workloads.

Run one workload, from the root of a checkout:

    python3 perfbench/run.py --workload gk-opt --seed 1 --seconds 24 --trace 0

or every workload, untraced and traced, with a table of all metrics:

    python3 perfbench/run.py --all --seed 1 --seconds 24 [--out results.json]

A run is a closed loop: one caller in one process runs one inference at a
time, each on inputs made from (--seed, k) for k = 0, 1, ..., until about
--seconds have passed (at least two inferences), after one untimed warm-up
round. gk-sweep is the exception inside the package: its harness runs cells
on two worker processes. BLAS threads are not pinned; the environment
record printed with every result says how many there were.

--trace 0 reports the end-to-end metrics named in BENCHMARK.json, measured
with no tracing: times as medians over the run's inferences, sim_count and
rmse as means over them. --trace 1 runs each inference untraced and then
traced on the same inputs; the two must agree exactly, which is the
determinism check. It reports the per-layer metrics of the traced runs, and
the tracing overhead as the difference of the two wall times.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics. Lines before it, starting with '#', list each metric
with its unit and the environment record.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
SETUP_PROBES = 5
# a spread this large between a traced self-time sum and the traced wall
# time means the spans are broken, not slow
SELF_SUM_TOLERANCE = 0.01

_SETUP_PROBE = """
import sys, time
start = time.perf_counter()
sys.path[:0] = [{src!r}, {bench!r}]
from workloads import WORKLOADS
WORKLOADS[{name!r}].prepare({seed}, {k}, {work!r})
print(time.perf_counter() - start)
"""


def _load_spec() -> dict:
    if not (SRC / "enki" / "__init__.py").is_file():
        sys.exit(f"error: no enki package at {SRC}; run from the root of a checkout")
    if not SPEC.is_file():
        sys.exit(f"error: {SPEC} is missing")
    with SPEC.open() as fh:
        return json.load(fh)


# -- memory ------------------------------------------------------------------

def _own_peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _child_pids() -> list:
    pids = []
    for task in Path("/proc/self/task").iterdir():
        try:
            pids += [int(p) for p in (task / "children").read_text().split()]
        except OSError:
            continue
    return pids


def _peak_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class ChildPeaks:
    """Peak resident set of every child process alive while the block runs."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.peaks = {}

    def __enter__(self):
        if self.enabled:
            self._stop = threading.Event()
            self._thread = threading.Thread(target=self._poll, daemon=True)
            self._thread.start()
        return self

    def _poll(self):
        while True:
            for pid in _child_pids():
                self.peaks[pid] = max(self.peaks.get(pid, 0), _peak_kb(pid))
            if self._stop.wait(0.05):
                return

    def __exit__(self, *exc):
        if self.enabled:
            self._stop.set()
            self._thread.join()

    @property
    def total_mb(self) -> float:
        return sum(self.peaks.values()) / 1024.0


# -- one run -----------------------------------------------------------------

def _setup_seconds(name: str, seed: int, work: Path) -> list:
    """Set-up time of fresh interpreters: imports, model, truth and data."""
    times = []
    for k in range(SETUP_PROBES):
        code = _SETUP_PROBE.format(src=str(SRC), bench=str(BENCH_DIR), name=name,
                                   seed=seed, k=k, work=str(work / "setup"))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, timeout=120, check=True)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


def _execute(workload, seed: int, k: int, work: Path, tracer=None):
    """One inference; (outcome or None, failure messages, peak RSS in MB)."""
    try:
        inputs = workload.prepare(seed, k, work)
        if tracer is not None:
            tracer.install()
        try:
            # only the sweep has worker processes to watch
            with ChildPeaks(enabled=workload.workers > 0) as children:
                outcome = workload.execute(inputs, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
    except Exception as err:  # a raised error is a failed operation, not a crash
        return None, [f"{workload.name} k={k}: {type(err).__name__}: {err}"], 0.0
    peak = _own_peak_mb() + children.total_mb
    return outcome, [f"{workload.name} k={k}: {msg}" for msg in outcome.failures], peak


def _warm_up(workload, seed: int, work: Path) -> None:
    try:
        workload.warm_up(seed, work)
    except Exception as err:  # the timed inferences raise it again and count it
        print(f"warm-up failed: {type(err).__name__}: {err}", file=sys.stderr)


def run_plain(workload, seed: int, seconds: float, work: Path) -> tuple:
    """End-to-end metrics with tracing off, one new sub-seed per inference."""
    setup = _setup_seconds(workload.name, seed, work)
    _warm_up(workload, seed, work)
    deadline = time.perf_counter() + seconds
    done, failures, peaks, attempted, last = [], [], [], 0, 0.0
    # start another inference only if it should end less than half of one
    # inference past the deadline, so a run lasts about `seconds` on average
    while attempted < 2 or time.perf_counter() + last / 2 < deadline:
        start = time.perf_counter()
        outcome, errors, peak = _execute(workload, seed, attempted, work)
        last = time.perf_counter() - start
        attempted += 1
        failures += errors
        if outcome is not None:
            done.append(outcome)
            peaks.append(peak)
            print(f"# inference {attempted - 1}: wall_s {outcome.wall_s!r} "
                  f"sim_count {outcome.sim_count} rmse {outcome.rmse!r}")
    failed = attempted - len(done) + sum(1 for o in done if o.failures)
    gate = workload.gate(done) if done else ["no inference finished"]
    attempted += 1
    failed += bool(gate)
    failures += gate
    walls = [o.wall_s for o in done] or [0.0]
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls),
        "sims_per_s": sum(o.sim_count for o in done) / (sum(walls) or 1.0),
        "peak_rss_mb": statistics.median(peaks or [0.0]),
        "sim_count": statistics.fmean([o.sim_count for o in done] or [0]),
        "rmse": statistics.fmean([o.rmse for o in done] or [0.0]),
    }
    if done and done[0].posterior_err is not None:
        metrics["posterior_err"] = statistics.fmean(o.posterior_err for o in done)
    return metrics, attempted, failed, failures


def run_traced(workload, seed: int, seconds: float, work: Path) -> tuple:
    """Per-layer metrics: each inference untraced, then traced on the same inputs."""
    from tracing import Tracer, span_metrics

    _warm_up(workload, seed, work)
    deadline = time.perf_counter() + seconds
    rows, failures, attempted, failed = [], [], 0, 0
    k, last = 0, 0.0
    while k == 0 or time.perf_counter() + last / 2 < deadline:
        start = time.perf_counter()
        plain, plain_errors, _ = _execute(workload, seed, k, work)
        tracer = Tracer(work / f"spans-{k}")
        traced, traced_errors, _ = _execute(workload, seed, k, work, tracer)
        checks = []
        if plain is not None and traced is not None:
            layer = span_metrics(tracer.collect())
            layer.update(workload.layer_detail(traced))
            self_sum = sum(v for name, v in layer.items() if name.endswith(".self_s"))
            layer.update({
                "trace.wall_s": traced.wall_s,
                "trace.untraced_wall_s": plain.wall_s,
                "trace.overhead_s": traced.wall_s - plain.wall_s,
                "trace.self_sum_s": self_sum,
            })
            rows.append(layer)
            # two back-to-back runs on one seed, the second traced, must agree exactly
            checks.append([] if plain.fingerprint() == traced.fingerprint() else [
                f"k={k}: runs on one seed disagree: {plain.fingerprint()} "
                f"!= {traced.fingerprint()}"])
            gap = abs(self_sum - traced.wall_s)
            checks.append([] if gap <= SELF_SUM_TOLERANCE * traced.wall_s + 1e-3 else [
                f"k={k}: layer self times sum to {self_sum:.4f} s, traced wall "
                f"{traced.wall_s:.4f} s"])
        shutil.rmtree(work / f"spans-{k}", ignore_errors=True)
        attempted += 2 + len(checks)
        failed += bool(plain_errors) + bool(traced_errors) + sum(1 for c in checks if c)
        failures += plain_errors + traced_errors + [msg for c in checks for msg in c]
        last = time.perf_counter() - start
        k += 1
    names = sorted({name for row in rows for name in row})
    metrics = {name: statistics.median(row.get(name, 0.0) for row in rows) for name in names}
    return metrics, attempted, failed, failures


def run_one(args, spec: dict) -> int:
    sys.path.insert(0, str(SRC))
    from environment import record
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; have {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    work = ROOT / ".perfbench-work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        runner = run_traced if args.trace else run_plain
        values, attempted, failed, failures = runner(workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
               for m in wanted}
    env = record(ROOT, workload=workload.name, seed=args.seed, seconds=args.seconds,
                 trace=args.trace)
    for msg in failures:
        print(f"FAILED {msg}", file=sys.stderr)
    for name, metric in metrics.items():
        print(f"# {name} {metric['value']!r} {metric['unit']}")
    if "posterior_err" in values and not args.trace:
        print(f"# posterior_err {values['posterior_err']!r} ratio "
              f"(acceptance-2 form 5/sqrt(N) = {workload.five_se():.4f}, not gated)")
    print("# env " + json.dumps(env, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(args, spec: dict) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    results = {}
    env = None
    for workload in spec["workloads"]:
        results[workload["name"]] = {"why": workload["why"]}
        for trace in (0, 1):
            out = subprocess.run(
                [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload["name"],
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                capture_output=True, text=True, timeout=600,
            )
            sys.stderr.write(out.stderr)
            lines = out.stdout.strip().splitlines()
            if out.returncode != 0 or not lines:
                print(f"{workload['name']} trace={trace}: exit {out.returncode}", file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            env = json.loads(next(l for l in lines if l.startswith("# env "))[6:])
            results[workload["name"]]["trace" if trace else "plain"] = result
    width = max(len(m["name"]) for m in spec["end_to_end"] + spec["per_layer"])
    for name, res in results.items():
        print(f"== {name}: correct={res['plain']['correct'] and res['trace']['correct']} "
              f"failed={res['plain']['failed'] + res['trace']['failed']}/"
              f"{res['plain']['attempted'] + res['trace']['attempted']}")
        for part in ("plain", "trace"):
            for metric, v in res[part]["metrics"].items():
                print(f"  {metric:<{width}} {v['value']:>16.6g} {v['unit']}")
    env.pop("workload", None)
    env.pop("trace", None)
    if args.out:
        Path(args.out).write_text(json.dumps({"env": env, "workloads": results}, indent=1) + "\n")
    ok = all(r["plain"]["correct"] and r["trace"]["correct"] for r in results.values())
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="with --all: write every result here as JSON")
    args = parser.parse_args(argv)
    spec = _load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.all:
        return run_all(args, spec)
    if not args.workload:
        parser.error("give --workload or --all")
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
