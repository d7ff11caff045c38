"""In-memory spans around every call into one of enki's layers.

Nothing in the package is edited. `Tracer.install` replaces each traced
function at the attribute its callers look it up through (for example
``enki.inversion.compute_moments`` or ``enki.ensembles.chol_psd``, or a
method on a model class) with a wrapper that records one span: layer, name,
start, end, the enclosing span and an optional payload. `uninstall` puts the
originals back. Spans stay in memory; sweep cells that run in forked worker
processes write theirs to a spill directory when each cell ends.

The layers are the package's modules: rng, models, ensembles, linalg,
inversion, baselines and harness (driven through cli).
"""
from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import Counter, defaultdict
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

LAYERS = ("rng", "models", "ensembles", "linalg", "inversion", "baselines", "harness")
# a span with this name is the parent waiting for its worker processes
WAIT = "pool_wait"

# The tracer of this process while installed. Module state because the
# worker processes forked by the harness find it here, inherited with the
# rest of the parent's memory.
ACTIVE = None

_MODEL_METHODS = (
    "simulate", "simulate_batch", "prior_sample", "prior_logpdf",
    "constrain", "unconstrain", "sample_truth",
)


def _rows(args, kwargs, result):
    return len(args[1])


def _chol_info(args, kwargs, result):
    """(jitter, squared ratio of the largest to the smallest factor diagonal)."""
    low, jitter = result
    diag = np.abs(np.diagonal(low))
    with np.errstate(divide="ignore", over="ignore"):
        cond = float((diag.max() / diag.min()) ** 2)
    return (float(jitter), min(cond, sys.float_info.max))


def schedule_info(args, kwargs, result):
    """Tempering steps and the clamped/flagged counts of a RunResult.schedule."""
    schedule = result.schedule
    return {"iterations": schedule.n_steps, "clamped": int(sum(schedule.clamped)),
            "flagged": int(sum(schedule.flagged))}


def _abc_info(args, kwargs, result):
    diag = result.diagnostics
    if "acceptance_rates" in diag:
        return {"smc_iterations": len(diag["kappas"]) - 1,
                "rates": [float(r) for r in diag["acceptance_rates"]]}
    return {"rate": float(diag["acceptance_rate_overall"]), "steps": result.sim_count - 1}


class Tracer:
    """Span recorder; `install` it around the code to trace."""

    def __init__(self, spill_dir: Path):
        self.spill_dir = Path(spill_dir)
        self.pid = os.getpid()
        self.spans = []  # [layer, name, start, end, parent index, payload]
        self.stack = []
        self.counts = Counter()
        self._undo = []
        self._spilled = 0

    # -- recording ---------------------------------------------------------
    def open(self, layer: str, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([layer, name, 0.0, 0.0, parent, None])
        self.stack.append(idx)
        self.spans[idx][2] = time.perf_counter()
        return idx

    def close(self, idx: int, payload=None) -> None:
        span = self.spans[idx]
        span[3] = time.perf_counter()
        span[5] = payload
        self.stack.pop()

    def reset(self) -> None:
        self.spans, self.stack, self.counts = [], [], Counter()

    def spill(self) -> None:
        """Write this process's spans for the parent to collect, then drop them."""
        self.spill_dir.mkdir(parents=True, exist_ok=True)
        path = self.spill_dir / f"spans-{os.getpid()}-{self._spilled}.json"
        self._spilled += 1
        with path.open("w") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh)
        self.reset()

    # -- wrapping ----------------------------------------------------------
    def traced(self, layer: str, name: str, fn, payload=None):
        """`fn` wrapped to record one span per call.

        `payload(args, kwargs, result)` picks what the span keeps of a
        successful call's arguments and result.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.open(layer, name)
            result = kept = None
            try:
                result = fn(*args, **kwargs)
                if payload is not None:
                    kept = payload(args, kwargs, result)
                return result
            finally:
                tracer.close(idx, kept)

        return wrapper

    def _wrap(self, owner, attr: str, layer: str, payload=None) -> None:
        if isinstance(owner, type) and attr not in vars(owner):
            return  # inherited: the defining class is wrapped instead
        original = getattr(owner, attr)
        name = f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}"
        setattr(owner, attr, self.traced(layer, name, original, payload))
        self._undo.append((owner, attr, original))

    def _count(self, owner, attr: str, key: str) -> None:
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def counted(*args, **kwargs):
            tracer.counts[key] += 1
            return original(*args, **kwargs)

        setattr(owner, attr, counted)
        self._undo.append((owner, attr, original))

    def install(self) -> None:
        """Wrap every layer entry point at the sites its callers use."""
        global ACTIVE
        import enki.baselines
        import enki.cli
        import enki.ensembles
        import enki.harness
        import enki.inversion
        import enki.linalg
        import enki.models
        import enki.models.lingauss
        import enki.models.lorenz96
        import enki.rng

        w = self._wrap
        for attr in ("particle", "shared"):
            w(enki.rng.ParticleStreams, attr, "rng")
        for site in (enki.inversion, enki.baselines, enki.harness):
            w(site, "substream", "rng")

        for cls in (enki.models.SimulatorModel, enki.models.GkModel,
                    enki.models.L96Model, enki.models.LinearGaussianModel):
            for attr in _MODEL_METHODS:
                w(cls, attr, "models", _rows if attr == "simulate_batch" else None)
        for site in (enki.harness, enki.cli):
            w(site, "build_model", "models")
        self._count(enki.models.lorenz96, "l96_drift", "models.l96_drift")

        w(enki.inversion, "compute_moments", "ensembles")
        w(enki.inversion, "ess", "ensembles")
        for site in (enki.inversion, enki.baselines, enki.models.lingauss):
            w(site, "mvn_sample", "ensembles")
        for cls in (enki.ensembles.Ensemble, enki.ensembles.GaussPair):
            w(cls, "__post_init__", "ensembles")

        for site in (enki.linalg, enki.ensembles, enki.inversion, enki.baselines,
                     enki.models.lingauss):
            w(site, "chol_psd", "linalg", _chol_info)
        for site in (enki.ensembles, enki.inversion, enki.models.lingauss):
            w(site, "solve_psd", "linalg")

        for attr in ("select_next_lambda", "eki_step"):
            w(enki.inversion, attr, "inversion")
        w(enki.harness, "run_eki", "inversion", schedule_info)

        for attr in ("run_abc_smc", "run_abc_mcmc"):
            w(enki.harness, attr, "baselines", _abc_info)

        w(enki.cli, "run_experiment", "harness")
        self._undo.append((enki.harness, "ProcessPoolExecutor", enki.harness.ProcessPoolExecutor))
        enki.harness.ProcessPoolExecutor = TracedPool
        ACTIVE = self

    def uninstall(self) -> None:
        global ACTIVE
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo = []
        ACTIVE = None

    def collect(self) -> list:
        """Span trees of this process and of every spilled worker cell."""
        trees = [{"spans": self.spans, "counts": self.counts}]
        for path in sorted(self.spill_dir.glob("spans-*.json")):
            with path.open() as fh:
                trees.append(json.load(fh))
        return trees


class TracedCell:
    """Picklable wrapper the traced pool sends to workers in place of the cell."""

    def __init__(self, fn):
        self.fn = fn

    def __call__(self, *args):
        tracer = ACTIVE
        if tracer is None or tracer.pid == os.getpid():
            return self.fn(*args)
        tracer.reset()  # drop the parent's spans inherited through fork
        idx = tracer.open("harness", "cell")
        try:
            return self.fn(*args)
        finally:
            tracer.close(idx)
            tracer.spill()


class TracedPool(ProcessPoolExecutor):
    """The harness's process pool with a span for the time the parent waits."""

    _wait = None

    def map(self, fn, *iterables, **kwargs):
        if ACTIVE is not None:
            self._wait = ACTIVE.open("harness", WAIT)
        return super().map(TracedCell(fn), *iterables, **kwargs)

    def __exit__(self, *exc):
        try:
            return super().__exit__(*exc)
        finally:
            if self._wait is not None and ACTIVE is not None:
                ACTIVE.close(self._wait)


# -- analysis ----------------------------------------------------------------

def _self_segments(spans: list) -> list:
    """(start, end, span index) pieces of each span not covered by a child."""
    children = defaultdict(list)
    for i, span in enumerate(spans):
        children[span[4]].append(i)
    segments = []
    for i, span in enumerate(spans):
        t = span[2]
        for c in children.get(i, ()):
            if spans[c][2] > t:
                segments.append((t, spans[c][2], i))
            t = max(t, spans[c][3])
        if span[3] > t:
            segments.append((t, span[3], i))
    return segments


def layer_self_times(trees: list) -> dict:
    """Wall time of the first tree's root span, split among layers.

    In one process this is each layer's self time: span duration minus
    what its child spans cover. While the parent waits for worker
    processes, each instant is shared equally among the spans that are
    running in that instant, so the shares still add up to the root's
    wall time; an instant with no worker busy stays with the harness.
    """
    root = trees[0]["spans"][0]
    events = []
    for tree in trees:
        spans = tree["spans"]
        for start, end, i in _self_segments(spans):
            label = None if spans[i][1] == WAIT else spans[i][0]
            events.append((start, 1, label))
            events.append((end, -1, label))
    events.sort(key=lambda e: e[0])
    active = Counter()
    shares = Counter({layer: 0.0 for layer in LAYERS})
    prev = root[2]
    for t, delta, label in events:
        t = min(max(t, root[2]), root[3])
        if t > prev:
            busy = {k: v for k, v in active.items() if v > 0 and k is not None}
            total = sum(busy.values())
            if total:
                for k, v in busy.items():
                    shares[k] += (t - prev) * v / total
            else:
                shares["harness"] += t - prev
            prev = t
        active[label] += delta
    return dict(shares)


def _percentile(values: list, q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def span_metrics(trees: list) -> dict:
    """Per-layer counts and times read from the spans of one traced inference.

    Times other than ``<layer>.self_s`` are span durations summed over every
    process, so on a sweep they count the work of both workers.
    """
    m = Counter()
    jitters, conds, iter_ms = [], [], []
    l96_kernel = 0.0
    l96_steps = 0
    accepted = proposals = 0
    for tree in trees:
        spans = tree["spans"]
        l96_steps += tree["counts"].get("models.l96_drift", 0)
        m["trace.spans"] += len(spans)
        covered = [0.0] * len(spans)
        for span in spans:
            if span[4] >= 0:
                covered[span[4]] += span[3] - span[2]
        rounds = defaultdict(list)  # run_eki span -> starts of its simulation rounds
        batches = defaultdict(list)  # run_abc_smc span -> rows of its simulate_batch calls
        wait_end = max((span[3] for span in spans if span[1] == WAIT), default=None)
        for i, (layer, name, start, end, parent, payload) in enumerate(spans):
            method = name.rsplit(".", 1)[-1]
            dur = end - start
            parent_span = spans[parent] if parent >= 0 else None
            if layer == "rng":
                m["rng.streams_n"] += 1
                m["rng.streams_s"] += dur
            elif layer == "models" and method in ("simulate", "simulate_batch"):
                own = dur - covered[i]
                m["models.kernel_self_s"] += own
                if name.startswith("L96Model."):
                    l96_kernel += own
                if parent_span is None or parent_span[0] != "models":
                    m["models.simulate_calls"] += 1
                    m["models.sims"] += payload if method == "simulate_batch" else 1
                    if parent_span is not None and parent_span[1].endswith(".run_eki"):
                        rounds[parent].append(start)
                    if parent_span is not None and parent_span[1].endswith(".run_abc_smc"):
                        batches[parent].append(payload)
            elif method == "compute_moments":
                m["ensembles.moments_calls"] += 1
                m["ensembles.moments_s"] += dur
            elif method == "chol_psd":
                m["linalg.chol_calls"] += 1
                m["linalg.chol_s"] += dur
                if payload is not None:
                    jitters.append(payload[0])
                    conds.append(payload[1])
            elif method == "select_next_lambda":
                m["inversion.temper_s"] += dur
            elif method == "eki_step":
                m["inversion.move_s"] += dur
            elif method == "run_eki" and payload is not None:
                m["inversion.iterations"] += payload["iterations"]
                m["inversion.clamped"] += payload["clamped"]
                m["inversion.flagged"] += payload["flagged"]
            elif method == "run_abc_mcmc" and payload is not None:
                accepted += round(payload["rate"] * payload["steps"])
                proposals += payload["steps"]
            elif method == "run_experiment" and wait_end is not None:
                # after the workers finish, run_experiment only writes files
                m["harness.io_s"] += end - wait_end
        for idx, starts in rounds.items():
            bounds = starts + [spans[idx][3]]
            iter_ms += [1e3 * (b - a) for a, b in zip(bounds, bounds[1:])]
        for idx, rows in batches.items():
            payload = spans[idx][5]
            if payload is None:
                continue
            m["baselines.smc_iterations"] += payload["smc_iterations"]
            accepted += sum(round(r * n) for r, n in zip(payload["rates"], rows[1:]))
            proposals += sum(rows[1:])
    m["linalg.jitter_calls"] = sum(1 for j in jitters if j > 0)
    m["linalg.jitter_max"] = max(jitters, default=0.0)
    m["linalg.cond_max"] = max(conds, default=0.0)
    m["inversion.iter_ms_p50"] = _percentile(iter_ms, 50)
    m["inversion.iter_ms_p90"] = _percentile(iter_ms, 90)
    sims = m["models.sims"]
    m["models.us_per_sim"] = 1e6 * m["models.kernel_self_s"] / sims if sims else 0.0
    m["models.l96.step_us"] = 1e6 * l96_kernel / l96_steps if l96_steps else 0.0
    m["baselines.accept_rate"] = accepted / proposals if proposals else 0.0
    for layer, share in layer_self_times(trees).items():
        m[f"{layer}.self_s"] = share
    return dict(m)
