"""Per-layer spans for the end-to-end benchmark.

The benchmark times each layer from the outside: :func:`install` wraps
the public functions callers use to enter a layer, at the module
attribute those callers resolve, and every wrapped call records a span
(name, start, end, parent) in memory.  Nothing inside ``src/`` changes,
and the untraced repetitions never install the wrappers.

A layer's *self* time is its spans' duration minus the time their child
spans cover.  In the process that calls ``run_section6`` the root span
is that call, so the self times of the parent-side rows plus the root's
own self time (``other_s``: whatever no wrapper covers) add up to the
traced wall time exactly.

Pool workers are forked from the campaign process, so they inherit the
wrappers.  A worker leaves through ``os._exit``, so the wrapped
``execute_shard_runs`` writes the worker's spans to a per-pid file when
it returns; :func:`summarize` folds those files in.  Per-layer metrics
sum a layer over every process; the parent-side rows are kept apart
because worker time runs concurrently with the parent's.
"""

from __future__ import annotations

import functools
import glob
import importlib
import json
import os
import time
from collections import Counter

ROOT = "run_section6"

#: Per-layer share metric -> the span whose self time it reports.
SHARES = {
    "lang.compile_frac": "lang.compile",
    "emulation.faultgen_frac": "emulation.faultgen",
    "swifi.calibrate_frac": "swifi.calibrate",
    "machine.boot_frac": "machine.boot",
    "machine.execute_frac": "machine.execute",
    "swifi.run_self_frac": "swifi.run",
    "swifi.classify_frac": "swifi.classify",
    "swifi.snapshot.capture_frac": "swifi.snapshot.capture",
    "swifi.snapshot.execute_frac": "swifi.snapshot.execute",
    "planning.prove_frac": "planning.prove",
    "planning.lookup_frac": "planning.lookup",
    "orchestrator.wait_frac": "orchestrator.wait",
    "orchestrator.journal_frac": "orchestrator.journal",
    "orchestrator.telemetry_frac": "orchestrator.telemetry",
}
#: Span names of the breakdown's rows; pool workers' shard loops last.
ROWS = tuple(SHARES.values()) + ("orchestrator.shard",)


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.stack: list[int] = []
        self.counts: Counter = Counter()

    def forget_parent(self) -> None:
        """Drop what a forked worker inherited from the campaign process."""
        if os.getpid() != self.pid:
            self.__init__()

    def call(self, name: str, function, args: tuple, kwargs: dict):
        span = [name, time.perf_counter(), None, self.stack[-1] if self.stack else -1]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        try:
            return function(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self.stack.pop()


# -- counters read off a wrapped call's arguments and result -----------------

def _tally(key: str):
    def count(counts, args, result):
        counts[key] += 1

    return count


def _count_faults(counts, args, result):
    counts["emulation.faults"] += len(result.faults)


def _count_retired(counts, args, result):
    counts["machine.retired"] += result.instructions


def _count_snapshot(counts, args, result):
    counts["swifi.snapshot.attempts"] += 1
    counts["swifi.snapshot.hits" if result is not None else "swifi.snapshot.fallbacks"] += 1


def _count_planned(counts, args, result):
    counts["planning.attempts"] += 1
    if result is not None:
        counts[f"planning.{result.provenance}"] += 1


def _count_pool(counts, args, result):
    orchestrator = args[0]
    if orchestrator.options.jobs > 1:
        counts["orchestrator.pool_runs"] += 1


#: (module, class or None, attribute, span name, counter).
WRAPPED = (
    ("repro.workloads.base", None, "compile_source", "lang.compile", None),
    ("repro.experiments.campaign6", None, "generate_error_set",
     "emulation.faultgen", _count_faults),
    ("repro.swifi.campaign", "CampaignRunner", "calibrate_case",
     "swifi.calibrate", _tally("swifi.golden_runs")),
    ("repro.swifi.campaign", None, "boot", "machine.boot", _tally("machine.boots")),
    ("repro.swifi.snapshot", None, "boot", "machine.boot", _tally("machine.boots")),
    ("repro.planning.planner", None, "boot", "machine.boot", _tally("machine.boots")),
    ("repro.swifi.injector", "InjectionSession", "run", "machine.execute",
     _count_retired),
    ("repro.swifi.campaign", None, "execute_injection_run", "swifi.run",
     _tally("swifi.runs")),
    ("repro.orchestrator.pool", None, "execute_injection_run", "swifi.run",
     _tally("swifi.runs")),
    ("repro.orchestrator.worker", None, "execute_injection_run", "swifi.run",
     _tally("swifi.runs")),
    ("repro.swifi.campaign", None, "classify", "swifi.classify", None),
    ("repro.swifi.snapshot", None, "classify", "swifi.classify", None),
    ("repro.swifi.snapshot", "SnapshotCache", "trace_for",
     "swifi.snapshot.capture", None),
    ("repro.swifi.snapshot", "SnapshotCache", "execute", "swifi.snapshot.execute",
     _count_snapshot),
    ("repro.planning.planner", "PlannerCache", "trace_for", "planning.prove", None),
    ("repro.planning.planner", "PlannerCache", "execute", "planning.lookup",
     _count_planned),
    ("repro.planning.planner", "PlannerCache", "record_executed",
     "planning.lookup", None),
    # Loading an on-disk memo dir is the first step of the memo's read path.
    ("repro.planning.memo", "OutcomeCache", "__init__", "planning.lookup", None),
    ("repro.orchestrator.pool", "CampaignOrchestrator", "run", "orchestrator.wait",
     _count_pool),
    ("repro.orchestrator.telemetry", "TelemetryAggregator", "record_run",
     "orchestrator.telemetry", None),
) + tuple(
    ("repro.orchestrator.journal", "CampaignJournal", method, "orchestrator.journal",
     None)
    for method in ("open", "append_record", "append_trace", "append_plan",
                   "append_shard_failure", "sync", "close")
)


def _wrap(tracer: Tracer, original, name: str, counter):
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        result = tracer.call(name, original, args, kwargs)
        if counter is not None:
            counter(tracer.counts, args, result)
        return result

    return wrapper


def _wrap_shard(tracer: Tracer, original, spans_dir: str):
    """``execute_shard_runs`` in a pool worker: record, then write out."""

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        tracer.forget_parent()
        try:
            return tracer.call("orchestrator.shard", original, args, kwargs)
        finally:
            tracer.counts["orchestrator.shards"] += 1
            # Cumulative per process, so a later shard rewrites the file whole.
            path = os.path.join(spans_dir, f"worker-{os.getpid()}.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump({"spans": tracer.spans, "counts": tracer.counts}, handle)

    return wrapper


def install(spans_dir: str) -> Tracer:
    """Wrap every layer entry point in :data:`WRAPPED`; return the tracer."""
    tracer = Tracer()
    # Import every module before wrapping any: a module imported later
    # would bind an already-wrapped function by name and wrap it twice.
    modules = {entry[0]: importlib.import_module(entry[0]) for entry in WRAPPED}
    for module_name, class_name, attribute, name, counter in WRAPPED:
        owner = modules[module_name]
        if class_name is not None:
            owner = getattr(owner, class_name)
        setattr(owner, attribute, _wrap(tracer, getattr(owner, attribute), name, counter))
    worker = importlib.import_module("repro.orchestrator.worker")
    worker.execute_shard_runs = _wrap_shard(tracer, worker.execute_shard_runs, spans_dir)
    return tracer


# -- aggregation --------------------------------------------------------------

def self_times(spans: list[list]) -> Counter:
    """Self time by span name: duration minus the children's durations."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    totals: Counter = Counter()
    for (name, *_), seconds in zip(spans, own):
        totals[name] += seconds
    return totals


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def summarize(tracer: Tracer, spans_dir: str, *, jobs: int) -> dict:
    """Per-layer metrics and the seconds behind them, for one traced run.

    Layer times are reported as shares of the traced wall time: a layer a
    workload never enters reads exactly 0, which says so more plainly
    than a zero duration, and ``traced_wall_s`` turns a share back into
    seconds.  ``rows`` holds the campaign process's self times, which
    with ``other_s`` add up to ``wall_s``; ``seconds`` sums every process.
    """
    parent = self_times(tracer.spans)
    wall = sum(end - start for name, start, end, _ in tracer.spans if name == ROOT)
    pool_wall = sum(
        end - start for name, start, end, _ in tracer.spans if name == "orchestrator.wait"
    ) if tracer.counts["orchestrator.pool_runs"] else 0.0
    everywhere = Counter(parent)
    counts = Counter(tracer.counts)
    busy = 0.0
    for path in sorted(glob.glob(os.path.join(spans_dir, "worker-*.json"))):
        with open(path, "r", encoding="utf-8") as handle:
            worker = json.load(handle)
        everywhere.update(self_times(worker["spans"]))
        counts.update(worker["counts"])
        busy += sum(end - start for name, start, end, _ in worker["spans"]
                    if name == "orchestrator.shard")
    retired = counts["machine.retired"]
    metrics = {metric: _ratio(everywhere[row], wall) for metric, row in SHARES.items()}
    metrics.update({
        "orchestrator.worker_busy_frac": _ratio(busy, wall),
        "orchestrator.worker_idle_frac": _ratio(jobs * pool_wall - busy, wall)
        if pool_wall else 0.0,
        "other_frac": _ratio(parent[ROOT], wall),
        "traced_wall_s": wall,
        "emulation.faults": counts["emulation.faults"],
        "swifi.golden_runs": counts["swifi.golden_runs"],
        "machine.boots": counts["machine.boots"],
        "machine.retired_minstr": retired / 1e6,
        "machine.minstr_per_s": _ratio(retired / 1e6, everywhere["machine.execute"]),
        "swifi.runs": counts["swifi.runs"],
        "swifi.snapshot.hit_ratio": _ratio(counts["swifi.snapshot.hits"],
                                           counts["swifi.snapshot.attempts"]),
        "swifi.snapshot.fallbacks": counts["swifi.snapshot.fallbacks"],
        "planning.hit_ratio": _ratio(
            counts["planning.pruned"] + counts["planning.memoized"],
            counts["planning.attempts"],
        ),
        "planning.pruned": counts["planning.pruned"],
        "planning.memoized": counts["planning.memoized"],
        "orchestrator.shards": counts["orchestrator.shards"],
    })
    return {
        "metrics": metrics,
        "rows": {row: parent[row] for row in ROWS},
        "seconds": {row: everywhere[row] for row in ROWS},
        "other_s": parent[ROOT],
        "wall_s": wall,
    }
