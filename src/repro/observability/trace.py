"""Low-overhead structured tracing for injection runs.

The §6 campaigns are only as credible as their per-run accounting: which
trigger fired, whether the run took the snapshot fast path or a fresh
boot, and where the wall-clock went.  This module is the one tracing
seam every layer shares:

* a **module-level enabled flag** — tracing is off by default and the
  instrumented hot paths pay only a ``None`` check per *run* (never per
  instruction) when disabled; ``benchmarks/test_trace_overhead.py``
  keeps the disabled overhead under 2% of campaign wall-clock;
* a per-run **span tree** (:class:`RunTrace`): boot / golden-run /
  snapshot-capture / snapshot-restore / post-trigger-execute / execute /
  classify, each with start offset and duration, plus free-form counters
  (pages captured/restored, …);
* a per-run **execution-path label** — ``snapshot`` (restored a
  golden-run checkpoint), ``dormant`` (record synthesised because the
  golden run exited without the trigger firing) or ``fresh`` — with the
  fallback reason when the fast path was declined (temporal trigger,
  trap mode, multi-core, cache miss, golden-run exit);
* for a hung run, how it ended: at its cycle (the injector's cycle probe
  fast-forwarded whole periods; the run then names its loop) or at the
  budget, with the reason the probe declined;
* :class:`TraceStats`, the aggregation consumed by the telemetry layer
  (per shard and per campaign) and by ``repro trace report``.

The producer protocol is deliberately tiny: the run executor calls
:func:`begin_run` / :func:`end_run`, any layer in between brackets work
with ``with phase("boot"):`` or bumps :func:`add_counter`; the finished
run's JSON-ready payload is collected with :func:`take_completed`.
Nested runs (the ``verify`` snapshot policy re-executes a run fresh
*inside* another run) are handled by a run stack — spans always attach
to the innermost active run.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field

# -- phase names (span labels) ------------------------------------------------

PHASE_BOOT = "boot"
PHASE_GOLDEN_RUN = "golden-run"
PHASE_SNAPSHOT_CAPTURE = "snapshot-capture"
PHASE_SNAPSHOT_RESTORE = "snapshot-restore"
PHASE_POST_TRIGGER = "post-trigger-execute"
PHASE_EXECUTE = "execute"  # full fresh-boot execution (prefix + suffix)
PHASE_CLASSIFY = "classify"
PHASE_BLOCK_COMPILE = "block-compile"  # trace engine compiling a basic block
PHASE_TRACE_COMPILE = "trace-compile"  # trace engine stitching a superblock
PHASE_PLAN_PROVE = "plan-prove"        # planner: golden access trace + rules
PHASE_MEMO_LOOKUP = "memo-lookup"      # planner: outcome-memo key + lookup

PHASES = (
    PHASE_BOOT,
    PHASE_GOLDEN_RUN,
    PHASE_SNAPSHOT_CAPTURE,
    PHASE_SNAPSHOT_RESTORE,
    PHASE_POST_TRIGGER,
    PHASE_EXECUTE,
    PHASE_CLASSIFY,
    PHASE_BLOCK_COMPILE,
    PHASE_TRACE_COMPILE,
    PHASE_PLAN_PROVE,
    PHASE_MEMO_LOOKUP,
)

# -- execution paths and fallback reasons ------------------------------------

PATH_FRESH = "fresh"
PATH_SNAPSHOT = "snapshot"
PATH_DORMANT = "dormant"
PATH_PRUNED = "pruned"      # planner synthesized the record statically
PATH_MEMO = "memoized"      # planner replayed a cached outcome
PATHS = (PATH_SNAPSHOT, PATH_DORMANT, PATH_PRUNED, PATH_MEMO, PATH_FRESH)

REASON_TEMPORAL = "temporal-trigger"
REASON_TRAP_MODE = "trap-mode"
REASON_MULTI_CORE = "multi-core"
REASON_CACHE_MISS = "cache-miss"
REASON_GOLDEN_EXIT = "golden-run-exit"

#: Every way the snapshot fast path declines to restore a checkpoint.
#: ``golden-run-exit`` is special: the run is *synthesised* from the
#: golden outcome (path ``dormant``) instead of falling back to a boot.
FALLBACK_REASONS = (
    REASON_TEMPORAL,
    REASON_TRAP_MODE,
    REASON_MULTI_CORE,
    REASON_CACHE_MISS,
    REASON_GOLDEN_EXIT,
)

# -- how a hung run ended (see repro.swifi.injector) --------------------------

HANG_CYCLE = "cycle"                  # fast-forwarded at its repeating state
REASON_SIMPLE_ENGINE = "simple-engine"
REASON_DATA_TRIGGER = "data-trigger"
REASON_MULTI_FAULT = "multi-fault"
REASON_NO_REPEAT = "no-repeat"

#: Every way a hung run can end at its budget instead of at its cycle.
HANG_DECLINE_REASONS = (
    REASON_MULTI_CORE,
    REASON_SIMPLE_ENGINE,
    REASON_DATA_TRIGGER,
    REASON_TEMPORAL,
    REASON_MULTI_FAULT,
    REASON_NO_REPEAT,
)

# -- module state -------------------------------------------------------------

_enabled = False
_run_stack: list["RunTrace"] = []
_completed: dict | None = None


def tracing_enabled() -> bool:
    """Whether run tracing is currently on (module-level flag)."""
    return _enabled


def enable_tracing() -> None:
    global _enabled
    _enabled = True


def disable_tracing() -> None:
    global _enabled
    _enabled = False


def set_tracing(flag: bool) -> bool:
    """Set the flag, returning the previous value (for try/finally)."""
    global _enabled
    previous = _enabled
    _enabled = bool(flag)
    return previous


# -- spans --------------------------------------------------------------------


@dataclass
class Span:
    """One timed region of a run; ``start`` is seconds from run start."""

    name: str
    start: float
    duration: float = 0.0
    children: list["Span"] = field(default_factory=list)

    def to_dict(self) -> dict:
        payload: dict = {
            "name": self.name,
            "start": round(self.start, 9),
            "dur": round(self.duration, 9),
        }
        if self.children:
            payload["children"] = [child.to_dict() for child in self.children]
        return payload

    @staticmethod
    def from_dict(payload: dict) -> "Span":
        return Span(
            name=payload["name"],
            start=payload["start"],
            duration=payload["dur"],
            children=[Span.from_dict(c) for c in payload.get("children", ())],
        )


class _NullPhase:
    """Shared no-op context manager: the disabled-tracing fast path."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


_NULL_PHASE = _NullPhase()


class _PhaseContext:
    __slots__ = ("_run", "_name", "_span")

    def __init__(self, run: "RunTrace", name: str) -> None:
        self._run = run
        self._name = name
        self._span: Span | None = None

    def __enter__(self) -> Span:
        self._span = self._run._push(self._name)
        return self._span

    def __exit__(self, *exc) -> bool:
        assert self._span is not None
        self._run._pop(self._span)
        return False


class RunTrace:
    """The span tree plus path/counter accounting of one injection run."""

    __slots__ = (
        "fault_id",
        "case_id",
        "path",
        "fallback_reason",
        "mode",
        "hang",
        "loop",
        "root",
        "counters",
        "_t0",
        "_stack",
    )

    def __init__(self, fault_id: str, case_id: str) -> None:
        self.fault_id = fault_id
        self.case_id = case_id
        self.path = PATH_FRESH
        self.fallback_reason: str | None = None
        self.mode: str | None = None
        #: For a hung run: HANG_CYCLE or one of HANG_DECLINE_REASONS.
        self.hang: str | None = None
        #: The loop a HANG_CYCLE run ended in (trigger pc and period).
        self.loop: dict | None = None
        self._t0 = time.perf_counter()
        self.root = Span("run", 0.0)
        self._stack: list[Span] = [self.root]
        self.counters: Counter = Counter()

    # -- span plumbing (via the ``phase``/``span`` context managers) ----

    def _now(self) -> float:
        return time.perf_counter() - self._t0

    def _push(self, name: str) -> Span:
        span = Span(name, self._now())
        self._stack[-1].children.append(span)
        self._stack.append(span)
        return span

    def _pop(self, span: Span) -> None:
        span.duration = self._now() - span.start
        if self._stack and self._stack[-1] is span:
            self._stack.pop()

    def span(self, name: str) -> _PhaseContext:
        return _PhaseContext(self, name)

    # -- accounting ------------------------------------------------------

    def add_counter(self, name: str, value: int = 1) -> None:
        self.counters[name] += value

    def set_path(self, path: str, reason: str | None = None) -> None:
        self.path = path
        self.fallback_reason = reason

    def finish(self, mode: str | None = None) -> None:
        self.mode = mode
        self.root.duration = self._now()

    def phase_seconds(self) -> dict[str, float]:
        """Exclusive (self) seconds per phase name, over the whole tree.

        Exclusive so nested spans (a snapshot capture inside the golden
        run) are not double-counted and the phases sum to traced time.
        """
        totals: Counter = Counter()

        def walk(span: Span) -> None:
            child_time = sum(child.duration for child in span.children)
            totals[span.name] += max(0.0, span.duration - child_time)
            for child in span.children:
                walk(child)

        for child in self.root.children:
            walk(child)
        return dict(totals)

    def to_dict(self) -> dict:
        payload = {
            "fault_id": self.fault_id,
            "case_id": self.case_id,
            "path": self.path,
            "reason": self.fallback_reason,
            "mode": self.mode,
            "seconds": round(self.root.duration, 9),
            "phases": {
                name: round(seconds, 9)
                for name, seconds in self.phase_seconds().items()
            },
            "counters": dict(self.counters),
            "spans": [child.to_dict() for child in self.root.children],
        }
        if self.hang is not None:
            payload["hang"] = self.hang
        if self.loop is not None:
            payload["loop"] = self.loop
        return payload


# -- producer protocol --------------------------------------------------------


def begin_run(fault_id: str, case_id: str) -> RunTrace | None:
    """Open a run trace (``None`` when tracing is disabled)."""
    if not _enabled:
        return None
    run = RunTrace(fault_id, case_id)
    _run_stack.append(run)
    return run


def current() -> RunTrace | None:
    """The innermost active run trace, or ``None``."""
    return _run_stack[-1] if _run_stack else None


def phase(name: str):
    """Context manager timing one phase of the current run (no-op fast)."""
    if not _run_stack:
        return _NULL_PHASE
    return _run_stack[-1].span(name)


def add_counter(name: str, value: int = 1) -> None:
    """Bump a counter on the current run (no-op when not tracing)."""
    if _run_stack:
        _run_stack[-1].counters[name] += value


def note_hang(ending: str, loop: dict | None = None) -> None:
    """Record how the current run's hang ended (no-op when not tracing).

    *ending* is :data:`HANG_CYCLE` with *loop* naming the trigger pc,
    the period and the instructions skipped, or a decline reason.
    """
    if _run_stack:
        run = _run_stack[-1]
        run.hang = ending
        run.loop = loop
        if loop is not None:
            run.counters["instructions_skipped"] += loop["skipped"]


def _loop_label(loop: dict) -> str:
    """One loop's row label: trigger pc and period."""
    return (f"pc {loop['pc']:#x}: {loop['period']} instr, "
            f"{loop['activations']} activations")


def _unwind(run: RunTrace) -> None:
    while _run_stack:
        top = _run_stack.pop()
        if top is run:
            return


def end_run(run: RunTrace | None, record=None) -> dict | None:
    """Close *run*, stash its payload for :func:`take_completed`."""
    global _completed
    if run is None:
        return None
    if run in _run_stack:
        _unwind(run)
    run.finish(None if record is None else record.mode.value)
    _completed = run.to_dict()
    return _completed


def abort_run(run: RunTrace | None) -> None:
    """Drop *run* (exception path) without publishing a payload."""
    if run is not None and run in _run_stack:
        _unwind(run)


def take_completed() -> dict | None:
    """Pop the most recently finished run's payload (once)."""
    global _completed
    payload = _completed
    _completed = None
    return payload


# -- aggregation --------------------------------------------------------------


class TraceStats:
    """Aggregated run accounting: per shard, per campaign, per journal."""

    __slots__ = (
        "runs",
        "total_seconds",
        "paths",
        "fallback_reasons",
        "phase_seconds",
        "phase_counts",
        "counters",
        "modes",
        "hangs",
        "loops",
        "retries",
        "resume_skips",
    )

    def __init__(self) -> None:
        self.runs = 0
        self.total_seconds = 0.0
        self.paths: Counter = Counter()
        self.fallback_reasons: Counter = Counter()
        self.phase_seconds: Counter = Counter()
        self.phase_counts: Counter = Counter()
        self.counters: Counter = Counter()
        self.modes: Counter = Counter()
        #: hung runs by ending: HANG_CYCLE or a decline reason
        self.hangs: Counter = Counter()
        #: runs that ended at their cycle, by loop (pc and period)
        self.loops: Counter = Counter()
        self.retries = 0
        self.resume_skips = 0

    @property
    def fast_path_hits(self) -> int:
        """Runs served without a fresh boot (restore, synthesis, plan)."""
        return (
            self.paths[PATH_SNAPSHOT] + self.paths[PATH_DORMANT]
            + self.paths[PATH_PRUNED] + self.paths[PATH_MEMO]
        )

    def add_run(self, payload: dict) -> None:
        self.runs += 1
        self.total_seconds += payload.get("seconds", 0.0)
        self.paths[payload.get("path", PATH_FRESH)] += 1
        reason = payload.get("reason")
        if reason:
            self.fallback_reasons[reason] += 1
        for name, seconds in (payload.get("phases") or {}).items():
            self.phase_seconds[name] += seconds
            self.phase_counts[name] += 1
        for name, value in (payload.get("counters") or {}).items():
            self.counters[name] += value
        mode = payload.get("mode")
        if mode:
            self.modes[mode] += 1
        hang = payload.get("hang")
        if hang:
            self.hangs[hang] += 1
        loop = payload.get("loop")
        if loop:
            self.loops[_loop_label(loop)] += 1

    def merge(self, other: "TraceStats") -> None:
        self.runs += other.runs
        self.total_seconds += other.total_seconds
        self.paths.update(other.paths)
        self.fallback_reasons.update(other.fallback_reasons)
        self.phase_seconds.update(other.phase_seconds)
        self.phase_counts.update(other.phase_counts)
        self.counters.update(other.counters)
        self.modes.update(other.modes)
        self.hangs.update(other.hangs)
        self.loops.update(other.loops)
        self.retries += other.retries
        self.resume_skips += other.resume_skips

    def to_dict(self) -> dict:
        return {
            "runs": self.runs,
            "total_seconds": round(self.total_seconds, 6),
            "fast_path_hits": self.fast_path_hits,
            "paths": dict(self.paths),
            "fallback_reasons": dict(self.fallback_reasons),
            "phase_seconds": {
                name: round(seconds, 6)
                for name, seconds in self.phase_seconds.items()
            },
            "phase_counts": dict(self.phase_counts),
            "counters": dict(self.counters),
            "modes": dict(self.modes),
            "hangs": dict(self.hangs),
            "loops": dict(self.loops),
            "retries": self.retries,
            "resume_skips": self.resume_skips,
        }

    @staticmethod
    def from_dict(payload: dict) -> "TraceStats":
        stats = TraceStats()
        stats.runs = payload.get("runs", 0)
        stats.total_seconds = payload.get("total_seconds", 0.0)
        stats.paths = Counter(payload.get("paths") or {})
        stats.fallback_reasons = Counter(payload.get("fallback_reasons") or {})
        stats.phase_seconds = Counter(payload.get("phase_seconds") or {})
        stats.phase_counts = Counter(payload.get("phase_counts") or {})
        stats.counters = Counter(payload.get("counters") or {})
        stats.modes = Counter(payload.get("modes") or {})
        stats.hangs = Counter(payload.get("hangs") or {})
        stats.loops = Counter(payload.get("loops") or {})
        stats.retries = payload.get("retries", 0)
        stats.resume_skips = payload.get("resume_skips", 0)
        return stats


__all__ = [
    "FALLBACK_REASONS",
    "HANG_CYCLE",
    "HANG_DECLINE_REASONS",
    "PATHS",
    "PATH_DORMANT",
    "PATH_FRESH",
    "PATH_MEMO",
    "PATH_PRUNED",
    "PATH_SNAPSHOT",
    "PHASES",
    "PHASE_BLOCK_COMPILE",
    "PHASE_BOOT",
    "PHASE_CLASSIFY",
    "PHASE_EXECUTE",
    "PHASE_GOLDEN_RUN",
    "PHASE_MEMO_LOOKUP",
    "PHASE_PLAN_PROVE",
    "PHASE_POST_TRIGGER",
    "PHASE_SNAPSHOT_CAPTURE",
    "PHASE_SNAPSHOT_RESTORE",
    "PHASE_TRACE_COMPILE",
    "REASON_CACHE_MISS",
    "REASON_DATA_TRIGGER",
    "REASON_GOLDEN_EXIT",
    "REASON_MULTI_CORE",
    "REASON_MULTI_FAULT",
    "REASON_NO_REPEAT",
    "REASON_SIMPLE_ENGINE",
    "REASON_TEMPORAL",
    "REASON_TRAP_MODE",
    "RunTrace",
    "Span",
    "TraceStats",
    "abort_run",
    "add_counter",
    "begin_run",
    "current",
    "disable_tracing",
    "enable_tracing",
    "end_run",
    "note_hang",
    "phase",
    "set_tracing",
    "take_completed",
    "tracing_enabled",
]
