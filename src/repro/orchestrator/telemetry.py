"""Live campaign telemetry: progress events, rates, ETA, per-mode tallies.

The worker pool feeds one event per completed run into a
:class:`TelemetryAggregator`; the aggregator maintains the running
campaign statistics (runs/sec over a sliding window, per-failure-mode
tallies, ETA, retry/failure counts) and produces JSON-serialisable
:class:`TelemetrySnapshot` objects.  Consumers implement the small
:class:`TelemetrySink` interface:

* :class:`ProgressRenderer` — the CLI's live one-line progress display
  (written to stderr so piped stdout stays clean);
* :class:`JsonTelemetryWriter` — streams the campaign's snapshots to a
  JSON file: the latest in-progress snapshot is written atomically at
  most once per ``interval`` from :meth:`update` (so a killed campaign
  still leaves recent telemetry on disk), and the final snapshot of
  every campaign is appended in :meth:`finish`.

With tracing on (``CampaignConfig(trace=True)``), snapshots additionally
carry an aggregated ``trace`` block (:class:`repro.observability.trace.
TraceStats`); the key is simply absent otherwise, so schema-v2 consumers
are unaffected.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import IO

from ..observability.trace import TraceStats
from ..persist import atomic_write_json
from ..swifi.campaign import RunRecord
from ..swifi.outcomes import MODE_ORDER

#: Sliding window (seconds) for the instantaneous runs/sec estimate.
RATE_WINDOW = 20.0


@dataclass
class TelemetrySnapshot:
    """One JSON-serialisable view of a campaign's progress."""

    label: str
    total_runs: int
    resumed_runs: int      # loaded from the journal, not re-executed
    executed_runs: int     # executed by this invocation
    failed_runs: int       # abandoned after worker retries were exhausted
    retries: int
    workers: int
    elapsed_seconds: float
    runs_per_second: float
    eta_seconds: float | None
    mode_tallies: dict[str, int]
    #: Aggregated run tracing (TraceStats.to_dict()); None when tracing
    #: is off — the JSON key is then absent entirely (schema-additive).
    trace: dict | None = None
    #: Runs answered by the campaign planner (repro.planning) instead of
    #: a fresh boot: statically pruned / replayed from the outcome memo.
    #: Zero outside planner campaigns — the JSON keys are then absent,
    #: so schema-v2 consumers are unaffected.
    pruned_runs: int = 0
    memoized_runs: int = 0

    @property
    def completed_runs(self) -> int:
        return self.resumed_runs + self.executed_runs

    @property
    def remaining_runs(self) -> int:
        return max(0, self.total_runs - self.completed_runs - self.failed_runs)

    def to_dict(self) -> dict:
        payload = {
            "label": self.label,
            "total_runs": self.total_runs,
            "resumed_runs": self.resumed_runs,
            "executed_runs": self.executed_runs,
            "completed_runs": self.completed_runs,
            "failed_runs": self.failed_runs,
            "retries": self.retries,
            "workers": self.workers,
            "elapsed_seconds": round(self.elapsed_seconds, 3),
            "runs_per_second": round(self.runs_per_second, 3),
            "eta_seconds": None if self.eta_seconds is None else round(self.eta_seconds, 3),
            "mode_tallies": dict(self.mode_tallies),
        }
        if self.trace is not None:
            payload["trace"] = dict(self.trace)
        if self.pruned_runs:
            payload["pruned_runs"] = self.pruned_runs
        if self.memoized_runs:
            payload["memoized_runs"] = self.memoized_runs
        return payload


class TelemetryAggregator:
    """Consumes per-run events and maintains the campaign statistics."""

    def __init__(self, *, label: str, total_runs: int, workers: int,
                 resumed: dict[int, RunRecord] | None = None,
                 tracing: bool = False) -> None:
        self.label = label
        self.total_runs = total_runs
        self.workers = workers
        self.started = time.monotonic()
        self.executed = 0
        self.failed = 0
        self.retries = 0
        self.modes: Counter = Counter()
        self.pruned = 0
        self.memoized = 0
        self.resumed_runs = 0
        self._recent: deque[float] = deque()  # completion times inside RATE_WINDOW
        self.trace_stats: TraceStats | None = TraceStats() if tracing else None
        if resumed:
            self.resumed_runs = len(resumed)
            for record in resumed.values():
                self.modes[record.mode.value] += 1
                self._note_provenance(record)
            if self.trace_stats is not None:
                self.trace_stats.resume_skips = len(resumed)

    # -- event intake ---------------------------------------------------

    def _note_provenance(self, record: RunRecord) -> None:
        if record.provenance == "pruned":
            self.pruned += 1
        elif record.provenance == "memoized":
            self.memoized += 1

    def record_run(self, record: RunRecord, trace: dict | None = None) -> None:
        self.executed += 1
        self.modes[record.mode.value] += 1
        self._note_provenance(record)
        if self.trace_stats is not None and trace is not None:
            self.trace_stats.add_run(trace)
        now = time.monotonic()
        self._recent.append(now)
        cutoff = now - RATE_WINDOW
        while self._recent and self._recent[0] < cutoff:
            self._recent.popleft()

    def record_retry(self) -> None:
        self.retries += 1
        if self.trace_stats is not None:
            self.trace_stats.retries += 1

    def record_failures(self, count: int) -> None:
        self.failed += count

    # -- derived numbers ------------------------------------------------

    def rate(self) -> float:
        """Runs per second over the recent window (whole run if shorter).

        Guaranteed positive once a run has completed: the first
        ``record_run`` can land within the clock's resolution of
        ``started``, so zero elapsed time is clamped rather than reported
        as a zero rate (which would knock out the ETA right as the
        campaign starts).
        """
        if self.executed == 0:
            return 0.0
        elapsed = max(time.monotonic() - self.started, 1e-9)
        if len(self._recent) >= 2 and elapsed > RATE_WINDOW:
            span = self._recent[-1] - self._recent[0]
            if span > 0:
                return (len(self._recent) - 1) / span
        return self.executed / elapsed

    def snapshot(self) -> TelemetrySnapshot:
        rate = self.rate()
        completed = self.resumed_runs + self.executed
        remaining = max(0, self.total_runs - completed - self.failed)
        eta = (remaining / rate) if rate > 0 else None
        return TelemetrySnapshot(
            label=self.label,
            total_runs=self.total_runs,
            resumed_runs=self.resumed_runs,
            executed_runs=self.executed,
            failed_runs=self.failed,
            retries=self.retries,
            workers=self.workers,
            elapsed_seconds=time.monotonic() - self.started,
            runs_per_second=rate,
            eta_seconds=eta,
            mode_tallies={mode.value: self.modes.get(mode.value, 0) for mode in MODE_ORDER},
            trace=None if self.trace_stats is None else self.trace_stats.to_dict(),
            pruned_runs=self.pruned,
            memoized_runs=self.memoized,
        )


# ---------------------------------------------------------------------------
# Sinks
# ---------------------------------------------------------------------------


class TelemetrySink:
    """Interface for progress consumers; every method is optional."""

    def begin(self, snapshot: TelemetrySnapshot) -> None:  # pragma: no cover
        pass

    def update(self, snapshot: TelemetrySnapshot) -> None:  # pragma: no cover
        pass

    def finish(self, snapshot: TelemetrySnapshot) -> None:  # pragma: no cover
        pass


class NullSink(TelemetrySink):
    pass


class CompositeSink(TelemetrySink):
    def __init__(self, *sinks: TelemetrySink) -> None:
        self.sinks = [sink for sink in sinks if sink is not None]

    def begin(self, snapshot: TelemetrySnapshot) -> None:
        for sink in self.sinks:
            sink.begin(snapshot)

    def update(self, snapshot: TelemetrySnapshot) -> None:
        for sink in self.sinks:
            sink.update(snapshot)

    def finish(self, snapshot: TelemetrySnapshot) -> None:
        for sink in self.sinks:
            sink.finish(snapshot)


class ProgressRenderer(TelemetrySink):
    """One-line live progress display for the CLI.

    On a TTY the line is redrawn in place; otherwise a plain line is
    printed at most every *interval* seconds, so logs stay readable.
    """

    def __init__(self, stream: IO[str] | None = None, *, interval: float = 0.5) -> None:
        self.stream = stream if stream is not None else sys.stderr
        self.interval = interval
        # None = nothing emitted yet.  A 0.0 start value would compare
        # against the raw monotonic clock, whose epoch is arbitrary — on
        # platforms where it starts near zero the begin() render (and
        # every update inside the first interval) would be dropped.
        self._last_emit: float | None = None
        self._line_open = False

    def _is_tty(self) -> bool:
        return bool(getattr(self.stream, "isatty", lambda: False)())

    def _format(self, snapshot: TelemetrySnapshot) -> str:
        done = snapshot.completed_runs
        percent = 100.0 * done / snapshot.total_runs if snapshot.total_runs else 100.0
        tallies = " ".join(
            f"{name[:4]}={count}" for name, count in snapshot.mode_tallies.items()
        )
        eta = "--" if snapshot.eta_seconds is None else f"{snapshot.eta_seconds:.0f}s"
        parts = [
            f"[{snapshot.label}]",
            f"{done}/{snapshot.total_runs} ({percent:.0f}%)",
            f"{snapshot.runs_per_second:.1f} runs/s",
            f"eta {eta}",
            tallies,
            f"jobs={snapshot.workers}",
        ]
        if snapshot.pruned_runs:
            parts.append(f"pruned={snapshot.pruned_runs}")
        if snapshot.memoized_runs:
            parts.append(f"memo={snapshot.memoized_runs}")
        if snapshot.resumed_runs:
            parts.append(f"resumed={snapshot.resumed_runs}")
        if snapshot.retries:
            parts.append(f"retries={snapshot.retries}")
        if snapshot.failed_runs:
            parts.append(f"failed={snapshot.failed_runs}")
        if snapshot.trace is not None:
            fast = snapshot.trace.get("fast_path_hits", 0)
            if fast:
                parts.append(f"fast={fast}")
            fallbacks = sum(
                (snapshot.trace.get("fallback_reasons") or {}).values()
            )
            if fallbacks:
                parts.append(f"fb={fallbacks}")
        return "  ".join(parts)

    def begin(self, snapshot: TelemetrySnapshot) -> None:
        self._last_emit = None
        self.update(snapshot)

    def update(self, snapshot: TelemetrySnapshot) -> None:
        now = time.monotonic()
        if self._last_emit is not None and now - self._last_emit < self.interval:
            return
        self._last_emit = now
        line = self._format(snapshot)
        if self._is_tty():
            self.stream.write("\r\x1b[2K" + line)
            self._line_open = True
        else:
            self.stream.write(line + "\n")
        self.stream.flush()

    def finish(self, snapshot: TelemetrySnapshot) -> None:
        # Unthrottled on purpose: however recently update() emitted (or
        # swallowed) a snapshot, the final totals always render.
        line = self._format(snapshot)
        if self._is_tty() and self._line_open:
            self.stream.write("\r\x1b[2K" + line + "\n")
            self._line_open = False
        else:
            self.stream.write(line + "\n")
        self.stream.flush()


class JsonTelemetryWriter(TelemetrySink):
    """Streams campaign snapshots to a JSON file, atomically.

    Historically this sink wrote only from :meth:`finish`, so a campaign
    killed mid-flight left *nothing* on disk.  Now every throttled
    :meth:`update` rewrites the file (via ``atomic_write_json``, so
    readers never see a torn file) with the finished campaigns' final
    snapshots plus the in-flight campaign's latest snapshot, marked
    ``"in_progress": true``.  :meth:`finish` replaces that marker entry
    with the final snapshot.
    """

    def __init__(self, path: str, *, interval: float = 1.0) -> None:
        self.path = path
        self.interval = interval
        self.snapshots: list[TelemetrySnapshot] = []
        self._current: TelemetrySnapshot | None = None
        self._last_write: float | None = None

    def update(self, snapshot: TelemetrySnapshot) -> None:
        self._current = snapshot
        now = time.monotonic()
        if self._last_write is not None and now - self._last_write < self.interval:
            return
        self._last_write = now
        self.write()

    def finish(self, snapshot: TelemetrySnapshot) -> None:
        self._current = None
        self.snapshots.append(snapshot)
        self.write()

    def write(self) -> None:
        payload = [snapshot.to_dict() for snapshot in self.snapshots]
        if self._current is not None:
            entry = self._current.to_dict()
            entry["in_progress"] = True
            payload.append(entry)
        atomic_write_json(self.path, payload, indent=2)
