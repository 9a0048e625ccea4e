"""Trace reports over campaign journals: ``repro trace report``.

A campaign executed with tracing on journals one ``trace`` entry per run
next to its ``run`` entry (see :mod:`repro.orchestrator.journal`).  This
module turns those journals back into evidence:

* :func:`build_trace_report` walks a journal directory — either one
  campaign's journal or a parent directory holding one journal per
  (program, fault class) as laid out by ``run_section6`` — and
  aggregates every run's trace into per-journal :class:`TraceStats`;
* :func:`render_trace_report` prints the per-phase wall-clock breakdown
  and the execution-path / fallback-reason table; the table's run total
  always equals the journal's record count (runs without a trace entry
  are reported as *untraced*, never dropped); hung runs are split into
  those ended at their cycle, by loop, and those that ran to the budget,
  by reason;
* :func:`export_perfetto` writes the span trees as a Chrome/Perfetto
  trace-event JSON (load it in ``ui.perfetto.dev`` or
  ``chrome://tracing``): one thread per journal, runs laid end-to-end in
  journal order.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from ..persist import atomic_write_json
from .trace import (
    FALLBACK_REASONS,
    HANG_CYCLE,
    HANG_DECLINE_REASONS,
    PATH_DORMANT,
    PATH_FRESH,
    PATH_MEMO,
    PATH_PRUNED,
    PATH_SNAPSHOT,
    REASON_GOLDEN_EXIT,
    TraceStats,
)

#: Matches repro.orchestrator.journal.RUNS_NAME (kept literal: the report
#: reads journals without needing a campaign fingerprint).
RUNS_FILENAME = "runs.jsonl"


@dataclass
class JournalTraceSummary:
    """One journal directory's records, traces and aggregate stats."""

    directory: str
    label: str
    record_count: int
    traced_count: int
    failed_runs: int
    stats: TraceStats
    traces: list[tuple[int, dict]]  # (run index, trace payload), index order

    @property
    def untraced_count(self) -> int:
        return max(0, self.record_count - self.traced_count)


@dataclass
class TraceReport:
    root: str
    journals: list[JournalTraceSummary]

    @property
    def record_count(self) -> int:
        return sum(journal.record_count for journal in self.journals)

    @property
    def traced_count(self) -> int:
        return sum(journal.traced_count for journal in self.journals)

    @property
    def failed_runs(self) -> int:
        return sum(journal.failed_runs for journal in self.journals)

    def merged_stats(self) -> TraceStats:
        merged = TraceStats()
        for journal in self.journals:
            merged.merge(journal.stats)
        return merged


def find_journal_dirs(root: str) -> list[str]:
    """Every directory under *root* (inclusive) holding a run log."""
    found = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()  # deterministic report order
        if RUNS_FILENAME in filenames:
            found.append(dirpath)
    return found


def build_trace_report(root: str) -> TraceReport:
    """Aggregate every journal under *root* into a :class:`TraceReport`."""
    from ..orchestrator.journal import load_runs_file

    directories = find_journal_dirs(root)
    if not directories:
        raise FileNotFoundError(
            f"no campaign journal ({RUNS_FILENAME}) found under {root!r}"
        )
    journals = []
    for directory in directories:
        state = load_runs_file(os.path.join(directory, RUNS_FILENAME))
        stats = TraceStats()
        ordered = sorted(state.traces.items())
        for _, payload in ordered:
            stats.add_run(payload)
        label = os.path.relpath(directory, root)
        journals.append(
            JournalTraceSummary(
                directory=directory,
                label=label if label != "." else os.path.basename(
                    os.path.abspath(root)
                ),
                record_count=len(state.records),
                traced_count=len(state.traces),
                failed_runs=sum(
                    len(entry.get("runs", ())) for entry in state.past_failures
                ),
                stats=stats,
                traces=ordered,
            )
        )
    return TraceReport(root=root, journals=journals)


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def _path_rows(report: TraceReport) -> list[tuple[str, int]]:
    """The execution-path / fallback-reason table, totalling to records."""
    stats = report.merged_stats()
    rows: list[tuple[str, int]] = []
    rows.append(("snapshot restore", stats.paths[PATH_SNAPSHOT]))
    rows.append((f"dormant synthesis ({REASON_GOLDEN_EXIT})", stats.paths[PATH_DORMANT]))
    rows.append(("plan: statically pruned", stats.paths[PATH_PRUNED]))
    rows.append(("plan: memoized outcome", stats.paths[PATH_MEMO]))
    fresh_with_reason = 0
    for reason in FALLBACK_REASONS:
        if reason == REASON_GOLDEN_EXIT:
            continue  # accounted as the dormant-synthesis row above
        count = stats.fallback_reasons[reason]
        fresh_with_reason += count
        rows.append((f"fresh boot: {reason}", count))
    plain_fresh = max(0, stats.paths[PATH_FRESH] - fresh_with_reason)
    rows.append(("fresh boot (no snapshot requested)", plain_fresh))
    rows.append(("untraced", report.record_count - report.traced_count))
    return rows


def render_trace_report(report: TraceReport) -> str:
    stats = report.merged_stats()
    lines = [f"Trace report — {report.root}"]
    lines.append(
        f"  journals: {len(report.journals)}   journaled runs: "
        f"{report.record_count}   traced: {report.traced_count}   "
        f"untraced: {report.record_count - report.traced_count}"
    )
    extras = []
    if stats.retries:
        extras.append(f"retries={stats.retries}")
    if stats.resume_skips:
        extras.append(f"resume-skips={stats.resume_skips}")
    if report.failed_runs:
        extras.append(f"failed-runs={report.failed_runs}")
    if extras:
        lines.append("  " + "  ".join(extras))
    for journal in report.journals:
        lines.append(
            f"    {journal.label}: {journal.record_count} runs, "
            f"{journal.traced_count} traced"
        )

    lines.append("")
    lines.append("  Per-phase wall-clock (exclusive time)")
    lines.append(
        f"    {'phase':<22} {'spans':>8} {'total s':>10} {'mean ms':>10} "
        f"{'share':>7}"
    )
    phase_total = sum(stats.phase_seconds.values()) or 1.0
    for name, seconds in sorted(
        stats.phase_seconds.items(), key=lambda item: -item[1]
    ):
        count = stats.phase_counts[name]
        mean_ms = 1000.0 * seconds / count if count else 0.0
        lines.append(
            f"    {name:<22} {count:>8} {seconds:>10.3f} {mean_ms:>10.3f} "
            f"{100.0 * seconds / phase_total:>6.1f}%"
        )
    if not stats.phase_seconds:
        lines.append("    (no traced phases — was the campaign run with --trace?)")

    lines.append("")
    lines.append("  Execution paths / fallback reasons")
    lines.append(f"    {'path':<40} {'runs':>8} {'share':>7}")
    denominator = report.record_count or 1
    total = 0
    for label, count in _path_rows(report):
        total += count
        lines.append(
            f"    {label:<40} {count:>8} {100.0 * count / denominator:>6.1f}%"
        )
    lines.append(f"    {'total':<40} {total:>8} {100.0 * total / denominator:>6.1f}%")

    hung = sum(stats.hangs.values())
    if hung:
        lines.append("")
        lines.append(
            f"  Hung runs: {hung}, ended at the cycle: {stats.hangs[HANG_CYCLE]} "
            f"({stats.counters['instructions_skipped']} instructions skipped)"
        )
        for reason in HANG_DECLINE_REASONS:
            if stats.hangs[reason]:
                lines.append(
                    f"    {'at the budget: ' + reason:<40} {stats.hangs[reason]:>8}"
                )
        for journal in report.journals:
            for label, count in sorted(journal.stats.loops.items()):
                lines.append(f"    loop in {journal.label}, {label}: {count}")

    if stats.counters:
        lines.append("")
        lines.append("  Counters")
        for name, value in sorted(stats.counters.items()):
            lines.append(f"    {name:<40} {value:>8}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Chrome / Perfetto export
# ---------------------------------------------------------------------------


def _span_events(span: dict, base_us: float, pid: int, tid: int,
                 args: dict, events: list) -> None:
    events.append(
        {
            "name": span["name"],
            "cat": "run",
            "ph": "X",
            "ts": round(base_us + span["start"] * 1e6, 3),
            "dur": round(span["dur"] * 1e6, 3),
            "pid": pid,
            "tid": tid,
            "args": args,
        }
    )
    for child in span.get("children", ()):
        _span_events(child, base_us, pid, tid, args, events)


def export_perfetto(report: TraceReport | str, out_path: str) -> int:
    """Write the report's span trees as Chrome trace-event JSON.

    Accepts a built :class:`TraceReport` or a journal directory.  Runs
    are laid end-to-end per journal (one Perfetto thread per journal);
    returns the number of events written.
    """
    if isinstance(report, str):
        report = build_trace_report(report)
    events: list[dict] = []
    for tid, journal in enumerate(report.journals):
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 0,
                "tid": tid,
                "args": {"name": journal.label},
            }
        )
        cursor_us = 0.0
        for index, payload in journal.traces:
            seconds = payload.get("seconds", 0.0)
            args = {
                "run_index": index,
                "fault": payload.get("fault_id"),
                "case": payload.get("case_id"),
                "path": payload.get("path"),
                "reason": payload.get("reason"),
                "mode": payload.get("mode"),
            }
            events.append(
                {
                    "name": f"run {index} ({payload.get('path')})",
                    "cat": "run",
                    "ph": "X",
                    "ts": round(cursor_us, 3),
                    "dur": round(seconds * 1e6, 3),
                    "pid": 0,
                    "tid": tid,
                    "args": args,
                }
            )
            for span in payload.get("spans", ()):
                _span_events(span, cursor_us, 0, tid, args, events)
            cursor_us += seconds * 1e6
    atomic_write_json(out_path, {"traceEvents": events, "displayTimeUnit": "ms"})
    return len(events)


__all__ = [
    "JournalTraceSummary",
    "TraceReport",
    "build_trace_report",
    "export_perfetto",
    "find_journal_dirs",
    "render_trace_report",
]
