"""Merging worker journal segments into one canonical campaign journal.

Workers stream journal *segments* — files of the exact JSONL entries a
local ``runs.jsonl`` holds — and lease-based work stealing delivers them
**at least once**: a stalled worker's shard is re-leased, both workers
may finish the same run, and a report can land after the broker already
rewound the shard.  The merge makes that safe:

* every segment is read with :func:`repro.persist.read_jsonl`, which
  drops the unterminated final line a SIGKILLed writer leaves, same as
  for the local journal;
* records are deduplicated by their serial run index — the campaign
  fingerprint pins what the index *means*, so two records for one index
  are the same (fault, case) pair executed twice;
* duplicates must agree byte for byte.  Runs are deterministic, so a
  disagreement can only mean corruption or a mis-routed segment, and the
  merge refuses (:class:`MergeConflict`) rather than guessing;
* the canonical journal is written in serial-index order through
  :func:`repro.persist.encode_entry`, which makes it
  bit-identical to the journal a single-process ``--jobs 1`` campaign
  writes — the invariant the chaos suite asserts.
"""

from __future__ import annotations

import os
from typing import Iterable, Sequence

from ..orchestrator.journal import MANIFEST_NAME, RUNS_NAME
from ..persist import (
    JsonlError,
    atomic_write_json,
    atomic_write_text,
    encode_entry,
    read_jsonl,
)
from ..swifi.campaign import RunRecord


class MergeConflict(RuntimeError):
    """Two segments disagree about one run's record — refuse to merge."""


def merge_entries(
    segment_entries: Iterable[Sequence[dict]],
    *,
    total_runs: int | None = None,
) -> tuple[dict[int, dict], dict[int, dict]]:
    """Merge segments' entries into ``(records, traces)`` keyed by index.

    Records are deduplicated first-wins; a duplicate that *differs* from
    the kept record raises :class:`MergeConflict` (deterministic runs
    cannot legitimately disagree).  Trace payloads carry wall-clock
    timings, so duplicates there are expected to differ — first one
    wins, no comparison.  Unknown entry types are rejected.
    """
    records: dict[int, dict] = {}
    traces: dict[int, dict] = {}
    for entries in segment_entries:
        for entry in entries:
            kind = entry.get("type")
            if kind == "run":
                index = int(entry["index"])
                if total_runs is not None and not 0 <= index < total_runs:
                    raise MergeConflict(
                        f"run index {index} outside campaign of {total_runs} runs"
                    )
                record = entry["record"]
                kept = records.get(index)
                if kept is None:
                    records[index] = record
                elif kept != record:
                    raise MergeConflict(
                        f"segments disagree about run {index}: "
                        f"{kept!r} != {record!r}"
                    )
            elif kind == "trace":
                traces.setdefault(int(entry["index"]), entry["trace"])
            else:
                raise MergeConflict(f"unknown segment entry type {kind!r}")
    return records, traces


def merge_segment_files(
    paths: Iterable[str],
    *,
    total_runs: int | None = None,
) -> tuple[dict[int, dict], dict[int, dict]]:
    """Read and merge segment files (missing files are skipped)."""
    all_entries: list[list[dict]] = []
    for path in sorted(paths):
        try:
            all_entries.append(read_jsonl(path))
        except JsonlError as error:
            raise MergeConflict(f"corrupt segment line: {error}") from None
    return merge_entries(all_entries, total_runs=total_runs)


def render_canonical_runs(
    records: dict[int, dict],
    traces: dict[int, dict] | None = None,
    failures: list[dict] | None = None,
) -> str:
    """Render the merged state as canonical ``runs.jsonl`` text.

    Entry order matches what a fresh single-process campaign writes: one
    ``run`` entry per serial index, ascending (each followed by its
    ``trace`` entry when present), then any ``shard-failed`` entries,
    then the ``plan`` partition summary over the surviving records.
    """
    from ..planning.plan import plan_from_records

    traces = traces or {}
    lines: list[str] = []
    for index in sorted(records):
        lines.append(encode_entry({"type": "run", "index": index,
                                   "record": records[index]}))
        if index in traces:
            lines.append(encode_entry({"type": "trace", "index": index,
                                       "trace": traces[index]}))
    for failure in failures or []:
        lines.append(encode_entry(failure))
    plan = plan_from_records(
        RunRecord.from_dict(records[index]) for index in sorted(records)
    )
    lines.append(encode_entry({"type": "plan", "plan": plan.to_dict()}))
    return "".join(lines)


def write_canonical_journal(
    directory: str,
    fingerprint: dict,
    records: dict[int, dict],
    traces: dict[int, dict] | None = None,
    failures: list[dict] | None = None,
) -> None:
    """Atomically write the merged journal (manifest + runs) to *directory*.

    Both files go through the atomic-replace helpers, so a broker killed
    mid-merge leaves either the previous journal or the new one — never
    a torn ``runs.jsonl`` that a later resume would mis-read.
    """
    os.makedirs(directory, exist_ok=True)
    atomic_write_json(os.path.join(directory, MANIFEST_NAME), fingerprint)
    atomic_write_text(
        os.path.join(directory, RUNS_NAME),
        render_canonical_runs(records, traces, failures),
    )
