"""The resumable campaign journal: an append-only JSONL run log.

Layout of a journal directory::

    <journal_dir>/
        manifest.json   # campaign fingerprint, written atomically
        runs.jsonl      # one line per completed run (or shard failure)

The manifest pins the journal to one exact campaign — program, seed,
fault ids, case ids, run count — so ``--resume`` can refuse to splice
records from a different campaign into this one.  It is written through
:func:`repro.persist.atomic_write_json`, the same helper
:meth:`CampaignResult.to_json` uses, so a crash never leaves a truncated
manifest.

``runs.jsonl`` is an append-only :class:`repro.persist.JsonlAppender`
log: each completed run is one self-contained JSON line, flushed as soon
as the supervisor sees it.  With tracing on (``CampaignConfig(trace=True)``
/ ``--trace``) every run entry is followed by a ``trace`` entry carrying
the run's span tree and fast-path accounting; ``repro trace report``
reads them back.  A kill mid-append can leave only a torn final line,
which :mod:`repro.persist` drops on read and trims before the next append
(that run simply re-executes on resume); every other malformed line is a
:class:`JournalError`.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field

from ..persist import JsonlAppender, JsonlError, atomic_write_json, read_jsonl
from ..swifi.campaign import RunRecord

MANIFEST_NAME = "manifest.json"
RUNS_NAME = "runs.jsonl"
JOURNAL_VERSION = 1


class JournalError(RuntimeError):
    """Raised for fingerprint mismatches and malformed journal files."""


def campaign_fingerprint(
    *,
    program: str,
    seed: int,
    fault_ids: list[str],
    case_ids: list[str],
) -> dict:
    """The identity of one campaign, as stored in the manifest."""
    fault_digest = hashlib.sha256("\n".join(fault_ids).encode("utf-8")).hexdigest()
    return {
        "version": JOURNAL_VERSION,
        "program": program,
        "seed": seed,
        "total_runs": len(fault_ids) * len(case_ids),
        "fault_count": len(fault_ids),
        "fault_digest": fault_digest,
        "case_ids": list(case_ids),
    }


@dataclass
class JournalState:
    """What a (re)opened journal already knows about the campaign."""

    records: dict[int, RunRecord] = field(default_factory=dict)
    past_failures: list[dict] = field(default_factory=list)
    #: Per-run trace payloads (see repro.observability.trace), present
    #: only for runs journaled with tracing enabled.
    traces: dict[int, dict] = field(default_factory=dict)
    #: The campaign's plan-partition summary (see repro.planning.plan),
    #: appended once at completion; last one wins across resumes.
    plan: dict | None = None

    @property
    def completed_runs(self) -> int:
        return len(self.records)


def load_runs_file(path: str) -> JournalState:
    """Parse one ``runs.jsonl`` into a :class:`JournalState`.

    Read through :func:`repro.persist.read_jsonl`, so a torn final line is
    dropped; any other malformed or unknown entry is a
    :class:`JournalError`.  Used both by :meth:`CampaignJournal.open` and
    by the fingerprint-free readers in :mod:`repro.observability.report`.
    """
    state = JournalState()
    try:
        entries = read_jsonl(path)
    except JsonlError as error:
        raise JournalError(f"corrupt journal line: {error}") from None
    for entry in entries:
        kind = entry.get("type")
        if kind == "run":
            state.records[int(entry["index"])] = RunRecord.from_dict(entry["record"])
        elif kind == "trace":
            state.traces[int(entry["index"])] = entry["trace"]
        elif kind == "shard-failed":
            state.past_failures.append(entry)
        elif kind == "plan":
            state.plan = entry.get("plan")
        else:
            raise JournalError(
                f"unknown journal entry type {kind!r} in {path!r}"
            )
    return state


class CampaignJournal:
    """Append-only journal of completed runs for one campaign."""

    def __init__(self, directory: str, fingerprint: dict) -> None:
        self.directory = directory
        self.fingerprint = fingerprint
        self._log: JsonlAppender | None = None

    # -- opening -------------------------------------------------------

    @property
    def manifest_path(self) -> str:
        return os.path.join(self.directory, MANIFEST_NAME)

    @property
    def runs_path(self) -> str:
        return os.path.join(self.directory, RUNS_NAME)

    def open(self, *, resume: bool) -> JournalState:
        """Create or re-open the journal; return already-journaled state.

        A fresh directory is always fine.  An existing journal is only
        re-opened when *resume* is set (anything else silently mixing two
        campaigns' records would be worse than an error) and only when
        its manifest matches this campaign's fingerprint.
        """
        os.makedirs(self.directory, exist_ok=True)
        state = JournalState()
        if os.path.exists(self.manifest_path):
            if not resume:
                raise JournalError(
                    f"journal {self.directory!r} already exists; pass resume=True "
                    "to continue it or point --journal-dir at a fresh directory"
                )
            with open(self.manifest_path, "r", encoding="utf-8") as handle:
                stored = json.load(handle)
            if stored != self.fingerprint:
                raise JournalError(
                    f"journal {self.directory!r} was written by a different "
                    "campaign (program/seed/fault set/case set differ); refusing "
                    "to resume from it"
                )
            state = load_runs_file(self.runs_path)
        else:
            atomic_write_json(self.manifest_path, self.fingerprint)
        self._log = JsonlAppender(self.runs_path)
        return state

    # -- appending -----------------------------------------------------

    def _append(self, entry: dict) -> None:
        if self._log is None:
            raise JournalError("journal is not open")
        self._log.append(entry)

    def append_record(self, run_index: int, record: RunRecord) -> None:
        self._append({"type": "run", "index": run_index, "record": record.to_dict()})

    def append_trace(self, run_index: int, trace: dict) -> None:
        """Journal one run's trace payload next to its run entry."""
        self._append({"type": "trace", "index": run_index, "trace": trace})

    def append_plan(self, plan: dict) -> None:
        """Journal the campaign's plan-partition summary (schema-additive)."""
        self._append({"type": "plan", "plan": plan})

    def append_shard_failure(
        self, shard_id: int, run_indices: list[int], error: str
    ) -> None:
        self._append(
            {
                "type": "shard-failed",
                "shard": shard_id,
                "runs": list(run_indices),
                "error": error,
            }
        )

    def sync(self) -> None:
        """Flush and fsync the run log (called at shard boundaries)."""
        if self._log is not None:
            self._log.sync()

    def close(self) -> None:
        if self._log is not None:
            try:
                self.sync()
            finally:
                self._log.close()
                self._log = None
