"""The outcome memoizer: identical runs replay their cached outcome.

Two runs whose complete pre-injection machine state, fault behaviour and
execution parameters coincide are the same deterministic computation —
the second one's outcome is already known.  :func:`repro.planning.digest.memo_key`
captures exactly that equivalence class; this module stores the outcome
side of the mapping.

The cache holds only the *outcome* fields of a run record — failure-mode
classification, status, exit code, trap kind, counters — never the fault
identity.  ``fault_id``, ``case_id`` and metadata are rebuilt from the
fault spec at replay time, so two distinct faults that share a behaviour
fingerprint (the common case: generated fault sets repeat the same
corruption at the same site across probe/error pairs) correctly share
one cached outcome while keeping their own identities.

Persistence is append-only JSONL, one file per writer process
(``memo-<pid>.jsonl``) so concurrent shard workers never interleave
writes.  Loading parses every ``*.jsonl`` in the directory as
:func:`repro.persist.read_jsonl` does, dropping a torn final line, so
kill + resume is safe: a campaign resumed over a warm memo directory
replays every previously executed outcome.  The class campaigns of one
run open the same directory one after another, so each file is parsed
once per process and content (:func:`_read_memo_dir`).
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path

from ..persist import JsonlAppender, parse_jsonl
from ..swifi.campaign import InputCase, RunRecord
from ..swifi.faults import MachineFault
from ..swifi.outcomes import FailureMode

#: The run-outcome fields a memo entry carries (identity fields excluded).
OUTCOME_FIELDS = (
    "mode", "status", "exit_code", "trap_kind",
    "activations", "injections", "instructions",
)


#: The parsed entries of every file of the memo directory this process
#: read last, keyed by the SHA-256 of the file's content.
_parsed: dict[bytes, list[dict]] = {}


def _read_memo_dir(directory: Path) -> list[list[dict]]:
    """The entries of every ``*.jsonl`` in *directory*, one list per content.

    Each file is read every time but parsed only if the directory this
    process read last held the same content.  Only the files just read
    stay cached, so a process that opens another directory (a ``repro
    work`` worker leasing another campaign's shard) drops the previous
    one's.
    """
    global _parsed
    kept: dict[bytes, list[dict]] = {}
    for path in sorted(directory.glob("*.jsonl")):
        try:
            text = path.read_text(encoding="utf-8")
        except FileNotFoundError:
            continue
        digest = hashlib.sha256(text.encode()).digest()
        entries = _parsed.get(digest)
        kept[digest] = parse_jsonl(text, str(path)) if entries is None else entries
    _parsed = kept
    return list(kept.values())


def outcome_from_record(record: RunRecord) -> dict:
    """The identity-free outcome payload of one executed record."""
    return {
        "mode": record.mode.value,
        "status": record.status,
        "exit_code": record.exit_code,
        "trap_kind": record.trap_kind,
        "activations": record.activations,
        "injections": record.injections,
        "instructions": record.instructions,
    }


def record_from_outcome(outcome: dict, spec: MachineFault,
                        case: InputCase) -> RunRecord:
    """Rebuild a full record: cached outcome + the current fault identity."""
    return RunRecord(
        fault_id=spec.fault_id,
        case_id=case.case_id,
        mode=FailureMode(outcome["mode"]),
        status=outcome["status"],
        exit_code=outcome["exit_code"],
        trap_kind=outcome["trap_kind"],
        activations=outcome["activations"],
        injections=outcome["injections"],
        instructions=outcome["instructions"],
        metadata=spec.metadata,
        provenance="memoized",
    )


class OutcomeCache:
    """In-memory memo with optional on-disk JSONL persistence."""

    def __init__(self, memo_dir: str | Path | None = None) -> None:
        self._outcomes: dict[str, dict] = {}
        self._dir = Path(memo_dir) if memo_dir is not None else None
        self._sink = None
        self.loaded = 0
        if self._dir is not None:
            self._dir.mkdir(parents=True, exist_ok=True)
            self.loaded = self._load()

    def _load(self) -> int:
        loaded = 0
        for entries in _read_memo_dir(self._dir):
            for entry in entries:
                key = entry["key"]
                if key not in self._outcomes:
                    loaded += 1
                self._outcomes[key] = entry["outcome"]
        return loaded

    def __len__(self) -> int:
        return len(self._outcomes)

    def get(self, key: str) -> dict | None:
        return self._outcomes.get(key)

    def put(self, key: str, outcome: dict) -> None:
        if key in self._outcomes:
            return
        self._outcomes[key] = outcome
        if self._dir is not None:
            if self._sink is None:
                # A previous process with this pid may have been killed
                # mid-append; the appender trims its torn tail first.
                self._sink = JsonlAppender(self._dir / f"memo-{os.getpid()}.jsonl")
            self._sink.append({"key": key, "outcome": outcome})

    def close(self) -> None:
        if self._sink is not None:
            self._sink.close()
            self._sink = None


__all__ = [
    "OUTCOME_FIELDS",
    "OutcomeCache",
    "outcome_from_record",
    "record_from_outcome",
]
