"""Crash-safe file persistence: atomic snapshots and one append-only log.

A campaign interrupted mid-write must never leave a truncated artefact
behind: results files are replayed by ``--resume`` and by the figure
benchmarks (``REPRO_REUSE_CAMPAIGN``), so a half-written JSON file would
poison later runs.  Whole-file artefacts — :meth:`CampaignResult.to_json`,
journal manifests, merged journals — therefore go through
:func:`atomic_write_text`: write the full payload to a temporary file *in
the same directory* (so ``os.replace`` stays on one filesystem and is
atomic), fsync, then replace the target in one step.

Every append-only JSON-lines file — the campaign's ``runs.jsonl``, the
service's journal segments, the srcfi and compare journals, the verify
fuzzer's journal and the planner's memo sinks — is written by
:class:`JsonlAppender` and read by :func:`read_jsonl`, so all of them
share one encoding and one tolerance policy:

* a line is ``json.dumps(entry) + "\\n"`` (:func:`encode_entry`) for one
  JSON object, flushed as soon as it is appended;
* a crash mid-append can leave exactly one unterminated final line.  The
  reader drops it; the appender truncates it before its first write, so
  a resumed writer never fuses a new line onto the fragment;
* any other malformed line can only come from outside damage, and the
  reader raises :class:`JsonlError` naming the file and line number.
"""

from __future__ import annotations

import json
import os
import tempfile


def atomic_write_text(path: str, text: str) -> None:
    """Write *text* to *path* so readers see either the old or the new file."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    descriptor, temp_path = tempfile.mkstemp(
        prefix=os.path.basename(path) + ".", suffix=".tmp", dir=directory
    )
    try:
        with os.fdopen(descriptor, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp_path, path)
    except BaseException:
        try:
            os.unlink(temp_path)
        except OSError:
            pass
        raise


def atomic_write_json(path: str, payload: object, *, indent: int | None = None) -> None:
    """Serialise *payload* and atomically write it to *path*."""
    atomic_write_text(path, json.dumps(payload, indent=indent))


# -- the append-only JSONL log -----------------------------------------------


class JsonlError(ValueError):
    """A malformed JSONL line that is not a crash-torn final line."""


def encode_entry(entry: dict) -> str:
    """Serialise one log entry to its canonical JSONL line.

    The byte encoding of a line is part of every journal's contract: the
    distributed chaos suite asserts merged journals bit-identical to
    serial ones, and the service merge renders canonical journals with
    this same function.
    """
    return json.dumps(entry) + "\n"


def read_jsonl(path: str | os.PathLike) -> list[dict]:
    """Every entry of the JSONL file at *path* ([] when it does not exist).

    Drops the unterminated final line, if any, and skips blank lines.
    Every other line must be one JSON object, or :class:`JsonlError`
    names ``path:line``.
    """
    path = os.fspath(path)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except FileNotFoundError:
        return []
    return parse_jsonl(text, path)


def parse_jsonl(text: str, path: str) -> list[dict]:
    """The entries of *text*, read from *path*, as :func:`read_jsonl` takes them."""
    lines = text.split("\n")
    lines.pop()  # "" after a final newline, else the crash-torn fragment
    entries: list[dict] = []
    for number, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            entry = json.loads(line)
        except json.JSONDecodeError:
            entry = None
        if not isinstance(entry, dict):
            raise JsonlError(f"{path}:{number}: malformed JSONL line")
        entries.append(entry)
    return entries


def trim_partial_tail(path: str | os.PathLike) -> None:
    """Truncate an unterminated final line left by a crash mid-append.

    No-op for missing files, empty files and files whose last byte is a
    newline (checked without reading the file).  Otherwise truncates
    back to just after the last newline (to zero bytes when the whole
    file is one partial line), so the next append starts a fresh line.
    """
    try:
        handle = open(path, "r+b")
    except FileNotFoundError:
        return
    with handle:
        if handle.seek(0, os.SEEK_END) == 0:
            return
        handle.seek(-1, os.SEEK_END)
        if handle.read(1) == b"\n":
            return
        handle.seek(0)
        handle.truncate(handle.read().rfind(b"\n") + 1)


class JsonlAppender:
    """Appends entries to one JSONL file, one flushed line per entry.

    Opening trims a crash-torn tail first (:func:`trim_partial_tail`);
    :meth:`sync` adds an fsync for callers that need a durability point.
    Usable as a context manager.
    """

    def __init__(self, path: str | os.PathLike) -> None:
        trim_partial_tail(path)
        self._handle = open(path, "a", encoding="utf-8")

    def append(self, entry: dict) -> None:
        self._handle.write(encode_entry(entry))
        self._handle.flush()

    def sync(self) -> None:
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def close(self) -> None:
        self._handle.close()

    def __enter__(self) -> "JsonlAppender":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
