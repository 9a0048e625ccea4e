"""The broker's state machine: durable queue, leases, segment intake.

Design rule: **disk is the truth, leases are soft state.**  Everything a
restarted broker needs lives in the campaign directory —

* ``manifest.json`` — the campaign fingerprint (atomic write);
* ``options.json`` — the JSON-safe execution options (atomic write);
* ``bundle.blob`` — the pickled campaign matrix (atomic write);
* ``segments/*.jsonl`` — append-only journal fragments streamed by
  workers, one file per (worker, shard, attempt) lease;
* ``journal/`` — the merged canonical journal, written once complete.

Leases are held only in memory.  A broker that is SIGKILLed and
restarted recovers by re-reading segments (through
:func:`repro.persist.read_jsonl`, which drops a torn final line),
recomputing the set of done run indices, and re-sharding whatever is
missing; every in-flight lease is implicitly void, which at-least-once
segment intake makes harmless.

Shard lifecycle::

    pending --lease--> leased --report(complete)--> done
       ^                  |
       |                  +-- heartbeat/report renews the lease
       +---- lease expires (worker died/stalled): remaining runs
             re-queued, attempt += 1, until max_attempts

A report whose lease is no longer current (expired, stolen, or from
before a broker restart) still has its *entries* accepted — the records
are deterministic and the merge deduplicates — but the worker is told
``lost`` so it abandons the shard and leases fresh work.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field

from ..orchestrator.journal import MANIFEST_NAME, RUNS_NAME
from ..orchestrator.scheduler import plan_shards
from ..orchestrator.worker import build_shard_task
from ..persist import JsonlAppender, atomic_write_json, atomic_write_text
from .merge import merge_segment_files, write_canonical_journal
from .protocol import (
    STATUS_LEASE,
    STATUS_LOST,
    STATUS_OK,
    CampaignBundle,
    CampaignOptions,
    ProtocolError,
    campaign_id_for,
    encode_blob,
)

OPTIONS_NAME = "options.json"
BUNDLE_NAME = "bundle.blob"
SEGMENTS_DIR = "segments"
JOURNAL_DIR = "journal"

#: Attempts per shard before its remaining runs are abandoned as failed.
#: Far above the pool's max_retries=2: the service's failure mode is
#: whole hosts dying under it, and a re-queued shard costs only the
#: runs that were never reported.
DEFAULT_MAX_ATTEMPTS = 16

CAMPAIGN_RUNNING = "running"
CAMPAIGN_COMPLETE = "complete"
CAMPAIGN_FAILED = "failed"


class ServiceError(RuntimeError):
    """Raised for requests that reference unknown campaigns or shards."""


@dataclass
class _Lease:
    worker_id: str
    attempt: int
    expires_at: float


@dataclass
class _ShardRec:
    shard_id: int
    indices: tuple[int, ...]
    seed: int
    attempt: int = 0
    lease: _Lease | None = None


@dataclass
class _CampaignState:
    campaign_id: str
    directory: str
    fingerprint: dict
    options: CampaignOptions
    bundle: CampaignBundle
    state: str = CAMPAIGN_RUNNING
    done: set[int] = field(default_factory=set)
    traced: set[int] = field(default_factory=set)
    failed: dict[int, str] = field(default_factory=dict)
    shards: dict[int, _ShardRec] = field(default_factory=dict)
    queue: deque = field(default_factory=deque)
    leases_granted: int = 0
    lease_expiries: int = 0
    stale_reports: int = 0
    reports: int = 0

    @property
    def total_runs(self) -> int:
        return self.bundle.total_runs

    @property
    def label(self) -> str:
        return self.options.label or self.bundle.program

    def segment_path(self, worker_id: str, shard_id: int, attempt: int) -> str:
        safe_worker = "".join(
            ch if ch.isalnum() or ch in "-_." else "_" for ch in worker_id
        )
        return os.path.join(
            self.directory, SEGMENTS_DIR,
            f"seg-{safe_worker}-s{shard_id:04d}-a{attempt:02d}.jsonl",
        )

    def segment_paths(self) -> list[str]:
        segments = os.path.join(self.directory, SEGMENTS_DIR)
        if not os.path.isdir(segments):
            return []
        return [
            os.path.join(segments, name)
            for name in sorted(os.listdir(segments))
            if name.endswith(".jsonl")
        ]


class BrokerState:
    """Thread-safe campaign queue + lease bookkeeping + segment intake.

    Pure state machine: no sockets, no HTTP — the broker's HTTP handler
    (:mod:`repro.service.broker`) translates requests into these calls,
    and the test suite drives them directly (with an injected clock) to
    pin down lease-expiry and work-stealing semantics.
    """

    def __init__(
        self,
        state_dir: str,
        *,
        lease_timeout: float = 30.0,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        clock=time.monotonic,
    ) -> None:
        if lease_timeout <= 0:
            raise ValueError(f"lease_timeout must be > 0, got {lease_timeout}")
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        self.state_dir = state_dir
        self.lease_timeout = lease_timeout
        self.max_attempts = max_attempts
        self.clock = clock
        self.campaigns: dict[str, _CampaignState] = {}
        self.workers_seen: dict[str, float] = {}
        self._lock = threading.RLock()
        self._changed = threading.Condition(self._lock)
        self._version = 0
        os.makedirs(self._campaigns_dir, exist_ok=True)
        self._recover()

    # -- layout --------------------------------------------------------

    @property
    def _campaigns_dir(self) -> str:
        return os.path.join(self.state_dir, "campaigns")

    # -- recovery ------------------------------------------------------

    def _recover(self) -> None:
        """Rebuild queue state from disk after a (re)start."""
        for campaign_id in sorted(os.listdir(self._campaigns_dir)):
            directory = os.path.join(self._campaigns_dir, campaign_id)
            manifest = os.path.join(directory, MANIFEST_NAME)
            options_path = os.path.join(directory, OPTIONS_NAME)
            bundle_path = os.path.join(directory, BUNDLE_NAME)
            if not (os.path.exists(manifest) and os.path.exists(options_path)
                    and os.path.exists(bundle_path)):
                continue  # torn submission: atomic writes never got that far
            import json

            with open(manifest, "r", encoding="utf-8") as handle:
                fingerprint = json.load(handle)
            with open(options_path, "r", encoding="utf-8") as handle:
                try:
                    options = CampaignOptions.from_dict(json.load(handle))
                except ProtocolError as error:
                    raise ProtocolError(
                        f"campaign {directory} cannot be recovered: {error}"
                    ) from None
            with open(bundle_path, "r", encoding="utf-8") as handle:
                bundle = CampaignBundle.from_blob(handle.read())
            campaign = _CampaignState(
                campaign_id=campaign_id,
                directory=directory,
                fingerprint=fingerprint,
                options=options,
                bundle=bundle,
            )
            records, traces = merge_segment_files(
                campaign.segment_paths(), total_runs=campaign.total_runs
            )
            campaign.done = set(records)
            campaign.traced = set(traces)
            self.campaigns[campaign_id] = campaign
            self._plan_missing(campaign)
            self._maybe_finish(campaign)

    # -- submission ----------------------------------------------------

    def submit(self, fingerprint: dict, options: dict, bundle_blob: str) -> dict:
        """Accept (or idempotently re-accept) one campaign submission."""
        parsed_options = CampaignOptions.from_dict(options)
        bundle = CampaignBundle.from_blob(bundle_blob)
        expected = fingerprint.get("total_runs")
        if expected is not None and expected != bundle.total_runs:
            raise ProtocolError(
                f"fingerprint says {expected} runs but the bundle holds "
                f"{bundle.total_runs}"
            )
        campaign_id = campaign_id_for(fingerprint)
        with self._lock:
            existing = self.campaigns.get(campaign_id)
            if existing is not None:
                return self._submission_reply(existing, resumed=True)
            directory = os.path.join(self._campaigns_dir, campaign_id)
            os.makedirs(os.path.join(directory, SEGMENTS_DIR), exist_ok=True)
            # Bundle first, manifest last: recovery treats the manifest's
            # presence as "submission durable", so a crash between the
            # writes leaves a torn directory that is simply re-submitted.
            atomic_write_text(os.path.join(directory, BUNDLE_NAME), bundle_blob)
            atomic_write_json(os.path.join(directory, OPTIONS_NAME),
                              parsed_options.to_dict())
            atomic_write_json(os.path.join(directory, MANIFEST_NAME), fingerprint)
            campaign = _CampaignState(
                campaign_id=campaign_id,
                directory=directory,
                fingerprint=fingerprint,
                options=parsed_options,
                bundle=bundle,
            )
            self.campaigns[campaign_id] = campaign
            self._plan_missing(campaign)
            self._maybe_finish(campaign)  # zero-run campaigns complete at once
            self._bump()
            return self._submission_reply(campaign, resumed=False)

    @staticmethod
    def _submission_reply(campaign: _CampaignState, *, resumed: bool) -> dict:
        return {
            "status": STATUS_OK,
            "campaign_id": campaign.campaign_id,
            "resumed": resumed,
            "total_runs": campaign.total_runs,
            "completed_runs": len(campaign.done),
            "state": campaign.state,
        }

    def _plan_missing(self, campaign: _CampaignState) -> None:
        """(Re-)shard every run index not yet covered by segments."""
        missing = [
            index for index in range(campaign.total_runs)
            if index not in campaign.done and index not in campaign.failed
        ]
        campaign.shards.clear()
        campaign.queue.clear()
        for shard in plan_shards(
            missing,
            jobs=campaign.options.workers_hint,
            campaign_seed=campaign.options.seed,
            shard_size=campaign.options.shard_size,
        ):
            rec = _ShardRec(
                shard_id=shard.shard_id,
                indices=shard.run_indices,
                seed=shard.seed,
            )
            campaign.shards[rec.shard_id] = rec
            campaign.queue.append(rec.shard_id)

    # -- lease / steal -------------------------------------------------

    def _campaign_max_attempts(self, campaign: _CampaignState) -> int:
        return campaign.options.max_attempts or self.max_attempts

    def _expire_leases(self, now: float) -> None:
        for campaign in self.campaigns.values():
            for rec in list(campaign.shards.values()):
                if rec.lease is None or rec.lease.expires_at > now:
                    continue
                campaign.lease_expiries += 1
                rec.lease = None
                self._requeue(campaign, rec)
            self._maybe_finish(campaign)

    def _requeue(self, campaign: _CampaignState, rec: _ShardRec) -> None:
        """Return a shard to the queue with only its unreported runs."""
        remaining = tuple(
            index for index in rec.indices if index not in campaign.done
        )
        if not remaining:
            campaign.shards.pop(rec.shard_id, None)
            return
        if rec.attempt >= self._campaign_max_attempts(campaign):
            reason = (
                f"shard {rec.shard_id} abandoned after "
                f"{rec.attempt} expired leases"
            )
            for index in remaining:
                campaign.failed[index] = reason
            campaign.shards.pop(rec.shard_id, None)
            return
        rec.indices = remaining
        campaign.queue.append(rec.shard_id)

    def lease(self, worker_id: str) -> dict:
        """Hand the next pending shard to *worker_id*, or report idle."""
        now = self.clock()
        with self._lock:
            self.workers_seen[worker_id] = now
            self._expire_leases(now)
            for campaign in self.campaigns.values():
                while campaign.queue:
                    shard_id = campaign.queue.popleft()
                    rec = campaign.shards.get(shard_id)
                    if rec is None or rec.lease is not None:
                        continue  # stale queue entry
                    rec.attempt += 1
                    rec.lease = _Lease(
                        worker_id=worker_id,
                        attempt=rec.attempt,
                        expires_at=now + self.lease_timeout,
                    )
                    campaign.leases_granted += 1
                    task = build_shard_task(
                        shard_id=rec.shard_id,
                        attempt=rec.attempt,
                        indices=rec.indices,
                        program=campaign.bundle.program,
                        executable=campaign.bundle.executable,
                        faults=campaign.bundle.faults,
                        cases=campaign.bundle.cases,
                        budgets=campaign.bundle.budgets,
                        num_cores=campaign.bundle.num_cores,
                        quantum=campaign.bundle.quantum,
                        seed=rec.seed,
                        snapshot=campaign.options.snapshot,
                        trace=campaign.options.trace,
                        engine=campaign.options.engine,
                    )
                    self._bump()
                    return {
                        "status": STATUS_LEASE,
                        "campaign_id": campaign.campaign_id,
                        "shard_id": rec.shard_id,
                        "attempt": rec.attempt,
                        "lease_seconds": self.lease_timeout,
                        "run_count": len(rec.indices),
                        "task": encode_blob(task),
                    }
            return {"status": "idle"}

    # -- segment intake ------------------------------------------------

    def report(
        self,
        worker_id: str,
        campaign_id: str,
        shard_id: int,
        attempt: int,
        entries: list[dict],
        *,
        complete: bool = False,
    ) -> dict:
        """Ingest a segment fragment; renew or deny the shard's lease.

        Entries are appended to the lease's segment file and counted into
        the done-set *regardless* of lease validity — deterministic runs
        make duplicated or late results safe, and dropping real results
        would only force a pointless re-execution.  Only the lease
        renewal and the ``complete`` transition require a current lease.
        """
        now = self.clock()
        with self._lock:
            self.workers_seen[worker_id] = now
            self._expire_leases(now)
            campaign = self.campaigns.get(campaign_id)
            if campaign is None:
                raise ServiceError(f"unknown campaign {campaign_id!r}")
            campaign.reports += 1
            if entries:
                self._append_segment(campaign, worker_id, shard_id,
                                     attempt, entries)
            rec = campaign.shards.get(shard_id)
            valid = (
                rec is not None
                and rec.lease is not None
                and rec.lease.worker_id == worker_id
                and rec.lease.attempt == attempt
            )
            if valid:
                rec.lease.expires_at = now + self.lease_timeout
                if complete:
                    remaining = [i for i in rec.indices if i not in campaign.done]
                    if remaining:
                        # "complete" without the results is a worker bug;
                        # treat it as a died worker and re-queue.
                        rec.lease = None
                        self._requeue(campaign, rec)
                    else:
                        campaign.shards.pop(shard_id, None)
            else:
                campaign.stale_reports += 1
            self._maybe_finish(campaign)
            self._bump()
            return {
                "status": STATUS_OK if valid else STATUS_LOST,
                "completed_runs": len(campaign.done),
                "total_runs": campaign.total_runs,
                "state": campaign.state,
            }

    def heartbeat(
        self, worker_id: str, campaign_id: str, shard_id: int, attempt: int
    ) -> dict:
        """An empty report: renews the lease or tells the worker it lost."""
        return self.report(worker_id, campaign_id, shard_id, attempt, [])

    def _append_segment(
        self,
        campaign: _CampaignState,
        worker_id: str,
        shard_id: int,
        attempt: int,
        entries: list[dict],
    ) -> None:
        path = campaign.segment_path(worker_id, shard_id, attempt)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        for entry in entries:
            kind = entry.get("type")
            if kind == "run":
                index = int(entry["index"])
                if not 0 <= index < campaign.total_runs:
                    raise ServiceError(
                        f"run index {index} outside campaign "
                        f"{campaign.campaign_id}"
                    )
                campaign.done.add(index)
                campaign.failed.pop(index, None)
            elif kind == "trace":
                campaign.traced.add(int(entry["index"]))
            else:
                raise ServiceError(f"unknown report entry type {kind!r}")
        with JsonlAppender(path) as segment:
            for entry in entries:
                segment.append(entry)
            segment.sync()

    # -- completion ----------------------------------------------------

    def _maybe_finish(self, campaign: _CampaignState) -> None:
        if campaign.state != CAMPAIGN_RUNNING:
            return
        covered = len(campaign.done) + len(
            set(campaign.failed) - campaign.done
        )
        if covered < campaign.total_runs:
            return
        records, traces = merge_segment_files(
            campaign.segment_paths(), total_runs=campaign.total_runs
        )
        failures = []
        failed_indices = sorted(set(campaign.failed) - set(records))
        if failed_indices:
            failures.append({
                "type": "shard-failed",
                "shard": -1,
                "runs": failed_indices,
                "error": campaign.failed[failed_indices[0]],
            })
        write_canonical_journal(
            os.path.join(campaign.directory, JOURNAL_DIR),
            campaign.fingerprint,
            records,
            traces,
            failures,
        )
        campaign.state = CAMPAIGN_FAILED if failed_indices else CAMPAIGN_COMPLETE
        self._bump()

    # -- status / streaming -------------------------------------------

    def _bump(self) -> None:
        self._version += 1
        self._changed.notify_all()

    def current_version(self) -> int:
        with self._lock:
            return self._version

    def snapshot(self, campaign_id: str | None = None) -> dict:
        """One JSON-safe view of broker (or single-campaign) progress."""
        now = self.clock()
        with self._lock:
            self._expire_leases(now)
            if campaign_id is not None:
                campaign = self.campaigns.get(campaign_id)
                if campaign is None:
                    raise ServiceError(f"unknown campaign {campaign_id!r}")
                return self._campaign_snapshot(campaign)
            return {
                "version": self._version,
                "lease_timeout": self.lease_timeout,
                "workers": {
                    worker: round(now - seen, 3)
                    for worker, seen in self.workers_seen.items()
                },
                "campaigns": [
                    self._campaign_snapshot(campaign)
                    for campaign in self.campaigns.values()
                ],
            }

    def _campaign_snapshot(self, campaign: _CampaignState) -> dict:
        leased = sum(
            1 for rec in campaign.shards.values() if rec.lease is not None
        )
        return {
            "campaign_id": campaign.campaign_id,
            "label": campaign.label,
            "state": campaign.state,
            "total_runs": campaign.total_runs,
            "completed_runs": len(campaign.done),
            "failed_runs": len(set(campaign.failed) - campaign.done),
            "shards_pending": len(campaign.queue),
            "shards_leased": leased,
            "leases_granted": campaign.leases_granted,
            "lease_expiries": campaign.lease_expiries,
            "stale_reports": campaign.stale_reports,
            "reports": campaign.reports,
        }

    def wait_for_change(self, version: int, timeout: float) -> int:
        """Block until the state version passes *version* (for streaming)."""
        deadline = time.monotonic() + timeout
        with self._changed:
            while self._version <= version:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._changed.wait(remaining)
            return self._version

    def journal_file(self, campaign_id: str, name: str) -> str:
        """Path of a merged-journal file; raises until the merge exists."""
        if name not in (MANIFEST_NAME, RUNS_NAME):
            raise ServiceError(f"no such journal file {name!r}")
        with self._lock:
            campaign = self.campaigns.get(campaign_id)
            if campaign is None:
                raise ServiceError(f"unknown campaign {campaign_id!r}")
            path = os.path.join(campaign.directory, JOURNAL_DIR, name)
            if campaign.state == CAMPAIGN_RUNNING or not os.path.exists(path):
                raise ServiceError(
                    f"campaign {campaign_id} has no merged journal yet "
                    f"({campaign.state}, "
                    f"{len(campaign.done)}/{campaign.total_runs} runs)"
                )
            return path
