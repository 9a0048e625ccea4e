"""Distributed campaign service: broker, work-stealing workers, merge.

This package turns the single-host campaign orchestrator into a small
service with three roles, wired together over stdlib HTTP/JSON:

* ``repro serve`` — the **broker** (:mod:`broker`, :mod:`state`): accepts
  campaign submissions keyed by journal fingerprint, shards the
  fault×case matrix into a durable work queue, hands out lease-based
  shard assignments and merges the returned journal segments into a
  canonical journal that is bit-identical to a local ``--jobs 1`` run.
* ``repro work`` — a **worker** (:mod:`worker`): leases shards, executes
  them with the exact run loop the multiprocessing pool uses, and
  streams per-run journal entries back as segment appends.
* ``repro submit`` — the **client** (:mod:`submit`, :mod:`client`):
  builds the §6 campaigns through the same generator ``run_section6``
  uses, submits them, follows streaming telemetry and downloads the
  merged journals.

Faults in any role are survivable: workers may be SIGKILLed (leases
expire and shards are stolen), the broker may be restarted (segments on
disk are the truth; leases are soft state), and reports may be
duplicated (merge deduplicates by run index and verifies duplicates are
byte-identical).  ``tests/test_service*.py`` prove those claims with a
chaos harness and seeded property tests.
"""

from .client import BrokerClient, BrokerRequestError, BrokerUnavailable
from .merge import (
    MergeConflict,
    merge_entries,
    merge_segment_files,
    render_canonical_runs,
    write_canonical_journal,
)
from .protocol import (
    WIRE_VERSION,
    CampaignBundle,
    CampaignOptions,
    ProtocolError,
    campaign_id_for,
    decode_blob,
    encode_blob,
)
from .state import (
    CAMPAIGN_COMPLETE,
    CAMPAIGN_FAILED,
    CAMPAIGN_RUNNING,
    DEFAULT_MAX_ATTEMPTS,
    BrokerState,
    ServiceError,
)
from .broker import BrokerHTTPServer, run_broker
from .worker import LeaseLost, ServiceWorker, worker_main
from .submit import (
    Submission,
    build_submissions,
    download_journal,
    run_submit,
    submit_campaign,
    wait_for_campaign,
)

__all__ = [
    "BrokerClient",
    "BrokerRequestError",
    "BrokerUnavailable",
    "MergeConflict",
    "merge_entries",
    "merge_segment_files",
    "render_canonical_runs",
    "write_canonical_journal",
    "WIRE_VERSION",
    "CampaignBundle",
    "CampaignOptions",
    "ProtocolError",
    "campaign_id_for",
    "decode_blob",
    "encode_blob",
    "CAMPAIGN_COMPLETE",
    "CAMPAIGN_FAILED",
    "CAMPAIGN_RUNNING",
    "DEFAULT_MAX_ATTEMPTS",
    "BrokerState",
    "ServiceError",
    "BrokerHTTPServer",
    "run_broker",
    "LeaseLost",
    "ServiceWorker",
    "worker_main",
    "Submission",
    "build_submissions",
    "download_journal",
    "run_submit",
    "submit_campaign",
    "wait_for_campaign",
]
