"""Wire protocol of the distributed campaign service.

Everything on the wire is JSON over HTTP — small dicts a human can read
with ``curl`` — except the campaign matrix itself.  Faults, input cases
and the compiled executable are exactly the objects the
``multiprocessing`` orchestrator already pickles into every
:class:`repro.orchestrator.ShardTask`; the service ships the same
pickles, base64-armoured inside the JSON envelope, instead of inventing
a parallel JSON schema for a dozen spec classes.  The trust model is
unchanged too: broker and workers are one user's processes on one
trusted network (localhost or a private cluster), the same boundary the
pool's pickle queue always had — do not expose a broker to untrusted
peers.

The JSON side of the protocol:

* a **submission** is ``{fingerprint, options, bundle}`` — the journal
  manifest fingerprint (:func:`repro.orchestrator.campaign_fingerprint`,
  the service's source of truth for campaign identity), the JSON-safe
  execution options, and the base64-pickled :class:`CampaignBundle`;
* a **lease** hands a worker ``{campaign_id, shard_id, attempt,
  lease_seconds, task}`` with the task a base64-pickled
  :class:`repro.orchestrator.ShardTask`;
* a **report** streams journal entries — the same ``{"type": "run",
  "index": ..., "record": ...}`` dicts ``runs.jsonl`` holds — so worker
  segments are literally journal fragments the broker can merge.
"""

from __future__ import annotations

import base64
import hashlib
import json
import pickle
from dataclasses import dataclass, field

from ..machine.loader import Executable
from ..swifi.campaign import CampaignConfig, InputCase
from ..swifi.faults import MachineFault

#: Bumped on any incompatible wire change; broker and workers refuse to
#: talk across versions (a stale worker silently mis-executing shards
#: would be far worse than an error).
WIRE_VERSION = 1

API_PREFIX = "/api/v1"

#: Lease/report response statuses.
STATUS_OK = "ok"
STATUS_LEASE = "lease"
STATUS_IDLE = "idle"
STATUS_LOST = "lost"
STATUS_SHUTDOWN = "shutdown"


class ProtocolError(ValueError):
    """Raised for malformed or version-incompatible wire payloads."""


def encode_blob(obj: object) -> str:
    """Pickle *obj* and base64-armour it for a JSON field."""
    return base64.b64encode(pickle.dumps(obj)).decode("ascii")


def decode_blob(text: str) -> object:
    """Inverse of :func:`encode_blob`."""
    try:
        return pickle.loads(base64.b64decode(text.encode("ascii")))
    except Exception as error:  # noqa: BLE001 - any decode failure is protocol-level
        raise ProtocolError(f"undecodable blob: {error}") from error


def campaign_id_for(fingerprint: dict) -> str:
    """Stable campaign id: a digest of the journal manifest fingerprint.

    Deriving the id from the fingerprint makes submission idempotent —
    re-submitting the same campaign (a retry after a broker restart, a
    resumed client) lands on the same queue entry instead of forking a
    duplicate campaign.
    """
    canonical = json.dumps(fingerprint, sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class CampaignBundle:
    """The complete campaign matrix, shipped whole to the broker.

    This is everything :class:`repro.orchestrator.CampaignOrchestrator`
    takes from a calibrated runner — the broker slices it into
    :class:`ShardTask` values with the shared
    :func:`repro.orchestrator.build_shard_task`, so a shard leased over
    HTTP is indistinguishable from one sent down a multiprocessing pipe.
    """

    program: str
    executable: Executable
    faults: tuple[MachineFault, ...]
    cases: tuple[InputCase, ...]
    budgets: dict[str, int]
    num_cores: int = 1
    quantum: int = 64

    @property
    def total_runs(self) -> int:
        return len(self.faults) * len(self.cases)

    def to_blob(self) -> str:
        return encode_blob(self)

    @staticmethod
    def from_blob(text: str) -> "CampaignBundle":
        bundle = decode_blob(text)
        if not isinstance(bundle, CampaignBundle):
            raise ProtocolError(
                f"expected a CampaignBundle blob, got {type(bundle).__name__}"
            )
        return bundle


@dataclass(frozen=True)
class CampaignOptions:
    """JSON-safe execution options riding beside the bundle.

    The subset of :class:`repro.orchestrator.OrchestratorOptions` that
    makes sense across host boundaries — per-host knobs (memo
    directories, drill hooks) stay host-local.
    """

    seed: int = 0
    shard_size: int | None = None
    engine: str = CampaignConfig.engine
    snapshot: str = "off"
    trace: bool = False
    label: str | None = None
    max_attempts: int | None = None
    workers_hint: int = 4
    extra: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "wire_version": WIRE_VERSION,
            "seed": self.seed,
            "shard_size": self.shard_size,
            "engine": self.engine,
            "snapshot": self.snapshot,
            "trace": self.trace,
            "label": self.label,
            "max_attempts": self.max_attempts,
            "workers_hint": self.workers_hint,
            "extra": dict(self.extra),
        }

    @staticmethod
    def from_dict(payload: dict) -> "CampaignOptions":
        version = payload.get("wire_version", WIRE_VERSION)
        if version != WIRE_VERSION:
            raise ProtocolError(
                f"wire version mismatch: got {version}, need {WIRE_VERSION}"
            )
        engine = str(payload.get("engine", CampaignConfig.engine))
        snapshot = str(payload.get("snapshot", "off"))
        # Reject what no worker could run here, not at a worker's lease.
        try:
            CampaignConfig(engine=engine, snapshot=snapshot)
        except ValueError as error:
            raise ProtocolError(str(error)) from None
        return CampaignOptions(
            seed=int(payload.get("seed", 0)),
            shard_size=payload.get("shard_size"),
            engine=engine,
            snapshot=snapshot,
            trace=bool(payload.get("trace", False)),
            label=payload.get("label"),
            max_attempts=payload.get("max_attempts"),
            workers_hint=int(payload.get("workers_hint", 4)),
            extra=dict(payload.get("extra", {})),
        )
