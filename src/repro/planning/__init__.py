"""Fault-space planning: prune dormant faults, memoize repeated outcomes.

The campaign planner sits between the scheduler and the workers and
makes most runs never execute:

* :mod:`repro.planning.digest` — state digests and fingerprints (shared
  with :mod:`repro.verify`) plus the outcome-memo key;
* :mod:`repro.planning.replay` — the golden access trace: one fault-free
  run on the reference interpreter, observed through its fetch-watch
  hook, recording per-address read/write/execute access;
* :mod:`repro.planning.prover` — static dormancy / dead-location proofs
  that synthesize run records without booting a machine;
* :mod:`repro.planning.memo` — the outcome memo (in-memory plus optional
  on-disk JSONL that survives kill + resume);
* :mod:`repro.planning.planner` — :class:`PlannerCache`, the per-process
  fast path consulted by ``execute_injection_run`` before snapshots;
* :mod:`repro.planning.plan` — :class:`CampaignPlan` partitions and the
  ``repro plan report`` renderer.

Enable it per campaign with ``CampaignConfig(prune=True, memoize=True)``
(CLI: ``--prune`` / ``--memoize``); honesty-check it with
``plan_verify`` > 0, which re-executes a sampled fraction of planned
records and raises :class:`PlanningDivergence` on any mismatch.
"""

from .digest import (
    StateDigest,
    behavior_fingerprint,
    machine_digest,
    memo_key,
    state_fingerprint,
)
from .memo import OutcomeCache, outcome_from_record, record_from_outcome
from .plan import (
    CampaignPlan,
    PlanReport,
    PROVENANCE_EXECUTED,
    PROVENANCE_MEMOIZED,
    PROVENANCE_PRUNED,
    PROVENANCES,
    build_plan_report,
    plan_from_records,
    render_plan_report,
)
from .planner import PlannerCache, PlanningDivergence
from .prover import (
    PRUNE_RULES,
    PruneDecision,
    classify_fault,
    synthesize_record,
    trace_requirements,
)
from .replay import GoldenAccessTrace, trace_cap

__all__ = [
    "CampaignPlan",
    "GoldenAccessTrace",
    "OutcomeCache",
    "PRUNE_RULES",
    "PROVENANCES",
    "PROVENANCE_EXECUTED",
    "PROVENANCE_MEMOIZED",
    "PROVENANCE_PRUNED",
    "PlanReport",
    "PlannerCache",
    "PlanningDivergence",
    "PruneDecision",
    "StateDigest",
    "behavior_fingerprint",
    "build_plan_report",
    "classify_fault",
    "machine_digest",
    "memo_key",
    "outcome_from_record",
    "plan_from_records",
    "record_from_outcome",
    "render_plan_report",
    "state_fingerprint",
    "synthesize_record",
    "trace_cap",
    "trace_requirements",
]
