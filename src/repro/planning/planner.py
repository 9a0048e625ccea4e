"""The campaign planner: prune + memoize before a machine ever boots.

:class:`PlannerCache` sits in front of the snapshot fast path inside
:func:`repro.swifi.campaign.execute_injection_run`.  For every run it
tries, in order:

1. **prune** — ask the dormancy prover whether the record can be
   synthesized from the case's golden access trace (one observed
   fault-free run per case, built lazily and shared by all of its
   faults);
2. **memoize** — look the run up in the outcome memo under its
   (case fingerprint, behaviour fingerprint, execution parameters) key;
   outcomes of previously *executed* runs — in this process or, with an
   on-disk memo directory, in any previous run of the campaign — replay
   without executing.

Anything the planner cannot serve falls through to the snapshot cache
and the fresh-boot path; the resulting record is fed back via
:meth:`PlannerCache.record_executed` so the memo warms as the campaign
proceeds.

Like :class:`repro.swifi.snapshot.SnapshotCache`, a planner cache is
per-process state and deliberately not picklable: the orchestrator
builds one inside each worker, and workers meet only through the on-disk
memo directory (append-only, multi-writer safe).

Honesty enforcement: ``verify_fraction`` > 0 deterministically samples
that fraction of pruned/memoized records and re-executes them with a
real fresh-boot run; any field mismatch raises
:class:`PlanningDivergence`.  The differential fuzzer additionally runs
whole campaigns with the planner on and off and compares every record.
"""

from __future__ import annotations

import hashlib
from collections import Counter

from ..machine.loader import Executable, boot
from ..machine.machine import ENGINE_SIMPLE
from ..observability import trace as _trace
from ..swifi.campaign import (
    PROVENANCE_EXECUTED,
    PROVENANCE_EXTRAPOLATED,
    InputCase,
    RunRecord,
)
from ..swifi.faults import MachineFault
from .digest import behavior_fingerprint, memo_key, state_fingerprint
from .memo import OutcomeCache, outcome_from_record, record_from_outcome
from .prover import classify_fault, synthesize_record, trace_requirements
from .replay import GoldenAccessTrace


class PlanningDivergence(AssertionError):
    """A pruned or memoized record disagreed with a real execution."""


class PlannerCache:
    """Per-process planning state for one campaign shard."""

    def __init__(
        self,
        executable: Executable,
        faults,
        *,
        num_cores: int = 1,
        quantum: int = 64,
        engine: str = ENGINE_SIMPLE,
        prune: bool = True,
        memoize: bool = True,
        memo_dir: str | None = None,
        verify_fraction: float = 0.0,
        seed: int = 0,
    ) -> None:
        if not prune and not memoize:
            raise ValueError("a planner cache needs prune and/or memoize on")
        if not 0.0 <= verify_fraction <= 1.0:
            raise ValueError(
                f"verify_fraction must be in [0, 1], got {verify_fraction!r}"
            )
        self.executable = executable
        self.num_cores = num_cores
        self.quantum = quantum
        self.engine = engine
        self.prune = prune
        self.memoize = memoize
        self.verify_fraction = verify_fraction
        self.seed = seed
        specs = [spec for spec in faults if spec is not None]
        self._watch_pcs, self._data_addrs, self._tracked_regs = (
            trace_requirements(specs)
        )
        self._traces: dict[str, GoldenAccessTrace] = {}
        self._case_fps: dict[str, str] = {}
        # id(spec) -> (spec, behaviour fingerprint); holding the spec
        # keeps its id from being reused while the entry lives.
        self._behaviors: dict[int, tuple[MachineFault, str]] = {}
        self.memo = OutcomeCache(memo_dir) if memoize else None
        self.stats = {"pruned": 0, "memoized": 0, "verified": 0}
        self.prune_rules: Counter = Counter()
        self.declines: Counter = Counter()
        #: (path, reason) of the most recent execute() call; read by the
        #: trace layer in execute_injection_run (single-threaded per
        #: process, so a plain attribute is race-free — same contract as
        #: SnapshotCache.last_path).
        self.last_path: tuple[str, str | None] = (_trace.PATH_FRESH, None)

    # -- lazy per-case state --------------------------------------------

    def trace_for(self, case: InputCase, budget: int) -> GoldenAccessTrace:
        trace = self._traces.get(case.case_id)
        if trace is None:
            trace = GoldenAccessTrace(
                self.executable, case,
                watch_pcs=self._watch_pcs,
                data_addrs=self._data_addrs,
                tracked_regs=self._tracked_regs,
                budget=budget,
            )
            self._traces[case.case_id] = trace
        return trace

    def _fingerprint_for(self, case: InputCase) -> str:
        fingerprint = self._case_fps.get(case.case_id)
        if fingerprint is None:
            # Boot state does not depend on the engine, so never build a
            # trace engine just to hash.
            machine = boot(
                self.executable, num_cores=self.num_cores,
                inputs=dict(case.pokes), engine=ENGINE_SIMPLE,
            )
            fingerprint = state_fingerprint(machine)
            self._case_fps[case.case_id] = fingerprint
        return fingerprint

    def _memo_key(self, spec: MachineFault, case: InputCase, budget: int) -> str:
        entry = self._behaviors.get(id(spec))
        if entry is None:
            entry = self._behaviors[id(spec)] = (spec, behavior_fingerprint(spec))
        return memo_key(
            self._fingerprint_for(case), case.expected, spec,
            budget=budget, quantum=self.quantum, num_cores=self.num_cores,
            behavior=entry[1],
        )

    # -- the planning fast path -----------------------------------------

    def execute(
        self, spec: MachineFault, case: InputCase, budget: int
    ) -> RunRecord | None:
        """Planned record for one run, or ``None`` to fall through."""
        if self.prune and self.num_cores == 1:
            with _trace.phase(_trace.PHASE_PLAN_PROVE):
                trace = self.trace_for(case, budget)
                decision = classify_fault(spec, trace)
            if decision.prune:
                record = synthesize_record(spec, case, trace, decision)
                self.stats["pruned"] += 1
                self.prune_rules[decision.rule] += 1
                self.last_path = (_trace.PATH_PRUNED, decision.rule)
                self._maybe_verify(spec, case, budget, record)
                return record
            self.declines[decision.reason] += 1
        if self.memo is not None:
            with _trace.phase(_trace.PHASE_MEMO_LOOKUP):
                key = self._memo_key(spec, case, budget)
                outcome = self.memo.get(key)
            if outcome is not None:
                record = record_from_outcome(outcome, spec, case)
                self.stats["memoized"] += 1
                self.last_path = (_trace.PATH_MEMO, None)
                self._maybe_verify(spec, case, budget, record)
                return record
        self.last_path = (_trace.PATH_FRESH, None)
        return None

    def record_executed(
        self, spec: MachineFault | None, case: InputCase, budget: int,
        record: RunRecord,
    ) -> None:
        """Feed an executed run's outcome into the memo."""
        if self.memo is None or spec is None:
            return
        if record.provenance not in (PROVENANCE_EXECUTED, PROVENANCE_EXTRAPOLATED):
            return
        self.memo.put(self._memo_key(spec, case, budget),
                      outcome_from_record(record))

    # -- the honesty check ----------------------------------------------

    def _maybe_verify(
        self, spec: MachineFault, case: InputCase, budget: int, record: RunRecord
    ) -> None:
        if self.verify_fraction <= 0.0:
            return
        if self.verify_fraction < 1.0:
            draw = hashlib.sha256(
                f"{spec.fault_id}|{case.case_id}|{self.seed}".encode()
            ).digest()
            if int.from_bytes(draw[:8], "big") / 2.0**64 >= self.verify_fraction:
                return
        from ..swifi.campaign import execute_injection_run

        fresh = execute_injection_run(
            self.executable, spec, case,
            budget=budget, num_cores=self.num_cores,
            quantum=self.quantum, engine=self.engine,
        )
        if fresh != record:  # provenance is compare=False by design
            raise PlanningDivergence(
                f"planner ({record.provenance}) diverged from fresh boot for "
                f"{spec.fault_id}/{case.case_id}:\n"
                f"  planned: {record}\n  fresh:   {fresh}"
            )
        self.stats["verified"] += 1

    def close(self) -> None:
        if self.memo is not None:
            self.memo.close()


__all__ = ["PlannerCache", "PlanningDivergence"]
