"""The differential oracle: one case, every configuration, one verdict.

Two comparison tiers, both bit-exact:

* **State tier** — for each (program, input, fault) case the oracle runs
  the injection once per execution engine with direct machine access and
  compares a full :class:`StateDigest`: run status, exit code, trap kind,
  retired instruction count, console bytes, every core's registers and a
  SHA-256 over the entire physical memory image and the heap allocator
  state.  Anything the engines disagree on — a single stale register, one
  byte of stack — flips the digest.

* **Record tier** — per generated program the oracle runs the whole
  (faults x inputs) mini-campaign once per configuration in the
  {engine} x {snapshot} x {jobs} matrix and compares the resulting
  :class:`RunRecord` lists against the base configuration
  (simple / off / serial).  This exercises exactly the production paths:
  the snapshot fast path's eligibility analysis and the orchestrator's
  sharded workers.

A mismatch in either tier is reported as a :class:`Divergence` carrying
both sides, ready for the shrinker.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..machine.loader import boot
from ..machine.machine import ENGINE_SIMPLE, ENGINES
from ..swifi.campaign import (
    CampaignConfig,
    CampaignRunner,
    DEFAULT_BUDGET_FACTOR,
    DEFAULT_MIN_BUDGET,
    InputCase,
    PROVENANCE_EXTRAPOLATED,
    RunRecord,
    SNAPSHOT_OFF,
    SNAPSHOT_POLICIES,
)
from ..swifi.faults import MachineFault
from ..swifi.injector import InjectionSession

#: The configuration matrix the conformance gate must hold over.
DEFAULT_JOBS_AXIS = (1, 4)


#: The planner axis of the configuration matrix: campaign planning off,
#: or dormant-fault pruning plus outcome memoization (with a fresh
#: in-memory memo per campaign).
PLANNER_OFF = "off"
PLANNER_ON = "prune+memo"
PLANNER_POLICIES = (PLANNER_OFF, PLANNER_ON)


@dataclass(frozen=True)
class MatrixConfig:
    """One point of the {engine} x {snapshot} x {jobs} x {planner} matrix.

    ``opt`` names the compiler optimization level of the binary under
    test; it only differs from 0 in the fuzzer's O0-vs-O1 compiler axis
    (``FuzzConfig(opt_axis=(0, 1))``), where the two sides of a
    divergence ran *different binaries* of the same program.
    """

    engine: str = ENGINE_SIMPLE
    snapshot: str = SNAPSHOT_OFF
    jobs: int = 1
    planner: str = PLANNER_OFF
    opt: int = 0

    def label(self) -> str:
        label = (
            f"engine={self.engine}/snapshot={self.snapshot}/jobs={self.jobs}"
            f"/planner={self.planner}"
        )
        if self.opt:
            label += f"/opt={self.opt}"
        return label

    def to_dict(self) -> dict:
        return {
            "engine": self.engine,
            "snapshot": self.snapshot,
            "jobs": self.jobs,
            "planner": self.planner,
            "opt": self.opt,
        }


def full_matrix(jobs_axis: tuple[int, ...] = DEFAULT_JOBS_AXIS) -> list[MatrixConfig]:
    return [
        MatrixConfig(engine, snapshot, jobs, planner)
        for engine in ENGINES
        for snapshot in SNAPSHOT_POLICIES
        for jobs in jobs_axis
        for planner in PLANNER_POLICIES
    ]


BASE_CONFIG = MatrixConfig()


# ---------------------------------------------------------------------------
# State digests
# ---------------------------------------------------------------------------

# StateDigest and machine_digest moved to repro.planning.digest (the
# campaign planner keys its outcome memo on the same hashing); they are
# re-imported here so every historical import path keeps working.
from ..planning.digest import StateDigest, machine_digest  # noqa: E402


def run_state(executable, spec: MachineFault | None, case: InputCase, *,
              budget: int, engine: str, quantum: int = 64) -> StateDigest:
    """One fresh-boot injection run with direct machine access."""
    return _run_state(executable, spec, case, budget=budget, engine=engine,
                      quantum=quantum)[0]


def _run_state(executable, spec: MachineFault | None, case: InputCase, *,
               budget: int, engine: str,
               quantum: int = 64) -> tuple[StateDigest, bool, int, int]:
    """:func:`run_state`, plus whether the run ended a hang at its cycle,
    how many of its traces forget cached frame slots at a store that may
    alias one (``TraceEngine.traces_aliased``), and how many blocks and
    traces it adopted from earlier machines of the image
    (``TraceEngine.blocks_adopted`` + ``traces_adopted``)."""
    machine = boot(executable, inputs=dict(case.pokes), engine=engine)
    session = InjectionSession(machine)
    fault_id = spec.fault_id if spec is not None else "none"
    if spec is not None:
        session.arm(spec)
    result = session.run(budget, quantum=quantum)
    digest = machine_digest(machine, result, session, fault_id)
    compiled = machine.block_engine
    if compiled is None:
        return digest, session.cycle is not None, 0, 0
    adopted = compiled.blocks_adopted + compiled.traces_adopted
    return digest, session.cycle is not None, compiled.traces_aliased, adopted


# ---------------------------------------------------------------------------
# Divergences
# ---------------------------------------------------------------------------


@dataclass
class Divergence:
    """One disagreement between two configurations on one case."""

    tier: str                      # "state" | "record"
    program: str
    fault_id: str
    case_id: str
    config_a: MatrixConfig
    config_b: MatrixConfig
    detail_a: dict
    detail_b: dict
    fields: list[str] = field(default_factory=list)

    def summary(self) -> str:
        return (
            f"[{self.tier}] {self.program} fault={self.fault_id} "
            f"case={self.case_id}: {self.config_a.label()} != "
            f"{self.config_b.label()} on {', '.join(self.fields) or 'records'}"
        )

    def to_dict(self) -> dict:
        return {
            "tier": self.tier,
            "program": self.program,
            "fault_id": self.fault_id,
            "case_id": self.case_id,
            "config_a": self.config_a.to_dict(),
            "config_b": self.config_b.to_dict(),
            "detail_a": self.detail_a,
            "detail_b": self.detail_b,
            "fields": list(self.fields),
        }


def _digest_diff(a: StateDigest, b: StateDigest) -> list[str]:
    da, db = a.to_dict(), b.to_dict()
    return [key for key in da if da[key] != db[key]]


def _record_diff(a: RunRecord, b: RunRecord) -> list[str]:
    da, db = a.to_dict(), b.to_dict()
    # provenance says *how* a record was obtained (executed / pruned /
    # memoized) — by design it varies across the planner axis while every
    # outcome field must stay bit-identical.
    return [key for key in da if key != "provenance" and da[key] != db[key]]


# ---------------------------------------------------------------------------
# The oracle
# ---------------------------------------------------------------------------


def default_budget(golden_instructions: int) -> int:
    """The campaign runner's hang budget, derived the same way it does."""
    return max(DEFAULT_MIN_BUDGET, golden_instructions * DEFAULT_BUDGET_FACTOR)


class DifferentialOracle:
    """Runs one program's case batch across the matrix and compares."""

    def __init__(self, compiled, cases: list[InputCase], *,
                 matrix: list[MatrixConfig] | None = None,
                 state_engines: tuple[str, ...] = ENGINES):
        self.compiled = compiled
        self.cases = cases
        self.matrix = full_matrix() if matrix is None else list(matrix)
        self.state_engines = state_engines
        self.runs = 0
        #: runs whose hang ended at its cycle (compared like any other)
        self.extrapolated = 0
        #: state-tier traces that forget cached frame slots at a store
        self.aliased = 0
        #: state-tier blocks and traces adopted from an earlier machine
        self.adopted = 0

    # -- state tier ------------------------------------------------------

    def check_state(self, spec: MachineFault | None, case: InputCase, *,
                    budget: int) -> tuple[Divergence | None, dict[str, StateDigest]]:
        """Cross-engine full-state comparison for one (fault, case).

        ``spec=None`` compares the fault-free run — the pure engine
        conformance case.
        """
        fault_id = spec.fault_id if spec is not None else "golden"
        digests: dict[str, StateDigest] = {}
        for engine in self.state_engines:
            digests[engine], extrapolated, aliased, adopted = _run_state(
                self.compiled.executable, spec, case, budget=budget, engine=engine
            )
            self.runs += 1
            self.extrapolated += extrapolated
            self.aliased += aliased
            self.adopted += adopted
        base_engine = self.state_engines[0]
        base = digests[base_engine]
        for engine in self.state_engines[1:]:
            fields = _digest_diff(base, digests[engine])
            if fields:
                return (
                    Divergence(
                        tier="state",
                        program=self.compiled.name,
                        fault_id=fault_id,
                        case_id=case.case_id,
                        config_a=MatrixConfig(engine=base_engine),
                        config_b=MatrixConfig(engine=engine),
                        detail_a=base.to_dict(),
                        detail_b=digests[engine].to_dict(),
                        fields=fields,
                    ),
                    digests,
                )
        return None, digests

    # -- record tier -----------------------------------------------------

    def check_records(self, faults: list[MachineFault]) -> list[Divergence]:
        """Run the faults x cases campaign under every matrix config."""
        base_records = self._campaign(BASE_CONFIG, faults)
        divergences: list[Divergence] = []
        for config in self.matrix:
            if config == BASE_CONFIG:
                continue
            records = self._campaign(config, faults)
            divergences.extend(self._compare(base_records, records, config))
        return divergences

    def _campaign(self, config: MatrixConfig, faults: list[MachineFault]) -> list[RunRecord]:
        runner = CampaignRunner(self.compiled, self.cases)
        planned = config.planner == PLANNER_ON
        result = runner.run(
            faults,
            config=CampaignConfig(
                jobs=config.jobs, snapshot=config.snapshot, engine=config.engine,
                prune=planned, memoize=planned,
                opt_level=getattr(self.compiled, "opt_level", 0),
            ),
        )
        self.runs += len(result.records)
        self.extrapolated += sum(
            record.provenance == PROVENANCE_EXTRAPOLATED for record in result.records
        )
        return result.records

    def _compare(self, base: list[RunRecord], other: list[RunRecord],
                 config: MatrixConfig) -> list[Divergence]:
        divergences: list[Divergence] = []
        if len(base) != len(other):
            divergences.append(
                Divergence(
                    tier="record", program=self.compiled.name,
                    fault_id="*", case_id="*",
                    config_a=BASE_CONFIG, config_b=config,
                    detail_a={"record_count": len(base)},
                    detail_b={"record_count": len(other)},
                    fields=["record_count"],
                )
            )
            return divergences
        for record_a, record_b in zip(base, other):
            fields = _record_diff(record_a, record_b)
            if fields:
                divergences.append(
                    Divergence(
                        tier="record", program=self.compiled.name,
                        fault_id=record_a.fault_id, case_id=record_a.case_id,
                        config_a=BASE_CONFIG, config_b=config,
                        detail_a=record_a.to_dict(), detail_b=record_b.to_dict(),
                        fields=fields,
                    )
                )
        return divergences
