"""Experiment management: the paper's host-side campaign software.

Xception's "Experiment Management software ... is responsible for the
fault definition, experiment execution control, outcome collection, and
some preliminary results analysis".  :class:`CampaignRunner` plays that
role here:

* it calibrates a per-input instruction budget from the fault-free run
  (the experiment manager's hang timeout), verifying at the same time
  that the program's fault-free output matches the oracle;
* it boots a **fresh machine for every injection run** ("the target
  system is rebooted between injections to assure a clean state");
* one run = one fault × one input data set; the fault's trigger may fire
  many times within the run ("each program run corresponds to one fault,
  no matter the number of times the fault is triggered");
* it classifies every run into the four failure modes and keeps the
  fault's metadata alongside, so results can be sliced by program, error
  type, ODC class, trigger kind, …
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Mapping

from ..lang.compiler import CompiledProgram
from ..machine.loader import boot
from ..machine.machine import (
    CAMPAIGN_ENGINES,
    ENGINE_AUTO,
    ENGINE_SIMPLE,
    ENGINE_TRACE,
    ENGINES,
    resolve_engine,
)
from ..observability import trace as _trace
from ..persist import atomic_write_json
from .faults import MachineFault
from .injector import InjectionSession
from .outcomes import MODE_ORDER, FailureMode, classify
from .spec import InjectionSpec, TIER_MACHINE, TIER_SOURCE, TIERS

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..machine.loader import Executable
    from ..orchestrator.telemetry import TelemetrySink
    from ..planning import PlannerCache
    from .snapshot import SnapshotCache

DEFAULT_BUDGET_FACTOR = 15
DEFAULT_MIN_BUDGET = 100_000

#: Snapshot fast-path policies (see repro/swifi/snapshot.py).
SNAPSHOT_OFF = "off"        # fresh boot per run, as in the paper
SNAPSHOT_AUTO = "auto"      # restore a golden-run snapshot when provably safe
SNAPSHOT_VERIFY = "verify"  # run both paths, raise on any outcome divergence
SNAPSHOT_POLICIES = (SNAPSHOT_OFF, SNAPSHOT_AUTO, SNAPSHOT_VERIFY)

#: Version of the CampaignResult JSON schema (see CampaignResult.to_json).
RESULT_SCHEMA_VERSION = 2

#: RunRecord.provenance of records from real runs: executed in full, or
#: ended at a hang's cycle with the arithmetic of whole periods.
PROVENANCE_EXECUTED = "executed"
PROVENANCE_EXTRAPOLATED = "extrapolated"

PokeValue = int | list[int] | bytes


class CampaignError(RuntimeError):
    """Raised when the fault-free program disagrees with its oracle."""


@dataclass(frozen=True)
class CampaignConfig:
    """Everything that shapes *how* a campaign executes (never *what*).

    One frozen value object instead of a sprawl of keyword arguments:

    * ``jobs`` — worker processes (1 = one in-process shard);
    * ``journal_dir``/``resume`` — JSONL journal of completed runs, and
      whether to continue from it instead of re-running;
    * ``seed`` — campaign seed for per-shard RNG streams;
    * ``snapshot`` — the golden-run snapshot fast path: ``"off"`` boots a
      fresh machine per run, ``"auto"`` restores a snapshot whenever the
      fault is provably equivalent (falling back to fresh boot for
      temporal triggers, trap-insertion mode, multi-core machines, and
      never-activated triggers on a non-exiting golden run), and
      ``"verify"`` runs both paths and raises on any divergence;
    * ``telemetry``/``label`` — live telemetry sink and display label;
    * ``trace`` — per-run span tracing (:mod:`repro.observability`): each
      run's phase timings, execution path and fallback reason are
      journaled beside its record and aggregated into telemetry; read
      them back with ``repro trace report``;
    * ``engine`` — the machine's execution engine: ``"simple"`` is the
      per-instruction interpreter and ``"trace"`` the compiled engine,
      which runs basic blocks as closures and hot paths as superblock
      traces (:mod:`repro.machine.blocks`); it is faster and falls back
      to the interpreter around every fault-injection hook.  The
      default, ``"auto"``, runs single-core programs on ``"trace"`` and
      multi-core ones on ``"simple"``
      (:func:`repro.machine.machine.resolve_engine`); the runner resolves
      it per program, so shard tasks, the planner and journals only see
      a concrete engine;
    * ``prune``/``memoize`` — the campaign planner
      (:mod:`repro.planning`): ``prune`` statically synthesizes records
      for provably dormant / invisible faults without booting a machine,
      ``memoize`` replays cached outcomes of behaviourally identical
      runs; ``memo_dir`` persists the memo on disk (append-only JSONL)
      so it survives kill + resume and warms later campaigns;
    * ``plan_verify`` — re-execute this fraction of pruned/memoized
      records with a real fresh-boot run and raise
      :class:`repro.planning.PlanningDivergence` on any mismatch
      (``1.0`` in the CI smoke job keeps the planner honest);
    * ``budget_factor``/``min_budget`` — override the runner's hang
      budget calibration (``None`` keeps the runner's values);
    * ``tier`` — which injection backend realizes the fault list:
      ``"machine"`` arms :class:`MachineFault` specs on the original
      binary (the paper's SWIFI tool), ``"source"`` compiles each
      :class:`repro.srcfi.SourceFault` mutation into a mutant binary and
      runs it fault-free through the same record pipeline;
    * ``opt_level`` — the optimization level the target binary was
      compiled at (0 or 1); the runner refuses a compiled program whose
      ``opt_level`` disagrees, so campaign records always name the
      binary they actually ran against.

    Results are bit-identical across every combination of these options.
    """

    jobs: int = 1
    journal_dir: str | None = None
    resume: bool = False
    seed: int = 0
    snapshot: str = SNAPSHOT_OFF
    telemetry: "TelemetrySink | None" = None
    label: str | None = None
    trace: bool = False
    engine: str = ENGINE_AUTO
    budget_factor: int | None = None
    min_budget: int | None = None
    prune: bool = False
    memoize: bool = False
    memo_dir: str | None = None
    plan_verify: float = 0.0
    tier: str = TIER_MACHINE
    opt_level: int = 0

    def __post_init__(self) -> None:
        if self.opt_level not in (0, 1):
            raise ValueError(
                f"opt_level must be 0 or 1, got {self.opt_level!r}"
            )
        if self.tier not in TIERS:
            raise ValueError(
                f"tier must be one of {TIERS}, got {self.tier!r}"
            )
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")
        if self.snapshot not in SNAPSHOT_POLICIES:
            raise ValueError(
                f"snapshot must be one of {SNAPSHOT_POLICIES}, got {self.snapshot!r}"
            )
        if self.engine not in CAMPAIGN_ENGINES:
            raise ValueError(
                f"engine must be one of {CAMPAIGN_ENGINES}, got {self.engine!r}"
            )
        if self.resume and self.journal_dir is None:
            raise ValueError("resume=True needs a journal_dir to resume from")
        if self.memo_dir is not None and not self.memoize:
            raise ValueError("memo_dir needs memoize=True")
        if not 0.0 <= self.plan_verify <= 1.0:
            raise ValueError(
                f"plan_verify must be in [0, 1], got {self.plan_verify!r}"
            )
        if self.plan_verify > 0.0 and not (self.prune or self.memoize):
            raise ValueError(
                "plan_verify needs the planner on (prune and/or memoize)"
            )


@dataclass(frozen=True)
class InputCase:
    """One input data set: global pokes plus the oracle's expected output."""

    case_id: str
    pokes: Mapping[str, PokeValue]
    expected: bytes


@dataclass(frozen=True)
class RunRecord:
    """The outcome of one injection run."""

    fault_id: str
    case_id: str
    mode: FailureMode
    status: str
    exit_code: int | None
    trap_kind: str | None
    activations: int
    injections: int
    instructions: int
    metadata: tuple[tuple[str, object], ...] = ()
    #: How the record was obtained: "executed" (a real run),
    #: "extrapolated" (a real run whose hang ended at its cycle, see
    #: repro.swifi.injector), "pruned" (synthesized by the planner's
    #: dormancy prover) or "memoized" (replayed from the outcome memo).
    #: Excluded from equality: the contract is that every *outcome* field
    #: is bit-identical regardless of provenance, and the differential
    #: oracle holds it to that.
    provenance: str = field(default=PROVENANCE_EXECUTED, compare=False)

    @property
    def meta(self) -> dict[str, object]:
        return dict(self.metadata)

    def to_dict(self) -> dict[str, object]:
        """Schema-v2 payload: metadata as an ordered list of [key, value].

        Metadata order is part of the fault's identity (``MachineFault`` keeps
        it as a tuple of pairs), so serialising through a plain JSON object
        and re-sorting on load — the schema-v1 behaviour — silently
        reordered it and broke record round-trip equality.
        """
        return {
            "fault_id": self.fault_id,
            "case_id": self.case_id,
            "mode": self.mode.value,
            "status": self.status,
            "exit_code": self.exit_code,
            "trap_kind": self.trap_kind,
            "activations": self.activations,
            "injections": self.injections,
            "instructions": self.instructions,
            "metadata": [[key, value] for key, value in self.metadata],
            "provenance": self.provenance,
        }

    @staticmethod
    def from_dict(payload: dict) -> "RunRecord":
        raw = payload.get("metadata") or {}
        if isinstance(raw, Mapping):  # schema v1: a JSON object, file order
            pairs = tuple((key, value) for key, value in raw.items())
        else:  # schema v2: ordered [key, value] pairs
            pairs = tuple((key, value) for key, value in raw)
        return RunRecord(
            fault_id=payload["fault_id"],
            case_id=payload["case_id"],
            mode=FailureMode(payload["mode"]),
            status=payload["status"],
            exit_code=payload["exit_code"],
            trap_kind=payload["trap_kind"],
            activations=payload["activations"],
            injections=payload["injections"],
            instructions=payload["instructions"],
            metadata=pairs,
            provenance=payload.get("provenance", PROVENANCE_EXECUTED),
        )


@dataclass
class CampaignResult:
    """All run records of one campaign, with slicing helpers."""

    program: str
    records: list[RunRecord] = field(default_factory=list)

    @property
    def total_runs(self) -> int:
        return len(self.records)

    def tally(self, records: Iterable[RunRecord] | None = None) -> Counter:
        counter: Counter = Counter()
        for record in self.records if records is None else records:
            counter[record.mode] += 1
        return counter

    def percentages(self, records: Iterable[RunRecord] | None = None) -> dict[FailureMode, float]:
        subset = list(self.records if records is None else records)
        total = len(subset) or 1
        counts = self.tally(subset)
        return {mode: 100.0 * counts.get(mode, 0) / total for mode in MODE_ORDER}

    def by_metadata(self, key: str) -> dict[object, list[RunRecord]]:
        groups: dict[object, list[RunRecord]] = {}
        for record in self.records:
            groups.setdefault(record.meta.get(key), []).append(record)
        return groups

    def dormant_fraction(self) -> float:
        """Share of runs whose fault never actually injected an error."""
        if not self.records:
            return 0.0
        dormant = sum(1 for record in self.records if record.injections == 0)
        return dormant / len(self.records)

    def merge(self, other: "CampaignResult") -> "CampaignResult":
        merged = CampaignResult(program=self.program)
        merged.records = self.records + other.records
        return merged

    # -- persistence -----------------------------------------------------

    def to_json(self, path: str) -> None:
        """Write the documented, versioned campaign-result schema.

        Schema v2 (``"schema": 2``)::

            {
              "schema": 2,
              "program": "<program name>",
              "records": [
                {"fault_id": str, "case_id": str, "mode": str,
                 "status": str, "exit_code": int|null, "trap_kind": str|null,
                 "activations": int, "injections": int, "instructions": int,
                 "metadata": [[key, value], ...]},   # order-preserving
                ...
              ]
            }

        v1 files (no ``schema`` key; ``metadata`` as a JSON object) are
        still readable by :meth:`from_json`.
        """
        payload = {
            "schema": RESULT_SCHEMA_VERSION,
            "program": self.program,
            "records": [record.to_dict() for record in self.records],
        }
        atomic_write_json(path, payload)

    @staticmethod
    def from_json(path: str) -> "CampaignResult":
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        schema = payload.get("schema", 1)
        if schema not in (1, RESULT_SCHEMA_VERSION):
            raise ValueError(
                f"{path}: unsupported campaign-result schema {schema!r} "
                f"(this build reads 1..{RESULT_SCHEMA_VERSION})"
            )
        result = CampaignResult(program=payload["program"])
        result.records = [RunRecord.from_dict(entry) for entry in payload["records"]]
        return result


def session_provenance(session: InjectionSession) -> str:
    """The provenance of a record built from *session*'s run."""
    return PROVENANCE_EXECUTED if session.cycle is None else PROVENANCE_EXTRAPOLATED


def execute_injection_run(
    executable: "Executable",
    spec: MachineFault | None,
    case: InputCase,
    *,
    budget: int,
    num_cores: int = 1,
    quantum: int = 64,
    snapshots: "SnapshotCache | None" = None,
    engine: str = ENGINE_SIMPLE,
    planner: "PlannerCache | None" = None,
) -> RunRecord:
    """One injection run: fresh boot, arm, execute, classify.

    This is the unit of work :func:`repro.orchestrator.worker.execute_shard_runs`
    loops over, in the campaign process at ``jobs=1`` and in pool or
    service workers otherwise — keeping it a plain module-level function
    of picklable arguments is what lets a shard be shipped to a fresh
    process (the paper's "the target system is rebooted between
    injections" becomes "a fresh machine in a fresh worker").

    With a :class:`repro.planning.PlannerCache` (per process, like the
    snapshot cache), the run is first offered to the campaign planner:
    provably dormant/invisible faults get their record synthesized and
    memoized repeats replay their cached outcome, no machine involved.
    Whatever the planner declines flows to the snapshot fast path and
    finally the fresh-boot path below, and the resulting record is fed
    back so the outcome memo warms as the campaign proceeds.

    With a :class:`repro.swifi.snapshot.SnapshotCache` (built per process
    / per shard — it is deliberately not picklable state), eligible runs
    restore a golden-run snapshot at the trigger's first activation
    instead of re-booting; the cache falls back to the fresh-boot path
    below whenever equivalence cannot be proven.
    """
    fault_id = spec.fault_id if spec is not None else "none"
    run_trace = _trace.begin_run(fault_id, case.case_id)
    try:
        if planner is not None and spec is not None:
            record = planner.execute(spec, case, budget)
            if record is not None:
                if run_trace is not None:
                    path, reason = planner.last_path
                    run_trace.set_path(path, reason)
                _trace.end_run(run_trace, record)
                return record
        if snapshots is not None and spec is not None:
            record = snapshots.execute(spec, case, budget)
            if run_trace is not None:
                path, reason = snapshots.last_path
                run_trace.set_path(path, reason)
            if record is not None:
                if planner is not None:
                    # snapshot-path outcomes are real executions — warm
                    # the memo with them too
                    planner.record_executed(spec, case, budget, record)
                _trace.end_run(run_trace, record)
                return record
        with _trace.phase(_trace.PHASE_BOOT):
            machine = boot(
                executable, num_cores=num_cores, inputs=dict(case.pokes),
                engine=engine,
            )
        session = InjectionSession(machine)
        if spec is not None:
            session.arm(spec)
        with _trace.phase(_trace.PHASE_EXECUTE):
            result = session.run(budget, quantum=quantum)
        with _trace.phase(_trace.PHASE_CLASSIFY):
            mode = classify(result, case.expected)
        record = RunRecord(
            fault_id=fault_id,
            case_id=case.case_id,
            mode=mode,
            status=result.status,
            exit_code=result.exit_code,
            trap_kind=result.trap.kind if result.trap is not None else None,
            activations=session.activation_count(fault_id),
            injections=session.injection_count(fault_id),
            instructions=result.instructions,
            metadata=spec.metadata if spec is not None else (),
            provenance=session_provenance(session),
        )
        if planner is not None:
            planner.record_executed(spec, case, budget, record)
        _trace.end_run(run_trace, record)
        return record
    except BaseException:
        _trace.abort_run(run_trace)
        raise


class CampaignRunner:
    """Runs faults × inputs against one compiled program."""

    def __init__(
        self,
        compiled: CompiledProgram,
        cases: list[InputCase],
        *,
        num_cores: int = 1,
        budget_factor: int = DEFAULT_BUDGET_FACTOR,
        min_budget: int = DEFAULT_MIN_BUDGET,
        quantum: int = 64,
    ) -> None:
        if not cases:
            raise ValueError("a campaign needs at least one input case")
        self.compiled = compiled
        self.cases = cases
        self.num_cores = num_cores
        self.budget_factor = budget_factor
        self.min_budget = min_budget
        self.quantum = quantum
        # The default config's engine until run() applies a config's.
        self.engine = resolve_engine(CampaignConfig.engine, num_cores)
        self.budgets: dict[str, int] = {}
        self.golden_instructions: dict[str, int] = {}

    # ------------------------------------------------------------------

    def calibrate_case(self, case: InputCase) -> None:
        """Fault-free run of one input: oracle check + hang-budget derivation."""
        machine = boot(
            self.compiled.executable, num_cores=self.num_cores,
            inputs=dict(case.pokes), engine=self.engine,
        )
        result = machine.run(quantum=self.quantum)
        if result.status != "exited":
            raise CampaignError(
                f"{self.compiled.name}/{case.case_id}: fault-free run did not "
                f"exit cleanly (status={result.status})"
            )
        if result.console != case.expected:
            raise CampaignError(
                f"{self.compiled.name}/{case.case_id}: fault-free output "
                f"{result.console[:80]!r} differs from oracle {case.expected[:80]!r}"
            )
        self.golden_instructions[case.case_id] = result.instructions
        self.budgets[case.case_id] = max(
            self.min_budget, result.instructions * self.budget_factor
        )

    def calibrate(self) -> None:
        """Fault-free run per input: oracle check + hang-budget derivation."""
        for case in self.cases:
            if case.case_id not in self.budgets:
                self.calibrate_case(case)

    def _budget_for(self, case: InputCase) -> int:
        if case.case_id not in self.budgets:
            self.calibrate_case(case)
        return self.budgets[case.case_id]

    # ------------------------------------------------------------------

    def run_one(self, spec: MachineFault | None, case: InputCase) -> RunRecord:
        """One injection run: fresh boot, arm, execute, classify."""
        return execute_injection_run(
            self.compiled.executable,
            spec,
            case,
            budget=self._budget_for(case),
            num_cores=self.num_cores,
            quantum=self.quantum,
            engine=self.engine,
        )

    def _apply_budget_overrides(self, config: CampaignConfig) -> None:
        if config.budget_factor is None and config.min_budget is None:
            return
        factor = self.budget_factor if config.budget_factor is None else config.budget_factor
        floor = self.min_budget if config.min_budget is None else config.min_budget
        if (factor, floor) != (self.budget_factor, self.min_budget):
            self.budget_factor = factor
            self.min_budget = floor
            self.budgets.clear()  # recalibrate under the new budget rule
            self.golden_instructions.clear()

    def run(
        self,
        faults: "list[InjectionSpec]",
        progress: Callable[[int, int], None] | None = None,
        *,
        config: CampaignConfig | None = None,
    ) -> CampaignResult:
        """The full campaign: every fault against every input case.

        Execution options ride in one :class:`CampaignConfig`.  Every
        machine-tier campaign runs through the :mod:`repro.orchestrator`
        subsystem: ``jobs=1`` executes the matrix as one in-process shard,
        ``jobs > 1`` through the supervised worker pool, both with the
        same per-shard run loop; ``journal_dir`` makes it resumable and
        ``snapshot``/``prune``/``memoize`` enable the fast paths.  Records
        are bit-identical in every configuration.
        """
        if config is None:
            config = CampaignConfig()
        self._apply_budget_overrides(config)
        if config.opt_level != self.compiled.opt_level:
            raise CampaignError(
                f"{self.compiled.name}: campaign config says opt_level="
                f"{config.opt_level} but the compiled program was built at "
                f"opt_level={self.compiled.opt_level}"
            )
        # Budgets are engine-independent (instret is bit-identical), so
        # calibrations from a previous engine remain valid.
        self.engine = resolve_engine(config.engine, self.num_cores)

        if config.tier == TIER_SOURCE:
            # Source-tier faults are AST mutations: each one compiles to
            # a mutant binary that runs fault-free through the same
            # record pipeline.  Lazy import: srcfi sits above swifi.
            from ..srcfi.campaign import run_source_campaign

            return run_source_campaign(self, faults, config, progress)

        from ..orchestrator import CampaignOrchestrator, OrchestratorOptions

        orchestrator = CampaignOrchestrator.from_runner(
            self,
            faults,
            options=OrchestratorOptions(
                jobs=config.jobs,
                journal_dir=config.journal_dir,
                resume=config.resume,
                seed=config.seed,
                snapshot=config.snapshot,
                trace=config.trace,
                engine=self.engine,
                prune=config.prune,
                memoize=config.memoize,
                memo_dir=config.memo_dir,
                plan_verify=config.plan_verify,
            ),
            telemetry=config.telemetry,
            progress=progress,
            label=config.label,
        )
        return orchestrator.run().result
