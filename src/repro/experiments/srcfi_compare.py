"""Differential emulation-accuracy study: source tier vs machine tier.

The paper's §5 argument, measured end to end on our own machinery.  For
every source-level fault (mutation operator × site) we run the *same
inputs* twice:

* **source tier** — the mutant binary, fault-free;
* **machine tier** — the original binary with the best Table-3
  counterpart the machine vocabulary offers (or the plain golden run
  when there is none — a SWIFI tool that cannot express the fault
  injects nothing).

A pair *agrees* when both runs land in the same failure mode and — for
terminating runs — produce identical console bytes (hangs are compared
by mode only: both sides are cut off by the same instruction budget, so
truncated console tails are an artifact of the timeout, exactly as the
paper's experiment-manager timeout would).  Aggregating agreement per
ODC class reproduces the §5 split: assignment and checking faults agree
(their counterparts are exact rewrites), algorithm and function faults
visibly diverge — the 44% the paper couldn't emulate.

The study also re-runs the §5 real-bug error sets (faulty binary vs
corrected-plus-emulation) and reports the same per-class agreement for
them.
"""

from __future__ import annotations

import os
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from ..analysis.tables import render_table
from ..emulation.realfaults import NotEmulableError
from ..machine.debug import DebugResourceError
from ..machine.loader import boot
from ..persist import JsonlAppender, atomic_write_json, read_jsonl
from ..srcfi import (
    MUTATION_CLASSES,
    MutantCache,
    SourceLocator,
    realize_source_fault,
)
from ..machine.machine import resolve_engine
from ..swifi.campaign import CampaignConfig, CampaignRunner, InputCase
from ..swifi.injector import InjectionSession
from ..swifi.outcomes import FailureMode, classify
from ..workloads import get_workload, real_faults, table2_workloads
from .config import ExperimentConfig

SEC5_BUDGET = 100_000_000  # matches experiments.sec5's real-fault runs


@dataclass(frozen=True)
class PairOutcome:
    """One (source fault, input case) two-tier comparison."""

    pair_id: str
    program: str
    operator: str
    klass: str
    counterpart: str   # exact | approximate | none
    function: str
    line: int
    case_id: str
    source_mode: FailureMode
    machine_mode: FailureMode
    agree: bool

    def to_dict(self) -> dict:
        payload = self.__dict__ | {
            "source_mode": self.source_mode.value,
            "machine_mode": self.machine_mode.value,
        }
        return dict(payload)

    @staticmethod
    def from_dict(payload: dict) -> "PairOutcome":
        data = dict(payload)
        data["source_mode"] = FailureMode(data["source_mode"])
        data["machine_mode"] = FailureMode(data["machine_mode"])
        return PairOutcome(**data)


@dataclass(frozen=True)
class RealFaultOutcome:
    """Agreement of one §5 real fault's emulation with its faulty binary."""

    fault_id: str
    program: str
    klass: str          # the fault's ODC type
    emulable: bool      # False when the strategy raised NotEmulableError
    mode: str           # emulation mode that was compared (or "none")
    inputs: int
    agreements: int

    @property
    def agreement(self) -> float:
        return self.agreements / self.inputs if self.inputs else 0.0

    def to_dict(self) -> dict:
        return dict(self.__dict__)

    @staticmethod
    def from_dict(payload: dict) -> "RealFaultOutcome":
        return RealFaultOutcome(**payload)


def _aggregate(outcomes: "list[PairOutcome]", key) -> dict[str, dict]:
    groups: dict[str, list[PairOutcome]] = {}
    for outcome in outcomes:
        groups.setdefault(key(outcome), []).append(outcome)
    table = {}
    for name, members in sorted(groups.items()):
        agreed = sum(1 for m in members if m.agree)
        table[name] = {
            "runs": len(members),
            "agreed": agreed,
            "agreement": agreed / len(members),
        }
    return table


@dataclass
class CompareReport:
    """Everything ``repro srcfi compare`` reports."""

    programs: list[str]
    inputs: int
    seed: int
    pairs: list[PairOutcome] = field(default_factory=list)
    real: list[RealFaultOutcome] = field(default_factory=list)

    def per_class(self) -> dict[str, dict]:
        return _aggregate(self.pairs, lambda o: o.klass)

    def per_operator(self) -> dict[str, dict]:
        return _aggregate(self.pairs, lambda o: o.operator)

    def real_per_class(self) -> dict[str, dict]:
        table: dict[str, dict] = {}
        for outcome in self.real:
            entry = table.setdefault(
                outcome.klass, {"faults": 0, "inputs": 0, "agreed": 0}
            )
            entry["faults"] += 1
            entry["inputs"] += outcome.inputs
            entry["agreed"] += outcome.agreements
        for entry in table.values():
            entry["agreement"] = (
                entry["agreed"] / entry["inputs"] if entry["inputs"] else 0.0
            )
        return dict(sorted(table.items()))

    def render(self) -> str:
        order = {klass: i for i, klass in enumerate(MUTATION_CLASSES)}
        class_rows = [
            [klass, str(stats["runs"]), str(stats["agreed"]),
             f"{100 * stats['agreement']:.1f}%"]
            for klass, stats in sorted(
                self.per_class().items(), key=lambda kv: order.get(kv[0], 99)
            )
        ]
        out = render_table(
            ["ODC class", "Runs", "Agree", "Agreement"],
            class_rows,
            title="Source vs machine tier - outcome agreement per ODC class",
        )
        operator_rows = [
            [name, str(stats["runs"]), f"{100 * stats['agreement']:.1f}%"]
            for name, stats in self.per_operator().items()
        ]
        out += "\n\n" + render_table(
            ["Operator", "Runs", "Agreement"],
            operator_rows,
            title="Per mutation operator",
        )
        if self.real:
            real_rows = [
                [outcome.fault_id, outcome.klass,
                 "yes" if outcome.emulable else "no",
                 f"{100 * outcome.agreement:.0f}%"]
                for outcome in self.real
            ]
            out += "\n\n" + render_table(
                ["Real fault", "ODC type", "Emulable", "Agreement"],
                real_rows,
                title="S5 real faults - faulty binary vs best emulation",
            )
        out += (
            f"\n\nPrograms: {', '.join(self.programs)}; "
            f"{self.inputs} input(s) per pair; seed {self.seed}."
        )
        return out

    def jsonable(self) -> dict:
        return {
            "programs": self.programs,
            "inputs": self.inputs,
            "seed": self.seed,
            "per_class": self.per_class(),
            "per_operator": self.per_operator(),
            "real_per_class": self.real_per_class(),
            "pairs": [outcome.to_dict() for outcome in self.pairs],
            "real": [outcome.to_dict() for outcome in self.real],
        }

    def to_json(self, path: str) -> None:
        atomic_write_json(path, self.jsonable())


# -- two-tier pair execution -------------------------------------------------

def _run_outcome(executable, spec, case: InputCase, budget: int, *,
                 num_cores: int, engine: str) -> tuple[FailureMode, bytes]:
    machine = boot(executable, num_cores=num_cores,
                   inputs=dict(case.pokes), engine=engine)
    session = InjectionSession(machine)
    if spec is not None:
        session.arm(spec)
    result = session.run(budget)
    return classify(result, case.expected), bytes(result.console)


def _modes_agree(source: tuple[FailureMode, bytes],
                 machine: tuple[FailureMode, bytes]) -> bool:
    if source[0] != machine[0]:
        return False
    if source[0] == FailureMode.HANG:
        return True  # budget-truncated consoles are a timeout artifact
    return source[1] == machine[1]


def _compare_pair(compiled, fault, cases, budgets, cache, *,
                  num_cores: int, engine: str) -> list[PairOutcome]:
    mutant = realize_source_fault(compiled, fault, cache)
    meta = fault.meta
    outcomes = []
    for case in cases:
        budget = budgets[case.case_id]
        source = _run_outcome(
            mutant.compiled.executable, None, case, budget,
            num_cores=num_cores, engine=engine,
        )
        if mutant.counterpart is None:
            # No machine-expressible counterpart: the machine tier
            # injects nothing, so its outcome is the golden run.
            machine = (FailureMode.CORRECT, case.expected)
        else:
            machine = _run_outcome(
                compiled.executable, mutant.counterpart, case, budget,
                num_cores=num_cores, engine=engine,
            )
        outcomes.append(PairOutcome(
            pair_id=f"{compiled.name}:{fault.operator}:{fault.site_index}",
            program=compiled.name,
            operator=fault.operator,
            klass=str(meta["klass"]),
            counterpart=str(meta["counterpart"]),
            function=str(meta["function"]),
            line=int(meta["line"]),
            case_id=case.case_id,
            source_mode=source[0],
            machine_mode=machine[0],
            agree=_modes_agree(source, machine),
        ))
    return outcomes


_WORKER: dict | None = None


def _worker_init(workloads: dict) -> None:
    global _WORKER
    _WORKER = {"workloads": workloads, "cache": MutantCache()}


def _worker_pair(payload: tuple) -> list[PairOutcome]:
    program, fault = payload
    assert _WORKER is not None
    compiled, cases, budgets, num_cores, engine = _WORKER["workloads"][program]
    return _compare_pair(
        compiled, fault, cases, budgets, _WORKER["cache"],
        num_cores=num_cores, engine=engine,
    )


# -- §5 real-fault agreement -------------------------------------------------

def _real_fault_outcomes(config: ExperimentConfig) -> list[RealFaultOutcome]:
    outcomes = []
    for fault in real_faults():
        workload = get_workload(fault.program)
        corrected = workload.compiled()
        faulty = workload.compiled_faulty()
        specs: list = []
        emulable = True
        mode_used = "none"
        try:
            specs = fault.build_emulation(corrected, mode="breakpoint")
            mode_used = "breakpoint"
        except NotEmulableError:
            emulable = False
        rng = random.Random(config.seed)
        agreements = 0
        for _ in range(config.sec5_inputs):
            pokes = workload.generate_pokes(rng)
            faulty_machine = boot(
                faulty.executable, num_cores=workload.num_cores, inputs=pokes
            )
            faulty_run = faulty_machine.run(max_instructions=SEC5_BUDGET)
            emulated_machine = boot(
                corrected.executable, num_cores=workload.num_cores, inputs=pokes
            )
            session = InjectionSession(emulated_machine)
            if specs:
                try:
                    session.arm_all(specs)
                except DebugResourceError:
                    # Category B: breakpoint registers exhausted; fall
                    # back to the trap-based arming the paper proposes.
                    specs = fault.build_emulation(corrected, mode="trap")
                    mode_used = "trap"
                    session.arm_all(specs)
            emulated_run = session.run(SEC5_BUDGET)
            if (emulated_run.status == faulty_run.status
                    and emulated_run.console == faulty_run.console):
                agreements += 1
        outcomes.append(RealFaultOutcome(
            fault_id=fault.fault_id,
            program=fault.program,
            klass=fault.odc_type.value,
            emulable=emulable,
            mode=mode_used,
            inputs=config.sec5_inputs,
            agreements=agreements,
        ))
    return outcomes


# -- driver ------------------------------------------------------------------

def run_srcfi_compare(
    config: ExperimentConfig | None = None,
    *,
    programs: list[str] | None = None,
    max_sites: int | None = 4,
    include_real: bool = True,
    jobs: int = 1,
    journal_dir: str | None = None,
    resume: bool = False,
    trace: bool = False,
    engine: str = CampaignConfig.engine,
    progress=None,
) -> CompareReport:
    """Run the two-tier comparison.

    ``max_sites`` caps sites per (program, operator) to bound runtime
    (None = exhaustive).  ``jobs`` parallelizes over (program, fault)
    pairs.  With ``journal_dir``, each completed pair is journaled as one
    JSONL line and ``resume=True`` skips journaled pairs.  ``trace`` is
    accepted for CLI uniformity and is a no-op here.
    """
    del trace  # accepted, not meaningful for the pair runner
    config = config or ExperimentConfig()
    report = CompareReport(programs=[], inputs=config.campaign_inputs,
                           seed=config.seed)

    workload_state: dict[str, tuple] = {}
    pending: list[tuple] = []
    for workload in table2_workloads():
        if programs is not None and workload.name not in programs:
            continue
        report.programs.append(workload.name)
        compiled = workload.compiled()
        cases = workload.make_cases(config.campaign_inputs, seed=config.seed + 17)
        runner = CampaignRunner(
            compiled, cases, num_cores=workload.num_cores,
            budget_factor=config.budget_factor,
        )
        runner.engine = resolve_engine(engine, workload.num_cores)
        runner.calibrate()
        workload_state[workload.name] = (
            compiled, cases, dict(runner.budgets), workload.num_cores,
            runner.engine,
        )
        locator = SourceLocator(compiled)
        for fault in locator.source_faults(max_sites_per_operator=max_sites):
            pending.append((workload.name, fault))

    if programs is not None:
        unknown = set(programs) - set(report.programs)
        if unknown:
            raise ValueError(f"unknown program(s): {sorted(unknown)}")

    # -- journal --------------------------------------------------------
    journal_path = None
    journaled: dict[str, list[PairOutcome]] = {}
    if journal_dir is not None:
        os.makedirs(journal_dir, exist_ok=True)
        journal_path = os.path.join(journal_dir, "pairs.jsonl")
        if resume:
            for entry in read_jsonl(journal_path):
                if entry.get("type") == "pair":
                    journaled[entry["pair_id"]] = [
                        PairOutcome.from_dict(o) for o in entry["outcomes"]
                    ]

    def pair_id(item: tuple) -> str:
        program, fault = item
        return f"{program}:{fault.operator}:{fault.site_index}"

    todo = [item for item in pending if pair_id(item) not in journaled]
    results: dict[str, list[PairOutcome]] = dict(journaled)
    total = len(pending)
    completed = len(journaled)

    journal = None
    try:
        if journal_path is not None:
            journal = JsonlAppender(journal_path)

        def consume(item: tuple, outcomes: list[PairOutcome]) -> None:
            nonlocal completed
            results[pair_id(item)] = outcomes
            if journal is not None:
                journal.append({
                    "type": "pair",
                    "pair_id": pair_id(item),
                    "outcomes": [o.to_dict() for o in outcomes],
                })
            completed += 1
            if progress is not None:
                progress(completed, total)

        if jobs == 1 or len(todo) <= 1:
            cache = MutantCache()
            for item in todo:
                program, fault = item
                compiled, cases, budgets, num_cores, resolved = (
                    workload_state[program]
                )
                consume(item, _compare_pair(
                    compiled, fault, cases, budgets, cache,
                    num_cores=num_cores, engine=resolved,
                ))
        else:
            with ProcessPoolExecutor(
                max_workers=min(jobs, len(todo)),
                initializer=_worker_init,
                initargs=(workload_state,),
            ) as pool:
                for item, outcomes in zip(todo, pool.map(_worker_pair, todo)):
                    consume(item, outcomes)
    finally:
        if journal is not None:
            journal.close()

    for item in pending:
        report.pairs.extend(results[pair_id(item)])

    if include_real:
        report.real = _real_fault_outcomes(config)
    return report
