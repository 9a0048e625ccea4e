"""The fuzz campaign driver: ``repro verify fuzz`` lives here.

One fuzz campaign is a pure function of its seed.  Per generated
program the driver:

1. generates the program and a couple of input data sets
   (:mod:`repro.verify.generator`), computing each input's golden console
   output with a fault-free run;
2. checks *golden conformance* — the fault-free run itself must produce a
   bit-identical :class:`StateDigest` on every engine;
3. realizes a batch of sampled fault descriptors
   (:mod:`repro.verify.sampler`) and runs the state-tier differential for
   every (fault, input) pair;
4. runs the record-tier differential: the whole mini-campaign under every
   {engine} x {snapshot} x {jobs} configuration, compared record by
   record against the base configuration.

On the first divergence for a program the shrinker
(:mod:`repro.verify.shrinker`) minimizes the case and a replayable
artifact is written (:mod:`repro.verify.artifacts`).  The campaign stops
after ``cases`` state-tier comparisons, when the wall-clock budget runs
out, or after ``max_divergences`` distinct failures.

``FuzzConfig(tier="source")`` fuzzes the source tier instead: the same
generated programs are mutated through :mod:`repro.srcfi` operators,
every mutant binary must be engine-conformant (cross-engine state
digests), reverting the mutation must restore a bit-identical binary,
and the record tier compares source-campaign records across the
{engine} x {jobs} matrix (snapshot and planner axes are machine-only).
Source-tier divergences are reported without shrinking — the shrinker
and replay artifacts are built around machine fault descriptors.

With ``journal_dir`` set, every cleanly finished program appends one
JSONL entry; re-running with ``resume=True`` skips those programs while
keeping their counts, so a killed fuzz campaign picks up where it
stopped.  Programs that diverged are never journaled — they re-run on
resume so shrinks and artifacts are regenerated.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from .artifacts import write_artifact
from .generator import generate_pokes, generate_program, GenProgram
from .oracle import (
    BASE_CONFIG,
    DEFAULT_JOBS_AXIS,
    DifferentialOracle,
    Divergence,
    MatrixConfig,
    default_budget,
    full_matrix,
    run_state,
)
from .sampler import MachineFaultRecipe, SamplerError, sample_descriptors
from .shrinker import ShrinkResult, shrink_case
from ..lang import compile_source
from ..machine.machine import ENGINE_SIMPLE, ENGINES
from ..persist import JsonlAppender, read_jsonl
from ..swifi.campaign import (
    CampaignConfig,
    CampaignError,
    CampaignRunner,
    InputCase,
)
from ..swifi.spec import TIER_MACHINE, TIER_SOURCE, TIERS

#: Generous budget for the very first fault-free run of a fresh program
#: (before we know its golden instruction count).
GOLDEN_BUDGET = 2_000_000

#: JSONL journal of cleanly finished programs (``journal_dir``).
FUZZ_JOURNAL = "fuzz_journal.jsonl"


@dataclass
class FuzzConfig:
    """Knobs for one fuzz campaign (all defaults CI-friendly)."""

    seed: int = 0
    cases: int = 200                 # state-tier comparisons to run
    time_budget: float | None = None  # wall-clock seconds, None = unlimited
    faults_per_program: int = 8
    inputs_per_program: int = 2
    record_tier: bool = True         # run the full-matrix campaign tier
    jobs_axis: tuple[int, ...] = DEFAULT_JOBS_AXIS
    opt_axis: tuple[int, ...] = (0,)  # compiler levels; (0, 1) adds O0-vs-O1
    shrink: bool = True
    max_shrink_checks: int = 400
    max_divergences: int = 5         # stop fuzzing after this many failures
    artifact_dir: str | Path | None = None
    progress: Callable[[str], None] | None = None
    tier: str = TIER_MACHINE         # injection tier under test
    journal_dir: str | Path | None = None
    resume: bool = False             # skip journaled programs
    trace: bool = False              # accepted for CLI uniformity; no spans here


@dataclass
class FuzzReport:
    """What one fuzz campaign did and what it found."""

    seed: int
    programs: int = 0
    resumed_programs: int = 0
    state_cases: int = 0
    opt_cases: int = 0               # O0-vs-O1 observable comparisons
    record_campaigns: int = 0
    total_runs: int = 0
    extrapolated_runs: int = 0       # hangs a compiled engine ended at the cycle
    #: state-tier traces whose code forgets cached frame slots at a store
    #: that may alias one; a diagnostic of the programs this invocation
    #: ran (not journaled, so journal bytes stay as they were)
    aliased_traces: int = 0
    #: state-tier blocks and traces a machine adopted from the ones an
    #: earlier machine of the same program image compiled (not journaled)
    adopted: int = 0
    skipped_faults: int = 0
    elapsed: float = 0.0
    stopped_early: bool = False
    divergences: list[Divergence] = field(default_factory=list)
    shrinks: list[ShrinkResult] = field(default_factory=list)
    artifacts: list[Path] = field(default_factory=list)

    def ok(self) -> bool:
        return not self.divergences

    def summary_lines(self) -> list[str]:
        lines = [
            f"verify fuzz: seed={self.seed} programs={self.programs} "
            f"state-cases={self.state_cases} record-campaigns={self.record_campaigns} "
            f"runs={self.total_runs} extrapolated={self.extrapolated_runs} "
            f"aliased={self.aliased_traces} adopted={self.adopted} "
            f"elapsed={self.elapsed:.1f}s"
            + (" (stopped early: budget)" if self.stopped_early else ""),
        ]
        if self.resumed_programs:
            lines.append(
                f"  resumed past {self.resumed_programs} journaled programs"
            )
        if self.opt_cases:
            lines.append(
                f"  compiler axis: {self.opt_cases} O0-vs-O1 observable "
                "comparisons"
            )
        if self.skipped_faults:
            lines.append(f"  skipped {self.skipped_faults} unrealizable fault descriptors")
        if not self.divergences:
            lines.append("  no divergences: all configurations agree bit-for-bit")
        for index, divergence in enumerate(self.divergences):
            lines.append(f"  DIVERGENCE[{index}] {divergence.summary()}")
        for shrink in self.shrinks:
            lines.append(
                f"  shrunk {shrink.statements_before} -> "
                f"{shrink.statements_after} statements "
                f"({shrink.checks} checks, {shrink.rounds} rounds)"
            )
        for artifact in self.artifacts:
            lines.append(f"  artifact: {artifact}")
        return lines


class _Clock:
    def __init__(self, budget: float | None) -> None:
        self.start = time.monotonic()
        self.budget = budget

    @property
    def elapsed(self) -> float:
        return time.monotonic() - self.start

    @property
    def expired(self) -> bool:
        return self.budget is not None and self.elapsed >= self.budget


def _emit(config: FuzzConfig, message: str) -> None:
    if config.progress is not None:
        config.progress(message)


def build_cases(compiled, seed: int, index: int, count: int) -> list[InputCase]:
    """Seeded input cases with golden console output as the oracle."""
    from ..machine.loader import boot

    rng = random.Random(f"repro.verify.inputs:{seed}:{index}")
    cases: list[InputCase] = []
    for k in range(count):
        pokes = generate_pokes(rng)
        machine = boot(compiled.executable, inputs=dict(pokes),
                       engine=ENGINE_SIMPLE)
        result = machine.run(GOLDEN_BUDGET)
        if result.status != "exited" or result.exit_code != 0:
            raise CampaignError(
                f"{compiled.name}: generated program did not exit cleanly "
                f"fault-free (status={result.status})"
            )
        cases.append(InputCase(f"in{k}", pokes, bytes(machine.console)))
    return cases


def _golden_console(compiled, pokes) -> bytes:
    from ..machine.loader import boot

    machine = boot(compiled.executable, inputs=dict(pokes), engine=ENGINE_SIMPLE)
    machine.run(GOLDEN_BUDGET)
    return bytes(machine.console)


def realize_faults(compiled, descriptors: list[MachineFaultRecipe],
                   golden_instructions: int):
    """(spec, descriptor) pairs for the realizable subset, skip count."""
    realized = []
    skipped = 0
    for descriptor in descriptors:
        try:
            spec = descriptor.realize(compiled, golden_instructions)
        except SamplerError:
            skipped += 1
            continue
        realized.append((spec, descriptor))
    return realized, skipped


# ---------------------------------------------------------------------------
# Journal: cleanly finished programs, skipped on resume
# ---------------------------------------------------------------------------


def _open_journal(config: FuzzConfig) -> tuple[Path | None, dict[int, dict]]:
    if config.journal_dir is None:
        return None, {}
    directory = Path(config.journal_dir)
    directory.mkdir(parents=True, exist_ok=True)
    journal = directory / FUZZ_JOURNAL
    done: dict[int, dict] = {}
    if config.resume:
        for entry in read_jsonl(journal):
            if (entry.get("type") == "program"
                    and entry.get("seed") == config.seed
                    and entry.get("tier") == config.tier):
                done[int(entry["index"])] = entry
    return journal, done


def _journal_program(journal: Path, config: FuzzConfig, index: int,
                     report: FuzzReport, before: tuple) -> None:
    entry = {
        "type": "program",
        "seed": config.seed,
        "tier": config.tier,
        "index": index,
        "state_cases": report.state_cases - before[0],
        "record_campaigns": report.record_campaigns - before[1],
        "runs": report.total_runs - before[2],
        "skipped": report.skipped_faults - before[3],
        "opt_cases": report.opt_cases - before[5],
    }
    extrapolated = report.extrapolated_runs - before[6]
    if extrapolated:  # schema-additive: entries without hangs keep their bytes
        entry["extrapolated"] = extrapolated
    with JsonlAppender(journal) as log:
        log.append(entry)


def run_fuzz(config: FuzzConfig) -> FuzzReport:
    """Run one seeded fuzz campaign; see the module docstring."""
    if config.tier not in TIERS:
        raise CampaignError(
            f"tier must be one of {TIERS}, got {config.tier!r}"
        )
    if 0 not in config.opt_axis or any(
            level not in (0, 1) for level in config.opt_axis):
        raise CampaignError(
            "opt_axis levels must be drawn from (0, 1) and include the "
            f"O0 baseline, got {config.opt_axis!r}"
        )
    report = FuzzReport(seed=config.seed)
    clock = _Clock(config.time_budget)
    journal, done = _open_journal(config)
    index = 0
    while report.state_cases < config.cases:
        if clock.expired:
            report.stopped_early = True
            break
        if len(report.divergences) >= config.max_divergences:
            break
        if index in done:
            entry = done[index]
            report.programs += 1
            report.resumed_programs += 1
            report.state_cases += entry.get("state_cases", 0)
            report.record_campaigns += entry.get("record_campaigns", 0)
            report.total_runs += entry.get("runs", 0)
            report.skipped_faults += entry.get("skipped", 0)
            report.opt_cases += entry.get("opt_cases", 0)
            report.extrapolated_runs += entry.get("extrapolated", 0)
            index += 1
            continue
        before = (report.state_cases, report.record_campaigns,
                  report.total_runs, report.skipped_faults,
                  len(report.divergences), report.opt_cases,
                  report.extrapolated_runs)
        if config.tier == TIER_SOURCE:
            _fuzz_source_program(config, report, clock, index)
        else:
            _fuzz_machine_program(config, report, clock, index)
        if journal is not None and len(report.divergences) == before[4]:
            _journal_program(journal, config, index, report, before)
        _emit(config, f"program {index}: {report.state_cases}/{config.cases} "
                      f"state cases, {len(report.divergences)} divergences")
        index += 1
    report.elapsed = clock.elapsed
    return report


# ---------------------------------------------------------------------------
# Compiler axis: the same program at O0 and O1 must behave identically
# ---------------------------------------------------------------------------

#: What "behave identically" means across opt levels: the two binaries
#: are different by design (fewer instructions, different registers), so
#: only the observable contract is compared — never register files,
#: memory images or retired counts.
_OBSERVABLE_FIELDS = ("status", "exit_code", "console")


def _binary_fingerprint(compiled) -> dict:
    """Identify which binary a divergence side ran (for artifacts)."""
    code = bytes(compiled.executable.code)
    return {
        "opt_level": compiled.opt_level,
        "code_sha256": hashlib.sha256(code).hexdigest(),
        "code_words": len(code) // 4,
    }


def _observable_state(compiled, case: InputCase, *, budget: int,
                      engine: str) -> dict:
    """One fault-free run reduced to the observable contract."""
    from ..machine.loader import boot

    machine = boot(compiled.executable, inputs=dict(case.pokes), engine=engine)
    result = machine.run(budget)
    return {
        "status": result.status,
        "exit_code": result.exit_code,
        "console": bytes(machine.console).hex(),
    }


def _opt_divergence_fields(a: dict, b: dict) -> list[str]:
    return [key for key in _OBSERVABLE_FIELDS if a[key] != b[key]]


def _check_opt_axis(config: FuzzConfig, report: FuzzReport, clock: _Clock,
                    program: GenProgram, compiled, cases: list[InputCase],
                    budget: int):
    """Compile at every extra opt level; compare observables per engine.

    Returns ``(binaries, diverged)`` where *binaries* maps each extra
    level to its compiled program (for the O1 record tier) and *diverged*
    says whether any comparison failed.  Both sides of an opt divergence
    carry the fingerprint of the binary they ran, so artifacts record
    which pair of machine codes disagreed.
    """
    binaries = {}
    diverged = False
    for level in config.opt_axis:
        if level == 0 or level in binaries or diverged:
            continue
        try:
            recompiled = compile_source(program.render(), program.name,
                                        opt_level=level)
        except Exception as error:
            divergence = Divergence(
                tier="opt", program=program.name, fault_id="golden",
                case_id=cases[0].case_id,
                config_a=MatrixConfig(),
                config_b=MatrixConfig(opt=level),
                detail_a=_binary_fingerprint(compiled),
                detail_b={"opt_level": level, "compile_error": str(error)},
                fields=["compile"],
            )
            _handle_divergence(config, report, program, None, cases[0],
                               cases, divergence)
            diverged = True
            continue
        binaries[level] = recompiled
        for case in cases:
            if clock.expired or diverged:
                break
            for engine in ENGINES:
                base = _observable_state(compiled, case, budget=budget,
                                         engine=engine)
                other = _observable_state(recompiled, case, budget=budget,
                                          engine=engine)
                report.opt_cases += 1
                report.state_cases += 1
                report.total_runs += 2
                fields = _opt_divergence_fields(base, other)
                if fields:
                    divergence = Divergence(
                        tier="opt", program=program.name, fault_id="golden",
                        case_id=case.case_id,
                        config_a=MatrixConfig(engine=engine),
                        config_b=MatrixConfig(engine=engine, opt=level),
                        detail_a={**base, **_binary_fingerprint(compiled)},
                        detail_b={**other, **_binary_fingerprint(recompiled)},
                        fields=fields,
                    )
                    _handle_divergence(config, report, program, None, case,
                                       cases, divergence)
                    diverged = True
                    break
    return binaries, diverged


# ---------------------------------------------------------------------------
# Machine tier: sampled descriptors against the full configuration matrix
# ---------------------------------------------------------------------------


def _fuzz_machine_program(config: FuzzConfig, report: FuzzReport,
                          clock: _Clock, index: int) -> None:
    matrix = full_matrix(config.jobs_axis) if config.record_tier else []
    program = generate_program(config.seed, index)
    compiled = compile_source(program.render(), program.name)
    cases = build_cases(compiled, config.seed, index, config.inputs_per_program)
    oracle = DifferentialOracle(compiled, cases, matrix=matrix)
    report.programs += 1
    program_diverged = False

    # -- golden conformance: no fault, every engine -----------------
    golden_instructions = 0
    for case in cases:
        divergence, digests = oracle.check_state(None, case, budget=GOLDEN_BUDGET)
        golden_instructions = max(
            golden_instructions, digests[ENGINE_SIMPLE].instructions
        )
        report.state_cases += 1
        if divergence is not None:
            _handle_divergence(config, report, program, None, case,
                               cases, divergence)
            program_diverged = True
            break
    budget = default_budget(golden_instructions)

    # -- compiler axis: O0 vs O1 on the observable contract ----------
    opt_binaries = {}
    if not program_diverged:
        opt_binaries, opt_diverged = _check_opt_axis(
            config, report, clock, program, compiled, cases, budget
        )
        program_diverged = program_diverged or opt_diverged

    # -- state tier: every realized fault on every input ------------
    faults = []
    if not program_diverged:
        rng = random.Random(f"repro.verify.faults:{config.seed}:{index}")
        descriptors = sample_descriptors(rng, config.faults_per_program)
        faults, skipped = realize_faults(compiled, descriptors,
                                         golden_instructions)
        report.skipped_faults += skipped
        for spec, descriptor in faults:
            for case in cases:
                if report.state_cases >= config.cases or clock.expired:
                    break
                divergence, _ = oracle.check_state(spec, case, budget=budget)
                report.state_cases += 1
                if divergence is not None:
                    _handle_divergence(config, report, program, descriptor,
                                       case, cases, divergence)
                    program_diverged = True
                    break
            if program_diverged:
                break

    # -- record tier: the full configuration matrix -----------------
    if config.record_tier and faults and not program_diverged \
            and not clock.expired:
        divergences = oracle.check_records([spec for spec, _ in faults])
        report.record_campaigns += len(matrix)
        program_diverged = program_diverged or bool(divergences)
        for divergence in divergences:
            descriptor = _descriptor_for(faults, divergence.fault_id)
            case = _case_for(cases, divergence.case_id)
            _handle_divergence(config, report, program, descriptor, case,
                               cases, divergence)
            if len(report.divergences) >= config.max_divergences:
                break

    # -- record tier again, on the optimized binary ------------------
    # The opt conformance above proved O0 and O1 print the same bytes;
    # this leg proves the whole {engine} x {snapshot} x {jobs} matrix
    # stays internally bit-identical when the target binary is the O1
    # one (different addresses, registers and instruction counts).
    if config.record_tier and opt_binaries and not program_diverged \
            and not clock.expired:
        for level, recompiled in sorted(opt_binaries.items()):
            golden = run_state(recompiled.executable, None, cases[0],
                               budget=GOLDEN_BUDGET, engine=ENGINE_SIMPLE)
            rng = random.Random(
                f"repro.verify.faults:{config.seed}:{index}:O{level}"
            )
            descriptors = sample_descriptors(rng, config.faults_per_program)
            opt_faults, skipped = realize_faults(recompiled, descriptors,
                                                 golden.instructions)
            report.skipped_faults += skipped
            if not opt_faults:
                continue
            opt_oracle = DifferentialOracle(recompiled, cases, matrix=matrix)
            divergences = opt_oracle.check_records(
                [spec for spec, _ in opt_faults]
            )
            report.record_campaigns += len(matrix)
            report.total_runs += opt_oracle.runs
            report.extrapolated_runs += opt_oracle.extrapolated
            for divergence in divergences:
                divergence = dataclasses.replace(
                    divergence,
                    config_a=dataclasses.replace(divergence.config_a,
                                                 opt=level),
                    config_b=dataclasses.replace(divergence.config_b,
                                                 opt=level),
                )
                descriptor = _descriptor_for(opt_faults, divergence.fault_id)
                case = _case_for(cases, divergence.case_id)
                _handle_divergence(config, report, program, descriptor, case,
                                   cases, divergence)
                if len(report.divergences) >= config.max_divergences:
                    break

    report.total_runs += oracle.runs
    report.extrapolated_runs += oracle.extrapolated
    report.aliased_traces += oracle.aliased
    report.adopted += oracle.adopted


# ---------------------------------------------------------------------------
# Source tier: every mutant binary must itself be engine-conformant
# ---------------------------------------------------------------------------


def _source_matrix(jobs_axis: tuple[int, ...]) -> list[MatrixConfig]:
    """The {engine} x {jobs} slice — snapshot/planner are machine-only."""
    return [
        MatrixConfig(engine=engine, jobs=jobs)
        for engine in ENGINES
        for jobs in jobs_axis
        if MatrixConfig(engine=engine, jobs=jobs) != BASE_CONFIG
    ]


def _source_records(compiled, cases, faults, matrix_config: MatrixConfig):
    runner = CampaignRunner(compiled, cases)
    result = runner.run(
        faults,
        config=CampaignConfig(
            jobs=matrix_config.jobs,
            engine=matrix_config.engine,
            tier=TIER_SOURCE,
        ),
    )
    return result.records


def _record_source_divergence(config: FuzzConfig, report: FuzzReport,
                              divergence: Divergence) -> None:
    """Append + announce; shrinker/artifacts are machine-descriptor tools."""
    report.divergences.append(divergence)
    _emit(config, f"divergence: {divergence.summary()}")


def _fuzz_source_program(config: FuzzConfig, report: FuzzReport,
                         clock: _Clock, index: int) -> None:
    from ..srcfi import (
        MutantCache,
        SourceLocator,
        SrcfiError,
        realize_source_fault,
        recompiled_identical,
    )

    program = generate_program(config.seed, index)
    compiled = compile_source(program.render(), program.name)
    cases = build_cases(compiled, config.seed, index, config.inputs_per_program)
    oracle = DifferentialOracle(compiled, cases, matrix=[])
    report.programs += 1

    # -- golden conformance: identical to the machine tier -----------
    golden_instructions = 0
    for case in cases:
        divergence, digests = oracle.check_state(None, case, budget=GOLDEN_BUDGET)
        golden_instructions = max(
            golden_instructions, digests[ENGINE_SIMPLE].instructions
        )
        report.state_cases += 1
        if divergence is not None:
            _record_source_divergence(config, report, divergence)
            report.total_runs += oracle.runs
            return
    budget = default_budget(golden_instructions)
    report.total_runs += oracle.runs

    # -- compiler axis: same observable contract at every opt level --
    _, opt_diverged = _check_opt_axis(
        config, report, clock, program, compiled, cases, budget
    )
    if opt_diverged:
        return

    # -- revert oracle: recompiling the unmutated tree is bit-identical
    if not recompiled_identical(compiled):
        _record_source_divergence(config, report, Divergence(
            tier="state", program=compiled.name, fault_id="revert",
            case_id="*", config_a=BASE_CONFIG, config_b=BASE_CONFIG,
            detail_a={"recompiled_identical": True},
            detail_b={"recompiled_identical": False},
            fields=["code", "data"],
        ))
        return

    # -- sample + realize source faults ------------------------------
    rng = random.Random(f"repro.verify.srcfaults:{config.seed}:{index}")
    all_faults = SourceLocator(compiled).source_faults()
    count = min(config.faults_per_program, len(all_faults))
    sampled = rng.sample(all_faults, count) if count else []
    mutants = []
    cache = MutantCache()
    for fault in sampled:
        try:
            mutants.append(realize_source_fault(compiled, fault, cache))
        except SrcfiError:
            report.skipped_faults += 1

    # -- state tier: cross-engine conformance of every mutant binary -
    program_diverged = False
    for mutant in mutants:
        mutant_oracle = DifferentialOracle(mutant.compiled, cases, matrix=[])
        for case in cases:
            if report.state_cases >= config.cases or clock.expired:
                break
            divergence, _ = mutant_oracle.check_state(None, case, budget=budget)
            report.state_cases += 1
            if divergence is not None:
                divergence = dataclasses.replace(
                    divergence, fault_id=mutant.fault.fault_id
                )
                _record_source_divergence(config, report, divergence)
                program_diverged = True
                break
        report.total_runs += mutant_oracle.runs
        if program_diverged:
            break

    # -- record tier: source campaigns across {engine} x {jobs} ------
    if config.record_tier and mutants and not program_diverged \
            and not clock.expired:
        faults = [mutant.fault for mutant in mutants]
        base_records = _source_records(compiled, cases, faults, BASE_CONFIG)
        report.total_runs += len(base_records)
        for matrix_config in _source_matrix(config.jobs_axis):
            records = _source_records(compiled, cases, faults, matrix_config)
            report.total_runs += len(records)
            report.record_campaigns += 1
            for divergence in oracle._compare(base_records, records,
                                              matrix_config):
                _record_source_divergence(config, report, divergence)
            if len(report.divergences) >= config.max_divergences:
                break


def _descriptor_for(faults, fault_id: str) -> MachineFaultRecipe | None:
    for spec, descriptor in faults:
        if spec.fault_id == fault_id:
            return descriptor
    return None


def _case_for(cases: list[InputCase], case_id: str) -> InputCase:
    for case in cases:
        if case.case_id == case_id:
            return case
    return cases[0]


# ---------------------------------------------------------------------------
# Divergence handling: shrink, then persist
# ---------------------------------------------------------------------------


def _handle_divergence(config: FuzzConfig, report: FuzzReport,
                       program: GenProgram, descriptor: MachineFaultRecipe | None,
                       case: InputCase, cases: list[InputCase],
                       divergence: Divergence) -> None:
    report.divergences.append(divergence)
    _emit(config, f"divergence: {divergence.summary()}")
    shrink = None
    final_program = program
    final_descriptor = descriptor
    if config.shrink:
        predicate = make_predicate(case, divergence)
        shrink = shrink_case(program, descriptor, predicate,
                             max_checks=config.max_shrink_checks)
        report.shrinks.append(shrink)
        final_program = shrink.program
        final_descriptor = shrink.descriptor
        _emit(config, f"shrunk to {shrink.statements_after} statements")
    if config.artifact_dir is not None:
        paths = write_artifact(
            Path(config.artifact_dir),
            ordinal=len(report.divergences) - 1,
            divergence=divergence,
            program=final_program,
            descriptor=final_descriptor,
            case=case,
            shrink=shrink,
        )
        report.artifacts.extend(paths)


def make_predicate(case: InputCase, divergence: Divergence):
    """The shrinker's "does this variant still diverge?" check.

    A candidate must compile, exit cleanly fault-free, keep the fault
    descriptor realizable, and reproduce a mismatch between the two
    configurations named by the original divergence.  Compile errors and
    unrealizable descriptors mean "does not fail" — the shrinker rolls
    that edit back.
    """

    def still_fails(program: GenProgram,
                    descriptor: MachineFaultRecipe | None) -> bool:
        try:
            compiled = compile_source(program.render(), program.name)
        except Exception:
            return False
        golden = run_state(compiled.executable, None, case,
                           budget=GOLDEN_BUDGET, engine=ENGINE_SIMPLE)
        if golden.status != "exited" or golden.exit_code != 0:
            return False
        budget = default_budget(golden.instructions)
        if divergence.tier == "opt":
            return _opt_still_fails(program, compiled, case, divergence,
                                    budget)
        if divergence.config_b.opt != 0:
            # A record-tier divergence found on the optimized binary:
            # rebuild the variant at that level before comparing configs.
            try:
                compiled = compile_source(program.render(), program.name,
                                          opt_level=divergence.config_b.opt)
            except Exception:
                return False
            golden = run_state(compiled.executable, None, case,
                               budget=GOLDEN_BUDGET, engine=ENGINE_SIMPLE)
            if golden.status != "exited" or golden.exit_code != 0:
                return False
            budget = default_budget(golden.instructions)
        spec = None
        if descriptor is not None:
            try:
                spec = descriptor.realize(compiled, golden.instructions)
            except SamplerError:
                return False
        replay_case = InputCase(case.case_id, case.pokes,
                                _golden_console(compiled, case.pokes))
        return check_configs(compiled, spec, replay_case,
                             divergence.config_a, divergence.config_b,
                             budget=budget, tier=divergence.tier)

    return still_fails


def _opt_still_fails(program: GenProgram, compiled, case: InputCase,
                     divergence: Divergence, budget: int) -> bool:
    """Does a shrink variant still reproduce an O0-vs-O1 divergence?

    A variant whose original failure was an O1 compile error still fails
    while O1 compilation keeps erroring; an observable-mismatch original
    still fails while the two binaries disagree on the recorded engine.
    """
    level = divergence.config_b.opt
    try:
        recompiled = compile_source(program.render(), program.name,
                                    opt_level=level)
    except Exception:
        return "compile" in divergence.fields
    if "compile" in divergence.fields:
        return False
    engine = divergence.config_b.engine
    replay_case = InputCase(case.case_id, case.pokes, b"")
    base = _observable_state(compiled, replay_case, budget=budget,
                             engine=engine)
    other = _observable_state(recompiled, replay_case, budget=budget,
                              engine=engine)
    return bool(_opt_divergence_fields(base, other))


def check_configs(compiled, spec, case: InputCase, config_a: MatrixConfig,
                  config_b: MatrixConfig, *, budget: int, tier: str) -> bool:
    """True when the two configurations disagree on this single case."""
    if tier == "state":
        oracle = DifferentialOracle(
            compiled, [case], matrix=[],
            state_engines=(config_a.engine, config_b.engine),
        )
        divergence, _ = oracle.check_state(spec, case, budget=budget)
        return divergence is not None
    oracle = DifferentialOracle(compiled, [case], matrix=[config_a, config_b])
    try:
        divergences = oracle.check_records([spec] if spec is not None else [])
    except CampaignError:
        return False
    return bool(divergences)
