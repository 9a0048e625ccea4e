"""§6 — the class-emulation injection campaigns behind Figures 7-10.

One campaign = one Table-2 program × one fault class: the §6.3 rules
generate the error set, every fault runs against every input data set of
the family test case (same inputs across all programs of a family, as in
the paper), the machine is rebooted between runs, and outcomes are
classified into the four failure modes.

The aggregations match the paper's figures:

* :meth:`Section6Results.series_by_program` — Figures 7 and 8;
* :meth:`Section6Results.series_by_error_label` — Figures 9 and 10.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field

from ..emulation.operators import ASSIGNMENT_CLASS, CHECKING_CLASS
from ..emulation.rules import generate_error_set
from ..persist import atomic_write_json
from ..swifi.campaign import (
    SNAPSHOT_OFF,
    CampaignConfig,
    CampaignRunner,
    RunRecord,
)
from ..swifi.spec import TIER_MACHINE, TIER_SOURCE, TIERS
from ..swifi.outcomes import MODE_ORDER, FailureMode
from ..workloads import table2_workloads
from .config import ExperimentConfig

FAULT_CLASSES = (ASSIGNMENT_CLASS, CHECKING_CLASS)


@dataclass
class ProgramCampaign:
    program: str
    klass: str
    possible_locations: int
    chosen_locations: int
    fault_count: int
    records: list[RunRecord] = field(default_factory=list)


@dataclass
class Section6Results:
    campaigns: list[ProgramCampaign] = field(default_factory=list)

    # -- record access ----------------------------------------------------

    def records(self, klass: str | None = None,
                program: str | None = None) -> list[RunRecord]:
        out: list[RunRecord] = []
        for campaign in self.campaigns:
            if klass is not None and campaign.klass != klass:
                continue
            if program is not None and campaign.program != program:
                continue
            out.extend(campaign.records)
        return out

    @property
    def total_runs(self) -> int:
        return sum(len(campaign.records) for campaign in self.campaigns)

    # -- aggregations ------------------------------------------------------

    @staticmethod
    def _percentages(records: list[RunRecord]) -> dict[FailureMode, float]:
        total = len(records) or 1
        return {
            mode: 100.0 * sum(1 for r in records if r.mode == mode) / total
            for mode in MODE_ORDER
        }

    def series_by_program(self, klass: str) -> dict[str, dict[FailureMode, float]]:
        """Figure 7 (assignment) / Figure 8 (checking) data."""
        series = {}
        for campaign in self.campaigns:
            if campaign.klass != klass:
                continue
            series.setdefault(campaign.program, [])
            series[campaign.program].extend(campaign.records)
        return {program: self._percentages(records) for program, records in series.items()}

    def series_by_error_label(self, klass: str) -> dict[str, dict[FailureMode, float]]:
        """Figure 9 (assignment) / Figure 10 (checking) data."""
        by_label: dict[str, list[RunRecord]] = {}
        for record in self.records(klass=klass):
            label = str(record.meta.get("error_label"))
            by_label.setdefault(label, []).append(record)
        return {label: self._percentages(records) for label, records in by_label.items()}

    def activated_fraction(self, klass: str | None = None) -> float:
        """Share of runs in which the fault trigger actually fired."""
        records = self.records(klass=klass)
        if not records:
            return 0.0
        return sum(1 for r in records if r.injections > 0) / len(records)

    def correct_with_activation_fraction(self, klass: str | None = None) -> float:
        """Share of runs that were Correct although the error was injected.

        The paper highlights these: "when the result of the programs is
        correct the faulty code ... has been executed.  Thus, the reasons
        why the error generated did not affect the results are related to
        the input data sets."
        """
        records = self.records(klass=klass)
        correct = [r for r in records if r.mode == FailureMode.CORRECT]
        if not correct:
            return 0.0
        return sum(1 for r in correct if r.injections > 0) / len(correct)

    # -- persistence --------------------------------------------------------

    def to_json(self, path: str) -> None:
        payload = [
            {
                "program": campaign.program,
                "klass": campaign.klass,
                "possible": campaign.possible_locations,
                "chosen": campaign.chosen_locations,
                "faults": campaign.fault_count,
                "records": [record.to_dict() for record in campaign.records],
            }
            for campaign in self.campaigns
        ]
        atomic_write_json(path, payload)

    @staticmethod
    def from_json(path: str) -> "Section6Results":
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        results = Section6Results()
        for entry in payload:
            results.campaigns.append(
                ProgramCampaign(
                    program=entry["program"],
                    klass=entry["klass"],
                    possible_locations=entry["possible"],
                    chosen_locations=entry["chosen"],
                    fault_count=entry["faults"],
                    records=[RunRecord.from_dict(r) for r in entry["records"]],
                )
            )
        return results


def run_section6(
    config: ExperimentConfig | None = None,
    *,
    programs: list[str] | None = None,
    classes: tuple[str, ...] = FAULT_CLASSES,
    strategy: str = "databus",
    progress=None,
    jobs: int = 1,
    journal_dir: str | None = None,
    resume: bool = False,
    telemetry=None,
    snapshot: str = SNAPSHOT_OFF,
    trace: bool = False,
    engine: str = CampaignConfig.engine,
    prune: bool = False,
    memoize: bool = False,
    memo_dir: str | None = None,
    plan_verify: float = 0.0,
    tier: str = TIER_MACHINE,
) -> Section6Results:
    """Run the §6 campaigns over the Table-2 programs.

    ``jobs`` > 1 executes each campaign through the orchestrator's worker
    pool; results are bit-identical to ``jobs=1`` for the same config.
    With ``journal_dir`` set, every (program, fault class) campaign
    journals into its own subdirectory (``<dir>/<program>__<klass>/``) so
    a killed invocation re-run with ``resume=True`` skips every journaled
    run.  ``telemetry`` is a :class:`repro.orchestrator.TelemetrySink`
    shared by all campaigns (each begins/finishes with its own label).
    ``snapshot`` selects the golden-run restore fast path
    (off / auto / verify); outcomes are bit-identical either way.
    ``trace`` records per-run span traces into each campaign's journal
    and telemetry (``repro trace report <journal_dir>`` reads them back).
    ``engine`` picks the machine execution engine (simple / trace);
    the default ``"auto"`` runs each single-core program on trace and
    the multi-core SOR on simple.  The compiled engine is faster but
    bit-identical, so figures never change.
    ``prune``/``memoize``/``memo_dir``/``plan_verify`` drive the campaign
    planner (:mod:`repro.planning`): statically pruned and memoized runs
    synthesize their records without booting, bit-identical by
    construction and spot-checkable via ``plan_verify``.
    ``tier`` selects the injection tier: ``"machine"`` (Table-3 SWIFI
    rewrites, the default) or ``"source"`` (:mod:`repro.srcfi` mutation
    operators compiled into mutant binaries).  Snapshot restore and the
    campaign planner are machine-tier-only options.
    """
    config = config or ExperimentConfig()
    results = Section6Results()
    for spec in iter_section6_campaigns(
        config, programs=programs, classes=classes, strategy=strategy, tier=tier
    ):
        campaign = ProgramCampaign(
            program=spec.program,
            klass=spec.klass,
            possible_locations=spec.error_set.possible_locations,
            chosen_locations=spec.error_set.chosen_locations,
            fault_count=len(spec.error_set.faults),
        )
        campaign_journal = None
        if journal_dir is not None:
            campaign_journal = os.path.join(journal_dir, spec.journal_name)
        outcome = spec.runner.run(
            spec.error_set.faults,
            progress=progress,
            config=CampaignConfig(
                jobs=jobs,
                journal_dir=campaign_journal,
                resume=resume,
                seed=config.seed,
                snapshot=snapshot,
                telemetry=telemetry,
                label=spec.label,
                trace=trace,
                engine=engine,
                prune=prune,
                memoize=memoize,
                memo_dir=memo_dir,
                plan_verify=plan_verify,
                tier=tier,
            ),
        )
        campaign.records = outcome.records
        results.campaigns.append(campaign)
    return results


@dataclass
class CampaignSpec:
    """One (program, fault class) campaign, fully built but not yet run.

    The enumeration order and RNG consumption of
    :func:`iter_section6_campaigns` are part of the campaign identity:
    the distributed service's ``repro submit`` builds its submissions
    through the same generator, so a campaign submitted to a broker is
    bit-identical — same fault ids, same cases, same seed derivation —
    to the one ``run_section6`` would execute locally.  ``runner`` is
    shared across the classes of one workload (budget calibration is
    per-program, not per-class).
    """

    program: str
    klass: str
    error_set: object
    runner: CampaignRunner
    seed: int

    @property
    def label(self) -> str:
        return f"{self.program}/{self.klass}"

    @property
    def journal_name(self) -> str:
        return f"{self.program}__{self.klass}"


def iter_section6_campaigns(
    config: ExperimentConfig | None = None,
    *,
    programs: list[str] | None = None,
    classes: tuple[str, ...] = FAULT_CLASSES,
    strategy: str = "databus",
    tier: str = TIER_MACHINE,
):
    """Yield the §6 campaigns over the Table-2 programs, in run order."""
    if tier not in TIERS:
        raise ValueError(f"tier must be one of {TIERS}, got {tier!r}")
    config = config or ExperimentConfig()
    for workload in table2_workloads():
        if programs is not None and workload.name not in programs:
            continue
        compiled = workload.compiled()
        cases = workload.make_cases(config.campaign_inputs, seed=config.seed + 17)
        runner = CampaignRunner(
            compiled,
            cases,
            num_cores=workload.num_cores,
            budget_factor=config.budget_factor,
        )
        rng = random.Random(config.seed + 31)
        for klass in classes:
            if tier == TIER_SOURCE:
                from ..srcfi import generate_source_error_set

                error_set = generate_source_error_set(
                    compiled,
                    klass,
                    max_locations=config.chosen_locations(workload.name, klass),
                    rng=rng,
                )
            else:
                error_set = generate_error_set(
                    compiled,
                    klass,
                    max_locations=config.chosen_locations(workload.name, klass),
                    rng=rng,
                    strategy=strategy,
                )
            yield CampaignSpec(
                program=workload.name,
                klass=klass,
                error_set=error_set,
                runner=runner,
                seed=config.seed,
            )
