"""Campaign plans: how a campaign's runs partitioned across the planner.

A :class:`CampaignPlan` summarizes one campaign as three disjoint
partitions — ``pruned`` (records synthesized by the dormancy prover),
``memoized`` (records replayed from the outcome memo) and ``executed``
(real runs) — with a per-fault-class breakdown.  The partition is read
off the records themselves via the ``provenance`` field, so a plan can
be rebuilt from any record list, a finished :class:`CampaignResult`, or
a campaign journal on disk (``repro plan report DIR``).

Campaigns running with a journal also append one schema-additive
``{"type": "plan"}`` line at completion; the report renderer shows it as
a cross-check but always derives its numbers from the run records, so
totals equal the journal's record count by construction.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from ..swifi.campaign import PROVENANCE_EXECUTED, RunRecord

#: provenance values, in partition order; an extrapolated record is a
#: real run and counts as executed
PROVENANCE_PRUNED = "pruned"
PROVENANCE_MEMOIZED = "memoized"
PROVENANCES = (PROVENANCE_PRUNED, PROVENANCE_MEMOIZED, PROVENANCE_EXECUTED)

#: metadata keys tried, in order, to label a record's fault class
CLASS_KEYS = ("klass", "strategy", "kind")
UNCLASSIFIED = "unclassified"


def record_class(record: RunRecord) -> str:
    meta = record.meta
    for key in CLASS_KEYS:
        value = meta.get(key)
        if value:
            return str(value)
    return UNCLASSIFIED


@dataclass
class CampaignPlan:
    """Pruned / memoized / executed partition of one campaign's runs."""

    pruned: int = 0
    memoized: int = 0
    executed: int = 0
    by_class: dict[str, dict[str, int]] = field(default_factory=dict)

    @property
    def total(self) -> int:
        return self.pruned + self.memoized + self.executed

    @property
    def executed_fraction(self) -> float:
        return self.executed / self.total if self.total else 0.0

    def add(self, record: RunRecord) -> None:
        provenance = record.provenance
        if provenance not in PROVENANCES:
            provenance = PROVENANCE_EXECUTED
        if provenance == PROVENANCE_PRUNED:
            self.pruned += 1
        elif provenance == PROVENANCE_MEMOIZED:
            self.memoized += 1
        else:
            self.executed += 1
        klass = record_class(record)
        row = self.by_class.setdefault(
            klass, {p: 0 for p in PROVENANCES}
        )
        row[provenance] += 1

    def merge(self, other: "CampaignPlan") -> None:
        self.pruned += other.pruned
        self.memoized += other.memoized
        self.executed += other.executed
        for klass, row in other.by_class.items():
            mine = self.by_class.setdefault(
                klass, {p: 0 for p in PROVENANCES}
            )
            for provenance, count in row.items():
                mine[provenance] = mine.get(provenance, 0) + count

    def to_dict(self) -> dict:
        return {
            "pruned": self.pruned,
            "memoized": self.memoized,
            "executed": self.executed,
            "total": self.total,
            "by_class": {
                klass: dict(row) for klass, row in sorted(self.by_class.items())
            },
        }

    @staticmethod
    def from_dict(payload: dict) -> "CampaignPlan":
        plan = CampaignPlan(
            pruned=payload.get("pruned", 0),
            memoized=payload.get("memoized", 0),
            executed=payload.get("executed", 0),
        )
        for klass, row in (payload.get("by_class") or {}).items():
            plan.by_class[klass] = {
                p: int(row.get(p, 0)) for p in PROVENANCES
            }
        return plan


def plan_from_records(records) -> CampaignPlan:
    """Partition any iterable of run records by provenance."""
    plan = CampaignPlan()
    for record in records:
        plan.add(record)
    return plan


# ---------------------------------------------------------------------------
# Journal-backed plan reports: ``repro plan report DIR``
# ---------------------------------------------------------------------------


@dataclass
class JournalPlanSummary:
    """One journal directory's plan partition."""

    directory: str
    label: str
    record_count: int
    plan: CampaignPlan
    #: the journal's own {"type": "plan"} summary line, when present
    journaled_plan: dict | None


@dataclass
class PlanReport:
    root: str
    journals: list[JournalPlanSummary]

    @property
    def record_count(self) -> int:
        return sum(journal.record_count for journal in self.journals)

    def merged_plan(self) -> CampaignPlan:
        merged = CampaignPlan()
        for journal in self.journals:
            merged.merge(journal.plan)
        return merged


def build_plan_report(root: str) -> PlanReport:
    """Partition every journal under *root* by record provenance."""
    from ..observability.report import RUNS_FILENAME, find_journal_dirs
    from ..orchestrator.journal import load_runs_file

    directories = find_journal_dirs(root)
    if not directories:
        raise FileNotFoundError(
            f"no campaign journal ({RUNS_FILENAME}) found under {root!r}"
        )
    journals = []
    for directory in directories:
        state = load_runs_file(os.path.join(directory, RUNS_FILENAME))
        plan = plan_from_records(
            record for _, record in sorted(state.records.items())
        )
        label = os.path.relpath(directory, root)
        journals.append(
            JournalPlanSummary(
                directory=directory,
                label=label if label != "." else os.path.basename(
                    os.path.abspath(root)
                ),
                record_count=len(state.records),
                plan=plan,
                journaled_plan=state.plan,
            )
        )
    return PlanReport(root=root, journals=journals)


def render_plan_report(report: PlanReport) -> str:
    merged = report.merged_plan()
    total = merged.total or 1
    lines = [f"Plan report — {report.root}"]
    lines.append(
        f"  journals: {len(report.journals)}   journaled runs: "
        f"{report.record_count}   pruned: {merged.pruned} "
        f"({100.0 * merged.pruned / total:.1f}%)   memoized: "
        f"{merged.memoized} ({100.0 * merged.memoized / total:.1f}%)   "
        f"executed: {merged.executed} "
        f"({100.0 * merged.executed / total:.1f}%)"
    )
    for journal in report.journals:
        plan = journal.plan
        note = "" if journal.journaled_plan is not None else "  [no plan line]"
        lines.append(
            f"    {journal.label}: {journal.record_count} runs, "
            f"pruned={plan.pruned} memoized={plan.memoized} "
            f"executed={plan.executed}{note}"
        )
    lines.append("")
    lines.append("  Partition by fault class")
    lines.append(
        f"    {'class':<28} {'runs':>8} {'pruned':>8} {'memoized':>9} "
        f"{'executed':>9} {'exec %':>7}"
    )
    for klass, row in sorted(merged.by_class.items()):
        class_total = sum(row.values()) or 1
        lines.append(
            f"    {klass:<28} {sum(row.values()):>8} "
            f"{row[PROVENANCE_PRUNED]:>8} {row[PROVENANCE_MEMOIZED]:>9} "
            f"{row[PROVENANCE_EXECUTED]:>9} "
            f"{100.0 * row[PROVENANCE_EXECUTED] / class_total:>6.1f}%"
        )
    lines.append(
        f"    {'total':<28} {merged.total:>8} {merged.pruned:>8} "
        f"{merged.memoized:>9} {merged.executed:>9} "
        f"{100.0 * merged.executed / total:>6.1f}%"
    )
    return "\n".join(lines)


__all__ = [
    "CLASS_KEYS",
    "CampaignPlan",
    "JournalPlanSummary",
    "PROVENANCES",
    "PROVENANCE_EXECUTED",
    "PROVENANCE_MEMOIZED",
    "PROVENANCE_PRUNED",
    "PlanReport",
    "build_plan_report",
    "plan_from_records",
    "record_class",
    "render_plan_report",
]
