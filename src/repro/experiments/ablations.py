"""Design-choice ablations called out in DESIGN.md.

**A1 — metric-guided fault allocation (§6.1).**  When field data is
unavailable, the paper proposes complexity metrics to decide how many
faults each program/module receives.  The ablation compares the
allocations produced by every strategy (uniform / LoC / McCabe / Halstead
volume / actual fault-site counts) over the Table-2 programs; the useful
property to observe is how closely cheap static metrics track the true
fault-site density ("sites").

**A2 — trigger representativeness (§6.4).**  The paper blames the
observed "much stronger impact than typical software faults" on the fault
triggers: injecting on *every* execution of the trigger instruction makes
p1 = p2 = 1.  The ablation re-runs one error set under different When
policies (every / only the first / only the n-th activation) and compares
the failure-mode mix — later/ rarer injections leave more runs correct,
moving the distribution toward the Table-1 behaviour of real faults.

**A3 — software vs hardware fault populations (§6.4).**  "The injected
errors also emulate hardware faults ... the failure modes observed have
the contribution of the hardware faults that are also emulated by the
injected errors."  The ablation runs a classic random hardware-fault
population (random bit flips, random triggers) next to the §6.3 software
error set on the same program and inputs and compares the mixes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..analysis.stats import total_variation
from ..analysis.tables import render_table
from ..emulation.locator import FaultLocator
from ..emulation.operators import ASSIGNMENT_CLASS, CHECKING_CLASS
from ..emulation.rules import generate_error_set
from ..metrics.guidance import STRATEGIES, allocation_table
from ..swifi.campaign import (
    SNAPSHOT_OFF,
    CampaignConfig,
    CampaignRunner,
)
from ..swifi.faults import WhenPolicy
from ..swifi.hardware import HardwareFaultModel, generate_hardware_fault_set
from ..swifi.outcomes import MODE_ORDER, FailureMode
from ..workloads import get_workload, table2_workloads
from .config import ExperimentConfig


# ---------------------------------------------------------------------------
# A1 — metric guidance
# ---------------------------------------------------------------------------

@dataclass
class MetricGuidanceResult:
    total_faults: int
    allocations: dict[str, dict[str, int]]  # strategy -> program -> faults

    def render(self) -> str:
        programs = list(next(iter(self.allocations.values())))
        rows = []
        for program in programs:
            rows.append(
                [program] + [self.allocations[s][program] for s in STRATEGIES]
            )
        return render_table(
            ["Program"] + list(STRATEGIES),
            rows,
            title=(
                f"Ablation A1 - allocating {self.total_faults} faults by metric "
                "(S6.1: metrics replace field data)"
            ),
        )

    def rank_correlation(self, first: str, second: str) -> float:
        """Spearman rank correlation between two strategies' allocations."""
        a = self.allocations[first]
        b = self.allocations[second]
        programs = list(a)
        def ranks(values: dict[str, int]) -> dict[str, float]:
            ordered = sorted(programs, key=lambda p: values[p])
            out: dict[str, float] = {}
            index = 0
            while index < len(ordered):
                j = index
                while j + 1 < len(ordered) and values[ordered[j + 1]] == values[ordered[index]]:
                    j += 1
                rank = (index + j) / 2.0
                for k in range(index, j + 1):
                    out[ordered[k]] = rank
                index = j + 1
            return out
        ra, rb = ranks(a), ranks(b)
        n = len(programs)
        if n < 2:
            return 1.0
        mean = (n - 1) / 2.0
        cov = sum((ra[p] - mean) * (rb[p] - mean) for p in programs)
        var_a = sum((ra[p] - mean) ** 2 for p in programs)
        var_b = sum((rb[p] - mean) ** 2 for p in programs)
        if var_a == 0 or var_b == 0:
            return 0.0
        return cov / (var_a * var_b) ** 0.5


def run_metric_guidance(total_faults: int = 100) -> MetricGuidanceResult:
    programs = [workload.compiled() for workload in table2_workloads()]
    return MetricGuidanceResult(
        total_faults=total_faults,
        allocations=allocation_table(programs, total_faults),
    )


# ---------------------------------------------------------------------------
# A2 — trigger representativeness
# ---------------------------------------------------------------------------

@dataclass
class TriggerAblationResult:
    program: str
    policies: dict[str, dict[FailureMode, float]] = field(default_factory=dict)
    activated: dict[str, float] = field(default_factory=dict)

    def render(self) -> str:
        rows = []
        for policy, distribution in self.policies.items():
            rows.append(
                [policy]
                + [f"{distribution.get(mode, 0.0):.1f}%" for mode in MODE_ORDER]
                + [f"{100 * self.activated.get(policy, 0.0):.0f}%"]
            )
        return render_table(
            ["When policy"] + [mode.label for mode in MODE_ORDER] + ["Runs w/ injection"],
            rows,
            title=(
                f"Ablation A2 - failure modes vs trigger When policy ({self.program})"
            ),
        )

    def correct_share(self, policy: str) -> float:
        return self.policies.get(policy, {}).get(FailureMode.CORRECT, 0.0)


def run_trigger_ablation(
    config: ExperimentConfig | None = None,
    *,
    program: str = "JB.team6",
    klass: str = ASSIGNMENT_CLASS,
    nth: int = 40,
    jobs: int = 1,
    snapshot: str = SNAPSHOT_OFF,
    engine: str = CampaignConfig.engine,
) -> TriggerAblationResult:
    """Re-run one error set under different When policies."""
    config = config or ExperimentConfig()
    workload = get_workload(program)
    compiled = workload.compiled()
    cases = workload.make_cases(config.ablation_inputs, seed=config.seed + 5)
    runner = CampaignRunner(
        compiled, cases, num_cores=workload.num_cores, budget_factor=config.budget_factor
    )
    locator = FaultLocator(compiled)
    rng = random.Random(config.seed + 7)
    locations = locator.locations(klass)
    chosen = rng.sample(locations, min(config.ablation_faults, len(locations)))

    policies = {
        "every execution": WhenPolicy.every(),
        "first execution only": WhenPolicy.once(),
        f"{nth}th execution only": WhenPolicy.nth(nth),
    }
    result = TriggerAblationResult(program=program)
    for policy_name, when in policies.items():
        specs = []
        for location in chosen:
            specs.extend(
                locator.faults_for_location(location, rng=rng, when=when)
            )
        outcome = runner.run(
            specs,
            config=CampaignConfig(
                jobs=jobs, seed=config.seed, snapshot=snapshot,
                label=f"A2:{policy_name}", engine=engine,
            ),
        )
        result.policies[policy_name] = outcome.percentages()
        injected = sum(1 for record in outcome.records if record.injections > 0)
        result.activated[policy_name] = injected / len(outcome.records)
    return result


# ---------------------------------------------------------------------------
# A3 — software vs hardware fault populations
# ---------------------------------------------------------------------------

@dataclass
class HardwareComparisonResult:
    program: str
    populations: dict[str, dict[FailureMode, float]] = field(default_factory=dict)
    dormant: dict[str, float] = field(default_factory=dict)

    def render(self) -> str:
        rows = []
        for population, distribution in self.populations.items():
            rows.append(
                [population]
                + [f"{distribution.get(mode, 0.0):.1f}%" for mode in MODE_ORDER]
                + [f"{100 * self.dormant.get(population, 0.0):.0f}%"]
            )
        return render_table(
            ["Fault population"] + [mode.label for mode in MODE_ORDER] + ["Dormant"],
            rows,
            title=(
                f"Ablation A3 - software error sets vs random hardware faults "
                f"({self.program})"
            ),
        )

    def distance(self, first: str, second: str) -> float:
        return total_variation(self.populations[first], self.populations[second])


def run_hardware_comparison(
    config: ExperimentConfig | None = None,
    *,
    program: str = "JB.team6",
    hardware_faults: int = 24,
    jobs: int = 1,
    snapshot: str = SNAPSHOT_OFF,
    engine: str = CampaignConfig.engine,
) -> HardwareComparisonResult:
    """Run §6.3 software error sets and a random hardware population
    against the same program and inputs."""
    config = config or ExperimentConfig()
    workload = get_workload(program)
    compiled = workload.compiled()
    cases = workload.make_cases(config.ablation_inputs, seed=config.seed + 23)
    runner = CampaignRunner(
        compiled, cases, num_cores=workload.num_cores, budget_factor=config.budget_factor
    )
    rng = random.Random(config.seed + 29)
    runner.calibrate()

    result = HardwareComparisonResult(program=program)
    for klass in (ASSIGNMENT_CLASS, CHECKING_CLASS):
        error_set = generate_error_set(
            compiled, klass, max_locations=config.ablation_faults, rng=rng
        )
        outcome = runner.run(
            error_set.faults,
            config=CampaignConfig(
                jobs=jobs, seed=config.seed, snapshot=snapshot,
                label=f"A3:{klass}", engine=engine,
            ),
        )
        result.populations[f"software:{klass}"] = outcome.percentages()
        result.dormant[f"software:{klass}"] = outcome.dormant_fraction()

    model = HardwareFaultModel(temporal_window=max(
        10_000, min(runner.golden_instructions.values())
    ))
    hardware = generate_hardware_fault_set(compiled, hardware_faults, rng, model)
    outcome = runner.run(
        hardware,
        config=CampaignConfig(
            jobs=jobs, seed=config.seed, snapshot=snapshot,
            label="A3:hardware", engine=engine,
        ),
    )
    result.populations["hardware:random"] = outcome.percentages()
    result.dormant["hardware:random"] = outcome.dormant_fraction()
    return result
