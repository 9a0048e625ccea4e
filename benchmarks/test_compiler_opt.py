"""The optimizing middle-end's acceptance numbers.

Three claims, measured side by side on the full workload registry and
published to ``results/BENCH_compiler_opt.{json,txt}``:

* **fewer instructions** — O1 must retire at least
  ``REPRO_OPT_RETIRED_FLOOR`` (default 30%) fewer instructions than O0,
  averaged over every registry workload (macro-average, so one
  long-running Camelot team cannot mask a regression in the others; the
  pooled total is recorded alongside);
* **same observables** — console bytes and exit code are bit-identical
  between the two levels on every execution engine (simple, trace);
  the optimizer's whole correctness story is "same observables, fewer
  instructions";
* **cheaper campaigns** — a small fig7-style assignment campaign against
  the O1 binary finishes no slower than against O0 (wall-clocks for both
  are recorded; the floor is deliberately loose since the campaign is
  dominated by boot cost, not retired instructions).

The paper's tables and figures stay defined on the O0 binaries; this
bench is about the *optimizer*, not the paper artefacts.
"""

import os
import random
import time

from repro.emulation.rules import generate_error_set
from repro.machine import ENGINE_SIMPLE, ENGINES, boot
from repro.swifi import CampaignConfig, CampaignRunner
from repro.workloads import all_workloads, get_workload

RETIRED_FLOOR = float(os.environ.get("REPRO_OPT_RETIRED_FLOOR", "0.30"))
RUN_BUDGET = 50_000_000
CAMPAIGN_PROGRAM = "JB.team6"


def _observables(compiled, case, engine):
    machine = boot(compiled.executable, inputs=dict(case.pokes), engine=engine)
    result = machine.run(RUN_BUDGET)
    assert result.status == "exited", (compiled.name, engine, result.status)
    return result.exit_code, bytes(machine.console), result.instructions


def _fig7_campaign_seconds(workload, level):
    compiled = workload.compiled(opt_level=level)
    cases = workload.make_cases(4, seed=0)
    error_set = generate_error_set(
        compiled, "assignment", max_locations=4, rng=random.Random(3)
    )
    runner = CampaignRunner(compiled, cases)
    started = time.perf_counter()
    result = runner.run(error_set.faults,
                        config=CampaignConfig(opt_level=level))
    elapsed = time.perf_counter() - started
    return elapsed, len(result.records)


def test_compiler_opt(save_result):
    per_workload = {}
    total = {0: 0, 1: 0}
    for workload in all_workloads():
        case = workload.make_cases(1, seed=0)[0]
        retired = {}
        reference = None
        for level in (0, 1):
            compiled = workload.compiled(opt_level=level)
            for engine in ENGINES:
                exit_code, console, instructions = _observables(
                    compiled, case, engine
                )
                # Observable contract: every engine x level combination
                # agrees bit-for-bit on console and exit code.
                if reference is None:
                    reference = (exit_code, console)
                assert (exit_code, console) == reference, (
                    workload.name, level, engine
                )
                if engine == ENGINE_SIMPLE:
                    retired[level] = instructions
        reduction = 1.0 - retired[1] / retired[0]
        per_workload[workload.name] = {
            "retired_o0": retired[0],
            "retired_o1": retired[1],
            "reduction": round(reduction, 4),
        }
        total[0] += retired[0]
        total[1] += retired[1]

    total_reduction = 1.0 - total[1] / total[0]
    mean_reduction = sum(
        row["reduction"] for row in per_workload.values()
    ) / len(per_workload)

    # The fig7-campaign wall-clock row: same program, both binaries.
    campaign = get_workload(CAMPAIGN_PROGRAM)
    o0_seconds, o0_runs = _fig7_campaign_seconds(campaign, 0)
    o1_seconds, o1_runs = _fig7_campaign_seconds(campaign, 1)

    data = {
        "retired_floor": RETIRED_FLOOR,
        "workloads": per_workload,
        "total_retired_o0": total[0],
        "total_retired_o1": total[1],
        "total_reduction": round(total_reduction, 4),
        "mean_reduction": round(mean_reduction, 4),
        "engines_checked": list(ENGINES),
        "observables_identical": True,
        "fig7_campaign": {
            "program": CAMPAIGN_PROGRAM,
            "o0_seconds": round(o0_seconds, 3),
            "o1_seconds": round(o1_seconds, 3),
            "o0_runs": o0_runs,
            "o1_runs": o1_runs,
        },
    }

    lines = ["compiler optimization - retired instructions, O0 vs O1", ""]
    for name, row in sorted(per_workload.items()):
        lines.append(
            f"  {name:<10} O0 {row['retired_o0']:>10}   "
            f"O1 {row['retired_o1']:>10}   "
            f"(-{100.0 * row['reduction']:5.1f}%)"
        )
    lines.append(
        f"  {'total':<10} O0 {total[0]:>10}   O1 {total[1]:>10}   "
        f"(-{100.0 * total_reduction:5.1f}% pooled)"
    )
    lines.append(
        f"  per-workload mean reduction: {100.0 * mean_reduction:5.1f}% "
        f"(floor {100.0 * RETIRED_FLOOR:.0f}%)"
    )
    lines.append(
        "  observables: console + exit code bit-identical on "
        f"{', '.join(ENGINES)} at both levels"
    )
    lines.append(
        f"  fig7 campaign ({CAMPAIGN_PROGRAM}, assignment): "
        f"O0 {o0_seconds:6.2f}s ({o0_runs} runs)   "
        f"O1 {o1_seconds:6.2f}s ({o1_runs} runs)"
    )
    save_result("BENCH_compiler_opt", "\n".join(lines), data)

    assert mean_reduction >= RETIRED_FLOOR, (
        f"expected O1 to retire >= {100 * RETIRED_FLOOR:.0f}% fewer "
        f"instructions than O0 across the registry, measured "
        f"{100 * mean_reduction:.1f}% mean "
        f"({100 * total_reduction:.1f}% pooled)"
    )
    # No single workload may regress past break-even.
    worst = min(per_workload.items(), key=lambda kv: kv[1]["reduction"])
    assert worst[1]["reduction"] > 0.0, worst
    # The campaign row is informational, but an O1 campaign collapsing
    # (e.g. every record hitting the hang budget) must fail loudly.
    assert o1_runs == o0_runs
    assert o1_seconds <= o0_seconds * 2.0
