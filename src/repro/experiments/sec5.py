"""§5 — emulation of the actual software faults.

For every real fault: build its Xception-style emulation, run the
*corrected* binary with the injected errors on the same inputs as the
*faulty* binary, and compare outputs run by run ("if the results are the
same in both runs it means Xception do emulate the fault accurately").

Verdicts reproduce the paper's three categories:

* **A** — accurately emulable with plain breakpoint-register injection
  (assignment and checking faults);
* **B** — emulable only with tool extensions: the trigger addresses
  outnumber the two breakpoint registers, so breakpoint-mode arming
  fails and the emulation needs inserted traps (intrusive) or the
  proposed memory-patch facility (JB.team6's stack-shift fault);
* **C** — not emulable by any machine-level SWIFI tool (algorithm and
  function faults) — per the field data, ~44% of software faults.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..analysis.tables import render_table
from ..emulation.realfaults import NotEmulableError, RealFault
from ..machine.debug import DebugResourceError
from ..machine.loader import boot
from ..machine.machine import ENGINE_AUTO, resolve_engine
from ..odc.field_data import FIELD_DISTRIBUTION, non_emulable_share
from ..odc.defect_types import DefectType
from ..swifi.injector import InjectionSession
from ..workloads import get_workload, real_faults
from .config import ExperimentConfig

CATEGORY_A = "A (emulable)"
CATEGORY_B = "B (needs tool extensions)"
CATEGORY_C = "C (not emulable)"


@dataclass
class Sec5Row:
    fault_id: str
    odc_type: DefectType
    category: str
    source_change: str
    paper_figure: str | None
    accuracy_by_mode: dict[str, float] = field(default_factory=dict)
    inputs_compared: int = 0
    not_emulable_reason: str | None = None
    breakpoint_error: str | None = None


@dataclass
class Sec5Result:
    rows: list[Sec5Row] = field(default_factory=list)

    def category_counts(self) -> dict[str, int]:
        counts = {CATEGORY_A: 0, CATEGORY_B: 0, CATEGORY_C: 0}
        for row in self.rows:
            counts[row.category] += 1
        return counts

    @property
    def field_share_not_emulable(self) -> float:
        """The headline ~44%: field share of algorithm+function faults."""
        return non_emulable_share()

    def render(self) -> str:
        table_rows = []
        for row in self.rows:
            if row.accuracy_by_mode:
                accuracy = "; ".join(
                    f"{mode}={100 * value:.0f}%" for mode, value in row.accuracy_by_mode.items()
                )
            else:
                accuracy = "-"
            table_rows.append(
                [
                    row.fault_id,
                    row.odc_type.value,
                    row.category,
                    accuracy,
                    row.paper_figure or "-",
                ]
            )
        rendered = render_table(
            ["Fault", "ODC type", "Verdict", "Emulation accuracy", "Paper figure"],
            table_rows,
            title="Section 5 - Emulation of the actual software faults",
        )
        counts = self.category_counts()
        summary = (
            f"\n\nCategories: A={counts[CATEGORY_A]}  B={counts[CATEGORY_B]}  "
            f"C={counts[CATEGORY_C]} of {len(self.rows)} real faults.\n"
            f"Field share of category-C fault types (algorithm+function): "
            f"{100 * self.field_share_not_emulable:.1f}% (paper: ~44%).\n"
            "Field distribution: "
            + ", ".join(
                f"{dt.value}={100 * share:.1f}%" for dt, share in FIELD_DISTRIBUTION.items()
            )
        )
        return rendered + summary


def _emulation_accuracy(fault: RealFault, mode: str, inputs: int, seed: int) -> float:
    """Fraction of inputs on which corrected+injection matches the faulty binary."""
    workload = get_workload(fault.program)
    corrected = workload.compiled()
    faulty = workload.compiled_faulty()
    specs = fault.build_emulation(corrected, mode=mode)
    rng = random.Random(seed)
    engine = resolve_engine(ENGINE_AUTO)
    matches = 0
    for _ in range(inputs):
        pokes = workload.generate_pokes(rng)
        faulty_machine = boot(faulty.executable, num_cores=workload.num_cores,
                              inputs=pokes, engine=engine)
        faulty_run = faulty_machine.run(max_instructions=100_000_000)
        emulated_machine = boot(
            corrected.executable, num_cores=workload.num_cores, inputs=pokes,
            engine=engine,
        )
        session = InjectionSession(emulated_machine)
        session.arm_all(specs)
        emulated_run = session.run(100_000_000)
        if (
            emulated_run.status == faulty_run.status
            and emulated_run.console == faulty_run.console
        ):
            matches += 1
    return matches / inputs if inputs else 0.0


def _probe_breakpoint_arming(fault: RealFault) -> str | None:
    """Arm the breakpoint-mode emulation on a scratch machine; return the error."""
    workload = get_workload(fault.program)
    corrected = workload.compiled()
    specs = fault.build_emulation(corrected, mode="breakpoint")
    rng = random.Random(0)
    machine = boot(
        corrected.executable,
        num_cores=workload.num_cores,
        inputs=workload.generate_pokes(rng),
    )
    session = InjectionSession(machine)
    try:
        session.arm_all(specs)
    except DebugResourceError as error:
        return str(error)
    return None


def run_sec5(config: ExperimentConfig | None = None) -> Sec5Result:
    config = config or ExperimentConfig()
    result = Sec5Result()
    for fault in real_faults():
        row = Sec5Row(
            fault_id=fault.fault_id,
            odc_type=fault.odc_type,
            category=CATEGORY_A,
            source_change=fault.source_change,
            paper_figure=fault.paper_figure,
            inputs_compared=config.sec5_inputs,
        )
        try:
            breakpoint_error = _probe_breakpoint_arming(fault)
        except NotEmulableError as error:
            row.category = CATEGORY_C
            row.not_emulable_reason = error.reason
            result.rows.append(row)
            continue
        if breakpoint_error is None:
            row.category = CATEGORY_A
            row.accuracy_by_mode["breakpoint"] = _emulation_accuracy(
                fault, "breakpoint", config.sec5_inputs, config.seed
            )
        else:
            row.category = CATEGORY_B
            row.breakpoint_error = breakpoint_error
            row.accuracy_by_mode["trap"] = _emulation_accuracy(
                fault, "trap", config.sec5_inputs, config.seed
            )
            row.accuracy_by_mode["memory"] = _emulation_accuracy(
                fault, "memory", config.sec5_inputs, config.seed
            )
        result.rows.append(row)
    return result
