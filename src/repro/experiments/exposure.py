"""Figure 2 — the software-fault exposure chain, measured.

§3 of the paper: "Assuming a fault exists, the probability of the faulty
code to be executed is p1.  If the faulty code is executed, the
probability of error generation is p2.  If errors are generated, the
probability of these errors resulting into a failure is p3.  Thus, the
probability of a software fault resulting into a failure is the product
of p1, p2, and p3.  Ideally, the fault trigger should reproduce the chain
reaction ... the need of accelerating the process suggests that errors
should be injected instead of faults (p1 = p2 = 1)."

This experiment puts numbers on that chain for the real faults: an
*observation probe* (a trigger with an identity corruption) sits on the
fault-site anchor of the corrected binary while random inputs run, giving

* ``p1``      — fraction of runs that execute the fault site at all;
* ``p-fail``  — fraction of runs where the *faulty* binary misbehaves;
* ``p2·p3``   — ``p-fail / p1``, the conditional failure probability.

The real faults' tiny p2·p3 against their p1 ≈ 1 is exactly why the §6
always-firing triggers (which force p1 = p2 = 1) hit so much harder than
real bugs — the quantitative backbone of the paper's conclusion about
fault triggers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..analysis.tables import render_table
from ..emulation.realfaults import NotEmulableError, SiteNotFound
from ..machine.loader import boot
from ..machine.machine import ENGINE_AUTO, resolve_engine
from ..swifi.faults import probe
from ..swifi.injector import InjectionSession
from ..workloads import get_workload, real_faults
from .config import ExperimentConfig


@dataclass
class ExposureRow:
    fault_id: str
    runs: int
    executed: int          # runs in which the fault-site anchor executed
    failures: int          # runs in which the faulty binary misbehaved
    mean_activations: float  # trigger firings per run (how hot the site is)

    @property
    def p1(self) -> float:
        return self.executed / self.runs if self.runs else 0.0

    @property
    def p_fail(self) -> float:
        return self.failures / self.runs if self.runs else 0.0

    @property
    def p2_p3(self) -> float:
        return self.p_fail / self.p1 if self.executed else 0.0


@dataclass
class ExposureResult:
    rows: list[ExposureRow] = field(default_factory=list)

    def render(self) -> str:
        table_rows = [
            [
                row.fault_id,
                row.runs,
                f"{row.p1:.2f}",
                f"{row.mean_activations:.0f}",
                f"{100 * row.p_fail:.1f}%",
                f"{100 * row.p2_p3:.1f}%",
            ]
            for row in self.rows
        ]
        rendered = render_table(
            ["Fault", "Runs", "p1 (site executed)", "Activations/run",
             "p(fail)", "p2*p3 = p(fail)/p1"],
            table_rows,
            title="Figure 2 - the exposure chain p1 * p2 * p3, measured",
        )
        return rendered + (
            "\n\nInjected error sets force p1 = p2 = 1 on every run; real"
            " faults reach the failure only through the full chain."
        )


def _site_address(fault, corrected) -> int | None:
    """The fault-site anchor in the corrected binary, when identifiable."""
    try:
        specs = fault.build_emulation(corrected)
        trigger = specs[0].trigger
        return getattr(trigger, "address", None)
    except NotEmulableError:
        return None
    except SiteNotFound:  # pragma: no cover - catalogue/program mismatch
        return None


def run_exposure(config: ExperimentConfig | None = None) -> ExposureResult:
    """Measure p1 and p2·p3 for every real fault with an emulable anchor.

    Algorithm faults have no single machine anchor (that is §5's point),
    so the chain is measured for the assignment/checking faults; run
    counts reuse the Table-1 configuration.
    """
    config = config or ExperimentConfig()
    result = ExposureResult()
    for fault in real_faults():
        workload = get_workload(fault.program)
        corrected = workload.compiled()
        address = _site_address(fault, corrected)
        if address is None:
            continue
        faulty = workload.compiled_faulty()
        runs = (
            max(10, config.table1_runs_camelot // 2)
            if workload.family == "camelot"
            else max(50, config.table1_runs_jamesb // 2)
        )
        rng = random.Random(config.seed + 41)
        engine = resolve_engine(ENGINE_AUTO, workload.num_cores)
        executed = failures = 0
        activations_total = 0
        for _ in range(runs):
            pokes = workload.generate_pokes(rng)
            expected = workload.oracle(pokes)
            # p1: probe the corrected binary (unperturbed semantics).
            machine = boot(corrected.executable, num_cores=workload.num_cores,
                           inputs=pokes, engine=engine)
            session = InjectionSession(machine)
            session.arm(probe("site", address))
            outcome = session.run(100_000_000)
            count = session.activation_count("site")
            if count:
                executed += 1
                activations_total += count
            assert outcome.console == expected  # the probe must not perturb
            # p(fail): the faulty binary on the same input.
            machine = boot(faulty.executable, num_cores=workload.num_cores,
                           inputs=pokes, engine=engine)
            outcome = machine.run(100_000_000)
            if outcome.status != "exited" or outcome.console != expected:
                failures += 1
        result.rows.append(
            ExposureRow(
                fault_id=fault.fault_id,
                runs=runs,
                executed=executed,
                failures=failures,
                mean_activations=activations_total / max(1, executed),
            )
        )
    return result
