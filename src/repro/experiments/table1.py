"""Table 1 — failure symptoms of the real software faults.

For each of the seven faulty programs, run the intensive random test the
paper used to expose the bugs: many random input data sets, the faulty
binary's output compared against the oracle.  The reported shape to
reproduce: wrong-result rates are small and vary by orders of magnitude
between programs, and "other failure modes such as program hangs or
system crashes have not been observed in any of the programs".
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, field

from ..analysis.stats import wilson_interval
from ..analysis.tables import render_table
from ..machine.loader import boot
from ..machine.machine import ENGINE_AUTO, resolve_engine
from ..workloads import table1_workloads
from .config import PAPER_TABLE1, ExperimentConfig


@dataclass
class Table1Row:
    program: str
    runs: int
    wrong: int
    hangs: int
    crashes: int
    paper_percent: float

    @property
    def wrong_percent(self) -> float:
        return 100.0 * self.wrong / self.runs if self.runs else 0.0

    @property
    def correct_percent(self) -> float:
        return 100.0 - self.wrong_percent

    @property
    def confidence_interval(self) -> tuple[float, float]:
        low, high = wilson_interval(self.wrong, self.runs)
        return (100.0 * low, 100.0 * high)


@dataclass
class Table1Result:
    rows: list[Table1Row] = field(default_factory=list)

    @property
    def total_hangs_and_crashes(self) -> int:
        return sum(row.hangs + row.crashes for row in self.rows)

    def render(self) -> str:
        table_rows = []
        for row in self.rows:
            low, high = row.confidence_interval
            table_rows.append(
                [
                    row.program,
                    row.runs,
                    f"{row.wrong_percent:.2f}%",
                    f"[{low:.2f}, {high:.2f}]",
                    f"{row.correct_percent:.2f}%",
                    f"{row.paper_percent:.2f}%",
                    row.hangs + row.crashes,
                ]
            )
        return render_table(
            ["Program", "Runs", "% Wrong", "95% CI", "% Correct",
             "Paper % wrong", "Hangs+crashes"],
            table_rows,
            title="Table 1 - Failure symptoms of the real software faults",
        )


def input_seed(seed: int, program: str) -> int:
    """Seed of *program*'s random input data sets under campaign *seed*.

    A CRC of the name, not ``hash()``: Python randomizes ``str`` hashes
    per process, which gave every run of Table 1 different inputs.
    """
    return seed + zlib.crc32(program.encode()) % 1000


def run_table1(config: ExperimentConfig | None = None) -> Table1Result:
    config = config or ExperimentConfig()
    result = Table1Result()
    for workload in table1_workloads():
        runs = (
            config.table1_runs_camelot
            if workload.family == "camelot"
            else config.table1_runs_jamesb
        )
        faulty = workload.compiled_faulty()
        rng = random.Random(input_seed(config.seed, workload.name))
        engine = resolve_engine(ENGINE_AUTO)
        wrong = hangs = crashes = 0
        for _ in range(runs):
            pokes = workload.generate_pokes(rng)
            expected = workload.oracle(pokes)
            machine = boot(faulty.executable, num_cores=workload.num_cores,
                           inputs=pokes, engine=engine)
            outcome = machine.run(max_instructions=100_000_000)
            if outcome.status == "hung":
                hangs += 1
            elif outcome.status == "trapped":
                crashes += 1
            elif outcome.console != expected:
                wrong += 1
        result.rows.append(
            Table1Row(
                program=workload.name,
                runs=runs,
                wrong=wrong,
                hangs=hangs,
                crashes=crashes,
                paper_percent=PAPER_TABLE1[workload.name],
            )
        )
    return result
