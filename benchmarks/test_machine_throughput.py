"""Micro-benchmarks of the simulation substrate itself.

Not a paper artefact — these track the interpreter and compiler speeds
that all campaign wall-clock numbers derive from, so regressions in the
hot loop show up here first.  Both execution engines are measured: the
per-instruction interpreter (``simple``) and the compiled engine
(``trace``); the headline retired-instructions/second ratio is pinned by
:func:`test_trace_engine_speedup_floor` and published to
``results/BENCH_machine_throughput.{txt,json}``.

``REPRO_TRACE_SPEEDUP_FLOOR`` relaxes (or tightens) the required ALU-loop
speedup — CI runners are noisy, so the workflow pins a softer floor than
the >=10x measured on quiet hardware.  That the compiled engine's block
tier runs compiled code, not the interpreter, is pinned exactly by
``tests/test_trace_engine.py``.
"""

import os
import time

import pytest

from repro.lang import compile_source
from repro.machine import ENGINE_SIMPLE, ENGINE_TRACE, ENGINES, boot

ALU_LOOP = """
void main() {
    int i;
    int acc = 0;
    for (i = 0; i < 100000; i++) {
        acc = acc * 3 + i;
    }
    print_int(acc);
    exit(0);
}
"""
ALU_CONSOLE = b"-1289578288"

MEMORY_LOOP = """
int table[64][64];
void main() {
    int i;
    int j;
    int r;
    for (r = 0; r < 4; r++)
        for (i = 0; i < 64; i++)
            for (j = 0; j < 64; j++)
                table[i][j] = table[j][i] + i - j;
    print_int(table[5][7]);
    exit(0);
}
"""
MEMORY_CONSOLE = b"-2"


def _run(compiled, engine, expected_console):
    machine = boot(compiled.executable, engine=engine)
    result = machine.run(max_instructions=50_000_000)
    assert result.status == "exited"
    assert result.console == expected_console  # same program, same answer
    return result.instructions


@pytest.mark.parametrize("engine", ENGINES)
def test_alu_throughput(benchmark, engine):
    compiled = compile_source(ALU_LOOP, "alu-loop")
    instructions = benchmark(lambda: _run(compiled, engine, ALU_CONSOLE))
    assert instructions > 500_000


@pytest.mark.parametrize("engine", ENGINES)
def test_memory_throughput(benchmark, engine):
    compiled = compile_source(MEMORY_LOOP, "memory-loop")
    instructions = benchmark(lambda: _run(compiled, engine, MEMORY_CONSOLE))
    assert instructions > 400_000


def test_compiler_throughput(benchmark):
    from repro.workloads import get_workload

    source = get_workload("C.team1").source
    compiled = benchmark(lambda: compile_source(source, "C.team1"))
    assert compiled.executable.code


@pytest.mark.parametrize("engine", ENGINES)
def test_boot_reboot_cost(benchmark, engine):
    """The per-injection-run reboot the campaigns pay (fresh machine)."""
    compiled = compile_source(ALU_LOOP, "alu-loop")

    def reboot():
        machine = boot(compiled.executable, engine=engine)
        return machine

    machine = benchmark(reboot)
    assert machine.cores[0].pc == compiled.executable.entry


# ---------------------------------------------------------------------------
# The headline number: trace vs simple, measured side by side
# ---------------------------------------------------------------------------


def _measure(compiled, engine, expected_console):
    machine = boot(compiled.executable, engine=engine)
    start = time.perf_counter()
    result = machine.run(max_instructions=50_000_000)
    elapsed = time.perf_counter() - start
    assert result.status == "exited"
    assert result.console == expected_console
    return result.instructions, result.instructions / elapsed


def _boot_cost(compiled, engine, repeats=20):
    start = time.perf_counter()
    for _ in range(repeats):
        boot(compiled.executable, engine=engine)
    return (time.perf_counter() - start) / repeats


def test_trace_engine_speedup_floor(save_result):
    """Pin the trace engine's ALU-loop speedup and publish all rates.

    Runs are interleaved (simple, trace, simple, trace, ...) and the
    best-of-N rate is kept per engine, so transient machine noise hits
    both engines alike instead of biasing the ratio.
    """
    trace_floor = float(os.environ.get("REPRO_TRACE_SPEEDUP_FLOOR", "10.0"))
    rounds = int(os.environ.get("REPRO_BLOCK_BENCH_ROUNDS", "4"))

    data = {"trace_floor": trace_floor, "rounds": rounds, "loops": {}}
    for name, source, console in (
        ("alu", ALU_LOOP, ALU_CONSOLE),
        ("memory", MEMORY_LOOP, MEMORY_CONSOLE),
    ):
        compiled = compile_source(source, name)
        best = {engine: 0.0 for engine in ENGINES}
        instructions = 0
        for _ in range(rounds):
            for engine in ENGINES:
                instructions, rate = _measure(compiled, engine, console)
                best[engine] = max(best[engine], rate)
        data["loops"][name] = {
            "instructions": instructions,
            "console": console.decode(),
            "minstr_per_sec": {
                engine: round(best[engine] / 1e6, 3) for engine in ENGINES
            },
            "speedups": {
                engine: round(best[engine] / best[ENGINE_SIMPLE], 3)
                for engine in ENGINES
            },
        }

    alu_compiled = compile_source(ALU_LOOP, "alu-loop")
    data["boot_ms"] = {
        engine: round(1000 * _boot_cost(alu_compiled, engine), 3)
        for engine in ENGINES
    }

    lines = ["machine throughput (best-of-%d, Minstr/s)" % rounds, ""]
    for name, loop in data["loops"].items():
        rates = loop["minstr_per_sec"]
        speedups = loop["speedups"]
        lines.append(
            f"  {name:<8} simple {rates[ENGINE_SIMPLE]:7.2f}   "
            f"trace {rates[ENGINE_TRACE]:7.2f} ({speedups[ENGINE_TRACE]:.2f}x)   "
            f"({loop['instructions']} instr, console {loop['console']!r})"
        )
    lines.append(
        f"  boot     simple {data['boot_ms'][ENGINE_SIMPLE]:7.2f}ms "
        f"  trace {data['boot_ms'][ENGINE_TRACE]:7.2f}ms"
    )
    lines.append(f"  required ALU speedup floor: trace {trace_floor:.2f}x")
    save_result("BENCH_machine_throughput", "\n".join(lines), data)

    assert data["loops"]["alu"]["speedups"][ENGINE_TRACE] >= trace_floor
