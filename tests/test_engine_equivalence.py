"""The compiled engine must be bit-identical to the interpreter.

For any program and any fault, ``Machine(engine="trace")`` — its block
tier and its superblock tier alike — produces the same
:class:`RunResult` *and* the same final architectural state (registers,
cr/lr/pc, full memory image, console, retired-instruction counts) as the
per-instruction interpreter — including traps raised mid-block, budget
exhaustion at exact instruction counts, ``pause_at_instret`` boundaries,
fault-injection watches (which force per-instruction fallback), snapshot
restore, and the ``jobs=4`` orchestrated path.
"""

import random

import pytest

from repro.emulation import ASSIGNMENT_CLASS, CHECKING_CLASS
from repro.emulation.rules import generate_error_set
from repro.lang import compile_source
from repro.machine import ENGINE_SIMPLE, ENGINE_TRACE, ENGINES, blocks, boot
from repro.swifi import CampaignConfig, CampaignRunner, InputCase
from repro.swifi.campaign import execute_injection_run


def final_state(machine, result):
    """Everything architecturally observable after a run."""
    return {
        "status": result.status,
        "exit_code": result.exit_code,
        "trap": repr(result.trap),
        "instructions": result.instructions,
        "console": result.console,
        "machine_instret": machine.instret,
        "cores": [
            (core.pc, core.cr, core.lr, core.instret, tuple(core.regs))
            for core in machine.cores
        ],
        "memory": bytes(machine.memory.data),
    }


def run_engines(compiled, *, inputs=None, num_cores=1, budget=2_000_000,
                pause_at_instret=None):
    """Final state per engine, in ``ENGINES`` order (simple first)."""
    states = []
    for engine in ENGINES:
        machine = boot(compiled.executable, num_cores=num_cores,
                       inputs=inputs, engine=engine)
        result = machine.run(max_instructions=budget,
                             pause_at_instret=pause_at_instret)
        states.append(final_state(machine, result))
    return states


def assert_engines_identical(states):
    simple = states[0]
    for engine, state in zip(ENGINES[1:], states[1:]):
        assert state == simple, f"engine {engine!r} diverged"


def compiled_block_covers(machine, pc):
    """Whether *pc* lies in a block *machine*'s engine has compiled.

    A block is compiled on its second entry and runs compiled from then
    on, so a trap pc covered by one was raised from compiled code.
    """
    return any(
        run is not None and entry <= pc < entry + 4 * count
        for entry, (count, run) in machine.block_engine.blocks.items()
    )


# ---------------------------------------------------------------------------
# Randomised straight-line / branchy programs
# ---------------------------------------------------------------------------

_BINOPS = ["+", "-", "*", "/", "%", "&", "|", "^", "<<", ">>"]


def random_program(rng: random.Random, passes: int = 1) -> str:
    """A short random MiniC program: arithmetic soup with loops and branches.

    Divisions by a possibly-zero expression are *kept*.  The compiled
    engine interprets a block's first entry and compiles it on the second,
    so with ``passes=1`` the straight-line prologue runs in the
    interpreter and only the loop is compiled.  With ``passes=2`` the
    prologue and the loop run twice, and the second pass shifts each
    prologue divisor right by three bits, so a division by zero is often
    raised from the middle of a compiled block — exactly the kind of
    path this suite must prove identical.
    """
    prologue = []
    names = ["in_a", "in_b"]
    for i in range(rng.randint(3, 7)):
        var = f"v{i}"
        a, b = rng.choice(names), rng.choice(names)
        op = rng.choice(_BINOPS)
        divisor = f"({b} & 15)" if passes == 1 else f"(({b} & 15) >> (3 * pass))"
        prologue.append(f"{var} = ({a} {op} {divisor}) + {rng.randint(-9, 99)};")
        names.append(var)
    loop_var = "i"
    loop = [f"for ({loop_var} = 0; {loop_var} < {rng.randint(5, 60)}; {loop_var}++) {{"]
    a, b = rng.choice(names), rng.choice(names)
    loop.append(f"    acc = acc * 3 + ({a} {rng.choice(_BINOPS)} ({b} | 1));")
    loop.append(f"    if (acc > {rng.randint(100, 10_000)}) {{ acc = acc - {a}; }}")
    loop.append("}")
    lines = ["int in_a;", "int in_b;", "void main() {"]
    if passes == 1:
        lines += [f"    int {statement}" for statement in prologue]
        lines += ["    int acc = 1;", f"    int {loop_var};"]
        lines += [f"    {line}" for line in loop]
    else:
        lines += [f"    int {name};" for name in names[2:]]
        lines += ["    int acc;", f"    int {loop_var};", "    int pass;"]
        lines.append(f"    for (pass = 0; pass < {passes}; pass++) {{")
        lines += [f"        {statement}" for statement in prologue]
        lines.append("        acc = 1;")
        lines += [f"        {line}" for line in loop]
        lines.append("    }")
    for name in names[2:]:
        lines.append(f"    print_int({name});")
    lines.append("    print_int(acc);")
    lines.append(f"    exit(acc & {rng.randint(0, 3)});")
    lines.append("}")
    return "\n".join(lines)


class TestRandomProgramEquivalence:
    @pytest.mark.parametrize("seed", range(12))
    def test_random_program_full_state_identical(self, seed):
        rng = random.Random(1000 + seed)
        compiled = compile_source(random_program(rng), f"rand{seed}")
        inputs = {"in_a": rng.randint(-1 << 31, (1 << 31) - 1),
                  "in_b": rng.randint(-100, 100)}
        assert_engines_identical(run_engines(compiled, inputs=inputs))

    def test_division_by_zero_trap_identical(self):
        source = """
        int in_x;
        void main() {
            int a = 7;
            int b = a / in_x;
            print_int(b);
            exit(0);
        }
        """
        compiled = compile_source(source, "divzero")
        states = run_engines(compiled, inputs={"in_x": 0})
        assert states[0]["status"] == "trapped"
        assert_engines_identical(states)

    @pytest.mark.parametrize("seed", range(12))
    def test_two_pass_random_program_full_state_identical(self, seed):
        rng = random.Random(3000 + seed)
        compiled = compile_source(random_program(rng, passes=2),
                                  f"rand2-{seed}")
        inputs = {"in_a": rng.randint(-1 << 31, (1 << 31) - 1),
                  "in_b": rng.randint(-100, 100)}
        assert_engines_identical(run_engines(compiled, inputs=inputs))

    def test_division_by_zero_trap_in_a_compiled_block_identical(self):
        # The loop body divides by 1, then (its second entry, so compiled)
        # by 0.
        source = """
        int in_x;
        void main() {
            int pass;
            int b;
            for (pass = 0; pass < 2; pass++) {
                b = 7 / (in_x - pass);
                print_int(b);
            }
            exit(0);
        }
        """
        compiled = compile_source(source, "divzero-twice")
        states = []
        for engine in ENGINES:
            machine = boot(compiled.executable, inputs={"in_x": 1},
                           engine=engine)
            states.append(final_state(machine, machine.run()))
            if engine != ENGINE_SIMPLE:
                assert compiled_block_covers(machine, machine.cores[0].pc)
        assert states[0]["status"] == "trapped"
        assert states[0]["console"] == b"7"
        assert_engines_identical(states)


SUM_SOURCE = """
int in_x;
void main() {
    int i;
    int total = 0;
    for (i = 0; i < in_x; i++) {
        total = total + i;
    }
    print_int(total);
    exit(0);
}
"""


class TestBoundaryEquivalence:
    """Quantum, budget and pause boundaries cut blocks mid-flight."""

    @pytest.fixture(scope="class")
    def summer(self):
        return compile_source(SUM_SOURCE, "summer")

    def test_budget_exhaustion_exact(self, summer):
        states = run_engines(summer, inputs={"in_x": 1 << 30}, budget=997)
        assert states[0]["status"] == "hung"
        assert states[0]["instructions"] == 997
        assert_engines_identical(states)

    @pytest.mark.parametrize("pause", [1, 2, 63, 64, 65, 500])
    def test_pause_at_instret_exact(self, summer, pause):
        states = run_engines(
            summer, inputs={"in_x": 1 << 30}, pause_at_instret=pause
        )
        assert states[0]["status"] == "paused"
        assert states[0]["machine_instret"] == pause
        assert_engines_identical(states)

    def test_multicore_round_robin_identical(self):
        source = """
        void main() {
            int i;
            int acc = core_id() + 1;
            for (i = 0; i < 200; i++) {
                acc = acc * 5 + i;
            }
            print_int(acc);
            barrier();
            exit(0);
        }
        """
        compiled = compile_source(source, "multicore")
        states = run_engines(compiled, num_cores=2)
        assert states[0]["status"] == "exited"
        assert_engines_identical(states)


@pytest.mark.usefixtures("fresh_factory_cache")
class TestInvalidation:
    """Self-modifying code and snapshot restore must drop stale blocks."""

    def test_debug_write_code_invalidates(self):
        compiled = compile_source(SUM_SOURCE, "summer")
        machines = []
        for engine in ENGINES:
            machine = boot(compiled.executable, inputs={"in_x": 50},
                           engine=engine)
            # Warm the block cache (or the interpreter) past the loop head...
            machine.run(max_instructions=40, pause_at_instret=40)
            # ...then rewrite an instruction under its feet: patch the
            # first word of main into a no-op-like addi r0, r0, 0.
            machine.debug_write_code(machine.code_base, 0x14 << 26)
            machines.append((machine, machine.run()))
        assert_engines_identical([final_state(m, r) for m, r in machines])

    def test_snapshot_restore_reexecutes_identically(self):
        from repro.machine.snapshot import (
            capture_baseline,
            capture_snapshot,
            restore_snapshot,
        )

        compiled = compile_source(SUM_SOURCE, "summer")
        for engine in ENGINES:
            machine = boot(compiled.executable, inputs={"in_x": 30},
                           engine=engine)
            machine.run(max_instructions=100, pause_at_instret=100)
            baseline = capture_baseline(machine)
            snapshot = capture_snapshot(machine, baseline)
            first = final_state(machine, machine.run())
            restore_snapshot(machine, snapshot)
            second = final_state(machine, machine.run())
            assert second == first

    def test_block_engine_counters_move(self):
        compiled = compile_source(SUM_SOURCE, "summer")
        machine = boot(compiled.executable, inputs={"in_x": 10},
                       engine=ENGINE_TRACE)
        engine = machine.block_engine
        machine.run()
        assert engine.compiled > 0
        cached = len(engine.blocks)
        assert cached > 0
        machine.debug_write_code(machine.code_base, 0x14 << 26)
        engine._sync()
        # ``invalidated`` counts dropped cache entries, not events.
        assert engine.invalidated == cached
        assert not engine.blocks


# ---------------------------------------------------------------------------
# Fault injection: the engines must agree under every Table-3 error type
# ---------------------------------------------------------------------------


class TestInjectionEquivalence:
    @pytest.mark.parametrize("klass", [ASSIGNMENT_CLASS, CHECKING_CLASS])
    def test_error_set_runs_identical(self, klass):
        from repro.workloads import get_workload

        workload = get_workload("JB.team11")
        compiled = workload.compiled()
        cases = workload.make_cases(1, seed=77)
        error_set = generate_error_set(
            compiled, klass, max_locations=3, rng=random.Random(13)
        )
        assert error_set.faults
        for spec in error_set.faults:
            for case in cases:
                records = [
                    execute_injection_run(
                        compiled.executable, spec, case,
                        budget=2_000_000, engine=engine,
                    ).to_dict()
                    for engine in ENGINES
                ]
                for engine, record in zip(ENGINES[1:], records[1:]):
                    assert record == records[0], (spec.fault_id, engine)

    def test_campaign_block_engine_matches_simple(self):
        compiled = compile_source(SUM_SOURCE, "summer")
        cases = [InputCase("a", {"in_x": 10}, b"45"),
                 InputCase("b", {"in_x": 3}, b"3")]
        error_set = generate_error_set(
            compiled, ASSIGNMENT_CLASS, max_locations=3, rng=random.Random(5)
        )
        baseline = CampaignRunner(compiled, cases).run(error_set.faults)
        for config in (
            CampaignConfig(engine=ENGINE_TRACE),
            CampaignConfig(engine=ENGINE_TRACE, snapshot="auto"),
            CampaignConfig(engine=ENGINE_TRACE, snapshot="verify"),
            CampaignConfig(engine=ENGINE_TRACE, jobs=4, seed=11),
        ):
            outcome = CampaignRunner(compiled, cases).run(
                error_set.faults, config=config
            )
            assert outcome.records == baseline.records


# ---------------------------------------------------------------------------
# Trap-boundary accounting: instret must be exact at every trap offset
# ---------------------------------------------------------------------------


class TestTrapBoundaryAccounting:
    """Audit of the dispatch ``pending``-flush paths (ISSUE 8 satellite).

    A trap is planted at *every* offset of straight-line blocks of many
    shapes (including blocks crossing ``MAX_BLOCK``) and at every offset
    of hot loop bodies (so the superblock tier traps from inside a
    compiled trace).  ``core.instret`` / ``machine.instret`` / ``pc`` at
    the trap boundary must match the interpreter exactly — any partial
    write-back drift in the except-arm accounting shows up here.
    """

    _WRITE = (7, 8, 9)  # registers fillers may clobber

    def _filler(self, rng):
        d = rng.choice(self._WRITE)
        a = rng.randint(3, 9)
        b = rng.randint(3, 9)
        return rng.choice([
            f"addi r{d}, r{a}, {rng.randint(-99, 99)}",
            f"ori r{d}, r{a}, {rng.randint(0, 0xFFFF)}",
            f"add r{d}, r{a}, r{b}",
            f"xor r{d}, r{a}, r{b}",
            f"mulli r{d}, r{a}, {rng.randint(-9, 9)}",
        ])

    def _run_engines_asm(self, source, budget=100_000):
        from repro.isa import assemble_text
        from repro.machine import Executable

        program = assemble_text(source, base=0x1000)
        executable = Executable(code=program.code, entry=0x1000,
                                symbols=program.symbols)
        out = []
        for engine in ENGINES:
            machine = boot(executable, engine=engine)
            result = machine.run(max_instructions=budget)
            out.append((machine, final_state(machine, result)))
        return out

    @pytest.mark.parametrize("length", [1, 2, 3, 7, 64, 65, 96])
    def test_trap_at_every_straight_line_offset(self, length):
        rng = random.Random(8800 + length)
        for offset in range(length):
            trap = rng.choice(["divw r10, r6, r0",   # divide by zero
                               "lwz r10, 0(r0)"])    # unmapped load
            lines = ["addi r6, r0, 100"]
            lines += [self._filler(rng) for _ in range(offset)]
            lines.append(trap)
            lines += [self._filler(rng) for _ in range(length - 1 - offset)]
            lines.append("sc 0")
            runs = self._run_engines_asm("\n".join(lines))
            golden = runs[0][1]
            assert golden["status"] == "trapped", (length, offset)
            assert golden["machine_instret"] == golden["cores"][0][3]
            for engine, (machine, state) in zip(ENGINES[1:], runs[1:]):
                assert state == golden, (length, offset, engine)

    @pytest.mark.parametrize("length", [1, 2, 3, 7, 64, 65, 96])
    def test_trap_at_every_compiled_straight_line_offset(self, length):
        # The straight-line runs above, looped over three passes.  The
        # compiled engine interprets the first entry at `again` and
        # compiles it on the second: the last pass, where r11 is 0 and the
        # planted trap fires from inside the compiled block(s).
        rng = random.Random(7700 + length)
        for offset in range(length):
            trap = rng.choice(["divw r10, r6, r11",  # divide by zero
                               "lwz r10, 0(r12)"])   # unmapped load
            lines = [
                "addi r6, r0, 100",
                "addi r11, r0, 2",     # passes left after this one
                "addi r14, r0, 4096",  # a readable word: the code base
                "addi r12, r14, 0",    # r14 while r11 > 0, then 0
                "again:",
            ]
            lines += [self._filler(rng) for _ in range(offset)]
            lines.append(trap)
            lines += [self._filler(rng) for _ in range(length - 1 - offset)]
            lines += [
                "addi r11, r11, -1",
                "neg r13, r11",
                "srawi r13, r13, 31",  # -1 while r11 > 0, then 0
                "and r12, r13, r14",
                "cmpi r11, 0",
                "bc ge, again",
                "sc 0",
            ]
            runs = self._run_engines_asm("\n".join(lines))
            golden = runs[0][1]
            assert golden["status"] == "trapped", (length, offset)
            assert golden["cores"][0][4][11] == 0, (length, offset)
            assert golden["machine_instret"] == golden["cores"][0][3]
            for engine, (machine, state) in zip(ENGINES[1:], runs[1:]):
                assert state == golden, (length, offset, engine)
                assert compiled_block_covers(machine, state["cores"][0][0]), (
                    length, offset, engine)

    @pytest.mark.parametrize("body", [0, 1, 2, 3, 5, 8, 13])
    @pytest.mark.usefixtures("fresh_factory_cache")
    def test_trap_at_every_loop_body_offset(self, body):
        rng = random.Random(9900 + body)
        for offset in range(body + 1):
            lines = [
                "addi r3, r0, 0",     # i
                "addi r4, r0, 40",    # trap iteration
                "addi r6, r0, 100",
                "loop:",
            ]
            lines += [self._filler(rng) for _ in range(offset)]
            lines.append("sub r5, r4, r3")
            lines.append("divw r10, r6, r5")  # traps when i == 40
            lines += [self._filler(rng) for _ in range(body - offset)]
            lines += [
                "addi r3, r3, 1",
                "cmpi r3, 60",
                "bc lt, loop",
                "sc 0",
            ]
            runs = self._run_engines_asm("\n".join(lines))
            golden = runs[0][1]
            assert golden["status"] == "trapped", (body, offset)
            assert golden["machine_instret"] == golden["cores"][0][3]
            for engine, (machine, state) in zip(ENGINES[1:], runs[1:]):
                assert state == golden, (body, offset, engine)
            # The superblock tier must have been exercised, not merely
            # have fallen back to block dispatch for the whole run.
            trace_machine = runs[-1][0]
            assert trace_machine.block_engine.traces_compiled > 0


# ---------------------------------------------------------------------------
# Compiled memory access: inline ranges, the slow path and their edges
# ---------------------------------------------------------------------------


def _probe_source(op: str, address: int, passes: int) -> str:
    """A loop whose last pass makes one *op* access at *address*.

    The earlier passes access a word of the core's own stack, so the
    access on the last pass runs from a block compiled on the loop's
    second entry (three passes) or from a looping trace (forty passes).
    Setup and loop body are 16 instructions each: on a 4-core machine
    every 64-instruction turn after the first then starts at the loop
    head, and a trace runs whole turns.
    """
    reg = "r9" if op in ("stw", "stb") else "r10"
    setup = [
        f"addi r11, r0, {passes - 1}",    # passes left after this one
        "addi r14, r1, -64",              # a word of this core's stack
        f"addis r15, r0, {address >> 16}",
        f"ori r15, r15, {address & 0xFFFF}",
        "addis r9, r0, 0x1234",
        "ori r9, r9, 0x5678",             # the value stores write
        "addi r12, r14, 0",
    ]
    body = [
        f"{op} {reg}, 0(r12)",
        "addi r11, r11, -1",
        "neg r13, r11",
        "srawi r13, r13, 31",             # -1 while r11 > 0, then 0
        "and r16, r13, r14",
        "nor r17, r13, r13",
        "and r17, r17, r15",
        "or r12, r16, r17",               # r14 while r11 > 0, then r15
        "cmpi r11, 0",
        "bc ge, again",
    ]
    pad = "ori r8, r8, 0"
    lines = setup + [pad] * (16 - len(setup)) + ["again:"]
    lines += body[:1] + [pad] * (16 - len(body)) + body[1:]
    lines.append("sc 0")
    return "\n".join(lines)


def _probe_executable(op: str, address: int, passes: int):
    from repro.isa import assemble_text
    from repro.machine import Executable

    program = assemble_text(_probe_source(op, address, passes), base=0x1000)
    # 20 bytes of data, which the loader rounds up to a 24-byte segment.
    return Executable(code=program.code, entry=0x1000,
                      data=bytes(range(1, 21)), symbols=program.symbols)


def _probe_addresses(num_cores: int) -> list[int]:
    """The edges of every mapped segment, misaligned words, and a gap."""
    machine = boot(_probe_executable("lwz", 0, 3), num_cores=num_cores)
    addresses = {0x0038_0000}  # between the heap and the stacks
    for segment in machine.memory.segments:
        start, end = segment.start, segment.end
        addresses.update((start - 4, start - 1, start, start + 1, start + 2,
                          end - 4, end - 2, end - 1, end))
    return sorted(addresses)


def _probe_states(op, address, passes, num_cores):
    """Final state (with the trap's kind, pc, core and address) per engine."""
    executable = _probe_executable(op, address, passes)
    states = []
    for engine in ENGINES:
        machine = boot(executable, num_cores=num_cores, engine=engine)
        result = machine.run(max_instructions=100_000)
        state = final_state(machine, result)
        trap = result.trap
        if trap is not None:
            state["trap_at"] = (trap.kind, trap.pc, trap.core_id, trap.address)
            if engine != ENGINE_SIMPLE:
                # The trapping access ran compiled: from the loop's
                # block, or from its trace.
                assert compiled_block_covers(machine, trap.pc), engine
                if passes > 3 and engine == ENGINE_TRACE:
                    loop = executable.symbols["again"]
                    assert machine.block_engine.traces[loop][1] is not None
        states.append(state)
    return states


_OPS = ("lwz", "stw", "lbz", "stb")


class TestCompiledMemoryAccessEdges:
    """Loads and stores at every segment edge match ``simple`` exactly.

    Every address the bound stack and data ranges do not cover takes the
    closures' slow path; this pins both sides of each boundary, stores
    into read-only code, misaligned words and the unmapped gaps, on both
    the single-core layout and the 4-core one whose stacks merge into one
    range.
    """

    @pytest.mark.parametrize("num_cores", [1, 4])
    @pytest.mark.parametrize("passes", [3, 40])
    def test_every_edge_matches_simple(self, num_cores, passes):
        outcomes = set()
        for address in _probe_addresses(num_cores):
            for op in _OPS:
                states = _probe_states(op, address, passes, num_cores)
                assert_engines_identical(states)
                outcomes.add(states[0].get("trap_at", ("ok",))[0])
        # Clean accesses and both kinds of trap occurred.
        assert outcomes == {"ok", "memory-fault", "alignment-fault"}

    def test_the_four_stacks_are_one_range(self):
        from repro.machine import HEAP_BASE, STACK_REGION, STACK_SIZE

        machine = boot(_probe_executable("lwz", 0, 3), num_cores=4)
        readable, writable = machine.access_ranges()
        stacks = (STACK_REGION, STACK_REGION + 4 * STACK_SIZE)
        data, heap = (0x0010_0000, 0x0010_0018), (HEAP_BASE, HEAP_BASE + 0x0010_0000)
        assert writable == [stacks, data, heap]
        assert readable == writable + [(0x1000, 0x1000 + 4 * 33)]


def _slow_path_calls(executable, inputs, *, inline=True, frames=True):
    """Slow-path calls in one ``trace`` run of *executable*.

    With ``inline=False`` every emitted inline test reads ``False``, so
    every compiled access that takes one calls the slow path: the count
    is then the run's number of compiled memory accesses other than
    frame slots, which take no such test.  With ``frames=False`` as well
    no trace has a frame, so the count covers every compiled access.
    Traces form and bail from branch profiles and the frame guard, which
    never consult the inline test, so these runs compile the same traces.
    """
    calls = 0
    original = blocks._memory_slow_path

    def counting(*args):
        slow = original(*args)

        def counted(opcode, ea, value):
            nonlocal calls
            calls += 1
            return slow(opcode, ea, value)

        return counted

    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_CODE_CACHE", "off")
        patch.setattr(blocks, "_FACTORY_CACHE", blocks.FactoryCache())
        patch.setattr(blocks, "_memory_slow_path", counting)
        if not inline:
            patch.setattr(blocks._Emitter, "_inline", lambda self, word: "False")
        if not frames:
            patch.setattr(blocks, "_analyze_frame",
                          lambda steps, looping: (None, False))
        machine = boot(executable, inputs=inputs, engine=ENGINE_TRACE)
        result = machine.run(max_instructions=50_000_000)
    assert result.status == "exited"
    return calls


def _camelot_golden_run():
    from repro.workloads import get_workload

    workload = get_workload("C.team1")
    case = workload.make_cases(1, seed=2000)[0]
    return workload.compiled().executable, dict(case.pokes)


class TestSlowPathShare:
    """How many compiled accesses the slow path and the frame slots
    serve, pinned.

    Binding empty or stale ranges would send accesses to the slow path
    without changing any record, and a frame guard that always bails
    would send every frame slot back to the inline test; only these
    counts notice.
    """

    def _share(self, executable, inputs):
        compiled = _slow_path_calls(executable, inputs, inline=False)
        return _slow_path_calls(executable, inputs), compiled

    def test_camelot_golden_run(self):
        slow, compiled = self._share(*_camelot_golden_run())
        # The run's compiled loads and stores that are not frame slots,
        # 328 k of them, all reach the stack or the data segment.
        assert compiled > 300_000
        assert slow / compiled == 0.0

    def test_camelot_frame_slot_share(self):
        executable, inputs = _camelot_golden_run()
        tested = _slow_path_calls(executable, inputs, inline=False)
        every = _slow_path_calls(executable, inputs, inline=False,
                                 frames=False)
        # Frame slots serve 547 k of the 876 k compiled loads and stores.
        assert every > 800_000
        assert 1 - tested / every > 0.55

    def test_memory_loop(self):
        from benchmarks.test_machine_throughput import MEMORY_LOOP

        executable = compile_source(MEMORY_LOOP, "memory-loop").executable
        slow, compiled = self._share(executable, {})
        # Only the array accesses take the inline test: i and j are
        # frame slots.
        assert compiled > 30_000
        assert slow / compiled == 0.0


class TestInlineBoundSabotage:
    """An off-by-one inline bound must show in the edge probes."""

    @staticmethod
    def _inclusive_bound(self, word):
        ranges = "lo0 <= ea <= hi0 or lo1 <= ea <= hi1"
        return f"ea & 3 == 0 and ({ranges})" if word else ranges

    def test_probes_catch_an_inclusive_upper_bound(self):
        from repro.machine import STACK_REGION, STACK_SIZE

        # The first addresses past the stack and the 24-byte data segment.
        ends = (STACK_REGION + STACK_SIZE, 0x0010_0018)
        with pytest.MonkeyPatch.context() as patch:
            patch.setenv("REPRO_CODE_CACHE", "off")
            patch.setattr(blocks, "_FACTORY_CACHE", blocks.FactoryCache())
            patch.setattr(blocks._Emitter, "_inline", self._inclusive_bound)
            for address in ends:
                for op in _OPS:
                    simple, *compiled = _probe_states(op, address, 3, 1)
                    assert simple["trap_at"][0] == "memory-fault"
                    assert all(state != simple for state in compiled)
        # Undoing the sabotage restores identical state.
        for address in ends:
            for op in _OPS:
                assert_engines_identical(_probe_states(op, address, 3, 1))


# ---------------------------------------------------------------------------
# Frame slots in traces: the entry guard, aliasing, and their sabotage
# ---------------------------------------------------------------------------


def _frame_source(good: int, second: int, aliased: bool) -> str:
    """Two passes through a loop whose frame is ``-8(r12)`` and ``8(r12)``.

    The first pass runs with ``r12 = good`` and forms a looping trace;
    the second enters that trace with ``r12 = second``.  With *aliased*
    the loop also stores into this core's stack through another base, so
    the trace writes its frame stores through instead of deferring them.
    The code between two entries of the loop and the loop body are eight
    instructions each, so on a 4-core machine every 64-instruction turn
    starts at the loop head, where the trace is entered.
    """
    pad = "ori r8, r8, 0"
    lines = [
        f"addis r12, r0, {good >> 16}",
        f"ori r12, r12, {good & 0xFFFF}",
        f"addis r13, r0, {second >> 16}",
        f"ori r13, r13, {second & 0xFFFF}",
        "addi r14, r1, -64",
        "addi r20, r0, 1",        # passes left after this one
        "outer:",
        "addi r11, r0, 40",
        "b inner",
        "inner:",
        "lwz r10, -8(r12)",
        "addi r10, r10, 1",
        "stw r10, 0(r14)" if aliased else pad,
        "stw r10, 8(r12)",
        "addi r11, r11, -1",
        "cmpi r11, 0",
        pad,
        "bc gt, inner",
        "addi r12, r13, 0",
        "addi r20, r20, -1",
        "cmpi r20, 0",
        pad,
        pad,
        "bc ge, outer",
        "sc 0",
    ]
    return "\n".join(lines)


def _frame_states(good, second, aliased, num_cores):
    """Final state (with the trap's kind, pc, core and address) per
    engine, and the trace engine's machine."""
    from repro.isa import assemble_text
    from repro.machine import Executable

    program = assemble_text(_frame_source(good, second, aliased), base=0x1000)
    executable = Executable(code=program.code, entry=0x1000,
                            symbols=program.symbols)
    states = []
    for engine in ENGINES:
        machine = boot(executable, num_cores=num_cores, engine=engine)
        result = machine.run(max_instructions=100_000)
        state = final_state(machine, result)
        trap = result.trap
        if trap is not None:
            state["trap_at"] = (trap.kind, trap.pc, trap.core_id, trap.address)
        states.append(state)
    return states, machine, executable.symbols["inner"]


def _edge_bases(num_cores: int, edge: str) -> tuple[int, int]:
    """The base that puts a frame slot on the first or last word of the
    stacks, and the base one word further out."""
    machine = boot(_probe_executable("lwz", 0, 3), num_cores=num_cores)
    start, end = machine.access_ranges()[1][0]
    if edge == "high":
        return end - 4 - 8, end - 8   # slot 8(r12) on the last word
    return start + 8, start + 4       # slot -8(r12) on the first word


@pytest.mark.usefixtures("fresh_factory_cache")
class TestFrameGuardEdges:
    """A frame on the first or last word of the stacks passes the guard;
    one word further out, the guard bails and block dispatch traps
    exactly as ``simple`` does."""

    @pytest.mark.parametrize("num_cores", [1, 4])
    @pytest.mark.parametrize("edge", ["high", "low"])
    @pytest.mark.parametrize("aliased", [False, True])
    def test_guard_at_the_stack_edges(self, num_cores, edge, aliased):
        inside, outside = _edge_bases(num_cores, edge)
        states, machine, inner = _frame_states(inside, inside, aliased,
                                               num_cores)
        assert states[0]["status"] == "exited"
        assert_engines_identical(states)
        engine = machine.block_engine
        assert engine.trace_bailouts == 0
        assert engine.traces[inner][1] is not None

        states, machine, inner = _frame_states(inside, outside, aliased,
                                               num_cores)
        assert states[0]["trap_at"][0] == "memory-fault"
        assert_engines_identical(states)
        engine = machine.block_engine
        assert engine.trace_bailouts == 1
        assert engine.traces[inner][1] is None

    @pytest.mark.parametrize("aliased", [False, True])
    def test_a_heap_frame_passes_the_guard(self, aliased):
        # The base need not point into the stacks: the guard walks the
        # other ranges when the bound stack range misses.
        from repro.machine import HEAP_BASE

        states, machine, inner = _frame_states(HEAP_BASE + 64, HEAP_BASE + 64,
                                               aliased, 1)
        assert states[0]["status"] == "exited"
        assert_engines_identical(states)
        engine = machine.block_engine
        assert engine.trace_bailouts == 0
        assert engine.traces[inner][1] is not None


ALIAS_SOURCE = """
void main() {
    int x; int s; int i; int *p;
    x = 0; s = 0; p = &x;
    for (i = 0; i < 200; i = i + 1) { x = x + 1; *p = *p + 2; s = s + x; }
    print_int(s);
    exit(0);
}
"""


def _alias_states():
    compiled = compile_source(ALIAS_SOURCE, "alias")
    states = run_engines(compiled)
    machine = boot(compiled.executable, engine=ENGINE_TRACE)
    machine.run()
    return states, machine.block_engine


@pytest.mark.usefixtures("fresh_factory_cache")
class TestFrameSlotAliasing:
    def test_a_store_through_a_pointer_to_a_local(self):
        states, engine = _alias_states()
        assert states[0]["console"] == b"60300"
        assert_engines_identical(states)
        # The loop ran as a trace that forgets x at the store to *p.
        assert engine.traces_aliased > 0


def _keep_cached_slots(patch):
    """Sabotage: a store that may alias a frame slot forgets nothing."""
    store_word = blocks._TraceEmitter._emit_store_word

    def sabotaged(self, k, rd, ra, imm):
        known = set(self.known)
        store_word(self, k, rd, ra, imm)
        self.known |= known

    patch.setattr(blocks._TraceEmitter, "_emit_store_word", sabotaged)
    patch.setattr(blocks._TraceEmitter, "_emit_store_byte",
                  blocks._Emitter._emit_store_byte)


def _short_upper_bound(patch):
    """Sabotage: the frame guard's upper bound lets one more word in."""
    guard = blocks._TraceEmitter.emit_frame_guard

    def sabotaged(self):
        lines = guard(self)
        self.prelude = [line + " + 4" if line.startswith("_fhi = ") else line
                        for line in self.prelude]
        return lines

    patch.setattr(blocks._TraceEmitter, "emit_frame_guard", sabotaged)


class TestFrameSlotSabotage:
    """Each sabotage of the frame slots shows, and undoing it restores
    identical state."""

    def _sabotaged(self, sabotage, states):
        with pytest.MonkeyPatch.context() as patch:
            patch.setenv("REPRO_CODE_CACHE", "off")
            patch.setattr(blocks, "_FACTORY_CACHE", blocks.FactoryCache())
            sabotage(patch)
            return states()

    def test_keeping_slots_across_an_aliasing_store_is_caught(self):
        states = lambda: _alias_states()[0]
        simple, trace = self._sabotaged(_keep_cached_slots, states)
        assert simple["console"] == b"60300"
        assert trace != simple
        assert_engines_identical(states())

    @pytest.mark.parametrize("aliased", [False, True])
    def test_a_short_upper_bound_is_caught(self, aliased):
        inside, outside = _edge_bases(1, "high")

        def states():
            return _frame_states(inside, outside, aliased, 1)[0]

        simple, trace = self._sabotaged(_short_upper_bound, states)
        assert simple["trap_at"][0] == "memory-fault"
        assert trace != simple
        assert_engines_identical(states())
