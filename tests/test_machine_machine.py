"""Tests for the Machine: code mirror, scheduling, barriers, pause."""

import pytest

from repro.isa import assemble_text, ins
from repro.isa.encoding import OP_ADDI
from repro.machine import Executable, Machine, boot, load
from repro.machine.cpu import decode_fields


def make_executable(source: str) -> Executable:
    program = assemble_text(source, base=0x1000)
    return Executable(code=program.code, entry=0x1000, symbols=program.symbols)


def assert_decoded(machine):
    """Every decode-cache entry is the decoded fields of its word."""
    assert machine.decode_cache == [decode_fields(word)
                                    for word in machine.code_words]


class TestCodeMirror:
    def test_install_code_builds_mirror(self):
        machine = boot(make_executable("nop\nsc 0"))
        assert machine.code_words[0] == ins.nop().encode()
        assert len(machine.decode_cache) == 2
        assert_decoded(machine)

    def test_debug_write_redecodes_the_word(self):
        machine = boot(make_executable("addi r3, r0, 1\naddi r3, r3, 1\nb -1"))
        machine.run(max_instructions=10)
        machine.debug_write_code(0x1000, ins.addi(3, 0, 7).encode())
        assert machine.code_words[0] == ins.addi(3, 0, 7).encode()
        assert machine.decode_cache[0] == (OP_ADDI, 3, 0, 0, 7)
        assert_decoded(machine)

    def test_corruption_takes_effect_on_next_fetch(self):
        # Loop increments r3; corrupting the increment to +10 mid-run
        # must change subsequent iterations.
        machine = boot(make_executable("loop:\naddi r3, r3, 1\nb loop"))
        machine.run(max_instructions=2)
        machine.debug_write_code(0x1000, ins.addi(3, 3, 10).encode())
        machine.run(max_instructions=2)
        assert machine.cores[0].regs[3] == 11

    def test_odd_code_size_rejected(self):
        machine = Machine()
        with pytest.raises(ValueError):
            machine.install_code(0x1000, b"\x00\x00\x00")


class TestRunStatuses:
    def test_exited(self):
        machine = boot(make_executable("addi r3, r0, 0\nsc 0"))
        assert machine.run().status == "exited"

    def test_hung_on_budget(self):
        machine = boot(make_executable("loop:\nb loop"))
        result = machine.run(max_instructions=100)
        assert result.status == "hung"

    def test_trapped(self):
        machine = boot(make_executable("trap 0"))
        assert machine.run().status == "trapped"

    def test_pause_at_instret(self):
        machine = boot(make_executable("loop:\naddi r3, r3, 1\nb loop"))
        result = machine.run(max_instructions=1000, pause_at_instret=10)
        assert result.status == "paused"
        assert machine.instret == 10
        result = machine.run(max_instructions=1000)
        assert result.status == "hung"

    def test_exit_code_from_core_zero(self):
        machine = boot(make_executable("addi r3, r0, 5\nsc 0"))
        assert machine.run().exit_code == 5


class TestMultiCore:
    def test_all_cores_run_same_program(self):
        source = "sc 5\nsc 1\naddi r3, r0, 0\nsc 0"
        machine = boot(make_executable(source), num_cores=2)
        result = machine.run()
        assert result.status == "exited"
        assert sorted(result.console) == sorted(b"01")

    def test_barrier_synchronises(self):
        # Core 1 writes a flag before the barrier; core 0 reads it after.
        source = """
            sc 5
            cmpi r3, 0
            bc eq, reader
            addi r4, r0, 123
            addis r5, r0, 16
            stw r4, 0(r5)
            sc 7
            addi r3, r0, 0
            sc 0
        reader:
            sc 7
            addis r5, r0, 16
            lwz r3, 0(r5)
            sc 1
            addi r3, r0, 0
            sc 0
        """
        program = assemble_text(source, base=0x1000)
        executable = Executable(
            code=program.code, entry=0x1000, data=b"\x00" * 16, symbols=program.symbols
        )
        machine = Machine(num_cores=2)
        load(machine, executable)
        result = machine.run()
        assert result.status == "exited"
        assert result.console == b"123"

    def test_barrier_deadlock_is_hang(self):
        # Core 0 exits immediately; core 1 waits at a barrier forever.
        source = """
            sc 5
            cmpi r3, 0
            bc ne, waiter
            addi r3, r0, 0
            sc 0
        waiter:
            sc 7
            addi r3, r0, 0
            sc 0
        """
        machine = boot(make_executable(source), num_cores=2)
        result = machine.run(max_instructions=100_000)
        assert result.status == "hung"
        assert result.deadlock

    def test_num_cores_bounds(self):
        with pytest.raises(ValueError):
            Machine(num_cores=0)
        with pytest.raises(ValueError):
            Machine(num_cores=5)

    def test_core_trap_stops_machine(self):
        source = """
            sc 5
            cmpi r3, 0
            bc ne, crash
            loop:
            b loop
        crash:
            trap 1
        """
        machine = boot(make_executable(source), num_cores=2)
        result = machine.run(max_instructions=100_000)
        assert result.status == "trapped"
        assert result.trap.core_id == 1


class TestAccessRanges:
    def test_stack_ranges_come_first(self):
        machine = boot(make_executable("sc 0"))
        readable, writable = machine.access_ranges()
        assert readable[0][0] >= 0x40_0000  # a stack segment leads
        code_range = (machine.code_base, machine.code_end)
        assert code_range in readable
        assert code_range not in writable
