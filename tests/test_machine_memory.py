"""Unit tests for segmented memory and its protection model."""

import multiprocessing
import resource

import pytest

from repro.lang import compile_source
from repro.machine import HEAP_BASE, PAGE_SIZE, AlignmentTrap, Memory, MemoryTrap, boot
from repro.planning import state_fingerprint
from repro.workloads.registry import get_workload


@pytest.fixture
def memory():
    mem = Memory(0x10000)
    mem.add_segment("code", 0x1000, 0x1000, writable=False)
    mem.add_segment("data", 0x4000, 0x1000, writable=True)
    return mem


class TestSegments:
    def test_segment_lookup(self, memory):
        assert memory.segment_for(0x1000).name == "code"
        assert memory.segment_for(0x4FFF).name == "data"
        assert memory.segment_for(0x3000) is None

    def test_lookup_respects_span(self, memory):
        # A 4-byte access ending past the segment is not contained.
        assert memory.segment_for(0x1FFD, 4) is None

    def test_overlapping_segments_rejected(self, memory):
        with pytest.raises(ValueError):
            memory.add_segment("clash", 0x1800, 0x100, writable=True)

    def test_segment_outside_physical_rejected(self):
        mem = Memory(0x1000)
        with pytest.raises(ValueError):
            mem.add_segment("big", 0x800, 0x1000, writable=True)


class TestCheckedAccess:
    def test_word_roundtrip(self, memory):
        memory.write_word(0x4000, 0xDEADBEEF)
        assert memory.read_word(0x4000) == 0xDEADBEEF

    def test_byte_roundtrip(self, memory):
        memory.write_byte(0x4005, 0xAB)
        assert memory.read_byte(0x4005) == 0xAB

    def test_word_is_big_endian(self, memory):
        memory.write_word(0x4000, 0x11223344)
        assert memory.read_byte(0x4000) == 0x11
        assert memory.read_byte(0x4003) == 0x44

    def test_unmapped_read_traps(self, memory):
        with pytest.raises(MemoryTrap):
            memory.read_word(0x9000)

    def test_unmapped_write_traps(self, memory):
        with pytest.raises(MemoryTrap):
            memory.write_byte(0x9000, 1)

    def test_write_to_code_traps(self, memory):
        with pytest.raises(MemoryTrap):
            memory.write_word(0x1000, 0)

    def test_read_from_code_allowed(self, memory):
        assert memory.read_word(0x1000) == 0

    def test_misaligned_word_traps(self, memory):
        with pytest.raises(AlignmentTrap):
            memory.read_word(0x4001)
        with pytest.raises(AlignmentTrap):
            memory.write_word(0x4002, 1)

    def test_trap_carries_address(self, memory):
        with pytest.raises(MemoryTrap) as info:
            memory.read_word(0x9000, pc=0x1234)
        assert info.value.address == 0x9000
        assert info.value.pc == 0x1234

    def test_value_masked_to_32_bits(self, memory):
        memory.write_word(0x4000, 0x1_FFFF_FFFF)
        assert memory.read_word(0x4000) == 0xFFFFFFFF


class TestDebugPort:
    def test_debug_write_ignores_protection(self, memory):
        memory.debug_write(0x1000, b"\x01\x02\x03\x04")
        assert memory.read_word(0x1000) == 0x01020304

    def test_debug_write_outside_physical_rejected(self, memory):
        with pytest.raises(ValueError):
            memory.debug_write(0xFFFE, b"\x00\x00\x00\x00")

    def test_debug_word_helpers(self, memory):
        memory.debug_write_word(0x4000, 0xCAFEBABE)
        assert memory.debug_read_word(0x4000) == 0xCAFEBABE

    def test_debug_read_unmapped_gap(self, memory):
        # The debug port sees raw physical memory, even between segments.
        assert memory.debug_read(0x3000, 4) == b"\x00\x00\x00\x00"

    def test_read_cstring(self, memory):
        memory.debug_write(0x4000, b"hello\x00world")
        assert memory.read_cstring(0x4000) == b"hello"

    def test_read_cstring_limit(self, memory):
        memory.debug_write(0x4000, b"a" * 16)
        assert memory.read_cstring(0x4000, limit=8) == b"a" * 8


class TestReadCString:
    """read_cstring serves program-supplied pointers (SYS_PUTS); bad
    pointers must trap like any other checked access."""

    def test_unmapped_pointer_traps(self, memory):
        with pytest.raises(MemoryTrap):
            memory.read_cstring(0x9000)

    def test_negative_pointer_traps_instead_of_wrapping(self, memory):
        # Regression: bytearray indexing silently wrapped negative
        # addresses to the end of physical memory.
        with pytest.raises(MemoryTrap):
            memory.read_cstring(-4)

    def test_pointer_past_physical_memory_traps(self, memory):
        with pytest.raises(MemoryTrap):
            memory.read_cstring(0xFFFF_FFF0)

    def test_string_running_off_segment_end_traps(self, memory):
        # No NUL before the segment boundary: the scan must trap at the
        # boundary, not read the unmapped zero byte beyond it.
        memory.write_byte(0x4FFE, ord("x"))
        memory.write_byte(0x4FFF, ord("y"))
        with pytest.raises(MemoryTrap):
            memory.read_cstring(0x4FFE)


def _scribble(machine, queue):
    """Fork child: write via the debug port, directly, and by running the
    program; report what it sees."""
    machine.memory.debug_write(HEAP_BASE, b"\xAA\xBB")
    machine.memory.data[PAGE_SIZE * 50] = 0x5A  # a never-touched gap page
    machine.run(10_000)
    queue.put((machine.memory.debug_read(HEAP_BASE, 2),
               machine.memory.data[PAGE_SIZE * 50], bytes(machine.console)))


class TestLazyMapping:
    """Memory is a private anonymous mapping: zero until written, and a
    fork child's writes never reach the parent (pool workers fork)."""

    def test_fresh_memory_reads_zero(self):
        mem = Memory(3 * PAGE_SIZE)
        assert mem.debug_read(0, 4) == bytes(4)
        assert mem.data[3 * PAGE_SIZE - 1] == 0
        assert list(mem.nonzero_pages()) == []

    def test_nonzero_pages_lists_written_pages(self):
        mem = Memory(4 * PAGE_SIZE)
        mem.debug_write(PAGE_SIZE - 1, b"ab")  # straddles pages 0 and 1
        mem.debug_write(3 * PAGE_SIZE + 7, b"c")
        pages = dict(mem.nonzero_pages())
        assert sorted(pages) == [0, 1, 3]
        assert pages[3][7:8] == b"c" and len(pages[3]) == PAGE_SIZE
        mem.debug_write(3 * PAGE_SIZE + 7, b"\x00")  # zeroed again: absent
        assert sorted(dict(mem.nonzero_pages())) == [0, 1]

    def test_partial_last_page(self):
        mem = Memory(PAGE_SIZE + 16)
        assert list(mem.nonzero_pages()) == []
        mem.debug_write(PAGE_SIZE + 15, b"z")
        ((page, image),) = mem.nonzero_pages()
        assert page == 1 and image == bytes(15) + b"z"

    def test_nonzero_pages_reads_port_written_and_writable_pages(self):
        mem = Memory(8 * PAGE_SIZE)
        mem.add_segment("data", 2 * PAGE_SIZE, PAGE_SIZE, writable=True)
        mem.write_word(2 * PAGE_SIZE + 8, 5)  # a program store
        assert list(mem.nonzero_pages(executed=False)) == []
        assert [page for page, _ in mem.nonzero_pages()] == [2]
        mem.restore_pages({5: bytes(PAGE_SIZE - 1) + b"\x01", 6: bytes(PAGE_SIZE)})
        mem.debug_write(7 * PAGE_SIZE, b"\x02")
        assert [page for page, _ in mem.nonzero_pages(executed=False)] == [5, 7]
        assert sorted(mem._port_pages) == [5, 6, 7]

    def test_fresh_boot_fingerprint_faults_in_few_pages(self):
        # A fresh boot's fingerprint slices only the pages its loader
        # wrote.  Slicing all 80 pages of the address space faulted in
        # about 1,278 zero pages per fingerprint; now about 30 remain.
        workload = get_workload("JB.team6")
        (case,) = workload.make_cases(1, 2000)
        executable = workload.compiled().executable
        state_fingerprint(boot(executable, inputs=dict(case.pokes)))  # warm-up
        for _ in range(3):
            machine = boot(executable, inputs=dict(case.pokes))
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            state_fingerprint(machine)
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
            assert faults < 200

    def test_fork_child_writes_stay_private(self):
        compiled = compile_source(
            "void main() { print_int(7); exit(0); }\n", "forkmem")
        machine = boot(compiled.executable)
        before = bytes(machine.memory.data)
        context = multiprocessing.get_context("fork")
        queue = context.Queue()
        child = context.Process(target=_scribble, args=(machine, queue))
        child.start()
        seen = queue.get(timeout=60)
        child.join(timeout=60)
        assert child.exitcode == 0
        # The child really wrote and ran ...
        assert seen == (b"\xAA\xBB", 0x5A, b"7")
        # ... and none of it reached the parent's machine.
        assert bytes(machine.memory.data) == before
        assert bytes(machine.console) == b""


class TestSegmentAlignment:
    """Segments start and end on word boundaries: an aligned word never
    straddles two of them, which the CPU fast paths rely on."""

    @pytest.mark.parametrize("start, size", [(0x1002, 0x100), (0x1000, 0x102),
                                             (0x1001, 0x1)])
    def test_unaligned_segment_rejected(self, start, size):
        memory = Memory(0x10000)
        with pytest.raises(ValueError, match="word boundary"):
            memory.add_segment("odd", start, size, writable=True)
        assert memory.segments == []

    def test_aligned_segment_accepted(self):
        memory = Memory(0x10000)
        assert memory.add_segment("even", 0x1004, 0x8, writable=True).end == 0x100C
