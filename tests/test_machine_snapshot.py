"""Unit tests for the machine checkpoint/restore engine.

The contract under test (see ``repro/machine/snapshot.py``): after
``machine.restore(snapshot)`` the machine is indistinguishable from one
that ran fresh from boot to the snapshot point — memory (including
debug-port writes into gaps and the read-only code segment), registers,
console, heap-allocator state, retired-instruction counts, and the
decode cache all line up.
"""

import pytest

from repro.lang import compile_source
from repro.machine import PAGE_SIZE, boot
from repro.machine.cpu import decode_fields
from repro.machine.memory import Memory

SOURCE = """
int in_x;
int tally[8];

void main() {
    int i;
    int total = 0;
    for (i = 0; i < in_x; i++) {
        total = total + i;
        tally[i % 8] = total;
    }
    print_int(total);
    exit(0);
}
"""


@pytest.fixture()
def compiled():
    return compile_source(SOURCE, "snaploop")


def fresh(compiled, x=10):
    return boot(compiled.executable, inputs={"in_x": x})


def machine_fingerprint(machine):
    return (
        bytes(machine.memory.data),
        tuple(tuple(core.regs) for core in machine.cores),
        tuple((core.pc, core.lr, core.cr, core.halted, core.blocked,
               core.exit_code, core.instret) for core in machine.cores),
        bytes(machine.console),
        machine.heap.capture(),
        machine.instret,
        tuple(machine.code_words),
        tuple(machine.decode_cache),
    )


class TestMemoryPages:
    def test_segment_pages_cover_all_segments(self, compiled):
        machine = fresh(compiled)
        pages = set(machine.memory.segment_pages())
        for segment in machine.memory.segments:
            assert segment.start // PAGE_SIZE in pages
            assert (segment.end - 1) // PAGE_SIZE in pages

    def test_restore_pages_is_copy_on_write(self):
        memory = Memory(4 * PAGE_SIZE)
        memory.add_segment("data", 0, 4 * PAGE_SIZE, writable=True)
        captured = memory.capture_pages(memory.segment_pages())
        assert memory.restore_pages(captured) == 0  # nothing dirty
        memory.debug_write(PAGE_SIZE + 5, b"xyz")
        assert memory.restore_pages(captured) == 1  # one page rewritten
        assert memory.data[PAGE_SIZE + 5] == 0

    def test_debug_write_tracks_dirty_pages(self):
        memory = Memory(4 * PAGE_SIZE)
        memory.debug_write(PAGE_SIZE - 1, b"ab")  # straddles pages 0 and 1
        assert memory._debug_dirty_pages == {0, 1}
        memory.debug_write(3 * PAGE_SIZE, b"")  # empty write dirties nothing
        assert memory._debug_dirty_pages == {0, 1}


class TestRoundTrip:
    def test_restore_rewinds_to_snapshot_point(self, compiled):
        machine = fresh(compiled)
        machine.run(max_instructions=50)
        snapshot = machine.snapshot()
        want = machine_fingerprint(machine)
        machine.run()  # run to completion, dirtying everything
        machine.restore(snapshot)
        assert machine_fingerprint(machine) == want

    def test_resumed_run_equals_uninterrupted_run(self, compiled):
        straight = fresh(compiled).run()

        machine = fresh(compiled)
        machine.run(max_instructions=75)
        snapshot = machine.snapshot()
        first = machine.run()
        machine.restore(snapshot)
        second = machine.run()
        for result in (first, second):
            assert result.console == straight.console
            # .instructions is the cumulative retired count, so a resumed
            # run finishes on exactly the same count as an uninterrupted one.
            assert result.instructions == straight.instructions

    def test_repeated_restores_stay_identical(self, compiled):
        machine = fresh(compiled)
        machine.run(max_instructions=40)
        snapshot = machine.snapshot()
        want = machine_fingerprint(machine)
        for _ in range(3):
            machine.run()
            machine.restore(snapshot)
            assert machine_fingerprint(machine) == want

    def test_snapshot_of_completed_run_restores_exit_state(self, compiled):
        machine = fresh(compiled)
        done = machine.run()
        snapshot = machine.snapshot()
        restored = fresh(compiled)
        baseline_result = restored.run(max_instructions=10)
        del baseline_result
        restored.restore(snapshot)
        assert restored.cores[0].halted
        assert bytes(restored.console) == done.console

    def test_heap_allocator_state_round_trips(self, compiled):
        machine = fresh(compiled)
        a = machine.heap.malloc(64)
        b = machine.heap.malloc(128)
        machine.heap.free(a)
        snapshot = machine.snapshot()
        state = machine.heap.capture()
        machine.heap.free(b)
        machine.heap.malloc(32)
        machine.restore(snapshot)
        assert machine.heap.capture() == state
        # The freelist survives: a same-size malloc reuses the freed block.
        assert machine.heap.malloc(64) == a


class TestDebugPortInteraction:
    def test_code_corruption_is_reverted_and_decodes_correctly(self, compiled):
        machine = fresh(compiled)
        machine.run(max_instructions=20)
        snapshot = machine.snapshot()
        address = machine.code_base + 8
        original = machine.debug_read_code(address)
        machine.debug_write_code(address, 0xDEADBEEF)
        assert machine.code_words[2] == 0xDEADBEEF
        machine.restore(snapshot)
        assert machine.debug_read_code(address) == original
        assert machine.code_words[2] == original
        assert machine.decode_cache[2] == decode_fields(original)
        # The repaired instruction must decode and run, not replay a stale
        # cache entry for the corrupted word.
        result = machine.run()
        assert result.console == fresh(compiled).run().console

    def test_corrupted_code_inside_snapshot_survives_restore(self, compiled):
        machine = fresh(compiled)
        address = machine.code_base + 12
        machine.debug_write_code(address, 0x60000000)
        snapshot = machine.snapshot()  # snapshot *includes* the corruption
        machine.debug_write_code(address, 0xDEADBEEF)
        machine.restore(snapshot)
        assert machine.debug_read_code(address) == 0x60000000
        assert machine.code_words[3] == 0x60000000
        assert machine.decode_cache[3] == decode_fields(0x60000000)

    def test_gap_page_write_is_zeroed_on_restore(self, compiled):
        machine = fresh(compiled)
        snapshot = machine.snapshot()
        gap = None
        mapped = set(machine.memory.segment_pages())
        for page in range(machine.memory.size // PAGE_SIZE):
            if page not in mapped:
                gap = page
                break
        assert gap is not None, "the RX32 layout always has unmapped gaps"
        machine.memory.debug_write(gap * PAGE_SIZE + 100, b"leak")
        machine.restore(snapshot)
        start = gap * PAGE_SIZE
        assert machine.memory.debug_read(start, PAGE_SIZE) == bytes(PAGE_SIZE)

    def test_watches_are_disarmed_by_restore(self, compiled):
        machine = fresh(compiled)
        snapshot = machine.snapshot()
        machine._fetch_watch[machine.code_base] = lambda *args: None
        machine._load_watch[0x1000] = lambda *args: None
        machine._store_watch[0x1000] = lambda *args: None
        machine.restore(snapshot)
        assert not machine._fetch_watch
        assert not machine._load_watch
        assert not machine._store_watch

    def test_restore_rejects_core_count_mismatch(self, compiled):
        one = fresh(compiled)
        snapshot = one.snapshot()
        two = boot(compiled.executable, num_cores=2, inputs={"in_x": 10})
        with pytest.raises(ValueError):
            two.restore(snapshot)
