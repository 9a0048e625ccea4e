"""The simulated target system: memory + cores + kernel + debug unit.

Stands in for the paper's Parsytec PowerXplorer (four PowerPC 601
processors running Parix).  A :class:`Machine` is cheap to construct and
is *rebuilt from scratch for every injection run* — the paper reboots the
target between injections "to assure a clean state", and campaigns here do
the same by calling :func:`repro.machine.loader.boot` per run.

``Machine.run`` drives the cores round-robin and classifies how execution
ended into the raw statuses the failure-mode taxonomy builds on:

* ``exited``  — every core performed the exit syscall,
* ``trapped`` — some core raised a hardware trap (→ *Program crash*),
* ``hung``    — the instruction budget ran out, or all live cores were
  blocked at a barrier that can never release (→ *Program hang*).
"""

from __future__ import annotations

from dataclasses import dataclass

from .cpu import Core, decode_fields
from .debug import DebugUnit
from .memory import Memory
from .syscalls import HeapManager, SyscallHandler
from .traps import Trap

# Address-space layout (see DESIGN.md).
CODE_BASE = 0x0000_1000
DATA_BASE = 0x0010_0000
HEAP_BASE = 0x0020_0000
STACK_REGION = 0x0040_0000
STACK_SIZE = 0x0004_0000  # 256 KiB per core
MAX_CORES = 4
PHYSICAL_SIZE = STACK_REGION + MAX_CORES * STACK_SIZE

DEFAULT_QUANTUM = 64
DEFAULT_BUDGET = 50_000_000

# Execution engines (see cpu.py and blocks.py).  ``simple`` is the
# per-instruction threaded interpreter, the reference semantics;
# ``trace`` compiles basic blocks into specialized closures, chains hot
# blocks into superblock traces across profiled-predictable branches,
# and falls back to ``simple`` around every fault-injection hook, so
# outcomes are bit-identical between the two.
ENGINE_SIMPLE = "simple"
ENGINE_TRACE = "trace"
ENGINES = (ENGINE_SIMPLE, ENGINE_TRACE)
# Campaign-level choice (never a Machine's): see resolve_engine.
ENGINE_AUTO = "auto"
CAMPAIGN_ENGINES = (ENGINE_AUTO,) + ENGINES


def resolve_engine(engine: str, num_cores: int) -> str:
    """The concrete engine a campaign on *num_cores* cores runs *engine* as.

    ``auto`` is ``trace`` on a single-core machine and ``simple`` on a
    multi-core one: :meth:`Machine.run` hands each core 64-instruction
    turns there, so over a quarter of the instructions still run in the
    interpreter at turn ends and compiled code saves nothing while its
    set-up and memory costs remain.  Explicit engines pass through.
    """
    if engine == ENGINE_AUTO:
        return ENGINE_TRACE if num_cores == 1 else ENGINE_SIMPLE
    return engine


@dataclass(frozen=True)
class RunResult:
    """How one program execution on the machine ended."""

    status: str  # "exited" | "trapped" | "hung"
    exit_code: int | None
    trap: Trap | None
    instructions: int
    console: bytes
    deadlock: bool = False

    @property
    def exited_cleanly(self) -> bool:
        return self.status == "exited" and self.exit_code == 0


class Machine:
    """One bootable instance of the simulated target system."""

    def __init__(self, num_cores: int = 1, *, heap_size: int = 0x0010_0000,
                 console_limit: int = 1 << 20,
                 engine: str = ENGINE_SIMPLE) -> None:
        if not 1 <= num_cores <= MAX_CORES:
            raise ValueError(f"num_cores must be 1..{MAX_CORES}")
        if engine not in ENGINES:
            raise ValueError(f"engine must be one of {ENGINES}, got {engine!r}")
        self.memory = Memory(PHYSICAL_SIZE)
        self.cores = [Core(self, index) for index in range(num_cores)]
        self.console = bytearray()
        self.console_limit = console_limit
        self.heap = HeapManager(HEAP_BASE, heap_size)
        self.syscalls = SyscallHandler(self)
        self.debug = DebugUnit(self)
        self.instret = 0

        # Hot-loop hook tables (see cpu.py); populated by the debug unit.
        self._fetch_watch: dict = {}
        self._load_watch: dict = {}
        self._store_watch: dict = {}

        # Code mirror for fast fetch, and the decoded fields of every
        # word in it; filled by the loader.
        self.code_base = CODE_BASE
        self.code_end = CODE_BASE
        self.code_words: list[int] = []
        self.decode_cache: list = []
        # The process-wide table of the installed image (blocks.CodeImage).
        self._image = None

        self._barrier_waiting: set[int] = set()
        self.executable = None  # set by the loader
        # Code-mirror indices rewritten through the debug port since the
        # last snapshot baseline (lets restore repair the mirror and the
        # decode cache without rebuilding either).
        self._mirror_dirty: set[int] = set()
        # Code-mirror version: bumped whenever code_words changes after
        # install (debug_write_code, snapshot restore of dirty indices).
        self._code_gen = 0
        # access_ranges() cache, keyed on the memory's segment version.
        self._access_ranges: tuple | None = None
        self._access_ranges_gen = -1

        self.engine = engine
        if engine == ENGINE_TRACE:
            from .blocks import TraceEngine

            self.block_engine = TraceEngine(self)
        else:
            self.block_engine = None

    # ------------------------------------------------------------------

    def install_code(self, base: int, code: bytes) -> None:
        """Map *code* at *base* and copy the image's fetch mirror.

        The words and their decoded fields come from the image's
        :class:`~repro.machine.blocks.CodeImage`, which decodes them once
        per process; every boot of the image copies two lists.  The
        table also carries what earlier machines of the image compiled,
        which the ``trace`` engine adopts while the mirror stays
        unwritten.
        """
        from .blocks import code_image

        if len(code) % 4:
            raise ValueError("code size must be a multiple of 4")
        code = bytes(code)
        self.memory.add_segment("code", base, len(code), writable=False)
        self.memory.debug_write(base, code)
        self.code_base = base
        self.code_end = base + len(code)
        self._image = image = code_image(base, code)
        self.code_words = list(image.words)
        self.decode_cache = list(image.decoded)

    def access_ranges(self) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
        """(readable, writable) address ranges for the CPU fast path.

        Address-adjacent segments with the same permission merge into one
        range, so the stacks of a multi-core machine are a single range;
        the address set is unchanged.  Ordered by expected access
        frequency: stacks first (locals dominate compiled code), then data,
        heap, and — for reads — code.  Cached on the instance against the
        memory's segment version — this is called once per quantum, and
        re-sorting all segments every 64 instructions is measurable on
        multi-core runs.
        """
        cached = self._access_ranges
        if cached is not None and self._access_ranges_gen == self.memory._ranges_gen:
            return cached

        def sort_key(segment) -> int:
            if segment.name.startswith("stack"):
                return 0
            if segment.name == "data":
                return 1
            if segment.name == "heap":
                return 2
            return 3

        merged: list[list] = []  # [sort key, start, end, writable]
        for s in sorted(self.memory.segments, key=lambda s: s.start):
            if merged and merged[-1][2] == s.start and merged[-1][3] == s.writable:
                merged[-1][2] = s.end
            else:
                merged.append([sort_key(s), s.start, s.end, s.writable])
        merged.sort(key=lambda m: m[0])
        readable = [(start, end) for _key, start, end, _w in merged]
        writable = [(start, end) for _key, start, end, w in merged if w]
        self._access_ranges = (readable, writable)
        self._access_ranges_gen = self.memory._ranges_gen
        return self._access_ranges

    def debug_write_code(self, address: int, word: int) -> None:
        """Debug-port write into the code segment, keeping the mirror hot."""
        self.memory.debug_write_word(address, word)
        if self.code_base <= address < self.code_end:
            index = (address - self.code_base) >> 2
            word &= 0xFFFFFFFF
            self.code_words[index] = word
            self.decode_cache[index] = decode_fields(word)
            self._mirror_dirty.add(index)
            self._code_gen += 1

    def debug_read_code(self, address: int) -> int:
        return self.memory.debug_read_word(address)

    # -- checkpoint / restore (see machine/snapshot.py) -----------------

    def baseline(self):
        """Full post-boot image; the reference snapshots delta against."""
        from .snapshot import capture_baseline

        return capture_baseline(self)

    def snapshot(self, baseline=None):
        """Checkpoint the current state (sparse delta over *baseline*)."""
        from ..observability import trace as _trace
        from .snapshot import capture_baseline, capture_snapshot

        with _trace.phase(_trace.PHASE_SNAPSHOT_CAPTURE):
            if baseline is None:
                baseline = capture_baseline(self)
            return capture_snapshot(self, baseline)

    def restore(self, snapshot) -> None:
        """Rewind to *snapshot*; disarms every debug-unit hook."""
        from ..observability import trace as _trace
        from .snapshot import restore_snapshot

        with _trace.phase(_trace.PHASE_SNAPSHOT_RESTORE):
            restore_snapshot(self, snapshot)

    # ------------------------------------------------------------------

    def enter_barrier(self, core: Core) -> None:
        """Barrier syscall: block until *every* core has arrived.

        Strict semantics, as on the paper's Parsytec: a core that exits
        without reaching the barrier leaves the remaining cores blocked
        forever — :meth:`run` reports that as a (deadlock) hang, which is
        how the experiment manager's timeout would classify it.
        """
        core.blocked = True
        self._barrier_waiting.add(core.core_id)
        everyone = {c.core_id for c in self.cores}
        if everyone <= self._barrier_waiting:
            for other in self.cores:
                other.blocked = False
            self._barrier_waiting.clear()

    # ------------------------------------------------------------------

    def run(self, max_instructions: int = DEFAULT_BUDGET,
            quantum: int = DEFAULT_QUANTUM,
            pause_at_instret: int | None = None) -> RunResult:
        """Run all cores to completion, trap, or budget exhaustion.

        *pause_at_instret* suspends execution once the machine-wide retired
        instruction count reaches the given value, returning a result with
        status ``"paused"`` — the hook temporal fault triggers use.
        """
        start = self.instret
        single_core = len(self.cores) == 1
        while True:
            ran_any = False
            for core in self.cores:
                if core.halted or core.blocked:
                    continue
                if pause_at_instret is not None and self.instret >= pause_at_instret:
                    return self._result("paused")
                remaining = max_instructions - (self.instret - start)
                if remaining <= 0:
                    return self._result("hung")
                slice_size = remaining if single_core else min(quantum, remaining)
                if pause_at_instret is not None:
                    slice_size = min(slice_size, pause_at_instret - self.instret)
                try:
                    core.run_quantum(slice_size)
                except Trap as trap:
                    return self._result("trapped", trap=trap)
                ran_any = True
            if pause_at_instret is not None and self.instret >= pause_at_instret and not all(
                core.halted for core in self.cores
            ):
                return self._result("paused")
            if all(core.halted for core in self.cores):
                return self._result("exited")
            if not ran_any:
                # Every live core is blocked on a barrier that cannot
                # release (some peer halted first): a silent deadlock, which
                # the experiment manager's timeout would classify as a hang.
                return self._result("hung", deadlock=True)

    def _result(self, status: str, trap: Trap | None = None,
                deadlock: bool = False) -> RunResult:
        exit_codes = [core.exit_code for core in self.cores if core.exit_code is not None]
        exit_code = self.cores[0].exit_code if self.cores[0].exit_code is not None else (
            exit_codes[0] if exit_codes else None
        )
        return RunResult(
            status=status,
            exit_code=exit_code,
            trap=trap,
            instructions=self.instret,
            console=bytes(self.console),
            deadlock=deadlock,
        )
