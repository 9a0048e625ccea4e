"""Checkpoint/restore for the simulated machine.

The paper reboots the target between injections "to assure a clean
state"; QEMU/GDB-based descendants of Xception get their campaign
throughput from the equivalent guarantee at a fraction of the cost — a
*golden-run snapshot* restored before every injection.  This module
provides that primitive for the RX32 machine:

* :func:`capture_baseline` takes a full page-granular image of every
  mapped segment right after boot (the reference all snapshots delta
  against);
* :func:`capture_snapshot` records the machine mid-run as a **sparse
  delta**: only pages whose bytes differ from the baseline, plus the
  architectural state (cores, console, heap allocator, retired-count,
  barrier membership);
* :func:`restore_snapshot` rewrites only the pages whose *current*
  content differs from the target, clears every debug-unit hook, and
  reinstates the architectural state — leaving the machine
  indistinguishable from one that ran fresh from boot to the snapshot
  point.

The machine has no other hidden mutable state: syscalls are dispatched
statelessly against the machine, and the simulated kernel has no RNG —
determinism is what makes restore ≡ re-execution provable (and tested in
``tests/test_snapshot_equivalence.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..observability import trace as _trace
from .cpu import decode_fields
from .memory import PAGE_SIZE, ZERO_PAGE

if TYPE_CHECKING:  # pragma: no cover
    from .machine import Machine


@dataclass(frozen=True)
class CoreState:
    """Architectural state of one core (everything ``Core.reset`` touches)."""

    regs: tuple[int, ...]
    pc: int
    lr: int
    cr: int
    halted: bool
    blocked: bool
    exit_code: int | None
    instret: int


@dataclass(frozen=True)
class MachineBaseline:
    """Post-boot reference image: full segment pages + the code mirror."""

    pages: dict[int, bytes]
    code_words: tuple[int, ...]


@dataclass(frozen=True)
class MachineSnapshot:
    """One restorable point of a run, stored as a delta over a baseline."""

    baseline: MachineBaseline
    page_delta: dict[int, bytes]
    cores: tuple[CoreState, ...]
    console: bytes
    heap: tuple
    instret: int
    barrier: frozenset[int]
    #: Full code mirror iff the mirror diverged from the baseline
    #: (debug writes into the code segment); ``None`` otherwise.
    code_words: tuple[int, ...] | None


def _capture_core(core) -> CoreState:
    return CoreState(
        regs=tuple(core.regs),
        pc=core.pc,
        lr=core.lr,
        cr=core.cr,
        halted=core.halted,
        blocked=core.blocked,
        exit_code=core.exit_code,
        instret=core.instret,
    )


def capture_baseline(machine: "Machine") -> MachineBaseline:
    """Image every mapped page; future snapshots/restores delta against it.

    Resets the dirty-page bookkeeping: the baseline is the new "clean"
    reference, so anything dirtied before it is folded into the image.
    """
    pages = machine.memory.capture_pages(machine.memory.segment_pages())
    machine.memory._debug_dirty_pages.clear()
    machine._mirror_dirty.clear()
    return MachineBaseline(pages=pages, code_words=tuple(machine.code_words))


def capture_snapshot(machine: "Machine", baseline: MachineBaseline) -> MachineSnapshot:
    """Checkpoint the machine as a sparse delta over *baseline*."""
    # NB: slices of the memory mapping are bytes, whose compares take the
    # memcmp path; memoryview compares do not (element-by-element, ~25x
    # slower).
    memory = machine.memory
    data = memory.data
    delta: dict[int, bytes] = {}
    for page, image in baseline.pages.items():
        start = page * PAGE_SIZE
        chunk = data[start : start + PAGE_SIZE]
        if chunk != image:
            delta[page] = chunk
    # Debug writes can land outside every segment; those pages are not in
    # the baseline but must survive a restore of this snapshot.
    for page in memory._debug_dirty_pages:
        if page not in baseline.pages and page not in delta:
            start = page * PAGE_SIZE
            chunk = data[start : start + PAGE_SIZE]
            if chunk != ZERO_PAGE:
                delta[page] = chunk
    code_words = tuple(machine.code_words) if machine._mirror_dirty else None
    _trace.add_counter("pages_captured", len(delta))
    return MachineSnapshot(
        baseline=baseline,
        page_delta=delta,
        cores=tuple(_capture_core(core) for core in machine.cores),
        console=bytes(machine.console),
        heap=machine.heap.capture(),
        instret=machine.instret,
        barrier=frozenset(machine._barrier_waiting),
        code_words=code_words,
    )


def restore_snapshot(machine: "Machine", snapshot: MachineSnapshot) -> None:
    """Rewind the machine to *snapshot*; clears every debug-unit hook."""
    from .debug import DebugUnit  # machine ↔ debug import cycle guard

    if len(snapshot.cores) != len(machine.cores):
        raise ValueError(
            f"snapshot taken with {len(snapshot.cores)} core(s), "
            f"machine has {len(machine.cores)}"
        )
    memory = machine.memory

    # 1. Disarm everything.  A fresh DebugUnit (rather than clear()) avoids
    #    rewriting trap-patched words twice: the page restore below already
    #    reinstates the original code bytes.
    machine._fetch_watch.clear()
    machine._load_watch.clear()
    machine._store_watch.clear()
    machine.debug = DebugUnit(machine)

    # 2. Memory: baseline pages overlaid with the snapshot's delta, plus a
    #    zero-page for any gap page dirtied since (restore_pages skips
    #    pages that already match, so this stays copy-on-write).
    targets = dict(snapshot.baseline.pages)
    targets.update(snapshot.page_delta)
    for page in memory._debug_dirty_pages:
        if page not in targets:
            targets[page] = ZERO_PAGE
    rewritten = memory.restore_pages(targets)
    _trace.add_counter("pages_restored", rewritten)
    # Gap pages carried by the delta still diverge from the baseline.
    memory._debug_dirty_pages = {
        page for page in snapshot.page_delta if page not in snapshot.baseline.pages
    }

    # 3. Code mirror + decode cache.  Only indices the debug port touched
    #    can diverge, so repair and re-decode those instead of rebuilding
    #    the mirror.
    decode_cache = machine.decode_cache
    if snapshot.code_words is not None:
        for index, (word, target) in enumerate(
            zip(machine.code_words, snapshot.code_words)
        ):
            if word != target:
                decode_cache[index] = decode_fields(target)
        machine.code_words = list(snapshot.code_words)
        machine._mirror_dirty = set(
            index
            for index, word in enumerate(snapshot.code_words)
            if word != snapshot.baseline.code_words[index]
        )
        machine._code_gen += 1
    elif machine._mirror_dirty:
        for index in machine._mirror_dirty:
            word = snapshot.baseline.code_words[index]
            machine.code_words[index] = word
            decode_cache[index] = decode_fields(word)
        machine._mirror_dirty.clear()
        machine._code_gen += 1

    # 4. Cores (including the one-shot load/store transforms, which are
    #    never live at a snapshot point — they exist only within a single
    #    triggering instruction).
    for core, state in zip(machine.cores, snapshot.cores):
        core.regs[:] = state.regs
        core.pc = state.pc
        core.lr = state.lr
        core.cr = state.cr
        core.halted = state.halted
        core.blocked = state.blocked
        core.exit_code = state.exit_code
        core.instret = state.instret
        core._load_transform = None
        core._store_transform = None

    # 5. Console, heap allocator, counters, barrier membership.
    machine.console[:] = snapshot.console
    machine.heap.restore(snapshot.heap)
    machine.instret = snapshot.instret
    machine._barrier_waiting = set(snapshot.barrier)


__all__ = [
    "CoreState",
    "MachineBaseline",
    "MachineSnapshot",
    "capture_baseline",
    "capture_snapshot",
    "restore_snapshot",
]
