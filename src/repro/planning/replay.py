"""Golden-run access trace: per-address access facts for pruning.

The dormancy prover needs to know, for one (program, input case) pair,
what the fault-free run actually touches:

* how often each watched pc is fetched, with the condition register and
  effective address at every fetch (trigger activation counts, branch
  decision equivalence, dead-store analysis), and when a corrupted code
  word is last fetched;
* when each memory word is last read — by a load or by the ``puts``
  syscall walking a string (dead-location analysis);
* read/write events for the registers the fault set corrupts
  (dead-register analysis);
* load/store counts on data-trigger addresses (data-trigger dormancy).

The trace runs no model of the CPU of its own.  Like Xception watching
its target through the processor's debug facilities, it boots the
program, installs observers in the interpreter's own hook tables and
runs the golden run with ``Machine.run`` on the ``simple`` engine.  It
observes only the fetches the prover reads: every load, every ``sc``,
the watched pcs and — when registers are tracked — the instructions that
touch them; data-trigger addresses get data watches.  An instruction's
*index* is its ordinal among observed fetches.  The prover only compares
indices with each other, and every fetch it compares is observed, so
ordinals order exactly as retirement positions would.

Fail-safe by construction: the trace only reports ``ok`` when the golden
run exited cleanly within budget (and below :func:`trace_cap`) and its
console output matches the case oracle byte-for-byte, and an accessor
asked about a fetch it did not observe answers ``None`` so the prover
declines.  A hanging golden run or an oversized workload disables
planning for the case rather than risking a wrong synthesized record.
"""

from __future__ import annotations

import itertools
import os
from typing import Iterable

from ..isa.encoding import (
    COND_ALWAYS,
    COND_EQ,
    COND_GE,
    COND_GT,
    COND_LE,
    COND_LT,
    COND_NE,
    OP_ADDI,
    OP_ADDIS,
    OP_ANDI,
    OP_CMPI,
    OP_CMPLI,
    OP_LBZ,
    OP_LWZ,
    OP_MFLR,
    OP_MTLR,
    OP_MULLI,
    OP_ORI,
    OP_SC,
    OP_SLWI,
    OP_SRAWI,
    OP_SRWI,
    OP_STB,
    OP_STW,
    OP_XO,
    OP_XORI,
)
from ..machine.cpu import decode_fields
from ..machine.loader import Executable, boot
from ..machine.machine import ENGINE_SIMPLE
from ..machine.syscalls import SYS_PUTS
from ..swifi.campaign import InputCase

_MASK = 0xFFFFFFFF

#: Default per-case instruction ceiling for access tracing.  Beyond it the
#: trace declares itself unusable and the planner falls back to normal
#: execution for the whole case — pruning is an optimisation, never worth
#: an unbounded golden run.
DEFAULT_TRACE_CAP = 8_000_000

#: Taken/not-taken for each branch condition over the three condition
#: register states, indexed (cr < 0, cr == 0, cr > 0).
COND_TRIPLES: dict[int, tuple[bool, bool, bool]] = {
    COND_LT: (True, False, False),
    COND_LE: (True, True, False),
    COND_EQ: (False, True, False),
    COND_GE: (False, True, True),
    COND_GT: (False, False, True),
    COND_NE: (True, False, True),
    COND_ALWAYS: (True, True, True),
}

_MEMORY_OPCODES = frozenset({OP_LWZ, OP_STW, OP_LBZ, OP_STB})
_READ_OPCODES = frozenset({OP_LWZ, OP_LBZ, OP_SC})
_ALU_IMM_OPCODES = frozenset(
    {OP_ADDI, OP_ADDIS, OP_MULLI, OP_ANDI, OP_ORI, OP_XORI,
     OP_SLWI, OP_SRWI, OP_SRAWI}
)


def trace_cap() -> int:
    """The instruction ceiling, overridable via ``REPRO_PLAN_TRACE_CAP``."""
    return int(os.environ.get("REPRO_PLAN_TRACE_CAP", str(DEFAULT_TRACE_CAP)))


def cond_taken(cond: int, cr: int) -> bool | None:
    """Whether branch condition *cond* is taken under *cr*; None if illegal."""
    triple = COND_TRIPLES.get(cond)
    if triple is None:
        return None
    return triple[0] if cr < 0 else (triple[1] if cr == 0 else triple[2])


def _register_accesses(
    opcode: int, rd: int, ra: int, rb: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(read, written) registers of one decoded instruction.

    Conservative: every ``sc`` reads r3 and its result writes are
    ignored, and every XO form reads rb (an extra read or a missing write
    can only under-prune, never mis-prune).
    """
    if opcode in _ALU_IMM_OPCODES or opcode == OP_LWZ or opcode == OP_LBZ:
        return (ra,), (rd,)
    if opcode == OP_STW or opcode == OP_STB:
        return (ra, rd), ()
    if opcode == OP_XO:
        return (ra, rb), (rd,)
    if opcode == OP_CMPI or opcode == OP_CMPLI:
        return (ra,), ()
    if opcode == OP_MFLR:
        return (), (rd,)
    if opcode == OP_MTLR:
        return (rd,), ()
    if opcode == OP_SC:
        return (3,), ()
    return (), ()  # branches, trap


class GoldenAccessTrace:
    """One observed fault-free run of (executable, case).

    Indices are 0-based ordinals among observed fetches: the fetch at
    index ``i`` happens before the one at ``i + 1``.  "Read at index i"
    means the instruction fetched at index i observed the value, so a
    store at index ``s`` is dead when no read of its target word has an
    index greater than ``s``.
    """

    def __init__(
        self,
        executable: Executable,
        case: InputCase,
        *,
        watch_pcs: Iterable[int] = (),
        data_addrs: Iterable[int] = (),
        tracked_regs: Iterable[int] = (),
        budget: int,
        cap: int | None = None,
    ) -> None:
        self.case = case
        self.failure: str | None = None
        cap = trace_cap() if cap is None else cap

        machine = boot(executable, num_cores=1, inputs=dict(case.pokes),
                       engine=ENGINE_SIMPLE)
        self._code_base = machine.code_base
        self._code_end = machine.code_end
        self._code_words = machine.code_words
        self._mapped = [(s.start, s.end) for s in machine.memory.segments]

        self._events: dict[int, list[tuple[int, int | None, int]]] = {
            pc: [] for pc in watch_pcs
            if self._code_base <= pc < self._code_end
        }
        self._last_read: dict[int, int] = {}
        self._data_counts: dict[tuple[str, int], int] = {}
        # r0 reads as zero even right after a corruption (the injector
        # resets it), so tracking it would only add noise.
        self._reg_events: dict[int, list[tuple[int, bool]]] = {
            reg: [] for reg in frozenset(tracked_regs) - {0}
        }
        #: (start, index, console length) of the last ``puts``; the walk's
        #: length is known once the syscall has run.
        self._puts: tuple[int, int, int] | None = None

        self._install_observers(machine, data_addrs)
        limit = min(budget, cap)
        self.result = machine.run(limit)
        # The machine waits for the cyclic collector; its observers need not.
        machine._fetch_watch.clear()
        self._resolve_puts(machine.console)
        self.instructions = self.result.instructions
        status = self.result.status
        if status != "exited" and self.instructions >= limit and limit < budget:
            self.failure = "trace-cap"
        self.ok = status == "exited" and self.result.console == case.expected
        if not self.ok and self.failure is None:
            self.failure = (
                "console-mismatch" if status == "exited" else f"golden-{status}"
            )

    # -- observers -----------------------------------------------------

    def _install_observers(self, machine, data_addrs: Iterable[int]) -> None:
        """Install a fetch observer at every pc the prover reads, and a
        counting data watch on every data-trigger address."""
        ordinal = itertools.count()
        base = self._code_base
        if self._reg_events:
            pcs = set(range(base, self._code_end, 4))
        else:
            # only loads and syscalls read memory (word >> 26 is the opcode)
            pcs = {base + 4 * index for index, word in enumerate(self._code_words)
                   if word >> 26 in _READ_OPCODES}
        for pc in pcs.union(self._events):
            observer = self._observer_for(pc, ordinal)
            if observer is not None:
                machine._fetch_watch[pc] = observer
        for addr in data_addrs:
            machine._load_watch[addr] = self._data_counter(("load", addr))
            machine._store_watch[addr] = self._data_counter(("store", addr))

    def _observer_for(self, pc: int, ordinal):
        """The fetch handler for *pc*, or None when the prover never reads
        its execution.  Every call takes the next ordinal."""
        opcode, rd, ra, rb, imm = decode_fields(
            self._code_words[(pc - self._code_base) >> 2]
        )
        events = self._events.get(pc)
        reg_events = self._reg_events
        last_read = self._last_read

        if opcode == OP_LWZ and events is None and not reg_events:
            # The common case, kept lean: a load the prover needs only
            # for its read.
            def observe_load(core, _pc, _word):
                index = next(ordinal)
                ea = (core.regs[ra] + imm) & _MASK
                last_read[ea & ~3] = index
                if ea & 3:
                    last_read[(ea + 3) & ~3] = index
            return observe_load

        reads = writes = ()
        if reg_events:
            reads, writes = _register_accesses(opcode, rd, ra, rb)
            reads = [reg_events[reg] for reg in reads if reg in reg_events]
            writes = [reg_events[reg] for reg in writes if reg in reg_events]
        load = opcode == OP_LWZ or opcode == OP_LBZ
        syscall = opcode == OP_SC
        if events is None and not (load or syscall or reads or writes):
            return None
        memory_op = opcode in _MEMORY_OPCODES
        word_load = opcode == OP_LWZ
        note_syscall = self._note_syscall

        def observe(core, _pc, _word):
            index = next(ordinal)
            regs = core.regs
            if events is not None:
                ea = (regs[ra] + imm) & _MASK if memory_op else None
                events.append((index, ea, core.cr))
            if load:
                ea = (regs[ra] + imm) & _MASK
                last_read[ea & ~3] = index
                if word_load and ea & 3:
                    last_read[(ea + 3) & ~3] = index
            elif syscall:
                note_syscall(core, index, imm)
            for accesses in reads:
                accesses.append((index, False))
            for accesses in writes:
                accesses.append((index, True))
        return observe

    def _data_counter(self, key: tuple[str, int]):
        counts = self._data_counts

        def count(_core, _address, value):
            counts[key] = counts.get(key, 0) + 1
            return value
        return count

    def _note_syscall(self, core, index: int, number: int) -> None:
        console = core.machine.console
        self._resolve_puts(console)
        if number == SYS_PUTS:
            self._puts = (core.regs[3], index, len(console))

    def _resolve_puts(self, console) -> None:
        """Mark the words the last ``puts`` walked as read at its index.

        Called at the next ``sc`` and at run end: only a syscall writes
        the console, so by then it holds exactly the walked string.  The
        walk also read the NUL terminator.
        """
        if self._puts is None:
            return
        start, index, before = self._puts
        self._puts = None
        last_read = self._last_read
        end = start + len(console) - before
        for addr in range(start & ~3, (end & ~3) + 4, 4):
            # loads after the puts already recorded later indices
            if last_read.get(addr, -1) < index:
                last_read[addr] = index

    # -- prover accessors ----------------------------------------------

    def _index_of(self, pc: int) -> int | None:
        if pc < self._code_base or pc >= self._code_end or pc & 3:
            return None
        return (pc - self._code_base) >> 2

    def exec_count_at(self, pc: int) -> int | None:
        """Fetches of *pc*; None when the trace did not watch it."""
        if pc < self._code_base or pc >= self._code_end:
            return 0  # a fetch there traps: never in a clean golden run
        events = self._events.get(pc)
        return None if events is None else len(events)

    def last_exec_at(self, pc: int) -> int | None:
        """Index of the last fetch of *pc*, or -1; None when not watched."""
        count = self.exec_count_at(pc)
        if count is None:
            return None
        return self._events[pc][-1][0] if count else -1

    def events_at(self, pc: int) -> list[tuple[int, int | None, int]]:
        """Per-activation (index, effective address, cr) for a watched pc."""
        return self._events.get(pc, [])

    def last_read_at(self, word_addr: int) -> int:
        """Index of the last read of any byte of the word, or -1."""
        return self._last_read.get(word_addr & ~3, -1)

    def data_access_count(self, addr: int, *, on_load: bool, on_store: bool) -> int:
        count = 0
        if on_load:
            count += self._data_counts.get(("load", addr), 0)
        if on_store:
            count += self._data_counts.get(("store", addr), 0)
        return count

    def reg_events_at(self, reg: int) -> list[tuple[int, bool]] | None:
        """(index, is_write) events for *reg*, reads of one instruction
        before its writes; None when it wasn't tracked.

        An empty list is a real answer (tracked, never accessed); None
        means the trace cannot say and the caller must decline.
        """
        return self._reg_events.get(reg)

    def golden_word(self, pc: int) -> int | None:
        index = self._index_of(pc)
        return None if index is None else self._code_words[index]

    def is_mapped(self, addr: int) -> bool:
        """Whether a debug-port word write at *addr* would land in a segment."""
        return any(lo <= addr and addr + 4 <= hi for lo, hi in self._mapped)


__all__ = [
    "COND_TRIPLES",
    "DEFAULT_TRACE_CAP",
    "GoldenAccessTrace",
    "cond_taken",
    "trace_cap",
]
