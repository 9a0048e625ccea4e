"""The compiled engine (``trace``): block and trace closures for RX32.

The per-instruction interpreter in :mod:`repro.machine.cpu` pays fetch,
bounds check, decode-cache lookup and a long if/elif dispatch for every
retired instruction.  Campaign throughput lives in that loop, so this
module trades a one-time compilation cost for straight-line execution.
:class:`TraceEngine` runs two tiers over one dispatch loop.

**The block tier** is what every PC starts on:

* ``Machine.decode_cache`` is scanned into **basic blocks** — runs of
  straight-line instructions terminated by a branch
  (``b``/``bl``/``blr``/``bc``), cut before ``sc``/``trap`` and before
  any PC carrying a fetch watch;
* a block's first entry on a machine runs in the interpreter; its
  second compiles it **once** into a specialized Python closure (most
  blocks of a short run are entered only once and never pay for
  codegen): operands are baked in as constants, registers live in
  Python locals for the duration of the block, and branch targets and
  trap messages are precomputed;
* a load or store whose address falls in the machine's stacks or data
  segment — the first two ranges of ``Machine.access_ranges()``, bound
  as closure locals — costs one range test and one call to a pre-bound
  ``Struct('>I')`` method (or one ``mem_data`` index for bytes); every
  other access (heap, code, misaligned, unmapped, a write to code) calls
  the machine's one slow path, which raises the interpreter's trap;
* the dispatch loop executes block-at-a-time from a cache keyed by the
  block's entry index, falling back to the per-instruction loop whenever
  a block would overrun the quantum / ``pause_at_instret`` budget, when
  the next PC carries a fetch watch, and for the entire remainder of a
  quantum while any data watch or one-shot load/store transform is
  armed — so every fault-injection hook keeps bit-identical semantics.

**The trace tier** rides on block dispatch: it profiles block-entry
execution counts and branch outcomes during warmup, chains hot blocks
across predictable branches into **superblock traces** (the profiled
path, guarded by cheap side-exits that fall back to block dispatch),
batches self-looping traces into a budget-bounded inner loop, and keeps
each trace's **frame slots** — the words at constant offsets from one
base register the trace never writes — in Python locals.  One guard per
trace entry proves the base aligned and every slot inside one mapped
range; after it, a slot the trace has already loaded or stored is a
copy of its local, and a first load or a store needs no range test.
Stores write through to memory (a looping trace whose only accesses are
frame words defers them to its exits), and any other store forgets the
cached slots, since it may alias one.  A trace closure returns
``(next_pc, executed)``; ``executed == 0`` signals a failed frame guard
and nothing has run.  A block that never becomes part of a trace still
runs compiled.

Compiled closures are invalidated by a generation check at every
``run_quantum`` entry and after every fetch-watch step: the machine's
``_code_gen`` counter (bumped by ``debug_write_code`` and by snapshot
restore of dirty code-mirror pages), the :class:`~repro.machine.debug.
DebugUnit` ``generation`` counter (bumped on every watch arm/disarm),
the memory's segment version, and the literal fetch-watch address set
(which callers such as the golden-run tracer mutate directly).

The Python *code objects* are cached at module level keyed by the raw
word tuple — a campaign boots a fresh machine per injection run, so
per-machine instantiation must be cheap: it is one factory call per
block or trace, not a re-``compile()``.  The module cache is a bounded
LRU (:class:`FactoryCache`) backed by an on-disk tier keyed by a content
hash of the emitted code, so repeated campaign boots of the same binary
— including the orchestrator's fresh worker processes — skip source
generation *and* ``compile()`` entirely.

**Warm boots.**  Everything derived from the code image alone lives in
one :class:`CodeImage` per image, inside the :class:`FactoryCache`: the
decoded words, each block's scanned length, and the factories of the
blocks and traces machines of that image compiled.  The triggers stay
per machine (a block compiles on the machine's own second entry, a
trace forms at its own ``TRACE_HOT``), so nothing is compiled that a
lone machine would not compile; but a machine booted after another
instantiates a known block, and adopts a known trace, at its own first
entry of the pc.  This is exact: a machine reads and publishes only
while its code mirror is the image (``Machine._code_gen == 0``), a
known block or trace is adopted only if none of the pcs it spans is
fetch-watched on the adopting machine, a block or trace a fetch watch
cut is never published, and a closure runs the same code whichever
machine built its factory.  Closures (they bind each machine's memory),
branch profiles and bailouts stay per machine.

Correctness contract (enforced by ``tests/test_engine_equivalence.py``):
for any program and any fault from the paper's Table-3 classes, the
compiled engine retires the same instructions, produces the same
register file, memory image, console and trap (with identical pc/core
attribution and retired-instruction count) as the simple interpreter.
"""

from __future__ import annotations

import hashlib
import importlib.util
import marshal
import os
from collections import OrderedDict
from struct import Struct
from typing import TYPE_CHECKING

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
    OP_B,
    OP_BC,
    OP_BL,
    OP_BLR,
    OP_CMPI,
    OP_CMPLI,
    OP_LBZ,
    OP_LWZ,
    OP_MFLR,
    OP_MTLR,
    OP_MULLI,
    OP_ORI,
    OP_SLWI,
    OP_SRAWI,
    OP_SRWI,
    OP_STB,
    OP_STW,
    OP_XO,
    OP_XORI,
    XO_ADD,
    XO_AND,
    XO_CMP,
    XO_DIVW,
    XO_MODW,
    XO_MUL,
    XO_NEG,
    XO_NOR,
    XO_NOT,
    XO_OR,
    XO_SLW,
    XO_SRAW,
    XO_SRW,
    XO_SUB,
    XO_XOR,
)
from ..observability import trace as _trace
from .cpu import decode_fields
from .traps import ArithmeticTrap, Trap

if TYPE_CHECKING:  # pragma: no cover
    from .cpu import Core
    from .machine import Machine

#: Longest straight-line run compiled into one closure.  Basic blocks in
#: compiled MiniC are far shorter; the cap only bounds codegen size.
MAX_BLOCK = 64

#: Cache entry for a PC that cannot head a compiled block (``sc``,
#: ``trap``, an illegal word): the dispatcher single-steps it instead.
_UNCOMPILED: tuple[int, None] = (0, None)

_TERMINATORS = frozenset({OP_B, OP_BL, OP_BLR, OP_BC})

_STRAIGHT = frozenset(
    {
        OP_ADDI,
        OP_ADDIS,
        OP_MULLI,
        OP_ANDI,
        OP_ORI,
        OP_XORI,
        OP_CMPI,
        OP_CMPLI,
        OP_SLWI,
        OP_SRWI,
        OP_SRAWI,
        OP_MFLR,
        OP_MTLR,
        OP_LWZ,
        OP_STW,
        OP_LBZ,
        OP_STB,
    }
)

_XO_VALID = frozenset(
    {
        XO_ADD,
        XO_SUB,
        XO_MUL,
        XO_CMP,
        XO_DIVW,
        XO_MODW,
        XO_AND,
        XO_OR,
        XO_XOR,
        XO_NOR,
        XO_SLW,
        XO_SRW,
        XO_SRAW,
        XO_NEG,
        XO_NOT,
    }
)

_COND_EXPR = {
    COND_LT: "cr < 0",
    COND_LE: "cr <= 0",
    COND_EQ: "cr == 0",
    COND_GE: "cr >= 0",
    COND_GT: "cr > 0",
    COND_NE: "cr != 0",
}

_M = "0xFFFFFFFF"


def _supported(decoded: tuple[int, int, int, int, int]) -> bool:
    """Whether codegen handles this word (illegal words fall to the
    interpreter, which raises the trap with full context)."""
    opcode = decoded[0]
    if opcode == OP_XO:
        return decoded[4] in _XO_VALID
    if opcode == OP_BC:
        return decoded[1] == COND_ALWAYS or decoded[1] in _COND_EXPR
    return opcode in _STRAIGHT or opcode in _TERMINATORS


class _Emitter:
    """Generates the body of one block closure from decoded words.

    Registers used anywhere in the block are hoisted into Python locals
    (``r5 = regs[5]``) and written back in the epilogue — and, because
    the block is straight-line, the locals hold the exact architectural
    state of the completed-instruction prefix at every point, which is
    what the trap handler writes back.  ``r0`` is modelled faithfully:
    it is a readable register until the first register-writing
    instruction zeroes it (matching the interpreter's ``regs[0] = 0``
    after every write), after which reads fold to the literal ``0``.

    Loads and stores test the effective address against the two ranges
    the factory binds (``lo0``..``hi1``) and otherwise call ``slow``;
    ``ip``, the index the trap handler reports, is stored only on the
    paths that can raise: the slow path and division by zero.
    """

    def __init__(self) -> None:
        self.prelude: list[str] = []  # factory-level constants
        self.lines: list[str] = []    # run() body
        self.used: dict[int, bool] = {}
        self.uses_cr = False
        self.uses_lr = False
        self.r0_zero = False
        self.can_trap = False

    def pc_offset(self, k: int) -> int:
        """Byte offset of instruction *k* from ``entry_pc``.  Blocks are
        contiguous; the trace emitter overrides this with the stitched
        path's real (possibly backward) offsets."""
        return 4 * k

    # -- register plumbing ------------------------------------------------

    def read(self, reg: int) -> str:
        if reg == 0 and self.r0_zero:
            return "0"
        self.used[reg] = True
        return f"r{reg}"

    def write(self, rd: int, expr: str) -> None:
        self.used[rd] = True
        self.lines.append(f"r{rd} = {expr}")
        if rd == 0:
            self.lines.append("r0 = 0")
        elif not self.r0_zero:
            self.used[0] = True
            self.lines.append("r0 = 0")
        self.r0_zero = True

    def _signed(self, expr: str, temp: str) -> str:
        """Emit a signed-view temp of *expr*; returns the temp name."""
        self.lines.append(f"{temp} = {expr}")
        self.lines.append(f"if {temp} >= 0x80000000:")
        self.lines.append(f"    {temp} -= 0x100000000")
        return temp

    # -- straight-line instructions --------------------------------------

    def emit(self, k: int, decoded: tuple[int, int, int, int, int]) -> None:
        opcode, rd, ra, rb, imm = decoded
        if opcode == OP_ADDI:
            a = self.read(ra)
            self.write(rd, hex(imm & 0xFFFFFFFF) if a == "0"
                       else f"({a} + {imm}) & {_M}")
        elif opcode == OP_ADDIS:
            a = self.read(ra)
            self.write(rd, hex((imm << 16) & 0xFFFFFFFF) if a == "0"
                       else f"({a} + {imm << 16}) & {_M}")
        elif opcode == OP_MULLI:
            a = self.read(ra)
            self.write(rd, "0" if a == "0" else f"({a} * {imm}) & {_M}")
        elif opcode == OP_ANDI:
            a = self.read(ra)
            self.write(rd, "0" if a == "0" else f"{a} & {imm}")
        elif opcode == OP_ORI:
            a = self.read(ra)
            self.write(rd, hex(imm) if a == "0" else f"{a} | {imm}")
        elif opcode == OP_XORI:
            a = self.read(ra)
            self.write(rd, hex(imm) if a == "0" else f"{a} ^ {imm}")
        elif opcode == OP_CMPI:
            self.uses_cr = True
            a = self.read(ra)
            if a == "0":
                self.lines.append(
                    f"cr = {-1 if 0 < imm else (1 if 0 > imm else 0)}"
                )
            else:
                t = self._signed(a, "t")
                self.lines.append(
                    f"cr = -1 if {t} < {imm} else (1 if {t} > {imm} else 0)"
                )
        elif opcode == OP_CMPLI:
            self.uses_cr = True
            a = self.read(ra)
            if a == "0":
                self.lines.append(f"cr = {-1 if 0 < imm else 0}")
            else:
                self.lines.append(
                    f"cr = -1 if {a} < {imm} else (1 if {a} > {imm} else 0)"
                )
        elif opcode == OP_SLWI:
            a = self.read(ra)
            self.write(rd, "0" if a == "0" else f"({a} << {imm & 31}) & {_M}")
        elif opcode == OP_SRWI:
            a = self.read(ra)
            self.write(rd, "0" if a == "0" else f"{a} >> {imm & 31}")
        elif opcode == OP_SRAWI:
            a = self.read(ra)
            if a == "0":
                self.write(rd, "0")
            else:
                t = self._signed(a, "t")
                self.write(rd, f"({t} >> {imm & 31}) & {_M}")
        elif opcode == OP_MFLR:
            self.uses_lr = True
            self.write(rd, f"lr & {_M}")
        elif opcode == OP_MTLR:
            self.uses_lr = True
            self.lines.append(f"lr = {self.read(rd)}")
        elif opcode == OP_LWZ:
            self._emit_load_word(k, rd, ra, imm)
        elif opcode == OP_STW:
            self._emit_store_word(k, rd, ra, imm)
        elif opcode == OP_LBZ:
            self._emit_load_byte(k, rd, ra, imm)
        elif opcode == OP_STB:
            self._emit_store_byte(k, rd, ra, imm)
        elif opcode == OP_XO:
            self._emit_xo(k, rd, ra, rb, imm)
        else:  # pragma: no cover - the scanner only admits supported words
            raise AssertionError(f"unsupported opcode {opcode:#x} in block")

    # -- memory (see _bind_memory and _memory_slow_path) -------------------

    def _inline(self, word: bool) -> str:
        """Condition under which the access at ``ea`` runs inline.

        Every segment starts and ends on a multiple of 4 (enforced by
        ``Memory.add_segment``), so an aligned word that starts inside a
        range lies wholly inside it.
        """
        ranges = "lo0 <= ea < hi0 or lo1 <= ea < hi1"
        return f"ea & 3 == 0 and ({ranges})" if word else ranges

    def _emit_access(self, k: int, ra: int, imm: int, word: bool,
                     inline: str, slow: str) -> None:
        self.can_trap = True
        a = self.read(ra)
        if a == "0":
            self.lines.append(f"ea = {hex(imm & 0xFFFFFFFF)}")
        else:
            self.lines.append(f"ea = ({a} + {imm}) & {_M}")
        self.lines += [
            f"if {self._inline(word)}:",
            f"    {inline}",
            "else:",
            f"    ip = {k}",
            f"    {slow}",
        ]

    def _emit_load_word(self, k: int, rd: int, ra: int, imm: int) -> None:
        self._emit_access(k, ra, imm, True, "t = unpack(mem_data, ea)[0]",
                          f"t = slow({OP_LWZ}, ea, 0)")
        self.write(rd, "t")

    def _emit_store_word(self, k: int, rd: int, ra: int, imm: int) -> None:
        value = self.read(rd)
        self._emit_access(k, ra, imm, True, f"pack(mem_data, ea, {value})",
                          f"slow({OP_STW}, ea, {value})")

    def _emit_load_byte(self, k: int, rd: int, ra: int, imm: int) -> None:
        self._emit_access(k, ra, imm, False, "t = mem_data[ea]",
                          f"t = slow({OP_LBZ}, ea, 0)")
        self.write(rd, "t")

    def _emit_store_byte(self, k: int, rd: int, ra: int, imm: int) -> None:
        value = self.read(rd)
        self._emit_access(k, ra, imm, False, f"mem_data[ea] = {value} & 0xFF",
                          f"slow({OP_STB}, ea, {value})")

    # -- the XO register-register group -----------------------------------

    def _emit_xo(self, k: int, rd: int, ra: int, rb: int, subop: int) -> None:
        a = self.read(ra)
        b = self.read(rb)
        if subop == XO_ADD:
            self.write(rd, f"({a} + {b}) & {_M}")
        elif subop == XO_SUB:
            self.write(rd, f"({a} - {b}) & {_M}")
        elif subop == XO_MUL:
            self.write(rd, f"({a} * {b}) & {_M}")
        elif subop == XO_CMP:
            self.uses_cr = True
            t = self._signed(a, "t")
            u = self._signed(b, "u")
            self.lines.append(
                f"cr = -1 if {t} < {u} else (1 if {t} > {u} else 0)"
            )
        elif subop in (XO_DIVW, XO_MODW):
            self.can_trap = True
            self.prelude.append(
                f"_msg{k} = 'integer division by zero at ' "
                f"+ format(entry_pc + {self.pc_offset(k)}, '#010x')"
            )
            t = self._signed(a, "t")
            u = self._signed(b, "u")
            self.lines += [
                f"if {u} == 0:",
                f"    ip = {k}",
                f"    raise ArithmeticTrap(_msg{k})",
                f"q = abs({t}) // abs({u})",
                f"if ({t} < 0) != ({u} < 0):",
                "    q = -q",
            ]
            if subop == XO_DIVW:
                self.write(rd, f"q & {_M}")
            else:
                self.write(rd, f"({t} - q * {u}) & {_M}")
        elif subop == XO_AND:
            self.write(rd, f"{a} & {b}")
        elif subop == XO_OR:
            self.write(rd, f"{a} | {b}")
        elif subop == XO_XOR:
            self.write(rd, f"{a} ^ {b}")
        elif subop == XO_NOR:
            self.write(rd, f"({a} | {b}) ^ {_M}")
        elif subop == XO_SLW:
            self.write(rd, f"({a} << ({b} & 31)) & {_M}")
        elif subop == XO_SRW:
            self.write(rd, f"{a} >> ({b} & 31)")
        elif subop == XO_SRAW:
            t = self._signed(a, "t")
            self.write(rd, f"({t} >> ({b} & 31)) & {_M}")
        elif subop == XO_NEG:
            self.write(rd, f"(-{a}) & {_M}")
        elif subop == XO_NOT:
            self.write(rd, f"{a} ^ {_M}")
        else:  # pragma: no cover - the scanner only admits valid subops
            raise AssertionError(f"unsupported XO subop {subop:#x} in block")

    # -- terminators -------------------------------------------------------

    def emit_terminal(self, k: int, decoded: tuple[int, int, int, int, int]) -> str:
        """The terminal branch; returns the ``return <next_pc>`` line."""
        opcode, rd, _ra, _rb, imm = decoded
        if opcode == OP_B:
            self.prelude.append(
                f"_t{k} = (entry_pc + {4 * (k + imm)}) & 0xFFFFFFFF"
            )
            return f"return _t{k}"
        if opcode == OP_BL:
            self.uses_lr = True
            self.prelude.append(
                f"_t{k} = (entry_pc + {4 * (k + imm)}) & 0xFFFFFFFF"
            )
            self.prelude.append(f"_l{k} = entry_pc + {4 * k + 4}")
            self.lines.append(f"lr = _l{k}")
            return f"return _t{k}"
        if opcode == OP_BLR:
            self.uses_lr = True
            return "return lr"
        assert opcode == OP_BC
        self.prelude.append(
            f"_t{k} = (entry_pc + {4 * (k + imm)}) & 0xFFFFFFFF"
        )
        if rd == COND_ALWAYS:
            return f"return _t{k}"
        self.uses_cr = True
        self.prelude.append(f"_f{k} = entry_pc + {4 * k + 4}")
        return f"return _t{k} if {_COND_EXPR[rd]} else _f{k}"

    def emit_fallthrough(self, count: int) -> str:
        """No terminal branch (block cut by a watch / ``sc`` / cap)."""
        self.prelude.append(f"_fall = entry_pc + {4 * count}")
        return "return _fall"


def _generate_source(decoded: tuple[tuple[int, int, int, int, int], ...]) -> str:
    """Python source of the factory producing one block's ``run`` closure."""
    emitter = _Emitter()
    count = len(decoded)
    terminal = decoded[-1][0] in _TERMINATORS
    for k in range(count - 1 if terminal else count):
        emitter.emit(k, decoded[k])
    if terminal:
        ret = emitter.emit_terminal(count - 1, decoded[count - 1])
    else:
        ret = emitter.emit_fallthrough(count)

    hoists = [f"r{reg} = regs[{reg}]" for reg in emitter.used]
    writebacks = [f"regs[{reg}] = r{reg}" for reg in emitter.used]
    if emitter.uses_cr:
        hoists.append("cr = core.cr")
        writebacks.append("core.cr = cr")
    if emitter.uses_lr:
        hoists.append("lr = core.lr")
        writebacks.append("core.lr = lr")

    out = [
        "def factory(entry_pc, machine, mem_data, read_ranges, write_ranges,",
        "            lo0, hi0, lo1, hi1, slow, unpack, pack, ArithmeticTrap, Trap):",
    ]
    out += ["    " + line for line in emitter.prelude]
    out.append("    def run(core, regs):")
    if emitter.can_trap:
        out.append("        try:")
        inner = "            "
    else:
        inner = "        "
    for line in hoists + emitter.lines + writebacks:
        out.append(inner + line)
    out.append(inner + ret)
    if emitter.can_trap:
        out.append("        except Trap as err:")
        handler = "            "
        for line in writebacks:
            out.append(handler + line)
        out += [
            handler + "n = ip + 1",
            handler + "core.instret += n",
            handler + "machine.instret += n",
            handler + "pc = entry_pc + ip * 4",
            handler + "core.pc = pc",
            handler + "if err.pc is None:",
            handler + "    err.pc = pc",
            handler + "if err.core_id is None:",
            handler + "    err.core_id = core.core_id",
            handler + "raise",
        ]
    out.append("    return run")
    out.append("")
    return "\n".join(out)


# ---------------------------------------------------------------------------
# Superblock traces
# ---------------------------------------------------------------------------

#: Block-entry executions before the dispatcher tries to form a trace.
TRACE_HOT = 32
#: A failed formation attempt is retried once the entry gets this hot
#: (the branch profile may have been too thin at ``TRACE_HOT``).
TRACE_RETRY = 1024
#: Minimum profiled outcomes before a conditional branch is predictable.
TRACE_MIN_EDGE = 8
#: Required bias toward one successor for the branch to be stitched over.
TRACE_BIAS = 0.85
#: Formation caps: blocks per trace / instructions per iteration.
TRACE_MAX_BLOCKS = 16
TRACE_MAX_INSTR = 256

#: Trace-cache entry for an entry PC where formation failed or the
#: frame guard bailed: block dispatch handles it from now on.
_NO_TRACE: tuple[int, None] = (0, None)

#: Deferred-exit placeholder: "<marker><target-expr>\x00<count-expr>".
#: Expanded after emission into slot flushes + register write-backs +
#: ``return target, count`` — the full write-back set is only known once
#: the whole trace has been emitted.
_EXIT = "\x00EXIT\x00"

#: Opcodes that write their ``rd`` field (frame-base analysis).
_WRITES_RD = frozenset(
    {
        OP_ADDI,
        OP_ADDIS,
        OP_MULLI,
        OP_ANDI,
        OP_ORI,
        OP_XORI,
        OP_SLWI,
        OP_SRWI,
        OP_SRAWI,
        OP_MFLR,
        OP_LWZ,
        OP_LBZ,
    }
)


class _TraceEmitter(_Emitter):
    """Emits one superblock trace: straight-line instructions from many
    blocks, guard side-exits at internal conditional branches, and the
    frame slots (see :func:`_analyze_frame`) as Python locals.

    ``known`` holds the frame slots whose local is current at the point
    being emitted.  A frame load of a known slot is a copy of its local;
    a first load unpacks the word with no range test (the entry guard
    proved the whole frame mapped) and makes it known.  A frame store
    sets the local and, unless the trace defers its stores to the exits,
    writes through to memory, so memory stays exact for everything else
    that reads it.  Any other store may alias a slot (MiniC takes the
    address of locals), so it forgets every known slot.
    """

    def __init__(self, offsets: list[int], frame) -> None:
        super().__init__()
        self.offsets = offsets  # instruction index -> byte offset
        self.base = None
        self.slots: dict[int, str] = {}  # displacement -> slot local
        self.known: set[int] = set()
        self.writes = False
        self.deferred = False
        self.preload: tuple[int, ...] = ()
        self.stored: set[int] = set()  # slots a deferred trace must flush
        if frame is not None:
            self.base, slots, self.writes, self.deferred, self.preload = frame
            self.slots = {disp: f"_s{i}" for i, disp in enumerate(slots)}
            self.known = set(self.preload)

    def pc_offset(self, k: int) -> int:
        return self.offsets[k]

    def slot_ea(self, disp: int) -> str:
        """The address of a frame slot: fixed, mapped and aligned."""
        return _plus(self.read(self.base), disp)

    def _emit_load_word(self, k: int, rd: int, ra: int, imm: int) -> None:
        name = self.slots.get(imm) if ra == self.base else None
        if name is None:
            super()._emit_load_word(k, rd, ra, imm)
            return
        if imm not in self.known:
            self.known.add(imm)
            self.lines.append(f"{name} = unpack(mem_data, {self.slot_ea(imm)})[0]")
        self.write(rd, name)

    def _emit_store_word(self, k: int, rd: int, ra: int, imm: int) -> None:
        name = self.slots.get(imm) if ra == self.base else None
        if name is None:
            super()._emit_store_word(k, rd, ra, imm)
            self.known.clear()
            return
        self.known.add(imm)
        self.lines.append(f"{name} = {self.read(rd)}")
        if self.deferred:
            self.stored.add(imm)
        else:
            self.lines.append(f"pack(mem_data, {self.slot_ea(imm)}, {name})")

    def _emit_store_byte(self, k: int, rd: int, ra: int, imm: int) -> None:
        super()._emit_store_byte(k, rd, ra, imm)
        self.known.clear()

    def emit_guard(self, k: int, cond: int, predicted_taken: bool,
                   exit_off: int) -> None:
        """Side-exit guard for an internal conditional branch: when the
        profiled-unlikely direction is taken, flush and leave the trace
        at the unstitched target (``k + 1`` instructions retired this
        iteration, the branch itself included)."""
        self.uses_cr = True
        label = f"_sx{k}"
        self.prelude.append(
            f"{label} = (entry_pc + {exit_off}) & 0xFFFFFFFF"
        )
        expr = _COND_EXPR[cond]
        test = f"not ({expr})" if predicted_taken else expr
        self.lines.append(f"if {test}:")
        self.lines.append(f"    {_EXIT}{label}\x00n + {k + 1}")

    def emit_frame_guard(self) -> list[str]:
        """Entry guard and preloads; the guard bails with ``(entry_pc, 0)``
        unless the base is word-aligned and every slot lies inside one
        range (a writable one if the trace stores to a slot).  The bound
        stack range is tested first, against the factory-level
        ``_flo``/``_fhi``; every other range by a walk."""
        disps = sorted(self.slots)
        dmin, dmax = disps[0], disps[-1]
        base = self.read(self.base)
        self.prelude.append(f"_flo = {_plus('lo0', -dmin)}")
        self.prelude.append(f"_fhi = {_plus('hi0', -dmax)}")
        ranges = "write_ranges" if self.writes else "read_ranges"
        lines = [
            f"if {base} & 3 or not _flo <= {base} < _fhi:",
            f"    for lo, hi in {ranges}:",
            f"        if {_plus('lo', -dmin)} <= {base} < {_plus('hi', -dmax)}"
            f" and not {base} & 3:",
            "            break",
            "    else:",
            "        return entry_pc, 0",
        ]
        for disp in self.preload:
            lines.append(
                f"{self.slots[disp]} = unpack(mem_data, {self.slot_ea(disp)})[0]"
            )
        return lines


def _plus(expr: str, value: int) -> str:
    """``expr + value`` as emitted source."""
    if value == 0:
        return expr
    return f"{expr} + {value}" if value > 0 else f"{expr} - {-value}"


def _analyze_frame(steps, looping: bool) -> tuple[tuple | None, bool]:
    """The trace's frame: which word accesses its closure serves from
    Python locals.

    The base is the register the trace never writes that carries the
    most word accesses with a displacement that is a multiple of 4 (the
    lowest register on a tie; never ``r0``); its slots are those
    displacements.  Returns ``(frame, aliased)``, where ``frame`` is
    ``None`` or ``(base, slots, writes, deferred, preload)``:

    * ``writes`` — some slot is stored to, so the entry guard asks for a
      writable range;
    * ``deferred`` — a looping trace whose every memory access is a
      frame word: no other access can observe a slot, so stores update
      the local only and the exits flush them;
    * ``preload`` — the slots a looping trace loads at entry and keeps
      current across iterations: those the body accesses after its last
      non-frame store (all of them when it has none).

    ``aliased`` says whether a non-frame store in the trace forgets a
    known slot.
    """
    instrs = [dec for _off, dec, role, _aux in steps if role == "i"]
    counts: dict[int, int] = {}
    written: set[int] = set()
    for op, rd, ra, _rb, imm in instrs:
        if (op == OP_LWZ or op == OP_STW) and ra and not imm & 3:
            counts[ra] = counts.get(ra, 0) + 1
        if op in _WRITES_RD or (op == OP_XO and imm != XO_CMP):
            written.add(rd)
    for reg in written:
        counts.pop(reg, None)
    if not counts:
        return None, False
    base = min(counts, key=lambda reg: (-counts[reg], reg))

    slots: set[int] = set()
    tail: set[int] = set()  # slots accessed since the last other store
    writes = stores = loads = aliased = False
    for op, _rd, ra, _rb, imm in instrs:
        if (op == OP_LWZ or op == OP_STW) and ra == base and not imm & 3:
            slots.add(imm)
            tail.add(imm)
            writes = writes or op == OP_STW
        elif op == OP_STW or op == OP_STB:
            # It forgets every slot accessed before it.
            aliased = aliased or bool(slots)
            stores = True
            tail = set()
        elif op == OP_LWZ or op == OP_LBZ:
            loads = True
    preload = tuple(sorted(tail)) if looping else ()
    # The first store of a looping trace also forgets the preloaded slots.
    aliased = aliased or (stores and bool(preload))
    deferred = looping and not stores and not loads
    return (base, tuple(sorted(slots)), writes, deferred, preload), aliased


def _generate_trace_source(steps, terminal, frame, count, looping) -> str:
    """Python source of the factory producing one trace's ``run`` closure.

    ``run(core, regs, budget) -> (next_pc, executed)``.  The dispatcher
    only calls it with ``budget >= count``; a looping trace batches full
    iterations while ``n + count <= budget`` still holds.  A return of
    ``(entry_pc, 0)`` means the frame guard failed and no architectural
    state was touched.
    """
    offsets = [step[0] for step in steps]
    tkind, tdec, toff, taux = terminal
    if tkind != "fall":
        offsets.append(toff)

    em = _TraceEmitter(offsets, frame)
    guard = em.emit_frame_guard() if frame is not None else []
    for k, (off, dec, role, aux) in enumerate(steps):
        if role == "i":
            em.emit(k, dec)
        elif role == "s":
            pass  # internal unconditional branch: the path is baked in
        else:
            em.emit_guard(k, dec[1], role == "gt", aux)
    # A looping trace's next iteration starts with the preloaded slots
    # known, so they must still be current at the end of this one.
    assert set(em.preload) <= em.known

    lines = em.lines
    if tkind == "fall":
        em.prelude.append(f"_end = (entry_pc + {toff}) & 0xFFFFFFFF")
        lines.append(f"{_EXIT}_end\x00n + {count}")
    elif tkind == "loop":
        lines.append(f"n += {count}")
        lines.append(f"if n + {count} <= budget:")
        lines.append("    continue")
        lines.append(f"{_EXIT}entry_pc\x00n")
    elif tkind in ("loop_taken", "loop_fall"):
        em.uses_cr = True
        em.prelude.append(f"_x = (entry_pc + {taux}) & 0xFFFFFFFF")
        lines.append(f"n += {count}")
        if tkind == "loop_taken":
            lines.append(f"if {_COND_EXPR[tdec[1]]}:")
            lines.append(f"    if n + {count} <= budget:")
            lines.append("        continue")
            lines.append(f"    {_EXIT}entry_pc\x00n")
            lines.append(f"{_EXIT}_x\x00n")
        else:
            lines.append(f"if {_COND_EXPR[tdec[1]]}:")
            lines.append(f"    {_EXIT}_x\x00n")
            lines.append(f"if n + {count} <= budget:")
            lines.append("    continue")
            lines.append(f"{_EXIT}entry_pc\x00n")
    elif tkind == "b":
        em.prelude.append(f"_t = (entry_pc + {taux}) & 0xFFFFFFFF")
        lines.append(f"{_EXIT}_t\x00n + {count}")
    elif tkind == "bl":
        em.uses_lr = True
        em.prelude.append(f"_t = (entry_pc + {taux}) & 0xFFFFFFFF")
        em.prelude.append(f"_l = entry_pc + {toff + 4}")
        lines.append("lr = _l")
        lines.append(f"{_EXIT}_t\x00n + {count}")
    elif tkind == "blr":
        em.uses_lr = True
        lines.append(f"{_EXIT}lr\x00n + {count}")
    else:
        assert tkind == "bc"
        em.uses_cr = True
        em.prelude.append(f"_t = (entry_pc + {taux[0]}) & 0xFFFFFFFF")
        em.prelude.append(f"_f = (entry_pc + {taux[1]}) & 0xFFFFFFFF")
        lines.append(f"if {_COND_EXPR[tdec[1]]}:")
        lines.append(f"    {_EXIT}_t\x00n + {count}")
        lines.append(f"{_EXIT}_f\x00n + {count}")

    hoists = [f"r{reg} = regs[{reg}]" for reg in em.used]
    writebacks = [f"regs[{reg}] = r{reg}" for reg in em.used]
    if em.uses_cr:
        hoists.append("cr = core.cr")
        writebacks.append("core.cr = cr")
    if em.uses_lr:
        hoists.append("lr = core.lr")
        writebacks.append("core.lr = lr")
    flushes = [
        f"pack(mem_data, {em.slot_ea(disp)}, {em.slots[disp]})"
        for disp in sorted(em.stored)
    ]
    exits = flushes + writebacks

    out = [
        "def factory(entry_pc, machine, mem_data, read_ranges, write_ranges,",
        "            lo0, hi0, lo1, hi1, slow, unpack, pack, ArithmeticTrap, Trap):",
    ]
    out += ["    " + line for line in em.prelude]
    if em.can_trap:
        pcs = ", ".join(str(off) for off in offsets)
        if len(offsets) == 1:
            pcs += ","
        out.append(f"    _tpcs = ({pcs})")
    out.append("    def run(core, regs, budget):")
    for line in hoists + guard:
        out.append("        " + line)
    out.append("        n = 0")
    inner = "        "
    if em.can_trap:
        out.append("        try:")
        inner += "    "
    if looping:
        out.append(inner + "while True:")
        inner += "    "
    for line in lines:
        out.append(inner + line)
    if em.can_trap:
        out.append("        except Trap as err:")
        handler = "            "
        for line in exits:
            out.append(handler + line)
        out += [
            handler + "_n = n + ip + 1",
            handler + "core.instret += _n",
            handler + "machine.instret += _n",
            handler + "pc = entry_pc + _tpcs[ip]",
            handler + "core.pc = pc",
            handler + "if err.pc is None:",
            handler + "    err.pc = pc",
            handler + "if err.core_id is None:",
            handler + "    err.core_id = core.core_id",
            handler + "raise",
        ]
    out.append("    return run")
    out.append("")

    final: list[str] = []
    for line in out:
        stripped = line.lstrip()
        if stripped.startswith(_EXIT):
            indent = line[: len(line) - len(stripped)]
            target, n_expr = stripped[len(_EXIT):].split("\x00")
            for exit_line in exits:
                final.append(indent + exit_line)
            final.append(indent + f"return {target}, {n_expr}")
        else:
            final.append(line)
    return "\n".join(final)


# ---------------------------------------------------------------------------
# Memory access: the ranges a closure binds and its one out-of-line path
# ---------------------------------------------------------------------------

#: Big-endian word codec; closures call its bound ``unpack_from`` and
#: ``pack_into``, which skip the per-call format-string lookup.
_WORD = Struct(">I")


def _memory_slow_path(memory, read_rest, write_rest):
    """The out-of-line path of one machine's compiled loads and stores.

    Emitted code calls it as ``slow(opcode, ea, value)`` for every access
    the bound ranges miss: other segments, misaligned words, unmapped
    addresses and writes to code.  It walks the remaining ranges and
    otherwise leaves the access to the checked ``Memory`` method, which
    raises the same trap the interpreter raises.  The closure's handler
    fills in the trap's pc and core.
    """
    data = memory.data
    unpack = _WORD.unpack_from
    pack = _WORD.pack_into

    def slow(opcode, ea, value):
        if opcode == OP_LWZ:
            if ea & 3 == 0:
                for lo, hi in read_rest:
                    if lo <= ea < hi:
                        return unpack(data, ea)[0]
            return memory.read_word(ea)
        if opcode == OP_LBZ:
            for lo, hi in read_rest:
                if lo <= ea < hi:
                    return data[ea]
            return memory.read_byte(ea)
        if opcode == OP_STW:
            if ea & 3 == 0:
                for lo, hi in write_rest:
                    if lo <= ea < hi:
                        pack(data, ea, value)
                        return None
            memory.write_word(ea, value)
            return None
        for lo, hi in write_rest:
            if lo <= ea < hi:
                data[ea] = value & 0xFF
                return None
        memory.write_byte(ea, value)
        return None

    return slow


def _bind_memory(machine: "Machine") -> tuple:
    """The arguments after ``entry_pc`` of every factory call on *machine*.

    Binds the first two writable ranges of ``machine.access_ranges()`` —
    the stacks, then the data segment — as the closures' ``lo0``..``hi1``
    locals, and builds the slow path over every other range.  Valid until
    the segment layout changes, which invalidates every closure anyway.
    """
    memory = machine.memory
    readable, writable = machine.access_ranges()
    # (0, 0) stands in for a missing range: it contains no address.
    bound = (writable + [(0, 0), (0, 0)])[:2]
    (lo0, hi0), (lo1, hi1) = bound
    slow = _memory_slow_path(
        memory, [r for r in readable if r not in bound], writable[2:]
    )
    return (machine, memory.data, readable, writable, lo0, hi0, lo1, hi1,
            slow, _WORD.unpack_from, _WORD.pack_into, ArithmeticTrap, Trap)


# ---------------------------------------------------------------------------
# Factory caching: in-memory LRU + on-disk emitted-code tier
# ---------------------------------------------------------------------------

#: Backstop against pathological churn (randomised fuzz programs); real
#: campaigns use a handful of programs and never approach this.
_FACTORY_CACHE_LIMIT = 8192

#: Bump to orphan every on-disk entry (key-format changes).  Emitter
#: *code* changes are caught automatically by :func:`_emitter_fingerprint`.
_CODEGEN_VERSION = 1

#: Maximum emitted-code entries kept on disk (each entry is a ``.py``
#: source plus a marshalled code object).
_DISK_CACHE_LIMIT = 16384

#: On-disk tier telemetry, exposed via :func:`factory_cache_stats`.
_DISK_STATS = {"hits": 0, "misses": 0, "stores": 0, "errors": 0}

#: Per-directory entry counts (avoids an os.listdir per store).
_DISK_COUNTS: dict[str, int] = {}

#: Code images whose tables one :class:`FactoryCache` keeps.  A campaign
#: boots one or two images per process; a source-tier campaign boots a
#: new mutant binary per fault, and each table holds every word decoded.
_IMAGE_LIMIT = 64


class CodeImage:
    """What the compiled engine derives from one code image alone.

    One table per ``(code_base, code)`` in a :class:`FactoryCache`,
    shared by every machine booted from that image in the process:

    * ``words`` and ``decoded``, the image's words and their fields,
      which ``Machine.install_code`` copies instead of decoding;
    * ``lengths``: entry pc → instructions in its block when no pc is
      fetch-watched;
    * ``blocks``: entry pc → factory of that whole block, once some
      machine compiled it;
    * ``traces``: entry pc → ``(count, factory, span, aliased)`` of a
      trace some machine formed there; ``span`` is the set of pcs its
      instructions occupy.

    Every factory here is one a machine built on its own trigger, so
    another machine's instantiating it compiles nothing new.  Closures,
    branch profiles and bailouts stay with each :class:`TraceEngine`.
    """

    __slots__ = ("words", "decoded", "lengths", "blocks", "traces")

    def __init__(self, code: bytes) -> None:
        self.words = Struct(f">{len(code) // 4}I").unpack(code)
        self.decoded = tuple(map(decode_fields, self.words))
        self.lengths: dict[int, int] = {}
        self.blocks: dict[int, object] = {}
        self.traces: dict[int, tuple] = {}


class FactoryCache:
    """Bounded LRU of compiled factory callables, and the tables of the
    code images they were compiled from.

    Keyed like the srcfi ``MutantCache``: an ``OrderedDict`` in
    recency order with hit/miss/eviction counters, evicting from the
    cold end.  Long-lived campaign workers compile thousands of distinct
    mutant binaries; without the bound the old unbounded dict grew (and
    was periodically ``clear()``-ed wholesale, dropping the hot set too).
    The :class:`CodeImage` tables sit in a second LRU, by image, so that
    clearing or replacing the cache also drops every factory a table
    holds.
    """

    __slots__ = ("capacity", "hits", "misses", "evictions", "_entries",
                 "_images")

    def __init__(self, capacity: int = _FACTORY_CACHE_LIMIT) -> None:
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._entries: OrderedDict = OrderedDict()
        self._images: OrderedDict = OrderedDict()

    def get(self, key):
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def put(self, key, factory) -> None:
        entries = self._entries
        if key in entries:
            entries.move_to_end(key)
            return
        entries[key] = factory
        while len(entries) > self.capacity:
            entries.popitem(last=False)
            self.evictions += 1
            _trace.add_counter("factory_cache_evictions", 1)

    def image(self, base: int, code: bytes) -> CodeImage:
        """The table of *code* mapped at *base*, made on first use.

        Re-inserted rather than moved to the end, so that worker threads
        booting machines in one process (``repro work --workers N``)
        cannot look up an image that another thread evicts before it
        moves."""
        key = (base, code)
        images = self._images
        image = images.pop(key, None)
        if image is None:
            image = CodeImage(code)
        images[key] = image
        if len(images) > _IMAGE_LIMIT:
            images.popitem(last=False)
        return image

    def clear(self) -> None:
        self._entries.clear()
        self._images.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> dict:
        return {
            "size": len(self._entries),
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }


#: Shared across machines (and therefore across the campaign's per-run
#: fresh boots), so codegen is paid once per distinct block/trace.
_FACTORY_CACHE = FactoryCache()


def factory_cache_stats() -> dict:
    """Counters for both caching tiers (tests and telemetry)."""
    stats = _FACTORY_CACHE.stats()
    stats["disk"] = dict(_DISK_STATS)
    return stats


def code_image(base: int, code: bytes) -> CodeImage:
    """The shared table of *code* mapped at *base* (see :class:`CodeImage`)."""
    return _FACTORY_CACHE.image(base, code)


def _shared_image(machine: "Machine") -> CodeImage | None:
    """The table *machine*'s engine may read and publish: its image's,
    while its code mirror still is that image (no debug write or restore
    of a written word since install), and ``None`` from then on."""
    return machine._image if machine._code_gen == 0 else None


def _scan(decoded, index: int) -> int:
    """Instructions in the basic block whose first word is
    ``decoded[index]``, ignoring fetch watches: up to and including its
    terminator, cut before an unsupported word and at ``MAX_BLOCK``."""
    end = min(len(decoded), index + MAX_BLOCK)
    k = index
    while k < end:
        fields = decoded[k]
        if not _supported(fields):
            break
        k += 1
        if fields[0] in _TERMINATORS:
            break
    return k - index


def _disk_cache_dir() -> str | None:
    """Directory of the on-disk code cache, or ``None`` when disabled.

    ``REPRO_CODE_CACHE`` overrides the location; ``0``/``off``/empty
    disables the tier entirely.
    """
    value = os.environ.get("REPRO_CODE_CACHE")
    if value is not None:
        if value.strip().lower() in ("", "0", "off", "none"):
            return None
        return value
    root = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return os.path.join(root, "repro", "rx32-code")


def _hash_code(h, code) -> None:
    h.update(code.co_code)
    for const in code.co_consts:
        if hasattr(const, "co_code"):
            _hash_code(h, const)
        else:
            h.update(repr(const).encode("utf-8", "replace"))


def _emitter_codes() -> tuple:
    """``(name, code object)`` of every code generator, in hashing order."""
    codes = []
    for cls in (_Emitter, _TraceEmitter):
        for name in sorted(vars(cls)):
            code = getattr(vars(cls)[name], "__code__", None)
            if code is not None:
                codes.append((name, code))
    # The memory binding and slow path define what emitted code calls by
    # position, so they are part of the code generator.
    for fn in (_generate_source, _generate_trace_source, _bind_memory,
               _memory_slow_path):
        codes.append((None, fn.__code__))
    return tuple(codes)


#: ``(_emitter_codes(), digest)`` of the last fingerprint computed.
_FINGERPRINT: tuple = ((), "")


def _emitter_fingerprint() -> str:
    """Content hash of the code generators themselves.

    Folded into every disk key so that editing (or monkeypatching — the
    differential fuzzer's mutation tests do) any emitter invalidates
    stale on-disk entries instead of silently serving old code.  Hashing
    is recomputed only when a generator's code object changed since the
    last call.
    """
    global _FINGERPRINT
    codes = _emitter_codes()
    if codes != _FINGERPRINT[0]:
        h = hashlib.sha256()
        for name, code in codes:
            if name is not None:
                h.update(name.encode())
            _hash_code(h, code)
        _FINGERPRINT = (codes, h.hexdigest())
    return _FINGERPRINT[1]


def _disk_load(digest: str):
    """Fetch a compiled factory code object from the disk tier."""
    directory = _disk_cache_dir()
    if directory is None:
        return None
    magic = importlib.util.MAGIC_NUMBER
    try:
        with open(os.path.join(directory, digest + ".bin"), "rb") as handle:
            blob = handle.read()
        if blob[: len(magic)] == magic:
            code = marshal.loads(blob[len(magic):])
            _DISK_STATS["hits"] += 1
            return code
        # Bytecode from another interpreter version: recompile the
        # stored source instead (and the store below refreshes .bin).
        path = os.path.join(directory, digest + ".py")
        with open(path, "r", encoding="utf-8") as handle:
            source = handle.read()
        code = compile(source, path, "exec")
        _DISK_STATS["hits"] += 1
        return code
    except (OSError, ValueError, EOFError, TypeError, SyntaxError):
        _DISK_STATS["misses"] += 1
        return None


def _disk_store(digest: str, source: str, marshalled: bytes) -> None:
    """Persist emitted source + marshalled code object, atomically.

    Failures only cost the cache (never correctness); a full directory
    stops accepting new entries rather than racing concurrent workers
    over eviction.
    """
    directory = _disk_cache_dir()
    if directory is None:
        return
    try:
        count = _DISK_COUNTS.get(directory)
        if count is None:
            try:
                count = len(os.listdir(directory)) // 2
            except OSError:
                count = 0
            _DISK_COUNTS[directory] = count
        if count >= _DISK_CACHE_LIMIT:
            return
        os.makedirs(directory, exist_ok=True)
        blob = importlib.util.MAGIC_NUMBER + marshalled
        for name, data in (
            (digest + ".py", source.encode("utf-8")),
            (digest + ".bin", blob),
        ):
            path = os.path.join(directory, name)
            tmp = f"{path}.tmp{os.getpid()}"
            with open(tmp, "wb") as handle:
                handle.write(data)
            os.replace(tmp, path)
        _DISK_COUNTS[directory] = count + 1
        _DISK_STATS["stores"] += 1
    except OSError:
        _DISK_STATS["errors"] += 1


def _load_factory(kind: str, key, filename: str, generate):
    """Resolve a factory through both cache tiers, generating on miss."""
    cache_key = (kind, key)
    factory = _FACTORY_CACHE.get(cache_key)
    if factory is not None:
        return factory
    digest = hashlib.sha256(
        repr(
            (kind, _CODEGEN_VERSION, _emitter_fingerprint(), key)
        ).encode("ascii")
    ).hexdigest()
    code = _disk_load(digest)
    if code is None:
        source = generate()
        marshalled = marshal.dumps(compile(source, filename, "exec"))
        _disk_store(digest, source, marshalled)
        # Run the unmarshalled copy, as a disk hit does: marshalling
        # leaves a second copy of every code object's bytecode cached on
        # the compiled original.
        code = marshal.loads(marshalled)
    namespace: dict = {}
    exec(code, namespace)
    factory = namespace["factory"]
    _FACTORY_CACHE.put(cache_key, factory)
    return factory


def _factory_for(words: tuple[int, ...]):
    def generate() -> str:
        decoded = tuple(decode_fields(word) for word in words)
        return _generate_source(decoded)

    return _load_factory("block", words, f"<rx32-block[{len(words)}]>", generate)


def _trace_factory_for(steps, terminal, frame, count, looping):
    # The frame decision is part of the key: the generator is a pure
    # function of it, so a changed decision never hits a stale entry.
    key = (steps, terminal, frame, count, looping)
    return _load_factory(
        "trace",
        key,
        f"<rx32-trace[{count}]>",
        lambda: _generate_trace_source(steps, terminal, frame, count, looping),
    )


class TraceEngine:
    """Per-machine compiled engine: a block tier under a trace tier (see
    the module docstring).

    Block dispatch runs each basic block as one closure call (its first
    entry in the interpreter), and every block execution counts its
    entry PC and the observed successor.  Once an entry is hot, the
    profiled path is stitched into a superblock trace and dispatched as
    one closure call — side-exit guards return control to block dispatch
    whenever a stitched branch goes the unprofiled way, and a failed
    frame guard retires the trace without touching any architectural
    state.

    Triggers are per machine: a block compiles on this machine's second
    entry and a trace forms at this machine's ``TRACE_HOT``.  What they
    build is published to the image's :class:`CodeImage`, and a later
    machine of the same image instantiates a known block, and adopts a
    known trace, at its own first entry of the pc: a campaign's fresh
    boots stop re-interpreting, re-profiling and re-planning what an
    earlier run already compiled.  A machine reads and publishes only
    while its code mirror is the image's, adopts nothing that spans one
    of its fetch-watched pcs, and publishes nothing its watches cut.
    """

    __slots__ = (
        "machine",
        "blocks",
        "_gen_key",
        "_watch_keys",
        "_image",
        "compiled",
        "blocks_adopted",
        "invalidated",
        "_binding",
        "traces",
        "_prof",
        "traces_compiled",
        "traces_adopted",
        "traces_aliased",
        "trace_bailouts",
    )

    def __init__(self, machine: "Machine") -> None:
        self.machine = machine
        #: entry pc → (instruction count, run closure); count 0 marks a PC
        #: the dispatcher must single-step (sc / trap / illegal / a fetch
        #: watch on the entry itself, so the hot loop needs no watch check)
        #: and a ``None`` closure a block entered once, which the
        #: interpreter runs.
        self.blocks: dict[int, tuple] = {}
        self._gen_key: tuple | None = None
        self._watch_keys: frozenset[int] = frozenset()
        #: ``_shared_image(machine)`` as of the last invalidation
        self._image: CodeImage | None = None
        #: blocks compiled on this machine's second entry
        self.compiled = 0
        #: blocks another machine compiled, instantiated at a first entry
        self.blocks_adopted = 0
        self.invalidated = 0
        #: ``_bind_memory(machine)``, built on the first compile after
        #: every ``_sync`` that invalidated.
        self._binding: tuple | None = None
        #: entry pc → (iteration instruction count, run closure); the
        #: ``_NO_TRACE`` sentinel marks entries block dispatch owns.
        self.traces: dict[int, tuple] = {}
        #: entry pc → [execution count, {successor pc: count}]
        self._prof: dict[int, list] = {}
        #: traces formed at this machine's ``TRACE_HOT``
        self.traces_compiled = 0
        #: traces another machine formed, adopted at a first entry
        self.traces_adopted = 0
        #: traces this machine runs, formed or adopted, whose code forgets
        #: known frame slots at a store that may alias one (see
        #: ``_TraceEmitter``)
        self.traces_aliased = 0
        self.trace_bailouts = 0

    # -- invalidation ------------------------------------------------------

    def invalidate(self) -> None:
        """Drop every compiled block and trace, and the branch profile."""
        if self.blocks:
            self.invalidated += len(self.blocks)
            _trace.add_counter("blocks_invalidated", len(self.blocks))
            self.blocks.clear()
        if self.traces:
            _trace.add_counter("traces_invalidated", len(self.traces))
            self.traces.clear()
        self._prof.clear()

    def _sync(self) -> None:
        """Invalidate if code, watches or segments changed since last sync.

        The generation counters catch every in-band mutation path
        (``debug_write_code``, snapshot restore, the debug unit); the
        literal fetch-watch key comparison additionally catches callers
        that mutate ``machine._fetch_watch`` directly (the golden-run
        tracer does) — fetch-watched PCs are block boundaries, so the
        block partition depends on that exact set.
        """
        machine = self.machine
        key = (
            machine._code_gen,
            machine.debug.generation,
            machine.memory._ranges_gen,
        )
        watch_keys = machine._fetch_watch.keys()
        if key != self._gen_key or watch_keys != self._watch_keys:
            self.invalidate()
            self._binding = None
            self._gen_key = key
            self._watch_keys = frozenset(watch_keys)
            self._image = _shared_image(machine)

    # -- compilation -------------------------------------------------------

    def _block_length(self, entry_pc: int) -> int:
        """Instructions in the basic block headed at *entry_pc* (0 when
        the PC cannot head a compiled block).

        A fetch-watched PC (including the entry itself) is never part of
        a compiled block: the dispatcher single-steps it so the watch
        handler runs with architecturally exact state.
        """
        image = self._image
        length = None if image is None else image.lengths.get(entry_pc)
        if length is None:
            machine = self.machine
            length = _scan(machine.decode_cache,
                           (entry_pc - machine.code_base) >> 2)
            if image is not None:
                image.lengths[entry_pc] = length
        for pc in self._watch_keys:
            if entry_pc <= pc < entry_pc + 4 * length:
                length = (pc - entry_pc) >> 2
        return length

    def _clear_of_watches(self, span) -> bool:
        """Whether none of the pcs in *span* is fetch-watched here: only
        then may this machine run code another machine compiled over
        them."""
        watched = self._watch_keys
        return not watched or watched.isdisjoint(span)

    def _enter(self, entry_pc: int) -> tuple:
        """First entry at *entry_pc*: scan its block, and instantiate the
        block and adopt the trace some other machine compiled here; compile
        nothing."""
        count = self._block_length(entry_pc)
        entry = (count, None) if count else _UNCOMPILED
        image = self._image
        if count and image is not None:
            factory = image.blocks.get(entry_pc)
            length = image.lengths[entry_pc]
            if factory is not None and self._clear_of_watches(
                range(entry_pc, entry_pc + 4 * length, 4)
            ):
                entry = (length, self._instantiate(factory, entry_pc))
                self.blocks_adopted += 1
                _trace.add_counter("blocks_adopted", 1)
            known = image.traces.get(entry_pc)
            if known is not None and self._clear_of_watches(known[2]):
                need, factory, _span, aliased = known
                self.traces[entry_pc] = (need, self._instantiate(factory, entry_pc))
                self.traces_adopted += 1
                _trace.add_counter("traces_adopted", 1)
                if aliased:
                    self.traces_aliased += 1
                    _trace.add_counter("traces_aliased", 1)
        self.blocks[entry_pc] = entry
        return entry

    def _instantiate(self, factory, entry_pc: int):
        """The closure *factory* builds at *entry_pc* on this machine."""
        binding = self._binding
        if binding is None:
            binding = self._binding = _bind_memory(self.machine)
        return factory(entry_pc, *binding)

    def _compile(self, entry_pc: int, count: int) -> tuple:
        machine = self.machine
        index = (entry_pc - machine.code_base) >> 2
        with _trace.phase(_trace.PHASE_BLOCK_COMPILE):
            factory = _factory_for(tuple(machine.code_words[index : index + count]))
            entry = (count, self._instantiate(factory, entry_pc))
        self.blocks[entry_pc] = entry
        self.compiled += 1
        _trace.add_counter("blocks_compiled", 1)
        image = self._image
        if image is not None and count == image.lengths[entry_pc]:
            image.blocks.setdefault(entry_pc, factory)
        return entry

    # -- trace formation ---------------------------------------------------

    def _plan_trace(self, entry_pc: int):
        """Stitch the profiled hot path headed at *entry_pc*.

        Returns ``(steps, terminal, frame, count, looping, aliased,
        span)`` (the first five for the generator, ``frame`` and
        ``aliased`` from :func:`_analyze_frame`), or ``None`` when no
        worthwhile trace exists.  Each step is ``(byte_off, decoded,
        role, aux)`` with role ``"i"`` (straight-line), ``"s"``
        (internal unconditional branch) or ``"gt"``/``"gf"`` (guard,
        predicted taken / fall-through, with the side-exit offset in
        ``aux``).  ``span`` is the set of pcs the trace's instructions
        occupy, or ``None`` when it may not be published: the machine
        has no image to publish to, or a fetch watch cut or stopped the
        stitched path.
        """
        machine = self.machine
        code_base, code_end = machine.code_base, machine.code_end
        decode_cache = machine.decode_cache
        image = self._image
        watched = False  # a fetch watch shaped the stitched path
        prof = self._prof
        segs: list[list] = []  # [pc, decoded, successor, predicted_taken]
        visited: set[int] = set()
        total = 0
        looping = False
        pc = entry_pc
        while len(segs) < TRACE_MAX_BLOCKS and total < TRACE_MAX_INSTR:
            if not code_base <= pc < code_end:
                break
            length = self._block_length(pc)
            if image is not None and length != image.lengths[pc]:
                watched = True
            if not length:
                break
            index = (pc - code_base) >> 2
            decoded = decode_cache[index : index + length]
            visited.add(pc)
            seg = [pc, decoded, None, None]
            segs.append(seg)
            total += len(decoded)
            last = decoded[-1]
            op = last[0]
            if op not in _TERMINATORS or op in (OP_BL, OP_BLR):
                break
            kterm = len(decoded) - 1
            taken = (pc + 4 * (kterm + last[4])) & 0xFFFFFFFF
            if op == OP_B or last[1] == COND_ALWAYS:
                succ = taken
            else:
                fall = pc + 4 * kterm + 4
                stats = prof.get(pc)
                outcomes = stats[1] if stats else {}
                n_taken = outcomes.get(taken, 0)
                n_fall = outcomes.get(fall, 0)
                observed = n_taken + n_fall
                if observed < TRACE_MIN_EDGE:
                    break
                predicted_taken = n_taken >= n_fall
                winner = n_taken if predicted_taken else n_fall
                if winner / observed < TRACE_BIAS:
                    break
                succ = taken if predicted_taken else fall
                seg[3] = predicted_taken
            seg[2] = succ
            if succ == entry_pc:
                looping = True
                break
            if succ in visited:
                break
            pc = succ
        if not segs or (not looping and len(segs) < 2):
            return None

        steps: list[tuple] = []
        last_index = len(segs) - 1
        for i, (spc, decoded, succ, predicted_taken) in enumerate(segs):
            base_off = spc - entry_pc
            kterm = len(decoded) - 1
            has_term = decoded[kterm][0] in _TERMINATORS
            for j, dec in enumerate(decoded):
                off = base_off + 4 * j
                if j == kterm and has_term:
                    if i < last_index and succ is not None:
                        op = dec[0]
                        if op == OP_B or (op == OP_BC and dec[1] == COND_ALWAYS):
                            steps.append((off, dec, "s", None))
                        else:
                            taken_off = off + 4 * dec[4]
                            exit_off = off + 4 if predicted_taken else taken_off
                            role = "gt" if predicted_taken else "gf"
                            steps.append((off, dec, role, exit_off))
                    # terminal instruction: handled below, not a step
                else:
                    steps.append((off, dec, "i", None))

        spc, decoded, succ, predicted_taken = segs[last_index]
        base_off = spc - entry_pc
        kterm = len(decoded) - 1
        last = decoded[kterm]
        toff = base_off + 4 * kterm
        if last[0] not in _TERMINATORS:
            terminal = ("fall", None, base_off + 4 * len(decoded), None)
        elif looping:
            if last[0] != OP_BC or last[1] == COND_ALWAYS:
                terminal = ("loop", last, toff, None)
            elif predicted_taken:
                terminal = ("loop_taken", last, toff, toff + 4)
            else:
                terminal = ("loop_fall", last, toff, toff + 4 * last[4])
        else:
            op = last[0]
            if op == OP_B or (op == OP_BC and last[1] == COND_ALWAYS):
                terminal = ("b", last, toff, toff + 4 * last[4])
            elif op == OP_BL:
                terminal = ("bl", last, toff, toff + 4 * last[4])
            elif op == OP_BLR:
                terminal = ("blr", last, toff, None)
            else:
                terminal = ("bc", last, toff, (toff + 4 * last[4], toff + 4))

        frame, aliased = _analyze_frame(steps, looping)
        span = None
        if image is not None and not watched:
            span = frozenset(
                spc + 4 * k for spc, decoded, _succ, _taken in segs
                for k in range(len(decoded))
            )
        return tuple(steps), terminal, frame, total, looping, aliased, span

    def _build_trace(self, entry_pc: int) -> None:
        with _trace.phase(_trace.PHASE_TRACE_COMPILE):
            plan = self._plan_trace(entry_pc)
            if plan is None:
                self.traces[entry_pc] = _NO_TRACE
                return
            steps, terminal, frame, count, looping, aliased, span = plan
            factory = _trace_factory_for(steps, terminal, frame, count, looping)
            self.traces[entry_pc] = (count, self._instantiate(factory, entry_pc))
            self.traces_compiled += 1
            _trace.add_counter("traces_compiled", 1)
            if aliased:
                self.traces_aliased += 1
                _trace.add_counter("traces_aliased", 1)
            _trace.add_counter("trace_instructions", count)
            if span is not None:
                self._image.traces.setdefault(
                    entry_pc, (count, factory, span, aliased))

    # -- dispatch ----------------------------------------------------------

    def dispatch(self, core: "Core", limit: int) -> int:
        """Execute up to *limit* instructions on *core*; return the count.

        Identical contract to the interpreter's ``run_quantum``: executes
        exactly *limit* instructions unless the core halts, blocks or
        traps, and leaves ``core.pc`` / retired counters current at every
        exit — partial quanta included.  Traces are tried first for PCs
        that have one, and every block execution feeds the branch
        profile that forms them.

        ``pc`` shadows ``core.pc`` and ``pending`` holds instructions
        retired by closures but not yet flushed to the architectural
        counters; both are synchronised before every interpreter
        excursion and on every exit.  On a trap inside a closure its
        handler accounts for its own partial progress and sets
        ``core.pc``; the ``except`` arm flushes what completed before
        it.  Data watches and one-shot load/store transforms hook
        individual accesses, so while one is armed the interpreter runs
        the rest of the quantum.  They can only become armed through
        interpreted steps (fetch handlers, callers outside
        ``run_quantum``), never by a closure, so the armed check runs at
        entry and after every interpreter excursion, not per block.
        """
        machine = self.machine
        self._sync()
        blocks_get = self.blocks.get
        traces_get = self.traces.get
        prof = self._prof
        simple = core._run_quantum_simple
        regs = core.regs
        executed = 0
        pending = 0
        pc = core.pc
        check_hooks = True
        try:
            while executed < limit:
                if check_hooks:
                    if (
                        machine._load_watch
                        or machine._store_watch
                        or core._load_transform is not None
                        or core._store_transform is not None
                    ):
                        core.pc = pc
                        core.instret += pending
                        machine.instret += pending
                        pending = 0
                        executed += simple(limit - executed)
                        if core.halted or core.blocked:
                            return executed
                        pc = core.pc
                        continue  # handlers may have disarmed; re-check
                    check_hooks = False
                entry = traces_get(pc)
                if entry is not None:
                    need = entry[0]
                    if need and need <= limit - executed:
                        new_pc, ran = entry[1](core, regs, limit - executed)
                        if ran:
                            pending += ran
                            executed += ran
                            pc = new_pc
                            continue
                        # Frame guard bailed: nothing ran.  Retire the
                        # trace — block dispatch owns this PC until the
                        # next invalidation.
                        self.traces[pc] = _NO_TRACE
                        self.trace_bailouts += 1
                        _trace.add_counter("trace_bailouts", 1)
                entry = blocks_get(pc)
                if entry is None:
                    core.pc = pc
                    if pc < machine.code_base or pc >= machine.code_end:
                        core.instret += pending
                        machine.instret += pending
                        pending = 0
                        executed += simple(limit - executed)  # fetch trap
                        if core.halted or core.blocked:  # pragma: no cover
                            return executed
                        pc = core.pc  # pragma: no cover
                        continue  # pragma: no cover
                    entry = self._enter(pc)
                    if traces_get(pc) is not None:
                        continue  # an adopted trace runs from here on
                elif entry[1] is None and entry[0]:
                    entry = self._compile(pc, entry[0])  # second entry
                count, run = entry
                if count == 0:
                    core.pc = pc
                    core.instret += pending
                    machine.instret += pending
                    pending = 0
                    executed += simple(1)
                    if core.halted or core.blocked:
                        return executed
                    self._sync()
                    blocks_get = self.blocks.get
                    traces_get = self.traces.get
                    check_hooks = True
                    pc = core.pc
                    continue
                if count > limit - executed:
                    core.pc = pc
                    core.instret += pending
                    machine.instret += pending
                    pending = 0
                    executed += simple(limit - executed)
                    if core.halted or core.blocked:
                        return executed
                    pc = core.pc
                    continue
                if run is None:
                    # First entry: the interpreter runs the block (no
                    # sc inside, so the core cannot halt or block), and
                    # the entry still counts toward trace formation.
                    core.pc = pc
                    core.instret += pending
                    machine.instret += pending
                    pending = 0
                    executed += simple(count)
                    new_pc = core.pc
                else:
                    new_pc = run(core, regs)
                    pending += count
                    executed += count
                # -- warmup profiling (drives superblock formation) ----
                stats = prof.get(pc)
                if stats is None:
                    prof[pc] = stats = [0, {}]
                stats[0] += 1
                outcomes = stats[1]
                outcomes[new_pc] = outcomes.get(new_pc, 0) + 1
                hot = stats[0]
                if hot == TRACE_HOT or (
                    hot == TRACE_RETRY and traces_get(pc) is _NO_TRACE
                ):
                    if pc not in self.traces or traces_get(pc) is _NO_TRACE:
                        if traces_get(pc) is _NO_TRACE:
                            del self.traces[pc]
                        self._build_trace(pc)
                        traces_get = self.traces.get
                pc = new_pc
            core.pc = pc
            core.instret += pending
            machine.instret += pending
            pending = 0
            return executed
        except BaseException:
            core.instret += pending
            machine.instret += pending
            raise


__all__ = [
    "TraceEngine",
    "FactoryCache",
    "factory_cache_stats",
    "MAX_BLOCK",
]
