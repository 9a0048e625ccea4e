"""The compiled engine (``trace``): block and trace closures for RX32.

The per-instruction interpreter in :mod:`repro.machine.cpu` pays fetch,
bounds check, decode-cache lookup and a long if/elif dispatch for every
retired instruction.  Campaign throughput lives in that loop, so this
module trades a one-time compilation cost for straight-line execution.
:class:`TraceEngine` runs two tiers over one dispatch loop on a
single-core machine; :class:`MultiCoreEngine` runs the block tier alone,
with range closures, on a multi-core one.

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
* a closure folds what it proves (see :class:`_Emitter`): a register
  it sets from literals is read as the literal from then on, an access
  at such a known address decides its range test once per closure
  instantiation, ``divw``/``modw`` by a known non-zero divisor need no
  zero test, and a compare right before the conditional branch that
  reads it branches on its operands, setting ``cr`` on each path.
  Exits write back only the registers the closure wrote;
* the dispatch loop executes block-at-a-time from a cache keyed by the
  block's entry index, falling back to the per-instruction loop whenever
  a block would overrun the quantum / ``pause_at_instret`` budget, when
  the next PC carries a fetch watch, and for the entire remainder of a
  quantum while any data watch or one-shot load/store transform is
  armed — so every fault-injection hook keeps bit-identical semantics.

**Range closures and the multi-core block tier.**  :meth:`Machine.run`
gives each core of a multi-core machine 64-instruction turns.  A turn
leaves a trace almost nothing to batch and cannot repay forming one, so
:class:`MultiCoreEngine` neither profiles branches nor forms traces.
What it needs instead is a way to split a block at a turn end: each
block may also get one *range closure*, ``run(core, regs, j, n)``, that
executes the block's instructions ``j`` to ``n - 1`` (each behind a
start and a stop test), never folds ``r0`` to a constant, and on a trap
retires ``ip + 1 - j`` instructions.  A block that does not fit the
rest of a turn runs its first ``r`` instructions at the end of that
turn and the rest at the start of the next, both from that closure; a
stretch that ends at a fetch-watched pc stops before it, and after the
watched pc is stepped, the rest of the block runs from the same
closure.  So a pc where a turn or a fetch watch stopped a block never
compiles a block of its own.  A range closure runs in the interpreter
at its first use and compiles at its second, and is cached, published
and adopted like a block.

**The trace tier** rides on block dispatch: it profiles block-entry
execution counts and branch outcomes during warmup, chains hot blocks
across predictable branches into **superblock traces** (the profiled
path, guarded by cheap side-exits that fall back to block dispatch),
batches self-looping traces into a budget-bounded inner loop, and keeps
each trace's **frame slots** — the words at constant offsets from one
base register — in Python locals.  A looping trace never writes its
base; a non-looping one may write it before its first frame access or
after its last, as a function's prologue (``mr r30, r1``) and epilogue
(``mr r30, r13``) do.  One frame guard per trace run proves the base
aligned and every slot inside one mapped range: at entry, or, past a
prologue that writes the base, at the first frame access (a *late*
guard).  After it, a slot the trace has already loaded or stored is a
copy of its local, and a first load or a store needs no range test.
Stores write through to memory (a looping trace whose only accesses are
frame words defers them to its exits), and any other store forgets the
cached slots, since it may alias one.  A trace closure returns
``(next_pc, executed)``; ``executed <= 0`` signals a failed frame
guard: at entry nothing has run, and a late guard side-exits with the
``-executed`` instructions before it retired.  Either way block dispatch
owns the pc from then on.  A block that never becomes part of a trace
still runs compiled.

Compiled closures are invalidated by a generation check at every
``run_quantum`` entry and after every fetch-watch step: the machine's
``_code_gen`` counter (bumped by ``debug_write_code`` and by snapshot
restore of dirty code-mirror pages), the :class:`~repro.machine.debug.
DebugUnit` ``generation`` counter (bumped on every watch arm/disarm),
the memory's segment version, and the literal fetch-watch address set
(which callers such as the golden-run tracer mutate directly).

The factories are cached at module level, keyed by the raw word tuple
(a block) or by everything the trace emitter reads (a trace): a campaign
boots a fresh machine per injection run, so per-machine instantiation
must be cheap — one factory call per block or trace, not a
re-``compile()``.  The cache is one bounded in-memory LRU per process
(:class:`FactoryCache`); nothing is written to disk.

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

**Release.**  Every closure binds its machine, so a finished machine
would keep its blocks, ranges and traces alive in the Machine, Core and
closure cycle until the cyclic GC runs.  The campaign code that owns a
machine (``execute_injection_run``, ``CampaignRunner.calibrate_case``)
calls :meth:`TraceEngine.release` once the run is over, which drops
them, the branch profile and the memory binding.  ``Machine.run`` does
not: tests inspect the engine after it.

Correctness contract (enforced by ``tests/test_engine_equivalence.py``):
for any program and any fault from the paper's Table-3 classes, the
compiled engine retires the same instructions, produces the same
register file, memory image, console and trap (with identical pc/core
attribution and retired-instruction count) as the simple interpreter.
"""

from __future__ import annotations

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
    (``r5 = regs[5]``), and those it writes are written back in the
    epilogue — and, because the block is straight-line, the locals hold
    the exact architectural state of the completed-instruction prefix at
    every point, which is what the trap handler writes back.

    **Known values.**  A register the closure sets from literals alone
    (``addi r15, r0, 8``, ``addis`` then ``ori``, any operation on known
    values) is still assigned to its local, but every later read of it
    is the literal.  ``r0`` is modelled faithfully: it is a readable
    register until the first register-writing instruction zeroes it
    (matching the interpreter's ``regs[0] = 0`` after every write), after
    which it is the known value 0.  So a load or store at a known address
    decides its range test once, when the factory binds the machine's
    ranges (``_ok<k>``); ``divw``/``modw`` by a known non-zero divisor
    need no zero test and no ``abs``; and a compare followed directly by
    the conditional branch that reads it (:meth:`defer_compare`) branches
    on its operands and sets ``cr`` on each path.

    Loads and stores test the effective address against the two ranges
    the factory binds (``lo0``..``hi1``) and otherwise call ``slow``;
    ``ip``, the index the trap handler reports, is stored only on the
    paths that can raise: the slow path and division by zero.
    """

    #: Whether values set from literals are folded.  Range closures,
    #: entered mid-block, fold nothing.
    fold = True

    def __init__(self) -> None:
        self.prelude: list[str] = []  # factory-level constants
        self.lines: list[str] = []    # run() body
        self.used: dict[int, bool] = {}     # hoisted
        self.written: dict[int, bool] = {}  # written back
        self.consts: dict[int, int] = {}    # register -> known value
        #: ``(signed, a, b)`` of a compare whose ``cr`` the next branch
        #: sets (operands are locals, or ints when known)
        self.cmp: tuple | None = None
        self._const_line = -1  # index of the last line if it set a known value
        self.uses_cr = False
        self.uses_lr = False
        self.can_trap = False

    def pc_offset(self, k: int) -> int:
        """Byte offset of instruction *k* from ``entry_pc``.  Blocks are
        contiguous; the trace emitter overrides this with the stitched
        path's real (possibly backward) offsets."""
        return 4 * k

    # -- register plumbing ------------------------------------------------

    def read(self, reg: int) -> str:
        value = self.consts.get(reg)
        if value is not None:
            return _lit(value)
        self.used[reg] = True
        return f"r{reg}"

    def write(self, rd: int, expr: str, literal: bool = False) -> None:
        """Emit ``r<rd> = expr``.  With *literal*, *expr* reads only
        literals: it is evaluated here and ``rd`` becomes a known value."""
        lines = self.lines
        if literal and self.fold:
            value = eval(expr)  # it reads literals only
            if self._const_line == len(lines) - 1 and lines[-1].startswith(f"r{rd} = "):
                lines.pop()  # nothing read the value it replaces
            lines.append(f"r{rd} = {_lit(value)}")
            self._const_line = len(lines) - 1
            self._assigned(rd, value)
            return
        lines.append(f"r{rd} = {expr}")
        self._assigned(rd)

    def _assigned(self, rd: int, value: int | None = None) -> None:
        """Bookkeeping once the emitted code has assigned ``r<rd>``: the
        interpreter zeroes ``r0`` after every register write."""
        self.used[rd] = self.written[rd] = True
        consts = self.consts
        if value is None:
            consts.pop(rd, None)
        else:
            consts[rd] = value
        if rd == 0 or 0 not in consts:
            self.used[0] = self.written[0] = True
            self.lines.append("r0 = 0")
        if self.fold:
            consts[0] = 0

    def _operand(self, reg: int):
        """*reg*'s known value, or the name of its local."""
        value = self.consts.get(reg)
        return value if value is not None else self.read(reg)

    def _signed(self, expr: str, temp: str) -> str:
        """The signed view of *expr*: a literal, or a temp it emits."""
        if _is_literal(expr):
            value = int(expr, 0)
            return str(value - 0x100000000 if value & 0x80000000 else value)
        self.lines.append(f"{temp} = {expr}")
        self.lines.append(f"if {temp} >= 0x80000000:")
        self.lines.append(f"    {temp} -= 0x100000000")
        return temp

    def _compare(self, t: str, u: str) -> None:
        """``cr`` from the signed or unsigned views *t* and *u*."""
        self.lines.append(f"cr = -1 if {t} < {u} else (1 if {t} > {u} else 0)")

    # -- straight-line instructions --------------------------------------

    def emit(self, k: int, decoded: tuple[int, int, int, int, int]) -> None:
        opcode, rd, ra, rb, imm = decoded
        if opcode == OP_XO:
            self._emit_xo(k, rd, ra, rb, imm)
            return
        if opcode == OP_LWZ:
            self._emit_load_word(k, rd, ra, imm)
            return
        if opcode == OP_STW:
            self._emit_store_word(k, rd, ra, imm)
            return
        if opcode == OP_LBZ:
            self._emit_load_byte(k, rd, ra, imm)
            return
        if opcode == OP_STB:
            self._emit_store_byte(k, rd, ra, imm)
            return
        if opcode == OP_MFLR:
            self.uses_lr = True
            self.write(rd, f"lr & {_M}")
            return
        if opcode == OP_MTLR:
            self.uses_lr = True
            self.lines.append(f"lr = {self.read(rd)}")
            return
        a = self.read(ra)
        literal = _is_literal(a)
        if not imm and opcode in _MOVES:
            self.write(rd, a, literal)  # mr: registers are already masked
        elif opcode == OP_ADDI:
            self.write(rd, f"({a} + {imm}) & {_M}", literal)
        elif opcode == OP_ADDIS:
            self.write(rd, f"({a} + {imm << 16}) & {_M}", literal)
        elif opcode == OP_MULLI:
            self.write(rd, f"({a} * {imm}) & {_M}", literal)
        elif opcode == OP_ANDI:
            self.write(rd, f"{a} & {imm}", literal)
        elif opcode == OP_ORI:
            self.write(rd, f"{a} | {imm}", literal)
        elif opcode == OP_XORI:
            self.write(rd, f"{a} ^ {imm}", literal)
        elif opcode == OP_CMPI:
            self.uses_cr = True
            self._compare(self._signed(a, "t"), str(imm))
        elif opcode == OP_CMPLI:
            self.uses_cr = True
            self._compare(a, str(imm))
        elif opcode == OP_SLWI:
            self.write(rd, f"({a} << {imm & 31}) & {_M}", literal)
        elif opcode == OP_SRWI:
            self.write(rd, f"{a} >> {imm & 31}", literal)
        elif opcode == OP_SRAWI:
            t = self._signed(a, "t")
            self.write(rd, f"({t} >> {imm & 31}) & {_M}", literal)
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

    def _address(self, k: int, ra: int, imm: int, word: bool) -> tuple[str, str]:
        """The effective address of access *k* and the condition under
        which it runs inline.  A known address is a literal, and its
        condition is decided once per closure instantiation."""
        self.can_trap = True
        a = self.read(ra)
        if not _is_literal(a):
            self.lines.append(f"ea = ({a} + {imm}) & {_M}" if imm else f"ea = {a}")
            return "ea", self._inline(word)
        ea = _lit((int(a, 0) + imm) & 0xFFFFFFFF)
        self.prelude += [f"ea = {ea}", f"_ok{k} = {self._inline(word)}"]
        return ea, f"_ok{k}"

    def _emit_access(self, k: int, test: str, inline: str, slow: str) -> None:
        self.lines += [
            f"if {test}:",
            f"    {inline}",
            "else:",
            f"    ip = {k}",
            f"    {slow}",
        ]

    def _emit_load_word(self, k: int, rd: int, ra: int, imm: int) -> None:
        ea, test = self._address(k, ra, imm, True)
        self._emit_access(k, test, f"r{rd} = unpack(mem_data, {ea})[0]",
                          f"r{rd} = slow({OP_LWZ}, {ea}, 0)")
        self._assigned(rd)

    def _emit_store_word(self, k: int, rd: int, ra: int, imm: int) -> None:
        value = self.read(rd)
        ea, test = self._address(k, ra, imm, True)
        self._emit_access(k, test, f"pack(mem_data, {ea}, {value})",
                          f"slow({OP_STW}, {ea}, {value})")

    def _emit_load_byte(self, k: int, rd: int, ra: int, imm: int) -> None:
        ea, test = self._address(k, ra, imm, False)
        self._emit_access(k, test, f"r{rd} = mem_data[{ea}]",
                          f"r{rd} = slow({OP_LBZ}, {ea}, 0)")
        self._assigned(rd)

    def _emit_store_byte(self, k: int, rd: int, ra: int, imm: int) -> None:
        value = self.read(rd)
        byte = _lit(int(value, 0) & 0xFF) if _is_literal(value) else f"{value} & 0xFF"
        ea, test = self._address(k, ra, imm, False)
        self._emit_access(k, test, f"mem_data[{ea}] = {byte}",
                          f"slow({OP_STB}, {ea}, {value})")

    # -- the XO register-register group -----------------------------------

    def _emit_xo(self, k: int, rd: int, ra: int, rb: int, subop: int) -> None:
        a = self.read(ra)
        b = self.read(rb)
        literal = _is_literal(a) and _is_literal(b)
        if subop == XO_ADD:
            self.write(rd, f"({a} + {b}) & {_M}", literal)
        elif subop == XO_SUB:
            self.write(rd, f"({a} - {b}) & {_M}", literal)
        elif subop == XO_MUL:
            self.write(rd, f"({a} * {b}) & {_M}", literal)
        elif subop == XO_CMP:
            self.uses_cr = True
            self._compare(self._signed(a, "t"), self._signed(b, "u"))
        elif subop in (XO_DIVW, XO_MODW) and _is_literal(b) and int(b, 0):
            self.write(rd, _known_divisor(subop, a, int(b, 0)), _is_literal(a))
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
            self.write(rd, f"{a} & {b}", literal)
        elif subop == XO_OR:
            self.write(rd, f"{a} | {b}", literal)
        elif subop == XO_XOR:
            self.write(rd, f"{a} ^ {b}", literal)
        elif subop == XO_NOR:
            self.write(rd, f"({a} | {b}) ^ {_M}", literal)
        elif subop == XO_SLW:
            self.write(rd, f"({a} << ({b} & 31)) & {_M}", literal)
        elif subop == XO_SRW:
            self.write(rd, f"{a} >> ({b} & 31)", literal)
        elif subop == XO_SRAW:
            t = self._signed(a, "t")
            self.write(rd, f"({t} >> ({b} & 31)) & {_M}", literal)
        elif subop == XO_NEG:
            self.write(rd, f"(-{a}) & {_M}", _is_literal(a))
        elif subop == XO_NOT:
            self.write(rd, f"{a} ^ {_M}", _is_literal(a))
        else:  # pragma: no cover - the scanner only admits valid subops
            raise AssertionError(f"unsupported XO subop {subop:#x} in block")

    # -- fused compare and branch ------------------------------------------

    def defer_compare(self, decoded: tuple[int, int, int, int, int]) -> None:
        """Emit the compare *decoded* for the conditional branch right
        after it, which then branches on the compare's operands and sets
        ``cr`` on each of its paths (see :meth:`split`)."""
        opcode, _rd, ra, rb, imm = decoded
        self.uses_cr = True
        b = self._operand(rb) if opcode == OP_XO else imm & 0xFFFFFFFF
        self.cmp = (opcode != OP_CMPLI, self._operand(ra), b)

    def split(self, cond: int) -> tuple[str, str | None, str | None]:
        """``(test, cr_if, cr_else)`` for a branch on *cond*: *test* holds
        exactly when the branch is taken, and after a deferred compare
        ``cr_if`` and ``cr_else`` are the values ``cr`` takes on each
        path (otherwise ``None``: ``cr`` already holds its value)."""
        cmp = self.cmp
        if cmp is None:
            return _COND_EXPR[cond], None, None
        self.cmp = None
        signed, a, b = cmp
        bias = 0x80000000 if signed else 0

        def view(x, biased):
            if isinstance(x, int):
                return _lit(x ^ biased)
            return f"{x} ^ {_lit(biased)}" if biased else x

        sa, sb = view(a, bias), view(b, bias)
        ua, ub = view(a, 0), view(b, 0)
        test = {
            COND_LT: f"{sa} < {sb}", COND_GE: f"{sa} >= {sb}",
            COND_GT: f"{sa} > {sb}", COND_LE: f"{sa} <= {sb}",
            COND_EQ: f"{ua} == {ub}", COND_NE: f"{ua} != {ub}",
        }
        holds = {
            COND_LT: "-1", COND_GT: "1", COND_EQ: "0",
            COND_GE: f"0 if {ua} == {ub} else 1",
            COND_LE: f"0 if {ua} == {ub} else -1",
            COND_NE: f"-1 if {sa} < {sb} else 1",
        }
        return test[cond], holds[cond], holds[_OPPOSITE[cond]]

    # -- terminators -------------------------------------------------------

    def emit_terminal(self, k: int, decoded: tuple[int, int, int, int, int]) -> list[str]:
        """The terminal branch: lines whose every path ends in an exit
        marker (``_EXIT`` and the next pc's expression)."""
        opcode, rd, _ra, _rb, imm = decoded
        if opcode == OP_B:
            self.prelude.append(
                f"_t{k} = (entry_pc + {4 * (k + imm)}) & 0xFFFFFFFF"
            )
            return [f"{_EXIT}_t{k}"]
        if opcode == OP_BL:
            self.uses_lr = True
            self.prelude.append(
                f"_t{k} = (entry_pc + {4 * (k + imm)}) & 0xFFFFFFFF"
            )
            self.prelude.append(f"_l{k} = entry_pc + {4 * k + 4}")
            return [f"lr = _l{k}", f"{_EXIT}_t{k}"]
        if opcode == OP_BLR:
            self.uses_lr = True
            return [f"{_EXIT}lr"]
        assert opcode == OP_BC
        self.prelude.append(
            f"_t{k} = (entry_pc + {4 * (k + imm)}) & 0xFFFFFFFF"
        )
        if rd == COND_ALWAYS:
            return [f"{_EXIT}_t{k}"]
        self.uses_cr = True
        self.prelude.append(f"_f{k} = entry_pc + {4 * k + 4}")
        test, cr_if, cr_else = self.split(rd)
        if cr_if is None:
            return [f"{_EXIT}_t{k} if {test} else _f{k}"]
        return [f"if {test}:", f"    cr = {cr_if}", f"    {_EXIT}_t{k}",
                f"cr = {cr_else}", f"{_EXIT}_f{k}"]

    def emit_fallthrough(self, count: int) -> list[str]:
        """No terminal branch (block cut by a watch / ``sc`` / cap)."""
        self.prelude.append(f"_fall = entry_pc + {4 * count}")
        return [f"{_EXIT}_fall"]

    def exits(self) -> tuple[list[str], list[str]]:
        """The hoists at entry and the write-backs at every exit."""
        hoists = [f"r{reg} = regs[{reg}]" for reg in self.used]
        writebacks = [f"regs[{reg}] = r{reg}" for reg in self.written]
        if self.uses_cr:
            hoists.append("cr = core.cr")
            writebacks.append("core.cr = cr")
        if self.uses_lr:
            hoists.append("lr = core.lr")
            writebacks.append("core.lr = lr")
        return hoists, writebacks


#: A conditional branch's condition negated.
_OPPOSITE = {COND_LT: COND_GE, COND_GE: COND_LT, COND_GT: COND_LE,
             COND_LE: COND_GT, COND_EQ: COND_NE, COND_NE: COND_EQ}

_COMPARES = frozenset({OP_CMPI, OP_CMPLI})

#: Immediate forms that copy ``ra`` when the immediate is 0.
_MOVES = frozenset({OP_ADDI, OP_ORI, OP_XORI})


def _is_compare(decoded) -> bool:
    return decoded[0] in _COMPARES or (decoded[0] == OP_XO and decoded[4] == XO_CMP)


def _lit(value: int) -> str:
    """A known value as emitted source."""
    return str(value) if value < 10 else hex(value)


def _is_literal(expr: str) -> bool:
    """Whether an operand :meth:`_Emitter.read` returned is a known value
    (a literal) rather than a local."""
    return expr[0] in "-0123456789"


def _known_divisor(subop: int, a: str, divisor: int) -> str:
    """``divw``/``modw`` of the unsigned operand *a* by the known non-zero
    *divisor* (unsigned): truncating, like the interpreter, on the
    magnitude of a negative dividend, ``0x100000000 - a``."""
    m = divisor if divisor < 0x80000000 else 0x100000000 - divisor
    neg = f"0x100000000 - {a}"
    if subop == XO_MODW:
        return f"-(({neg}) % {m}) & {_M} if {a} >= 0x80000000 else {a} % {m}"
    if divisor < 0x80000000:
        return f"-(({neg}) // {m}) & {_M} if {a} >= 0x80000000 else {a} // {m}"
    return f"({neg}) // {m} if {a} >= 0x80000000 else -({a} // {m}) & {_M}"


def _expand_exits(lines: list[str], exits: list[str]) -> list[str]:
    """*lines* with every exit marker replaced by *exits* and its
    ``return``: ``<_EXIT><target>`` returns the target, and
    ``<_EXIT><target>\\x00<count>`` (traces) the pair."""
    final: list[str] = []
    for line in lines:
        stripped = line.lstrip()
        if stripped.startswith(_EXIT):
            indent = line[: len(line) - len(stripped)]
            final += [indent + exit_line for exit_line in exits]
            final.append(indent + "return " + ", ".join(
                stripped[len(_EXIT):].split("\x00")))
        else:
            final.append(line)
    return final


def _generate_source(decoded: tuple[tuple[int, int, int, int, int], ...]) -> str:
    """Python source of the factory producing one block's ``run`` closure."""
    emitter = _Emitter()
    count = len(decoded)
    terminal = decoded[-1][0] in _TERMINATORS
    fused = (terminal and count > 1 and decoded[-1][0] == OP_BC
             and decoded[-1][1] in _COND_EXPR and _is_compare(decoded[-2]))
    for k in range(count - 1 if terminal else count):
        if fused and k == count - 2:
            emitter.defer_compare(decoded[k])
        else:
            emitter.emit(k, decoded[k])
    if terminal:
        ret = emitter.emit_terminal(count - 1, decoded[count - 1])
    else:
        ret = emitter.emit_fallthrough(count)
    hoists, writebacks = emitter.exits()

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
    for line in hoists + emitter.lines + ret:
        out.append(inner + line)
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
    return "\n".join(_expand_exits(out, writebacks))


class _RangeEmitter(_Emitter):
    """Emits the instructions of one block's range closure.

    Which instructions ran before any one of them depends on where the
    range starts, so it folds nothing: ``r0`` is never the literal ``0``
    (every read names the local, and every register write zeroes it
    again), and no register is a known value.
    """

    fold = False


def _generate_range_source(decoded: tuple[tuple[int, int, int, int, int], ...]) -> str:
    """Python source of the factory producing one block's range closure.

    ``run(core, regs, j, n) -> next_pc`` executes the block's
    instructions ``j`` to ``n - 1`` (``0 <= j < n <= count``): each
    instruction sits behind ``if j <= k``, and ``if n == k + 1`` leaves
    the ``while`` after it.  The terminator runs only when ``n == count``
    and returns its target; an earlier stop returns ``entry_pc + 4 * n``.
    A trap retires ``ip + 1 - j`` instructions.
    """
    em = _RangeEmitter()
    count = len(decoded)
    last = count - 1
    terminal = decoded[last][0] in _TERMINATORS
    body: list[str] = []
    for k in range(last if terminal else count):
        start = len(em.lines)
        em.emit(k, decoded[k])
        lines = em.lines[start:]
        if k < last:
            body.append(f"if j <= {k}:")
            body += ["    " + line for line in lines]
            body += [f"if n == {k + 1}:", "    break"]
        else:
            body += lines
            body.append("break")
    if terminal:
        body += em.emit_terminal(last, decoded[last])
    hoists, writebacks = em.exits()

    out = [
        "def factory(entry_pc, machine, mem_data, read_ranges, write_ranges,",
        "            lo0, hi0, lo1, hi1, slow, unpack, pack, ArithmeticTrap, Trap):",
    ]
    out += ["    " + line for line in em.prelude]
    out.append("    def run(core, regs, j, n):")
    inner = "            " if em.can_trap else "        "
    if em.can_trap:
        out.append("        try:")
    out += [inner + line for line in hoists]
    out.append(inner + "while True:")
    out += [inner + "    " + line for line in body]
    out += [inner + line for line in writebacks]
    out.append(inner + "return entry_pc + 4 * n")
    if em.can_trap:
        out.append("        except Trap as err:")
        handler = "            "
        out += [handler + line for line in writebacks]
        out += [
            handler + "_n = ip + 1 - j",
            handler + "core.instret += _n",
            handler + "machine.instret += _n",
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
    return "\n".join(_expand_exits(out, writebacks))


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
    a first load unpacks the word with no range test (the frame guard
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
        self.guard_at = None  # step of a late frame guard
        self.stored: set[int] = set()  # slots a deferred trace must flush
        if frame is not None:
            (self.base, slots, self.writes, self.deferred, self.preload,
             self.guard_at) = frame
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
        leave = _OPPOSITE[cond] if predicted_taken else cond
        test, cr_if, cr_else = self.split(leave)
        self.lines.append(f"if {test}:")
        if cr_if is not None:
            self.lines.append(f"    cr = {cr_if}")
        self.lines.append(f"    {_EXIT}{label}\x00n + {k + 1}")
        if cr_else is not None:
            self.lines.append(f"cr = {cr_else}")

    def emit_frame_guard(self, k: int | None = None) -> list[str]:
        """The frame guard, and the preloads: it fails unless the base is
        word-aligned and every slot lies inside one range (a writable one
        if the trace stores to a slot).  The bound stack range is tested
        first, against the factory-level ``_flo``/``_fhi``; every other
        range by a walk.

        At trace entry (*k* ``None``) a failure returns ``(entry_pc, 0)``
        with nothing run.  A late guard, before step *k*, the trace's
        first frame access, side-exits there with the *k* instructions
        before it retired, and returns their count negated."""
        disps = sorted(self.slots)
        dmin, dmax = disps[0], disps[-1]
        base = self.read(self.base)
        self.prelude.append(f"_flo = {_plus('lo0', -dmin)}")
        self.prelude.append(f"_fhi = {_plus('hi0', -dmax)}")
        if k is None:
            fail = "return entry_pc, 0"
        else:
            self.prelude.append(
                f"_gx = (entry_pc + {self.offsets[k]}) & 0xFFFFFFFF")
            fail = f"{_EXIT}_gx\x00-{k}"
        ranges = "write_ranges" if self.writes else "read_ranges"
        lines = [
            f"if {base} & 3 or not _flo <= {base} < _fhi:",
            f"    for lo, hi in {ranges}:",
            f"        if {_plus('lo', -dmin)} <= {base} < {_plus('hi', -dmax)}"
            f" and not {base} & 3:",
            "            break",
            "    else:",
            f"        {fail}",
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

    The base is the register that carries the most word accesses with a
    displacement that is a multiple of 4 (the lowest register on a tie;
    never ``r0``) among those a looping trace never writes, or a
    non-looping one writes only before its first such access or after
    its last (O0's prologue ``mr r30, r1`` and epilogue ``mr r30, r13``);
    its slots are those displacements.  Returns ``(frame, aliased)``,
    where ``frame`` is ``None`` or ``(base, slots, writes, deferred,
    preload, guard_at)``:

    * ``writes`` — some slot is stored to, so the frame guard asks for a
      writable range;
    * ``deferred`` — a looping trace whose every memory access is a
      frame word: no other access can observe a slot, so stores update
      the local only and the exits flush them;
    * ``preload`` — the slots a looping trace loads at entry and keeps
      current across iterations: those the body accesses after its last
      non-frame store (all of them when it has none);
    * ``guard_at`` — the step of the first frame access when the trace
      writes the base before it (the guard then runs there, a *late*
      guard), else ``None`` (at entry).

    ``aliased`` says whether a non-frame store in the trace forgets a
    known slot.
    """
    counts: dict[int, int] = {}
    first: dict[int, int] = {}  # register -> step of its first frame access
    last: dict[int, int] = {}
    writes_at: dict[int, list[int]] = {}  # register -> steps writing it
    for k, (_off, dec, role, _aux) in enumerate(steps):
        if role != "i":
            continue
        op, rd, ra, _rb, imm = dec
        if (op == OP_LWZ or op == OP_STW) and ra and not imm & 3:
            counts[ra] = counts.get(ra, 0) + 1
            first.setdefault(ra, k)
            last[ra] = k
        if op in _WRITES_RD or (op == OP_XO and imm != XO_CMP):
            writes_at.setdefault(rd, []).append(k)
    for reg, ks in writes_at.items():
        # An access that also writes its base (lwz r30, 8(r30)) reads it
        # first, so a write at the last access's step comes after it.
        if reg in counts and (looping or any(first[reg] <= w < last[reg]
                                             for w in ks)):
            del counts[reg]
    if not counts:
        return None, False
    base = min(counts, key=lambda reg: (-counts[reg], reg))
    late = any(w < first[base] for w in writes_at.get(base, ()))

    slots: set[int] = set()
    tail: set[int] = set()  # slots accessed since the last other store
    writes = stores = loads = aliased = False
    for _off, (op, _rd, ra, _rb, imm), role, _aux in steps:
        if role != "i":
            continue
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
    frame = (base, tuple(sorted(slots)), writes, deferred, preload,
             first[base] if late else None)
    return frame, aliased


def _generate_trace_source(steps, terminal, frame, count, looping) -> str:
    """Python source of the factory producing one trace's ``run`` closure.

    ``run(core, regs, budget) -> (next_pc, executed)``.  The dispatcher
    only calls it with ``budget >= count``; a looping trace batches full
    iterations while ``n + count <= budget`` still holds.  A failed frame
    guard returns ``executed <= 0``: ``(entry_pc, 0)`` from the guard at
    entry, with no architectural state touched, and ``(pc, -k)`` from a
    late guard, after the ``k`` instructions before ``pc`` retired.
    """
    offsets = [step[0] for step in steps]
    tkind, tdec, toff, taux = terminal
    if tkind != "fall":
        offsets.append(toff)

    em = _TraceEmitter(offsets, frame)
    guard = []
    if frame is not None and em.guard_at is None:
        guard = em.emit_frame_guard()
    # A compare right before a conditional branch is fused into it.
    fuse_last = tkind in ("bc", "loop_taken", "loop_fall")
    last = len(steps) - 1
    for k, (off, dec, role, aux) in enumerate(steps):
        if k == em.guard_at:
            em.lines += em.emit_frame_guard(k)
        if role == "i":
            if _is_compare(dec) and (steps[k + 1][2] in ("gt", "gf") if k < last
                                     else fuse_last):
                em.defer_compare(dec)
            else:
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
        test, cr_if, cr_else = em.split(tdec[1])
        lines.append(f"if {test}:")
        if cr_if is not None:
            lines.append(f"    cr = {cr_if}")
        if tkind == "loop_taken":
            lines.append(f"    if n + {count} <= budget:")
            lines.append("        continue")
            lines.append(f"    {_EXIT}entry_pc\x00n")
            if cr_else is not None:
                lines.append(f"cr = {cr_else}")
            lines.append(f"{_EXIT}_x\x00n")
        else:
            lines.append(f"    {_EXIT}_x\x00n")
            if cr_else is not None:
                lines.append(f"cr = {cr_else}")
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
        test, cr_if, cr_else = em.split(tdec[1])
        lines.append(f"if {test}:")
        if cr_if is not None:
            lines.append(f"    cr = {cr_if}")
        lines.append(f"    {_EXIT}_t\x00n + {count}")
        if cr_else is not None:
            lines.append(f"cr = {cr_else}")
        lines.append(f"{_EXIT}_f\x00n + {count}")

    hoists, writebacks = em.exits()
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
    return "\n".join(_expand_exits(out, exits))


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
# Factory caching: one in-memory LRU per process
# ---------------------------------------------------------------------------

#: Backstop against pathological churn (randomised fuzz programs); real
#: campaigns use a handful of programs and never approach this.
_FACTORY_CACHE_LIMIT = 8192

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
    * ``ranges``: entry pc → factory of that block's range closure, once
      some multi-core machine compiled it;
    * ``traces``: entry pc → ``(count, factory, span, aliased, late)``
      of a trace some machine formed there; ``span`` is the set of pcs
      its instructions occupy, and ``late`` says whether its frame guard
      runs at its first frame access (see :func:`_analyze_frame`).

    Every factory here is one a machine built on its own trigger, so
    another machine's instantiating it compiles nothing new.  Closures,
    branch profiles and bailouts stay with each :class:`TraceEngine`.
    """

    __slots__ = ("words", "decoded", "lengths", "blocks", "ranges", "traces")

    def __init__(self, code: bytes) -> None:
        self.words = Struct(f">{len(code) // 4}I").unpack(code)
        self.decoded = tuple(map(decode_fields, self.words))
        self.lengths: dict[int, int] = {}
        self.blocks: dict[int, object] = {}
        self.ranges: dict[int, object] = {}
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

    It is the only code cache: nothing is written to disk.  The pool's
    workers are forked (the default start method on Linux), so each
    starts with what the campaign process had compiled by then.

    Lookups pop and re-insert rather than test and then move, so that
    worker threads booting machines in one process (``repro work
    --workers N``) cannot find a key another thread evicts in between.
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
        entries = self._entries
        entry = entries.pop(key, None)
        if entry is None:
            self.misses += 1
            return None
        entries[key] = entry
        self.hits += 1
        return entry

    def put(self, key, factory) -> None:
        """Cache *factory* under *key*; a factory already there stays."""
        entries = self._entries
        entries[key] = entries.pop(key, factory)
        while len(entries) > self.capacity:
            entries.popitem(last=False)
            self.evictions += 1
            _trace.add_counter("factory_cache_evictions", 1)

    def image(self, base: int, code: bytes) -> CodeImage:
        """The table of *code* mapped at *base*, made on first use."""
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
    """Counters of the process's factory cache (tests and telemetry)."""
    return _FACTORY_CACHE.stats()


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


def _load_factory(kind: str, key, filename: str, generate):
    """The factory cached under ``(kind, key)``, generated on a miss."""
    cache_key = (kind, key)
    factory = _FACTORY_CACHE.get(cache_key)
    if factory is not None:
        return factory
    namespace: dict = {}
    exec(compile(generate(), filename, "exec"), namespace)
    factory = namespace["factory"]
    _FACTORY_CACHE.put(cache_key, factory)
    return factory


def _factory_for(words: tuple[int, ...]):
    def generate() -> str:
        decoded = tuple(decode_fields(word) for word in words)
        return _generate_source(decoded)

    return _load_factory("block", words, f"<rx32-block[{len(words)}]>", generate)


def _range_factory_for(words: tuple[int, ...]):
    def generate() -> str:
        decoded = tuple(decode_fields(word) for word in words)
        return _generate_range_source(decoded)

    return _load_factory("range", words, f"<rx32-range[{len(words)}]>", generate)


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
    frame guard retires the trace: at entry before anything ran, or at
    a late guard with the instructions before it retired.

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
        "ranges",
        "ranges_compiled",
        "ranges_adopted",
        "traces",
        "_prof",
        "traces_compiled",
        "traces_adopted",
        "traces_aliased",
        "late_frames",
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
        #: block entry pc → its range closure, or ``None`` after its
        #: first use (see :class:`MultiCoreEngine`; empty on one core)
        self.ranges: dict[int, object] = {}
        #: range closures compiled on this machine's second use
        self.ranges_compiled = 0
        #: range closures another machine compiled, adopted at a first use
        self.ranges_adopted = 0
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
        #: traces this machine runs, formed or adopted, whose frame guard
        #: runs late: at the first frame access, past a prologue that
        #: writes the base
        self.late_frames = 0
        self.trace_bailouts = 0

    # -- invalidation ------------------------------------------------------

    def invalidate(self) -> None:
        """Drop every compiled block, range and trace, and the branch
        profile."""
        if self.blocks:
            self.invalidated += len(self.blocks)
            _trace.add_counter("blocks_invalidated", len(self.blocks))
            self.blocks.clear()
        self.ranges.clear()
        if self.traces:
            _trace.add_counter("traces_invalidated", len(self.traces))
            self.traces.clear()
        self._prof.clear()

    def release(self) -> None:
        """Drop what this machine compiled and bound, once its run is over.

        Every closure binds the machine, so until the cyclic GC runs a
        finished machine would keep its blocks, ranges and traces alive
        through the Machine, Core and closure cycle.  The campaign code
        that owns a machine calls this when it is done with it.  The
        machine can still run: it re-enters its blocks as after an
        invalidation, without counting one.
        """
        self.blocks.clear()
        self.ranges.clear()
        self.traces.clear()
        self._prof.clear()
        self._binding = None

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

    def _full_length(self, entry_pc: int) -> int:
        """Instructions in the basic block headed at *entry_pc* when no
        pc is fetch-watched (0 when the PC cannot head a compiled block)."""
        image = self._image
        length = None if image is None else image.lengths.get(entry_pc)
        if length is None:
            machine = self.machine
            length = _scan(machine.decode_cache,
                           (entry_pc - machine.code_base) >> 2)
            if image is not None:
                image.lengths[entry_pc] = length
        return length

    def _block_length(self, entry_pc: int) -> int:
        """Instructions in the basic block headed at *entry_pc* (0 when
        the PC cannot head a compiled block).

        A fetch-watched PC (including the entry itself) is never part of
        a compiled block: the dispatcher single-steps it so the watch
        handler runs with architecturally exact state.
        """
        length = self._full_length(entry_pc)
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
                need, factory, _span, aliased, late = known
                self.traces[entry_pc] = (need, self._instantiate(factory, entry_pc))
                self.traces_adopted += 1
                _trace.add_counter("traces_adopted", 1)
                self._count_frame(aliased, late)
        self.blocks[entry_pc] = entry
        return entry

    def _instantiate(self, factory, entry_pc: int):
        """The closure *factory* builds at *entry_pc* on this machine."""
        binding = self._binding
        if binding is None:
            binding = self._binding = _bind_memory(self.machine)
        return factory(entry_pc, *binding)

    def _compile(self, entry_pc: int, count: int) -> tuple:
        entry = (count, self._compile_block(entry_pc, count))
        self.blocks[entry_pc] = entry
        return entry

    def _compile_block(self, entry_pc: int, count: int):
        """The closure of the *count*-instruction block at *entry_pc*,
        compiled here; published when it is the image's whole block."""
        machine = self.machine
        index = (entry_pc - machine.code_base) >> 2
        with _trace.phase(_trace.PHASE_BLOCK_COMPILE):
            factory = _factory_for(tuple(machine.code_words[index : index + count]))
            run = self._instantiate(factory, entry_pc)
        self.compiled += 1
        _trace.add_counter("blocks_compiled", 1)
        image = self._image
        if image is not None and count == image.lengths[entry_pc]:
            image.blocks.setdefault(entry_pc, factory)
        return run

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
            late = frame is not None and frame[5] is not None
            self._count_frame(aliased, late)
            _trace.add_counter("trace_instructions", count)
            if span is not None:
                self._image.traces.setdefault(
                    entry_pc, (count, factory, span, aliased, late))

    def _count_frame(self, aliased: bool, late: bool) -> None:
        """Count a trace this machine runs by its frame's kind."""
        if aliased:
            self.traces_aliased += 1
            _trace.add_counter("traces_aliased", 1)
        if late:
            self.late_frames += 1
            _trace.add_counter("late_frames", 1)

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
                        if ran > 0:
                            pending += ran
                            executed += ran
                            pc = new_pc
                            continue
                        # The frame guard failed: at entry, with nothing
                        # run, or late, with the -ran instructions before
                        # the first frame access retired.  Retire the
                        # trace — block dispatch owns this PC until the
                        # next invalidation.
                        self.traces[pc] = _NO_TRACE
                        self.trace_bailouts += 1
                        _trace.add_counter("trace_bailouts", 1)
                        if ran:
                            pending -= ran
                            executed -= ran
                            pc = new_pc
                            continue
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


class MultiCoreEngine(TraceEngine):
    """``trace`` on a multi-core machine: the block tier alone.

    :meth:`Machine.run` gives each core 64-instruction turns, which
    leaves a trace almost nothing to batch, so this engine neither
    profiles branches nor forms traces.  A turn ends inside a block
    whenever the block does not fit the rest of it, so every block
    here also has a *range closure* (:func:`_generate_range_source`):
    the block's first ``r`` instructions run at the end of one turn and
    the rest at the start of the next, both from that one closure,
    instead of in the interpreter or from a block compiled at each pc a
    turn happens to end on.

    ``blocks`` maps every pc the dispatcher has stopped at to
    ``(count, run, head, j)``: the pc is instruction ``j`` of the block
    headed at ``head``, and ``count`` instructions run from it before
    the block ends or a fetch-watched pc (0: single-step this pc).
    ``run`` is the block's own closure where the pc heads a whole
    unwatched block (``None`` until its second entry), and ``False``
    elsewhere: a stretch that is not a whole block, or does not fit the
    turn, runs from ``ranges[head]``.  A range closure is adopted from
    the image or left to the interpreter at its first use and compiled
    at its second; it is published and adopted under the same rules as
    a block, and since the dispatcher never runs a stretch across a
    fetch-watched pc, the pc after a watch continues in the watched
    block's range closure too.
    """

    __slots__ = ()

    def _locate(self, head: int, j: int) -> tuple:
        """The entry of instruction *j* of the block headed at *head*."""
        length = self._full_length(head)
        pc = head + 4 * j
        count = length - j
        for watched in self._watch_keys:
            if pc <= watched < pc + 4 * count:
                count = (watched - pc) >> 2
        run = False
        if not j and count == length and count:
            run = None
            image = self._image
            factory = None if image is None else image.blocks.get(head)
            if factory is not None:
                run = self._instantiate(factory, head)
                self.blocks_adopted += 1
                _trace.add_counter("blocks_adopted", 1)
        elif j + count < length:
            # The stretch stops at a fetch-watched pc, which is stepped
            # as instruction j + count of this block.
            self.blocks.setdefault(pc + 4 * count, (0, False, head, j + count))
        entry = (count, run, head, j)
        self.blocks[pc] = entry
        return entry

    def _compile_whole(self, head: int, count: int):
        run = self._compile_block(head, count)
        self.blocks[head] = (count, run, head, 0)
        return run

    def _range(self, head: int):
        """The range closure of the block at *head* at its first use
        (adopted from the image, or ``None``: the interpreter runs it)
        or at its second (compiled)."""
        ranges = self.ranges
        image = self._image
        if head not in ranges:
            factory = None if image is None else image.ranges.get(head)
            run = None
            if factory is not None:
                run = self._instantiate(factory, head)
                self.ranges_adopted += 1
                _trace.add_counter("ranges_adopted", 1)
            ranges[head] = run
            return run
        machine = self.machine
        index = (head - machine.code_base) >> 2
        words = tuple(machine.code_words[index : index + self._full_length(head)])
        with _trace.phase(_trace.PHASE_BLOCK_COMPILE):
            factory = _range_factory_for(words)
            run = ranges[head] = self._instantiate(factory, head)
        self.ranges_compiled += 1
        _trace.add_counter("ranges_compiled", 1)
        if image is not None:
            image.ranges.setdefault(head, factory)
        return run

    def dispatch(self, core: "Core", limit: int) -> int:
        """:meth:`TraceEngine.dispatch` for one turn of a multi-core
        machine: the same contract and the same hook and trap handling,
        over block and range closures only."""
        machine = self.machine
        self._sync()
        blocks = self.blocks
        blocks_get = blocks.get
        ranges_get = self.ranges.get
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
                left = limit - executed
                entry = blocks_get(pc)
                if entry is None:
                    core.pc = pc
                    if pc < machine.code_base or pc >= machine.code_end:
                        core.instret += pending
                        machine.instret += pending
                        pending = 0
                        executed += simple(left)  # fetch trap
                        if core.halted or core.blocked:  # pragma: no cover
                            return executed
                        pc = core.pc  # pragma: no cover
                        continue  # pragma: no cover
                    entry = self._locate(pc, 0)
                    if entry[1] is None and entry[0] <= left:
                        # First entry of a whole block: the interpreter
                        # runs it (no sc inside, so the core cannot halt
                        # or block).
                        core.instret += pending
                        machine.instret += pending
                        pending = 0
                        executed += simple(entry[0])
                        pc = core.pc
                        continue
                count, run, head, j = entry
                if count <= left:
                    if run:
                        pc = run(core, regs)
                        pending += count
                        executed += count
                        continue
                    if not count:
                        core.pc = pc
                        core.instret += pending
                        machine.instret += pending
                        pending = 0
                        executed += simple(1)
                        if core.halted or core.blocked:
                            return executed
                        self._sync()
                        check_hooks = True
                        step_pc = pc
                        pc = core.pc
                        if (pc == step_pc + 4 and pc not in blocks
                                and j + 1 < self._full_length(head)):
                            self._locate(head, j + 1)
                        continue
                    if run is None:
                        run = self._compile_whole(pc, count)  # second entry
                        pc = run(core, regs)
                        pending += count
                        executed += count
                        continue
                    n = j + count
                else:
                    n = j + left
                rng = ranges_get(head) or self._range(head)
                if rng:
                    new_pc = rng(core, regs, j, n)
                    pending += n - j
                    executed += n - j
                else:
                    core.pc = pc
                    core.instret += pending
                    machine.instret += pending
                    pending = 0
                    executed += simple(n - j)
                    new_pc = core.pc
                if n < j + count and new_pc not in blocks:
                    self._locate(head, n)  # where the next turn starts
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
    "MultiCoreEngine",
    "FactoryCache",
    "factory_cache_stats",
    "MAX_BLOCK",
]
