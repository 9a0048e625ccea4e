"""RX32 CPU core: a threaded interpreter over encoded instruction words.

The dispatch loop reads a per-address *decode cache*,
``Machine.decode_cache``, that holds ``(opcode, rd, ra, rb, imm)`` for
every word of the code mirror: ``install_code`` copies it from the
image's shared table, and every write to the mirror (the debug port,
snapshot restore) re-decodes the words it changes, so injected
instruction corruptions always take effect — and a word substituted by
a fetch-watch handler is decoded without being cached (a data-bus
corruption of the fetch must not be remembered).

Faults hook in at three architecturally faithful points:

* **fetch watch** — the debug unit registers handlers on program-counter
  values (the paper's *opcode fetch from address X* trigger, implemented on
  the PowerPC 601 with its two instruction-address breakpoint registers).
  A handler may corrupt memory/registers, return a substitute word
  (a data-bus corruption of the fetched instruction), or both.
* **load/store watches** — data-address triggers (DABR-style), able to
  corrupt the value read or written.
* **transient transforms** — ``_load_transform`` / ``_store_transform``
  are one-shot value corruptions armed by a fetch handler and applied to
  the current instruction's memory operand: the paper's "error inserted in
  the data fetched (data bus fault)".

Registers are stored as unsigned 32-bit integers; r0 reads as zero always
(writes land and are immediately overwritten, keeping the loop branchless).
"""

from __future__ import annotations

from struct import pack_into, unpack_from
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
    OP_SC,
    OP_SLWI,
    OP_SRAWI,
    OP_SRWI,
    OP_STB,
    OP_STW,
    OP_TRAP,
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
from .traps import (
    ArithmeticTrap,
    IllegalInstructionTrap,
    MemoryTrap,
    Trap,
    TrapInstructionHit,
)

if TYPE_CHECKING:  # pragma: no cover
    from .machine import Machine

_MASK = 0xFFFFFFFF
_SIGN = 0x80000000

_SIGNED_IMM_OPCODES = frozenset(
    {OP_ADDI, OP_ADDIS, OP_MULLI, OP_CMPI, OP_LWZ, OP_STW, OP_LBZ, OP_STB, OP_BC}
)


def to_signed(value: int) -> int:
    """Interpret an unsigned 32-bit register value as signed."""
    return value - 0x100000000 if value & _SIGN else value


def to_unsigned(value: int) -> int:
    """Truncate a Python integer into the unsigned 32-bit register domain."""
    return value & _MASK


def decode_fields(word: int) -> tuple[int, int, int, int, int]:
    """Extract ``(opcode, rd, ra, rb_or_subop, imm)`` from a raw word.

    Purely structural — illegal opcodes are detected at execution time so
    corrupted words trap with full context.  For the XO group the fourth
    element is ``rb`` and ``imm`` carries the sub-opcode.
    """
    opcode = word >> 26
    if opcode == OP_B or opcode == OP_BL:
        imm = word & 0x3FFFFFF
        if imm >= 0x2000000:
            imm -= 0x4000000
        return (opcode, 0, 0, 0, imm)
    rd = (word >> 21) & 31
    ra = (word >> 16) & 31
    rb = (word >> 11) & 31
    if opcode == OP_XO:
        return (opcode, rd, ra, rb, word & 0x7FF)
    imm = word & 0xFFFF
    if imm >= 0x8000 and opcode in _SIGNED_IMM_OPCODES:
        imm -= 0x10000
    return (opcode, rd, ra, rb, imm)


class Core:
    """One RX32 processor.  Shares memory with its siblings via Machine."""

    __slots__ = (
        "machine",
        "core_id",
        "regs",
        "pc",
        "lr",
        "cr",
        "halted",
        "blocked",
        "exit_code",
        "instret",
        "_load_transform",
        "_store_transform",
    )

    def __init__(self, machine: "Machine", core_id: int) -> None:
        self.machine = machine
        self.core_id = core_id
        self.reset()

    def reset(self) -> None:
        self.regs = [0] * 32
        self.pc = 0
        self.lr = 0
        self.cr = 0  # -1 = LT, 0 = EQ, 1 = GT
        self.halted = False
        self.blocked = False
        self.exit_code: int | None = None
        self.instret = 0
        self._load_transform = None
        self._store_transform = None

    # ------------------------------------------------------------------

    def step(self) -> None:
        """Execute exactly one instruction (test/debug convenience)."""
        self.run_quantum(1)

    def run_quantum(self, limit: int) -> int:
        """Execute up to *limit* instructions; return the number executed.

        Stops early when the core halts (exit syscall), blocks (barrier)
        or raises a trap.  Traps propagate to the caller with core/pc
        context attached.  Dispatches to the machine's compiled engine
        when one is configured (``Machine(engine="trace")``); the engine
        itself falls back to :meth:`_run_quantum_simple` around every
        fault-injection hook.
        """
        engine = self.machine.block_engine
        if engine is not None:
            return engine.dispatch(self, limit)
        return self._run_quantum_simple(limit)

    def _run_quantum_simple(self, limit: int) -> int:
        """The per-instruction interpreter loop (the ``simple`` engine)."""
        machine = self.machine
        mem = machine.memory
        read_word = mem.read_word
        write_word = mem.write_word
        read_byte = mem.read_byte
        write_byte = mem.write_byte
        mem_data = mem.data
        regs = self.regs
        code_base = machine.code_base
        code_end = machine.code_end
        code_words = machine.code_words
        decode_cache = machine.decode_cache
        fetch_watch = machine._fetch_watch
        load_watch = machine._load_watch
        store_watch = machine._store_watch
        syscall = machine.syscalls.dispatch
        read_ranges, write_ranges = machine.access_ranges()

        pc = self.pc
        executed = 0
        try:
            while executed < limit:
                if pc < code_base or pc >= code_end:
                    raise MemoryTrap(
                        f"instruction fetch outside code segment at {pc:#010x}",
                        address=pc,
                    )
                index = (pc - code_base) >> 2
                if fetch_watch and pc in fetch_watch:
                    self.pc = pc
                    substitute = fetch_watch[pc](self, pc, code_words[index])
                    if substitute is None:
                        # a handler that rewrote the word re-decoded it
                        decoded = decode_cache[index]
                    else:
                        decoded = decode_fields(substitute)
                else:
                    decoded = decode_cache[index]
                executed += 1
                opcode, rd, ra, rb, imm = decoded

                if opcode == OP_ADDI:
                    regs[rd] = (regs[ra] + imm) & _MASK
                    regs[0] = 0
                    pc += 4
                elif opcode == OP_LWZ:
                    ea = (regs[ra] + imm) & _MASK
                    if ea & 3 == 0:
                        for lo, hi in read_ranges:
                            if lo <= ea < hi:
                                value = unpack_from(">I", mem_data, ea)[0]
                                break
                        else:
                            value = read_word(ea, pc)  # raises the proper trap
                    else:
                        value = read_word(ea, pc)
                    if load_watch:
                        handler = load_watch.get(ea)
                        if handler is not None:
                            value = handler(self, ea, value) & _MASK
                    if self._load_transform is not None:
                        value = self._load_transform(value) & _MASK
                        self._load_transform = None
                    regs[rd] = value
                    regs[0] = 0
                    pc += 4
                elif opcode == OP_STW:
                    ea = (regs[ra] + imm) & _MASK
                    value = regs[rd]
                    if self._store_transform is not None:
                        value = self._store_transform(value) & _MASK
                        self._store_transform = None
                    if store_watch:
                        handler = store_watch.get(ea)
                        if handler is not None:
                            value = handler(self, ea, value) & _MASK
                    if ea & 3 == 0:
                        for lo, hi in write_ranges:
                            if lo <= ea < hi:
                                pack_into(">I", mem_data, ea, value)
                                break
                        else:
                            write_word(ea, value, pc)  # raises the proper trap
                    else:
                        write_word(ea, value, pc)
                    pc += 4
                elif opcode == OP_BC:
                    cr = self.cr
                    if rd == COND_LT:
                        taken = cr < 0
                    elif rd == COND_LE:
                        taken = cr <= 0
                    elif rd == COND_EQ:
                        taken = cr == 0
                    elif rd == COND_GE:
                        taken = cr >= 0
                    elif rd == COND_GT:
                        taken = cr > 0
                    elif rd == COND_NE:
                        taken = cr != 0
                    elif rd == COND_ALWAYS:
                        taken = True
                    else:
                        raise IllegalInstructionTrap(
                            f"illegal branch condition {rd} at {pc:#010x}"
                        )
                    pc = (pc + imm * 4) & _MASK if taken else pc + 4
                elif opcode == OP_XO:
                    a = regs[ra]
                    b = regs[rb]
                    if imm == XO_ADD:
                        regs[rd] = (a + b) & _MASK
                    elif imm == XO_SUB:
                        regs[rd] = (a - b) & _MASK
                    elif imm == XO_MUL:
                        regs[rd] = (a * b) & _MASK
                    elif imm == XO_CMP:
                        if a & _SIGN:
                            a -= 0x100000000
                        if b & _SIGN:
                            b -= 0x100000000
                        self.cr = -1 if a < b else (1 if a > b else 0)
                        pc += 4
                        continue
                    elif imm == XO_DIVW or imm == XO_MODW:
                        if a & _SIGN:
                            a -= 0x100000000
                        if b & _SIGN:
                            b -= 0x100000000
                        if b == 0:
                            raise ArithmeticTrap(
                                f"integer division by zero at {pc:#010x}"
                            )
                        quotient = abs(a) // abs(b)
                        if (a < 0) != (b < 0):
                            quotient = -quotient
                        if imm == XO_DIVW:
                            regs[rd] = quotient & _MASK
                        else:
                            regs[rd] = (a - quotient * b) & _MASK
                    elif imm == XO_AND:
                        regs[rd] = a & b
                    elif imm == XO_OR:
                        regs[rd] = a | b
                    elif imm == XO_XOR:
                        regs[rd] = a ^ b
                    elif imm == XO_NOR:
                        regs[rd] = (a | b) ^ _MASK
                    elif imm == XO_SLW:
                        regs[rd] = (a << (b & 31)) & _MASK
                    elif imm == XO_SRW:
                        regs[rd] = a >> (b & 31)
                    elif imm == XO_SRAW:
                        if a & _SIGN:
                            a -= 0x100000000
                        regs[rd] = (a >> (b & 31)) & _MASK
                    elif imm == XO_NEG:
                        regs[rd] = (-a) & _MASK
                    elif imm == XO_NOT:
                        regs[rd] = a ^ _MASK
                    else:
                        raise IllegalInstructionTrap(
                            f"illegal XO sub-opcode {imm:#x} at {pc:#010x}"
                        )
                    regs[0] = 0
                    pc += 4
                elif opcode == OP_CMPI:
                    a = regs[ra]
                    if a & _SIGN:
                        a -= 0x100000000
                    self.cr = -1 if a < imm else (1 if a > imm else 0)
                    pc += 4
                elif opcode == OP_B:
                    pc = (pc + imm * 4) & _MASK
                elif opcode == OP_BL:
                    self.lr = pc + 4
                    pc = (pc + imm * 4) & _MASK
                elif opcode == OP_BLR:
                    pc = self.lr
                elif opcode == OP_LBZ:
                    ea = (regs[ra] + imm) & _MASK
                    for lo, hi in read_ranges:
                        if lo <= ea < hi:
                            value = mem_data[ea]
                            break
                    else:
                        value = read_byte(ea, pc)  # raises the proper trap
                    if load_watch:
                        handler = load_watch.get(ea)
                        if handler is not None:
                            value = handler(self, ea, value) & 0xFF
                    if self._load_transform is not None:
                        value = self._load_transform(value) & 0xFF
                        self._load_transform = None
                    regs[rd] = value
                    regs[0] = 0
                    pc += 4
                elif opcode == OP_STB:
                    ea = (regs[ra] + imm) & _MASK
                    value = regs[rd]
                    if self._store_transform is not None:
                        value = self._store_transform(value) & _MASK
                        self._store_transform = None
                    if store_watch:
                        handler = store_watch.get(ea)
                        if handler is not None:
                            # Byte ops mask handler results to a byte, same
                            # as the OP_LBZ load-watch path: the bus only
                            # carries 8 bits here.
                            value = handler(self, ea, value) & 0xFF
                    for lo, hi in write_ranges:
                        if lo <= ea < hi:
                            mem_data[ea] = value & 0xFF
                            break
                    else:
                        write_byte(ea, value, pc)  # raises the proper trap
                    pc += 4
                elif opcode == OP_ADDIS:
                    regs[rd] = (regs[ra] + (imm << 16)) & _MASK
                    regs[0] = 0
                    pc += 4
                elif opcode == OP_MULLI:
                    regs[rd] = (regs[ra] * imm) & _MASK
                    regs[0] = 0
                    pc += 4
                elif opcode == OP_ANDI:
                    regs[rd] = regs[ra] & imm
                    regs[0] = 0
                    pc += 4
                elif opcode == OP_ORI:
                    regs[rd] = regs[ra] | imm
                    regs[0] = 0
                    pc += 4
                elif opcode == OP_XORI:
                    regs[rd] = regs[ra] ^ imm
                    regs[0] = 0
                    pc += 4
                elif opcode == OP_CMPLI:
                    a = regs[ra]
                    self.cr = -1 if a < imm else (1 if a > imm else 0)
                    pc += 4
                elif opcode == OP_SLWI:
                    regs[rd] = (regs[ra] << (imm & 31)) & _MASK
                    regs[0] = 0
                    pc += 4
                elif opcode == OP_SRWI:
                    regs[rd] = regs[ra] >> (imm & 31)
                    regs[0] = 0
                    pc += 4
                elif opcode == OP_SRAWI:
                    a = regs[ra]
                    if a & _SIGN:
                        a -= 0x100000000
                    regs[rd] = (a >> (imm & 31)) & _MASK
                    regs[0] = 0
                    pc += 4
                elif opcode == OP_MFLR:
                    regs[rd] = self.lr & _MASK
                    regs[0] = 0
                    pc += 4
                elif opcode == OP_MTLR:
                    self.lr = regs[rd]
                    pc += 4
                elif opcode == OP_SC:
                    self.pc = pc
                    syscall(self, imm)
                    pc += 4
                    if self.halted or self.blocked:
                        break
                elif opcode == OP_TRAP:
                    raise TrapInstructionHit(
                        f"trap instruction (code {imm}) at {pc:#010x}"
                    )
                else:
                    raise IllegalInstructionTrap(
                        f"illegal opcode {opcode:#x} at {pc:#010x}"
                    )
        except Trap as error:
            # Only machine-detected faults get location info attached.  A
            # blanket ``except Exception`` here used to dress up *any*
            # python error (a TypeError in a watch handler, say) like a
            # machine trap on its way out; genuine tool bugs must surface
            # undecorated instead of being classified as program crashes.
            if error.pc is None:
                error.pc = pc
            if error.core_id is None:
                error.core_id = self.core_id
            raise
        finally:
            self.pc = pc
            self.instret += executed
            machine.instret += executed
        return executed
