"""Property-based tests (hypothesis) for the core invariants.

* encoding: encode∘decode is the identity on canonical instructions, and
  decode is total-or-DecodingError on arbitrary words;
* CPU arithmetic: every ALU opcode agrees with a wrapping 32-bit Python
  model on random operands;
* compiler: random integer expression trees evaluate exactly as a
  C-semantics Python evaluator says they should;
* heap: random malloc/free sequences never hand out overlapping blocks;
* campaign bookkeeping: failure-mode tallies always partition the runs;
* range closures: any range of a generated block runs exactly as the
  interpreter runs the same instructions.
"""

from hypothesis import given, settings, strategies as st

from repro.isa import DecodingError, Instruction, decode, ins, try_decode
from repro.isa.encoding import COND_NAMES
from repro.lang import compile_source
from repro.machine import Executable, HeapManager, boot, to_signed
from repro.machine.cpu import decode_fields
from repro.isa import assemble_text
from repro.swifi import WhenPolicy

registers = st.integers(min_value=0, max_value=31)
simm16 = st.integers(min_value=-0x8000, max_value=0x7FFF)
uimm16 = st.integers(min_value=0, max_value=0xFFFF)
words = st.integers(min_value=0, max_value=0xFFFFFFFF)


# ---------------------------------------------------------------------------
# encoding
# ---------------------------------------------------------------------------

@st.composite
def instructions(draw):
    form_choice = draw(st.sampled_from([
        ("addi", "D"), ("addis", "D"), ("mulli", "D"),
        ("andi", "DU"), ("ori", "DU"), ("xori", "DU"),
        ("cmpi", "CMPI"), ("cmpli", "CMPLI"),
        ("lwz", "MEM"), ("stw", "MEM"), ("lbz", "MEM"), ("stb", "MEM"),
        ("b", "B"), ("bl", "B"), ("bc", "BC"), ("blr", "NONE"),
        ("mflr", "R1"), ("mtlr", "R1"), ("sc", "U16"), ("trap", "U16"),
        ("slwi", "SH"), ("srwi", "SH"), ("srawi", "SH"),
        ("add", "XO"), ("sub", "XO"), ("mul", "XO"), ("divw", "XO"),
        ("modw", "XO"), ("and", "XO"), ("or", "XO"), ("xor", "XO"),
        ("nor", "XO"), ("slw", "XO"), ("srw", "XO"), ("sraw", "XO"),
        ("cmp", "XO"), ("neg", "XO1"), ("not", "XO1"),
    ]))
    mnemonic, form = form_choice
    rd = draw(registers)
    ra = draw(registers)
    rb = draw(registers)
    if form in ("D", "CMPI", "MEM"):
        return Instruction(mnemonic, rd=rd, ra=ra, imm=draw(simm16))
    if form in ("DU", "CMPLI"):
        return Instruction(mnemonic, rd=rd, ra=ra, imm=draw(uimm16))
    if form == "B":
        return Instruction(mnemonic, imm=draw(st.integers(-0x2000000, 0x1FFFFFF)))
    if form == "BC":
        return Instruction(mnemonic, rd=draw(st.sampled_from(sorted(COND_NAMES))), imm=draw(simm16))
    if form == "NONE":
        return Instruction(mnemonic)
    if form == "R1":
        return Instruction(mnemonic, rd=rd)
    if form == "U16":
        return Instruction(mnemonic, imm=draw(uimm16))
    if form == "SH":
        return Instruction(mnemonic, rd=rd, ra=ra, imm=draw(st.integers(0, 31)))
    if form == "XO":
        return Instruction(mnemonic, rd=rd, ra=ra, rb=rb)
    return Instruction(mnemonic, rd=rd, ra=ra)


class TestEncodingProperties:
    @given(instructions())
    def test_encode_decode_roundtrip(self, instruction):
        word = instruction.encode()
        back = decode(word)
        # cmp ignores rd; canonicalise before comparing.
        if instruction.mnemonic == "cmp":
            assert (back.mnemonic, back.ra, back.rb) == ("cmp", instruction.ra, instruction.rb)
        else:
            assert back == instruction

    @given(words)
    def test_decode_total_or_error(self, word):
        try:
            instruction = decode(word)
        except DecodingError:
            return
        assert instruction.encode() == (word & ~self._dont_care_mask(instruction))

    @staticmethod
    def _dont_care_mask(instruction) -> int:
        # Fields the decoder ignores (so re-encoding zeroes them).
        form = instruction.form
        if form in ("NONE",):
            return (1 << 26) - 1
        if form == "R1":
            return (1 << 21) - 1
        if form in ("U16", "BC", "D", "DU", "CMPI", "CMPLI", "MEM"):
            # rb is unused in D-class forms; imm covers low 16 bits.
            if form == "U16":
                return ((1 << 26) - 1) ^ 0xFFFF
            if form == "BC":
                return ((1 << 21) - 1) ^ 0xFFFF
            return 0
        if form == "SH":
            return 0xFFFF ^ 0x1F
        if form == "XO1":
            return 0x1F << 11
        return 0

    @given(words)
    def test_fast_decode_matches_structural_decode(self, word):
        fields = decode_fields(word)
        instruction = try_decode(word)
        if instruction is None:
            return
        opcode = word >> 26
        assert fields[0] == opcode

    @given(instructions())
    def test_text_rendering_never_fails(self, instruction):
        assert isinstance(instruction.text(), str)


# ---------------------------------------------------------------------------
# CPU arithmetic model
# ---------------------------------------------------------------------------

_MASK = 0xFFFFFFFF


def _c_div(a, b):
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


_ALU_MODEL = {
    "add": lambda a, b: (a + b) & _MASK,
    "sub": lambda a, b: (a - b) & _MASK,
    "mul": lambda a, b: (a * b) & _MASK,
    "and": lambda a, b: a & b,
    "or": lambda a, b: a | b,
    "xor": lambda a, b: a ^ b,
    "nor": lambda a, b: (a | b) ^ _MASK,
    "slw": lambda a, b: (a << (b & 31)) & _MASK,
    "srw": lambda a, b: a >> (b & 31),
    "sraw": lambda a, b: (to_signed(a) >> (b & 31)) & _MASK,
    "divw": lambda a, b: _c_div(to_signed(a), to_signed(b)) & _MASK,
    "modw": lambda a, b: (to_signed(a) - _c_div(to_signed(a), to_signed(b)) * to_signed(b)) & _MASK,
}


class TestCpuArithmetic:
    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(sorted(_ALU_MODEL)),
        words,
        words,
    )
    def test_alu_matches_model(self, mnemonic, a, b):
        if mnemonic in ("divw", "modw") and to_signed(b) == 0:
            b = 1
        from repro.isa import Assembler

        asm = Assembler()
        asm.emit(ins.li32(4, a))
        asm.emit(ins.li32(5, b))
        asm.emit(Instruction(mnemonic, rd=6, ra=4, rb=5))
        asm.emit(ins.sc(0))
        program = asm.assemble(0x1000)
        machine = boot(Executable(code=program.code, entry=0x1000))
        result = machine.run()
        assert result.status == "exited"
        assert machine.cores[0].regs[6] == _ALU_MODEL[mnemonic](a, b)


# ---------------------------------------------------------------------------
# compiler expression semantics
# ---------------------------------------------------------------------------

def _wrap(x):
    return ((x + 0x80000000) & _MASK) - 0x80000000


@st.composite
def expression_trees(draw, depth=0):
    """(MiniC text, python value) pairs with C-int semantics."""
    if depth >= 3 or draw(st.booleans()):
        value = draw(st.integers(min_value=-1000, max_value=1000))
        return (str(value) if value >= 0 else f"(-{-value})"), value
    op = draw(st.sampled_from(["+", "-", "*", "/", "%", "&", "|", "^", "<", "<=",
                               ">", ">=", "==", "!=", "&&", "||"]))
    left_text, left_value = draw(expression_trees(depth=depth + 1))
    right_text, right_value = draw(expression_trees(depth=depth + 1))
    if op in ("/", "%"):
        divisor = draw(st.integers(min_value=1, max_value=97))
        right_text, right_value = str(divisor), divisor
    text = f"({left_text} {op} {right_text})"
    if op == "+":
        value = _wrap(left_value + right_value)
    elif op == "-":
        value = _wrap(left_value - right_value)
    elif op == "*":
        value = _wrap(left_value * right_value)
    elif op == "/":
        value = _wrap(_c_div(left_value, right_value)) if right_value else 0
    elif op == "%":
        value = _wrap(left_value - _c_div(left_value, right_value) * right_value)
    elif op == "&":
        value = to_signed((left_value & _MASK) & (right_value & _MASK))
    elif op == "|":
        value = to_signed((left_value & _MASK) | (right_value & _MASK))
    elif op == "^":
        value = to_signed((left_value & _MASK) ^ (right_value & _MASK))
    elif op == "<":
        value = int(left_value < right_value)
    elif op == "<=":
        value = int(left_value <= right_value)
    elif op == ">":
        value = int(left_value > right_value)
    elif op == ">=":
        value = int(left_value >= right_value)
    elif op == "==":
        value = int(left_value == right_value)
    elif op == "!=":
        value = int(left_value != right_value)
    elif op == "&&":
        value = int(bool(left_value) and bool(right_value))
    else:
        value = int(bool(left_value) or bool(right_value))
    return text, value


class TestCompilerExpressions:
    @settings(max_examples=40, deadline=None)
    @given(expression_trees())
    def test_expression_matches_c_semantics(self, tree):
        text, value = tree
        source = f"void main() {{ print_int({text}); exit(0); }}"
        compiled = compile_source(source, "prop")
        machine = boot(compiled.executable)
        result = machine.run(max_instructions=1_000_000)
        assert result.status == "exited"
        assert int(result.console) == value


# ---------------------------------------------------------------------------
# heap
# ---------------------------------------------------------------------------

class TestHeapProperties:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(st.booleans(), st.integers(1, 200)), max_size=40))
    def test_live_blocks_never_overlap(self, operations):
        heap = HeapManager(0x1000, 0x4000)
        live: dict[int, int] = {}
        for is_alloc, size in operations:
            if is_alloc or not live:
                address = heap.malloc(size)
                if address:
                    live[address] = (size + 7) & ~7
            else:
                address = sorted(live)[size % len(live)]
                heap.free(address)
                del live[address]
            spans = sorted((a, a + s) for a, s in live.items())
            for (a_start, a_end), (b_start, b_end) in zip(spans, spans[1:]):
                assert a_end <= b_start


# ---------------------------------------------------------------------------
# fault-model bookkeeping
# ---------------------------------------------------------------------------

class TestWhenPolicyProperties:
    @given(st.integers(1, 50), st.integers(0, 100))
    def test_nth_fires_exactly_once(self, n, probe_range):
        policy = WhenPolicy.nth(n)
        fired = [a for a in range(1, n + probe_range + 2) if policy.fires(a)]
        assert fired == [n]

    @given(st.integers(1, 60), st.integers(1, 20))
    def test_window_fires_count_times(self, start, count):
        policy = WhenPolicy(start, count)
        fired = [a for a in range(1, start + count + 30) if policy.fires(a)]
        assert fired == list(range(start, start + count))

    @given(st.integers(1, 1000))
    def test_every_always_fires(self, activation):
        assert WhenPolicy.every().fires(activation)


# ---------------------------------------------------------------------------
# range closures (the compiled engine's multi-core block tier)
# ---------------------------------------------------------------------------

#: Registers the generated blocks use: r0 among them, so its writes and
#: reads (which a range closure must never fold) are frequent.
_RANGE_REGS = st.sampled_from([0, 3, 4, 5, 6])

_RANGE_ALU = [
    ("addi", "D"), ("addis", "D"), ("mulli", "D"), ("andi", "DU"),
    ("ori", "DU"), ("xori", "DU"), ("cmpi", "CMPI"), ("cmpli", "CMPLI"),
    ("slwi", "SH"), ("srwi", "SH"), ("srawi", "SH"), ("mflr", "R1"),
    ("mtlr", "R1"), ("add", "XO"), ("sub", "XO"), ("mul", "XO"),
    ("divw", "XO"), ("modw", "XO"), ("and", "XO"), ("or", "XO"),
    ("xor", "XO"), ("nor", "XO"), ("slw", "XO"), ("srw", "XO"),
    ("sraw", "XO"), ("cmp", "XO"), ("neg", "XO1"), ("not", "XO1"),
]


def _range_machine_edges() -> list[int]:
    """Both edges of every segment of the 2-core probe machine."""
    machine = boot(_range_executable([ins.sc(0).encode()]), num_cores=2)
    return sorted({edge for segment in machine.memory.segments
                   for edge in (segment.start, segment.end)})


def _range_executable(words):
    code = b"".join(word.to_bytes(4, "big") for word in words)
    code += ins.sc(0).encode().to_bytes(4, "big")  # the block's scan stops
    return Executable(code=code, entry=0x1000, data=bytes(range(1, 21)))


#: Known divisors: a block closure drops the zero test and ``abs`` for
#: every one but 0.
_RANGE_DIVISORS = st.sampled_from([-(1 << 31), -8, -1, 0, 1, 7, 8])


@st.composite
def _range_items(draw, edges):
    """One straight-line step: an ALU word, a load or store at a segment
    edge (the base is set right before the access), or a ``divw`` or
    ``modw`` by a register set right before it to a constant."""
    roll = draw(st.integers(0, 7))
    if roll == 7:
        divisor = draw(st.sampled_from([3, 4, 5, 6]))
        value = draw(_RANGE_DIVISORS) & 0xFFFFFFFF
        high = value >> 16
        return [
            ins.addis(divisor, 0, high - 0x10000 if high >= 0x8000 else high),
            ins.ori(divisor, divisor, value & 0xFFFF),
            Instruction(draw(st.sampled_from(["divw", "modw"])),
                        rd=draw(_RANGE_REGS), ra=draw(_RANGE_REGS), rb=divisor),
        ]
    if roll < 2:
        op = draw(st.sampled_from(["lwz", "stw", "lbz", "stb"]))
        base = draw(st.sampled_from([3, 4, 5, 6]))
        address = (draw(st.sampled_from(edges))
                   + draw(st.integers(-4, 3))) & 0xFFFFFFFF
        high = address >> 16
        return [
            ins.addis(base, 0, high - 0x10000 if high >= 0x8000 else high),
            ins.ori(base, base, address & 0xFFFF),
            Instruction(op, rd=draw(_RANGE_REGS), ra=base,
                        imm=draw(st.integers(-2, 2))),
        ]
    mnemonic, form = draw(st.sampled_from(_RANGE_ALU))
    rd, ra, rb = draw(_RANGE_REGS), draw(_RANGE_REGS), draw(_RANGE_REGS)
    if form in ("D", "CMPI"):
        return [Instruction(mnemonic, rd=rd, ra=ra, imm=draw(simm16))]
    if form in ("DU", "CMPLI"):
        return [Instruction(mnemonic, rd=rd, ra=ra, imm=draw(uimm16))]
    if form == "SH":
        return [Instruction(mnemonic, rd=rd, ra=ra, imm=draw(st.integers(0, 31)))]
    if form == "R1":
        return [Instruction(mnemonic, rd=rd)]
    if form == "XO":
        return [Instruction(mnemonic, rd=rd, ra=ra, rb=rb)]
    return [Instruction(mnemonic, rd=rd, ra=ra)]


_RANGE_EDGES = _range_machine_edges()


@st.composite
def range_blocks(draw):
    """A generated block (its words) and the state one core enters it with."""
    edges = _RANGE_EDGES
    body = [word for item in draw(st.lists(_range_items(edges), min_size=1,
                                           max_size=4)) for word in item]
    terminator = draw(st.sampled_from(["", "b", "bl", "blr", "bc"]))
    if terminator == "bc":
        cond = draw(st.sampled_from(sorted(COND_NAMES)))
        body.append(Instruction("bc", rd=cond, imm=draw(st.integers(-8, 8))))
    elif terminator in ("b", "bl"):
        body.append(Instruction(terminator, imm=draw(st.integers(-8, 8))))
    elif terminator == "blr":
        body.append(Instruction("blr"))
    values = st.one_of(st.sampled_from([0, 1, 2, 7, 0xFFFFFFFF, 0x80000000]),
                       st.sampled_from(edges), words)
    regs = draw(st.lists(values, min_size=32, max_size=32))
    return ([word.encode() for word in body], regs,
            draw(st.sampled_from([-1, 0, 1])), draw(words),
            draw(st.integers(0, 1)))


def _range_state(machine, core, trap):
    """What a range may change: the core, the counters, the trap, and
    every writable segment."""
    writable = [machine.memory.data[s.start:s.end]
                for s in machine.memory.segments if s.writable]
    return {
        "regs": list(core.regs), "cr": core.cr, "lr": core.lr, "pc": core.pc,
        "instret": (core.instret, machine.instret),
        "trap": None if trap is None else (trap.kind, trap.pc, trap.core_id,
                                           trap.address),
        "memory": writable,
    }


class TestRangeClosureProperties:
    """``run(core, regs, j, n)`` of a block's range closure against the
    interpreter running ``n - j`` instructions from ``h + 4j``, for every
    ``0 <= j < n <= count``; and the whole-block closure, which folds
    what the block sets from constants (known addresses and divisors),
    against the interpreter running the block."""

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_every_range_matches_the_interpreter(self, data):
        from repro.machine import blocks
        from repro.machine.traps import Trap

        words_, regs, cr, lr, core_id = data.draw(range_blocks())
        executable = _range_executable(words_)
        count = len(words_)
        head = 0x1000
        factory = blocks._range_factory_for(tuple(words_))

        def fresh(engine):
            machine = boot(executable, num_cores=2, engine=engine)
            core = machine.cores[core_id]
            core.regs[:] = regs
            core.cr, core.lr = cr, lr
            return machine, core

        def interpreted(j, n):
            machine, core = fresh("simple")
            assert blocks._scan(machine.decode_cache, 0) == count
            core.pc = head + 4 * j
            trap = None
            try:
                core._run_quantum_simple(n - j)
            except Trap as error:
                trap = error
            return _range_state(machine, core, trap)

        machine, core = fresh("trace")
        run = machine.block_engine._instantiate(
            blocks._factory_for(tuple(words_)), head)
        core.pc = head
        trap = None
        try:
            core.pc = run(core, core.regs)
            # What the dispatcher adds for a block that returns.
            core.instret += count
            machine.instret += count
        except Trap as error:
            trap = error
        assert _range_state(machine, core, trap) == interpreted(0, count)

        for j in range(count):
            for n in range(j + 1, count + 1):
                expected = interpreted(j, n)

                machine, core = fresh("trace")
                run = machine.block_engine._instantiate(factory, head)
                core.pc = head + 4 * j
                trap = None
                try:
                    core.pc = run(core, core.regs, j, n)
                    # What the dispatcher adds for a range that returns.
                    core.instret += n - j
                    machine.instret += n - j
                except Trap as error:
                    trap = error
                assert _range_state(machine, core, trap) == expected, (j, n)
