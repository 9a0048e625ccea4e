"""Seeded random-program generation over the MiniC subset.

The differential oracle (:mod:`repro.verify.oracle`) needs a stream of
programs that (a) always compile, (b) always terminate and exit cleanly
when run fault-free, and (c) exercise the machine features where the
execution engines and the snapshot fast path have historically disagreed:
``divw``/``modw`` trap accounting, memory-range edges around array and
pointer accesses, call/return and recursion, the heap allocator's
strict free checking, (in about half the programs) a loop that hangs
stationarily once its step is stuck, which the compiled engine ends at
its cycle, (in about half) stores through a pointer to a local that
a trace has cached, and (in all) a helper called often enough for a
trace to form at its entry, past the prologue that sets its frame base.

A :class:`GenProgram` is deliberately *structured* rather than a flat
source string: statements are a small tree the shrinker
(:mod:`repro.verify.shrinker`) can delete and flatten node by node, with
the renderer producing fresh MiniC source after every edit.  Expressions
are opaque rendered strings — shrinking at statement granularity is what
gets a failing case below ten statements, and keeping expressions opaque
keeps both the generator and the shrinker small.

Generation is a pure function of ``(seed, index)``: the same pair always
yields the same program, which is what makes every fuzz campaign and
every divergence artifact replayable.
"""

from __future__ import annotations

import copy
import random
from dataclasses import dataclass, field

#: Sizes the generator leans on.  Power-of-two array lengths let every
#: generated index be masked in range (``expr & 15``) — fault-free runs
#: never trap, while an injected corruption of the mask or the index
#: computation walks straight off a memory-range edge.
ARRAY_LEN = 16
HEAP_CELLS = 8

#: Poked input globals every generated program declares.
INPUT_SCALARS = ("in0", "in1", "in2")
INPUT_ARRAY = "in_arr"


# ---------------------------------------------------------------------------
# The statement tree
# ---------------------------------------------------------------------------


@dataclass
class Stmt:
    """One MiniC statement: a renderable leaf or a compound with bodies.

    ``kind`` is one of ``"line"`` (expression/declaration/return/... — the
    pre-rendered text in ``text``), ``"if"`` (``cond`` + ``body`` +
    ``orelse``) or ``"for"`` (``init``/``cond``/``step`` + ``body``).
    """

    kind: str
    text: str = ""
    cond: str = ""
    init: str = ""
    step: str = ""
    body: list["Stmt"] = field(default_factory=list)
    orelse: list["Stmt"] = field(default_factory=list)

    def count(self) -> int:
        total = 1
        for child in self.body:
            total += child.count()
        for child in self.orelse:
            total += child.count()
        return total

    def render(self, out: list[str], indent: int) -> None:
        pad = "    " * indent
        if self.kind == "line":
            out.append(f"{pad}{self.text};")
        elif self.kind == "if":
            out.append(f"{pad}if ({self.cond}) {{")
            for child in self.body:
                child.render(out, indent + 1)
            if self.orelse:
                out.append(f"{pad}}} else {{")
                for child in self.orelse:
                    child.render(out, indent + 1)
            out.append(f"{pad}}}")
        elif self.kind == "for":
            out.append(f"{pad}for ({self.init}; {self.cond}; {self.step}) {{")
            for child in self.body:
                child.render(out, indent + 1)
            out.append(f"{pad}}}")
        else:  # pragma: no cover - exhaustive over kinds
            raise AssertionError(self.kind)


def line(text: str) -> Stmt:
    return Stmt("line", text=text)


@dataclass
class GenFunc:
    """One generated helper function (always ``int f(int a, int b)``)."""

    name: str
    params: tuple[str, ...]
    body: list[Stmt]

    def render(self, out: list[str]) -> None:
        params = ", ".join(f"int {p}" for p in self.params)
        out.append(f"int {self.name}({params}) {{")
        for stmt in self.body:
            stmt.render(out, 1)
        out.append("}")
        out.append("")


@dataclass
class GenProgram:
    """A generated MiniC program plus the input model it was built for."""

    name: str
    seed: int
    index: int
    functions: list[GenFunc]
    main: list[Stmt]

    def render(self) -> str:
        out = [f"/* generated by repro.verify (seed={self.seed}, index={self.index}) */"]
        for scalar in INPUT_SCALARS:
            out.append(f"int {scalar};")
        out.append(f"int {INPUT_ARRAY}[{ARRAY_LEN}];")
        out.append(f"int gout[{ARRAY_LEN}];")
        out.append("int gacc;")
        out.append("")
        for func in self.functions:
            func.render(out)
        out.append("void main() {")
        for stmt in self.main:
            stmt.render(out, 1)
        out.append("}")
        out.append("")
        return "\n".join(out)

    def statement_count(self) -> int:
        total = 0
        for func in self.functions:
            for stmt in func.body:
                total += stmt.count()
        for stmt in self.main:
            total += stmt.count()
        return total

    def bodies(self) -> list[list[Stmt]]:
        """Every statement list in the program, for the shrinker.

        The returned lists are the live lists — mutating them mutates the
        program.  Compound statements contribute their bodies recursively.
        """
        found: list[list[Stmt]] = [func.body for func in self.functions]
        found.append(self.main)

        def walk(stmts: list[Stmt]) -> None:
            for stmt in stmts:
                if stmt.body:
                    found.append(stmt.body)
                    walk(stmt.body)
                if stmt.orelse:
                    found.append(stmt.orelse)
                    walk(stmt.orelse)

        snapshot = list(found)
        for stmts in snapshot:
            walk(stmts)
        return found

    def clone(self) -> "GenProgram":
        return copy.deepcopy(self)


# ---------------------------------------------------------------------------
# Input cases
# ---------------------------------------------------------------------------


def generate_pokes(rng: random.Random) -> dict[str, object]:
    """One random input data set for a generated program."""
    pokes: dict[str, object] = {
        scalar: rng.randint(-64, 192) for scalar in INPUT_SCALARS
    }
    pokes[INPUT_ARRAY] = [rng.randint(-32, 96) for _ in range(ARRAY_LEN)]
    return pokes


# ---------------------------------------------------------------------------
# The generator
# ---------------------------------------------------------------------------


class _Scope:
    """Names visible at the current generation point.

    ``scalars`` are assignable; ``readonly`` names (loop variables) may
    only be read — assigning to a live loop counter could reset it every
    iteration and break the termination guarantee.
    """

    def __init__(self, scalars: list[str], arrays: list[str],
                 readonly: list[str] | None = None) -> None:
        self.scalars = list(scalars)
        self.arrays = list(arrays)
        self.readonly = list(readonly or [])

    @property
    def readable(self) -> list[str]:
        return self.scalars + self.readonly


class _Generator:
    def __init__(self, seed: int, index: int) -> None:
        self.seed = seed
        self.index = index
        self.rng = random.Random(f"repro.verify.program:{seed}:{index}")
        self.temp = 0

    # -- expressions ---------------------------------------------------

    def _value(self, scope: _Scope) -> str:
        rng = self.rng
        choice = rng.random()
        if choice < 0.40 and scope.readable:
            return rng.choice(scope.readable)
        if choice < 0.60 and scope.arrays:
            array = rng.choice(scope.arrays)
            return f"{array}[{self._index(scope)}]"
        return str(rng.randint(-20, 40))

    def _index(self, scope: _Scope) -> str:
        """An always-in-range array index (masked to the array length)."""
        if scope.readable and self.rng.random() < 0.7:
            base = self.rng.choice(scope.readable)
            if self.rng.random() < 0.5:
                base = f"{base} + {self.rng.randint(0, 7)}"
            return f"({base}) & {ARRAY_LEN - 1}"
        return str(self.rng.randint(0, ARRAY_LEN - 1))

    def _expr(self, scope: _Scope, depth: int = 0) -> str:
        rng = self.rng
        if depth >= 2 or rng.random() < 0.35:
            return self._value(scope)
        op = rng.choice(("+", "-", "*", "&", "|", "^", "+", "-"))
        left = self._expr(scope, depth + 1)
        right = self._expr(scope, depth + 1)
        return f"({left} {op} {right})"

    def _nonzero(self, scope: _Scope) -> str:
        """A denominator that is provably non-zero fault-free."""
        return f"(({self._value(scope)}) & 7) + {self.rng.randint(1, 3)}"

    def _cond(self, scope: _Scope) -> str:
        rng = self.rng
        op = rng.choice(("<", "<=", ">", ">=", "==", "!="))
        cond = f"{self._value(scope)} {op} {self._value(scope)}"
        if rng.random() < 0.25:
            join = rng.choice(("&&", "||"))
            other = f"{self._value(scope)} {rng.choice(('<', '>'))} {rng.randint(-8, 24)}"
            cond = f"{cond} {join} {other}"
        return cond

    # -- statements ----------------------------------------------------

    def _fresh(self, prefix: str) -> str:
        self.temp += 1
        return f"{prefix}{self.temp}"

    def _stmt_assign(self, scope: _Scope) -> Stmt:
        rng = self.rng
        if scope.arrays and rng.random() < 0.35:
            array = rng.choice(scope.arrays)
            return line(f"{array}[{self._index(scope)}] = {self._expr(scope)}")
        target = rng.choice(scope.scalars)
        if rng.random() < 0.2:
            op = rng.choice(("+=", "-=", "*="))
            return line(f"{target} {op} {self._expr(scope)}")
        return line(f"{target} = {self._expr(scope)}")

    def _stmt_divmod(self, scope: _Scope) -> Stmt:
        """Division or modulo — the DIVW/MODW trap surface.

        Half the emissions divide by a masked-nonzero denominator (safe
        fault-free, and a single-bit corruption of the mask or the added
        constant reaches zero); the other half guard a poked denominator
        with an ``if`` whose condition is itself a prime injection target.
        """
        rng = self.rng
        target = rng.choice(scope.scalars)
        op = rng.choice(("/", "%"))
        if rng.random() < 0.5:
            return line(f"{target} = ({self._expr(scope)}) {op} ({self._nonzero(scope)})")
        denom = rng.choice(scope.scalars)
        guarded = Stmt(
            "if",
            cond=f"{denom} != 0",
            body=[line(f"{target} = ({self._expr(scope)}) {op} {denom}")],
            orelse=[line(f"{target} = {rng.randint(-5, 9)}")],
        )
        return guarded

    def _stmt_for(self, scope: _Scope, depth: int) -> Stmt:
        rng = self.rng
        var = self._fresh("i")
        bound = rng.randint(2, 8)
        inner_scope = _Scope(scope.scalars, scope.arrays, scope.readonly + [var])
        loop = Stmt(
            "for",
            init=f"{var} = 0",
            cond=f"{var} < {bound}",
            step=f"{var}++",
            body=self._block(inner_scope, depth + 1, rng.randint(1, 3)),
        )
        if rng.random() < 0.3:
            loop.body.append(
                Stmt("if", cond=f"{var} == {rng.randint(0, bound - 1)}",
                     body=[line(rng.choice(("break", "continue")))])
            )
        return _decl_pair(var, loop)

    def _stmt_fill(self) -> Stmt:
        """A loop storing the same values on every pass through it.

        With its step stuck (an injected no-op) it never ends and its
        state repeats exactly: the stationary hang a compiled engine
        ends at its cycle.
        """
        rng = self.rng
        var = self._fresh("i")
        loop = Stmt(
            "for",
            init=f"{var} = 0",
            cond=f"{var} < {ARRAY_LEN}",
            step=f"{var}++",
            body=[line(
                f"gout[({var} + {rng.randint(0, 7)}) & {ARRAY_LEN - 1}] = "
                f"{INPUT_ARRAY}[{var}] + {rng.randint(-8, 24)}"
            )],
        )
        return _decl_pair(var, loop)

    def _stmt_alias(self) -> Stmt:
        """A loop that stores through a pointer to a local and into a
        local array, then reads the local back by name.

        The loop runs long enough to form a trace, and a trace keeps the
        local in a Python local once it has loaded or stored it: the
        read after the pointer store must see the store.
        """
        rng = self.rng
        var, value, array, pointer = (self._fresh(prefix)
                                      for prefix in ("i", "x", "a", "p"))
        loop = Stmt(
            "for",
            init=f"{var} = 0",
            cond=f"{var} < {rng.randint(40, 80)}",
            # Not ``++``: the sampler's stuck-step faults pick among
            # ``++`` steps, and this loop would only move their picks.
            step=f"{var} = {var} + 1",
            body=[
                line(f"{value} = {value} + {rng.randint(1, 9)}"),
                line(f"*{pointer} = *{pointer} + {rng.randint(1, 9)}"),
                line(f"{array}[{var} & 3] = {value}"),
                line(f"gacc += {value} + {array}[({var} + 1) & 3]"),
            ],
        )
        return Stmt("if", cond="1", body=[
            line(f"int {var} = 0"),
            line(f"int {value} = {rng.randint(-8, 24)}"),
            line(f"int {array}[4]"),
            line(f"int *{pointer}"),
            line(f"{pointer} = &{value}"),
            loop,
            line(f"print_int({value})"),
        ])

    def _stmt_heap(self, scope: _Scope) -> list[Stmt]:
        """malloc / pointer stores / free — the dynamic-structure surface."""
        rng = self.rng
        ptr = self._fresh("p")
        cells = HEAP_CELLS
        body: list[Stmt] = []
        for _ in range(rng.randint(1, 3)):
            body.append(
                line(f"{ptr}[{self._index(scope)} & {cells - 1}] = {self._expr(scope)}")
            )
        body.append(line(f"gacc += {ptr}[{rng.randint(0, cells - 1)}]"))
        body.append(line(f"free({ptr})"))
        return [
            line(f"int *{ptr}"),
            line(f"{ptr} = malloc({4 * cells})"),
            Stmt("if", cond=f"{ptr} != 0", body=body),
        ]

    def _stmt_print(self, scope: _Scope) -> Stmt:
        if self.rng.random() < 0.5:
            return line(f"print_int({self.rng.choice(scope.scalars)})")
        return line(f"print_int({self._expr(scope)})")

    def _block(self, scope: _Scope, depth: int, budget: int) -> list[Stmt]:
        stmts: list[Stmt] = []
        for _ in range(budget):
            stmts.extend(self._statement(scope, depth))
        return stmts

    def _statement(self, scope: _Scope, depth: int) -> list[Stmt]:
        rng = self.rng
        roll = rng.random()
        if roll < 0.40:
            return [self._stmt_assign(scope)]
        if roll < 0.55:
            return [self._stmt_divmod(scope)]
        if roll < 0.70 and depth < 2:
            return [self._stmt_for(scope, depth)]
        if roll < 0.80:
            return [
                Stmt(
                    "if",
                    cond=self._cond(scope),
                    body=self._block(scope, depth + 1, rng.randint(1, 2)),
                    orelse=self._block(scope, depth + 1, 1) if rng.random() < 0.5 else [],
                )
            ]
        if roll < 0.90 and depth < 2:
            return self._stmt_heap(scope)
        return [self._stmt_print(scope)]

    # -- functions -----------------------------------------------------

    def _helper_function(self, name: str) -> GenFunc:
        rng = self.rng
        params = ("a", "b")
        scope = _Scope(["a", "b"], [INPUT_ARRAY, "gout"])
        body = self._block(scope, 1, rng.randint(1, 3))
        body.append(line(f"return {self._expr(scope)}"))
        return GenFunc(name, params, body)

    def _recursive_function(self, name: str) -> GenFunc:
        rng = self.rng
        depth = rng.randint(3, 8)
        step = rng.choice(("n - 1", "n - 2"))
        combine = rng.choice(
            (f"n + {name}({step})", f"({name}({step}) * 2) - n",
             f"{name}({step}) ^ n")
        )
        body = [
            Stmt("if", cond=f"n <= 0 || n > {depth}",
                 body=[line(f"return {rng.randint(1, 4)}")]),
            line(f"return {combine}"),
        ]
        return GenFunc(name, ("n",), body)

    def _hot_function(self, name: str) -> tuple[GenFunc, Stmt]:
        """A helper whose body opens with a biased ``if`` and divides by
        a literal, and the loop in ``main`` that calls it 40-80 times.

        ``main`` calls every other generated function once, so no trace
        forms at a function's entry; this one's forms after
        ``TRACE_HOT`` calls and runs through the prologue, which writes
        the frame base before its first frame access (a late frame
        guard), to the division by a known divisor.
        """
        rng = self.rng
        body = [
            Stmt("if", cond=f"a > {rng.randint(90, 200)}",
                 body=[line("b = b - a")]),
            line(f"return (a + b) {rng.choice(('/', '%'))} "
                 f"{rng.choice((-8, -3, -1, 2, 7, 8))}"),
        ]
        var = self._fresh("i")
        loop = Stmt(
            "for",
            init=f"{var} = 0",
            cond=f"{var} < {rng.randint(40, 80)}",
            # Not ``++``, for the same reason as in :meth:`_stmt_alias`.
            step=f"{var} = {var} + 1",
            body=[line(f"gacc += {name}({var}, {rng.choice(INPUT_SCALARS)})")],
        )
        return GenFunc(name, ("a", "b"), body), _decl_pair(var, loop)

    # -- the program ---------------------------------------------------

    def generate(self) -> GenProgram:
        rng = self.rng
        functions: list[GenFunc] = []
        callables: list[GenFunc] = []
        for fi in range(rng.randint(1, 2)):
            func = self._helper_function(f"fn{fi}")
            functions.append(func)
            callables.append(func)
        recursive: GenFunc | None = None
        if rng.random() < 0.6:
            recursive = self._recursive_function("rec")
            functions.append(recursive)

        locals_ = [self._fresh("v") for _ in range(rng.randint(2, 4))]
        scope = _Scope(list(INPUT_SCALARS) + locals_ + ["gacc"],
                       [INPUT_ARRAY, "gout"])
        main: list[Stmt] = [line(f"int {name} = {rng.randint(-8, 24)}")
                            for name in locals_]
        main.append(line("gacc = 0"))

        # Guaranteed feature coverage, then random filler.
        main.append(self._stmt_divmod(scope))
        for func in callables:
            args = ", ".join(self._value(scope) for _ in func.params)
            main.append(line(f"{rng.choice(scope.scalars)} = {func.name}({args})"))
        if recursive is not None:
            main.append(
                line(f"gacc += rec(({self._value(scope)}) & 7)")
            )
        main.extend(self._block(scope, 0, rng.randint(3, 7)))
        # Drawn last, so everything above is what it was without it.
        if rng.random() < 0.5:
            main.append(self._stmt_fill())
        # Drawn after that, for the same reason.
        if rng.random() < 0.5:
            main.append(self._stmt_alias())
        # And this after everything else.
        hot, calls = self._hot_function(f"fn{len(callables)}")
        functions.append(hot)
        main.append(calls)

        # Observable tail: print the accumulators and the work array, so
        # any surviving state corruption reaches the console oracle too.
        tail_var = self._fresh("i")
        main.append(line(f"int {tail_var}"))
        main.append(
            Stmt(
                "for",
                init=f"{tail_var} = 0",
                cond=f"{tail_var} < {ARRAY_LEN}",
                step=f"{tail_var}++",
                body=[line(f"print_int(gout[{tail_var}])"), line("print_char(32)")],
            )
        )
        for scalar in scope.scalars[:4]:
            main.append(line(f"print_int({scalar})"))
            main.append(line("print_char(10)"))
        main.append(line("exit(0)"))
        return GenProgram(
            name=f"verify-{self.seed}-{self.index}",
            seed=self.seed,
            index=self.index,
            functions=functions,
            main=main,
        )


def _decl_pair(var: str, loop: Stmt) -> Stmt:
    """A loop variable declaration fused with its loop.

    MiniC has no ``for (int i = ...)``; wrapping both in a brace block
    keeps the declaration and the loop one shrinkable unit.
    """
    return Stmt("if", cond="1", body=[line(f"int {var} = 0"), loop])


def generate_program(seed: int, index: int) -> GenProgram:
    """The pure ``(seed, index) -> program`` entry point."""
    return _Generator(seed, index).generate()
