"""Randomized fault sampling for the differential fuzzer.

A sampled fault is stored as a :class:`MachineFaultRecipe` — a small,
JSON-serializable *recipe* rather than a concrete :class:`MachineFault`.
The recipe is part of the unified :class:`repro.swifi.InjectionSpec`
hierarchy (tier ``"machine"``).
The recipe names things structurally ("the k-th Table-3 checking
location", "the j-th divw/modw word in the code segment", "the global
``gout`` plus byte offset 8") and is *realized* against a compiled
program on demand.  That indirection is what lets the shrinker edit the
program aggressively: addresses shift after every edit, but ordinals wrap
(``index % len(candidates)``) so a descriptor stays realizable on any
shrunken variant, and the divergence predicate remains meaningful.

Two descriptor kinds:

* ``table3`` — drive :class:`repro.emulation.FaultLocator` exactly as the
  §6.3 rule engine does, sampling one error type at one assignment or
  checking location (the paper's injected error classes);
* ``raw`` — classic SWIFI corruption: a trigger (opcode fetch on a
  weighted code-word category, data access on a global, or temporal) plus
  one corruption action (fetched-word/register/code-word/memory-word/
  load/store bit operations).

Sampling is weighted toward the historically risky machine surfaces: the
``divw``/``modw`` trap accounting, loads/stores near memory-range edges,
and trap-insertion mode (which the snapshot fast path must refuse).  A
share of raw faults turn a ``for`` step into a no-op (``category
"step"``): the shape of a stationary hang, whose run the compiled engine
ends at its cycle (:class:`repro.swifi.injector.CycleProbe`) while the
``simple`` engine runs it to the budget.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import asdict, dataclass, replace

from ..emulation import ASSIGNMENT_CLASS, CHECKING_CLASS, NotEmulableError
from ..emulation.locator import FaultLocator
from ..isa.encoding import (
    NOP_WORD,
    OP_LBZ,
    OP_LWZ,
    OP_STB,
    OP_STW,
    OP_XO,
    XO_DIVW,
    XO_MODW,
)
from ..swifi.faults import (
    Action,
    Arithmetic,
    BitAnd,
    BitFlip,
    BitOr,
    CodeWord,
    Corruption,
    DataAccess,
    FetchedWord,
    LoadValue,
    MachineFault,
    MemoryWord,
    MODE_BREAKPOINT,
    MODE_TRAP,
    OpcodeFetch,
    RegisterTarget,
    SetValue,
    StoreValue,
    Temporal,
    WhenPolicy,
)
from ..swifi.spec import InjectionSpec, TIER_MACHINE

_MEM_OPCODES = (OP_LWZ, OP_STW, OP_LBZ, OP_STB)


class SamplerError(ValueError):
    """A descriptor that cannot be realized against any program."""


# ---------------------------------------------------------------------------
# Descriptors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MachineFaultRecipe(InjectionSpec):
    """A portable recipe for one machine-tier fault (see module docstring).

    Fields are a flat union over both kinds; unused fields stay at their
    defaults so ``asdict`` round-trips cleanly through JSON.
    Realization (:meth:`realize`) is the single ordinal-wrapping
    implementation.
    """

    kind: str                     # "table3" | "raw"
    # -- table3 ----------------------------------------------------------
    klass: str = ""               # assignment | checking
    location_index: int = 0       # ordinal into locator.locations(klass)
    fault_offset: int = 0         # ordinal into that location's error types
    # -- raw -------------------------------------------------------------
    trigger: str = ""             # "fetch" | "data" | "temporal"
    category: str = "any"         # fetch-trigger weighting: any|div|mem|step
    trigger_index: int = 0        # code-word / global-word ordinal
    on_load: bool = True
    on_store: bool = False
    instret_permille: int = 0     # temporal: fraction of the golden run
    target: str = "fetched"       # fetched|register|code|memory|load|store
    register: int = 3
    op: str = "xor"               # xor|and|or|add|set
    operand: int = 1
    # -- shared ----------------------------------------------------------
    mode: str = MODE_BREAKPOINT
    when: str = "every"           # every|once|nth|window
    when_n: int = 2
    seed: int = 0                 # rng stream for table3 random-value types

    tier = TIER_MACHINE

    # -- identity --------------------------------------------------------

    def fault_id(self) -> str:
        digest = hashlib.sha256(
            json.dumps(asdict(self), sort_keys=True).encode("utf-8")
        ).hexdigest()[:12]
        return f"vf-{self.kind}-{digest}"

    @property
    def spec_id(self) -> str:
        return self.fault_id()

    def describe(self) -> str:
        if self.kind == "table3":
            return (f"{self.fault_id()}: table3 {self.klass} "
                    f"location#{self.location_index} fault#{self.fault_offset}")
        return (f"{self.fault_id()}: raw {self.trigger}/{self.target} "
                f"{self.op} {self.operand:#x}")

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(payload: dict) -> "MachineFaultRecipe":
        return MachineFaultRecipe(**payload)

    # -- realization -----------------------------------------------------

    def realize(self, compiled, golden_instructions: int) -> MachineFault:
        """Build the concrete :class:`MachineFault` for *compiled*.

        Ordinals wrap modulo the candidate count so the descriptor stays
        realizable on shrunken program variants.  Raises
        :class:`SamplerError` when the program offers no candidate at all
        (e.g. a shrunk program with no checking locations left).
        """
        if self.kind == "table3":
            spec = self._realize_table3(compiled)
        elif self.kind == "raw":
            spec = self._realize_raw(compiled, golden_instructions)
        else:
            raise SamplerError(f"unknown descriptor kind {self.kind!r}")
        return replace(spec, fault_id=self.fault_id())

    def _realize_table3(self, compiled) -> MachineFault:
        locator = FaultLocator(compiled)
        locations = locator.locations(self.klass)
        if not locations:
            raise SamplerError(f"no {self.klass} locations in {compiled.name}")
        location = locations[self.location_index % len(locations)]
        rng = random.Random(f"repro.verify.table3:{self.seed}")
        try:
            faults = locator.faults_for_location(
                location, rng=rng, mode=self.mode, when=self._when_policy()
            )
        except NotEmulableError as error:
            raise SamplerError(str(error)) from None
        if not faults:
            raise SamplerError(f"no faults at location {location!r}")
        return faults[self.fault_offset % len(faults)]

    def _realize_raw(self, compiled, golden_instructions: int) -> MachineFault:
        executable = compiled.executable
        code_words = _decode_code_words(executable)
        action = self._action()
        when = self._when_policy()
        if self.trigger == "temporal":
            if isinstance(action.location, FetchedWord):
                action = Action(RegisterTarget(self.register), action.corruption)
            action = self._fill_address(action, executable, code_words)
            at = max(1, (golden_instructions * self.instret_permille) // 1000)
            return MachineFault("raw", Temporal(at), (action,), when=when,
                             mode=MODE_BREAKPOINT)
        if self.trigger == "data":
            if isinstance(action.location, FetchedWord):
                action = Action(LoadValue(), action.corruption)
            action = self._fill_address(action, executable, code_words)
            address = self._data_address(executable)
            return MachineFault(
                "raw", DataAccess(address, on_load=self.on_load or not self.on_store,
                                  on_store=self.on_store),
                (action,), when=when, mode=MODE_BREAKPOINT,
            )
        assert self.trigger == "fetch"
        if self.category == "step":
            candidates = _loop_steps(compiled) or _fetch_candidates(code_words, "any")
        else:
            candidates = _fetch_candidates(code_words, self.category)
        index = candidates[self.trigger_index % len(candidates)]
        address = executable.code_base + 4 * index
        if isinstance(action.location, (CodeWord, MemoryWord)):
            if self.target == "memory":
                action = Action(MemoryWord(self._data_address(executable)),
                                action.corruption)
            else:
                # Self-corrupting instruction: persistent rewrite of the
                # very word whose fetch triggered the fault.
                action = Action(CodeWord(address), action.corruption)
        return MachineFault("raw", OpcodeFetch(address), (action,), when=when,
                         mode=self.mode)

    def _fill_address(self, action: Action, executable, code_words: list[int]) -> Action:
        """Pin placeholder code/memory-word actions to a concrete address."""
        if not isinstance(action.location, (CodeWord, MemoryWord)):
            return action
        if self.target == "memory":
            return Action(MemoryWord(self._data_address(executable)), action.corruption)
        index = self.trigger_index % max(1, len(code_words))
        return Action(CodeWord(executable.code_base + 4 * index), action.corruption)

    def _when_policy(self) -> WhenPolicy:
        if self.when == "once":
            return WhenPolicy.once()
        if self.when == "nth":
            return WhenPolicy.nth(max(1, self.when_n))
        if self.when == "window":
            # Long enough for a stuck loop to repeat before it closes.
            return WhenPolicy(max(1, self.when_n), 8 * max(1, self.when_n))
        return WhenPolicy.every()

    def _corruption(self) -> Corruption:
        if self.op == "xor":
            return BitFlip(self.operand)
        if self.op == "and":
            return BitAnd(self.operand)
        if self.op == "or":
            return BitOr(self.operand)
        if self.op == "add":
            return Arithmetic(self.operand)
        if self.op == "set":
            return SetValue(self.operand)
        raise SamplerError(f"unknown corruption op {self.op!r}")

    def _action(self) -> Action:
        corruption = self._corruption()
        if self.target == "fetched":
            return Action(FetchedWord(), corruption)
        if self.target == "register":
            return Action(RegisterTarget(self.register), corruption)
        if self.target == "load":
            return Action(LoadValue(), corruption)
        if self.target == "store":
            return Action(StoreValue(), corruption)
        if self.target in ("code", "memory"):
            # The concrete address is filled in at realization time.
            return Action(CodeWord(0), corruption)
        raise SamplerError(f"unknown action target {self.target!r}")

    def _data_address(self, executable) -> int:
        symbols = sorted(
            (name, address) for name, address in executable.symbols.items()
            if not name.startswith(".") and address >= 0x0010_0000
        )
        if not symbols:
            raise SamplerError("no data symbols to target")
        name, base = symbols[self.trigger_index % len(symbols)]
        return base + 4 * (self.operand % 4 if name.endswith("arr") else 0)


def _decode_code_words(executable) -> list[int]:
    code = executable.code
    return [int.from_bytes(code[k:k + 4], "big") for k in range(0, len(code), 4)]


def _loop_steps(compiled) -> list[int]:
    """Code-word indices of the stores committing ``i++``-style steps."""
    code_base = compiled.executable.code_base
    return [
        (site.address - code_base) >> 2
        for site in compiled.debug.assignments
        if site.kind == "incdec" and site.anchorable and site.address is not None
    ]


def _fetch_candidates(code_words: list[int], category: str) -> list[int]:
    """Code-word indices for one weighting category (wrapping fallback)."""
    if category == "div":
        picks = [
            k for k, word in enumerate(code_words)
            if word >> 26 == OP_XO and word & 0x7FF in (XO_DIVW, XO_MODW)
        ]
        if picks:
            return picks
    if category == "mem":
        picks = [k for k, word in enumerate(code_words) if word >> 26 in _MEM_OPCODES]
        if picks:
            return picks
    return list(range(len(code_words)))


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

#: (kind-weighted) sampling plan: roughly half Table-3 rule faults, a
#: tenth stuck loop steps, the rest raw SWIFI corruptions biased toward
#: the div/mem fetch categories with a sprinkle of trap-mode and
#: temporal cases.
def sample_descriptors(rng: random.Random, count: int) -> list[MachineFaultRecipe]:
    """Draw *count* distinct fault descriptors from the seeded stream."""
    seen: set[str] = set()
    out: list[MachineFaultRecipe] = []
    attempts = 0
    while len(out) < count and attempts < count * 20:
        attempts += 1
        descriptor = _sample_one(rng)
        fid = descriptor.fault_id()
        if fid in seen:
            continue
        seen.add(fid)
        out.append(descriptor)
    return out


def _sample_one(rng: random.Random) -> MachineFaultRecipe:
    roll = rng.random()
    if roll < 0.45:
        return MachineFaultRecipe(
            kind="table3",
            klass=rng.choice((ASSIGNMENT_CLASS, CHECKING_CLASS)),
            location_index=rng.randrange(64),
            fault_offset=rng.randrange(8),
            mode=MODE_TRAP if rng.random() < 0.2 else MODE_BREAKPOINT,
            when=rng.choice(("every", "every", "every", "once", "nth")),
            when_n=rng.randint(2, 4),
            seed=rng.randrange(1 << 30),
        )
    if roll < 0.55:
        return _sample_loop_step(rng)
    trigger = rng.choice(("fetch", "fetch", "fetch", "data", "temporal"))
    target = {
        "fetch": rng.choice(("fetched", "fetched", "register", "code", "store", "load")),
        "data": rng.choice(("load", "store", "register", "memory")),
        "temporal": rng.choice(("register", "code", "memory")),
    }[trigger]
    op = rng.choice(("xor", "xor", "and", "or", "add", "set"))
    if op in ("xor", "and", "or"):
        operand = 1 << rng.randrange(32)
        if op == "and":
            operand = 0xFFFFFFFF ^ operand
        if rng.random() < 0.3:
            operand |= 1 << rng.randrange(32)
    elif op == "add":
        operand = rng.choice((1, -1, 2, -2, 4, 0x100))
    else:
        operand = rng.getrandbits(32)
    return MachineFaultRecipe(
        kind="raw",
        trigger=trigger,
        category=rng.choice(("div", "mem", "mem", "any")),
        trigger_index=rng.randrange(4096),
        on_load=rng.random() < 0.8,
        on_store=rng.random() < 0.4,
        instret_permille=rng.randint(1, 999),
        target=target,
        register=rng.choice((3, 4, 5, 6, 7, 1, 31)),
        op=op,
        operand=operand & 0xFFFFFFFF if op != "add" else operand,
        mode=MODE_TRAP if trigger == "fetch" and rng.random() < 0.25 else MODE_BREAKPOINT,
        when=rng.choice(("every", "every", "once", "nth")),
        when_n=rng.randint(2, 5),
        seed=rng.randrange(1 << 30),
    )


def _sample_loop_step(rng: random.Random) -> MachineFaultRecipe:
    """A ``for`` step turned into a no-op: the loop sticks.

    A substitution on the fetch bus sticks the loop while the when-policy
    fires; the persistent code rewrite sticks it for good after the
    first injection.  A ``window`` policy therefore sticks the loop for
    a while and then lets it exit, or keeps injecting for a while into a
    loop that never ends: either way a hang detector that ignored the
    when-policy would change the record.
    """
    mode = MODE_TRAP if rng.random() < 0.25 else MODE_BREAKPOINT
    when = rng.choice(("every", "once", "nth", "window", "window"))
    if mode == MODE_TRAP:
        target = "fetched"  # a trap executes the saved word, not memory's
    elif when in ("once", "nth"):
        target = "code"
    else:
        target = rng.choice(("fetched", "code"))
    return MachineFaultRecipe(
        kind="raw",
        trigger="fetch",
        category="step",
        trigger_index=rng.randrange(4096),
        target=target,
        op="set",
        operand=NOP_WORD,
        mode=mode,
        when=when,
        when_n=rng.randint(2, 5),
        seed=rng.randrange(1 << 30),
    )
