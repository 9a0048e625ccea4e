"""The SWIFI fault model: What / Where / Which / When.

§3 of the paper: "in a typical SWIFI tool faults are defined according to
three main classes of parameters: what (what should be changed/corrupted),
where (where, in the code, should the change be applied), when (when,
during the program execution, should the change be inserted).  The
traditional When parameter should, in our opinion, be decomposed in which
(which instruction or event acts as fault trigger) and when (when, during
the various executions of the trigger instruction or trigger event is the
fault injected)."

This module encodes exactly that decomposition:

* :class:`Corruption` subclasses are the **What** — a bit mask or bit
  operation, an arithmetic perturbation, or a value substitution;
* :class:`Action` pairs a corruption with a **Where** — an instruction or
  data word in memory, a register, the word on the instruction-fetch data
  bus, or the operand of the triggering instruction's load/store;
* :class:`Trigger` subclasses are the **Which** — opcode fetch from an
  address, access to a data address, or an elapsed-instruction event;
* :class:`WhenPolicy` is the **When** — which activations of the trigger
  actually fire (first, every, the n-th, a window).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Union

from .spec import InjectionSpec, TIER_MACHINE

# ---------------------------------------------------------------------------
# What: corruptions
# ---------------------------------------------------------------------------


class Corruption:
    """A bit-level or arithmetic transformation of a 32-bit value."""

    def apply(self, value: int) -> int:  # pragma: no cover - interface
        raise NotImplementedError

    def describe(self) -> str:  # pragma: no cover - interface
        raise NotImplementedError


@dataclass(frozen=True)
class BitFlip(Corruption):
    """XOR with a mask (the classic SWIFI bit-flip / bit-mask error)."""

    mask: int

    def apply(self, value: int) -> int:
        return (value ^ self.mask) & 0xFFFFFFFF

    def describe(self) -> str:
        return f"xor {self.mask:#010x}"


@dataclass(frozen=True)
class BitAnd(Corruption):
    """Force bits to zero (stuck-at-0 style mask)."""

    mask: int

    def apply(self, value: int) -> int:
        return value & self.mask & 0xFFFFFFFF

    def describe(self) -> str:
        return f"and {self.mask:#010x}"


@dataclass(frozen=True)
class BitOr(Corruption):
    """Force bits to one (stuck-at-1 style mask)."""

    mask: int

    def apply(self, value: int) -> int:
        return (value | self.mask) & 0xFFFFFFFF

    def describe(self) -> str:
        return f"or {self.mask:#010x}"


@dataclass(frozen=True)
class Arithmetic(Corruption):
    """Add a signed delta — the paper's "arithmetic operation that changes
    the operand fetched" (Figure 4)."""

    delta: int

    def apply(self, value: int) -> int:
        return (value + self.delta) & 0xFFFFFFFF

    def describe(self) -> str:
        return f"add {self.delta:+d}"


@dataclass(frozen=True)
class SetValue(Corruption):
    """Replace the value outright."""

    value: int

    def apply(self, value: int) -> int:
        return self.value & 0xFFFFFFFF

    def describe(self) -> str:
        return f"set {self.value:#010x}"


@dataclass(frozen=True)
class PatchField(Corruption):
    """Replace a bit field ``value[shift : shift+width]`` with *content*.

    The machine-level image of operator swaps: changing the cond field of a
    conditional branch, or the displacement of a load, is a field patch of
    the instruction word.
    """

    shift: int
    width: int
    content: int

    def apply(self, value: int) -> int:
        mask = ((1 << self.width) - 1) << self.shift
        return (value & ~mask) | ((self.content << self.shift) & mask)

    def describe(self) -> str:
        return f"field[{self.shift}+{self.width}]={self.content:#x}"


def random_word(rng: random.Random) -> SetValue:
    """A seeded random 32-bit substitution (the 'random value' error type)."""
    return SetValue(rng.getrandbits(32))


# ---------------------------------------------------------------------------
# Where: locations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MemoryWord:
    """Corrupt the word stored at *address* (persistent until overwritten)."""

    address: int


@dataclass(frozen=True)
class CodeWord:
    """Corrupt an instruction word in the code segment (persistent)."""

    address: int


@dataclass(frozen=True)
class RegisterTarget:
    """Corrupt a general-purpose register of the triggering core."""

    index: int


@dataclass(frozen=True)
class FetchedWord:
    """Corrupt the instruction word on the fetch data bus (transient:
    memory is unchanged, only this execution sees the corrupted word)."""


@dataclass(frozen=True)
class LoadValue:
    """Corrupt the value read by the triggering instruction's load."""


@dataclass(frozen=True)
class StoreValue:
    """Corrupt the value written by the triggering instruction's store."""


Location = Union[MemoryWord, CodeWord, RegisterTarget, FetchedWord, LoadValue, StoreValue]


@dataclass(frozen=True)
class Action:
    """One (Where, What) pair applied when the trigger fires."""

    location: Location
    corruption: Corruption

    def describe(self) -> str:
        return f"{type(self.location).__name__}({self.location}) <- {self.corruption.describe()}"


# ---------------------------------------------------------------------------
# Which: triggers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OpcodeFetch:
    """Fire when the instruction at *address* is fetched (spatial trigger)."""

    address: int


@dataclass(frozen=True)
class DataAccess:
    """Fire when *address* is read and/or written (data trigger)."""

    address: int
    on_load: bool = True
    on_store: bool = False


@dataclass(frozen=True)
class Temporal:
    """Fire after *instructions* instructions have executed (temporal trigger)."""

    instructions: int


Trigger = Union[OpcodeFetch, DataAccess, Temporal]


# ---------------------------------------------------------------------------
# When: activation policy
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WhenPolicy:
    """Which activations of the trigger actually inject.

    Activations are counted from 1.  ``start=1, count=None`` is "every
    execution of the trigger instruction" (the §6 campaigns); ``start=1,
    count=1`` is "only the first"; ``start=n, count=1`` is "the n-th".
    """

    start: int = 1
    count: int | None = None

    def fires(self, activation: int) -> bool:
        if activation < self.start:
            return False
        if self.count is None:
            return True
        return activation < self.start + self.count

    def settled_from(self) -> int:
        """The first activation from which :meth:`fires` never changes."""
        if self.count is None:
            return self.start
        return self.start + self.count

    @staticmethod
    def every() -> "WhenPolicy":
        return WhenPolicy(1, None)

    @staticmethod
    def once() -> "WhenPolicy":
        return WhenPolicy(1, 1)

    @staticmethod
    def nth(n: int) -> "WhenPolicy":
        return WhenPolicy(n, 1)


# ---------------------------------------------------------------------------
# The complete fault specification
# ---------------------------------------------------------------------------

MODE_BREAKPOINT = "breakpoint"  # hardware breakpoint registers (≤ 2, non-intrusive)
MODE_TRAP = "trap"              # inserted trap instructions (unlimited, intrusive)


@dataclass(frozen=True)
class MachineFault(InjectionSpec):
    """Everything the injector needs for one machine-tier fault."""

    fault_id: str
    trigger: Trigger
    actions: tuple[Action, ...]
    when: WhenPolicy = field(default_factory=WhenPolicy.every)
    mode: str = MODE_BREAKPOINT
    metadata: tuple[tuple[str, object], ...] = ()

    tier = TIER_MACHINE

    def __post_init__(self) -> None:
        if self.mode not in (MODE_BREAKPOINT, MODE_TRAP):
            raise ValueError(f"unknown injection mode {self.mode!r}")
        if not self.actions:
            raise ValueError("a fault needs at least one action")

    @property
    def spec_id(self) -> str:
        return self.fault_id

    @property
    def meta(self) -> dict[str, object]:
        return dict(self.metadata)

    def with_metadata(self, **extra: object) -> "MachineFault":
        merged = dict(self.metadata)
        merged.update(extra)
        return replace(self, metadata=tuple(sorted(merged.items())))

    def describe(self) -> str:
        actions = "; ".join(action.describe() for action in self.actions)
        return (
            f"{self.fault_id}: which={self.trigger} when={self.when} "
            f"mode={self.mode} [{actions}]"
        )


def probe(probe_id: str, address: int, mode: str = MODE_BREAKPOINT) -> MachineFault:
    """An *observation probe*: a trigger that counts but corrupts nothing.

    The corruption is the identity (xor 0), so arming a probe measures how
    often an instruction executes without perturbing the run — the
    mechanism behind the Figure-2 exposure-chain experiment (estimating
    p1, the probability that the faulty code is executed at all).  Probes
    consume debug-unit resources exactly like real faults: at most two can
    ride the breakpoint registers.
    """
    spec = MachineFault(
        fault_id=probe_id,
        trigger=OpcodeFetch(address),
        actions=(Action(FetchedWord(), BitFlip(0)),),
        when=WhenPolicy.every(),
        mode=mode,
    )
    return spec.with_metadata(kind="probe")
