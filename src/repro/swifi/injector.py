"""The injection engine — the reproduction's Xception.

An :class:`InjectionSession` owns one booted machine, arms fault
specifications on its debug unit, counts trigger activations and actual
injections, and drives execution (including the pause/resume dance that
implements temporal triggers).

Faithfulness notes:

* In ``MODE_BREAKPOINT`` the session programs the machine's two
  instruction-address breakpoint registers.  A fault whose emulation needs
  more than two trigger addresses fails with
  :class:`repro.machine.DebugResourceError` — reproducing the paper's §5
  finding that the stack-shift assignment fault "could not entirely" be
  emulated because "the processor breakpoint registers ... are only two in
  the PowerPC".
* In ``MODE_TRAP`` the session rewrites target words with trap
  instructions (unlimited triggers, but the program image is modified —
  the "very intrusive" traditional approach).
* The target program is never recompiled or instrumented at source level;
  everything goes through the debug port, exactly as Xception works.

The paper ends a hung run when the experiment manager's timeout fires;
here that is the instruction budget.  A hang whose complete state
repeats at the trigger fetch is ended at its cycle instead, with the
record and final state the full run would produce (:class:`CycleProbe`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..isa.registers import SP
from ..machine.debug import DebugResourceError
from ..machine.machine import (
    DEFAULT_BUDGET,
    STACK_REGION,
    STACK_SIZE,
    Machine,
    RunResult,
)
from ..observability import trace as _trace
from .faults import (
    MODE_BREAKPOINT,
    MODE_TRAP,
    Action,
    CodeWord,
    DataAccess,
    MachineFault,
    FetchedWord,
    LoadValue,
    MemoryWord,
    OpcodeFetch,
    RegisterTarget,
    StoreValue,
    Temporal,
)

if TYPE_CHECKING:  # pragma: no cover
    from ..machine.cpu import Core


class InjectionError(RuntimeError):
    """A fault spec that cannot be armed on this machine."""


class _ProbeStop(Exception):
    """Raised by a fetch handler so the session sees the exact state.

    Raised before the activation counts, and deliberately not a
    :class:`repro.machine.traps.Trap`: it leaves ``Machine.run``
    unclassified.  Every engine flushes its retired instructions on any
    exception and leaves ``core.pc`` at the trigger, so the session can
    inspect the machine and resume it where it stopped; the trigger is
    then fetched again, and counts, as if nothing had happened.
    """


class CycleProbe:
    """Finds a hang's period at the fetches of one fault's trigger.

    Each trigger fetch is sampled before its activation counts, once the
    when-policy is settled (``fires`` is constant from there on).  Brent's
    cycle detection runs on a cheap key: registers, lr, cr and the live
    stack bytes (pc is the trigger).  A repeated key only nominates a
    period of A activations; the probe then stops the machine twice, A
    activations apart, and compares the complete architectural state.
    If it is equal the run is periodic from there: the machine is
    deterministic, the state covers everything its future depends on,
    and only the budget reads the retired count.  :meth:`stopped` then
    returns the period: (instructions, activations, injections).

    A key that repeats while the full state does not (a global counts)
    costs at most one failed comparison per Brent window.
    """

    __slots__ = (
        "machine", "core", "activations", "injections", "fault_id", "start",
        "saved", "saved_at", "power", "window_failed", "target",
        "stopped_at", "pending",
    )

    def __init__(self, session: "InjectionSession", spec: MachineFault) -> None:
        self.machine = session.machine
        self.core = self.machine.cores[0]
        self.activations = session.activations
        self.injections = session.injections
        self.fault_id = spec.fault_id
        # Activations counted before the first one the policy settled on.
        self.start = spec.when.settled_from() - 1
        self.saved: tuple | None = None  # Brent's tortoise: the cheap key
        self.saved_at = 0
        self.power = 1
        self.window_failed = False
        self.target: int | None = None  # activation count of the confirming stop
        self.stopped_at = -1
        self.pending: tuple | None = None  # (state, instret, injections, seen)

    def sample(self) -> None:
        """Called at a trigger fetch; raises :class:`_ProbeStop` to stop."""
        seen = self.activations.get(self.fault_id, 0)
        if seen == self.stopped_at or seen < self.start:
            return  # a re-fetch after a stop, or the policy has not settled
        if self.target is not None:
            if seen == self.target:
                self.stopped_at = seen
                raise _ProbeStop()
            return
        # The key: registers, lr, cr and the live stack (pc is the trigger).
        core = self.core
        regs = core.regs
        saved = self.saved
        if (saved is not None and regs == saved[0] and core.lr == saved[1]
                and core.cr == saved[2] and not self.window_failed
                and core._load_transform is None and core._store_transform is None
                and self._live_stack(regs) == saved[3]):
            self.target = 2 * seen - self.saved_at
            self.stopped_at = seen
            raise _ProbeStop()
        if saved is None or seen - self.saved_at >= self.power:
            if saved is not None:
                self.power *= 2
            self.saved = (list(regs), core.lr, core.cr, self._live_stack(regs))
            self.saved_at = seen
            self.window_failed = False

    def _live_stack(self, regs: list[int]) -> bytes:
        sp = regs[SP]
        top = STACK_REGION + STACK_SIZE
        return self.machine.memory.data[sp:top] if STACK_REGION <= sp < top else b""

    def stopped(self) -> tuple[int, int, int] | None:
        """At a stop: the confirmed period, or ``None`` to resume."""
        machine = self.machine
        taken = (self._state(), machine.instret,
                 self.injections.get(self.fault_id, 0), self.stopped_at)
        if self.pending is None:
            self.pending = taken
            return None
        before, self.pending, self.target = self.pending, None, None
        if taken[0] != before[0]:
            self.window_failed = True
            return None
        return (taken[1] - before[1], taken[3] - before[3], taken[2] - before[2])

    def _state(self) -> tuple:
        """Everything the run's future depends on, bar the counters.

        Memory enters as its non-zero pages among those that can hold
        one: the pages the debug port or a restore wrote and the pages
        of the writable segments (22 of 80 for a §6 program on one
        core), since a program store anywhere else traps.  The run has
        retired instructions by now, so the writable segments count
        whether or not the loader wrote them.
        """
        machine = self.machine
        core = self.core
        memory = machine.memory
        return (
            tuple(core.regs), core.pc, core.lr, core.cr, core.halted,
            core.blocked, core.exit_code, core._load_transform,
            core._store_transform, tuple(memory.nonzero_pages()),
            machine.heap.capture(), bytes(machine.console),
            memory._ranges_gen, machine.debug.generation,
        )


class InjectionSession:
    """Arms faults on one machine and runs it to an outcome."""

    def __init__(self, machine: Machine) -> None:
        self.machine = machine
        self.activations: dict[str, int] = {}
        self.injections: dict[str, int] = {}
        self._temporal: list[MachineFault] = []
        self._armed: list[MachineFault] = []
        self._probe: CycleProbe | None = None
        #: Set when run() ended a hang at its cycle: the trigger ``pc``,
        #: the ``period`` in instructions, its ``activations`` and the
        #: instructions ``skipped``.
        self.cycle: dict | None = None

    # ------------------------------------------------------------------

    def arm(self, spec: MachineFault) -> None:
        """Program the debug unit (or the temporal queue) for *spec*.

        Raises :class:`DebugResourceError` when breakpoint-register mode
        runs out of hardware breakpoints, and :class:`InjectionError` for
        specs that are structurally impossible (e.g. a fetch-bus corruption
        on a temporal trigger).
        """
        trigger = spec.trigger
        if isinstance(trigger, OpcodeFetch):
            handler = self._make_fetch_handler(spec)
            if spec.mode == MODE_BREAKPOINT:
                self.machine.debug.set_iabr(trigger.address, handler)
            else:
                assert spec.mode == MODE_TRAP
                self.machine.debug.insert_trap(trigger.address, handler)
        elif isinstance(trigger, DataAccess):
            for action in spec.actions:
                if isinstance(action.location, (FetchedWord,)):
                    raise InjectionError(
                        "a data-access trigger cannot corrupt the fetched opcode"
                    )
            handler = self._make_data_handler(spec)
            self.machine.debug.set_dabr(
                trigger.address, handler, on_load=trigger.on_load, on_store=trigger.on_store
            )
        elif isinstance(trigger, Temporal):
            for action in spec.actions:
                if isinstance(action.location, FetchedWord):
                    raise InjectionError(
                        "a temporal trigger cannot corrupt the fetched opcode"
                    )
            self._temporal.append(spec)
        else:  # pragma: no cover - exhaustive over trigger types
            raise InjectionError(f"unknown trigger {trigger!r}")
        self._armed.append(spec)

    def arm_all(self, specs: list[MachineFault]) -> None:
        for spec in specs:
            self.arm(spec)

    # ------------------------------------------------------------------

    def run(self, max_instructions: int = DEFAULT_BUDGET, quantum: int = 64) -> RunResult:
        """Run the machine to completion, applying temporal faults on time.

        A hang whose complete state repeats at the trigger fetch ends at
        its cycle: whole periods that fit in the budget are skipped
        arithmetically and the remainder, shorter than one period, really
        executes.  :attr:`cycle` then names the loop.
        """
        declined = self._probe_declined()
        if declined is None:
            self._probe = CycleProbe(self, self._armed[0])
        try:
            result = self._execute(max_instructions, quantum)
        finally:
            self._probe = None
        if result.status == "hung":
            if self.cycle is not None:
                _trace.note_hang(_trace.HANG_CYCLE, self.cycle)
            else:
                _trace.note_hang(declined or _trace.REASON_NO_REPEAT)
        return result

    def _probe_declined(self) -> str | None:
        """Why a hang of this run must run to its budget, or ``None``.

        The ``simple`` engine stays the literal reference that executes
        every instruction.  On a multi-core machine the scheduler's phase
        would be state too, and data and temporal triggers do not fetch
        at one address.
        """
        machine = self.machine
        if len(machine.cores) != 1:
            return _trace.REASON_MULTI_CORE
        if machine.block_engine is None:
            return _trace.REASON_SIMPLE_ENGINE
        if self._temporal:
            return _trace.REASON_TEMPORAL
        if any(isinstance(spec.trigger, DataAccess) for spec in self._armed):
            return _trace.REASON_DATA_TRIGGER
        if len(self._armed) != 1:
            return _trace.REASON_MULTI_FAULT
        return None

    def _execute(self, max_instructions: int, quantum: int) -> RunResult:
        pending = sorted(self._temporal, key=lambda s: s.trigger.instructions)
        budget_end = self.machine.instret + max_instructions
        for spec in pending:
            target = spec.trigger.instructions
            if target > self.machine.instret:
                result = self.machine.run(
                    max_instructions=budget_end - self.machine.instret,
                    quantum=quantum,
                    pause_at_instret=min(target, budget_end),
                )
                if result.status != "paused":
                    return result
            self._note_activation(spec.fault_id)
            if spec.when.fires(self.activations[spec.fault_id]):
                self._apply_actions(spec, self._pick_core(), None)
        while True:
            try:
                return self.machine.run(
                    max_instructions=budget_end - self.machine.instret, quantum=quantum
                )
            except _ProbeStop:
                period = self._probe.stopped()
                if period is not None:
                    self._fast_forward(period, budget_end)

    def _fast_forward(self, period: tuple[int, int, int], budget_end: int) -> None:
        """Skip every whole *period* that fits before *budget_end*."""
        probe = self._probe
        self._probe = None
        instructions, activations, injections = period
        periods = (budget_end - self.machine.instret) // instructions
        if periods == 0:
            return
        skipped = periods * instructions
        self.machine.instret += skipped
        probe.core.instret += skipped
        self.activations[probe.fault_id] += periods * activations
        if injections:
            self.injections[probe.fault_id] += periods * injections
        self.cycle = {"pc": probe.core.pc, "period": instructions,
                      "activations": activations, "skipped": skipped}

    def _pick_core(self) -> "Core":
        for core in self.machine.cores:
            if not core.halted:
                return core
        return self.machine.cores[0]

    # ------------------------------------------------------------------

    def _note_activation(self, fault_id: str) -> int:
        count = self.activations.get(fault_id, 0) + 1
        self.activations[fault_id] = count
        return count

    def _note_injection(self, fault_id: str) -> None:
        self.injections[fault_id] = self.injections.get(fault_id, 0) + 1

    def _apply_actions(self, spec: MachineFault, core: "Core", word: int | None) -> int | None:
        """Apply every action; return the substitute fetched word, if any."""
        self._note_injection(spec.fault_id)
        machine = self.machine
        substitute: int | None = None
        for action in spec.actions:
            location = action.location
            corruption = action.corruption
            if isinstance(location, FetchedWord):
                base = word if substitute is None else substitute
                assert base is not None
                substitute = corruption.apply(base)
            elif isinstance(location, (CodeWord, MemoryWord)):
                current = machine.memory.debug_read_word(location.address)
                machine.debug_write_code(location.address, corruption.apply(current))
            elif isinstance(location, RegisterTarget):
                core.regs[location.index] = corruption.apply(core.regs[location.index])
                core.regs[0] = 0
            elif isinstance(location, StoreValue):
                core._store_transform = corruption.apply
            elif isinstance(location, LoadValue):
                core._load_transform = corruption.apply
            else:  # pragma: no cover
                raise InjectionError(f"unknown location {location!r}")
        return substitute

    def _make_fetch_handler(self, spec: MachineFault):
        fault_id = spec.fault_id
        when = spec.when

        def on_fetch(core: "Core", pc: int, word: int) -> int | None:
            if self._probe is not None:
                self._probe.sample()
            activation = self._note_activation(fault_id)
            if not when.fires(activation):
                return None
            return self._apply_actions(spec, core, word)

        return on_fetch

    def _make_data_handler(self, spec: MachineFault):
        fault_id = spec.fault_id
        when = spec.when

        def on_access(core: "Core", address: int, value: int) -> int:
            activation = self._note_activation(fault_id)
            if not when.fires(activation):
                return value
            self._note_injection(fault_id)
            for action in spec.actions:
                location = action.location
                if isinstance(location, (LoadValue, StoreValue)):
                    value = action.corruption.apply(value)
                elif isinstance(location, RegisterTarget):
                    core.regs[location.index] = action.corruption.apply(
                        core.regs[location.index]
                    )
                    core.regs[0] = 0
                elif isinstance(location, (CodeWord, MemoryWord)):
                    current = self.machine.memory.debug_read_word(location.address)
                    self.machine.debug_write_code(
                        location.address, action.corruption.apply(current)
                    )
            return value

        return on_access

    # ------------------------------------------------------------------

    def activation_count(self, fault_id: str) -> int:
        return self.activations.get(fault_id, 0)

    def injection_count(self, fault_id: str) -> int:
        return self.injections.get(fault_id, 0)

    @property
    def any_injected(self) -> bool:
        return bool(self.injections)


__all__ = ["CycleProbe", "DebugResourceError", "InjectionError", "InjectionSession"]
