"""The golden-run snapshot fast path for injection campaigns.

The paper reboots the target between all injections; our fresh-boot run
(:func:`repro.swifi.campaign.execute_injection_run`) reproduces that.
But before a fault's trigger fires for the first time, an injection run
*is* the fault-free golden run — so QEMU/GDB-based campaign tools
checkpoint the golden run at the injection point and restore instead of
rebooting.  This module does the same for the RX32 machine while keeping
per-run outcomes bit-identical to fresh boot:

* :class:`CaseTrace` executes **one** golden (fault-free) run per input
  case, pausing at the first activation of every trigger event the
  campaign's fault set uses and checkpointing the machine there
  (:meth:`Machine.snapshot`, a sparse page delta over the post-boot
  baseline);
* an eligible injection run then restores the checkpoint of its fault's
  trigger, arms the fault on a fresh debug unit, and executes only the
  post-trigger suffix of the run;
* a fault whose trigger **never** activates would replay the golden run
  unchanged, so — when the golden run exited within budget — its record
  is synthesised from the golden outcome without executing anything;
* everything else falls back to a fresh boot: temporal triggers (they
  fire by elapsed count, not at an address), trap-insertion mode (the
  program image is patched *before* the run starts, so the prefix is not
  fault-free), multi-core machines (restoring mid-run would realign the
  round-robin quanta), and cache misses.

Why the restored outcome is bit-identical to fresh boot (single core):

1. arming a breakpoint-mode fault mutates no machine state — it only
   fills watch dictionaries consulted by the interpreter;
2. the machine is deterministic (no RNG, no wall clock), so the armed
   run and the golden run are byte-for-byte identical up to the first
   trigger activation;
3. the checkpoint is taken exactly at that boundary — *before* the
   triggering instruction executes (fetch watches fire before the
   instruction is counted; for data watches the in-flight instruction's
   retired-count is rolled back before capturing);
4. the restored run resumes with the same program counter, registers,
   memory, console, heap-allocator state and retired-instruction count,
   and the remaining budget is ``budget - instret`` so the hang horizon
   lands on the same instruction as a fresh-boot run.

``policy="verify"`` turns the argument into a runtime check: every fast
run is replayed fresh-boot and any field-level divergence raises
:class:`SnapshotDivergence`.
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING

from ..machine.loader import Executable, boot
from ..machine.machine import ENGINE_SIMPLE
from ..observability import trace as _trace
from .campaign import (
    SNAPSHOT_AUTO,
    SNAPSHOT_OFF,
    SNAPSHOT_POLICIES,
    SNAPSHOT_VERIFY,
    InputCase,
    RunRecord,
    execute_injection_run,
    session_provenance,
)
from .faults import MODE_BREAKPOINT, DataAccess, MachineFault, OpcodeFetch, Temporal
from .injector import InjectionSession
from .outcomes import classify

if TYPE_CHECKING:  # pragma: no cover
    from ..machine.machine import Machine, RunResult

#: A trigger event: ("fetch" | "load" | "store", address).
Event = tuple[str, int]
#: A fault's trigger key: the events whose earliest firing activates it.
TriggerKey = tuple[Event, ...]


class SnapshotDivergence(AssertionError):
    """A ``verify``-policy run differed between snapshot and fresh boot."""


class SnapshotPoint(Exception):
    """Internal control-flow: raised by a trace watch to pause the golden run.

    Deliberately *not* a :class:`repro.machine.traps.Trap` subclass — the
    machine's run loop must not classify it as a program crash; it has to
    propagate out to the :class:`CaseTrace` capture loop.
    """

    def __init__(self, event: Event, core) -> None:
        super().__init__(f"snapshot point {event!r}")
        self.event = event
        self.core = core


def trigger_events(spec: MachineFault) -> TriggerKey | None:
    """The trigger's watch events, or ``None`` when ineligible.

    Eligible are spatial triggers armed without touching machine state:
    opcode-fetch in breakpoint mode, and data-access triggers.  Temporal
    triggers and trap-insertion mode return ``None`` (fresh-boot only).
    """
    trigger = spec.trigger
    if isinstance(trigger, OpcodeFetch):
        if spec.mode != MODE_BREAKPOINT:
            return None
        return (("fetch", trigger.address),)
    if isinstance(trigger, DataAccess):
        events: list[Event] = []
        if trigger.on_load:
            events.append(("load", trigger.address))
        if trigger.on_store:
            events.append(("store", trigger.address))
        return tuple(events) or None
    return None


def ineligible_reason(spec: MachineFault, num_cores: int) -> str | None:
    """Why the fast path must decline *spec* up front, or ``None``.

    One of the :data:`repro.observability.trace.FALLBACK_REASONS`:
    ``multi-core`` (restoring mid-run would realign the round-robin
    quanta), ``temporal-trigger`` (fires by elapsed count, not at an
    address), ``trap-mode`` (the program image is patched before the run
    starts, so the prefix is not fault-free).  Anything else without
    watchable trigger events counts as a ``cache-miss``.
    """
    if num_cores != 1:
        return _trace.REASON_MULTI_CORE
    trigger = spec.trigger
    if isinstance(trigger, Temporal):
        return _trace.REASON_TEMPORAL
    if isinstance(trigger, OpcodeFetch) and spec.mode != MODE_BREAKPOINT:
        return _trace.REASON_TRAP_MODE
    if trigger_events(spec) is None:
        return _trace.REASON_CACHE_MISS
    return None


class CaseTrace:
    """Golden-run checkpoints of one (program, input case) pair.

    Boots once, then runs the fault-free program with raising watches on
    every requested trigger event; each first firing checkpoints the
    machine.  The same machine instance is afterwards rewound over and
    over for the case's fast-path injection runs.
    """

    def __init__(
        self,
        executable: Executable,
        case: InputCase,
        keys: set[TriggerKey],
        *,
        budget: int,
        quantum: int,
        engine: str = ENGINE_SIMPLE,
    ) -> None:
        self.case = case
        with _trace.phase(_trace.PHASE_BOOT):
            self.machine: "Machine" = boot(
                executable, num_cores=1, inputs=dict(case.pokes), engine=engine
            )
        self.baseline = self.machine.baseline()
        self.snapshots: dict[TriggerKey, object] = {}
        self.dormant: set[TriggerKey] = set()
        self.golden: "RunResult | None" = None
        with _trace.phase(_trace.PHASE_GOLDEN_RUN):
            self._capture(keys, budget, quantum)

    # -- golden run ----------------------------------------------------

    def _capture(self, keys: set[TriggerKey], budget: int, quantum: int) -> None:
        machine = self.machine
        listeners: dict[Event, list[TriggerKey]] = {}
        for key in keys:
            for event in key:
                listeners.setdefault(event, []).append(key)
        watch_for = {
            "fetch": machine._fetch_watch,
            "load": machine._load_watch,
            "store": machine._store_watch,
        }

        def install(event: Event) -> None:
            kind, address = event
            def raise_point(core, _address, _value, _event=event):
                raise SnapshotPoint(_event, core)
            watch_for[kind][address] = raise_point

        for event in listeners:
            install(event)

        pending = set(keys)
        result: "RunResult | None" = None
        while pending:
            remaining = budget - machine.instret
            if remaining <= 0:
                break
            try:
                result = machine.run(max_instructions=remaining, quantum=quantum)
            except SnapshotPoint as point:
                kind, address = point.event
                if kind != "fetch":
                    # Data watches fire mid-instruction, after the retired
                    # count already includes the in-flight instruction.  It
                    # re-executes in full both on resume here and after a
                    # restore, so roll the count back permanently — the
                    # checkpoint and the resumed golden run then both count
                    # it exactly once.
                    point.core.instret -= 1
                    machine.instret -= 1
                watch_for[kind].pop(address, None)
                snapshot = machine.snapshot(self.baseline)
                for key in listeners[point.event]:
                    if key in pending:
                        self.snapshots[key] = snapshot
                        pending.discard(key)
                # Drop watches nobody is waiting for anymore (a two-event
                # key satisfied by its first event leaves the second armed).
                for event, event_keys in listeners.items():
                    if pending.isdisjoint(event_keys):
                        watch_for[event[0]].pop(event[1], None)
                continue
            break

        for watch in watch_for.values():
            watch.clear()
        if pending and result is not None and result.status == "exited":
            # These triggers never fire: a fresh-boot run would replay the
            # golden run unchanged, so their records can be synthesised.
            self.golden = result
            self.dormant = pending

    # -- fast-path runs ------------------------------------------------

    def _dormant_record(self, spec: MachineFault) -> RunRecord:
        golden = self.golden
        assert golden is not None
        return RunRecord(
            fault_id=spec.fault_id,
            case_id=self.case.case_id,
            mode=classify(golden, self.case.expected),
            status=golden.status,
            exit_code=golden.exit_code,
            trap_kind=None,
            activations=0,
            injections=0,
            instructions=golden.instructions,
            metadata=spec.metadata,
        )

    def run_fast(
        self, spec: MachineFault, key: TriggerKey, budget: int, quantum: int
    ) -> RunRecord | None:
        """One injection run from the trigger's checkpoint; None on miss."""
        snapshot = self.snapshots.get(key)
        if snapshot is None:
            if key in self.dormant:
                return self._dormant_record(spec)
            return None
        machine = self.machine
        machine.restore(snapshot)
        if budget <= machine.instret:  # pragma: no cover - degenerate budgets
            return None
        session = InjectionSession(machine)
        session.arm(spec)
        with _trace.phase(_trace.PHASE_POST_TRIGGER):
            result = session.run(budget - machine.instret, quantum=quantum)
        with _trace.phase(_trace.PHASE_CLASSIFY):
            mode = classify(result, self.case.expected)
        return RunRecord(
            fault_id=spec.fault_id,
            case_id=self.case.case_id,
            mode=mode,
            status=result.status,
            exit_code=result.exit_code,
            trap_kind=result.trap.kind if result.trap is not None else None,
            activations=session.activation_count(spec.fault_id),
            injections=session.injection_count(spec.fault_id),
            instructions=result.instructions,
            metadata=spec.metadata,
            provenance=session_provenance(session),
        )


class SnapshotCache:
    """Per-process trace cache shared by every run of one campaign shard.

    Holds one :class:`CaseTrace` (a live machine plus its checkpoints)
    per input case, built lazily on the first eligible run.  The cache is
    intentionally not picklable — the orchestrator rebuilds one inside
    each worker process, so snapshots are shared within a shard but never
    shipped across process boundaries.
    """

    def __init__(
        self,
        executable: Executable,
        faults,
        *,
        num_cores: int = 1,
        quantum: int = 64,
        policy: str = SNAPSHOT_AUTO,
        engine: str = ENGINE_SIMPLE,
    ) -> None:
        if policy not in SNAPSHOT_POLICIES or policy == SNAPSHOT_OFF:
            raise ValueError(
                f"snapshot cache policy must be one of "
                f"{(SNAPSHOT_AUTO, SNAPSHOT_VERIFY)}, got {policy!r}"
            )
        self.executable = executable
        self.num_cores = num_cores
        self.quantum = quantum
        self.policy = policy
        self.engine = engine
        # Every eligible trigger key in the campaign, so one golden run
        # per case captures the checkpoints for all of its faults.
        self._keys: set[TriggerKey] = set()
        for spec in faults:
            if spec is None:
                continue
            key = trigger_events(spec)
            if key is not None:
                self._keys.add(key)
        self._traces: dict[str, CaseTrace] = {}
        self.stats = {"fast": 0, "dormant": 0, "fallback": 0, "verified": 0}
        # Per-reason accounting beside the legacy stats dict: the legacy
        # "fallback" key only counts runs the cache *accepted* and then
        # missed on (see execute()); fallback_reasons additionally labels
        # runs declined up front (temporal / trap-mode / multi-core) and
        # dormant synthesis (golden-run-exit).
        self.fallback_reasons: Counter = Counter()
        #: (path, reason) of the most recent execute() call; read by the
        #: trace layer in execute_injection_run (single-threaded per
        #: process, so a plain attribute is race-free).
        self.last_path: tuple[str, str | None] = (_trace.PATH_FRESH, None)

    def wants(self, spec: MachineFault) -> bool:
        """Whether the fast path may handle *spec* (it can still miss)."""
        return self.num_cores == 1 and trigger_events(spec) is not None

    def trace_for(self, case: InputCase, budget: int) -> CaseTrace:
        trace = self._traces.get(case.case_id)
        if trace is None:
            trace = CaseTrace(
                self.executable, case, self._keys, budget=budget,
                quantum=self.quantum, engine=self.engine,
            )
            self._traces[case.case_id] = trace
        return trace

    def execute(self, spec: MachineFault, case: InputCase, budget: int) -> RunRecord | None:
        """Fast-path record for one run, or ``None`` to fall back."""
        reason = ineligible_reason(spec, self.num_cores)
        if reason is not None:
            # Declined up front: not a legacy stats["fallback"] (those
            # count accepted-then-missed runs only), but labelled for the
            # per-reason trace accounting.
            self.fallback_reasons[reason] += 1
            self.last_path = (_trace.PATH_FRESH, reason)
            return None
        key = trigger_events(spec)
        assert key is not None  # ineligible_reason covers every None case
        trace = self.trace_for(case, budget)
        record = trace.run_fast(spec, key, budget, self.quantum)
        if record is None:
            self.stats["fallback"] += 1
            self.fallback_reasons[_trace.REASON_CACHE_MISS] += 1
            self.last_path = (_trace.PATH_FRESH, _trace.REASON_CACHE_MISS)
            return None
        if record.activations == 0:
            self.stats["dormant"] += 1
            self.fallback_reasons[_trace.REASON_GOLDEN_EXIT] += 1
            self.last_path = (_trace.PATH_DORMANT, _trace.REASON_GOLDEN_EXIT)
        else:
            self.stats["fast"] += 1
            self.last_path = (_trace.PATH_SNAPSHOT, None)
        if self.policy == SNAPSHOT_VERIFY:
            fresh = execute_injection_run(
                self.executable,
                spec,
                case,
                budget=budget,
                num_cores=self.num_cores,
                quantum=self.quantum,
                engine=self.engine,
            )
            if fresh != record:
                raise SnapshotDivergence(
                    f"snapshot path diverged from fresh boot for "
                    f"{spec.fault_id}/{case.case_id}:\n"
                    f"  snapshot: {record}\n  fresh:    {fresh}"
                )
            self.stats["verified"] += 1
        return record


__all__ = [
    "CaseTrace",
    "SnapshotCache",
    "SnapshotDivergence",
    "SnapshotPoint",
    "ineligible_reason",
    "trigger_events",
]
