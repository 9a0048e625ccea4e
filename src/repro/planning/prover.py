"""The dormancy prover: static fault classification against a golden trace.

Given one fault spec and one :class:`~repro.planning.replay.GoldenAccessTrace`
— the case's fault-free run as the reference interpreter executed it —
the prover answers a single question: *can this injection run's record
be synthesized without booting a machine for it?*  Two families of proof:

* **dormant trigger** — the trigger event never activates in the golden
  run (the pc is never fetched, the data address never accessed, the
  instruction count never reached), or it activates but the when-policy
  never fires.  The run is the golden run; only the activation counter
  differs.

* **invisible corruption** — the trigger fires, but every action's
  effect lands in a provably dead location: a stored value never read
  again, a branch whose decision is unchanged under the observed
  condition register, a register whose next access is a write, a code or
  memory word that is never fetched or read after the first injection,
  or a corruption that is the identity function.  The run is observably
  the golden run with the activation/injection counters of a real run.

Every rule only ever *removes* observations relative to the golden run
(a skipped store, an unread register), never adds one, so proving each
action invisible independently composes: the corrupted run stays
bit-identical to the golden run in every field a :class:`RunRecord`
carries.  Anything the rules cannot prove is *declined* — the planner
falls back to real execution, and the ``plan_verify`` policy re-executes
a sample of pruned records to keep the prover honest.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..isa.encoding import NOP_WORD, OP_BC, OP_STB, OP_STW
from ..machine.cpu import decode_fields
from ..swifi.campaign import InputCase, RunRecord
from ..swifi.faults import (
    Arithmetic,
    BitAnd,
    BitFlip,
    BitOr,
    CodeWord,
    DataAccess,
    MachineFault,
    FetchedWord,
    LoadValue,
    MODE_BREAKPOINT,
    MemoryWord,
    OpcodeFetch,
    PatchField,
    RegisterTarget,
    StoreValue,
    Temporal,
)
from ..swifi.outcomes import classify
from .replay import GoldenAccessTrace, cond_taken

# Rule labels recorded on every prune decision (and surfaced by
# ``repro plan report`` / planner statistics).
RULE_DORMANT = "dormant-trigger"
RULE_DEAD_STORE = "dead-store"
RULE_BRANCH_EQUIV = "branch-equivalent"
RULE_DEAD_REGISTER = "dead-register"
RULE_DEAD_WORD = "dead-word"
RULE_IDENTITY = "identity-corruption"

PRUNE_RULES = (
    RULE_DORMANT,
    RULE_DEAD_STORE,
    RULE_BRANCH_EQUIV,
    RULE_DEAD_REGISTER,
    RULE_DEAD_WORD,
    RULE_IDENTITY,
)


@dataclass(frozen=True)
class PruneDecision:
    """The prover's verdict on one (fault, case) pair."""

    prune: bool
    #: rule label when pruned; decline reason when not
    rule: str | None = None
    reason: str | None = None
    activations: int = 0
    injections: int = 0

    @staticmethod
    def pruned(rule: str, activations: int, injections: int) -> "PruneDecision":
        return PruneDecision(True, rule=rule, activations=activations,
                             injections=injections)

    @staticmethod
    def declined(reason: str) -> "PruneDecision":
        return PruneDecision(False, reason=reason)


def trace_requirements(
    faults: list[MachineFault],
) -> tuple[frozenset[int], frozenset[int], frozenset[int]]:
    """(watch pcs, data addresses, register ordinals) a trace must record
    to classify every fault in the set.

    The watch pcs are the trigger pcs plus every word a ``CodeWord`` or
    ``MemoryWord`` action corrupts (the trace keeps those inside the code
    segment: their last fetch decides ``dead-word``).
    """
    watch_pcs: set[int] = set()
    data_addrs: set[int] = set()
    tracked_regs: set[int] = set()
    for spec in faults:
        trigger = spec.trigger
        if isinstance(trigger, OpcodeFetch):
            watch_pcs.add(trigger.address)
        elif isinstance(trigger, DataAccess):
            data_addrs.add(trigger.address)
        for action in spec.actions:
            location = action.location
            if isinstance(location, RegisterTarget):
                tracked_regs.add(location.index)
            elif isinstance(location, (CodeWord, MemoryWord)):
                watch_pcs.add(location.address)
    return frozenset(watch_pcs), frozenset(data_addrs), frozenset(tracked_regs)


def _is_identity(corruption) -> bool:
    """True when apply(v) == v for every 32-bit v — provable statically."""
    if isinstance(corruption, BitFlip):
        return corruption.mask & 0xFFFFFFFF == 0
    if isinstance(corruption, BitAnd):
        return corruption.mask & 0xFFFFFFFF == 0xFFFFFFFF
    if isinstance(corruption, BitOr):
        return corruption.mask & 0xFFFFFFFF == 0
    if isinstance(corruption, Arithmetic):
        return corruption.delta % 0x100000000 == 0
    if isinstance(corruption, PatchField):
        return corruption.width == 0
    return False


def classify_fault(
    spec: MachineFault, trace: GoldenAccessTrace
) -> PruneDecision:
    """Decide whether the (spec, trace.case) run can be synthesized."""
    if not trace.ok:
        return PruneDecision.declined(trace.failure or "trace-unusable")

    trigger = spec.trigger
    has_fetched_word = any(
        isinstance(action.location, FetchedWord) for action in spec.actions
    )

    if isinstance(trigger, Temporal):
        if has_fetched_word:
            # the injector rejects this combination at arm time; a real
            # run errors out, so synthesizing a record would be wrong
            return PruneDecision.declined("arm-error")
        # pause_at_instret fires *at* the boundary: a golden run that
        # retires exactly trigger.instructions still activates, so only
        # a strictly shorter run is dormant.
        if trace.instructions < trigger.instructions:
            return PruneDecision.pruned(RULE_DORMANT, 0, 0)
        return PruneDecision.declined("temporal-live")

    if isinstance(trigger, DataAccess):
        if has_fetched_word:
            return PruneDecision.declined("arm-error")
        count = trace.data_access_count(
            trigger.address, on_load=trigger.on_load, on_store=trigger.on_store
        )
        if count == 0:
            return PruneDecision.pruned(RULE_DORMANT, 0, 0)
        return PruneDecision.declined("data-live")

    if not isinstance(trigger, OpcodeFetch):
        return PruneDecision.declined("unknown-trigger")
    if spec.mode != MODE_BREAKPOINT:
        # trap-mode faults re-vector through the trap handler; the golden
        # trace says nothing about that path
        return PruneDecision.declined("trap-mode")

    pc = trigger.address
    activations = trace.exec_count_at(pc)
    if activations == 0:
        return PruneDecision.pruned(RULE_DORMANT, 0, 0)

    events = trace.events_at(pc)
    if len(events) != activations:
        return PruneDecision.declined("no-events")
    fired = [event for k, event in enumerate(events, start=1)
             if spec.when.fires(k)]
    if not fired:
        # the trigger activates but the when-policy never injects
        return PruneDecision.pruned(RULE_DORMANT, activations, 0)

    rules = _actions_invisible(spec, trace, pc, fired)
    if isinstance(rules, str):
        return PruneDecision.declined(rules)
    rule = rules[0] if len(set(rules)) == 1 else "+".join(sorted(set(rules)))
    return PruneDecision.pruned(rule, activations, len(fired))


def _actions_invisible(
    spec: MachineFault,
    trace: GoldenAccessTrace,
    pc: int,
    fired: list[tuple[int, int | None, int]],
) -> list[str] | str:
    """Rule labels when every action is invisible; a decline reason string
    otherwise."""
    rules: list[str] = []
    fetch_actions = []
    store_actions = []
    other_actions = []
    for action in spec.actions:
        target = action.location
        if isinstance(target, LoadValue):
            # a one-shot load transform hits whichever load executes next
            # — possibly far from the trigger; we don't model that
            return "load-value"
        if isinstance(target, FetchedWord):
            fetch_actions.append(action)
        elif isinstance(target, StoreValue):
            store_actions.append(action)
        else:
            other_actions.append(action)

    orig_word = trace.golden_word(pc)
    if orig_word is None:
        return "no-golden-word"

    # Fetched-word substitutions compose left to right within one
    # activation; analyze the final substituted word once.
    final_word = orig_word
    for action in fetch_actions:
        final_word = action.corruption.apply(final_word)
    if fetch_actions:
        rule = _fetched_word_invisible(orig_word, final_word, trace, fired)
        if rule is None:
            return "opaque-word"
        rules.append(rule)

    if store_actions:
        if len(store_actions) > 1:
            return "multi-transform"
        if final_word != orig_word:
            # a rewritten trigger instruction may no longer be the store
            # that consumes the one-shot transform
            return "transform-combo"
        rule = _store_value_invisible(store_actions[0], orig_word, trace, fired)
        if rule is None:
            return "live-store"
        rules.append(rule)

    for action in other_actions:
        target = action.location
        if isinstance(target, RegisterTarget):
            rule = _register_invisible(action, trace, fired)
            if rule is None:
                return "live-register"
        elif isinstance(target, (CodeWord, MemoryWord)):
            rule = _word_invisible(action, trace, fired)
            if rule is None:
                return "live-word"
        else:
            return "unknown-target"
        rules.append(rule)
    return rules


def _fetched_word_invisible(
    orig_word: int,
    final_word: int,
    trace: GoldenAccessTrace,
    fired: list[tuple[int, int | None, int]],
) -> str | None:
    if final_word == orig_word:
        return RULE_IDENTITY
    orig_op, _, _, _, _ = decode_fields(orig_word)
    new_op, new_rd, _, _, new_imm = decode_fields(final_word)
    if orig_op in (OP_STW, OP_STB) and final_word == NOP_WORD:
        # skipping the store leaves stale memory; invisible iff no later
        # read ever observes any of those words
        if all(_word_unread_after(trace, ea, index) for index, ea, _ in fired):
            return RULE_DEAD_STORE
        return None
    if orig_op == OP_BC:
        orig_cond = decode_fields(orig_word)[1]
        orig_imm = decode_fields(orig_word)[4]
        if final_word == NOP_WORD:
            # NOP falls through — equivalent iff the branch is never
            # taken at any fired activation
            if all(cond_taken(orig_cond, cr) is False for _, _, cr in fired):
                return RULE_BRANCH_EQUIV
            return None
        if new_op == OP_BC and new_imm == orig_imm:
            for _, _, cr in fired:
                taken_new = cond_taken(new_rd, cr)
                if taken_new is None or taken_new != cond_taken(orig_cond, cr):
                    return None
            return RULE_BRANCH_EQUIV
    return None


def _word_unread_after(trace: GoldenAccessTrace, ea: int | None,
                       index: int) -> bool:
    """No load / puts walk reads the word(s) at *ea* after instruction
    *index* (the store itself executes at *index*, so reads there are
    impossible and ``<=`` is exact)."""
    if ea is None:
        return False
    if trace.last_read_at(ea) > index:
        return False
    if ea & 3 and trace.last_read_at(ea + 3) > index:
        return False
    return True


def _store_value_invisible(
    action,
    orig_word: int,
    trace: GoldenAccessTrace,
    fired: list[tuple[int, int | None, int]],
) -> str | None:
    if _is_identity(action.corruption):
        return RULE_IDENTITY
    opcode = decode_fields(orig_word)[0]
    if opcode not in (OP_STW, OP_STB):
        # the one-shot store transform would leak to some later store
        # elsewhere in the program — not modeled
        return None
    if all(_word_unread_after(trace, ea, index) for index, ea, _ in fired):
        return RULE_DEAD_STORE
    return None


def _register_invisible(
    action,
    trace: GoldenAccessTrace,
    fired: list[tuple[int, int | None, int]],
) -> str | None:
    reg = action.location.index
    if reg == 0:
        # the injector re-zeroes r0 immediately after corrupting it
        return RULE_IDENTITY
    if _is_identity(action.corruption):
        return RULE_IDENTITY
    events = trace.reg_events_at(reg)
    if events is None:
        return None
    for index, _, _ in fired:
        # corruption lands at the fetch of instruction *index*, before it
        # executes — its own operand reads (>= index) observe it
        nxt = next((is_write for at, is_write in events if at >= index), None)
        if nxt is False:
            return None
    return RULE_DEAD_REGISTER


def _word_invisible(
    action,
    trace: GoldenAccessTrace,
    fired: list[tuple[int, int | None, int]],
) -> str | None:
    addr = action.location.address
    if addr & 3 or not trace.is_mapped(addr):
        # the injector's debug write would fault — a real run errors out
        return None
    if _is_identity(action.corruption):
        return RULE_IDENTITY
    first = fired[0][0]
    # the corruption is permanent: any fetch or read at-or-after the first
    # injection observes it (the trigger instruction itself is fetched at
    # *first*, so corrupting the trigger's own word always declines)
    last_exec = trace.last_exec_at(addr)
    if last_exec is None or last_exec >= first:
        return None
    if trace.last_read_at(addr) >= first:
        return None
    return RULE_DEAD_WORD


def synthesize_record(
    spec: MachineFault,
    case: InputCase,
    trace: GoldenAccessTrace,
    decision: PruneDecision,
) -> RunRecord:
    """The record a real run would produce, built from the golden result."""
    golden = trace.result
    return RunRecord(
        fault_id=spec.fault_id,
        case_id=case.case_id,
        mode=classify(golden, case.expected),
        status=golden.status,
        exit_code=golden.exit_code,
        trap_kind=None,
        activations=decision.activations,
        injections=decision.injections,
        instructions=golden.instructions,
        metadata=spec.metadata,
        provenance="pruned",
    )


__all__ = [
    "PRUNE_RULES",
    "PruneDecision",
    "RULE_BRANCH_EQUIV",
    "RULE_DEAD_REGISTER",
    "RULE_DEAD_STORE",
    "RULE_DEAD_WORD",
    "RULE_DORMANT",
    "RULE_IDENTITY",
    "classify_fault",
    "synthesize_record",
    "trace_requirements",
]
