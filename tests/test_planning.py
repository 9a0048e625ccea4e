"""Unit tests for the campaign planner (repro.planning).

Covers the three planner layers in isolation: the dormancy prover's
rules on crafted programs, the outcome memo's disk round-trip (including
torn-line tolerance and the verify policy catching a poisoned memo), the
sparse case fingerprint that keys the memo, and the plan-partition
records behind ``repro plan report``.
"""

import hashlib
import json
import os

import pytest

from repro.isa import NOP_WORD, decode
from repro.lang import compile_source
from repro.machine import HEAP_BASE, PAGE_SIZE, STACK_REGION, STACK_SIZE, Memory, boot
from repro.planning import (
    CampaignPlan,
    GoldenAccessTrace,
    OutcomeCache,
    PlannerCache,
    PlanningDivergence,
    classify_fault,
    memo_key,
    outcome_from_record,
    plan_from_records,
    record_from_outcome,
    state_fingerprint,
    synthesize_record,
    trace_requirements,
)
from repro.planning import digest as _digest
from repro.planning import memo as _memo
from repro.planning import planner as _planner
from repro.planning.prover import (
    RULE_BRANCH_EQUIV,
    RULE_DEAD_REGISTER,
    RULE_DEAD_STORE,
    RULE_DEAD_WORD,
    RULE_DORMANT,
    RULE_IDENTITY,
)
from repro.swifi import (
    Action,
    Arithmetic,
    BitFlip,
    CampaignConfig,
    CampaignRunner,
    CodeWord,
    DataAccess,
    MachineFault,
    FetchedWord,
    InputCase,
    OpcodeFetch,
    RegisterTarget,
    SetValue,
    StoreValue,
    Temporal,
    WhenPolicy,
)
from repro.swifi.campaign import execute_injection_run
from repro.workloads.registry import get_workload

# One store to `sink` that is never read again (a provably dead store)
# and one to `live` that print_int reads back (a provably live one).
DEAD_STORE_SOURCE = (
    "int in_x;\n"
    "int sink;\n"
    "int live;\n"
    "void main() {\n"
    "    sink = in_x + 1;\n"
    "    live = in_x + 2;\n"
    "    print_int(live);\n"
    "    exit(0);\n"
    "}\n"
)


@pytest.fixture(scope="module")
def dead_store_program():
    compiled = compile_source(DEAD_STORE_SOURCE, "deadstore")
    case = InputCase("a", {"in_x": 4}, b"6")
    return compiled, case


# Two straight-line stores to globals and a branch that in_x decides:
# `a` is stored once before `b`'s store, the bc runs once after it.
WORDS_SOURCE = (
    "int in_x;\n"
    "int a;\n"
    "int b;\n"
    "void main() {\n"
    "    a = in_x + 1;\n"
    "    b = in_x + 2;\n"
    "    if (in_x > 100) { a = 7; }\n"
    "    print_int(a + b);\n"
    "    exit(0);\n"
    "}\n"
)

# A char array read only by the puts walk: msg[0] is printed after its
# store, msg[2] is stored after the only print.
PUTS_SOURCE = (
    "char msg[8];\n"
    "void main() {\n"
    "    msg[0] = 'h';\n"
    "    msg[1] = 'i';\n"
    "    print_str(msg);\n"
    "    msg[2] = '!';\n"
    "    exit(0);\n"
    "}\n"
)


@pytest.fixture(scope="module")
def words_program():
    compiled = compile_source(WORDS_SOURCE, "words")
    cases = (InputCase("small", {"in_x": 4}, b"11"),
             InputCase("large", {"in_x": 200}, b"209"))
    return compiled, cases


@pytest.fixture(scope="module")
def puts_program():
    compiled = compile_source(PUTS_SOURCE, "puts")
    return compiled, InputCase("a", {}, b"hi")


def _trace(compiled, case, faults, budget=100_000):
    watch, data, regs = trace_requirements(faults)
    return GoldenAccessTrace(
        compiled.executable, case,
        watch_pcs=watch, data_addrs=data, tracked_regs=regs,
        budget=budget,
    )


def _spec(fault_id, trigger, *actions, when=None):
    kwargs = {}
    if when is not None:
        kwargs["when"] = when
    return MachineFault(fault_id, trigger, tuple(actions), **kwargs)


class TestDormancyProver:
    def test_temporal_past_golden_end_is_dormant(self, dead_store_program):
        compiled, case = dead_store_program
        spec = _spec("late", Temporal(10_000_000),
                     Action(StoreValue(), Arithmetic(1)))
        decision = classify_fault(spec, _trace(compiled, case, [spec]))
        assert decision.prune
        assert decision.rule == RULE_DORMANT
        assert decision.activations == 0 and decision.injections == 0

    def test_temporal_before_golden_end_declines(self, dead_store_program):
        compiled, case = dead_store_program
        spec = _spec("early", Temporal(2),
                     Action(StoreValue(), Arithmetic(1)))
        decision = classify_fault(spec, _trace(compiled, case, [spec]))
        assert not decision.prune
        assert decision.reason == "temporal-live"

    def test_untouched_data_address_is_dormant(self, dead_store_program):
        compiled, case = dead_store_program
        spec = _spec("data", DataAccess(0x7FF0),
                     Action(StoreValue(), Arithmetic(1)))
        decision = classify_fault(spec, _trace(compiled, case, [spec]))
        assert decision.prune
        assert decision.rule == RULE_DORMANT

    def test_accessed_data_address_declines(self, dead_store_program):
        compiled, case = dead_store_program
        live = compiled.executable.symbols["live"]
        spec = _spec("data-live", DataAccess(live),
                     Action(StoreValue(), Arithmetic(1)))
        decision = classify_fault(spec, _trace(compiled, case, [spec]))
        assert not decision.prune
        # `sink` is stored but never loaded: a load-only data trigger on
        # it is provably dormant, a store-watching one is not.
        sink = compiled.executable.symbols["sink"]
        load_only = _spec("sink-load", DataAccess(sink),
                          Action(StoreValue(), Arithmetic(1)))
        on_store = _spec("sink-store", DataAccess(sink, on_store=True),
                         Action(StoreValue(), Arithmetic(1)))
        trace = _trace(compiled, case, [load_only, on_store])
        assert classify_fault(load_only, trace).prune
        assert not classify_fault(on_store, trace).prune

    def test_never_firing_when_policy_is_dormant(self, dead_store_program):
        compiled, case = dead_store_program
        site = compiled.debug.assignments[0]
        spec = _spec("never", OpcodeFetch(site.address),
                     Action(StoreValue(), Arithmetic(1)),
                     when=WhenPolicy.nth(50))
        decision = classify_fault(spec, _trace(compiled, case, [spec]))
        assert decision.prune
        assert decision.rule == RULE_DORMANT
        assert decision.activations >= 1 and decision.injections == 0

    def test_dead_store_is_pruned_live_store_is_not(self, dead_store_program):
        compiled, case = dead_store_program
        dead_site, live_site = compiled.debug.assignments[:2]
        dead = _spec("dead", OpcodeFetch(dead_site.address),
                     Action(StoreValue(), Arithmetic(1)))
        live = _spec("live", OpcodeFetch(live_site.address),
                     Action(StoreValue(), Arithmetic(1)))
        trace = _trace(compiled, case, [dead, live])
        dead_decision = classify_fault(dead, trace)
        assert dead_decision.prune
        assert dead_decision.rule == RULE_DEAD_STORE
        assert not classify_fault(live, trace).prune

    def test_identity_corruption_is_pruned(self, dead_store_program):
        compiled, case = dead_store_program
        live_site = compiled.debug.assignments[1]
        spec = _spec("noop", OpcodeFetch(live_site.address),
                     Action(StoreValue(), BitFlip(0)))
        decision = classify_fault(spec, _trace(compiled, case, [spec]))
        assert decision.prune
        assert decision.rule == RULE_IDENTITY

    def test_r0_register_target_is_identity(self, dead_store_program):
        compiled, case = dead_store_program
        live_site = compiled.debug.assignments[1]
        spec = _spec("r0", OpcodeFetch(live_site.address),
                     Action(RegisterTarget(0), Arithmetic(7)))
        decision = classify_fault(spec, _trace(compiled, case, [spec]))
        assert decision.prune
        assert decision.rule == RULE_IDENTITY

    def test_temporal_with_fetched_word_declines(self, dead_store_program):
        compiled, case = dead_store_program
        spec = _spec("arm", Temporal(10_000_000),
                     Action(FetchedWord(), Arithmetic(1)))
        decision = classify_fault(spec, _trace(compiled, case, [spec]))
        assert not decision.prune
        assert decision.reason == "arm-error"

    def test_synthesized_records_match_real_execution(self, dead_store_program):
        """The soundness contract: every pruned record is bit-identical
        to what a fresh boot would have produced."""
        compiled, case = dead_store_program
        dead_site = compiled.debug.assignments[0]
        specs = [
            _spec("late", Temporal(10_000_000),
                  Action(StoreValue(), Arithmetic(1))),
            _spec("dead", OpcodeFetch(dead_site.address),
                  Action(StoreValue(), Arithmetic(1))),
            _spec("noop", OpcodeFetch(dead_site.address),
                  Action(StoreValue(), BitFlip(0))),
        ]
        trace = _trace(compiled, case, specs)
        for spec in specs:
            decision = classify_fault(spec, trace)
            assert decision.prune, spec.fault_id
            synthesized = synthesize_record(spec, case, trace, decision)
            real = execute_injection_run(
                compiled.executable, spec, case, budget=100_000,
            )
            assert synthesized == real, spec.fault_id
            assert synthesized.provenance == "pruned"
            assert real.provenance == "executed"


def _assert_pruned_as_executed(compiled, case, spec, trace, rule):
    """*spec* is pruned by *rule*, and its synthesized record is the one a
    real injection run produces."""
    decision = classify_fault(spec, trace)
    assert decision.prune, (spec.fault_id, decision.reason)
    assert decision.rule == rule
    real = execute_injection_run(compiled.executable, spec, case,
                                 budget=100_000)
    assert synthesize_record(spec, case, trace, decision) == real


def _word_at(compiled, address):
    offset = address - compiled.executable.code_base
    return int.from_bytes(compiled.executable.code[offset:offset + 4], "big")


def _declined(spec, trace):
    decision = classify_fault(spec, trace)
    assert not decision.prune, spec.fault_id
    return decision.reason


class TestObservedFacts:
    """Each rule on a program crafted so that the trace must observe the
    fact the rule reads: a corrupted word's last fetch, the condition
    register at a branch, a tracked register's accesses, the ``puts``
    walk, and the instruction cap."""

    def test_dead_word_vs_live_word(self, words_program):
        compiled, (case, _) = words_program
        store_a, store_b = compiled.debug.assignments[:2]
        (check,) = compiled.debug.checks
        trigger = OpcodeFetch(store_b.address)
        # a's store is fetched once, before the injection at b's store;
        # the branch is fetched after it.
        dead = _spec("dead-word", trigger,
                     Action(CodeWord(store_a.address), BitFlip(1)))
        live = _spec("live-word", trigger,
                     Action(CodeWord(check.address), BitFlip(1)))
        trace = _trace(compiled, case, [dead, live])
        _assert_pruned_as_executed(compiled, case, dead, trace, RULE_DEAD_WORD)
        assert _declined(live, trace) == "live-word"

    def test_nop_of_a_never_taken_branch_is_equivalent(self, words_program):
        compiled, (small, large) = words_program
        (check,) = compiled.debug.checks
        spec = _spec("nop-bc", OpcodeFetch(check.address),
                     Action(FetchedWord(), SetValue(NOP_WORD)))
        trace = _trace(compiled, small, [spec])
        _assert_pruned_as_executed(compiled, small, spec, trace,
                                   RULE_BRANCH_EQUIV)
        # in_x > 100 takes the branch: the NOP changes the path
        assert _declined(spec, _trace(compiled, large, [spec])) == "opaque-word"

    def test_dead_register_vs_live_register(self, words_program):
        compiled, (case, _) = words_program
        store_a = compiled.debug.assignments[0]
        stored = decode(_word_at(compiled, store_a.address)).rd
        after = decode(_word_at(compiled, store_a.address + 4))
        # the instruction after a's store overwrites a register without
        # reading it (an addis from r0 at O0)
        assert after.mnemonic == "addis" and after.ra == 0 and after.rd != 0
        dead = _spec("dead-reg", OpcodeFetch(store_a.address + 4),
                     Action(RegisterTarget(after.rd), Arithmetic(1)))
        live = _spec("live-reg", OpcodeFetch(store_a.address),
                     Action(RegisterTarget(stored), Arithmetic(1)))
        trace = _trace(compiled, case, [dead, live])
        _assert_pruned_as_executed(compiled, case, dead, trace,
                                   RULE_DEAD_REGISTER)
        assert _declined(live, trace) == "live-register"

    def test_puts_walk_decides_live_and_dead_stores(self, puts_program):
        compiled, case = puts_program
        first, _, after_print = compiled.debug.assignments[:3]
        printed = _spec("printed", OpcodeFetch(first.address),
                        Action(StoreValue(), Arithmetic(1)))
        unprinted = _spec("unprinted", OpcodeFetch(after_print.address),
                          Action(StoreValue(), Arithmetic(1)))
        trace = _trace(compiled, case, [printed, unprinted])
        assert _declined(printed, trace) == "live-store"
        _assert_pruned_as_executed(compiled, case, unprinted, trace,
                                   RULE_DEAD_STORE)

    def test_trace_cap_declines_every_fault(self, monkeypatch,
                                            dead_store_program):
        compiled, case = dead_store_program
        dead_site = compiled.debug.assignments[0]
        specs = [
            _spec("late", Temporal(10_000_000),
                  Action(StoreValue(), Arithmetic(1))),
            _spec("dead", OpcodeFetch(dead_site.address),
                  Action(StoreValue(), Arithmetic(1))),
            _spec("data", DataAccess(0x7FF0),
                  Action(StoreValue(), Arithmetic(1))),
        ]
        golden = _trace(compiled, case, specs)
        assert golden.ok and all(classify_fault(s, golden).prune for s in specs)

        monkeypatch.setenv("REPRO_PLAN_TRACE_CAP", str(golden.instructions - 1))
        capped = _trace(compiled, case, specs)
        assert not capped.ok and capped.failure == "trace-cap"
        assert capped.instructions == golden.instructions - 1
        for spec in specs:
            assert _declined(spec, capped) == "trace-cap"


class TestOutcomeMemo:
    def _one_record(self, dead_store_program):
        compiled, case = dead_store_program
        site = compiled.debug.assignments[1]
        spec = _spec("hit", OpcodeFetch(site.address),
                     Action(StoreValue(), Arithmetic(1)))
        record = execute_injection_run(
            compiled.executable, spec, case, budget=100_000,
        )
        return spec, case, record

    def test_outcome_round_trip(self, dead_store_program):
        spec, case, record = self._one_record(dead_store_program)
        rebuilt = record_from_outcome(outcome_from_record(record), spec, case)
        assert rebuilt == record  # provenance is compare=False
        assert rebuilt.provenance == "memoized"

    def test_disk_round_trip_survives_reopen(self, tmp_path, dead_store_program):
        spec, case, record = self._one_record(dead_store_program)
        outcome = outcome_from_record(record)
        cache = OutcomeCache(str(tmp_path))
        cache.put("k1", outcome)
        cache.close()
        warm = OutcomeCache(str(tmp_path))
        assert warm.get("k1") == outcome
        assert warm.get("missing") is None

    def test_each_file_is_parsed_once_per_content(self, tmp_path, monkeypatch):
        monkeypatch.setattr(_memo, "_parsed", {})
        parsed = []
        original = _memo.parse_jsonl

        def counting(text, path):
            parsed.append(path)
            return original(text, path)

        monkeypatch.setattr(_memo, "parse_jsonl", counting)
        memo_dir = str(tmp_path / "memo")
        writer = OutcomeCache(memo_dir)
        writer.put("k1", {"mode": "one"})
        writer.close()
        for _ in range(3):  # one class campaign after another
            assert OutcomeCache(memo_dir).get("k1") == {"mode": "one"}
        assert len(parsed) == 1
        writer = OutcomeCache(memo_dir)
        writer.put("k2", {"mode": "two"})  # the same file grows
        writer.close()
        assert OutcomeCache(memo_dir).get("k2") == {"mode": "two"}
        assert len(parsed) == 2
        OutcomeCache(str(tmp_path / "other"))  # another directory
        assert _memo._parsed == {}

    def test_verify_policy_catches_poisoned_memo(self, tmp_path,
                                                 dead_store_program):
        compiled, case = dead_store_program
        site = compiled.debug.assignments[1]
        spec = _spec("hit", OpcodeFetch(site.address),
                     Action(StoreValue(), Arithmetic(1)))
        memo_dir = str(tmp_path)
        planner = PlannerCache(
            compiled.executable, [spec], prune=False, memoize=True,
            memo_dir=memo_dir,
        )
        assert planner.execute(spec, case, 100_000) is None  # cold miss
        record = execute_injection_run(
            compiled.executable, spec, case, budget=100_000,
        )
        planner.record_executed(spec, case, 100_000, record)
        planner.close()

        # Poison the persisted outcome, then re-open with full verification.
        (memo_file,) = [f for f in os.listdir(memo_dir) if f.endswith(".jsonl")]
        path = os.path.join(memo_dir, memo_file)
        entry = json.loads(open(path, encoding="utf-8").read())
        entry["outcome"]["instructions"] += 1
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(entry) + "\n")

        poisoned = PlannerCache(
            compiled.executable, [spec], prune=False, memoize=True,
            memo_dir=memo_dir, verify_fraction=1.0,
        )
        with pytest.raises(PlanningDivergence):
            poisoned.execute(spec, case, 100_000)

        # An honest memo passes the same full verification.
        honest = PlannerCache(
            compiled.executable, [spec], prune=False, memoize=True,
            verify_fraction=1.0,
        )
        honest.memo.put(planner._memo_key(spec, case, 100_000),
                        outcome_from_record(record))
        replayed = honest.execute(spec, case, 100_000)
        assert replayed == record
        assert honest.stats["verified"] == 1


class TestCampaignPlan:
    def test_plan_from_records_partitions_by_provenance(self, dead_store_program):
        compiled, case = dead_store_program
        dead_site, live_site = compiled.debug.assignments[:2]
        faults = [
            _spec("dead", OpcodeFetch(dead_site.address),
                  Action(StoreValue(), Arithmetic(1))),
            _spec("live", OpcodeFetch(live_site.address),
                  Action(StoreValue(), Arithmetic(1))),
        ]
        result = CampaignRunner(compiled, [case]).run(
            faults, config=CampaignConfig(prune=True, seed=1),
        )
        plan = plan_from_records(result.records)
        assert plan.pruned == 1 and plan.executed == 1 and plan.memoized == 0
        assert plan.total == 2
        assert plan.executed_fraction == 0.5
        merged = CampaignPlan()
        merged.merge(plan)
        merged.merge(plan)
        assert merged.total == 4
        assert CampaignPlan.from_dict(plan.to_dict()) == plan

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CampaignConfig(memo_dir="somewhere")  # requires memoize
        with pytest.raises(ValueError):
            CampaignConfig(memoize=True, plan_verify=1.5)
        with pytest.raises(ValueError):
            CampaignConfig(plan_verify=0.5)  # nothing to verify


def _legacy_state_fingerprint(machine):
    """The case fingerprint as earlier commits computed it: SHA-256 over
    the full memory image (so memo dirs they wrote carry these keys)."""
    hasher = _digest._hash_machine_state(machine)
    hasher.update(b"#console:")
    hasher.update(bytes(machine.console))
    return hasher.hexdigest()


def _full_scan_state_fingerprint(machine):
    """``state_fingerprint``'s encoding over a scan of every page of the
    address space, as earlier commits read memory: the reference the
    scan of the pages that can hold state must reproduce byte for byte."""
    hasher = hashlib.sha256()
    _digest._hash_cores(hasher, machine)
    memory = machine.memory
    hasher.update(b"#memory:%d" % memory.size)
    for start in range(0, memory.size, PAGE_SIZE):
        chunk = memory.data[start : start + PAGE_SIZE]
        if chunk != bytes(len(chunk)):
            hasher.update(b"@%d:" % start)
            hasher.update(chunk)
    hasher.update(b"#heap:")
    _digest._hash_heap(hasher, machine)
    hasher.update(b"#console:")
    hasher.update(bytes(machine.console))
    return hasher.hexdigest()


def _booted(name, **kwargs):
    workload = get_workload(name)
    (case,) = workload.make_cases(1, 2000)
    return boot(workload.compiled().executable, num_cores=workload.num_cores,
                inputs=dict(case.pokes), **kwargs)


def _restored_machines():
    """Machines whose state a snapshot restore set."""
    # A mid-run snapshot carrying a gap page only the debug port wrote,
    # restored onto a fresh boot that never wrote that page itself.
    donor = _booted("JB.team6")
    boot_image = donor.baseline()
    donor.memory.debug_write(PAGE_SIZE * 57 + 5, b"\x07")
    donor.run(max_instructions=700)
    snapshot = donor.snapshot(boot_image)
    assert 57 in snapshot.page_delta
    onto = _booted("JB.team6")
    onto.restore(snapshot)
    # A machine run to its exit, then rewound to its boot state.
    rewound = _booted("JB.team6")
    at_boot = rewound.snapshot()
    assert rewound.run().status == "exited"
    rewound.restore(at_boot)
    assert rewound.instret == 0
    return [("restored-mid-run", onto), ("restored-to-boot", rewound)]


@pytest.fixture(scope="module")
def fingerprinted_machines():
    """(name, machine) pairs covering every way a page gets written."""
    machines = [(f"fresh:{name}", _booted(name))
                for name in ("JB.team6", "C.team1", "SOR")]
    ran = _booted("JB.team6", engine="trace")
    assert ran.run().status == "exited"
    sor = _booted("SOR", engine="trace")
    assert sor.run(max_instructions=20_000).status == "hung"
    machines += [("ran:JB.team6", ran), ("ran:SOR", sor)]
    return machines + _restored_machines()


def _fingerprint_mismatches(machines):
    return [name for name, machine in machines
            if state_fingerprint(machine) != _full_scan_state_fingerprint(machine)]


def _scan_of(pages_of):
    """A ``Memory.nonzero_pages`` that reads only ``pages_of(memory, executed)``."""

    def nonzero_pages(self, executed=True):
        for page in sorted(pages_of(self, executed)):
            chunk = self.data[page * PAGE_SIZE : (page + 1) * PAGE_SIZE]
            if chunk != bytes(len(chunk)):
                yield page, chunk

    return nonzero_pages


class TestStateFingerprint:
    """The sparse fingerprint hashes only non-zero pages, and reads only
    the pages that can hold one; every byte of memory must still reach
    it, exactly as a scan of the whole address space would."""

    def _boot(self, dead_store_program):
        compiled, case = dead_store_program
        return boot(compiled.executable, inputs=dict(case.pokes))

    def test_two_boots_of_one_case_agree(self, dead_store_program):
        assert (state_fingerprint(self._boot(dead_store_program))
                == state_fingerprint(self._boot(dead_store_program)))

    def test_every_machine_matches_a_full_scan(self, fingerprinted_machines):
        assert len(fingerprinted_machines) == 7
        assert _fingerprint_mismatches(fingerprinted_machines) == []

    def test_a_fresh_boot_reads_only_what_the_loader_wrote(self):
        machine = _booted("JB.team6")
        read = [page for page, _image in machine.memory.nonzero_pages(False)]
        assert read == sorted(machine.memory._port_pages) == [0, 16]

    def test_a_scan_without_port_written_pages_is_caught(
        self, monkeypatch, fingerprinted_machines
    ):
        monkeypatch.setattr(Memory, "nonzero_pages", _scan_of(
            lambda memory, executed:
                memory.segment_pages(writable=True) if executed else ()))
        mismatched = _fingerprint_mismatches(fingerprinted_machines)
        assert {"fresh:JB.team6", "fresh:C.team1", "fresh:SOR"} <= set(mismatched)

    def test_a_scan_that_takes_an_executed_machine_for_fresh_is_caught(
        self, monkeypatch, fingerprinted_machines
    ):
        monkeypatch.setattr(Memory, "nonzero_pages", _scan_of(
            lambda memory, executed: memory._port_pages))
        mismatched = _fingerprint_mismatches(fingerprinted_machines)
        assert {"ran:JB.team6", "ran:SOR"} <= set(mismatched)

    @pytest.mark.parametrize("address", [
        0,                             # page 0, below the code segment
        PAGE_SIZE * 56 + 123,          # a gap page between heap and stacks
        HEAP_BASE + 8,                 # heap memory
        STACK_REGION + STACK_SIZE - 1,  # the last byte of core 0's stack
    ], ids=["page0", "gap", "heap", "stack-end"])
    def test_single_byte_change_is_seen(self, dead_store_program, address):
        machine = self._boot(dead_store_program)
        before = state_fingerprint(machine)
        (old,) = machine.memory.debug_read(address, 1)
        machine.memory.debug_write(address, bytes([old ^ 0x01]))
        assert state_fingerprint(machine) != before
        assert state_fingerprint(machine) == _full_scan_state_fingerprint(machine)
        machine.memory.debug_write(address, bytes([old]))
        assert state_fingerprint(machine) == before  # content-defined

    def test_campaign_memo_keys_match_the_reference(self, monkeypatch,
                                                    words_program):
        # Every key a memoizing campaign builds (lookups, puts, and the
        # hits of faults that share a behaviour) equals one built from the
        # full-scan fingerprint of a fresh boot and a behaviour
        # fingerprint computed afresh for the spec.
        compiled, cases = words_program
        faults = [
            _spec(f"f{index}+{delta}-{copy}", OpcodeFetch(site.address),
                  Action(StoreValue(), Arithmetic(delta)))
            for index, site in enumerate(compiled.debug.assignments[:2])
            for delta in (1, 5) for copy in (0, 1)  # copies share behaviour
        ]
        keys = []
        original = PlannerCache._memo_key

        def spy(self, spec, case, budget):
            key = original(self, spec, case, budget)
            keys.append((spec, case, budget, key))
            return key

        monkeypatch.setattr(PlannerCache, "_memo_key", spy)
        runner = CampaignRunner(compiled, list(cases))
        config = CampaignConfig(seed=1, memoize=True)
        plan = plan_from_records(runner.run(faults, config=config).records)
        assert (plan.executed, plan.memoized) == (8, 8)  # copies hit their twin
        assert len(keys) == 2 * plan.executed + plan.memoized  # lookup (+ put)
        reference = {}
        for spec, case, budget, key in keys:
            if case.case_id not in reference:
                reference[case.case_id] = _full_scan_state_fingerprint(
                    boot(compiled.executable, inputs=dict(case.pokes)))
            assert key == memo_key(
                reference[case.case_id], case.expected, spec,
                budget=budget, quantum=runner.quantum, num_cores=1,
            ), (spec.fault_id, case.case_id)

    def test_same_byte_on_different_pages_differs(self, dead_store_program):
        first = self._boot(dead_store_program)
        second = self._boot(dead_store_program)
        first.memory.debug_write(PAGE_SIZE * 56, b"\x01")
        second.memory.debug_write(PAGE_SIZE * 57, b"\x01")
        assert state_fingerprint(first) != state_fingerprint(second)

    def test_memo_dir_with_old_format_keys_starts_cold(
        self, tmp_path, monkeypatch, dead_store_program
    ):
        compiled, case = dead_store_program
        sites = compiled.debug.assignments[:2]
        faults = [
            _spec(f"f{index}+{delta}", OpcodeFetch(site.address),
                  Action(StoreValue(), Arithmetic(delta)))
            for index, site in enumerate(sites) for delta in (1, 5)
        ]
        runner = CampaignRunner(compiled, [case])
        baseline = runner.run(faults, config=CampaignConfig(seed=1)).records
        memo_dir = str(tmp_path)
        config = CampaignConfig(seed=1, memoize=True, memo_dir=memo_dir)

        # Fill the memo dir the way an earlier commit did, then poison
        # every outcome so that any hit would change a record.
        with monkeypatch.context() as patch:
            patch.setattr(_planner, "state_fingerprint",
                          _legacy_state_fingerprint)
            filled = runner.run(faults, config=config)
        assert filled.records == baseline
        (memo_file,) = os.listdir(memo_dir)
        path = os.path.join(memo_dir, memo_file)
        entries = [json.loads(line) for line in open(path, encoding="utf-8")]
        assert len(entries) == len(faults)
        for entry in entries:
            entry["outcome"]["instructions"] += 1
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(json.dumps(entry) + "\n" for entry in entries)

        cold = runner.run(faults, config=config)
        assert plan_from_records(cold.records).memoized == 0
        assert cold.records == baseline
        warm = runner.run(faults, config=config)
        assert plan_from_records(warm.records).memoized == len(faults)
        assert warm.records == baseline


class TestDigestReexport:
    def test_state_digest_is_the_same_class_everywhere(self):
        from repro.planning import StateDigest as planning_digest
        from repro.verify import StateDigest as verify_digest

        assert planning_digest is verify_digest

    def test_digest_round_trip(self, dead_store_program):
        from repro.planning import StateDigest, machine_digest

        compiled, case = dead_store_program
        machine = boot(compiled.executable, num_cores=1,
                       inputs=dict(case.pokes))
        result = machine.run(100_000)
        digest = machine_digest(machine, result, None, "golden")
        payload = digest.to_dict()
        assert StateDigest(**payload) == digest
        # The verify oracle's byte layout is frozen: fuzzer artifacts
        # recorded by earlier commits carry this exact hash.
        assert digest.state_sha == (
            "0800dc541d0ea529381adb9777d8f51dd963b5241d6bcc7ac95db8b50afef207"
        )
