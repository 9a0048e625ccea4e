"""Hangs that end at their cycle (``InjectionSession``'s cycle probe).

On the compiled engine a run whose complete state repeats at the armed
trigger fetch skips every whole period that fits in its budget and
really executes only the remainder.  Every test here holds ``trace`` to
the ``simple`` engine, which executes every instruction: on the run
record and on the digest of the final machine state.
"""

import math
import random

import pytest

from repro.emulation import ASSIGNMENT_CLASS
from repro.emulation.locator import FaultLocator
from repro.experiments import ExperimentConfig
from repro.experiments.campaign6 import iter_section6_campaigns
from repro.isa.encoding import NOP_WORD
from repro.lang import compile_source
from repro.machine import ENGINE_SIMPLE, ENGINES, Memory, boot
from repro.observability import trace as _trace
from repro.observability.report import build_trace_report, render_trace_report
from repro.planning.digest import machine_digest
from repro.swifi.campaign import (
    CampaignConfig,
    CampaignRunner,
    InputCase,
    execute_injection_run,
)
from repro.swifi.faults import (
    MODE_TRAP,
    Action,
    Arithmetic,
    DataAccess,
    FetchedWord,
    MachineFault,
    MemoryWord,
    OpcodeFetch,
    SetValue,
    StoreValue,
    Temporal,
    WhenPolicy,
)
from repro.swifi.injector import CycleProbe, InjectionSession
from repro.swifi.snapshot import SnapshotCache

COMPILED_ENGINES = [engine for engine in ENGINES if engine != ENGINE_SIMPLE]
BUDGET = 100_000

# A bounded loop whose body stores the same value every time round once
# its step is stuck: the shape of JB.team6 main:18.
BOUNDED = """
int in_n;
int gout[8];
void main() {
    int i;
    for (i = 0; i < in_n; i++) {
        gout[i & 7] = i * 3;
    }
    print_int(gout[1]);
    exit(0);
}
"""

# Never ends by itself; ``g = 5`` is the trigger and ``h`` the global a
# MemoryWord action bumps, so each injection changes the state for good.
FOREVER = """
int g;
int h;
void main() {
    while (1) {
        g = 5;
    }
}
"""

# ``x = 3`` sees the same registers and stack every time round, while
# the global counts: the cheap key repeats, the full state never does.
COUNTING = """
int g;
void main() {
    int x;
    while (1) {
        g = g + 1;
        x = 3;
    }
}
"""

# Registers, lr, cr and the live stack repeat at ``y = 4`` while ``g``
# counts: a global one page past the loader-written start of the data
# segment, then a heap word.  The loop exits before the budget.
DATA_COUNTER = """
int pad[16384];
int g;
void main() {
    int x;
    int y;
    while (g < 3000) {
        g = g + 1;
        x = 3;
        y = 4;
    }
    print_int(g);
    exit(0);
}
"""

HEAP_COUNTER = """
void main() {
    int *g;
    int x;
    int y;
    g = malloc(16);
    *g = 0;
    while (*g < 3000) {
        *g = *g + 1;
        x = 3;
        y = 4;
    }
    print_int(*g);
    exit(0);
}
"""

PRINTING = """
void main() {
    int x;
    while (1) {
        x = 3;
        print_char(65);
    }
}
"""


def _compiled(source, name):
    return compile_source(source, name)


def _store_at(compiled, line):
    """Address of the store committing the assignment on *line*."""
    sites = [site for site in compiled.debug.assignments if site.line == line]
    assert sites, f"no assignment on line {line}"
    return sites[0].address


def _step_store(compiled):
    """Address of the store committing a ``for`` step (``i++``)."""
    (site,) = [site for site in compiled.debug.assignments if site.kind == "incdec"]
    return site.address


def _stuck(address, when=None, mode="breakpoint", fault_id="stuck"):
    """Turn the store at *address* into a no-op on the fetch bus."""
    return MachineFault(
        fault_id, OpcodeFetch(address),
        (Action(FetchedWord(), SetValue(NOP_WORD)),),
        when=when or WhenPolicy.every(), mode=mode,
    )


def _run(compiled, spec, engine, *, budget=BUDGET, inputs=None, num_cores=1):
    machine = boot(compiled.executable, inputs=dict(inputs or {}),
                   engine=engine, num_cores=num_cores)
    session = InjectionSession(machine)
    if spec is not None:
        session.arm(spec)
    result = session.run(budget)
    fault_id = spec.fault_id if spec is not None else "none"
    return machine_digest(machine, result, session, fault_id), session


def _against_simple(compiled, spec, **kwargs):
    """Digests per engine; asserts every compiled engine matches simple."""
    reference, _ = _run(compiled, spec, "simple", **kwargs)
    sessions = {}
    for engine in COMPILED_ENGINES:
        digest, session = _run(compiled, spec, engine, **kwargs)
        assert digest == reference, engine
        sessions[engine] = session
    return reference, sessions


@pytest.fixture
def state_captures(monkeypatch):
    """Count full-state captures (two per confirmation attempt)."""
    calls = []
    original = CycleProbe._state

    def counting(self):
        calls.append(self.core.pc)
        return original(self)

    monkeypatch.setattr(CycleProbe, "_state", counting)
    return calls


class TestJamesBHangs:
    """JB.team6 at seed 2000: main:18 and main:25 end at the cycle,
    main:30 (the stack slot ``chk`` keeps changing) does not."""

    @pytest.fixture(scope="class")
    def hangs(self):
        config = ExperimentConfig(seed=2000, campaign_inputs=2, min_locations=1000)
        (campaign,) = iter_section6_campaigns(
            config, programs=["JB.team6"], classes=(ASSIGNMENT_CLASS,)
        )
        runner = campaign.runner
        runner.calibrate()
        case = runner.cases[0]
        found = {}
        for fault in campaign.error_set.faults:
            line = dict(fault.metadata)["line"]
            if line in (18, 25, 30):
                found.setdefault(line, []).append(fault)
        return runner, case, found

    def test_stationary_hangs_end_at_the_cycle(self, hangs):
        runner, case, found = hangs
        budget = runner.budgets[case.case_id]
        hung = {18: 0, 25: 0, 30: 0}
        extrapolated = {18: 0, 25: 0, 30: 0}
        for line, faults in found.items():
            for fault in faults:
                reference, sessions = _against_simple(
                    runner.compiled, fault, budget=budget, inputs=case.pokes
                )
                if reference.status != "hung":
                    continue
                hung[line] += 1
                cycles = {engine: s.cycle for engine, s in sessions.items()}
                if cycles["trace"] is not None:
                    extrapolated[line] += 1
                    assert cycles["trace"]["activations"] == 1
                    assert cycles["trace"]["period"] in (20, 21)
        assert extrapolated[18] == hung[18] >= 1
        assert extrapolated[25] == hung[25] >= 1
        assert hung[30] >= 1 and extrapolated[30] == 0

    def test_records_carry_the_provenance(self, hangs):
        runner, case, found = hangs
        budget = runner.budgets[case.case_id]
        provenances = set()
        for fault in found[18]:
            simple = execute_injection_run(
                runner.compiled.executable, fault, case, budget=budget,
                engine="simple",
            )
            assert simple.provenance == "executed"
            for engine in COMPILED_ENGINES:
                record = execute_injection_run(
                    runner.compiled.executable, fault, case, budget=budget,
                    engine=engine,
                )
                assert record == simple
                if simple.status == "hung":
                    provenances.add(record.provenance)
        assert provenances == {"extrapolated"}


class TestBudgetArithmetic:
    def test_every_remainder_including_an_exact_multiple(self):
        # P + 1 consecutive budgets leave every remainder from 0 to P - 1
        # after the skipped periods: an exact multiple of the period
        # ends at the budget without fetching the trigger again.
        compiled = _compiled(BOUNDED, "bounded")
        spec = _stuck(_step_store(compiled))
        _, sessions = _against_simple(compiled, spec, inputs={"in_n": 50})
        period = sessions["trace"].cycle["period"]
        skipped = set()
        for budget in range(BUDGET - period, BUDGET + 1):
            reference, sessions = _against_simple(compiled, spec, budget=budget,
                                                  inputs={"in_n": 50})
            assert reference.instructions == budget
            cycle = sessions["trace"].cycle
            assert cycle["period"] == period and cycle["skipped"] % period == 0
            skipped.add(cycle["skipped"])
        assert len(skipped) == 2  # the remainder wrapped past a multiple


class TestWhenPolicies:
    def test_nth_after_the_first_repeat(self):
        # The loop repeats from its first pass, before the policy has
        # settled: its injections must still land, and no later ones.
        compiled = _compiled(FOREVER, "forever")
        h = compiled.executable.symbols["h"]
        for when in (WhenPolicy.nth(40), WhenPolicy.once(),
                     WhenPolicy(30, 5)):
            spec = MachineFault(
                "bump", OpcodeFetch(_store_at(compiled, 6)),
                (Action(MemoryWord(h), Arithmetic(1)),), when=when,
            )
            reference, sessions = _against_simple(compiled, spec)
            assert reference.status == "hung"
            assert reference.injections == (when.count or 1)
            assert all(s.cycle is not None for s in sessions.values())

    def test_every_keeps_injecting_through_the_skipped_periods(self):
        compiled = _compiled(FOREVER, "forever")
        spec = MachineFault(
            "again", OpcodeFetch(_store_at(compiled, 6)),
            (Action(StoreValue(), SetValue(7)),),
        )
        reference, sessions = _against_simple(compiled, spec)
        assert reference.injections == reference.activations > 1000
        assert all(s.cycle is not None for s in sessions.values())

    def test_window_closing_mid_loop_runs_to_exit(self):
        compiled = _compiled(BOUNDED, "bounded")
        spec = _stuck(_step_store(compiled), when=WhenPolicy(2, 60))
        reference, sessions = _against_simple(compiled, spec, inputs={"in_n": 50})
        assert reference.status == "exited"
        assert reference.injections == 60
        assert all(s.cycle is None for s in sessions.values())

    def test_trap_mode(self):
        compiled = _compiled(BOUNDED, "bounded")
        spec = _stuck(_step_store(compiled), mode=MODE_TRAP)
        reference, sessions = _against_simple(compiled, spec, inputs={"in_n": 50})
        assert reference.status == "hung"
        assert all(s.cycle is not None for s in sessions.values())


class TestStatesThatNeverRepeat:
    def test_a_printing_loop_is_never_extrapolated(self):
        compiled = _compiled(PRINTING, "printing")
        spec = MachineFault(
            "noop", OpcodeFetch(_store_at(compiled, 5)),
            (Action(StoreValue(), Arithmetic(0)),),
        )
        reference, sessions = _against_simple(compiled, spec)
        assert reference.status == "hung"
        assert all(s.cycle is None for s in sessions.values())

    def test_a_counting_global_costs_one_comparison_per_window(self, state_captures):
        compiled = _compiled(COUNTING, "counting")
        spec = MachineFault(
            "noop", OpcodeFetch(_store_at(compiled, 7)),
            (Action(StoreValue(), Arithmetic(0)),),
        )
        reference, _ = _run(compiled, spec, "simple")
        state_captures.clear()
        digest, session = _run(compiled, spec, "trace")
        assert digest == reference and session.cycle is None
        windows = math.floor(math.log2(reference.activations)) + 1
        # Each failed attempt captures the state twice.
        assert 0 < len(state_captures) <= 2 * windows


def _counter(source):
    """*source* compiled, and a no-op fault on the store of ``y = 4``."""
    compiled = _compiled(source, "counter")
    (site,) = [site for site in compiled.debug.assignments if site.target == "y"]
    return compiled, MachineFault(
        "noop", OpcodeFetch(site.address), (Action(StoreValue(), Arithmetic(0)),),
    )


def _blind_to_writable_segments(patch):
    """Sabotage: the probe's full state skips the writable segments' pages."""
    original = Memory.nonzero_pages

    def nonzero_pages(self, executed=True):
        writable = set(self.segment_pages(writable=True))
        return ((page, image) for page, image in original(self, executed)
                if page not in writable)

    patch.setattr(Memory, "nonzero_pages", nonzero_pages)


def _port_written_only(patch):
    """Sabotage: the probe's full state reads only port-written pages."""
    original = Memory.nonzero_pages
    patch.setattr(Memory, "nonzero_pages",
                  lambda self, executed=True: original(self, False))


class TestStateInWritableSegments:
    """A cheap key that repeats while a global or a heap word counts:
    only memory in the confirming comparison tells the loop from a
    cycle, and ending it at a "cycle" would turn an exit into a hang."""

    @pytest.mark.parametrize("source", [DATA_COUNTER, HEAP_COUNTER],
                             ids=["data", "heap"])
    def test_a_counting_word_is_no_cycle(self, source, state_captures):
        compiled, spec = _counter(source)
        reference, sessions = _against_simple(compiled, spec)
        assert reference.status == "exited" and reference.exit_code == 0
        assert all(session.cycle is None for session in sessions.values())
        assert state_captures  # the key repeated and the state was compared

    @pytest.mark.parametrize("sabotage, source", [
        (_blind_to_writable_segments, DATA_COUNTER),
        (_blind_to_writable_segments, HEAP_COUNTER),
        (_port_written_only, HEAP_COUNTER),
    ], ids=["blind-data", "blind-heap", "port-only-heap"])
    def test_a_state_without_the_counting_word_is_caught(self, sabotage, source):
        compiled, spec = _counter(source)
        reference, _ = _run(compiled, spec, "simple")
        with pytest.MonkeyPatch.context() as patch:
            sabotage(patch)
            digest, session = _run(compiled, spec, "trace")
            with pytest.raises(AssertionError):
                _against_simple(compiled, spec)
        assert session.cycle is not None
        assert (digest.status, reference.status) == ("hung", "exited")


class TestDeclines:
    @pytest.fixture
    def built(self, monkeypatch):
        made = []
        original = CycleProbe.__init__

        def spy(self, session, spec):
            made.append(spec.fault_id)
            original(self, session, spec)

        monkeypatch.setattr(CycleProbe, "__init__", spy)
        return made

    def _hang_ending(self, compiled, spec, engine, **kwargs):
        previous = _trace.set_tracing(True)
        try:
            run = _trace.begin_run("f", "c")
            _, session = _run(compiled, spec, engine, **kwargs)
            payload = _trace.end_run(run)
        finally:
            _trace.set_tracing(previous)
        assert session.cycle is None
        return payload["hang"]

    def test_simple_engine(self, built):
        compiled = _compiled(BOUNDED, "bounded")
        spec = _stuck(_step_store(compiled))
        ending = self._hang_ending(compiled, spec, "simple", inputs={"in_n": 50})
        assert ending == _trace.REASON_SIMPLE_ENGINE and not built

    def test_multi_core(self, built):
        compiled = _compiled(FOREVER, "forever")
        spec = _stuck(_store_at(compiled, 6))
        ending = self._hang_ending(compiled, spec, "trace", num_cores=2)
        assert ending == _trace.REASON_MULTI_CORE and not built

    def test_data_trigger(self, built):
        compiled = _compiled(FOREVER, "forever")
        g = compiled.executable.symbols["g"]
        spec = MachineFault(
            "data", DataAccess(g, on_load=False, on_store=True),
            (Action(StoreValue(), SetValue(9)),),
        )
        ending = self._hang_ending(compiled, spec, "trace")
        assert ending == _trace.REASON_DATA_TRIGGER and not built

    def test_temporal_trigger(self, built):
        compiled = _compiled(FOREVER, "forever")
        spec = MachineFault(
            "temporal", Temporal(50),
            (Action(MemoryWord(compiled.executable.symbols["h"]), SetValue(1)),),
        )
        ending = self._hang_ending(compiled, spec, "trace")
        assert ending == _trace.REASON_TEMPORAL and not built

    def test_state_that_never_repeats(self, built):
        compiled = _compiled(PRINTING, "printing")
        spec = MachineFault(
            "noop", OpcodeFetch(_store_at(compiled, 5)),
            (Action(StoreValue(), Arithmetic(0)),),
        )
        ending = self._hang_ending(compiled, spec, "trace")
        assert ending == _trace.REASON_NO_REPEAT and built == ["noop"]


class TestCampaignPaths:
    def test_snapshot_path_and_trace_report(self, tmp_path):
        compiled = _compiled(BOUNDED, "bounded")
        case = InputCase("in0", {"in_n": 50}, b"147")
        locator = FaultLocator(compiled)
        (step,) = [loc for loc in locator.locations(ASSIGNMENT_CLASS)
                   if loc.site.kind == "incdec"]
        faults = locator.faults_for_location(step, rng=random.Random(0))
        runner = CampaignRunner(compiled, [case])
        base = runner.run(faults, config=CampaignConfig(engine="simple"))
        traced = runner.run(faults, config=CampaignConfig(
            engine="trace", snapshot="auto", trace=True,
            journal_dir=str(tmp_path / "j"),
        ))
        assert traced.records == base.records
        hung = [r for r in traced.records if r.status == "hung"]
        assert hung and {r.provenance for r in hung} == {"extrapolated"}
        report = render_trace_report(build_trace_report(str(tmp_path / "j")))
        assert f"Hung runs: {len(hung)}, ended at the cycle: {len(hung)}" in report
        assert "loop in" in report

    def test_snapshot_run_fast_tags_extrapolated(self):
        compiled = _compiled(BOUNDED, "bounded")
        case = InputCase("in0", {"in_n": 50}, b"147")
        spec = _stuck(_step_store(compiled))
        cache = SnapshotCache(compiled.executable, [spec], engine="trace")
        record = cache.execute(spec, case, BUDGET)
        fresh = execute_injection_run(compiled.executable, spec, case,
                                      budget=BUDGET, engine="simple")
        assert record == fresh and record.provenance == "extrapolated"
        assert cache.last_path[0] == _trace.PATH_SNAPSHOT


def test_fuzz_summary_counts_extrapolated_runs_across_resume(tmp_path):
    from repro.verify import FuzzConfig, run_fuzz

    config = dict(seed=0, cases=18, faults_per_program=4, inputs_per_program=1,
                  record_tier=False, journal_dir=str(tmp_path))
    first = run_fuzz(FuzzConfig(**config))
    assert first.ok() and first.extrapolated_runs > 0
    assert f"extrapolated={first.extrapolated_runs} " in first.summary_lines()[0]
    resumed = run_fuzz(FuzzConfig(**config, resume=True))
    assert resumed.resumed_programs == first.programs
    assert resumed.extrapolated_runs == first.extrapolated_runs
