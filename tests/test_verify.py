"""Tests for the differential verification subsystem (repro.verify).

The headline test is the *mutation test*: sabotage the block tier's
multiply superinstruction, run the fuzzer, and require that the
cross-engine oracle catches it, the shrinker gets the repro under ten
statements, and the written artifact replays — failing while the bug is
in place and passing once it is removed.
"""

import contextlib
import json
import random

import pytest

from repro.lang import compile_source
from repro.machine import blocks, boot
from repro.machine.machine import ENGINE_SIMPLE, ENGINE_TRACE
from repro.isa.encoding import NOP_WORD
from repro.swifi.campaign import InputCase
from repro.swifi.faults import (
    Action,
    FetchedWord,
    MachineFault,
    OpcodeFetch,
    SetValue,
    WhenPolicy,
)
from repro.swifi.injector import InjectionSession
from repro.verify import (
    DifferentialOracle,
    MachineFaultRecipe,
    FuzzConfig,
    MatrixConfig,
    full_matrix,
    generate_pokes,
    generate_program,
    load_artifact,
    replay_artifact,
    run_fuzz,
    run_state,
    sample_descriptors,
    shrink_case,
    write_artifact,
)
from repro.verify.fuzzer import GOLDEN_BUDGET, build_cases
from repro.verify.generator import GenProgram, Stmt, line


# ---------------------------------------------------------------------------
# Generator
# ---------------------------------------------------------------------------


class TestGenerator:
    def test_same_seed_same_program(self):
        assert generate_program(7, 3).render() == generate_program(7, 3).render()
        assert generate_program(7, 3).render() != generate_program(7, 4).render()

    def test_generated_programs_compile_and_exit_cleanly(self):
        rng = random.Random("verify-tests:inputs")
        for index in range(6):
            program = generate_program(11, index)
            compiled = compile_source(program.render(), program.name)
            machine = boot(compiled.executable, inputs=dict(generate_pokes(rng)))
            result = machine.run(GOLDEN_BUDGET)
            assert result.status == "exited", program.render()
            assert result.exit_code == 0

    def test_clone_is_deep(self):
        program = generate_program(1, 0)
        clone = program.clone()
        clone.main.clear()
        assert program.main  # original untouched

    def test_bodies_are_live_lists(self):
        program = generate_program(3, 2)
        before = program.statement_count()
        program.bodies()[-1].clear()  # mutating a returned list edits the program
        assert program.statement_count() < before


# ---------------------------------------------------------------------------
# Sampler
# ---------------------------------------------------------------------------


class TestSampler:
    def test_sampling_is_deterministic(self):
        a = sample_descriptors(random.Random("s"), 20)
        b = sample_descriptors(random.Random("s"), 20)
        assert [d.fault_id() for d in a] == [d.fault_id() for d in b]

    def test_descriptors_are_unique(self):
        descriptors = sample_descriptors(random.Random(5), 30)
        ids = [d.fault_id() for d in descriptors]
        assert len(set(ids)) == len(ids)

    def test_dict_round_trip(self):
        for descriptor in sample_descriptors(random.Random(9), 25):
            back = MachineFaultRecipe.from_dict(descriptor.to_dict())
            assert back == descriptor
            assert back.fault_id() == descriptor.fault_id()

    def test_descriptors_realize_against_a_generated_program(self):
        program = generate_program(2, 0)
        compiled = compile_source(program.render(), program.name)
        realized = 0
        for descriptor in sample_descriptors(random.Random(2), 10):
            try:
                spec = descriptor.realize(compiled, golden_instructions=50_000)
            except Exception:
                continue
            assert spec.fault_id == descriptor.fault_id()
            realized += 1
        assert realized >= 5  # the sampler should mostly produce realizable faults


# ---------------------------------------------------------------------------
# Oracle
# ---------------------------------------------------------------------------


def _compiled_case(seed=0, index=0):
    program = generate_program(seed, index)
    compiled = compile_source(program.render(), program.name)
    cases = build_cases(compiled, seed, index, 1)
    return program, compiled, cases


class TestOracle:
    def test_full_matrix_covers_every_axis(self):
        matrix = full_matrix((1, 4))
        assert len(matrix) == 2 * 3 * 2 * 2  # engines x snapshots x jobs x planner
        labels = {config.label() for config in matrix}
        assert len(labels) == len(matrix)

    def test_golden_run_agrees_across_engines(self):
        _, compiled, cases = _compiled_case()
        oracle = DifferentialOracle(compiled, cases, matrix=[])
        divergence, digests = oracle.check_state(None, cases[0],
                                                 budget=GOLDEN_BUDGET)
        assert divergence is None
        assert digests[ENGINE_SIMPLE] == digests[ENGINE_TRACE]

    def test_digest_captures_console_and_state(self):
        _, compiled, cases = _compiled_case()
        digest = run_state(compiled.executable, None, cases[0],
                           budget=GOLDEN_BUDGET, engine=ENGINE_SIMPLE)
        assert digest.status == "exited"
        assert digest.instructions > 0
        assert len(digest.console_sha) == 64
        assert len(digest.state_sha) == 64

    def test_record_tier_agrees_on_clean_program(self):
        _, compiled, cases = _compiled_case(seed=1)
        oracle = DifferentialOracle(
            compiled, cases,
            matrix=[MatrixConfig(engine=ENGINE_TRACE, snapshot="auto", jobs=1)],
        )
        descriptors = sample_descriptors(random.Random("record-tier"), 4)
        faults = []
        for descriptor in descriptors:
            try:
                faults.append(descriptor.realize(compiled, 50_000))
            except Exception:
                continue
        assert faults
        assert oracle.check_records(faults) == []


# ---------------------------------------------------------------------------
# Shrinker
# ---------------------------------------------------------------------------


def _marker_program(padding: int = 30) -> GenProgram:
    body = [line(f"int pad{i} = {i}") for i in range(padding)]
    body.append(Stmt("if", cond="in0 < 99",
                     body=[line("int marker = 1234"), line("print_int(marker)")],
                     orelse=[line("print_int(0)")]))
    body.extend(line(f"int tail{i} = {i}") for i in range(padding))
    body.append(line("exit(0)"))
    return GenProgram(name="marker", seed=0, index=0, functions=[], main=body)


class TestShrinker:
    def test_shrinks_to_the_failing_statement(self):
        program = _marker_program()

        def still_fails(candidate, descriptor):
            return "marker" in candidate.render()

        result = shrink_case(program, None, still_fails, max_checks=400)
        assert "marker" in result.program.render()
        assert result.statements_after <= 3
        assert result.statements_before == program.statement_count()

    def test_failed_removal_restores_survivors(self):
        # Regression: rolling back a chunk removal must re-INSERT the
        # removed statements, not overwrite their neighbours.  If restore
        # loses statements, the final program cannot keep all three
        # markers the predicate demands.
        body = [line(f"int a{i} = {i}") for i in range(8)]
        body.insert(2, line("int keep0 = 0"))
        body.insert(5, line("int keep1 = 1"))
        body.append(line("int keep2 = 2"))
        program = GenProgram(name="keepers", seed=0, index=0, functions=[],
                             main=body)

        def still_fails(candidate, descriptor):
            rendered = candidate.render()
            return all(f"keep{i}" in rendered for i in range(3))

        result = shrink_case(program, None, still_fails, max_checks=400)
        rendered = result.program.render()
        assert all(f"keep{i}" in rendered for i in range(3))
        assert result.statements_after == 3

    def test_respects_check_budget(self):
        program = _marker_program(padding=50)
        checks = 0

        def still_fails(candidate, descriptor):
            nonlocal checks
            checks += 1
            return "marker" in candidate.render()

        result = shrink_case(program, None, still_fails, max_checks=10)
        assert result.checks <= 10
        assert checks <= 10


# ---------------------------------------------------------------------------
# Artifacts
# ---------------------------------------------------------------------------


class TestArtifacts:
    def test_write_and_load_round_trip(self, tmp_path):
        program, compiled, cases = _compiled_case()
        oracle = DifferentialOracle(compiled, cases, matrix=[])
        divergence, _ = oracle.check_state(None, cases[0], budget=GOLDEN_BUDGET)
        assert divergence is None
        # Fabricate a divergence record to exercise persistence.
        from repro.verify.oracle import Divergence
        fake = Divergence(
            tier="state", program=program.name, fault_id="golden",
            case_id=cases[0].case_id,
            config_a=MatrixConfig(), config_b=MatrixConfig(engine=ENGINE_TRACE),
            detail_a={"status": "exited"}, detail_b={"status": "trapped"},
            fields=("status",),
        )
        paths = write_artifact(tmp_path, ordinal=0, divergence=fake,
                               program=program, descriptor=None, case=cases[0])
        json_path, script_path = paths
        assert json_path.exists() and script_path.exists()
        payload = json.loads(json_path.read_text())
        assert payload["schema"] == 1
        assert payload["source"] == program.render()
        loaded = load_artifact(json_path)
        assert loaded.tier == "state"
        assert loaded.case.pokes == cases[0].pokes
        assert "replay_artifact" in script_path.read_text()

    def test_unknown_schema_rejected(self, tmp_path):
        bad = tmp_path / "artifact.json"
        bad.write_text(json.dumps({"schema": 99}))
        with pytest.raises(ValueError, match="schema"):
            load_artifact(bad)


# ---------------------------------------------------------------------------
# Fuzzer end-to-end + the mutation test
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def broken_block_multiply():
    """Sabotage the block tier's code generator: every multiply is off by
    one."""
    original = blocks._Emitter._emit_xo

    def sabotaged(self, k, rd, ra, rb, subop):
        if subop == blocks.XO_MUL:
            a = self.read(ra)
            b = self.read(rb)
            self.write(rd, f"(({a} * {b}) + 1) & 0xFFFFFFFF")
        else:
            original(self, k, rd, ra, rb, subop)

    blocks._Emitter._emit_xo = sabotaged
    blocks._FACTORY_CACHE.clear()
    try:
        yield
    finally:
        blocks._Emitter._emit_xo = original
        blocks._FACTORY_CACHE.clear()


@contextlib.contextmanager
def broken_trace_guard():
    """Sabotage the superblock tier: side-exit guards are dropped, so a
    trace follows its predicted path even when the branch disagrees."""
    original = blocks._TraceEmitter.emit_guard
    hot, edge = blocks.TRACE_HOT, blocks.TRACE_MIN_EDGE

    def sabotaged(self, k, cond, predicted_taken, exit_off):
        return None  # guard elided: the unlikely direction is never taken

    blocks._TraceEmitter.emit_guard = sabotaged
    # Lower the heat thresholds so the fuzzer's short loops form traces.
    blocks.TRACE_HOT, blocks.TRACE_MIN_EDGE = 4, 2
    blocks._FACTORY_CACHE.clear()
    try:
        yield
    finally:
        blocks._TraceEmitter.emit_guard = original
        blocks.TRACE_HOT, blocks.TRACE_MIN_EDGE = hot, edge
        blocks._FACTORY_CACHE.clear()


class TestTraceGuardMutation:
    """The fuzzer must catch a sabotaged superblock side-exit guard."""

    GUARDED_LOOP = """
    int in_n;
    void main() {
        int i; int acc = 0;
        for (i = 0; i < in_n; i++) {
            if (i % 37 == 5) { acc = acc + 1000; }
            acc = acc + i;
        }
        print_int(acc);
        exit(0);
    }
    """

    def _states(self):
        compiled = compile_source(self.GUARDED_LOOP, "guarded-loop")
        states = []
        for engine in (ENGINE_SIMPLE, "trace"):
            machine = boot(compiled.executable, inputs={"in_n": 300},
                           engine=engine)
            result = machine.run(max_instructions=2_000_000)
            states.append((result.status, result.console, machine.instret))
        return states

    def test_fuzzer_catches_sabotaged_side_exit_guard(self):
        with broken_trace_guard():
            # Deterministic repro: a 97%-biased branch forms a trace whose
            # guard would fire on the minority iterations.
            simple, trace = self._states()
            assert trace != simple, "elided guard went unnoticed"
            # And the seeded fuzzer's state oracle catches it unaided.
            report = run_fuzz(FuzzConfig(seed=0, cases=60,
                                         inputs_per_program=1,
                                         faults_per_program=2,
                                         record_tier=False,
                                         max_divergences=1))
            assert not report.ok(), "sabotaged guard went undetected"
            assert report.divergences[0].tier == "state"
        # Reverting the sabotage restores bit-identical execution.
        simple, trace = self._states()
        assert trace == simple


class TestFrameAliasMutation:
    """The fuzzer must catch a trace that keeps its cached frame slots
    across a store through a pointer to a local."""

    def test_fuzzer_catches_kept_frame_slots(self):
        from tests.test_engine_equivalence import _keep_cached_slots

        # The state tier's golden run of the first generated program with
        # such a store catches it; the record tier, which would only
        # repeat that on every configuration, is left out to save time.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(blocks, "_FACTORY_CACHE", blocks.FactoryCache())
            _keep_cached_slots(patch)
            report = run_fuzz(FuzzConfig(seed=0, cases=200, record_tier=False,
                                         max_divergences=1, shrink=False))
            assert not report.ok(), "kept frame slots went undetected"
            assert report.divergences[0].tier == "state"
        # The same campaign agrees on every program it reached once the
        # sabotage is reverted.
        report = run_fuzz(FuzzConfig(seed=0, cases=report.state_cases,
                                     record_tier=False))
        assert report.ok() and report.aliased_traces > 0


class TestWatchAdoptionMutation:
    """The fuzzer must catch a machine that adopts a block or trace
    another machine compiled over one of its fetch-watched pcs."""

    def test_fuzzer_catches_adoption_across_a_watch(self):
        from tests.test_engine_auto import _adopt_across_watches

        # The state tier boots every program many times, so a fault
        # run's watch falls inside code an earlier run published.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(blocks, "_FACTORY_CACHE", blocks.FactoryCache())
            _adopt_across_watches(patch)
            report = run_fuzz(FuzzConfig(seed=0, cases=200, record_tier=False,
                                         max_divergences=1, shrink=False))
            assert not report.ok(), "adoption across a watch went undetected"
            assert report.divergences[0].tier == "state"
        # The same campaign agrees on every program it reached once the
        # sabotage is reverted, and it did adopt.
        report = run_fuzz(FuzzConfig(seed=0, cases=report.state_cases,
                                     record_tier=False))
        assert report.ok() and report.adopted > 0


@contextlib.contextmanager
def overshooting_fast_forward():
    """Sabotage the hang extrapolation: one period too many is skipped."""
    original = InjectionSession._fast_forward

    def sabotaged(self, period, budget_end):
        original(self, period, budget_end + period[0])

    InjectionSession._fast_forward = sabotaged
    try:
        yield
    finally:
        InjectionSession._fast_forward = original


@contextlib.contextmanager
def ignored_when_policy():
    """Sabotage the hang extrapolation: the cycle probe samples from the
    first activation, whatever the when-policy has still to do."""
    original = WhenPolicy.settled_from
    WhenPolicy.settled_from = lambda self: 1
    try:
        yield
    finally:
        WhenPolicy.settled_from = original


class TestHangExtrapolationMutation:
    """The fuzzer must catch a sabotaged fast-forward of a stationary hang."""

    STUCK_LOOP = """
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

    def _states(self, when):
        compiled = compile_source(self.STUCK_LOOP, "stuck-loop")
        (step,) = [site for site in compiled.debug.assignments
                   if site.kind == "incdec"]
        spec = MachineFault(
            "stuck", OpcodeFetch(step.address),
            (Action(FetchedWord(), SetValue(NOP_WORD)),), when=when,
        )
        case = InputCase("in0", {"in_n": 50}, b"")
        return [run_state(compiled.executable, spec, case, budget=100_000,
                          engine=engine)
                for engine in (ENGINE_SIMPLE, "trace")]

    @pytest.mark.parametrize("sabotage, when", [
        (overshooting_fast_forward, WhenPolicy.every()),
        # the loop is stuck for 40 passes, then runs to its exit
        (ignored_when_policy, WhenPolicy(2, 40)),
    ])
    def test_fuzzer_catches_sabotaged_fast_forward(self, sabotage, when):
        with sabotage():
            simple, trace = self._states(when)
            assert trace != simple, "sabotaged fast-forward went unnoticed"
            # And the seeded fuzzer's state oracle catches it unaided.
            report = run_fuzz(FuzzConfig(seed=0, cases=60,
                                         inputs_per_program=1,
                                         faults_per_program=4,
                                         record_tier=False,
                                         max_divergences=1, shrink=False))
            assert not report.ok(), "sabotaged fast-forward went undetected"
            assert report.divergences[0].tier == "state"
        # Reverting the sabotage restores bit-identical execution.
        simple, trace = self._states(when)
        assert trace == simple


@contextlib.contextmanager
def broken_range_stop():
    """Sabotage the range closures: each runs one instruction past its
    requested end (and a whole-block range stops short of its
    terminator)."""
    original = blocks._generate_range_source

    def sabotaged(decoded):
        return original(decoded).replace("if n == ", "if n - 1 == ")

    blocks._generate_range_source = sabotaged
    blocks._FACTORY_CACHE.clear()
    try:
        yield
    finally:
        blocks._generate_range_source = original
        blocks._FACTORY_CACHE.clear()


class TestRangeClosureMutation:
    """Range closures run only on multi-core machines, so only the state
    tier's multi-core leg can catch a sabotaged one; its divergence
    names the machine, and shrinking and replay run on that machine."""

    def test_fuzzer_catches_a_range_running_past_its_end(self, tmp_path):
        config = FuzzConfig(seed=0, cases=60, inputs_per_program=1,
                            faults_per_program=2, record_tier=False,
                            max_divergences=1, artifact_dir=tmp_path)
        with broken_range_stop():
            report = run_fuzz(config)
            assert not report.ok(), "sabotaged range closure went undetected"
            divergence = report.divergences[0]
            assert divergence.tier == "state"
            assert (divergence.config_b.cores, divergence.config_b.quantum) \
                == (2, 7)
            shrink = report.shrinks[0]
            assert shrink.statements_after < shrink.statements_before
            json_path = report.artifacts[0]
            assert replay_artifact(json_path) is not None
        assert replay_artifact(json_path) is None
        # The same campaign agrees once the sabotage is reverted.
        report = run_fuzz(FuzzConfig(seed=0, cases=report.state_cases,
                                     inputs_per_program=1,
                                     faults_per_program=2, record_tier=False))
        assert report.ok() and report.multicore > 0


class TestFuzzer:
    def test_small_clean_campaign(self):
        report = run_fuzz(FuzzConfig(seed=3, cases=12, inputs_per_program=1,
                                     faults_per_program=4, record_tier=False))
        assert report.ok()
        assert report.state_cases >= 12
        assert report.programs >= 1
        assert report.total_runs > 0
        assert any("no divergences" in l for l in report.summary_lines())

    def test_time_budget_stops_early(self):
        report = run_fuzz(FuzzConfig(seed=4, cases=10_000, time_budget=0.0,
                                     record_tier=False))
        assert report.stopped_early
        assert report.state_cases < 10_000

    def test_mutation_is_caught_shrunk_and_replayable(self, tmp_path):
        # Acceptance criterion: an intentionally-seeded engine bug must be
        # caught by the oracle and shrunk to a <=10-statement repro.
        config = FuzzConfig(seed=0, cases=60, inputs_per_program=1,
                            faults_per_program=2, record_tier=False,
                            max_divergences=1, artifact_dir=tmp_path)
        with broken_block_multiply():
            report = run_fuzz(config)
            assert not report.ok(), "sabotaged multiply went undetected"
            divergence = report.divergences[0]
            assert divergence.tier == "state"
            assert report.shrinks, "divergence was not shrunk"
            shrink = report.shrinks[0]
            assert shrink.statements_after <= 10
            assert shrink.statements_after < shrink.statements_before
            assert report.artifacts, "no artifact written"
            json_path = report.artifacts[0]
            # While the bug is live the artifact must reproduce ...
            assert replay_artifact(json_path) is not None
        # ... and once the sabotage is reverted it must resolve.
        assert replay_artifact(json_path) is None


@pytest.mark.slow
class TestFuzzSweep:
    """The CI verify-fuzz smoke, runnable locally with ``-m slow``."""

    def test_seeded_sweep_over_the_full_matrix(self, tmp_path):
        report = run_fuzz(FuzzConfig(seed=0, cases=200, time_budget=60.0,
                                     artifact_dir=tmp_path))
        assert report.ok(), "\n".join(report.summary_lines())
        assert report.state_cases > 0 and report.record_campaigns > 0
        assert report.extrapolated_runs > 0
