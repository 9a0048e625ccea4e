"""The campaign default engine and the compiled engine's set-up costs.

``CampaignConfig`` defaults to ``engine="auto"``: single-core programs
run on the trace engine, multi-core ones on the interpreter, and every
record stays bit-identical to ``engine="simple"``.  The compiled engine
interprets a block's first entry and compiles it on the second, and
hashes its code generators once per process.
"""

import os
import random
import subprocess
import sys

import pytest

from repro.emulation import ASSIGNMENT_CLASS, CHECKING_CLASS
from repro.emulation.rules import generate_error_set
from repro.experiments import ExperimentConfig
from repro.experiments.campaign6 import iter_section6_campaigns
from repro.isa import assemble_text, ins
from repro.lang import compile_source
from repro.machine import (
    ENGINE_AUTO,
    ENGINE_SIMPLE,
    ENGINE_TRACE,
    ENGINES,
    Executable,
    Machine,
    blocks,
    boot,
    resolve_engine,
)
from repro.orchestrator.worker import build_shard_task
from repro.planning import plan_from_records
from repro.swifi import (
    Action,
    CampaignConfig,
    CampaignRunner,
    CodeWord,
    InputCase,
    MachineFault,
    OpcodeFetch,
    RegisterTarget,
    SetValue,
    WhenPolicy,
)
from repro.swifi.campaign import execute_injection_run

SRC = os.path.join(os.path.dirname(__file__), "..", "src")

# `start` runs once and falls into `loop`; `loop` is entered from its
# own back edge once per further iteration.
LOOP = """
start:
    addi r3, r0, 0
    addi r4, r0, {iterations}
loop:
    addi r5, r3, 7
    addi r6, r5, 1
    add r7, r6, r3
    addi r3, r3, 1
    cmp r3, r4
    bc lt, loop
    sc 0
"""


def _loop_executable(iterations):
    program = assemble_text(LOOP.format(iterations=iterations), base=0x1000)
    return Executable(code=program.code, entry=0x1000,
                      symbols=program.symbols), program.symbols


class TestResolveEngine:
    def test_auto_is_trace_on_one_core_and_simple_on_more(self):
        assert resolve_engine(ENGINE_AUTO, 1) == ENGINE_TRACE
        for cores in (2, 4):
            assert resolve_engine(ENGINE_AUTO, cores) == ENGINE_SIMPLE

    def test_explicit_engines_are_honoured(self):
        for engine in ENGINES:
            for cores in (1, 4):
                assert resolve_engine(engine, cores) == engine

    def test_auto_is_the_campaign_default_only(self):
        assert CampaignConfig().engine == ENGINE_AUTO
        with pytest.raises(ValueError, match="engine"):
            Machine(engine=ENGINE_AUTO)
        executable, _ = _loop_executable(3)
        with pytest.raises(ValueError, match="engine"):
            boot(executable, engine=ENGINE_AUTO)
        with pytest.raises(ValueError, match="engine"):
            CampaignConfig(engine="warp")

    def test_block_is_not_an_engine(self):
        assert ENGINES == (ENGINE_SIMPLE, ENGINE_TRACE)
        with pytest.raises(ValueError, match="must be one of"):
            Machine(engine="block")
        with pytest.raises(ValueError, match="must be one of.*'auto'"):
            CampaignConfig(engine="block")

    def test_shard_tasks_name_a_concrete_engine(self):
        executable, _ = _loop_executable(3)
        case = InputCase("a", {}, b"")
        for cores, expected in ((1, ENGINE_TRACE), (4, ENGINE_SIMPLE)):
            task = build_shard_task(
                shard_id=0, attempt=1, indices=[0], program="loop",
                executable=executable, faults=[None], cases=[case],
                budgets={"a": 1000}, num_cores=cores, quantum=64, seed=0,
            )
            assert task.engine == expected
        task = build_shard_task(
            shard_id=0, attempt=1, indices=[0], program="loop",
            executable=executable, faults=[None], cases=[case],
            budgets={"a": 1000}, num_cores=4, quantum=64, seed=0,
            engine=ENGINE_TRACE,
        )
        assert task.engine == ENGINE_TRACE


def _slice(program, klass, *, inputs, locations):
    config = ExperimentConfig(campaign_inputs=inputs, location_fraction=0.0,
                              min_locations=locations)
    (spec,) = iter_section6_campaigns(config, programs=[program],
                                      classes=(klass,))
    return spec.runner, spec.error_set.faults


class TestDefaultRecordsMatchTheInterpreter:
    @pytest.mark.parametrize("program, klass, inputs, locations, engine", [
        ("JB.team6", ASSIGNMENT_CLASS, 3, 3, ENGINE_TRACE),
        ("SOR", CHECKING_CLASS, 1, 2, ENGINE_SIMPLE),
    ])
    def test_default_config_equals_simple(self, program, klass, inputs,
                                          locations, engine):
        runner, faults = _slice(program, klass, inputs=inputs,
                                locations=locations)
        reference = runner.run(faults, config=CampaignConfig(engine="simple"))
        default = runner.run(faults, config=CampaignConfig())
        assert runner.engine == engine
        assert default.records == reference.records
        assert len(default.records) == len(faults) * inputs


COMPILED_ENGINES = [engine for engine in ENGINES if engine != ENGINE_SIMPLE]


@pytest.mark.usefixtures("fresh_factory_cache")
class TestCompileOnSecondEntry:
    @pytest.mark.parametrize("engine", COMPILED_ENGINES)
    def test_once_entered_block_is_never_compiled(self, engine):
        executable, symbols = _loop_executable(3)
        machine = boot(executable, engine=engine)
        result = machine.run()
        assert (result.status, result.exit_code) == ("exited", 3)
        compiled = machine.block_engine
        # `start` (entered once) ran in the interpreter; `loop` (entered
        # twice, from its back edge) was compiled on its second entry.
        assert compiled.blocks[symbols["start"]][1] is None
        assert callable(compiled.blocks[symbols["loop"]][1])
        assert compiled.compiled == 1

    @pytest.mark.parametrize("engine", COMPILED_ENGINES)
    def test_single_pass_compiles_nothing(self, engine):
        executable, _ = _loop_executable(1)
        machine = boot(executable, engine=engine)
        machine.run()
        assert machine.block_engine.compiled == 0

    def _second_boot(self, clear):
        executable, symbols = _loop_executable(3)
        assert boot(executable, engine=ENGINE_TRACE).run().exit_code == 3
        if clear:
            blocks._FACTORY_CACHE.clear()
        machine = boot(executable, engine=ENGINE_TRACE)
        result = machine.run()
        assert (result.status, result.exit_code) == ("exited", 3)
        return machine.block_engine, symbols

    def test_a_second_boot_adopts_the_loop_at_its_first_entry(self):
        compiled, symbols = self._second_boot(clear=False)
        # The first boot compiled `loop`; this one instantiates it at
        # its own first entry and compiles nothing itself.
        assert (compiled.blocks_adopted, compiled.compiled) == (1, 0)
        assert callable(compiled.blocks[symbols["loop"]][1])
        # `start`, entered once per boot, is still never compiled.
        assert compiled.blocks[symbols["start"]][1] is None

    def test_a_cleared_cache_boots_cold(self):
        compiled, _ = self._second_boot(clear=True)
        assert (compiled.blocks_adopted, compiled.compiled) == (0, 1)


class TestCodeRewrite:
    def test_code_word_fault_after_the_scan_matches_simple(self):
        # Two boots of one executable, the second carrying a fault that
        # turns a mid-block `add` into `b +1` (a no-op that ends a block)
        # after `loop` was scanned and compiled with its original length.
        executable, symbols = _loop_executable(40)
        loop = symbols["loop"]
        rewrite = MachineFault(
            "rewrite", OpcodeFetch(loop),
            (Action(CodeWord(loop + 8), SetValue(ins.b(1).encode())),),
            when=WhenPolicy.nth(5),
        )
        case = InputCase("a", {}, b"")
        records = {}
        for engine in (ENGINE_SIMPLE, ENGINE_TRACE):
            records[engine] = [
                execute_injection_run(executable, spec, case, budget=10_000,
                                      engine=engine)
                for spec in (None, rewrite)
            ]
        assert records[ENGINE_TRACE] == records[ENGINE_SIMPLE]
        assert records[ENGINE_SIMPLE][1].injections == 1


def _adopt_across_watches(patch):
    """Sabotage: a machine adopts known blocks and traces whatever pcs
    it fetch-watches."""
    patch.setattr(blocks.TraceEngine, "_clear_of_watches",
                  lambda self, span: True)


def _publish_rewritten_code(patch):
    """Sabotage: a machine keeps reading and publishing its image's table
    after a debug write changed its code mirror."""
    patch.setattr(blocks, "_shared_image", lambda machine: machine._image)


def _watched_inside_a_known_block():
    """Records, on `simple` and `trace`, of a run whose fault fires on
    the fifth fetch of a pc W inside `loop`, after a golden run on
    `trace` published `loop`'s block and trace."""
    executable, symbols = _loop_executable(40)
    watched = symbols["loop"] + 8
    fault = MachineFault(
        "interior", OpcodeFetch(watched),
        (Action(RegisterTarget(3), SetValue(100)),),
        when=WhenPolicy.nth(5),
    )
    case = InputCase("a", {}, b"")
    golden = execute_injection_run(executable, None, case, budget=10_000,
                                   engine=ENGINE_TRACE)
    assert golden.exit_code == 40
    return [execute_injection_run(executable, fault, case, budget=10_000,
                                  engine=engine)
            for engine in (ENGINE_SIMPLE, ENGINE_TRACE)]


def _boot_after_a_rewrite():
    """Final state, per engine, of a fault-free boot that follows a
    `trace` run whose `CodeWord` fault rewrote `loop`'s third word (an
    `add`) into `b +1` at the run's first fetch."""
    from tests.test_engine_equivalence import final_state

    executable, symbols = _loop_executable(40)
    rewrite = MachineFault(
        "rewrite", OpcodeFetch(symbols["start"]),
        (Action(CodeWord(symbols["loop"] + 8), SetValue(ins.b(1).encode())),),
        when=WhenPolicy.nth(1),
    )
    case = InputCase("a", {}, b"")
    faulty = execute_injection_run(executable, rewrite, case, budget=10_000,
                                   engine=ENGINE_TRACE)
    assert faulty.injections == 1
    states = []
    for engine in ENGINES:
        machine = boot(executable, engine=engine)
        states.append(final_state(machine, machine.run()))
    return states


class TestWarmBootSabotage:
    """Each rule that keeps warm boots exact, sabotaged, shows; undoing
    the sabotage restores identical records and state."""

    @staticmethod
    def _run(outcome, sabotage=None):
        with pytest.MonkeyPatch.context() as patch:
            patch.setenv("REPRO_CODE_CACHE", "off")
            patch.setattr(blocks, "_FACTORY_CACHE", blocks.FactoryCache())
            if sabotage is not None:
                sabotage(patch)
            return outcome()

    def test_adopting_across_a_fetch_watch_is_caught(self):
        simple, trace = self._run(_watched_inside_a_known_block,
                                  _adopt_across_watches)
        assert (simple.injections, simple.exit_code) == (1, 101)
        # The adopted block and trace run over W: the fault never fires.
        assert (trace.injections, trace.exit_code) == (0, 40)
        simple, trace = self._run(_watched_inside_a_known_block)
        assert trace == simple and simple.injections == 1

    def test_publishing_rewritten_code_is_caught(self):
        simple, trace = self._run(_boot_after_a_rewrite,
                                  _publish_rewritten_code)
        assert simple["status"] == "exited"
        # The fault-free boot adopts the rewritten `loop` from the table.
        assert trace != simple
        simple, trace = self._run(_boot_after_a_rewrite)
        assert trace == simple


class TestEmitterFingerprint:
    @pytest.mark.parametrize("owner, name", [
        ("_Emitter", "_emit_xo"),
        ("_TraceEmitter", "emit_guard"),
    ])
    def test_replacing_an_emitter_method_changes_it(self, monkeypatch,
                                                   owner, name):
        before = blocks._emitter_fingerprint()
        assert blocks._emitter_fingerprint() == before
        cls = getattr(blocks, owner)
        original = getattr(cls, name)

        def replaced(self, *args):
            return original(self, *args)

        monkeypatch.setattr(cls, name, replaced)
        assert blocks._emitter_fingerprint() != before
        monkeypatch.undo()
        assert blocks._emitter_fingerprint() == before

    @pytest.mark.parametrize("name", ["_memory_slow_path", "_bind_memory"])
    def test_replacing_the_memory_helpers_changes_it(self, monkeypatch, name):
        # Emitted code calls these by position: a disk entry built
        # against the old ones must not be served.
        before = blocks._emitter_fingerprint()
        original = getattr(blocks, name)

        def replaced(*args):
            return original(*args)

        monkeypatch.setattr(blocks, name, replaced)
        assert blocks._emitter_fingerprint() != before
        monkeypatch.undo()
        assert blocks._emitter_fingerprint() == before


    def test_the_frame_decision_is_part_of_the_trace_key(self, tmp_path,
                                                         monkeypatch):
        # A disk entry emitted while traces had no frame slots must not
        # be served to traces that have them: the frame decision is in
        # the trace factory's key, so the second run emits afresh.
        monkeypatch.setenv("REPRO_CODE_CACHE", str(tmp_path))
        compiled = compile_source(TestMemoKeysIgnoreTheEngine.SOURCE,
                                  "frame-key")

        def traces_with_frames():
            monkeypatch.setattr(blocks, "_FACTORY_CACHE", blocks.FactoryCache())
            machine = boot(compiled.executable, inputs={"in_n": 200},
                           engine=ENGINE_TRACE)
            assert machine.run().status == "exited"
            runs = [run for _count, run in machine.block_engine.traces.values()
                    if run is not None]
            assert runs
            return sum("_s0" in run.__code__.co_varnames for run in runs)

        with monkeypatch.context() as patch:
            patch.setattr(blocks, "_analyze_frame",
                          lambda steps, looping: (None, False))
            assert traces_with_frames() == 0
        assert traces_with_frames() > 0


class TestMemoKeysIgnoreTheEngine:
    SOURCE = """
    int in_n;
    void main() {
        int i; int acc = 0;
        for (i = 0; i < in_n; i++) { acc = acc + i * 3; }
        print_int(acc);
        exit(0);
    }
    """

    def test_simple_memo_serves_a_trace_campaign(self, tmp_path):
        compiled = compile_source(self.SOURCE, "memo-engines")
        cases = [InputCase("a", {"in_n": 30}, b"1305"),
                 InputCase("b", {"in_n": 7}, b"63")]
        faults = generate_error_set(compiled, ASSIGNMENT_CLASS,
                                    max_locations=3,
                                    rng=random.Random(5)).faults
        runner = CampaignRunner(compiled, cases)
        memo_dir = str(tmp_path / "memo")
        filled = runner.run(faults, config=CampaignConfig(
            engine="simple", memoize=True, memo_dir=memo_dir))
        served = runner.run(faults, config=CampaignConfig(
            engine="trace", memoize=True, memo_dir=memo_dir))
        assert plan_from_records(served.records).memoized == len(served.records)
        assert served.records == filled.records


class TestTable1Seeds:
    def test_input_seeds_do_not_depend_on_the_hash_seed(self):
        code = ("from repro.experiments.table1 import input_seed\n"
                "from repro.workloads import table1_workloads\n"
                "print([input_seed(2000, w.name) for w in table1_workloads()])")
        outputs = set()
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=SRC)
            outputs.add(subprocess.run(
                [sys.executable, "-c", code], env=env, check=True,
                capture_output=True, text=True,
            ).stdout)
        assert len(outputs) == 1
