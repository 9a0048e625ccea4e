"""The trace engine: factory caching, disk code cache, counters.

The bit-identity of ``engine="trace"`` is proven in
``test_engine_equivalence.py``; this module covers the machinery around
it — the bounded :class:`FactoryCache` LRU (ISSUE 8 satellite: the old
unbounded dict grew across a long-lived campaign worker), the on-disk
emitted-code cache keyed by code-word hash, the engine's observability
counters, and that its block tier runs compiled code where no trace
forms.
"""

import random

import pytest

from repro.lang import compile_source
from repro.machine import FactoryCache, TraceEngine, boot, factory_cache_stats
from repro.machine import blocks


LOOP_SOURCE = """
int in_n;
void main() {
    int i; int acc = 0;
    for (i = 0; i < in_n; i++) {
        acc = acc + i;
        if (acc > 100000) { acc = acc - in_n; }
    }
    print_int(acc);
    exit(0);
}
"""


# A loop entered once by `start`'s branch, then from its own back edge.
# `start` and `done` are the code outside the loop.
COLD_LOOP = """
start:
    addi r3, r0, 0
    addi r4, r0, {iterations}
    b loop
loop:
    addi r5, r3, 7
    addi r6, r5, 1
    add r7, r6, r3
    addi r3, r3, 1
    cmp r3, r4
    bc lt, loop
done:
    sc 0
"""
COLD_OUTSIDE = 4  # start's three instructions and done's exit call
COLD_BODY = 6


def _boot_loop(engine="trace", n=2000):
    compiled = compile_source(LOOP_SOURCE, "cache-loop")
    machine = boot(compiled.executable, inputs={"in_n": n}, engine=engine)
    return machine, machine.run(max_instructions=5_000_000)


class TestFactoryCacheLRU:
    def test_eviction_from_the_cold_end(self):
        cache = FactoryCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refreshes "a": "b" is now coldest
        cache.put("c", 3)
        assert len(cache) == 2
        assert cache.evictions == 1
        assert cache.get("b") is None  # evicted
        assert cache.get("a") == 1 and cache.get("c") == 3

    def test_counters_and_stats_shape(self):
        cache = FactoryCache(capacity=4)
        assert cache.get("missing") is None
        cache.put("k", object())
        assert cache.get("k") is not None
        stats = cache.stats()
        assert stats == {"size": 1, "capacity": 4, "hits": 1,
                         "misses": 1, "evictions": 0}

    def test_repeated_put_refreshes_instead_of_duplicating(self):
        cache = FactoryCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 1)  # refresh, not duplicate
        cache.put("c", 3)
        assert cache.get("a") == 1  # survived: "b" was the LRU entry
        assert cache.get("b") is None

    def test_multi_mutant_campaign_stays_under_the_cap(self, monkeypatch):
        """Regression: a source-tier campaign compiles a distinct mutant
        binary per fault; the shared cache must stay bounded."""
        from repro.srcfi import SourceLocator
        from repro.swifi import CampaignConfig, CampaignRunner, InputCase

        monkeypatch.setenv("REPRO_CODE_CACHE", "off")
        bounded = FactoryCache(capacity=8)
        monkeypatch.setattr(blocks, "_FACTORY_CACHE", bounded)

        compiled = compile_source(LOOP_SOURCE, "mutant-cap")
        cases = [InputCase("a", {"in_n": 40}, b"780")]  # sum(0..39)
        faults = SourceLocator(compiled).source_faults(
            max_sites_per_operator=3)
        assert len(faults) >= 6  # enough distinct mutants to overflow 8
        CampaignRunner(compiled, cases).run(
            faults, config=CampaignConfig(tier="source", engine="trace"))
        assert len(bounded) <= 8
        assert bounded.evictions > 0


class TestDiskCodeCache:
    def test_round_trip_and_corruption_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CODE_CACHE", str(tmp_path))
        monkeypatch.setattr(blocks, "_FACTORY_CACHE", FactoryCache())
        monkeypatch.setattr(
            blocks, "_DISK_STATS",
            {"hits": 0, "misses": 0, "stores": 0, "errors": 0})
        monkeypatch.setattr(blocks, "_DISK_COUNTS", {})

        _, first = _boot_loop()
        assert blocks._DISK_STATS["stores"] > 0
        sources = sorted(tmp_path.glob("*.py"))
        binaries = sorted(tmp_path.glob("*.bin"))
        assert sources and len(sources) == len(binaries)

        # A fresh in-memory cache must be served from disk, bit-identically.
        blocks._FACTORY_CACHE.clear()
        before = blocks._DISK_STATS["hits"]
        _, second = _boot_loop()
        assert blocks._DISK_STATS["hits"] > before
        assert (second.console, second.instructions) == \
            (first.console, first.instructions)

        # A wrong-magic .bin (interpreter upgrade) falls back to the
        # stored .py source and still executes correctly.
        for path in binaries:
            data = path.read_bytes()
            path.write_bytes(b"\x00\x00\x00\x00" + data[4:])
        blocks._FACTORY_CACHE.clear()
        _, third = _boot_loop()
        assert (third.console, third.instructions) == \
            (first.console, first.instructions)

    def test_off_switch_disables_the_tier(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CODE_CACHE", "off")
        monkeypatch.setattr(blocks, "_FACTORY_CACHE", FactoryCache())
        monkeypatch.setattr(
            blocks, "_DISK_STATS",
            {"hits": 0, "misses": 0, "stores": 0, "errors": 0})
        _boot_loop()
        assert blocks._DISK_STATS == {"hits": 0, "misses": 0,
                                      "stores": 0, "errors": 0}
        assert not list(tmp_path.iterdir())

    def test_stats_surface_includes_both_tiers(self):
        stats = factory_cache_stats()
        assert {"size", "capacity", "hits", "misses",
                "evictions", "disk"} <= set(stats)
        assert {"hits", "misses", "stores", "errors"} <= set(stats["disk"])


@pytest.mark.usefixtures("fresh_factory_cache")
class TestTraceEngineCounters:
    def test_traces_compile_and_invalidate(self):
        machine, result = _boot_loop(n=500)
        engine = machine.block_engine
        assert isinstance(engine, TraceEngine)
        assert result.status == "exited"
        assert engine.traces_compiled > 0
        assert engine.traces
        machine.debug_write_code(machine.code_base, 0x14 << 26)
        engine._sync()
        assert not engine.traces
        assert not engine._prof

    def test_a_warm_boot_adopts_and_counts(self):
        from repro.observability import trace as obs

        first, cold_result = _boot_loop(n=500)
        cold = first.block_engine
        assert cold.compiled > 0 and cold.traces_compiled > 0
        assert cold.blocks_adopted == cold.traces_adopted == 0
        previous = obs.set_tracing(True)
        try:
            run = obs.begin_run("warm", "c")
            machine, result = _boot_loop(n=500)
            payload = obs.end_run(run)
        finally:
            obs.set_tracing(previous)
        assert (result.console, result.instructions) == \
            (cold_result.console, cold_result.instructions)
        warm = machine.block_engine
        # Everything the first boot compiled is instantiated at this
        # boot's first entries; it compiles nothing itself.
        assert warm.blocks_adopted > 0 and warm.traces_adopted > 0
        assert (warm.compiled, warm.traces_compiled) == (0, 0)
        counters = payload["counters"]
        assert counters["blocks_adopted"] == warm.blocks_adopted
        assert counters["traces_adopted"] == warm.traces_adopted
        assert "blocks_compiled" not in counters
        assert "traces_compiled" not in counters

    def test_threads_sharing_the_tables_run_exactly(self):
        # `repro work --workers N` runs machines in threads of one
        # process, sharing the image tables.  More threads than cores,
        # a short switch interval, and more images than the cache keeps
        # (so that images are evicted while other threads use them):
        # every run must still end where the loop's arithmetic says.
        import sys
        import threading

        from repro.isa import assemble_text
        from repro.machine import Executable

        counts = range(2 * blocks.TRACE_HOT,
                       2 * blocks.TRACE_HOT + blocks._IMAGE_LIMIT + 16)
        executables = {}
        for iterations in counts:
            program = assemble_text(
                COLD_LOOP.format(iterations=iterations), base=0x1000)
            executables[iterations] = Executable(
                code=program.code, entry=0x1000, symbols=program.symbols)
        wrong = []

        def boots(offset):
            order = list(counts)[offset:] + list(counts)[:offset]
            try:
                for iterations in order * 2:
                    machine = boot(executables[iterations], engine="trace")
                    result = machine.run()
                    if (result.exit_code, result.instructions) != (
                            iterations, COLD_OUTSIDE + iterations * COLD_BODY):
                        wrong.append(iterations)
            except Exception as error:  # reported by the assertion below
                wrong.append(repr(error))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=boots, args=(17 * k,))
                       for k in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
        assert len(blocks._FACTORY_CACHE._images) == blocks._IMAGE_LIMIT

    def test_cold_loop_never_forms_a_trace(self):
        # Fewer iterations than TRACE_HOT: stays in block dispatch.
        machine, result = _boot_loop(n=blocks.TRACE_HOT // 2)
        assert result.status == "exited"
        assert machine.block_engine.traces_compiled == 0

    def test_cold_loop_runs_from_its_block_closure(self, monkeypatch):
        # The block tier runs compiled code even where no trace forms:
        # the interpreter retires the code outside the loop and the
        # loop's first iteration (a block's first entry), nothing more.
        from repro.isa import assemble_text
        from repro.machine import Executable
        from repro.machine.cpu import Core

        iterations = blocks.TRACE_HOT // 2
        program = assemble_text(
            COLD_LOOP.format(iterations=iterations), base=0x1000)
        executable = Executable(code=program.code, entry=0x1000,
                                symbols=program.symbols)
        interpreted = []
        simple = Core._run_quantum_simple

        def counting(core, limit):
            retired = simple(core, limit)
            interpreted.append(retired)
            return retired

        monkeypatch.setattr(Core, "_run_quantum_simple", counting)
        machine = boot(executable, engine="trace")
        result = machine.run()
        assert (result.status, result.exit_code) == ("exited", iterations)
        assert result.instructions == COLD_OUTSIDE + iterations * COLD_BODY
        engine = machine.block_engine
        assert engine.traces_compiled == 0 and not engine.traces
        assert callable(engine.blocks[program.symbols["loop"]][1])
        assert sum(interpreted) <= COLD_OUTSIDE + COLD_BODY

    def test_trace_compile_phase_is_declared(self):
        from repro.observability import trace as obs

        assert obs.PHASE_TRACE_COMPILE in obs.PHASES
