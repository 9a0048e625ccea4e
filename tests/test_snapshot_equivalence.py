"""The snapshot fast path must be bit-identical to fresh boot.

ISSUE acceptance: a §6 campaign with ``snapshot="auto"`` produces per-run
outcomes identical to the fresh-boot path, serially and at ``jobs=4``;
ineligible faults (temporal triggers, trap-insertion mode, multi-core)
silently fall back to fresh boot; ``verify`` cross-checks both paths at
runtime; and a campaign killed mid-way resumes from its journal with
snapshots enabled.
"""

import pytest

from repro.emulation import ASSIGNMENT_CLASS, CHECKING_CLASS
from repro.emulation.rules import generate_error_set
from repro.lang import compile_source
from repro.machine import ENGINES
from repro.orchestrator import (
    CampaignInterrupted,
    CampaignOrchestrator,
    OrchestratorOptions,
)
from repro.swifi import (
    MODE_TRAP,
    Action,
    Arithmetic,
    BitFlip,
    CampaignConfig,
    CampaignRunner,
    DataAccess,
    MachineFault,
    InputCase,
    LoadValue,
    OpcodeFetch,
    RegisterTarget,
    SnapshotCache,
    StoreValue,
    Temporal,
    WhenPolicy,
    trigger_events,
)

import random

SOURCE = """
int in_x;
int unused_global;

void main() {
    int i;
    int total = 0;
    for (i = 0; i < in_x; i++) {
        total = total + i;
    }
    print_int(total);
    exit(0);
}
"""


@pytest.fixture(scope="module")
def small():
    compiled = compile_source(SOURCE, "sumloop")
    cases = [
        InputCase("a", {"in_x": 10}, b"45"),
        InputCase("b", {"in_x": 3}, b"3"),
    ]
    return compiled, cases


def fresh_runner(compiled, cases):
    return CampaignRunner(compiled, cases)


def mixed_fault_set(compiled):
    """One fault per eligibility class: fetch, data, temporal, trap-mode,
    and a dormant trigger that never fires."""
    site = compiled.debug.assignments[0]
    in_x = compiled.executable.symbols["in_x"]
    unused = compiled.executable.symbols["unused_global"]
    return [
        MachineFault("fetch", OpcodeFetch(site.address),
                  (Action(StoreValue(), Arithmetic(1)),)),
        MachineFault("data-load", DataAccess(in_x, on_load=True),
                  (Action(LoadValue(), Arithmetic(2)),)),
        MachineFault("temporal", Temporal(40),
                  (Action(RegisterTarget(9), BitFlip(3)),),
                  when=WhenPolicy.once()),
        MachineFault("trap-mode", OpcodeFetch(site.address),
                  (Action(StoreValue(), Arithmetic(1)),), mode=MODE_TRAP),
        MachineFault("dormant", DataAccess(unused, on_load=True, on_store=True),
                  (Action(LoadValue(), BitFlip(1)),)),
    ]


class TestEligibility:
    def test_trigger_events_classification(self, small):
        compiled, _ = small
        faults = {spec.fault_id: spec for spec in mixed_fault_set(compiled)}
        assert trigger_events(faults["fetch"]) is not None
        assert trigger_events(faults["data-load"]) is not None
        assert trigger_events(faults["temporal"]) is None
        assert trigger_events(faults["trap-mode"]) is None

    def test_multicore_cache_declines_everything(self, small):
        compiled, _ = small
        faults = mixed_fault_set(compiled)
        cache = SnapshotCache(compiled.executable, faults, num_cores=2)
        assert not any(cache.wants(spec) for spec in faults)

    def test_cache_rejects_off_policy(self, small):
        compiled, _ = small
        with pytest.raises(ValueError):
            SnapshotCache(compiled.executable, [], policy="off")


class TestSerialEquivalence:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_mixed_faults_bit_identical_with_fallbacks(self, small, engine):
        compiled, cases = small
        faults = mixed_fault_set(compiled)
        baseline = fresh_runner(compiled, cases).run(faults)
        fast = fresh_runner(compiled, cases).run(
            faults, config=CampaignConfig(snapshot="auto", engine=engine)
        )
        assert fast.records == baseline.records

    def test_cache_stats_show_fast_dormant_and_fallback(self, small):
        compiled, cases = small
        faults = mixed_fault_set(compiled)
        runner = fresh_runner(compiled, cases)
        runner.calibrate()
        cache = SnapshotCache(compiled.executable, faults)
        from repro.swifi.campaign import execute_injection_run

        for spec in faults:
            for case in cases:
                execute_injection_run(
                    compiled.executable, spec, case,
                    budget=runner.budgets[case.case_id], snapshots=cache,
                )
        assert cache.stats["fast"] == 4       # fetch + data-load, both cases
        assert cache.stats["dormant"] == 2    # unused_global is never touched
        assert cache.stats["fallback"] == 0   # temporal/trap never reach it

    @pytest.mark.parametrize("engine", ENGINES)
    def test_verify_policy_runs_clean(self, small, engine):
        compiled, cases = small
        faults = mixed_fault_set(compiled)
        baseline = fresh_runner(compiled, cases).run(faults)
        verified = fresh_runner(compiled, cases).run(
            faults, config=CampaignConfig(snapshot="verify", engine=engine)
        )
        assert verified.records == baseline.records


class TestErrorSetEquivalence:
    @pytest.mark.parametrize("klass", [ASSIGNMENT_CLASS, CHECKING_CLASS])
    def test_table3_error_sets_bit_identical(self, klass):
        """Every Table-3 error type the §6.3 rules generate, fresh vs fast."""
        from repro.workloads import get_workload

        workload = get_workload("JB.team11")
        compiled = workload.compiled()
        cases = workload.make_cases(2, seed=77)
        error_set = generate_error_set(
            compiled, klass, max_locations=5, rng=random.Random(13)
        )
        assert error_set.faults
        baseline = CampaignRunner(compiled, cases).run(error_set.faults)
        fast = CampaignRunner(compiled, cases).run(
            error_set.faults, config=CampaignConfig(snapshot="auto")
        )
        assert fast.records == baseline.records


class TestOrchestratedEquivalence:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_jobs4_with_snapshots_matches_serial_fresh(self, small, engine):
        compiled, cases = small
        faults = mixed_fault_set(compiled)
        baseline = fresh_runner(compiled, cases).run(faults)
        parallel = fresh_runner(compiled, cases).run(
            faults,
            config=CampaignConfig(jobs=4, seed=11, snapshot="auto", engine=engine),
        )
        assert parallel.records == baseline.records

    def test_kill_and_resume_with_snapshots(self, small, tmp_path):
        compiled, cases = small
        faults = mixed_fault_set(compiled)
        serial = fresh_runner(compiled, cases).run(faults)
        runner = fresh_runner(compiled, cases)
        journal_dir = str(tmp_path / "journal")

        def orchestrate(**options):
            orchestrator = CampaignOrchestrator.from_runner(
                runner, faults,
                options=OrchestratorOptions(
                    jobs=2, seed=11, shard_size=2, snapshot="auto",
                    journal_dir=journal_dir, **options,
                ),
            )
            return orchestrator.run()

        with pytest.raises(CampaignInterrupted) as info:
            orchestrate(interrupt_after=3)
        journaled = info.value.completed_runs
        assert 0 < journaled < len(serial.records)

        outcome = orchestrate(resume=True)
        assert outcome.resumed_runs == journaled
        assert outcome.executed_runs == len(serial.records) - journaled
        assert outcome.result.records == serial.records
