"""The campaign orchestrator: sharded worker pool with supervision.

This is the host-side "experiment management software" scaled out: the
(fault × case) matrix is partitioned by the scheduler, each shard runs
in a fresh worker process (:mod:`.worker`), every completed run is
journaled (:mod:`.journal`) the moment its message arrives, and the
telemetry aggregator (:mod:`.telemetry`) keeps live rates and tallies.
At ``jobs=1`` the pending runs form one shard, executed in this process
by the same :func:`.worker.execute_shard_runs` loop the workers run.

Supervision contract:

* a worker that exits without its ``shard-done`` marker — crash, kill,
  unpicklable explosion — or that exceeds the per-shard wall-clock
  deadline is terminated and its shard retried with **only the runs
  whose results never arrived**;
* after ``max_retries`` retries the shard's remaining runs are recorded
  as failed in the journal and the campaign *continues* — one bad shard
  cannot abort 100k runs;
* the merged :class:`CampaignResult` lists records in serial order, so
  any ``--jobs`` value yields bit-identical aggregated results.
"""

from __future__ import annotations

import multiprocessing
import queue as queue_module
import time
from dataclasses import dataclass, field as dataclass_field
from typing import TYPE_CHECKING, Callable

from ..swifi.campaign import CampaignConfig, CampaignResult, InputCase, RunRecord
# Not called here: the end-to-end benchmark's layer tracer wraps this name.
from ..swifi.campaign import execute_injection_run  # noqa: F401
from ..swifi.faults import MachineFault
from .journal import CampaignJournal, JournalState, campaign_fingerprint
from .scheduler import Shard, plan_shards
from .telemetry import (
    NullSink,
    TelemetryAggregator,
    TelemetrySink,
    TelemetrySnapshot,
)
from .worker import (
    MSG_DONE,
    MSG_ERROR,
    MSG_RUN,
    ShardTask,
    build_shard_task,
    execute_shard_runs,
    shard_worker_main,
)

if TYPE_CHECKING:  # pragma: no cover
    from ..swifi.campaign import CampaignRunner

#: Grace period between noticing a dead worker and declaring its shard
#: crashed — messages the worker flushed right before dying may still be
#: in the queue's pipe buffer.
DEAD_WORKER_GRACE = 0.5

#: Supervisor poll interval.
POLL_INTERVAL = 0.05


class CampaignInterrupted(RuntimeError):
    """Raised when the orchestrator is stopped before the campaign ends.

    The journal is already closed and consistent when this propagates;
    re-running with ``resume=True`` continues from the journaled state.
    """

    def __init__(self, message: str, completed_runs: int, total_runs: int) -> None:
        super().__init__(message)
        self.completed_runs = completed_runs
        self.total_runs = total_runs


@dataclass(frozen=True)
class OrchestratorOptions:
    """Everything that shapes *how* a campaign executes (never *what*)."""

    jobs: int = 1
    journal_dir: str | None = None
    resume: bool = False
    seed: int = 0
    snapshot: str = "off"                   # golden-run restore fast path
    trace: bool = False                     # per-run span tracing
    engine: str = CampaignConfig.engine     # machine execution engine
    prune: bool = False                     # planner: dormant-fault pruning
    memoize: bool = False                   # planner: outcome memoization
    memo_dir: str | None = None             # planner: on-disk memo (JSONL)
    plan_verify: float = 0.0                # planner: re-execute sample
    shard_size: int | None = None
    max_retries: int = 2
    shard_deadline: float | None = None     # seconds per shard attempt
    interrupt_after: int | None = None      # stop after N newly executed runs
    #: Supervision drill: shard_id → (crashing attempts, crash after N runs).
    crash_shards: dict[int, tuple[int, int]] = dataclass_field(default_factory=dict)
    #: Supervision drill: shard_id → (stalling attempts, stall seconds).
    stall_shards: dict[int, tuple[int, float]] = dataclass_field(default_factory=dict)


@dataclass
class OrchestratorOutcome:
    """The merged campaign result plus orchestration bookkeeping."""

    result: CampaignResult
    snapshot: TelemetrySnapshot
    failed_runs: dict[int, str] = dataclass_field(default_factory=dict)
    resumed_runs: int = 0
    executed_runs: int = 0


@dataclass
class _ShardState:
    shard: Shard
    attempt: int = 1
    remaining: set[int] = dataclass_field(default_factory=set)
    process: multiprocessing.process.BaseProcess | None = None
    started_at: float = 0.0
    done: bool = False
    dead_since: float | None = None

    def __post_init__(self) -> None:
        if not self.remaining:
            self.remaining = set(self.shard.run_indices)


class CampaignOrchestrator:
    """Executes one campaign matrix through the sharded worker pool."""

    def __init__(
        self,
        *,
        program: str,
        executable,
        cases: list[InputCase],
        faults: list[MachineFault],
        budgets: dict[str, int],
        num_cores: int = 1,
        quantum: int = 64,
        options: OrchestratorOptions | None = None,
        telemetry: TelemetrySink | None = None,
        progress: Callable[[int, int], None] | None = None,
        label: str | None = None,
    ) -> None:
        if not cases:
            raise ValueError("a campaign needs at least one input case")
        self.program = program
        self.executable = executable
        self.cases = list(cases)
        self.faults = list(faults)
        self.budgets = dict(budgets)
        self.num_cores = num_cores
        self.quantum = quantum
        self.options = options or OrchestratorOptions()
        self.telemetry = telemetry or NullSink()
        # Per-run snapshots cost a rate computation and a dict; build them
        # only when some sink will look at them.
        self._live_telemetry = not isinstance(self.telemetry, NullSink)
        self.progress = progress
        self.label = label or program
        self.total_runs = len(self.faults) * len(self.cases)

    @classmethod
    def from_runner(
        cls,
        runner: "CampaignRunner",
        faults: list[MachineFault],
        *,
        options: OrchestratorOptions | None = None,
        telemetry: TelemetrySink | None = None,
        progress: Callable[[int, int], None] | None = None,
        label: str | None = None,
    ) -> "CampaignOrchestrator":
        """Build an orchestrator from a calibrated :class:`CampaignRunner`."""
        runner.calibrate()
        return cls(
            program=runner.compiled.name,
            executable=runner.compiled.executable,
            cases=runner.cases,
            faults=faults,
            budgets=runner.budgets,
            num_cores=runner.num_cores,
            quantum=runner.quantum,
            options=options,
            telemetry=telemetry,
            progress=progress,
            label=label,
        )

    # ------------------------------------------------------------------

    def _fingerprint(self) -> dict:
        return campaign_fingerprint(
            program=self.program,
            seed=self.options.seed,
            fault_ids=[spec.fault_id for spec in self.faults],
            case_ids=[case.case_id for case in self.cases],
        )

    def _notify_progress(self, completed: int) -> None:
        if self.progress is not None:
            self.progress(completed, self.total_runs)

    # ------------------------------------------------------------------

    def run(self) -> OrchestratorOutcome:
        journal: CampaignJournal | None = None
        state = JournalState()
        if self.options.journal_dir is not None:
            journal = CampaignJournal(self.options.journal_dir, self._fingerprint())
            state = journal.open(resume=self.options.resume)
        # Drop journaled indices outside this campaign (fingerprint match
        # makes this impossible in practice, but stay defensive).
        completed = {
            index: record
            for index, record in state.records.items()
            if 0 <= index < self.total_runs
        }
        pending = [index for index in range(self.total_runs) if index not in completed]

        aggregator = TelemetryAggregator(
            label=self.label,
            total_runs=self.total_runs,
            workers=max(1, self.options.jobs),
            resumed=completed,
            tracing=self.options.trace,
        )
        self.telemetry.begin(aggregator.snapshot())
        self._notify_progress(len(completed))

        failed: dict[int, str] = {}
        try:
            if self.options.jobs <= 1:
                self._run_inline(pending, completed, journal, aggregator)
            else:
                self._run_pool(pending, completed, failed, journal, aggregator)
            if journal is not None:
                from ..planning.plan import plan_from_records

                plan = plan_from_records(
                    completed[index]
                    for index in sorted(completed)
                    if index not in failed
                )
                journal.append_plan(plan.to_dict())
        finally:
            if journal is not None:
                journal.close()

        result = CampaignResult(program=self.program)
        result.records = [
            completed[index] for index in sorted(completed) if index not in failed
        ]
        snapshot = aggregator.snapshot()
        self.telemetry.finish(snapshot)
        return OrchestratorOutcome(
            result=result,
            snapshot=snapshot,
            failed_runs=failed,
            resumed_runs=aggregator.resumed_runs,
            executed_runs=aggregator.executed,
        )

    def _task(self, *, shard_id: int, attempt: int, indices, seed: int,
              **drills) -> ShardTask:
        """A shard task over *indices* under this campaign's options."""
        options = self.options
        return build_shard_task(
            shard_id=shard_id,
            attempt=attempt,
            indices=indices,
            program=self.program,
            executable=self.executable,
            faults=self.faults,
            cases=self.cases,
            budgets=self.budgets,
            num_cores=self.num_cores,
            quantum=self.quantum,
            seed=seed,
            snapshot=options.snapshot,
            trace=options.trace,
            engine=options.engine,
            prune=options.prune,
            memoize=options.memoize,
            memo_dir=options.memo_dir,
            plan_verify=options.plan_verify,
            **drills,
        )

    def _complete(
        self,
        run_index: int,
        record: RunRecord,
        trace_payload: dict | None,
        completed: dict[int, RunRecord],
        journal: CampaignJournal | None,
        aggregator: TelemetryAggregator,
    ) -> None:
        """Book one finished run: journal, telemetry, progress, interrupt."""
        completed[run_index] = record
        if journal is not None:
            journal.append_record(run_index, record)
            if trace_payload is not None:
                journal.append_trace(run_index, trace_payload)
        aggregator.record_run(record, trace=trace_payload)
        if self._live_telemetry:
            self.telemetry.update(aggregator.snapshot())
        self._notify_progress(len(completed))
        if (
            self.options.interrupt_after is not None
            and aggregator.executed >= self.options.interrupt_after
        ):
            raise CampaignInterrupted(
                f"campaign stopped after {aggregator.executed} runs "
                "(interrupt_after)",
                len(completed),
                self.total_runs,
            )

    # -- inline (jobs=1) path ------------------------------------------

    def _run_inline(
        self,
        pending: list[int],
        completed: dict[int, RunRecord],
        journal: CampaignJournal | None,
        aggregator: TelemetryAggregator,
    ) -> None:
        """Run every pending index as one shard, in this process.

        The same :func:`execute_shard_runs` loop the pool and service
        workers run, with the campaign seed as the shard's stream.
        """
        if not pending:
            return
        task = self._task(shard_id=0, attempt=1, indices=pending,
                          seed=self.options.seed)

        def emit(run_index: int, record: RunRecord, trace_payload: dict | None) -> None:
            self._complete(run_index, record, trace_payload, completed,
                           journal, aggregator)

        execute_shard_runs(task, emit)

    # -- parallel path --------------------------------------------------

    def _make_task(self, state: _ShardState) -> ShardTask:
        crash_attempts, crash_after = self.options.crash_shards.get(
            state.shard.shard_id, (0, 0)
        )
        stall_attempts, stall_seconds = self.options.stall_shards.get(
            state.shard.shard_id, (0, 0.0)
        )
        return self._task(
            shard_id=state.shard.shard_id,
            attempt=state.attempt,
            indices=sorted(state.remaining),
            seed=state.shard.seed,
            crash_after_runs=crash_after if crash_attempts else None,
            crash_attempts=crash_attempts,
            stall_seconds=stall_seconds,
            stall_attempts=stall_attempts,
        )

    def _run_pool(
        self,
        pending: list[int],
        completed: dict[int, RunRecord],
        failed: dict[int, str],
        journal: CampaignJournal | None,
        aggregator: TelemetryAggregator,
    ) -> None:
        shards = plan_shards(
            pending,
            jobs=self.options.jobs,
            campaign_seed=self.options.seed,
            shard_size=self.options.shard_size,
        )
        if not shards:
            return
        context = multiprocessing.get_context()
        results = context.Queue()
        waiting = [_ShardState(shard) for shard in shards]
        active: dict[int, _ShardState] = {}
        states = {state.shard.shard_id: state for state in waiting}

        def launch(state: _ShardState) -> None:
            task = self._make_task(state)
            process = context.Process(
                target=shard_worker_main,
                args=(task, results),
                name=f"repro-shard-{state.shard.shard_id}.{state.attempt}",
                daemon=True,
            )
            state.process = process
            state.started_at = time.monotonic()
            state.dead_since = None
            process.start()
            active[state.shard.shard_id] = state

        def finalize(state: _ShardState) -> None:
            if state.process is not None:
                state.process.join(timeout=5)
                state.process = None
            active.pop(state.shard.shard_id, None)
            if journal is not None:
                journal.sync()

        def retry_or_fail(state: _ShardState, reason: str) -> None:
            finalize(state)
            if not state.remaining:
                state.done = True
                return
            if state.attempt > self.options.max_retries:
                indices = sorted(state.remaining)
                for index in indices:
                    failed[index] = reason
                if journal is not None:
                    journal.append_shard_failure(state.shard.shard_id, indices, reason)
                aggregator.record_failures(len(indices))
                state.done = True
                self.telemetry.update(aggregator.snapshot())
                return
            state.attempt += 1
            aggregator.record_retry()
            waiting.append(state)

        def terminate_all() -> None:
            for state in list(active.values()):
                if state.process is not None and state.process.is_alive():
                    state.process.terminate()
            for state in list(active.values()):
                if state.process is not None:
                    state.process.join(timeout=5)
                    state.process = None
            active.clear()

        try:
            while waiting or active:
                while waiting and len(active) < self.options.jobs:
                    launch(waiting.pop(0))

                try:
                    message = results.get(timeout=POLL_INTERVAL)
                except queue_module.Empty:
                    message = None

                if message is not None:
                    tag = message[0]
                    if tag == MSG_RUN:
                        _, shard_id, run_index, payload, trace_payload = message
                        states[shard_id].remaining.discard(run_index)
                        self._complete(
                            run_index, RunRecord.from_dict(payload),
                            trace_payload, completed, journal, aggregator,
                        )
                    elif tag == MSG_DONE:
                        _, shard_id, _attempt = message
                        state = states[shard_id]
                        state.done = True
                        finalize(state)
                    elif tag == MSG_ERROR:
                        _, shard_id, trace = message
                        state = states[shard_id]
                        retry_or_fail(state, f"worker exception:\n{trace}")
                    continue  # drain the queue before health checks

                now = time.monotonic()
                for state in list(active.values()):
                    if state.done:
                        continue
                    process = state.process
                    deadline = self.options.shard_deadline
                    if (
                        deadline is not None
                        and process is not None
                        and process.is_alive()
                        and now - state.started_at > deadline
                    ):
                        process.terminate()
                        process.join(timeout=5)
                        retry_or_fail(
                            state,
                            f"shard exceeded {deadline:.1f}s wall-clock deadline",
                        )
                        continue
                    if process is not None and not process.is_alive():
                        # Give flushed-but-unread messages time to arrive.
                        if state.dead_since is None:
                            state.dead_since = now
                        elif now - state.dead_since > DEAD_WORKER_GRACE:
                            code = process.exitcode
                            retry_or_fail(
                                state, f"worker died with exit code {code}"
                            )
        except BaseException:
            terminate_all()
            raise
        finally:
            results.close()
            results.join_thread()
