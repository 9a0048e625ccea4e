"""The shard worker: one fresh process per shard of injection runs.

The paper reboots the target machine between injections; every run
boots a fresh simulated machine (or restores a proven-equivalent
snapshot).  The pool strengthens it the way a real farm would: every shard
is executed by a **fresh worker process**, so not even interpreter state
(caches, allocator, a corrupted C extension…) can leak between shards —
and a worker that dies takes only its own shard's un-journaled runs with
it.

Everything a worker needs rides in one picklable :class:`ShardTask`; the
worker streams one message per completed run back through the result
queue and finishes with a ``shard-done`` marker.  The supervisor treats
a missing marker (dead process, exceeded deadline) as a shard failure
and retries only the runs whose messages never arrived.

The run loop itself — snapshot/planner cache setup, per-run execution,
trace capture — is :func:`execute_shard_runs`, the only campaign run loop
for the machine tier: pool workers, the distributed service's workers
(:mod:`repro.service.worker`) and the orchestrator's in-process ``jobs=1``
path all call it, so a shard means exactly the same thing whether it
arrived through a ``multiprocessing`` queue, over the broker's HTTP lease
protocol, or never left the campaign process.
"""

from __future__ import annotations

import os
import time
import traceback
from dataclasses import dataclass
from typing import Callable, Sequence

from ..machine.loader import Executable
from ..observability import trace as _trace
from ..machine.machine import resolve_engine
from ..swifi.campaign import (
    CampaignConfig,
    InputCase,
    RunRecord,
    execute_injection_run,
)
from ..swifi.faults import MachineFault

#: Message tags on the result queue.
MSG_RUN = "run"          # (MSG_RUN, shard_id, run_index, record_dict, trace|None)
MSG_DONE = "done"        # (MSG_DONE, shard_id, attempt)
MSG_ERROR = "error"      # (MSG_ERROR, shard_id, traceback_text)

#: Exit code used by the crash-simulation hook (tests / supervision drills).
CRASH_EXIT_CODE = 17


@dataclass(frozen=True)
class ShardTask:
    """One shard's worth of work, shipped whole to a fresh process.

    ``faults``/``cases`` are compacted to just the specs this shard
    references; ``runs`` maps each serial run index to positions in those
    tuples.  ``seed`` is the shard's private RNG stream (derived by the
    scheduler from the campaign seed), kept separate per shard so results
    never depend on how the campaign was partitioned.
    """

    shard_id: int
    attempt: int
    program: str
    executable: Executable
    num_cores: int
    quantum: int
    budgets: dict[str, int]
    faults: tuple[MachineFault | None, ...]
    cases: tuple[InputCase, ...]
    runs: tuple[tuple[int, int, int], ...]  # (run_index, fault_pos, case_pos)
    seed: int
    snapshot: str = "off"  # golden-run restore policy; cache built in-process
    trace: bool = False    # per-run span tracing (repro.observability)
    engine: str = CampaignConfig.engine  # execution engine for every run
    # -- campaign planner (repro.planning); cache built in-process ------
    prune: bool = False
    memoize: bool = False
    memo_dir: str | None = None
    plan_verify: float = 0.0
    # -- supervision drill hooks (exercised by the test suite) ----------
    crash_after_runs: int | None = None
    crash_attempts: int = 0
    stall_seconds: float = 0.0
    stall_attempts: int = 0

    def should_crash(self, sent: int) -> bool:
        return (
            self.crash_after_runs is not None
            and self.attempt <= self.crash_attempts
            and sent >= self.crash_after_runs
        )

    def should_stall(self) -> bool:
        return self.stall_seconds > 0 and self.attempt <= self.stall_attempts


def build_shard_task(
    *,
    shard_id: int,
    attempt: int,
    indices: Sequence[int],
    program: str,
    executable: Executable,
    faults: Sequence[MachineFault],
    cases: Sequence[InputCase],
    budgets: dict[str, int],
    num_cores: int,
    quantum: int,
    seed: int,
    snapshot: str = "off",
    trace: bool = False,
    engine: str = CampaignConfig.engine,
    prune: bool = False,
    memoize: bool = False,
    memo_dir: str | None = None,
    plan_verify: float = 0.0,
    crash_after_runs: int | None = None,
    crash_attempts: int = 0,
    stall_seconds: float = 0.0,
    stall_attempts: int = 0,
) -> ShardTask:
    """Compact one shard of run *indices* into a self-contained task.

    *faults*/*cases* are the full campaign matrix; the task ships only
    the specs this shard references, with ``runs`` mapping each serial
    run index to positions in the compacted tuples.  Shared by the
    ``multiprocessing`` supervisor and the service broker so a shard is
    built identically wherever it executes; *engine* is resolved here,
    so a task always names a concrete engine.
    """
    from .scheduler import pair_for_index

    fault_positions: dict[int, int] = {}
    case_positions: dict[int, int] = {}
    task_faults: list[MachineFault] = []
    task_cases: list[InputCase] = []
    runs: list[tuple[int, int, int]] = []
    for index in sorted(indices):
        fault_index, case_index = pair_for_index(index, len(cases))
        if fault_index not in fault_positions:
            fault_positions[fault_index] = len(task_faults)
            task_faults.append(faults[fault_index])
        if case_index not in case_positions:
            case_positions[case_index] = len(task_cases)
            task_cases.append(cases[case_index])
        runs.append((index, fault_positions[fault_index], case_positions[case_index]))
    return ShardTask(
        shard_id=shard_id,
        attempt=attempt,
        program=program,
        executable=executable,
        num_cores=num_cores,
        quantum=quantum,
        budgets={case.case_id: budgets[case.case_id] for case in task_cases},
        faults=tuple(task_faults),
        cases=tuple(task_cases),
        runs=tuple(runs),
        seed=seed,
        snapshot=snapshot,
        trace=trace,
        engine=resolve_engine(engine),
        prune=prune,
        memoize=memoize,
        memo_dir=memo_dir,
        plan_verify=plan_verify,
        crash_after_runs=crash_after_runs,
        crash_attempts=crash_attempts,
        stall_seconds=stall_seconds,
        stall_attempts=stall_attempts,
    )


def execute_shard_runs(
    task: ShardTask,
    emit: Callable[[int, RunRecord, dict | None], None],
) -> None:
    """Execute every run of *task*, calling ``emit`` per completed run.

    ``emit(run_index, record, trace_payload)`` is invoked in serial-index
    order the moment each run finishes; raising from it aborts the shard
    (the service worker uses that to abandon a lease it has lost).  The
    snapshot and planner caches are built fresh for this task and torn
    down afterwards — exactly the per-worker isolation the pool workers
    have always had.
    """
    previous_tracing = None
    if task.trace:
        previous_tracing = _trace.set_tracing(True)
    snapshots = None
    if task.snapshot != "off":
        # Built fresh per task: snapshots are shared by every run of
        # this shard but never cross a process boundary.
        from ..swifi.snapshot import SnapshotCache

        snapshots = SnapshotCache(
            task.executable,
            task.faults,
            num_cores=task.num_cores,
            quantum=task.quantum,
            policy=task.snapshot,
            engine=task.engine,
        )
    planner = None
    try:
        if task.prune or task.memoize:
            # Built fresh per task like the snapshot cache; workers
            # share outcomes only through the on-disk memo directory.
            from ..planning import PlannerCache

            planner = PlannerCache(
                task.executable,
                task.faults,
                num_cores=task.num_cores,
                quantum=task.quantum,
                engine=task.engine,
                prune=task.prune,
                memoize=task.memoize,
                memo_dir=task.memo_dir,
                verify_fraction=task.plan_verify,
                seed=task.seed,
            )
        for run_index, fault_pos, case_pos in task.runs:
            spec = task.faults[fault_pos]
            case = task.cases[case_pos]
            record = execute_injection_run(
                task.executable,
                spec,
                case,
                budget=task.budgets[case.case_id],
                num_cores=task.num_cores,
                quantum=task.quantum,
                snapshots=snapshots,
                engine=task.engine,
                planner=planner,
            )
            payload = _trace.take_completed() if task.trace else None
            emit(run_index, record, payload)
    finally:
        if planner is not None:
            planner.close()
        if previous_tracing is not None:
            _trace.set_tracing(previous_tracing)


def shard_worker_main(task: ShardTask, queue) -> None:
    """Entry point of a worker process: execute the shard, stream results."""
    sent = 0

    def emit(run_index: int, record: RunRecord, payload: dict | None) -> None:
        nonlocal sent
        queue.put((MSG_RUN, task.shard_id, run_index, record.to_dict(), payload))
        sent += 1
        if task.should_crash(sent):
            _die_abruptly(queue)

    try:
        if task.should_stall():
            time.sleep(task.stall_seconds)  # a "hung" worker for the deadline drill
        execute_shard_runs(task, emit)
        queue.put((MSG_DONE, task.shard_id, task.attempt))
    except BaseException:
        queue.put((MSG_ERROR, task.shard_id, traceback.format_exc()))
        _drain_and_exit(queue, 1)
        return
    _drain_and_exit(queue, 0)


def _drain_and_exit(queue, code: int) -> None:
    """Flush the queue's feeder thread, then exit without cleanup races."""
    queue.close()
    queue.join_thread()
    os._exit(code)


def _die_abruptly(queue) -> None:
    """Simulate a worker crash *after* flushing already-sent messages."""
    queue.close()
    queue.join_thread()
    os._exit(CRASH_EXIT_CODE)
