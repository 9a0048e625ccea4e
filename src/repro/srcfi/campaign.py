"""Source-tier campaign execution.

:func:`run_source_campaign` is what :meth:`repro.swifi.CampaignRunner.run`
dispatches to for ``CampaignConfig(tier="source")``.  Each
:class:`~repro.srcfi.spec.SourceFault` compiles to a mutant binary
(cached per process) which then runs *fault-free* through the very same
:func:`repro.swifi.campaign.execute_injection_run` unit the machine tier
uses — same calibrated hang budgets (derived from the *original*
program's fault-free runs, so both tiers are judged against the same
clock), same failure-mode classification, same record schema.

Supported execution options: ``jobs`` (process pool over faults),
``journal_dir``/``resume`` (JSONL journal keyed by (fault, case)),
``engine``, ``label``.  ``trace`` and ``telemetry`` are accepted as
no-ops at this tier.  Snapshot restore and the campaign planner reason
about machine-level trigger/action structure that source faults do not
have, so ``snapshot``/``prune``/``memoize`` raise
:class:`~repro.swifi.campaign.CampaignError`.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from typing import Callable

from ..swifi.campaign import (
    SNAPSHOT_OFF,
    CampaignConfig,
    CampaignError,
    CampaignResult,
    CampaignRunner,
    InputCase,
    RunRecord,
    execute_injection_run,
)
from ..persist import JsonlAppender, read_jsonl
from ..swifi.spec import TIER_SOURCE
from .mutator import MutantCache, SourceMutant, SrcfiError, realize_source_fault
from .spec import SourceFault

JOURNAL_NAME = "source_runs.jsonl"


def _check_config(config: CampaignConfig) -> None:
    if config.snapshot != SNAPSHOT_OFF:
        raise CampaignError(
            "snapshot restore is a machine-tier fast path; source-tier "
            "campaigns run mutant binaries and need snapshot='off'"
        )
    if config.prune or config.memoize or config.plan_verify > 0.0:
        raise CampaignError(
            "the campaign planner reasons about machine-level triggers; "
            "it does not apply to tier='source' campaigns"
        )


def _check_faults(faults: list) -> list[SourceFault]:
    for fault in faults:
        if not isinstance(fault, SourceFault):
            raise CampaignError(
                f"tier='source' campaigns take SourceFault specs, got "
                f"{type(fault).__name__} ({getattr(fault, 'fault_id', fault)!r})"
            )
    return faults


def _run_fault(
    mutant: SourceMutant,
    cases: list[InputCase],
    budgets: dict[str, int],
    *,
    num_cores: int,
    quantum: int,
    engine: str,
    wanted: "set[str] | None" = None,
) -> list[RunRecord]:
    """All input cases of one realized mutant, in case order."""
    records: list[RunRecord] = []
    for case in cases:
        if wanted is not None and case.case_id not in wanted:
            continue
        base = execute_injection_run(
            mutant.compiled.executable,
            None,
            case,
            budget=budgets[case.case_id],
            num_cores=num_cores,
            quantum=quantum,
            engine=engine,
        )
        # The mutation is compiled in, so the "fault" is present and
        # active on every instruction: record it as one activation/
        # injection, with the SourceFault's identity and metadata.
        records.append(replace(
            base,
            fault_id=mutant.fault.fault_id,
            metadata=mutant.fault.metadata,
            activations=1,
            injections=1,
        ))
    return records


# -- worker-process plumbing -------------------------------------------------

_WORKER: dict | None = None


def _worker_init(compiled, cases, budgets, num_cores, quantum, engine) -> None:
    global _WORKER
    _WORKER = {
        "compiled": compiled,
        "cases": cases,
        "budgets": budgets,
        "num_cores": num_cores,
        "quantum": quantum,
        "engine": engine,
        "cache": MutantCache(),
    }


def _worker_run(payload: tuple) -> list[RunRecord]:
    fault, wanted = payload
    assert _WORKER is not None
    mutant = realize_source_fault(_WORKER["compiled"], fault, _WORKER["cache"])
    return _run_fault(
        mutant, _WORKER["cases"], _WORKER["budgets"],
        num_cores=_WORKER["num_cores"], quantum=_WORKER["quantum"],
        engine=_WORKER["engine"], wanted=wanted,
    )


def run_source_campaign(
    runner: CampaignRunner,
    faults: list,
    config: CampaignConfig,
    progress: Callable[[int, int], None] | None = None,
) -> CampaignResult:
    """Execute a source-tier campaign through an existing runner, on the
    concrete engine :meth:`CampaignRunner.run` resolved into ``runner.engine``."""
    _check_config(config)
    source_faults = _check_faults(faults)
    engine = runner.engine
    runner.calibrate()  # budgets + golden oracle come from the ORIGINAL binary
    budgets = dict(runner.budgets)
    cases = runner.cases

    journal_path = None
    done: dict[tuple[str, str], RunRecord] = {}
    if config.journal_dir is not None:
        os.makedirs(config.journal_dir, exist_ok=True)
        journal_path = os.path.join(config.journal_dir, JOURNAL_NAME)
        if config.resume:
            for entry in read_jsonl(journal_path):
                if entry.get("type") == "run":
                    record = RunRecord.from_dict(entry["record"])
                    done[(record.fault_id, record.case_id)] = record

    # Which (fault, case) units still need executing?
    pending: list[tuple[SourceFault, set[str] | None]] = []
    for fault in source_faults:
        missing = {
            case.case_id for case in cases
            if (fault.fault_id, case.case_id) not in done
        }
        if missing:
            pending.append(
                (fault, None if len(missing) == len(cases) else missing)
            )

    total = len(source_faults) * len(cases)
    completed = len(done)
    journal = None
    try:
        if journal_path is not None:
            journal = JsonlAppender(journal_path)

        def consume(batch: list[RunRecord]) -> None:
            nonlocal completed
            for record in batch:
                done[(record.fault_id, record.case_id)] = record
                if journal is not None:
                    journal.append({"type": "run", "record": record.to_dict()})
                completed += 1
                if progress is not None:
                    progress(completed, total)

        try:
            if config.jobs == 1 or len(pending) <= 1:
                cache = MutantCache()
                for fault, wanted in pending:
                    mutant = realize_source_fault(runner.compiled, fault, cache)
                    consume(_run_fault(
                        mutant, cases, budgets,
                        num_cores=runner.num_cores, quantum=runner.quantum,
                        engine=engine, wanted=wanted,
                    ))
            else:
                with ProcessPoolExecutor(
                    max_workers=min(config.jobs, len(pending)),
                    initializer=_worker_init,
                    initargs=(runner.compiled, cases, budgets,
                              runner.num_cores, runner.quantum, engine),
                ) as pool:
                    for batch in pool.map(_worker_run, pending):
                        consume(batch)
        except SrcfiError as error:
            raise CampaignError(str(error)) from error
    finally:
        if journal is not None:
            journal.close()

    result = CampaignResult(program=runner.compiled.name)
    for fault in source_faults:
        for case in cases:
            key = (fault.fault_id, case.case_id)
            if key not in done:
                raise CampaignError(
                    f"source campaign lost run {key}"
                )  # pragma: no cover - defensive
            result.records.append(done[key])
    return result
