#!/usr/bin/env python3
"""End-to-end §6 campaign benchmark with a per-layer time breakdown.

Runs named slices of the paper's §6 campaigns through the public entry
point ``repro.experiments.run_section6`` with ``CampaignConfig`` defaults,
prints every end-to-end metric with its unit (median, Q1/Q3, n), checks
the records, and with ``--trace 1`` splits wall time across the layers::

    python3 benchmarks/e2e/run.py --seed 2000 --reps 5 --trace 1 --out results/e2e
    python3 benchmarks/e2e/run.py --workload camelot-long --seed 7 --seconds 15 --trace 0

Every repetition runs in a fresh Python process (``rep.py``) with its own
empty ``REPRO_CODE_CACHE``.  Repetitions run one at a time and rotate
through the selected workloads, W1 W2 … W1 W2 …, for ``--reps`` rounds
or until ``--seconds`` have passed.  After each workload's report comes
one JSON line in the shape ``BENCHMARK.json``'s contract asks for; the
exit code is non-zero when any check fails.  See README.md beside this
file.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
REP = os.path.join(HERE, "rep.py")
WORK = os.path.join(ROOT, ".e2e-work")
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")
DIGESTS = os.path.join(HERE, "digests.json")

sys.path.insert(0, HERE)
from rep import comparable  # noqa: E402

#: Runs per workload and invocation re-executed under the reference path.
CROSS_CHECK_RUNS = 4
#: A repetition that takes longer than this is killed and counts as failed.
REP_TIMEOUT_S = 150
#: ``run_section6`` options taken from ``CampaignConfig()`` unless a
#: workload or ``--override`` sets them.
CAMPAIGN_OPTIONS = ("jobs", "engine", "snapshot", "prune", "memoize", "plan_verify")
#: Choosing every possible fault location makes the fault set independent
#: of the seed, so the seed varies only the input data sets.
EVERY_LOCATION = {"min_locations": 1000}
#: Median of ``rep.host_probe()`` on the reference host, a 2-vCPU x86-64
#: VM with nothing else running.  Time-based end-to-end metrics are
#: reported in reference-host seconds: each repetition's times are scaled
#: by this over its own probe median, so a neighbour that slows the host
#: for minutes does not read as a regression.
PROBE_REFERENCE_S = 0.022


@dataclass(frozen=True)
class Workload:
    """One §6 slice: what runs (programs, classes, sizes) and how."""

    programs: tuple[str, ...]
    experiment: dict                      # ExperimentConfig fields besides seed
    campaign: dict = field(default_factory=dict)  # explicit run_section6 options
    classes: tuple[str, ...] = ("assignment", "checking")
    journal: bool = False                 # a fresh journal_dir per repetition
    memo_rerun: bool = False              # re-run on a copy of a filled memo dir


WORKLOADS = {
    # C.team1 is the recursive program: ~2.5 M instructions per run, so
    # nearly all time is machine execution.  One input and one location
    # per class keep a repetition near 5 s.
    "camelot-long": Workload(
        ("C.team1",),
        {"campaign_inputs": 1, "location_fraction": 0.0, "min_locations": 1},
    ),
    # SOR runs on 4 simulated cores, so single-core fast paths decline
    # every run: the control for them, and the multi-core scheduler's load.
    # Every checking location (35 faults) fixes the run count, which also
    # fixes peak RSS: machines live until a full GC, so it grows per run.
    "sor-multicore": Workload(
        ("SOR",), {"campaign_inputs": 2, **EVERY_LOCATION}, classes=("checking",),
    ),
    # ~1.7 k instructions per run: fixed per-run costs dominate (boot,
    # classify, pool IPC, journal append and fsync, telemetry).
    "jamesb-short-pool": Workload(
        ("JB.team6", "JB.team11"),
        {"campaign_inputs": 16, **EVERY_LOCATION},
        {"jobs": 2},
        journal=True,
    ),
    # The documented re-run flow: a memoize-only run fills a memo dir once
    # per invocation, then each repetition re-runs with the planner on
    # against a fresh copy of it, so the memo's read path is what is timed.
    "jamesb-memo-rerun": Workload(
        ("JB.team6", "JB.team11"),
        {"campaign_inputs": 16, **EVERY_LOCATION},
        {"prune": True, "memoize": True},
        memo_rerun=True,
    ),
}

#: Printed and kept in the history beside the BENCHMARK.json metrics, as
#: measured.  They scale with the seed's amount of simulated work or with
#: the host's speed, so they carry no regression bound.
INFO_METRICS = {
    "wall_s": "s", "runs_per_s": "1/s", "cpu_s": "s",
    "host_speed": "ratio", "fail_frac": "ratio",
}


class RepFailed(RuntimeError):
    """A repetition exited non-zero or ran past its timeout."""


def die(message: str, code: int = 2) -> int:
    print(f"e2e: {message}", file=sys.stderr)
    return code


# -- one repetition -------------------------------------------------------------

def launch(spec: dict, rep_dir: str) -> dict:
    """Run one repetition in a fresh process in *rep_dir*; return its result."""
    code_cache = os.path.join(rep_dir, "code-cache")
    spans_dir = os.path.join(rep_dir, "spans")
    os.makedirs(code_cache)
    os.makedirs(spans_dir)
    spec = dict(spec, src=SRC, out=os.path.join(rep_dir, "result.json"),
                spans_dir=spans_dir, spawn_time=time.time())
    spec_path = os.path.join(rep_dir, "spec.json")
    with open(spec_path, "w", encoding="utf-8") as handle:
        json.dump(spec, handle)
    process = subprocess.Popen(
        [sys.executable, REP, spec_path],
        env=dict(os.environ, REPRO_CODE_CACHE=code_cache, TMPDIR=rep_dir),
        cwd=ROOT, stdout=sys.stderr, start_new_session=True,
    )
    try:
        code = process.wait(timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RepFailed(f"repetition ran past {REP_TIMEOUT_S} s") from None
    finally:
        try:  # the repetition, if still running, and any worker it left
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        process.wait()
    if code != 0:
        raise RepFailed(f"repetition exited with code {code}")
    with open(spec["out"], "r", encoding="utf-8") as handle:
        return json.load(handle)


class Session:
    """The repetitions of one invocation, in a working dir inside the checkout."""

    def __init__(self, seed: int, options: dict[str, dict]) -> None:
        os.makedirs(WORK, exist_ok=True)
        self.work = tempfile.mkdtemp(prefix="run-", dir=WORK)
        self.seed = seed
        self.options = options
        self.count = 0
        self.memo_dirs: dict[str, str] = {}

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        try:  # the parent too, unless another invocation still uses it
            os.rmdir(WORK)
        except OSError:
            pass

    def _run(self, name: str, workload: Workload, options: dict, *,
             trace: bool) -> dict:
        self.count += 1
        rep_dir = os.path.join(self.work, f"rep-{self.count}")
        os.makedirs(rep_dir)
        try:
            if workload.journal:
                options["journal_dir"] = os.path.join(rep_dir, "journal")
            if workload.memo_rerun and "memo_dir" not in options:
                options["memo_dir"] = os.path.join(rep_dir, "memo")
                shutil.copytree(self.memo_dirs[name], options["memo_dir"])
            spec = {
                "seed": self.seed,
                "programs": list(workload.programs),
                "classes": list(workload.classes),
                "experiment": dict(workload.experiment),
                "campaign": options,
                "trace": trace,
            }
            return launch(spec, rep_dir)
        finally:
            shutil.rmtree(rep_dir, ignore_errors=True)

    def prepare(self, name: str, workload: Workload) -> dict:
        """The memoize-only run that fills a memo-rerun workload's memo dir."""
        memo_dir = os.path.join(self.work, f"{name}-memo")
        self.memo_dirs[name] = memo_dir
        options = dict(self.options[name], prune=False, memoize=True, memo_dir=memo_dir)
        return self._run(name, workload, options, trace=False)

    def repetition(self, name: str, workload: Workload, *, trace: bool) -> dict:
        return self._run(name, workload, dict(self.options[name]), trace=trace)


# -- the reference cross-check --------------------------------------------------

@dataclass
class Reference:
    attempted: int        # faults x cases over the workload's campaigns
    golden: int           # instructions of the fault-free calibration runs
    mismatches: int       # sampled runs whose record differs from the timed one


def reference_record(runner, fault, case) -> dict:
    """One run on the reference path: simple engine, fresh boot, no fast path."""
    from repro.swifi.campaign import execute_injection_run

    record = execute_injection_run(
        runner.compiled.executable, fault, case,
        budget=runner.budgets[case.case_id], num_cores=runner.num_cores,
        quantum=runner.quantum, engine="simple",
    )
    return comparable(record.to_dict())


def reference_check(workload: Workload, seed: int, records: list | None) -> Reference:
    """Rebuild the campaigns, calibrate them, re-execute a seeded sample."""
    from repro.experiments import ExperimentConfig
    from repro.experiments.campaign6 import iter_section6_campaigns

    config = ExperimentConfig(seed=seed, **workload.experiment)
    campaigns = list(iter_section6_campaigns(
        config, programs=list(workload.programs), classes=workload.classes,
    ))
    golden = 0
    runners = {id(campaign.runner): campaign.runner for campaign in campaigns}
    for runner in runners.values():  # one runner per program, shared by classes
        runner.calibrate()
        golden += sum(runner.golden_instructions.values())
    order = [
        (campaign.runner, fault, case)
        for campaign in campaigns
        for fault in campaign.error_set.faults
        for case in campaign.runner.cases
    ]
    sample = random.Random(seed).sample(range(len(order)), min(CROSS_CHECK_RUNS, len(order)))
    mismatches = sum(
        1 for index in sorted(sample)
        if records is None or index >= len(records)
        or reference_record(*order[index]) != records[index]
    )
    return Reference(attempted=len(order), golden=golden, mismatches=mismatches)


# -- metrics ----------------------------------------------------------------------

def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def host_speed(result: dict) -> float:
    """How fast the host ran during a repetition, relative to the reference."""
    return PROBE_REFERENCE_S / result["probe_s"]


def e2e_values(result: dict, reference: Reference, prepare_s: float) -> dict:
    """End-to-end metrics of one untraced repetition.

    *prepare_s* is already in reference-host seconds.
    """
    speed = host_speed(result)
    instructions = reference.golden + result["instructions"]
    return {
        "sim_minstr_per_s": instructions / (result["wall_s"] * speed) / 1e6,
        "cpu_ns_per_instr": result["cpu_s"] * speed / instructions * 1e9,
        "setup_s": (result["startup_s"] + result["setup_s"]) * speed + prepare_s,
        "peak_rss_mb": result["peak_rss_mb"],
        "wall_s": result["wall_s"],
        "runs_per_s": result["runs"] / (result["wall_s"] - result["setup_s"]),
        "cpu_s": result["cpu_s"],
        "host_speed": speed,
    }


@dataclass
class Outcome:
    """Everything one workload produced in one invocation."""

    untraced: list[dict] = field(default_factory=list)
    traced: list[dict] = field(default_factory=list)
    failed_reps: int = 0
    errors: list[str] = field(default_factory=list)
    prepare: dict | None = None
    records: list | None = None  # the first repetition's, for the cross-check

    def add(self, result: dict, *, trace: bool) -> None:
        # Later repetitions are checked by digest alone, so only the first
        # one's records are kept.
        records = result.pop("records")
        if self.records is None:
            self.records = records
        (self.traced if trace else self.untraced).append(result)


def evaluate(name: str, outcome: Outcome, reference: Reference, *, seed: int,
             pinned: dict) -> dict:
    """Correctness verdict and metric summaries of one workload."""
    results = outcome.untraced + outcome.traced
    if outcome.prepare is not None:
        results.append(outcome.prepare)
    digests = sorted({result["digest"] for result in results})
    reps = len(outcome.untraced) + len(outcome.traced) + outcome.failed_reps
    attempted = reference.attempted * max(reps, 1)
    failed = (
        reference.attempted * outcome.failed_reps
        + sum(reference.attempted - result["runs"] for result in outcome.untraced + outcome.traced)
        + reference.mismatches
    )
    expected = pinned.get(name) if seed == pinned.get("seed") else None
    problems = list(outcome.errors)
    if len(digests) > 1:
        problems.append(f"repetitions disagree: {len(digests)} distinct record digests")
    if expected is not None and digests and digests != [expected]:
        problems.append(f"digest {digests[0]} differs from the pinned {expected}")
    if reference.mismatches:
        problems.append(f"{reference.mismatches} of the sampled runs differ from the reference path")
    if failed:
        problems.append(f"{failed} of {attempted} runs failed")
    prepare_s = (outcome.prepare["wall_s"] * host_speed(outcome.prepare)
                 if outcome.prepare is not None else 0.0)
    values = [e2e_values(result, reference, prepare_s) for result in outcome.untraced]
    e2e = {key: quartiles([value[key] for value in values]) for key in values[0]} if values else {}
    e2e["fail_frac"] = quartiles([failed / attempted])
    layers = {}
    if outcome.traced:
        # Both sides in reference-host seconds, as they ran at different times.
        untraced_wall = statistics.median(
            result["wall_s"] * host_speed(result) for result in outcome.untraced
        ) if outcome.untraced else None
        per_rep = []
        for result in outcome.traced:
            metrics = dict(result["layers"]["metrics"])
            if untraced_wall:
                traced_wall = result["layers"]["wall_s"] * host_speed(result)
                metrics["trace_overhead_frac"] = traced_wall / untraced_wall - 1
            per_rep.append(metrics)
        layers = {key: quartiles([metrics[key] for metrics in per_rep]) for key in per_rep[0]}
    return {
        "correct": not problems,
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "digest": digests[0] if len(digests) == 1 else None,
        "runs": reference.attempted,
        "reps": {"untraced": len(outcome.untraced), "traced": len(outcome.traced),
                 "failed": outcome.failed_reps},
        "prepare_s": prepare_s if outcome.prepare is not None else None,
        "e2e": e2e,
        "layers": layers,
        # The breakdown of the traced repetition with the median traced wall.
        "breakdown": sorted((result["layers"] for result in outcome.traced),
                            key=lambda layers: layers["wall_s"])[len(outcome.traced) // 2]
        if outcome.traced else None,
    }


# -- reporting ------------------------------------------------------------------

def _line(name: str, summary: dict, unit: str) -> str:
    return (f"    {name:<30} {summary['median']:>12.6g} {unit:<9} "
            f"[Q1 {summary['q1']:.6g}, Q3 {summary['q3']:.6g}]  n={summary['n']}")


def report(name: str, verdict: dict, contract: dict, *, trace: bool) -> dict:
    """Print one workload's report; return its contract JSON object."""
    print(f"== {name}: {verdict['runs']} runs per repetition, reps {verdict['reps']}, "
          f"digest {verdict['digest']}")
    if verdict["prepare_s"] is not None:
        print(f"    memo prepare run: {verdict['prepare_s']:.3f} s at reference speed "
              "(counted in setup_s)")
    print("  end-to-end (untraced; median [Q1, Q3] over n repetitions; BENCHMARK.json's "
          "times in reference-host seconds, the rest as measured)")
    units = {metric["name"]: metric["unit"] for metric in contract["end_to_end"]}
    units.update(INFO_METRICS)
    for metric, unit in units.items():
        if metric in verdict["e2e"]:
            print(_line(metric, verdict["e2e"][metric], unit))
    breakdown = verdict["breakdown"]
    if breakdown is not None:
        wall = breakdown["wall_s"]
        print("  where the traced wall time went: self time in the campaign process"
              " (sums to the traced wall) | in every process")
        for row, seconds in breakdown["rows"].items():
            everywhere = breakdown["seconds"][row]
            if everywhere:
                print(f"    {row:<30} {seconds:>10.4f} s {seconds / wall:6.1%} | "
                      f"{everywhere:>10.4f} s")
        print(f"    {'other_s':<30} {breakdown['other_s']:>10.4f} s "
              f"{breakdown['other_s'] / wall:6.1%}")
        print(f"    {'traced wall':<30} {wall:>10.4f} s")
        print("  per-layer metrics (traced; every process)")
        for metric in contract["per_layer"]:
            print(_line(metric["name"], verdict["layers"][metric["name"]], metric["unit"]))
    for problem in verdict["problems"]:
        print(f"  CHECK FAILED: {problem}")
    chosen = contract["per_layer"] if trace else contract["end_to_end"]
    source = verdict["layers"] if trace else verdict["e2e"]
    return {
        "correct": verdict["correct"],
        "attempted": verdict["attempted"],
        "failed": verdict["failed"],
        "metrics": {
            metric["name"]: {"value": source[metric["name"]]["median"], "unit": metric["unit"]}
            for metric in chosen if metric["name"] in source
        },
    }


def git_state() -> tuple[str | None, bool | None]:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True, timeout=60)
        status = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                                capture_output=True, text=True, timeout=60)
    except (OSError, subprocess.TimeoutExpired):
        return None, None
    if commit.returncode != 0:
        return None, None
    return commit.stdout.strip(), bool(status.stdout.strip())


def append_history(out: str, *, seed: int, overrides: dict, defaults: dict,
                   options: dict, verdicts: dict) -> None:
    commit, dirty = git_state()
    line = {
        "time": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "commit": commit,
        "dirty": dirty,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "seed": seed,
        "overrides": overrides,
        "campaign_defaults": defaults,
        "workloads": {
            name: {
                "programs": list(WORKLOADS[name].programs),
                "classes": list(WORKLOADS[name].classes),
                "experiment": WORKLOADS[name].experiment,
                "campaign": WORKLOADS[name].campaign,
                "resolved": options[name],
                "correct": verdict["correct"],
                "attempted": verdict["attempted"],
                "failed": verdict["failed"],
                "digest": verdict["digest"],
                "reps": verdict["reps"],
                "prepare_s": verdict["prepare_s"],
                "metrics": verdict["e2e"],
                "layers": verdict["layers"],
                "breakdown": verdict["breakdown"],
            }
            for name, verdict in verdicts.items()
        },
    }
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "history.jsonl"), "a", encoding="utf-8") as handle:
        handle.write(json.dumps(line, sort_keys=True) + "\n")


# -- command line ---------------------------------------------------------------

def parse_overrides(text: str, defaults: dict) -> dict:
    """``engine=trace,snapshot=auto`` → typed ``CampaignConfig`` overrides."""
    overrides = {}
    for item in filter(None, text.split(",")):
        key, sep, value = item.partition("=")
        if not sep or key not in defaults:
            raise ValueError(f"--override takes key=value with key in {sorted(defaults)}, "
                             f"got {item!r}")
        kind = type(defaults[key])
        if kind is bool:
            if value not in ("0", "1", "false", "true"):
                raise ValueError(f"--override {key} takes true/false, got {value!r}")
            overrides[key] = value in ("1", "true")
        else:
            overrides[key] = kind(value)
    return overrides


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                        help="run only this workload (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=2000)
    length = parser.add_mutually_exclusive_group()
    length.add_argument("--reps", type=int, help="rounds of repetitions (default 5)")
    length.add_argument("--seconds", type=float,
                        help="start rounds until this many seconds have passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: a traced repetition follows each untraced one")
    parser.add_argument("--out", help="append a history line to OUT/history.jsonl")
    parser.add_argument("--override", default="",
                        help="CampaignConfig overrides for every workload, "
                             "e.g. engine=trace,snapshot=auto")
    args = parser.parse_args(argv)
    if args.reps is None and args.seconds is None:
        args.reps = 5
    if (args.reps is not None and args.reps < 1) or (args.seconds is not None and args.seconds <= 0):
        parser.error("--reps and --seconds must be positive")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        return die(f"no repro package under {SRC}; run from a full checkout")
    sys.path.insert(0, SRC)
    from repro.swifi.campaign import CampaignConfig

    defaults = {key: getattr(CampaignConfig(), key) for key in CAMPAIGN_OPTIONS}
    try:
        overrides = parse_overrides(args.override, defaults)
        CampaignConfig(**overrides)
    except ValueError as error:
        return die(str(error))
    with open(BENCHMARK, "r", encoding="utf-8") as handle:
        contract = json.load(handle)
    with open(DIGESTS, "r", encoding="utf-8") as handle:
        pinned = json.load(handle)
    names = args.workload or list(WORKLOADS)
    options = {name: {**defaults, **WORKLOADS[name].campaign, **overrides} for name in names}
    # The build: byte-compile the package so no repetition pays for it.
    compileall.compile_dir(SRC, quiet=1)

    session = Session(args.seed, options)
    outcomes = {name: Outcome() for name in names}
    try:
        for name in names:
            if WORKLOADS[name].memo_rerun:
                outcomes[name].prepare = session.prepare(name, WORKLOADS[name])
                del outcomes[name].prepare["records"]
        start = time.monotonic()
        rounds = 0
        while True:
            for name in names:
                for trace in (False, True) if args.trace else (False,):
                    try:
                        result = session.repetition(name, WORKLOADS[name], trace=trace)
                    except RepFailed as error:
                        outcomes[name].failed_reps += 1
                        outcomes[name].errors.append(str(error))
                        continue
                    outcomes[name].add(result, trace=trace)
            rounds += 1
            if args.reps is not None and rounds >= args.reps:
                break
            if args.seconds is not None and time.monotonic() - start >= args.seconds:
                break
    except RepFailed as error:  # only the memo prepare run raises out here
        return die(f"prepare run failed: {error}", 1)
    finally:
        session.close()

    verdicts = {}
    lines = []
    for name in names:
        reference = reference_check(WORKLOADS[name], args.seed, outcomes[name].records)
        verdicts[name] = evaluate(name, outcomes[name], reference, seed=args.seed,
                                  pinned=pinned)
        lines.append(report(name, verdicts[name], contract, trace=bool(args.trace)))
    if args.out:
        append_history(args.out, seed=args.seed, overrides=overrides, defaults=defaults,
                       options=options, verdicts=verdicts)
    for line in lines:
        print(json.dumps(line))
    return 0 if all(verdict["correct"] for verdict in verdicts.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
