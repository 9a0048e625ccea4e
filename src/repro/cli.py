"""Command-line interface: regenerate any table/figure from a shell.

Usage (also via ``python -m repro``)::

    python -m repro table1           # real-fault failure symptoms
    python -m repro table2           # target programs and features
    python -m repro table3           # injected error types
    python -m repro table4           # fault-location counts
    python -m repro sec5             # real-fault emulation verdicts
    python -m repro figures          # figures 7-10 (runs the campaigns)
    python -m repro figures --programs JB.team6 SOR
    python -m repro figures --prune --memoize --memo-dir memo/
    python -m repro ablation-metrics
    python -m repro ablation-triggers
    python -m repro ablation-hardware
    python -m repro trace report DIR # per-phase/fallback report of --trace journals
    python -m repro plan report DIR  # pruned/memoized/executed partition of journals
    python -m repro disasm PROGRAM   # RX32 listing of a workload program
    python -m repro coverage PROGRAM # fault-site coverage under random inputs
    python -m repro inject FILE.c    # locate+inject faults in your MiniC file
    python -m repro verify fuzz --seed 0 --cases 200   # differential fuzzer
    python -m repro verify fuzz --tier source          # fuzz the mutant pipeline
    python -m repro verify fuzz --opt 1                # add the O0-vs-O1 axis
    python -m repro verify replay ARTIFACT.json        # re-run a divergence
    python -m repro serve --state-dir state/           # campaign broker
    python -m repro work http://127.0.0.1:8642         # work-stealing worker
    python -m repro submit http://127.0.0.1:8642 --journal-dir out/
    python -m repro srcfi sites JB.team6               # mutation-site listing
    python -m repro srcfi campaign --programs SOR      # source-tier campaigns
    python -m repro srcfi compare --out results        # two-tier agreement study

Scaling flags: ``--scale`` multiplies every run count; ``--seed`` fixes
the RNG.  Defaults regenerate everything at the reduced scale documented
in EXPERIMENTS.md.
"""

from __future__ import annotations

import argparse
import os
import random
import sys

from .experiments import (
    ExperimentConfig,
    fig7,
    fig8,
    fig9,
    fig10,
    run_hardware_comparison,
    run_metric_guidance,
    run_sec5,
    run_section6,
    run_table1,
    run_table2,
    run_table3,
    run_table4,
    run_trigger_ablation,
)
from .machine.machine import CAMPAIGN_ENGINES
from .swifi.campaign import CampaignConfig


def _add_engine_flag(parser, help_text: str = "machine execution engine") -> None:
    """``--engine`` with ``CampaignConfig``'s default, for every campaign command."""
    parser.add_argument(
        "--engine", choices=CAMPAIGN_ENGINES, default=CampaignConfig.engine,
        help=f"{help_text}; 'auto' (default) runs every program on "
             "'trace' (records are bit-identical on every engine)",
    )


def _positive_int(text: str) -> int:
    """Argparse type for counts that must be >= 1 (``--jobs 0`` is a
    config error, not a request for zero workers — reject it at parse
    time with the usual argparse exit code 2)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer (got {value})"
        )
    return value


def _positive_float(text: str) -> float:
    """Argparse type for durations that must be > 0 (``--lease-timeout 0``
    would expire every lease instantly — a config error, rejected at
    parse time with the usual argparse exit code 2)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if value <= 0:
        raise argparse.ArgumentTypeError(
            f"must be a positive number (got {value})"
        )
    return value


def _port_int(text: str) -> int:
    """Argparse type for ``--port``: 1-65535, or 0 for an ephemeral port."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if not 0 <= value <= 65535:
        raise argparse.ArgumentTypeError(
            f"port must be 0 (ephemeral) or 1-65535 (got {value})"
        )
    return value


def _opt_level(text: str) -> int:
    """Argparse type for ``--opt``: the only levels are 0 and 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value not in (0, 1):
        raise argparse.ArgumentTypeError(
            f"optimization level must be 0 or 1 (got {value})"
        )
    return value


def _scale(args: argparse.Namespace) -> float:
    return getattr(args, "scale", 1.0)


def _opt(args: argparse.Namespace) -> int:
    return getattr(args, "opt", 0)


def _reject_paper_opt(args) -> int | None:
    """Exit-2 guard: the paper's tables/figures are defined on O0 binaries.

    Every published number was measured against the unoptimized compiler
    output (slot-per-variable codegen); running them at O1 would silently
    change fault-location counts and outcome tallies.  Reject the
    combination with a one-line diagnostic instead of producing figures
    that no longer match the paper.
    """
    if _opt(args) == 0:
        return None
    print(
        "error: --opt 1 is not allowed here: paper tables/figures are "
        "defined on the unoptimized (O0) binaries",
        file=sys.stderr,
    )
    return 2


def _seed(args: argparse.Namespace) -> int:
    return getattr(args, "seed", 2000)


def _config(args: argparse.Namespace) -> ExperimentConfig:
    config = ExperimentConfig(seed=_seed(args))
    if _scale(args) != 1.0:
        config = config.scaled(_scale(args))
    return config


def _cmd_table1(args):
    exit_code = _reject_paper_opt(args)
    if exit_code is not None:
        return exit_code
    print(run_table1(_config(args)).render())


def _cmd_table2(args):
    exit_code = _reject_paper_opt(args)
    if exit_code is not None:
        return exit_code
    print(run_table2().render())


def _cmd_table3(args):
    exit_code = _reject_paper_opt(args)
    if exit_code is not None:
        return exit_code
    print(run_table3().render())


def _cmd_table4(args):
    exit_code = _reject_paper_opt(args)
    if exit_code is not None:
        return exit_code
    print(run_table4(_config(args)).render())


def _cmd_sec5(args):
    exit_code = _reject_paper_opt(args)
    if exit_code is not None:
        return exit_code
    print(run_sec5(_config(args)).render())


def _reject_source_tier_flags(args) -> int | None:
    """Exit-2 guard: machine-tier-only flags combined with ``--tier source``.

    The source tier reboots a fresh mutant binary per run, so the snapshot
    fast path and the planner have nothing to attach to — reject the
    combination here with a one-line diagnostic instead of surfacing the
    deep ``run_source_campaign`` rejection as a traceback.
    """
    if getattr(args, "tier", "machine") != "source":
        return None
    offending = []
    if getattr(args, "snapshot", "off") != "off":
        offending.append(f"--snapshot {args.snapshot}")
    if getattr(args, "prune", False):
        offending.append("--prune")
    if getattr(args, "memoize", False):
        offending.append("--memoize")
    if getattr(args, "memo_dir", None) is not None:
        offending.append("--memo-dir")
    if getattr(args, "plan_verify", 0):
        offending.append("--plan-verify")
    if not offending:
        return None
    print(
        f"error: {', '.join(offending)} require(s) --tier machine "
        "(snapshot fast path and planner are machine-tier-only)",
        file=sys.stderr,
    )
    return 2


def _cmd_figures(args):
    from .orchestrator import CompositeSink, JsonTelemetryWriter, ProgressRenderer

    exit_code = _reject_paper_opt(args)
    if exit_code is None:
        exit_code = _reject_source_tier_flags(args)
    if exit_code is not None:
        return exit_code

    sinks = [ProgressRenderer(sys.stderr)]
    if args.telemetry_json:
        sinks.append(JsonTelemetryWriter(args.telemetry_json))
    results = run_section6(
        _config(args),
        programs=args.programs,
        jobs=args.jobs,
        journal_dir=args.journal_dir,
        resume=args.resume,
        telemetry=CompositeSink(*sinks),
        snapshot=args.snapshot,
        trace=args.trace,
        engine=args.engine,
        prune=args.prune,
        memoize=args.memoize,
        memo_dir=args.memo_dir,
        plan_verify=args.plan_verify,
        tier=args.tier,
    )
    for figure in (fig7(results), fig8(results), fig9(results), fig10(results)):
        print(figure.render())
        print()


def _cmd_ablation_metrics(args):
    exit_code = _reject_paper_opt(args)
    if exit_code is not None:
        return exit_code
    result = run_metric_guidance(total_faults=args.faults)
    print(result.render())
    print(f"\nSpearman(mccabe, sites) = {result.rank_correlation('mccabe', 'sites'):.2f}")


def _cmd_ablation_triggers(args):
    exit_code = _reject_paper_opt(args)
    if exit_code is not None:
        return exit_code
    print(run_trigger_ablation(_config(args), jobs=getattr(args, "jobs", 1),
                               snapshot=getattr(args, "snapshot", "off"),
                               engine=args.engine).render())


def _cmd_ablation_hardware(args):
    exit_code = _reject_paper_opt(args)
    if exit_code is not None:
        return exit_code
    print(run_hardware_comparison(_config(args), jobs=getattr(args, "jobs", 1),
                                  snapshot=getattr(args, "snapshot", "off"),
                                  engine=args.engine).render())


def _cmd_plan_report(args):
    from .planning import build_plan_report, render_plan_report

    try:
        report = build_plan_report(args.journal_dir)
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    print(render_plan_report(report))
    return 0


def _cmd_trace_report(args):
    from .observability import build_trace_report, export_perfetto, render_trace_report

    try:
        report = build_trace_report(args.journal_dir)
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    print(render_trace_report(report))
    if args.perfetto:
        events = export_perfetto(report, args.perfetto)
        print(f"\nwrote {events} trace events to {args.perfetto}")
    return 0


def _cmd_disasm(args):
    from .isa import listing
    from .workloads import get_workload

    workload = get_workload(args.program)
    compiled = workload.compiled(_opt(args))
    symbols = {
        name: address
        for name, address in compiled.executable.symbols.items()
        if not name.startswith(".")
    }
    print(listing(compiled.executable.code, compiled.executable.code_base, symbols))


def _cmd_coverage(args):
    import random

    from .machine import boot
    from .swifi import CoverageSession
    from .workloads import get_workload

    workload = get_workload(args.program)
    compiled = workload.compiled(_opt(args))
    session = CoverageSession(compiled)
    rng = random.Random(_seed(args))
    merged_counts: dict[int, int] = {}
    for _ in range(args.inputs):
        machine = boot(compiled.executable, num_cores=workload.num_cores,
                       inputs=workload.generate_pokes(rng))
        _, report = CoverageSession(compiled).attach_and_run(machine)
        for address, count in report.counts.items():
            merged_counts[address] = merged_counts.get(address, 0) + count
    from .swifi.coverage import CoverageReport

    merged = CoverageReport(points=session.points, counts=merged_counts)
    print(f"{args.program}: {args.inputs} random input(s)")
    print(merged.render())
    print("\nhottest fault sites:")
    for point, count in merged.hot_spots(top=8):
        print(f"  {count:>8}x  {point.kind:10s} {point.function}:{point.line}")


def _cmd_inject(args):
    from .emulation import FaultLocator
    from .emulation.rules import generate_error_set
    from .lang import compile_source

    with open(args.file, "r", encoding="utf-8") as handle:
        source = handle.read()
    compiled = compile_source(source, args.file, opt_level=_opt(args))
    locator = FaultLocator(compiled)
    print(f"{args.file}: {compiled.source_lines} lines")
    print(f"  assignment locations: {len(locator.assignment_locations())}")
    print(f"  checking locations:   {len(locator.checking_locations())}")
    rng = random.Random(_seed(args))
    for klass in ("assignment", "checking"):
        error_set = generate_error_set(
            compiled, klass, max_locations=args.locations, rng=rng
        )
        print(f"\n{klass} error set ({len(error_set.faults)} faults):")
        for spec in error_set.faults:
            print(f"  {spec.describe()}")


def _cmd_verify_fuzz(args):
    from .verify import FuzzConfig, run_fuzz

    progress = None
    if not args.quiet:
        progress = lambda message: print(message, file=sys.stderr)  # noqa: E731
    extra = {}
    if args.jobs is not None:
        extra["jobs_axis"] = (1, args.jobs) if args.jobs > 1 else (1,)
    if _opt(args):
        extra["opt_axis"] = (0, 1)
    report = run_fuzz(FuzzConfig(
        seed=args.seed,
        cases=args.cases,
        time_budget=args.time_budget,
        faults_per_program=args.faults,
        inputs_per_program=args.inputs,
        record_tier=not args.state_only,
        shrink=not args.no_shrink,
        artifact_dir=args.artifact_dir,
        progress=progress,
        tier=args.tier,
        journal_dir=args.journal_dir,
        resume=args.resume,
        trace=args.trace,
        **extra,
    ))
    print("\n".join(report.summary_lines()))
    return 0 if report.ok() else 1


def _cmd_srcfi_sites(args):
    from .srcfi import SourceLocator
    from .workloads import get_workload

    workload = get_workload(args.program)
    locator = SourceLocator(workload.compiled())
    lines = locator.describe()
    print(f"{args.program}: {len(lines)} mutation site(s)")
    for line in lines:
        print(f"  {line}")


def _cmd_srcfi_campaign(args):
    from .swifi.outcomes import MODE_ORDER

    exit_code = _reject_paper_opt(args)
    if exit_code is not None:
        return exit_code
    classes = tuple(args.classes) if args.classes else ("assignment", "checking")
    results = run_section6(
        _config(args),
        programs=args.programs,
        classes=classes,
        jobs=args.jobs,
        journal_dir=args.journal_dir,
        resume=args.resume,
        trace=args.trace,
        engine=args.engine,
        tier=args.tier,
    )
    for campaign in results.campaigns:
        total = len(campaign.records) or 1
        tallies = "  ".join(
            f"{mode.value}="
            f"{100.0 * sum(1 for r in campaign.records if r.mode == mode) / total:.1f}%"
            for mode in MODE_ORDER
        )
        inputs = len(campaign.records) // campaign.fault_count \
            if campaign.fault_count else 0
        print(f"{campaign.program}/{campaign.klass}: "
              f"{campaign.fault_count} faults x {inputs} input(s) "
              f"({len(campaign.records)} runs)")
        print(f"  {tallies}")


def _cmd_srcfi_compare(args):
    from .experiments import run_srcfi_compare

    exit_code = _reject_paper_opt(args)
    if exit_code is not None:
        return exit_code
    progress = None
    if not args.quiet:
        progress = lambda done, total: print(  # noqa: E731
            f"  pair {done}/{total}", file=sys.stderr)
    report = run_srcfi_compare(
        _config(args),
        programs=args.programs,
        max_sites=args.max_sites,
        include_real=not args.no_real,
        jobs=args.jobs,
        journal_dir=args.journal_dir,
        resume=args.resume,
        trace=args.trace,
        engine=args.engine,
        progress=progress,
    )
    rendered = report.render()
    print(rendered)
    if args.out is not None:
        os.makedirs(args.out, exist_ok=True)
        json_path = os.path.join(args.out, "srcfi_agreement.json")
        text_path = os.path.join(args.out, "srcfi_agreement.txt")
        report.to_json(json_path)
        with open(text_path, "w", encoding="utf-8") as handle:
            handle.write(rendered + "\n")
        print(f"\nwrote {json_path} and {text_path}")


def _cmd_verify_replay(args):
    from .verify import replay_artifact

    try:
        divergence = replay_artifact(args.artifact)
    except (FileNotFoundError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if divergence is None:
        print("divergence no longer reproduces")
        return 0
    print(divergence.summary())
    return 1


def _cmd_serve(args):
    from .service import run_broker

    return run_broker(
        state_dir=args.state_dir,
        host=args.host,
        port=args.port,
        lease_timeout=args.lease_timeout,
        max_attempts=args.max_attempts,
        port_file=args.port_file,
    )


def _cmd_work(args):
    import threading

    from .service import BrokerUnavailable, ServiceWorker, worker_main

    try:
        if args.workers == 1:
            return worker_main(
                args.broker,
                worker_id=args.worker_id,
                poll_interval=args.poll_interval,
                max_idle=args.max_idle,
            )
        # N workers in one process: independent lease loops with distinct
        # worker ids; runs execute under the GIL but lease bookkeeping,
        # heartbeats and reporting all overlap, which is what matters on
        # a one-core host driving a remote broker.
        base = args.worker_id or f"w-{os.uname().nodename}-{os.getpid()}"
        workers = [
            ServiceWorker(
                args.broker,
                worker_id=f"{base}-t{index}",
                poll_interval=args.poll_interval,
                max_idle=args.max_idle,
            )
            for index in range(args.workers)
        ]
        failures = []

        def run_worker(worker):
            try:
                worker.run()
            except BrokerUnavailable as error:
                failures.append(error)

        threads = [
            threading.Thread(target=run_worker, args=(worker,), daemon=True)
            for worker in workers
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if failures:
            raise BrokerUnavailable(failures[0])
        return 0
    except BrokerUnavailable as error:
        print(f"error: broker unreachable: {error}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        return 130


def _cmd_submit(args):
    from .service import BrokerRequestError, BrokerUnavailable, run_submit
    from .service.protocol import ProtocolError

    if getattr(args, "tier", "machine") == "source":
        print(
            "error: --tier source is not supported by the campaign service "
            "(the source tier compiles mutants locally; the broker shards "
            "machine-tier campaigns only)",
            file=sys.stderr,
        )
        return 2
    try:
        return run_submit(
            args.broker,
            config=_config(args),
            programs=args.programs,
            shard_size=args.shard_size,
            engine=args.engine,
            snapshot=args.snapshot,
            trace=args.trace,
            journal_dir=args.journal_dir,
            wait=not args.no_wait,
            timeout=args.timeout,
            quiet=args.quiet,
        )
    except BrokerUnavailable as error:
        print(f"error: broker unreachable: {error}", file=sys.stderr)
        return 1
    except (BrokerRequestError, ProtocolError) as error:
        print(f"error: broker rejected request: {error}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        return 130


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'On the Emulation of Software Faults by "
            "Software Fault Injection' (DSN 2000)."
        ),
    )
    # The flags are accepted both before and after the subcommand; the
    # SUPPRESS default keeps a subcommand occurrence from clobbering a
    # value parsed at the top level.
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--scale", type=float, default=argparse.SUPPRESS,
                        help="multiply every run count (default 1.0)")
    shared.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help="master RNG seed (default 2000)")
    shared.add_argument("--opt", type=_opt_level, default=argparse.SUPPRESS,
                        metavar="{0,1}",
                        help="compiler optimization level (default 0; the "
                             "paper tables/figures require 0)")
    parser = argparse.ArgumentParser(
        prog="repro",
        parents=[shared],
        description=parser.description,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table1", parents=[shared], help="Table 1: real-fault failure symptoms").set_defaults(fn=_cmd_table1)
    sub.add_parser("table2", parents=[shared], help="Table 2: target programs").set_defaults(fn=_cmd_table2)
    sub.add_parser("table3", parents=[shared], help="Table 3: injected error types").set_defaults(fn=_cmd_table3)
    sub.add_parser("table4", parents=[shared], help="Table 4: fault-location counts").set_defaults(fn=_cmd_table4)
    sub.add_parser("sec5", parents=[shared], help="S5: real-fault emulation verdicts").set_defaults(fn=_cmd_sec5)

    figures = sub.add_parser("figures", parents=[shared], help="Figures 7-10 (runs the S6 campaigns)")
    figures.add_argument("--programs", nargs="*", default=None,
                         help="restrict to these Table-2 programs")
    figures.add_argument("--jobs", type=_positive_int, default=1,
                         help="worker processes per campaign (default 1 = serial; "
                              "results are bit-identical at any value)")
    figures.add_argument("--journal-dir", default=None,
                         help="journal completed runs here so a killed campaign "
                              "can be resumed")
    figures.add_argument("--resume", action="store_true",
                         help="continue from the journal in --journal-dir "
                              "instead of re-running journaled runs")
    figures.add_argument("--telemetry-json", default=None,
                         help="write per-campaign telemetry snapshots "
                              "(runs/sec, tallies, ETA) to this JSON file")
    figures.add_argument("--snapshot", choices=("off", "auto", "verify"),
                         default="off",
                         help="golden-run snapshot fast path: restore at the "
                              "trigger instead of rebooting per run (auto), "
                              "or cross-check both paths (verify); outcomes "
                              "are bit-identical to off")
    _add_engine_flag(figures, "machine execution engine: 'simple' is the "
                     "reference interpreter, 'trace' compiles basic blocks "
                     "into Python closures and stitches hot paths into "
                     "superblocks")
    figures.add_argument("--trace", action="store_true",
                         help="record per-run span traces (phase timings, "
                              "snapshot fast-path accounting) into the journal "
                              "and telemetry; read back with 'repro trace "
                              "report'")
    figures.add_argument("--prune", action="store_true",
                         help="campaign planner: statically prove faults "
                              "dormant or invisible against the golden-run "
                              "access trace and synthesize their records "
                              "without booting (bit-identical results)")
    figures.add_argument("--memoize", action="store_true",
                         help="campaign planner: replay post-trigger outcomes "
                              "from the memo cache instead of re-executing "
                              "identical injections (bit-identical results)")
    figures.add_argument("--memo-dir", default=None,
                         help="persist the outcome memo here so later "
                              "invocations (and resumes) start warm; "
                              "requires --memoize")
    figures.add_argument("--plan-verify", type=float, default=0.0,
                         metavar="FRACTION",
                         help="re-execute this fraction of planner-answered "
                              "runs and fail loudly on any mismatch "
                              "(0.0-1.0; default 0)")
    figures.add_argument("--tier", choices=("machine", "source"),
                         default="machine",
                         help="injection tier: 'machine' rewrites Table-3 "
                              "errors into the running binary, 'source' "
                              "compiles repro.srcfi mutation operators into "
                              "mutant binaries (snapshot/planner are "
                              "machine-tier-only)")
    figures.set_defaults(fn=_cmd_figures)

    trace = sub.add_parser(
        "trace", parents=[shared],
        help="inspect per-run traces recorded with --trace",
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    trace_report = trace_sub.add_parser(
        "report", parents=[shared],
        help="per-phase time breakdown and fallback-reason table of a "
             "journal directory (or a directory of journals)",
    )
    trace_report.add_argument("journal_dir",
                              help="a campaign journal directory, or a parent "
                                   "directory holding one journal per campaign")
    trace_report.add_argument("--perfetto", metavar="FILE", default=None,
                              help="additionally export the span trees as "
                                   "Chrome/Perfetto trace-event JSON")
    trace_report.set_defaults(fn=_cmd_trace_report)

    plan = sub.add_parser(
        "plan", parents=[shared],
        help="inspect the campaign planner's pruned/memoized/executed split",
    )
    plan_sub = plan.add_subparsers(dest="plan_command", required=True)
    plan_report = plan_sub.add_parser(
        "report", parents=[shared],
        help="pruned/memoized/executed partition (with per-fault-class "
             "breakdown) of a journal directory, or a directory of journals",
    )
    plan_report.add_argument("journal_dir",
                             help="a campaign journal directory, or a parent "
                                  "directory holding one journal per campaign")
    plan_report.set_defaults(fn=_cmd_plan_report)

    metrics = sub.add_parser("ablation-metrics", parents=[shared], help="A1: metric-guided allocation")
    metrics.add_argument("--faults", type=int, default=100)
    metrics.set_defaults(fn=_cmd_ablation_metrics)

    triggers = sub.add_parser("ablation-triggers", parents=[shared],
                              help="A2: failure modes vs trigger When policy")
    triggers.add_argument("--jobs", type=_positive_int, default=1)
    triggers.add_argument("--snapshot", choices=("off", "auto", "verify"),
                          default="off")
    _add_engine_flag(triggers)
    triggers.set_defaults(fn=_cmd_ablation_triggers)
    hardware = sub.add_parser("ablation-hardware", parents=[shared],
                              help="A3: software vs random hardware faults")
    hardware.add_argument("--jobs", type=_positive_int, default=1)
    hardware.add_argument("--snapshot", choices=("off", "auto", "verify"),
                          default="off")
    _add_engine_flag(hardware)
    hardware.set_defaults(fn=_cmd_ablation_hardware)

    disasm = sub.add_parser("disasm", parents=[shared], help="disassemble a workload program")
    disasm.add_argument("program", help="workload name, e.g. C.team1")
    disasm.set_defaults(fn=_cmd_disasm)

    coverage = sub.add_parser(
        "coverage", parents=[shared],
        help="fault-site coverage of a workload under random inputs",
    )
    coverage.add_argument("program")
    coverage.add_argument("--inputs", type=int, default=3)
    coverage.set_defaults(fn=_cmd_coverage)

    inject = sub.add_parser("inject", parents=[shared], help="locate faults in your own MiniC file")
    inject.add_argument("file")
    inject.add_argument("--locations", type=int, default=3)
    inject.set_defaults(fn=_cmd_inject)

    verify = sub.add_parser(
        "verify",
        help="differential verification: fuzz the engine/snapshot/jobs matrix",
    )
    verify_sub = verify.add_subparsers(dest="verify_command", required=True)
    fuzz = verify_sub.add_parser(
        "fuzz",
        help="run a seeded differential fuzz campaign: generated programs x "
             "sampled faults across {engine} x {snapshot} x {jobs}, asserting "
             "bit-identical results; divergences are shrunk and persisted",
    )
    fuzz.add_argument("--seed", type=int, default=0,
                      help="campaign seed; the whole run is a pure function "
                           "of it (default 0)")
    fuzz.add_argument("--cases", type=int, default=200,
                      help="state-tier differential comparisons to run "
                           "(default 200)")
    fuzz.add_argument("--time-budget", type=float, default=None, metavar="SECONDS",
                      help="stop after this much wall-clock time")
    fuzz.add_argument("--faults", type=int, default=8,
                      help="fault descriptors sampled per program (default 8)")
    fuzz.add_argument("--inputs", type=int, default=2,
                      help="input data sets per program (default 2)")
    fuzz.add_argument("--artifact-dir", default=None,
                      help="write divergence artifacts (JSON + standalone "
                           "repro script) into this directory")
    fuzz.add_argument("--state-only", action="store_true",
                      help="skip the record tier (campaign matrix with "
                           "snapshot policies and worker pools)")
    fuzz.add_argument("--no-shrink", action="store_true",
                      help="report divergences without minimizing them")
    fuzz.add_argument("--quiet", action="store_true",
                      help="suppress per-program progress on stderr")
    fuzz.add_argument("--jobs", type=_positive_int, default=None,
                      help="widen the record-tier jobs axis to {1, JOBS} "
                           "(default: the oracle's standard axis)")
    fuzz.add_argument("--journal-dir", default=None,
                      help="journal cleanly finished programs here so a "
                           "killed fuzz campaign can be resumed")
    fuzz.add_argument("--resume", action="store_true",
                      help="skip programs journaled in --journal-dir, "
                           "keeping their counts")
    fuzz.add_argument("--trace", action="store_true",
                      help="accepted for flag uniformity; the fuzzer records "
                           "no per-run span traces")
    fuzz.add_argument("--tier", choices=("machine", "source"),
                      default="machine",
                      help="fuzz the machine tier (sampled Table-3 "
                           "descriptors) or the source tier (srcfi mutants: "
                           "engine conformance, revert oracle, source-"
                           "campaign record matrix)")
    fuzz.add_argument("--opt", type=_opt_level, default=0, metavar="{0,1}",
                      help="1 widens the oracle with the compiler axis: "
                           "every generated program is also compiled at O1 "
                           "and must match the O0 binary's console bytes, "
                           "exit code and outcome on every engine "
                           "(default 0 = off)")
    fuzz.set_defaults(fn=_cmd_verify_fuzz)
    replay = verify_sub.add_parser(
        "replay",
        help="re-run one divergence artifact; exits 1 while it reproduces, "
             "0 once the configurations agree again",
    )
    replay.add_argument("artifact", help="path to a divergence-*.json artifact")
    replay.set_defaults(fn=_cmd_verify_replay)

    srcfi = sub.add_parser(
        "srcfi", parents=[shared],
        help="source-level fault injection: mutation sites, source-tier "
             "campaigns, and the two-tier agreement study",
    )
    srcfi_sub = srcfi.add_subparsers(dest="srcfi_command", required=True)
    srcfi_sites = srcfi_sub.add_parser(
        "sites", parents=[shared],
        help="list every (operator, site) mutation point of a workload program",
    )
    srcfi_sites.add_argument("program", help="workload name, e.g. JB.team6")
    srcfi_sites.set_defaults(fn=_cmd_srcfi_sites)

    srcfi_campaign = srcfi_sub.add_parser(
        "campaign", parents=[shared],
        help="run S6-style campaigns at either tier and print "
             "failure-mode tallies",
    )
    srcfi_campaign.add_argument("--programs", nargs="*", default=None,
                                help="restrict to these Table-2 programs")
    srcfi_campaign.add_argument(
        "--classes", nargs="*", default=None,
        choices=("assignment", "checking", "algorithm", "function"),
        help="fault classes to inject (default: assignment checking; "
             "algorithm/function are source-tier-only)")
    srcfi_campaign.add_argument("--jobs", type=_positive_int, default=1,
                                help="worker processes per campaign")
    srcfi_campaign.add_argument("--journal-dir", default=None,
                                help="journal completed runs here for --resume")
    srcfi_campaign.add_argument("--resume", action="store_true",
                                help="skip runs journaled in --journal-dir")
    srcfi_campaign.add_argument("--trace", action="store_true",
                                help="machine tier: record per-run span traces "
                                     "(accepted no-op at the source tier)")
    _add_engine_flag(srcfi_campaign)
    srcfi_campaign.add_argument("--tier", choices=("machine", "source"),
                                default="source",
                                help="injection tier (default source)")
    srcfi_campaign.set_defaults(fn=_cmd_srcfi_campaign)

    srcfi_compare = srcfi_sub.add_parser(
        "compare", parents=[shared],
        help="differential emulation-accuracy study: every source fault vs "
             "its best machine-tier counterpart on the same inputs, "
             "agreement aggregated per ODC class (the paper's S5 split)",
    )
    srcfi_compare.add_argument("--programs", nargs="*", default=None,
                               help="restrict to these Table-2 programs")
    srcfi_compare.add_argument("--max-sites", type=_positive_int, default=4,
                               help="cap sites per (program, operator) "
                                    "(default 4)")
    srcfi_compare.add_argument("--no-real", action="store_true",
                               help="skip the S5 real-fault agreement section")
    srcfi_compare.add_argument("--jobs", type=_positive_int, default=1,
                               help="worker processes over (program, fault) "
                                    "pairs")
    srcfi_compare.add_argument("--journal-dir", default=None,
                               help="journal completed pairs here for --resume")
    srcfi_compare.add_argument("--resume", action="store_true",
                               help="skip pairs journaled in --journal-dir")
    srcfi_compare.add_argument("--trace", action="store_true",
                               help="accepted for flag uniformity; the pair "
                                    "runner records no span traces")
    _add_engine_flag(srcfi_compare, "machine execution engine for both tiers")
    srcfi_compare.add_argument("--out", default=None, metavar="DIR",
                               help="additionally write srcfi_agreement.json "
                                    "and srcfi_agreement.txt into this "
                                    "directory")
    srcfi_compare.add_argument("--quiet", action="store_true",
                               help="suppress per-pair progress on stderr")
    srcfi_compare.set_defaults(fn=_cmd_srcfi_compare)

    serve = sub.add_parser(
        "serve",
        help="run the campaign broker: accept submissions, shard the "
             "fault x case matrix, lease shards to workers, merge the "
             "returned journal segments",
    )
    serve.add_argument("--state-dir", required=True,
                       help="durable broker state: campaign manifests, "
                            "journal segments, merged journals (restart the "
                            "broker on the same directory to resume)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=_port_int, default=0,
                       help="TCP port, or 0 to bind an ephemeral port "
                            "(announced on stderr and via --port-file)")
    serve.add_argument("--lease-timeout", type=_positive_float, default=30.0,
                       metavar="SECONDS",
                       help="missed-heartbeat window before a shard lease "
                            "expires and the shard is re-queued for "
                            "stealing (default 30)")
    serve.add_argument("--max-attempts", type=_positive_int, default=None,
                       help="give up on a shard after this many leases "
                            "(default 16); its runs are recorded as failed")
    serve.add_argument("--port-file", default=None, metavar="FILE",
                       help="write the bound port here once listening "
                            "(for scripts wrapping --port 0)")
    serve.set_defaults(fn=_cmd_serve)

    work = sub.add_parser(
        "work",
        help="run campaign workers against a broker: lease shards, execute "
             "them with the standard run loop, stream results back",
    )
    work.add_argument("broker", metavar="BROKER_URL",
                      help="broker base URL, e.g. http://127.0.0.1:8642")
    work.add_argument("--workers", type=_positive_int, default=1,
                      help="worker loops to run in this process "
                           "(default 1)")
    work.add_argument("--worker-id", default=None,
                      help="stable worker identity for lease bookkeeping "
                           "(default: host and pid derived)")
    work.add_argument("--poll-interval", type=_positive_float, default=0.5,
                      metavar="SECONDS",
                      help="idle re-poll interval (default 0.5)")
    work.add_argument("--max-idle", type=_positive_float, default=None,
                      metavar="SECONDS",
                      help="exit 0 after this long with no work "
                           "(default: keep polling forever)")
    work.set_defaults(fn=_cmd_work)

    submit = sub.add_parser(
        "submit", parents=[shared],
        help="submit the S6 campaigns to a broker, follow progress, and "
             "download the merged journals",
    )
    submit.add_argument("broker", metavar="BROKER_URL",
                        help="broker base URL, e.g. http://127.0.0.1:8642")
    submit.add_argument("--programs", nargs="*", default=None,
                        help="restrict to these Table-2 programs")
    submit.add_argument("--shard-size", type=_positive_int, default=None,
                        help="runs per shard (default: matrix split across "
                             "the expected worker count)")
    _add_engine_flag(submit, "machine execution engine used by the workers")
    submit.add_argument("--snapshot", choices=("off", "auto", "verify"),
                        default="off",
                        help="golden-run snapshot policy used by the workers")
    submit.add_argument("--trace", action="store_true",
                        help="record per-run span traces into the merged "
                             "journal")
    submit.add_argument("--journal-dir", default=None,
                        help="download each campaign's merged journal into "
                             "this directory (bit-identical to a local "
                             "--jobs 1 journal)")
    submit.add_argument("--no-wait", action="store_true",
                        help="submit and exit without waiting for completion")
    submit.add_argument("--timeout", type=_positive_float, default=None,
                        metavar="SECONDS",
                        help="fail if a campaign is still running after this "
                             "long (default: wait forever)")
    submit.add_argument("--quiet", action="store_true",
                        help="suppress submission/progress lines on stderr")
    submit.add_argument("--tier", choices=("machine", "source"),
                        default="machine",
                        help="injection tier; the service is machine-tier "
                             "only (source mutants compile locally)")
    submit.set_defaults(fn=_cmd_submit)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    status = args.fn(args)
    return 0 if status is None else int(status)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
