"""One repetition of an end-to-end workload, run in a fresh Python process.

``run.py`` starts this file once per repetition with the path of a JSON
spec and reads back the JSON result it writes.  A fresh process per
repetition means every repetition pays the same cold costs — imports,
compilation, code generation into its own empty ``REPRO_CODE_CACHE`` —
and nothing one repetition cached can speed up the next.

The spec names the §6 slice (programs, fault classes, ``ExperimentConfig``
fields, ``run_section6`` options) and where to write.  The result holds
the timings, the host probe's median, the resource usage, a digest of
the records and the records themselves; with ``trace`` set it also holds
the per-layer breakdown.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def comparable(record_dict: dict) -> dict:
    """A record's payload without ``provenance``, which is ``compare=False``."""
    return {key: value for key, value in record_dict.items() if key != "provenance"}


def records_digest(records: list[dict]) -> str:
    """SHA-256 over comparable record payloads, in run order."""
    digest = hashlib.sha256()
    for record in records:
        digest.update(json.dumps(record, sort_keys=True).encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


#: Host probes timed before and after the call, each.
PROBES = 5


def host_probe() -> float:
    """Seconds a fixed pure-Python loop takes on the current host right now.

    The loop does not touch the code under test, so only the host can
    change its speed: a busy sibling hardware thread or a neighbour on a
    shared machine slows it as much as it slows the simulator.
    """
    started = time.perf_counter()
    table: dict[int, int] = {}
    total = 0
    for i in range(150_000):
        table[i & 1023] = i
        total += table.get((i * 7) & 1023, 0)
    return time.perf_counter() - started


def own_peak_rss_mb() -> float:
    """This process's peak RSS since it exec'd (``VmHWM``).

    ``ru_maxrss`` of ``RUSAGE_SELF`` would also count the RSS the parent
    had when it spawned this process: Linux carries the old address
    space's high-water mark across ``exec``.
    """
    with open("/proc/self/status", "r", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


class SetupClock:
    """Progress callback that sums each campaign's time to its first run.

    A campaign starts at the ``run_section6`` call or when the previous
    campaign completed its last run; its set-up ends when its first run
    completes.  The orchestrator reports ``done=0`` before any run, which
    says nothing about set-up and is ignored.
    """

    def __init__(self, start: float) -> None:
        self.mark = start
        self.waiting = True
        self.setup_s = 0.0

    def __call__(self, done: int, total: int) -> None:
        if done == 0:
            return
        now = time.perf_counter()
        if self.waiting:
            self.setup_s += now - self.mark
            self.waiting = False
        if done == total:
            self.mark = now
            self.waiting = True


def run(spec: dict) -> dict:
    started = spec["spawn_time"]
    sys.path.insert(0, spec["src"])
    from repro.experiments import ExperimentConfig, run_section6

    tracer = None
    if spec["trace"]:
        sys.path.insert(0, HERE)
        import layers

        tracer = layers.install(spec["spans_dir"])

    config = ExperimentConfig(seed=spec["seed"], **spec["experiment"])
    options = spec["campaign"]
    startup_s = time.time() - started
    probes = [host_probe() for _ in range(PROBES)]
    self_before = resource.getrusage(resource.RUSAGE_SELF)
    children_before = resource.getrusage(resource.RUSAGE_CHILDREN)
    call = time.perf_counter()
    clock = SetupClock(call)
    kwargs = dict(programs=spec["programs"], classes=tuple(spec["classes"]),
                  progress=clock, **options)
    if tracer is None:
        results = run_section6(config, **kwargs)
    else:
        results = tracer.call(layers.ROOT, run_section6, (config,), kwargs)
    wall_s = time.perf_counter() - call
    self_after = resource.getrusage(resource.RUSAGE_SELF)
    children_after = resource.getrusage(resource.RUSAGE_CHILDREN)
    probes += [host_probe() for _ in range(PROBES)]

    cpu_s = sum(
        getattr(after, field) - getattr(before, field)
        for before, after in ((self_before, self_after), (children_before, children_after))
        for field in ("ru_utime", "ru_stime")
    )
    records = [comparable(record.to_dict()) for record in results.records()]
    result = {
        "wall_s": wall_s,
        "startup_s": startup_s,
        "setup_s": clock.setup_s,
        "probe_s": statistics.median(probes),
        "cpu_s": cpu_s,
        # Forked pool workers' ru_maxrss is their own peak (KiB on Linux).
        "peak_rss_mb": max(own_peak_rss_mb(), children_after.ru_maxrss / 1024.0),
        "runs": len(records),
        "instructions": sum(record["instructions"] for record in records),
        "digest": records_digest(records),
        "records": records,
    }
    if tracer is not None:
        result["layers"] = layers.summarize(
            tracer, spec["spans_dir"], jobs=options.get("jobs", 1)
        )
    return result


def main(argv: list[str]) -> int:
    with open(argv[1], "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    result = run(spec)
    with open(spec["out"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
