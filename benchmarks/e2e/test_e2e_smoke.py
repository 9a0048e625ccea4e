"""Smoke test of the end-to-end benchmark at a tiny size (about a minute).

    python -m pytest benchmarks/e2e/test_e2e_smoke.py

Each workload keeps its programs, options and code path but shrinks to a
handful of runs, so the test checks the benchmark's plumbing, not speed.
"""

import contextlib
import dataclasses
import io
import json
import os
import re
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

#: A seed with no pinned digest whose tiny slices contain no hang.
SEED = 7
SMALL = {"campaign_inputs": 1, "location_fraction": 0.0, "min_locations": 1}
TINY = {
    "camelot-long": dataclasses.replace(
        run.WORKLOADS["camelot-long"], classes=("checking",)),
    "sor-multicore": dataclasses.replace(
        run.WORKLOADS["sor-multicore"], experiment=SMALL, classes=("checking",)),
    "jamesb-short-pool": dataclasses.replace(
        run.WORKLOADS["jamesb-short-pool"], experiment=dict(SMALL, campaign_inputs=2)),
    "jamesb-memo-rerun": dataclasses.replace(
        run.WORKLOADS["jamesb-memo-rerun"], experiment=dict(SMALL, campaign_inputs=2)),
}
METRIC_LINE = re.compile(r"^\s+(\S+)\s+(\S+)\s+(\S+)\s+\[Q1 ")

with open(run.BENCHMARK, "r", encoding="utf-8") as handle:
    CONTRACT = json.load(handle)


def invoke(monkeypatch, *args: str) -> tuple[int, str]:
    monkeypatch.setattr(run, "WORKLOADS", TINY)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--seed", str(SEED), "--reps", "1", *args])
    return code, out.getvalue()


def sections(stdout: str) -> dict[str, dict[str, str]]:
    """Workload name → {metric name: unit} as printed."""
    found: dict[str, dict[str, str]] = {}
    current = None
    for line in stdout.splitlines():
        if line.startswith("== "):
            current = found.setdefault(line[3:].split(":")[0], {})
        elif current is not None and (match := METRIC_LINE.match(line)):
            current[match.group(1)] = match.group(3)
    return found


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """Every workload, one untraced and one traced repetition, with history."""
    out = tmp_path_factory.mktemp("e2e")
    with pytest.MonkeyPatch.context() as monkeypatch:
        code, stdout = invoke(monkeypatch, "--trace", "1", "--out", str(out))
    with open(out / "history.jsonl", "r", encoding="utf-8") as handle:
        history = [json.loads(line) for line in handle]
    return code, stdout, history


def test_every_metric_printed_with_its_unit(traced):
    code, stdout, _ = traced
    assert code == 0, stdout
    printed = sections(stdout)
    assert sorted(printed) == sorted(TINY)
    expected = {m["name"]: m["unit"] for m in CONTRACT["end_to_end"] + CONTRACT["per_layer"]}
    expected.update(run.INFO_METRICS)
    for workload, units in printed.items():
        assert units == {**units, **expected}, workload
    final = json.loads(stdout.strip().splitlines()[-1])
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert set(final["metrics"]) == {m["name"] for m in CONTRACT["per_layer"]}


def test_traced_rows_and_other_add_up_to_traced_wall(traced):
    _, _, history = traced
    for name, workload in history[-1]["workloads"].items():
        breakdown = workload["breakdown"]
        total = sum(breakdown["rows"].values()) + breakdown["other_s"]
        assert total == pytest.approx(breakdown["wall_s"], rel=1e-9, abs=1e-9), name
        assert breakdown["other_s"] >= 0, name


def test_history_line_has_every_field(traced):
    _, _, history = traced
    line = history[-1]
    for key in ("commit", "dirty", "nproc", "python", "seed", "overrides",
                "campaign_defaults", "workloads"):
        assert key in line
    assert line["seed"] == SEED
    assert set(line["campaign_defaults"]) == set(run.CAMPAIGN_OPTIONS)
    for name, workload in line["workloads"].items():
        for key in ("programs", "classes", "experiment", "campaign", "resolved",
                    "prepare_s", "metrics", "layers", "digest"):
            assert key in workload, (name, key)
        for summary in workload["metrics"].values():
            assert set(summary) == {"median", "q1", "q3", "n"}
    assert line["workloads"]["jamesb-memo-rerun"]["prepare_s"] > 0
    assert line["workloads"]["camelot-long"]["prepare_s"] is None


def test_planted_record_mismatch_fails_the_run(monkeypatch):
    reference_record = run.reference_record

    def planted(*args):
        record = reference_record(*args)
        record["instructions"] += 1
        return record

    monkeypatch.setattr(run, "reference_record", planted)
    code, stdout = invoke(monkeypatch, "--workload", "jamesb-short-pool")
    assert code != 0
    final = json.loads(stdout.strip().splitlines()[-1])
    assert not final["correct"]
    assert final["failed"] > 0
    fail_frac = [line for line in stdout.splitlines() if line.split()[:1] == ["fail_frac"]]
    assert float(fail_frac[0].split()[1]) > 0


def test_digest_mismatch_fails_the_run(monkeypatch, tmp_path):
    pinned = tmp_path / "digests.json"
    pinned.write_text(json.dumps({"seed": SEED, "jamesb-short-pool": "0" * 64}))
    monkeypatch.setattr(run, "DIGESTS", str(pinned))
    code, stdout = invoke(monkeypatch, "--workload", "jamesb-short-pool")
    assert code != 0
    assert "differs from the pinned" in stdout
