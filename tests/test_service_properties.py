"""Seeded property tests (hypothesis) for the service's merge and leases.

The merge invariant under test: for ANY interleaving of journal segments
— shards split arbitrarily, records duplicated across segments, segments
delivered out of order, a SIGKILLed writer leaving a torn final line —
the merged canonical journal is byte-identical to the journal a serial
writer would have produced from the same records.  And the lease
invariant: under ANY schedule of lease grants, expiries, partial reports
and thefts, every run index ends up with exactly one record.

Segments on disk are read through :func:`repro.persist.read_jsonl` (via
``merge_segment_files``), which drops a torn final line; writers trim it
with :func:`repro.persist.trim_partial_tail` before appending.
"""

import json
import os

from hypothesis import given, settings, strategies as st

from repro.persist import encode_entry, trim_partial_tail
from repro.service import (
    CAMPAIGN_COMPLETE,
    BrokerState,
    CampaignBundle,
    CampaignOptions,
    MergeConflict,
    campaign_id_for,
    merge_entries,
    merge_segment_files,
)
from repro.service.merge import render_canonical_runs
from repro.service.protocol import STATUS_LEASE, encode_blob
from repro.swifi import FailureMode, RunRecord

# ---------------------------------------------------------------------------
# synthetic-but-valid run records
# ---------------------------------------------------------------------------

MODES = [mode.value for mode in FailureMode]


def record_dict(index: int, salt: int = 0) -> dict:
    """A deterministic, schema-valid record for run *index*."""
    return RunRecord(
        fault_id=f"f{index // 3}",
        case_id=f"c{index % 3}",
        mode=FailureMode(MODES[(index + salt) % len(MODES)]),
        status="completed",
        exit_code=(index + salt) % 4,
        trap_kind=None,
        activations=1 + index % 2,
        injections=1,
        instructions=100 + index,
        metadata=(("klass", "assignment"), ("salt", salt)),
    ).to_dict()


def run_entry(index: int, salt: int = 0) -> dict:
    return {"type": "run", "index": index, "record": record_dict(index, salt)}


def canonical_text(total: int) -> str:
    records = {index: record_dict(index) for index in range(total)}
    return render_canonical_runs(records)


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

@st.composite
def segment_interleavings(draw):
    """(total_runs, segments): every index covered at least once, with
    arbitrary duplication, segment splits and within-segment order."""
    total = draw(st.integers(min_value=1, max_value=24))
    indices = list(range(total))
    # Cover everything once, then duplicate an arbitrary subset.
    duplicated = indices + draw(
        st.lists(st.sampled_from(indices), max_size=2 * total)
    )
    shuffled = draw(st.permutations(duplicated))
    segment_count = draw(st.integers(min_value=1, max_value=min(6, total + 1)))
    cut_points = sorted(draw(
        st.lists(st.integers(min_value=0, max_value=len(shuffled)),
                 min_size=segment_count - 1, max_size=segment_count - 1)
    ))
    segments, start = [], 0
    for cut in cut_points + [len(shuffled)]:
        segments.append([run_entry(i) for i in shuffled[start:cut]])
        start = cut
    return total, segments


class TestMergeProperties:
    @given(segment_interleavings())
    @settings(max_examples=60, deadline=None)
    def test_any_interleaving_merges_to_the_serial_journal(self, case):
        total, segments = case
        records, traces = merge_entries(segments, total_runs=total)
        assert sorted(records) == list(range(total))
        assert render_canonical_runs(records, traces) == canonical_text(total)

    @given(case=segment_interleavings(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_on_disk_segments_with_torn_tails_merge_identically(
        self, case, data, tmp_path_factory
    ):
        total, segments = case
        tmp_path = tmp_path_factory.mktemp("segs")
        paths = []
        for position, entries in enumerate(segments):
            path = tmp_path / f"seg-{position:02d}.jsonl"
            text = "".join(encode_entry(entry) for entry in entries)
            # A SIGKILLed writer leaves an unterminated final line on
            # any subset of segments; the duplicate coverage means no
            # data is actually lost.
            if data.draw(st.booleans(), label=f"tear[{position}]"):
                text += '{"type": "run", "index": '
            path.write_text(text)
            paths.append(str(path))
        records, _ = merge_segment_files(paths, total_runs=total)
        assert render_canonical_runs(records) == canonical_text(total)

    @given(st.integers(min_value=0, max_value=23),
           st.integers(min_value=1, max_value=99))
    @settings(max_examples=40, deadline=None)
    def test_differing_duplicates_always_refused(self, index, salt):
        segments = [[run_entry(index)], [run_entry(index, salt=salt)]]
        try:
            merge_entries(segments)
        except MergeConflict:
            return
        raise AssertionError("conflicting duplicate records were merged")

    @given(total=st.integers(min_value=1, max_value=24))
    @settings(max_examples=20, deadline=None)
    def test_trim_partial_tail_is_what_saves_a_torn_segment(
        self, total, tmp_path_factory
    ):
        tmp_path = tmp_path_factory.mktemp("torn")
        path = tmp_path / "seg.jsonl"
        text = "".join(encode_entry(run_entry(i)) for i in range(total))
        path.write_text(text + '{"type": "run"')
        trim_partial_tail(str(path))
        assert path.read_text() == text


# ---------------------------------------------------------------------------
# lease schedules
# ---------------------------------------------------------------------------

class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def fake_executable():
    """Leases only get *built* here, never executed, so any picklable
    object can stand in for the compiled executable."""
    return ("executable-stub",)


@st.composite
def lease_schedules(draw):
    """A random schedule of worker arrivals, stalls and completions."""
    total = draw(st.integers(min_value=1, max_value=18))
    events = draw(st.lists(
        st.tuples(
            st.sampled_from(["lease", "advance", "report-half", "report-all"]),
            st.integers(min_value=0, max_value=3),   # worker pick
        ),
        min_size=total, max_size=4 * total,
    ))
    return total, events


class TestLeaseProperties:
    @given(case=lease_schedules())
    @settings(max_examples=25, deadline=None)
    def test_any_schedule_yields_exactly_one_record_per_run(
        self, case, tmp_path_factory
    ):
        from repro.swifi import InputCase

        total, events = case
        tmp_path = tmp_path_factory.mktemp("state")
        clock = FakeClock()
        # max_attempts is effectively unlimited: adversarial schedules may
        # expire one shard dozens of times, and exhaustion (which turns
        # the campaign "failed") has its own directed test.
        state = BrokerState(str(tmp_path), lease_timeout=10.0, clock=clock,
                            max_attempts=10_000)
        faults = tuple(f"f{i}" for i in range(total))
        bundle = CampaignBundle(
            program="stub", executable=fake_executable(),
            faults=faults, cases=(InputCase("c0", {}, b""),),
            budgets={"c0": 100},
        )
        fingerprint = {"program": "stub", "seed": 0, "total_runs": total}
        campaign_id = campaign_id_for(fingerprint)
        state.submit(fingerprint,
                     CampaignOptions(seed=0, shard_size=2).to_dict(),
                     bundle.to_blob())
        held: dict[str, dict] = {}

        def report(worker, lease, indices, complete):
            entries = [run_entry(i) for i in indices]
            return state.report(worker, campaign_id, lease["shard_id"],
                                lease["attempt"], entries, complete=complete)

        for action, pick in events:
            worker = f"w{pick}"
            if action == "lease":
                reply = state.lease(worker)
                if reply["status"] == STATUS_LEASE and worker not in held:
                    held[worker] = reply
            elif action == "advance":
                clock.now += 6.0  # two advances in a row expire a lease
            elif worker in held:
                lease = held.pop(worker)
                task_indices = decode_task_indices(lease)
                if action == "report-half":
                    report(worker, lease, task_indices[: len(task_indices) // 2],
                           complete=False)
                else:
                    report(worker, lease, task_indices, complete=True)
        # Drain: one diligent worker finishes whatever is left, expiring
        # stalled leases from the event phase as it finds the queue empty.
        for _ in range(16 * total + 16):
            reply = state.lease("finisher")
            if reply["status"] != STATUS_LEASE:
                if state.snapshot(campaign_id)["state"] == CAMPAIGN_COMPLETE:
                    break
                clock.now += 11.0  # void whatever leases are still held
                continue
            report("finisher", reply, decode_task_indices(reply),
                   complete=True)
        snapshot = state.snapshot(campaign_id)
        assert snapshot["state"] == CAMPAIGN_COMPLETE, snapshot
        records, _ = merge_segment_files(
            state.campaigns[campaign_id].segment_paths(), total_runs=total
        )
        assert sorted(records) == list(range(total))
        path = state.journal_file(campaign_id, "runs.jsonl")
        with open(path, encoding="utf-8") as handle:
            entries = [json.loads(line) for line in handle]
        run_indices = [e["index"] for e in entries if e["type"] == "run"]
        assert run_indices == list(range(total))
        assert entries[-1]["type"] == "plan"


def decode_task_indices(lease) -> list[int]:
    """The run indices inside a lease's ShardTask blob."""
    from repro.service.protocol import decode_blob

    task = decode_blob(lease["task"])
    return [run_index for run_index, _, _ in task.runs]
