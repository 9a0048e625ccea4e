"""Tests for the distributed campaign service (broker, workers, merge).

Layered like the package itself:

* protocol: blob round-trips, campaign identity, wire-version refusal;
* merge: segment parsing, at-least-once dedup, conflict refusal, and the
  canonical rendering that must equal a local serial journal byte for
  byte;
* broker state machine (driven directly, with an injected clock): lease
  grants, heartbeat renewal, expiry + work stealing, stale reports,
  max-attempts exhaustion, idempotent submission, restart recovery;
* HTTP: the full loop — broker server, urllib client, in-process
  workers — finishing a real mini campaign with a journal bit-identical
  to ``--jobs 1``.
"""

import json
import os
import threading

import pytest

from repro.lang import compile_source
from repro.orchestrator import (
    CampaignOrchestrator,
    OrchestratorOptions,
    campaign_fingerprint,
)
from repro.orchestrator.journal import MANIFEST_NAME, RUNS_NAME
from repro.service import (
    CAMPAIGN_COMPLETE,
    CAMPAIGN_FAILED,
    CAMPAIGN_RUNNING,
    BrokerClient,
    BrokerHTTPServer,
    BrokerRequestError,
    BrokerState,
    CampaignBundle,
    CampaignOptions,
    MergeConflict,
    ServiceError,
    ServiceWorker,
    campaign_id_for,
    decode_blob,
    encode_blob,
    merge_entries,
    merge_segment_files,
)
from repro.service.protocol import (
    STATUS_IDLE,
    STATUS_LEASE,
    STATUS_LOST,
    STATUS_OK,
    ProtocolError,
)
from repro.service.state import OPTIONS_NAME
from repro.swifi import (
    Action,
    Arithmetic,
    CampaignRunner,
    InputCase,
    MachineFault,
    OpcodeFetch,
    StoreValue,
)

SOURCE = """
int in_x;
void main() {
    int doubled = in_x * 2;
    print_int(doubled);
    exit(0);
}
"""

SEED = 11


@pytest.fixture(scope="module")
def campaign():
    """A calibrated 6-fault x 2-case mini campaign (12 runs)."""
    compiled = compile_source(SOURCE, "double")
    cases = [
        InputCase("a", {"in_x": 3}, b"6"),
        InputCase("b", {"in_x": -5}, b"-10"),
    ]
    runner = CampaignRunner(compiled, cases)
    runner.calibrate()
    site = compiled.debug.assignments[0]
    faults = [
        MachineFault(
            f"f{delta}",
            OpcodeFetch(site.address),
            (Action(StoreValue(), Arithmetic(delta)),),
        ).with_metadata(klass="assignment", error_type=f"value+{delta}")
        for delta in range(1, 7)
    ]
    return runner, faults


@pytest.fixture(scope="module")
def serial_journal(campaign, tmp_path_factory):
    """The ground truth: a local ``--jobs 1`` journaled campaign."""
    runner, faults = campaign
    directory = str(tmp_path_factory.mktemp("serial") / "journal")
    orchestrator = CampaignOrchestrator.from_runner(
        runner, faults,
        options=OrchestratorOptions(jobs=1, seed=SEED, journal_dir=directory),
    )
    orchestrator.run()
    with open(os.path.join(directory, RUNS_NAME), "rb") as handle:
        runs = handle.read()
    with open(os.path.join(directory, MANIFEST_NAME), "rb") as handle:
        manifest = handle.read()
    return runs, manifest


def make_submission(runner, faults, **options):
    fingerprint = campaign_fingerprint(
        program=runner.compiled.name,
        seed=SEED,
        fault_ids=[fault.fault_id for fault in faults],
        case_ids=[case.case_id for case in runner.cases],
    )
    bundle = CampaignBundle(
        program=runner.compiled.name,
        executable=runner.compiled.executable,
        faults=tuple(faults),
        cases=tuple(runner.cases),
        budgets=dict(runner.budgets),
        num_cores=runner.num_cores,
        quantum=runner.quantum,
    )
    opts = CampaignOptions(seed=SEED, **options)
    return fingerprint, opts, bundle


class FakeClock:
    def __init__(self):
        self.now = 1000.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def run_leased_shard(state, lease, *, complete=True):
    """Execute a lease's ShardTask and report every run, like a worker."""
    task = decode_blob(lease["task"])
    entries = []

    def emit(run_index, record, trace):
        entries.append({"type": "run", "index": run_index,
                        "record": record.to_dict()})
        if trace is not None:
            entries.append({"type": "trace", "index": run_index,
                            "trace": trace})

    from repro.orchestrator import execute_shard_runs

    execute_shard_runs(task, emit)
    return state.report(
        lease_worker(lease), lease["campaign_id"], lease["shard_id"],
        lease["attempt"], entries, complete=complete,
    )


_LEASE_OWNERS = {}


def lease_worker(lease):
    return _LEASE_OWNERS[(lease["campaign_id"], lease["shard_id"],
                          lease["attempt"])]


def take_lease(state, worker_id):
    lease = state.lease(worker_id)
    if lease["status"] == STATUS_LEASE:
        _LEASE_OWNERS[(lease["campaign_id"], lease["shard_id"],
                       lease["attempt"])] = worker_id
    return lease


# ---------------------------------------------------------------------------
# protocol
# ---------------------------------------------------------------------------

#: Options a worker could not run: the retired ``block`` engine (an old
#: client, or an old broker's ``options.json``), an unknown engine and
#: an unknown snapshot policy.
UNRUNNABLE_OPTIONS = [
    ("engine", "block"),
    ("engine", "bogus"),
    ("snapshot", "bogus"),
]


class TestProtocol:
    def test_blob_roundtrip(self):
        payload = {"faults": [1, 2, 3], "nested": ("a", b"bytes")}
        assert decode_blob(encode_blob(payload)) == payload

    def test_undecodable_blob_raises_protocol_error(self):
        with pytest.raises(ProtocolError):
            decode_blob("not base64 pickle !!!")

    def test_campaign_id_ignores_key_order(self):
        a = {"program": "p", "seed": 1, "total_runs": 4}
        b = {"total_runs": 4, "seed": 1, "program": "p"}
        assert campaign_id_for(a) == campaign_id_for(b)

    def test_campaign_id_distinguishes_campaigns(self):
        a = {"program": "p", "seed": 1}
        assert campaign_id_for(a) != campaign_id_for({"program": "p", "seed": 2})

    def test_options_roundtrip(self):
        options = CampaignOptions(seed=7, shard_size=3, engine="trace",
                                  trace=True, label="x", workers_hint=2)
        assert CampaignOptions.from_dict(options.to_dict()) == options

    @pytest.mark.parametrize("field, value", UNRUNNABLE_OPTIONS)
    def test_options_reject_what_no_worker_can_run(self, field, value):
        payload = CampaignOptions().to_dict()
        payload[field] = value
        with pytest.raises(ProtocolError, match=f"{field} must be one of"):
            CampaignOptions.from_dict(payload)

    def test_options_reject_wire_version_mismatch(self):
        payload = CampaignOptions().to_dict()
        payload["wire_version"] = 999
        with pytest.raises(ProtocolError, match="wire version"):
            CampaignOptions.from_dict(payload)

    def test_bundle_blob_type_checked(self):
        with pytest.raises(ProtocolError, match="CampaignBundle"):
            CampaignBundle.from_blob(encode_blob({"not": "a bundle"}))

    def test_bundle_roundtrip_counts_runs(self, campaign):
        runner, faults = campaign
        _, _, bundle = make_submission(runner, faults)
        decoded = CampaignBundle.from_blob(bundle.to_blob())
        assert decoded.total_runs == len(faults) * len(runner.cases)
        assert [f.fault_id for f in decoded.faults] == \
            [f.fault_id for f in faults]


# ---------------------------------------------------------------------------
# merge
# ---------------------------------------------------------------------------

def run_entry(index, payload="r"):
    return {"type": "run", "index": index,
            "record": {"fault_id": f"f{index}", "payload": payload}}


class TestMerge:
    def test_parse_drops_single_torn_tail(self, tmp_path):
        segment = tmp_path / "seg.jsonl"
        segment.write_text(json.dumps(run_entry(0)) + "\n" + '{"type": "run", "ind')
        records, _ = merge_segment_files([str(segment)])
        assert sorted(records) == [0]

    def test_parse_rejects_interior_corruption(self, tmp_path):
        segment = tmp_path / "seg.jsonl"
        segment.write_text('{"bad json\n' + json.dumps(run_entry(0)) + "\n")
        with pytest.raises(MergeConflict, match="seg.jsonl:1"):
            merge_segment_files([str(segment)])

    def test_duplicate_identical_records_dedup(self):
        records, _ = merge_entries([[run_entry(0), run_entry(1)],
                                    [run_entry(1), run_entry(0)]])
        assert sorted(records) == [0, 1]

    def test_duplicate_differing_records_refused(self):
        with pytest.raises(MergeConflict, match="disagree"):
            merge_entries([[run_entry(0, "x")], [run_entry(0, "y")]])

    def test_out_of_range_index_refused(self):
        with pytest.raises(MergeConflict, match="outside"):
            merge_entries([[run_entry(7)]], total_runs=4)

    def test_unknown_entry_type_refused(self):
        with pytest.raises(MergeConflict, match="unknown"):
            merge_entries([[{"type": "mystery"}]])

    def test_merge_segment_files_trims_tails(self, tmp_path):
        good = tmp_path / "seg-a.jsonl"
        torn = tmp_path / "seg-b.jsonl"
        good.write_text(json.dumps(run_entry(0)) + "\n")
        torn.write_text(json.dumps(run_entry(1)) + "\n" + '{"type": "ru')
        records, _ = merge_segment_files([str(good), str(torn),
                                          str(tmp_path / "missing.jsonl")])
        assert sorted(records) == [0, 1]


# ---------------------------------------------------------------------------
# broker state machine
# ---------------------------------------------------------------------------

class TestBrokerState:
    def make_state(self, tmp_path, **kwargs):
        clock = FakeClock()
        kwargs.setdefault("lease_timeout", 10.0)
        state = BrokerState(str(tmp_path / "state"), clock=clock, **kwargs)
        return state, clock

    def submit(self, state, campaign, **options):
        runner, faults = campaign
        options.setdefault("shard_size", 4)
        fingerprint, opts, bundle = make_submission(runner, faults, **options)
        return state.submit(fingerprint, opts.to_dict(), bundle.to_blob())

    def test_submission_is_idempotent(self, tmp_path, campaign):
        state, _ = self.make_state(tmp_path)
        first = self.submit(state, campaign)
        again = self.submit(state, campaign)
        assert not first["resumed"] and again["resumed"]
        assert first["campaign_id"] == again["campaign_id"]
        assert len(state.campaigns) == 1

    def test_fingerprint_run_count_cross_checked(self, tmp_path, campaign):
        state, _ = self.make_state(tmp_path)
        runner, faults = campaign
        fingerprint, opts, bundle = make_submission(runner, faults)
        fingerprint = dict(fingerprint, total_runs=99)
        with pytest.raises(ProtocolError, match="99"):
            state.submit(fingerprint, opts.to_dict(), bundle.to_blob())

    def test_lease_report_complete_cycle(self, tmp_path, campaign, serial_journal):
        state, _ = self.make_state(tmp_path)
        reply = self.submit(state, campaign)
        campaign_id = reply["campaign_id"]
        while True:
            lease = take_lease(state, "w1")
            if lease["status"] != STATUS_LEASE:
                break
            outcome = run_leased_shard(state, lease)
            assert outcome["status"] == STATUS_OK
        snapshot = state.snapshot(campaign_id)
        assert snapshot["state"] == CAMPAIGN_COMPLETE
        assert snapshot["completed_runs"] == snapshot["total_runs"]
        with open(state.journal_file(campaign_id, RUNS_NAME), "rb") as handle:
            assert handle.read() == serial_journal[0]
        with open(state.journal_file(campaign_id, MANIFEST_NAME), "rb") as handle:
            assert handle.read() == serial_journal[1]

    def test_journal_file_refused_while_running(self, tmp_path, campaign):
        state, _ = self.make_state(tmp_path)
        campaign_id = self.submit(state, campaign)["campaign_id"]
        with pytest.raises(ServiceError, match="no merged journal"):
            state.journal_file(campaign_id, RUNS_NAME)
        with pytest.raises(ServiceError, match="no such journal"):
            state.journal_file(campaign_id, "../../etc/passwd")

    def test_heartbeat_renews_lease(self, tmp_path, campaign):
        state, clock = self.make_state(tmp_path, lease_timeout=10.0)
        self.submit(state, campaign)
        lease = take_lease(state, "w1")
        for _ in range(5):
            clock.advance(8.0)  # past the original expiry every time
            reply = state.heartbeat("w1", lease["campaign_id"],
                                    lease["shard_id"], lease["attempt"])
            assert reply["status"] == STATUS_OK
        assert run_leased_shard(state, lease)["status"] == STATUS_OK

    def test_expired_lease_is_stolen_exactly_once_per_run(
        self, tmp_path, campaign, serial_journal
    ):
        """The satellite-3 contract: a stalled worker loses its shard,
        another worker completes it, and the merged journal holds exactly
        one record per (fault, case) pair."""
        state, clock = self.make_state(tmp_path, lease_timeout=10.0)
        campaign_id = self.submit(state, campaign)["campaign_id"]
        stalled = take_lease(state, "stalled")
        assert stalled["status"] == STATUS_LEASE
        clock.advance(11.0)  # stalled worker misses its heartbeat window
        seen = set()
        while True:
            lease = take_lease(state, "thief")
            if lease["status"] != STATUS_LEASE:
                break
            assert lease_worker(lease) == "thief"
            if lease["shard_id"] == stalled["shard_id"]:
                assert lease["attempt"] == stalled["attempt"] + 1
                seen.add("stolen")
            run_leased_shard(state, lease)
        assert "stolen" in seen
        snapshot = state.snapshot(campaign_id)
        assert snapshot["state"] == CAMPAIGN_COMPLETE
        assert snapshot["lease_expiries"] >= 1
        # Exactly one record per (fault, case): byte-equality with the
        # serial journal implies it, but assert the index set directly too.
        records, _ = merge_segment_files(
            state.campaigns[campaign_id].segment_paths()
        )
        assert sorted(records) == list(range(snapshot["total_runs"]))
        with open(state.journal_file(campaign_id, RUNS_NAME), "rb") as handle:
            assert handle.read() == serial_journal[0]

    def test_stale_report_keeps_results_but_denies_lease(
        self, tmp_path, campaign
    ):
        state, clock = self.make_state(tmp_path, lease_timeout=10.0)
        campaign_id = self.submit(state, campaign)["campaign_id"]
        lease = take_lease(state, "w1")
        task = decode_blob(lease["task"])
        clock.advance(11.0)
        # The expired shard re-queues at the back; lease until w2 steals it.
        while True:
            steal = take_lease(state, "w2")
            assert steal["status"] == STATUS_LEASE
            if steal["shard_id"] == lease["shard_id"]:
                break
        # w1 finally reports a finished run under its dead lease.
        from repro.orchestrator import execute_shard_runs

        collected = []
        execute_shard_runs(task, lambda i, r, t: collected.append(
            {"type": "run", "index": i, "record": r.to_dict()}))
        reply = state.report("w1", campaign_id, lease["shard_id"],
                             lease["attempt"], collected[:1])
        assert reply["status"] == STATUS_LOST
        assert reply["completed_runs"] >= 1  # the result was NOT dropped
        assert state.snapshot(campaign_id)["stale_reports"] >= 1

    def test_complete_without_results_requeues(self, tmp_path, campaign):
        state, _ = self.make_state(tmp_path)
        campaign_id = self.submit(state, campaign)["campaign_id"]
        lease = take_lease(state, "liar")
        reply = state.report("liar", campaign_id, lease["shard_id"],
                             lease["attempt"], [], complete=True)
        assert reply["status"] == STATUS_OK
        snapshot = state.snapshot(campaign_id)
        assert snapshot["completed_runs"] == 0
        release = take_lease(state, "honest")
        assert release["status"] == STATUS_LEASE

    def test_max_attempts_marks_runs_failed(self, tmp_path, campaign):
        state, clock = self.make_state(
            tmp_path, lease_timeout=5.0, max_attempts=2
        )
        campaign_id = self.submit(state, campaign)["campaign_id"]
        for _ in range(20):  # every lease dies until all shards exhaust
            lease = take_lease(state, "doomed")
            if lease["status"] != STATUS_LEASE:
                break
            clock.advance(6.0)
        snapshot = state.snapshot(campaign_id)
        assert snapshot["state"] == CAMPAIGN_FAILED
        assert snapshot["failed_runs"] == snapshot["total_runs"]
        with open(state.journal_file(campaign_id, RUNS_NAME),
                  encoding="utf-8") as handle:
            kinds = [json.loads(line)["type"] for line in handle]
        assert "shard-failed" in kinds and kinds[-1] == "plan"

    def test_restart_recovers_partial_campaign(
        self, tmp_path, campaign, serial_journal
    ):
        state, _ = self.make_state(tmp_path)
        campaign_id = self.submit(state, campaign)["campaign_id"]
        lease = take_lease(state, "w1")
        run_leased_shard(state, lease)
        done_before = state.snapshot(campaign_id)["completed_runs"]
        assert 0 < done_before < state.campaigns[campaign_id].total_runs
        # SIGKILL-equivalent: drop the in-memory state, re-read the disk.
        reborn = BrokerState(state.state_dir, clock=FakeClock())
        snapshot = reborn.snapshot(campaign_id)
        assert snapshot["state"] == CAMPAIGN_RUNNING
        assert snapshot["completed_runs"] == done_before
        while True:
            lease = take_lease(reborn, "w2")
            if lease["status"] != STATUS_LEASE:
                break
            run_leased_shard(reborn, lease)
        with open(reborn.journal_file(campaign_id, RUNS_NAME), "rb") as handle:
            assert handle.read() == serial_journal[0]

    @pytest.mark.parametrize("field, value", UNRUNNABLE_OPTIONS)
    def test_submit_rejects_what_no_worker_can_run(
        self, tmp_path, campaign, field, value
    ):
        state, _ = self.make_state(tmp_path)
        with pytest.raises(ProtocolError, match=f"{field} must be one of"):
            self.submit(state, campaign, **{field: value})
        assert not state.campaigns
        assert state.lease("w")["status"] == STATUS_IDLE

    def test_recovery_names_a_campaign_it_cannot_run(self, tmp_path, campaign):
        state, _ = self.make_state(tmp_path)
        campaign_id = self.submit(state, campaign)["campaign_id"]
        directory = state.campaigns[campaign_id].directory
        # A campaign submitted with ``engine="block"`` before the engine
        # was retired: its persisted options name an engine no worker has.
        options_path = os.path.join(directory, OPTIONS_NAME)
        with open(options_path, "r", encoding="utf-8") as handle:
            options = json.load(handle)
        options["engine"] = "block"
        with open(options_path, "w", encoding="utf-8") as handle:
            json.dump(options, handle)
        with pytest.raises(ProtocolError) as excinfo:
            BrokerState(state.state_dir, clock=FakeClock())
        assert directory in str(excinfo.value)
        assert "engine must be one of" in str(excinfo.value)

    def test_unknown_campaign_rejected(self, tmp_path):
        state, _ = self.make_state(tmp_path)
        with pytest.raises(ServiceError, match="unknown campaign"):
            state.report("w", "feedfacecafebeef", 0, 1, [])
        with pytest.raises(ServiceError, match="unknown campaign"):
            state.snapshot("feedfacecafebeef")

    def test_idle_when_no_campaigns(self, tmp_path):
        state, _ = self.make_state(tmp_path)
        assert state.lease("w")["status"] == STATUS_IDLE


# ---------------------------------------------------------------------------
# HTTP integration
# ---------------------------------------------------------------------------

@pytest.fixture()
def http_broker(tmp_path):
    state = BrokerState(str(tmp_path / "state"), lease_timeout=30.0)
    server = BrokerHTTPServer(("127.0.0.1", 0), state)
    thread = threading.Thread(target=server.serve_forever,
                              kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    client = BrokerClient(f"http://127.0.0.1:{server.server_address[1]}")
    try:
        yield state, server, client
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5.0)


class TestHTTP:
    def test_ping_handshake(self, http_broker):
        _, _, client = http_broker
        reply = client.ping()
        assert reply["status"] == STATUS_OK and not reply["stopping"]

    def test_unknown_campaign_404(self, http_broker):
        _, _, client = http_broker
        with pytest.raises(BrokerRequestError) as excinfo:
            client.status("feedfacecafebeef")
        assert excinfo.value.code == 404

    def test_unknown_path_404(self, http_broker):
        _, _, client = http_broker
        with pytest.raises(BrokerRequestError) as excinfo:
            client._request("/no-such-endpoint")
        assert excinfo.value.code == 404

    def test_malformed_body_400(self, http_broker):
        import urllib.request

        _, _, client = http_broker
        request = urllib.request.Request(
            client.base_url + "/api/v1/lease", data=b"not json",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(Exception) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert getattr(excinfo.value, "code", None) == 400

    @pytest.mark.parametrize("field, value", UNRUNNABLE_OPTIONS)
    def test_submit_of_what_no_worker_can_run_is_400(
        self, http_broker, campaign, field, value
    ):
        state, _, client = http_broker
        runner, faults = campaign
        fingerprint, opts, bundle = make_submission(runner, faults,
                                                    **{field: value})
        with pytest.raises(BrokerRequestError) as excinfo:
            client.submit(fingerprint, opts.to_dict(), bundle.to_blob())
        assert excinfo.value.code == 400
        assert f"{field} must be one of" in str(excinfo.value)
        assert not state.campaigns

    def test_full_campaign_over_http_is_bit_identical(
        self, http_broker, campaign, serial_journal
    ):
        state, _, client = http_broker
        runner, faults = campaign
        fingerprint, opts, bundle = make_submission(
            runner, faults, shard_size=4
        )
        reply = client.submit(fingerprint, opts.to_dict(), bundle.to_blob())
        campaign_id = reply["campaign_id"]
        worker = ServiceWorker(client.base_url, worker_id="w-http",
                               max_idle=0.0, poll_interval=0.05)
        assert worker.run() == 0
        assert worker.shards_completed >= 1
        snapshot = client.status(campaign_id)
        assert snapshot["state"] == CAMPAIGN_COMPLETE
        assert client.fetch_journal_file(campaign_id, RUNS_NAME) == \
            serial_journal[0]
        assert client.fetch_journal_file(campaign_id, MANIFEST_NAME) == \
            serial_journal[1]

    def test_stream_follows_campaign_to_completion(
        self, http_broker, campaign
    ):
        _, _, client = http_broker
        runner, faults = campaign
        fingerprint, opts, bundle = make_submission(
            runner, faults, shard_size=6
        )
        campaign_id = client.submit(
            fingerprint, opts.to_dict(), bundle.to_blob()
        )["campaign_id"]
        worker = ServiceWorker(client.base_url, worker_id="w-stream",
                               max_idle=0.0, poll_interval=0.05)
        thread = threading.Thread(target=worker.run, daemon=True)
        thread.start()
        snapshots = list(client.stream(campaign_id))
        thread.join(timeout=60.0)
        assert snapshots[-1]["state"] == CAMPAIGN_COMPLETE
        assert snapshots[-1]["completed_runs"] == bundle.total_runs
        assert all(s["campaign_id"] == campaign_id for s in snapshots)

    def test_stopping_broker_turns_workers_away(self, http_broker):
        # Set the stopping flag directly rather than POSTing /shutdown:
        # the real shutdown also stops serve_forever, and this test is
        # about the lease path, not socket teardown.
        _, server, client = http_broker
        server.stopping.set()
        reply = client.lease("w-late")
        assert reply["status"] == "shutdown"

    def test_shutdown_endpoint_stops_the_server(self, http_broker):
        _, server, client = http_broker
        assert client.shutdown()["status"] == "stopping"
        assert server.stopping.wait(timeout=5.0)
