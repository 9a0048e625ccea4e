"""The append-only JSONL log: one tolerance policy, byte-stable journals.

A ``kill -9`` mid-append leaves an unterminated final line in a JSON-lines
journal.  Readers drop the torn line, and a writer re-opening in append
mode trims it first — otherwise it would fuse its first new record onto
it, corrupting two records.  These tests simulate the kill (truncate
mid-line) and assert each resumable artefact repairs the tail before
appending: the campaign runs journal (also covered by the orchestrator
tests), the planner's on-disk memo dir, the verify fuzzer's journal, the
srcfi campaign journal and the srcfi-compare pair journal.  Every reader
must raise, naming ``path:line``, on a malformed line anywhere else, and
seeded tiny runs must keep writing the same bytes.
"""

import json
import os

import pytest

from repro.persist import JsonlAppender, JsonlError, read_jsonl, trim_partial_tail


def _lines(path):
    with open(path, "r", encoding="utf-8") as handle:
        return [line for line in handle.read().splitlines() if line.strip()]


def _assert_all_lines_parse(path):
    for line in _lines(path):
        json.loads(line)  # raises on a fused/torn record


class TestTrimPartialTail:
    def test_missing_file_is_a_noop(self, tmp_path):
        trim_partial_tail(tmp_path / "absent.jsonl")
        assert not (tmp_path / "absent.jsonl").exists()

    def test_empty_and_clean_files_untouched(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_bytes(b"")
        clean = tmp_path / "clean.jsonl"
        clean.write_bytes(b'{"a": 1}\n{"b": 2}\n')
        trim_partial_tail(empty)
        trim_partial_tail(clean)
        assert empty.read_bytes() == b""
        assert clean.read_bytes() == b'{"a": 1}\n{"b": 2}\n'

    def test_torn_tail_is_truncated_to_last_newline(self, tmp_path):
        path = tmp_path / "torn.jsonl"
        path.write_bytes(b'{"a": 1}\n{"b": 2}\n{"c": ')
        trim_partial_tail(path)
        assert path.read_bytes() == b'{"a": 1}\n{"b": 2}\n'

    def test_single_partial_line_truncates_to_empty(self, tmp_path):
        path = tmp_path / "torn.jsonl"
        path.write_bytes(b'{"never finis')
        trim_partial_tail(path)
        assert path.read_bytes() == b""


class TestJsonlPrimitive:
    def test_appender_writes_canonical_lines_and_trims_first(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_bytes(b'{"a": 1}\n{"b": ')
        with JsonlAppender(path) as log:
            log.append({"c": [1, "x"]})
            log.sync()
        assert path.read_bytes() == b'{"a": 1}\n{"c": [1, "x"]}\n'
        assert read_jsonl(path) == [{"a": 1}, {"c": [1, "x"]}]

    def test_reader_drops_torn_tail_even_when_it_parses(self, tmp_path):
        # An unterminated line is dropped whatever it holds: the appender
        # would trim it, so keeping it on read would disagree with disk.
        path = tmp_path / "log.jsonl"
        path.write_bytes(b'{"a": 1}\n\n{"b": 2}')
        assert read_jsonl(path) == [{"a": 1}]
        assert read_jsonl(tmp_path / "absent.jsonl") == []

    def test_non_object_line_is_malformed(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_bytes(b'{"a": 1}\n[1, 2]\n')
        with pytest.raises(JsonlError, match="log.jsonl:2"):
            read_jsonl(path)


def _read_runs(directory):
    from repro.orchestrator.journal import load_runs_file

    load_runs_file(os.path.join(directory, "runs.jsonl"))


def _read_segment(directory):
    from repro.service import merge_segment_files

    merge_segment_files([os.path.join(directory, "seg-w-s0000-a01.jsonl")])


def _read_srcfi(directory):
    from repro.srcfi import SourceLocator
    from repro.swifi import CampaignConfig, CampaignRunner

    compiled, cases, _ = _pin_target()
    faults = SourceLocator(compiled).source_faults(max_sites_per_operator=1)
    CampaignRunner(compiled, cases).run(faults, config=CampaignConfig(
        tier="source", journal_dir=directory, resume=True))


def _read_compare(directory):
    from repro.experiments import ExperimentConfig, run_srcfi_compare

    run_srcfi_compare(ExperimentConfig().tiny(), programs=["JB.team6"],
                      max_sites=1, include_real=False,
                      journal_dir=directory, resume=True)


def _read_fuzz(directory):
    from repro.verify import FuzzConfig, run_fuzz

    run_fuzz(FuzzConfig(seed=3, cases=1, faults_per_program=1,
                        inputs_per_program=1, record_tier=False,
                        journal_dir=directory, resume=True))


def _read_memo(directory):
    from repro.planning.memo import OutcomeCache

    OutcomeCache(directory)


#: reader id -> (file name, reader over the directory, exception it raises)
READERS = {
    "runs": ("runs.jsonl", _read_runs, "JournalError"),
    "segment": ("seg-w-s0000-a01.jsonl", _read_segment, "MergeConflict"),
    "srcfi": ("source_runs.jsonl", _read_srcfi, "JsonlError"),
    "compare": ("pairs.jsonl", _read_compare, "JsonlError"),
    "fuzz": ("fuzz_journal.jsonl", _read_fuzz, "JsonlError"),
    "memo": ("memo-1.jsonl", _read_memo, "JsonlError"),
}


@pytest.mark.parametrize("reader", sorted(READERS))
class TestReaderPolicy:
    """Every JSONL reader: a torn tail is dropped, interior garbage raises."""

    def test_torn_tail_is_dropped(self, tmp_path, reader):
        name, read, _ = READERS[reader]
        (tmp_path / name).write_text('{"type": "run", "ind')
        read(str(tmp_path))

    def test_interior_garbage_raises_with_path_and_line(self, tmp_path, reader):
        name, read, error_name = READERS[reader]
        (tmp_path / name).write_text("\nnot json at all\n{}\n")
        with pytest.raises(Exception, match=f"{name}:2") as raised:
            read(str(tmp_path))
        assert type(raised.value).__name__ == error_name


class TestMemoDirRepair:
    def test_append_after_kill_does_not_fuse_records(self, tmp_path):
        from repro.planning.memo import OutcomeCache

        # A process with this very pid was killed mid-append earlier
        # (pid reuse): one whole record plus a torn tail.
        sink = tmp_path / f"memo-{os.getpid()}.jsonl"
        good = {"key": "k1", "outcome": {"mode": "correct"}}
        sink.write_text(json.dumps(good) + "\n"
                        + json.dumps({"key": "k2", "outcome": {}})[:9])

        cache = OutcomeCache(str(tmp_path))
        assert cache.get("k1") == {"mode": "correct"}
        cache.put("k3", {"mode": "crash"})
        cache.close()

        _assert_all_lines_parse(sink)
        warm = OutcomeCache(str(tmp_path))
        assert warm.get("k1") == {"mode": "correct"}
        assert warm.get("k3") == {"mode": "crash"}
        assert warm.get("k2") is None  # torn record stays dead


class TestFuzzJournalRepair:
    def test_resume_after_kill_repairs_then_extends(self, tmp_path):
        from repro.verify import FuzzConfig, run_fuzz
        from repro.verify.fuzzer import FUZZ_JOURNAL

        journal_dir = tmp_path / "fuzz"
        config = dict(seed=3, cases=4, faults_per_program=2,
                      inputs_per_program=1, record_tier=False,
                      journal_dir=str(journal_dir))
        first = run_fuzz(FuzzConfig(**config))
        assert first.ok()

        journal = journal_dir / FUZZ_JOURNAL
        whole = _lines(journal)
        assert whole  # the run journaled something

        # Simulate a kill mid-append: last record loses its tail.
        with open(journal, "r+b") as handle:
            data = handle.read()
            handle.truncate(len(data) - 7)

        resumed = run_fuzz(FuzzConfig(**config, resume=True))
        assert resumed.ok()
        _assert_all_lines_parse(journal)
        # The torn program was re-run and re-journaled, nothing fused.
        assert resumed.resumed_programs == len(whole) - 1
        final = [json.loads(line) for line in _lines(journal)]
        assert sorted(e["index"] for e in final) == sorted(
            e["index"] for e in (json.loads(l) for l in whole)
        )


class TestSrcfiJournalRepair:
    @pytest.fixture(scope="class")
    def target(self):
        from repro.lang import compile_source
        from repro.srcfi import SourceLocator
        from repro.swifi import InputCase

        source = """
        int in_x;
        void main() {
            int i; int total = 0;
            for (i = 0; i < 4; i++) { total = total + in_x; }
            print_int(total);
            exit(0);
        }
        """
        compiled = compile_source(source, "persist-target")
        cases = [InputCase("a", {"in_x": 3}, b"12")]
        faults = SourceLocator(compiled).source_faults(
            max_sites_per_operator=2)
        assert len(faults) >= 2
        return compiled, cases, faults

    def test_resume_after_kill_repairs_then_extends(self, tmp_path, target):
        from repro.srcfi.campaign import JOURNAL_NAME
        from repro.swifi import CampaignConfig, CampaignRunner

        compiled, cases, faults = target
        journal_dir = str(tmp_path / "j")
        first = CampaignRunner(compiled, cases).run(
            faults, config=CampaignConfig(
                tier="source", journal_dir=journal_dir))

        journal = os.path.join(journal_dir, JOURNAL_NAME)
        whole = _lines(journal)
        assert len(whole) == len(first.records)

        with open(journal, "r+b") as handle:
            data = handle.read()
            handle.truncate(len(data) - 9)

        resumed = CampaignRunner(compiled, cases).run(
            faults, config=CampaignConfig(
                tier="source", journal_dir=journal_dir, resume=True))
        _assert_all_lines_parse(journal)
        assert [r.to_dict() for r in resumed.records] == \
            [r.to_dict() for r in first.records]
        # Torn record re-executed and re-appended exactly once.
        assert len(_lines(journal)) == len(whole)


class TestCompareJournalRepair:
    def test_resume_after_kill_repairs_then_extends(self, tmp_path):
        from repro.experiments import ExperimentConfig, run_srcfi_compare

        journal_dir = str(tmp_path / "pairs")
        options = dict(programs=["JB.team6"], max_sites=1, include_real=False,
                       journal_dir=journal_dir)
        first = run_srcfi_compare(ExperimentConfig().tiny(), **options)

        journal = os.path.join(journal_dir, "pairs.jsonl")
        whole = _lines(journal)
        assert len(whole) >= 2

        with open(journal, "r+b") as handle:
            data = handle.read()
            handle.truncate(len(data) - 9)

        for _ in range(2):  # the second resume reads what the first appended
            resumed = run_srcfi_compare(ExperimentConfig().tiny(), resume=True,
                                        **options)
            _assert_all_lines_parse(journal)
            assert resumed.jsonable() == first.jsonable()
        # Torn pair re-executed and re-appended exactly once.
        assert len(_lines(journal)) == len(whole)


# ---------------------------------------------------------------------------
# Byte pins: identical inputs write byte-identical journals
# ---------------------------------------------------------------------------

#: SHA-256 of each append-only journal a seeded tiny run writes.  A change
#: here means a journal's bytes moved: old journals would no longer resume
#: or merge bit-identically, so update a pin only on purpose.  ``runs.jsonl``
#: is pinned at jobs=1: pool entries land in completion order, and their
#: canonical form is covered by the service merge tests.
JOURNAL_PINS = {
    "runs.jsonl": "0a0590f29dbdfc95fa39ef12a1f916fea9520af8960b817f61f168a50df7447a",
    "source_runs.jsonl": "8019999447a6429373229b49a9c3b730afe974d774ff0b94a5654228c7d18a01",
    "pairs.jsonl": "237c51bc449e9e7ef8bf9aa1ac2dd3d70153091d68d33333966a5ecb7e4a9df1",
    "fuzz_journal.jsonl": "ee47738505fbdb7429a26aac59bf5d16618443c384d4925738959f30061c0d68",
    "memo.jsonl": "ec00542196f5a2a605ae6986211557867d746776c491ba3dae60c3ccd065e26c",
}


def _sha256(path):
    import hashlib

    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def _pin_target():
    from repro.lang import compile_source
    from repro.swifi import Action, Arithmetic, InputCase, MachineFault
    from repro.swifi import OpcodeFetch, StoreValue

    compiled = compile_source("""
    int in_x;
    void main() {
        int i; int total = 0;
        for (i = 0; i < 4; i++) { total = total + in_x; }
        print_int(total);
        exit(0);
    }
    """, "pin-target")
    cases = [InputCase("a", {"in_x": 3}, b"12"),
             InputCase("b", {"in_x": -1}, b"-4")]
    faults = [
        MachineFault(f"f{k}-{delta}", OpcodeFetch(site.address),
                     (Action(StoreValue(), Arithmetic(delta)),))
        for k, site in enumerate(compiled.debug.assignments)
        for delta in (1, 7)
    ]
    return compiled, cases, faults


class TestJournalBytesPinned:
    """Seeded tiny runs of every journaled front end, hashed byte for byte."""

    @pytest.fixture(scope="class")
    def journals(self, tmp_path_factory):
        from repro.experiments import ExperimentConfig, run_srcfi_compare
        from repro.srcfi import SourceLocator
        from repro.srcfi.campaign import JOURNAL_NAME
        from repro.swifi import CampaignConfig, CampaignRunner
        from repro.verify import FuzzConfig, run_fuzz
        from repro.verify.fuzzer import FUZZ_JOURNAL

        root = tmp_path_factory.mktemp("pins")
        compiled, cases, faults = _pin_target()
        paths = {}

        CampaignRunner(compiled, cases).run(faults, config=CampaignConfig(
            journal_dir=str(root / "runs"), seed=5))
        paths["runs.jsonl"] = root / "runs" / "runs.jsonl"

        source_faults = SourceLocator(compiled).source_faults(
            max_sites_per_operator=1)
        CampaignRunner(compiled, cases).run(source_faults, config=CampaignConfig(
            tier="source", journal_dir=str(root / "source")))
        paths["source_runs.jsonl"] = root / "source" / JOURNAL_NAME

        run_srcfi_compare(ExperimentConfig().tiny(), programs=["JB.team6"],
                          max_sites=1, include_real=False,
                          journal_dir=str(root / "compare"))
        paths["pairs.jsonl"] = root / "compare" / "pairs.jsonl"

        run_fuzz(FuzzConfig(seed=3, cases=4, faults_per_program=2,
                            inputs_per_program=1, record_tier=False,
                            journal_dir=str(root / "fuzz")))
        paths["fuzz_journal.jsonl"] = root / "fuzz" / FUZZ_JOURNAL

        CampaignRunner(compiled, cases).run(faults, config=CampaignConfig(
            memoize=True, memo_dir=str(root / "memo")))
        (memo,) = (root / "memo").glob("memo-*.jsonl")
        paths["memo.jsonl"] = memo
        return paths

    @pytest.mark.parametrize("name", sorted(JOURNAL_PINS))
    def test_journal_bytes_match_pin(self, journals, name):
        assert _sha256(journals[name]) == JOURNAL_PINS[name]
