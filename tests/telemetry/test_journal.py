"""Tests for the process-safe JSONL run journal."""

import json
import multiprocessing
import pickle

import pytest

from repro.telemetry import (
    JOURNAL_NAME,
    TELEMETRY_DIR,
    RunJournal,
    journal_path,
    read_journal,
)


class TestJournalPath:
    def test_lives_under_the_telemetry_dir(self, tmp_path):
        path = journal_path(str(tmp_path / "run"))
        assert TELEMETRY_DIR in path
        assert path.endswith(JOURNAL_NAME)


class TestRunJournal:
    def test_write_read_roundtrip(self, tmp_path):
        path = journal_path(str(tmp_path))
        with RunJournal(path) as journal:
            journal.write({"event": "span", "name": "a"})
            journal.write({"event": "metrics", "registry": {}})
        records = read_journal(path)
        assert [record["event"] for record in records] == ["span", "metrics"]

    def test_read_accepts_run_dir_or_file(self, tmp_path):
        with RunJournal(journal_path(str(tmp_path))) as journal:
            journal.write({"event": "span"})
        assert read_journal(str(tmp_path)) == read_journal(journal_path(str(tmp_path)))

    def test_missing_journal_mentions_the_flag(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="no-telemetry"):
            read_journal(str(tmp_path / "never-ran"))

    def test_corrupt_lines_are_skipped(self, tmp_path):
        path = journal_path(str(tmp_path))
        with RunJournal(path) as journal:
            journal.write({"event": "span", "name": "good"})
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("{torn line\n")
            handle.write(json.dumps({"event": "span", "name": "also-good"}) + "\n")
        names = [record["name"] for record in read_journal(path)]
        assert names == ["good", "also-good"]

    def test_pickles_as_path_only(self, tmp_path):
        path = journal_path(str(tmp_path))
        journal = RunJournal(path)
        journal.write({"event": "span", "name": "before-pickle"})
        clone = pickle.loads(pickle.dumps(journal))
        assert clone.path == journal.path
        clone.write({"event": "span", "name": "from-clone"})
        clone.close()
        journal.close()
        names = {record["name"] for record in read_journal(path)}
        assert names == {"before-pickle", "from-clone"}

    def test_sibling_process_appends_interleave_whole_lines(self, tmp_path):
        path = journal_path(str(tmp_path))
        journal = RunJournal(path)
        journal.write({"event": "span", "name": "parent"})
        with multiprocessing.Pool(processes=2) as pool:
            pool.map(_write_from_worker, [(path, i) for i in range(4)])
        journal.close()
        records = read_journal(path)
        names = {record["name"] for record in records}
        assert names == {"parent", "w0", "w1", "w2", "w3"}
        # every line parsed — no torn interleaving
        assert len(records) == 5


def _write_from_worker(args):
    path, index = args
    with RunJournal(path) as journal:
        journal.write({"event": "span", "name": f"w{index}"})
    return index
