"""Store behaviour under many concurrent writers (and gc racing them).

The SQLite store's explicit ``busy_timeout`` + bounded busy retry must
survive many writer *processes* hammering one file, and ``store gc`` must be
safe to run while depositors are live — an entry deposited after gc started
is never deleted (the DELETEs carry their predicates into the database),
whether the writers are other processes or another thread of this one.
"""

import subprocess
import sys
import threading

import pytest

from repro.store import open_store, utility_key
from repro.store.sqlite import BUSY_RETRIES, is_busy_error, run_with_busy_retry

NAMESPACE = "concurrent"

WRITER_SCRIPT = """
import sys
from repro.store import open_store, utility_key

path, worker, count = sys.argv[1], sys.argv[2], int(sys.argv[3])
with open_store(path) as store:
    for i in range(count):
        coalition = frozenset({int(worker), i % 7, (i * 3) % 11})
        store.put(f"concurrent:w{worker}-{i}", float(i) + 0.5)
        store.get(f"concurrent:w{worker}-{i}")
"""


def run_writers(path, n_writers=4, count=40, timeout=180):
    processes = [
        subprocess.Popen(
            [sys.executable, "-c", WRITER_SCRIPT, str(path), str(i), str(count)],
            stderr=subprocess.PIPE,
            text=True,
        )
        for i in range(n_writers)
    ]
    for process in processes:
        _, err = process.communicate(timeout=timeout)
        assert process.returncode == 0, err
    return n_writers * count


class TestSqliteManyWriters:
    def test_many_writer_processes_lose_nothing(self, tmp_path):
        path = str(tmp_path / "store.sqlite")
        expected = run_writers(path, n_writers=4, count=40)
        with open_store(path) as store:
            assert len(store) == expected
            assert store.get("concurrent:w0-0") == 0.5
            assert store.get("concurrent:w3-39") == 39.5

    def test_gc_races_writer_processes_without_eating_fresh_rows(self, tmp_path):
        path = str(tmp_path / "store.sqlite")
        processes = [
            subprocess.Popen(
                [sys.executable, "-c", WRITER_SCRIPT, str(path), str(i), "40"],
                stderr=subprocess.PIPE,
                text=True,
            )
            for i in range(3)
        ]
        # gc repeatedly while the writers are live; keep_namespace matches
        # what they write, so nothing legitimate may ever be dropped.
        with open_store(path) as store:
            while any(p.poll() is None for p in processes):
                result = store.gc(keep_namespace=NAMESPACE)
                assert result.dropped_corrupt == 0
                assert result.dropped_namespaces == 0
        for process in processes:
            _, err = process.communicate(timeout=180)
            assert process.returncode == 0, err
        with open_store(path) as store:
            assert len(store) == 3 * 40

    def test_appends_racing_gc_are_never_lost(self, tmp_path):
        path = str(tmp_path / "store.sqlite")
        stop = threading.Event()
        errors = []

        def gc_loop():
            with open_store(path) as collector:
                while not stop.is_set():
                    try:
                        collector.gc(keep_namespace=NAMESPACE)
                    except Exception as error:  # noqa: BLE001 - test must surface it
                        errors.append(error)
                        return

        with open_store(path) as store:
            store.put(utility_key(NAMESPACE, {0}), 1.0)  # the file exists
            collector = threading.Thread(target=gc_loop)
            collector.start()
            latest = {}
            try:
                for i in range(300):
                    key = utility_key(NAMESPACE, {i % 9, i % 13, 17 + (i % 5)})
                    latest[key] = float(i)
                    store.put(key, float(i))
            finally:
                stop.set()
                collector.join(timeout=60)
        assert not collector.is_alive()
        assert errors == []

        # Re-open cold: every key carries its *latest* value (puts overwrite,
        # so only the last write per key is observable).
        with open_store(path) as store:
            assert len(store) == len(latest) + 1
            for key, value in latest.items():
                assert store.get(key) == value, key

    def test_busy_retry_gives_up_after_bounded_attempts(self):
        import sqlite3

        attempts = []

        def always_busy():
            attempts.append(1)
            raise sqlite3.OperationalError("database is locked")

        with pytest.raises(sqlite3.OperationalError):
            run_with_busy_retry(always_busy, retries=3, backoff=0.001)
        assert len(attempts) == 3
        assert BUSY_RETRIES >= 3

    def test_non_busy_errors_are_not_retried(self):
        import sqlite3

        attempts = []

        def broken():
            attempts.append(1)
            raise sqlite3.OperationalError("no such table: utilities")

        with pytest.raises(sqlite3.OperationalError):
            run_with_busy_retry(broken, retries=5, backoff=0.001)
        assert len(attempts) == 1
        assert not is_busy_error(sqlite3.OperationalError("no such table"))
        assert is_busy_error(sqlite3.OperationalError("database is locked"))
