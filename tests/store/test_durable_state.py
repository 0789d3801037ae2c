"""DurableState, the WAL-SQLite core of the service's job store, and the
RecordingStore proxy that writes its trainings ledger.

The ledger is the zero-duplicated-trainings witness: a row exists exactly
when a training reached the store, and a duplicated training shows up as a
duplicate row.  These tests pin that contract on the core itself (with a
minimal subclass), across threads and processes, and through the batch
oracle on both executor backends.
"""

import math
import os
import sqlite3
import subprocess
import sys
import threading
import time

import pytest

import repro
from repro.experiments import TaskSpec
from repro.parallel import EXECUTOR_BACKENDS, BatchUtilityOracle
from repro.store import MemoryUtilityStore, SqliteUtilityStore, utility_key
from repro.store.sqlite import DurableState, RecordingStore

NOTES_SCHEMA = "CREATE TABLE IF NOT EXISTS notes (body TEXT NOT NULL);"


class Ledger(DurableState):
    """The smallest DurableState: one scratch table, two ledger tags."""

    LEDGER_COLUMNS = ("run_id", "worker")

    def __init__(self, path, timeout=10.0):
        super().__init__(str(path), NOTES_SCHEMA, timeout)

    def note(self, body):
        return self._execute("INSERT INTO notes (body) VALUES (?)", (body,))

    def notes(self):
        return [row[0] for row in self._query("SELECT body FROM notes ORDER BY rowid")]

    def rows(self):
        return self._query(
            "SELECT key, run_id, worker FROM trainings ORDER BY rowid"
        )


@pytest.fixture
def ledger(tmp_path):
    with Ledger(tmp_path / "state.sqlite") as handle:
        yield handle


def hold_write_lock(path, seconds, started):
    """Hold SQLite's write lock on ``path`` for ``seconds`` from another
    connection, setting ``started`` once it is held."""
    connection = sqlite3.connect(str(path), isolation_level=None)
    try:
        connection.execute("BEGIN IMMEDIATE")
        connection.execute("INSERT INTO notes (body) VALUES ('held')")
        started.set()
        time.sleep(seconds)
        connection.execute("COMMIT")
    finally:
        connection.close()


class TestLedger:
    def test_an_empty_ledger_counts_zero(self, ledger):
        assert ledger.training_counts() == (0, 0)

    def test_rows_carry_their_tags(self, ledger):
        ledger.record_training("ns:a", "run-1", "w0")
        ledger.record_training("ns:b", "run-2", "w1")
        assert ledger.rows() == [("ns:a", "run-1", "w0"), ("ns:b", "run-2", "w1")]
        assert ledger.training_counts() == (2, 2)

    def test_table_has_key_then_tags_then_timestamp(self, ledger):
        columns = [row[1] for row in ledger._query("PRAGMA table_info(trainings)")]
        assert columns == ["key", "run_id", "worker", "recorded_at"]

    def test_a_duplicated_training_is_a_duplicate_row(self, ledger):
        ledger.record_training("ns:a", "run-1", "w0")
        ledger.record_training("ns:a", "run-2", "w1")
        assert ledger.training_counts() == (2, 1)

    def test_recorded_at_is_the_wall_clock_of_the_write(self, ledger):
        before = time.time()
        ledger.record_training("ns:a", "run-1", "w0")
        after = time.time()
        (stamp,) = ledger._query("SELECT recorded_at FROM trainings")[0]
        assert before <= stamp <= after


class TestTransactions:
    def test_execute_returns_the_rowcount(self, ledger):
        assert ledger.note("one") == 1
        assert ledger._execute("DELETE FROM notes WHERE body = 'none'") == 0

    def test_transaction_returns_what_its_operation_returns(self, ledger):
        assert ledger._transaction(lambda connection: "result") == "result"

    def test_a_failed_transaction_rolls_back_and_the_handle_stays_usable(
        self, ledger
    ):
        def insert_then_fail(connection):
            connection.execute("INSERT INTO notes (body) VALUES ('lost')")
            raise RuntimeError("fails after the insert")

        with pytest.raises(RuntimeError, match="fails after the insert"):
            ledger._transaction(insert_then_fail)
        assert ledger.notes() == []
        ledger.note("kept")
        assert ledger.notes() == ["kept"]

    def test_a_write_waits_out_another_connections_write_transaction(
        self, ledger
    ):
        started = threading.Event()
        holder = threading.Thread(
            target=hold_write_lock, args=(ledger.path, 0.4, started)
        )
        holder.start()
        assert started.wait(10)
        ledger.record_training("ns:a", "run-1", "w0")
        holder.join()
        assert ledger.training_counts() == (1, 1)
        assert ledger.notes() == ["held"]

    def test_busy_retry_outlasts_a_short_busy_timeout(self, tmp_path):
        """A lock held past ``busy_timeout`` is absorbed by the bounded busy
        retry rather than surfaced to the caller."""
        with Ledger(tmp_path / "state.sqlite", timeout=0.05) as ledger:
            started = threading.Event()
            holder = threading.Thread(
                target=hold_write_lock, args=(ledger.path, 0.3, started)
            )
            holder.start()
            assert started.wait(10)
            ledger.note("after")
            holder.join()
            assert ledger.notes() == ["held", "after"]


LEDGER_SCRIPT = """
import sys
from repro.store.sqlite import DurableState

class Ledger(DurableState):
    LEDGER_COLUMNS = ("run_id", "worker")

path, worker, count, shared = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4]
with Ledger(path, "CREATE TABLE IF NOT EXISTS notes (body TEXT NOT NULL);") as ledger:
    for index in range(count):
        key = f"ns:{index}" if shared == "shared" else f"ns:{worker}-{index}"
        ledger.record_training(key, "run", worker)
"""


def run_ledger_writers(path, n_writers, count, shared):
    source_root = os.path.dirname(os.path.dirname(repro.__file__))
    existing = os.environ.get("PYTHONPATH")
    env = {
        **os.environ,
        "PYTHONPATH": source_root + (os.pathsep + existing if existing else ""),
    }
    processes = [
        subprocess.Popen(
            [sys.executable, "-c", LEDGER_SCRIPT, str(path), f"w{index}",
             str(count), shared],
            env=env,
            stderr=subprocess.PIPE,
            text=True,
        )
        for index in range(n_writers)
    ]
    for process in processes:
        _, err = process.communicate(timeout=120)
        assert process.returncode == 0, err


class TestConcurrency:
    def test_threads_sharing_one_handle_lose_no_rows(self, ledger):
        def write(worker):
            for index in range(25):
                ledger.record_training(f"ns:{worker}-{index}", "run", worker)

        threads = [
            threading.Thread(target=write, args=(f"w{index}",)) for index in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert ledger.training_counts() == (100, 100)

    def test_writer_processes_lose_no_rows(self, tmp_path):
        path = tmp_path / "state.sqlite"
        run_ledger_writers(path, n_writers=3, count=30, shared="disjoint")
        with Ledger(path) as ledger:
            assert ledger.training_counts() == (90, 90)

    def test_duplicates_across_processes_stay_visible(self, tmp_path):
        path = tmp_path / "state.sqlite"
        run_ledger_writers(path, n_writers=3, count=10, shared="shared")
        with Ledger(path) as ledger:
            assert ledger.training_counts() == (30, 10)


class TestLifecycle:
    def test_reopening_keeps_the_ledger(self, tmp_path):
        path = tmp_path / "state.sqlite"
        with Ledger(path) as first:
            first.record_training("ns:a", "run-1", "w0")
            first.note("first")
        with Ledger(path) as second:
            assert second.rows() == [("ns:a", "run-1", "w0")]
            assert second.notes() == ["first"]

    def test_two_open_handles_share_one_ledger(self, tmp_path):
        path = tmp_path / "state.sqlite"
        with Ledger(path) as first, Ledger(path) as second:
            first.record_training("ns:a", "run-1", "w0")
            second.record_training("ns:a", "run-2", "w1")
            assert first.training_counts() == second.training_counts() == (2, 1)

    def test_context_manager_closes_and_close_is_idempotent(self, tmp_path):
        with Ledger(tmp_path / "state.sqlite") as ledger:
            assert isinstance(ledger, Ledger)
        with pytest.raises(sqlite3.ProgrammingError):
            ledger.training_counts()
        ledger.close()


class TestRecordingStore:
    def make(self, tmp_path, ledger):
        inner = SqliteUtilityStore(str(tmp_path / "store.sqlite"))
        return inner, RecordingStore(inner, ledger.record_training, "run-1", "w0")

    def test_a_row_is_recorded_only_once_the_utility_is_stored(self):
        inner = MemoryUtilityStore()
        seen = []

        def record(key, *tags):
            seen.append((key, inner.get(key), tags))

        store = RecordingStore(inner, record, "run-1")
        store.put("ns:a", 0.25)
        assert seen == [("ns:a", 0.25, ("run-1",))]

    def test_put_many_records_one_row_per_entry(self, tmp_path, ledger):
        inner, store = self.make(tmp_path, ledger)
        store.put_many({"ns:a": 0.5, "ns:b": 0.75})
        assert ledger.rows() == [("ns:a", "run-1", "w0"), ("ns:b", "run-1", "w0")]
        assert inner.get_many(["ns:a", "ns:b"]) == {"ns:a": 0.5, "ns:b": 0.75}
        inner.close()

    def test_closing_the_proxy_leaves_the_shared_store_open(self, tmp_path, ledger):
        inner, store = self.make(tmp_path, ledger)
        store.put("ns:a", 0.5)
        store.close()
        assert store.closed and not inner.closed
        assert inner.get("ns:a") == 0.5
        inner.close()

    def test_maintenance_is_the_inner_stores(self, tmp_path, ledger):
        inner, store = self.make(tmp_path, ledger)
        inner.put_many({"keep:a": 0.5, "drop:a": 0.25, "drop:b": 0.125})
        assert store.location == inner.location
        assert len(store) == len(inner) == 3
        assert store.summary() == inner.summary()
        result = store.gc(keep_namespace="keep")
        assert (result.kept, result.dropped_namespaces) == (1, 2)
        assert len(inner) == 1
        assert ledger.training_counts() == (0, 0)  # maintenance trains nothing
        inner.close()


def fl_utility(store, backend):
    """A tiny FL oracle the vectorized engine really engages on."""
    spec = TaskSpec(
        kind="synthetic",
        setup="same-size-same-distribution",
        n_clients=3,
        model="logistic",
        scale="tiny",
        seed=0,
    )
    utility = spec.build(store)
    utility.set_executor(backend)
    return utility


def nan_utility(coalition):
    return float("nan")


class FailOnTwo:
    """U(S) = |S|, except that any coalition of two fails to evaluate."""

    n_clients = 3

    def __call__(self, coalition):
        if len(coalition) == 2:
            raise ZeroDivisionError("degenerate coalition")
        return float(len(coalition))


COALITIONS = [[], [0], [1], [2], [0, 1], [0, 2], [1, 2], [0, 1, 2]]


@pytest.mark.parametrize("backend", EXECUTOR_BACKENDS)
class TestLedgerThroughTheOracle:
    """Every backend pays for a coalition exactly once, and the ledger sees
    exactly what it paid for."""

    def test_each_training_is_one_ledger_row(self, backend, tmp_path, ledger):
        inner = SqliteUtilityStore(str(tmp_path / "store.sqlite"))
        recording = RecordingStore(inner, ledger.record_training, "run-1", "w0")
        with fl_utility(recording, backend) as utility:
            utility.evaluate_batch(COALITIONS)
            assert utility.evaluations == len(COALITIONS)
        assert ledger.training_counts() == (len(COALITIONS), len(COALITIONS))
        inner.close()

    def test_deposited_coalitions_are_store_hits_not_trainings(
        self, backend, tmp_path, ledger
    ):
        inner = SqliteUtilityStore(str(tmp_path / "store.sqlite"))
        with fl_utility(inner, backend) as utility:
            first = utility.evaluate_batch(COALITIONS)
        recording = RecordingStore(inner, ledger.record_training, "run-2", "w1")
        with fl_utility(recording, backend) as utility:
            second = utility.evaluate_batch(COALITIONS)
            assert utility.evaluations == 0
            assert utility.store_hits == len(COALITIONS)
        assert second == first
        assert ledger.training_counts() == (0, 0)
        inner.close()

    def test_a_non_finite_utility_is_not_a_ledger_row(self, backend, ledger):
        store = RecordingStore(
            MemoryUtilityStore(), ledger.record_training, "run-1", "w0"
        )
        with BatchUtilityOracle(
            nan_utility, n_clients=2, executor=backend, store=store,
            store_namespace="t",
        ) as oracle:
            values = oracle.evaluate_batch([[0], [1]]).values()
            assert all(math.isnan(value) for value in values)
        assert store.get(utility_key("t", [0])) is None
        assert ledger.training_counts() == (0, 0)

    def test_a_failed_batch_records_nothing(self, backend, ledger):
        inner = MemoryUtilityStore()
        store = RecordingStore(inner, ledger.record_training, "run-1", "w0")
        with BatchUtilityOracle(
            FailOnTwo(), executor=backend, store=store, store_namespace="t"
        ) as oracle:
            with pytest.raises(ZeroDivisionError):
                oracle.evaluate_batch([[0], [0, 1]])
            assert ledger.training_counts() == (0, 0)
            assert len(inner) == 0
            assert list(oracle.evaluate_batch([[0], [1]]).values()) == [1.0, 1.0]
        assert ledger.training_counts() == (2, 2)
