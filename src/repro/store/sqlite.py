"""SQLite store backend.

One file, one table, WAL journaling: the right default for a shared store
that several runner processes on one machine read and write concurrently.
SQLite REAL columns are IEEE-754 doubles, so utilities round-trip bitwise;
``INSERT OR REPLACE`` makes racing writers idempotent (both write the value
the content-address determines).

A row whose ``value`` is not a REAL (e.g. hand-edited, or torn by a crash on
a non-journaling filesystem) reads as a miss and is swept out by :meth:`gc`.

Concurrency: WAL lets readers proceed under a writer, but two simultaneous
write transactions still contend for the single write lock.  The connection
sets an explicit ``busy_timeout`` (SQLite blocks instead of failing fast) and
every write additionally runs under :func:`run_with_busy_retry`, so several
``repro run`` processes writing one store file never surface a transient
``SQLITE_BUSY`` to callers — a lock that persists past both layers is a real
deadlock and does raise.

The module also holds the durable-state core the service's job store builds
on (:class:`DurableState`: WAL connection, retrying ``BEGIN IMMEDIATE``
transactions, the bookkeeping clock and the plain-INSERT trainings ledger)
and :class:`RecordingStore`, the store proxy that writes every ledger row —
so a row exists exactly when a training reached the store.
"""

from __future__ import annotations

import os
import sqlite3
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple, TypeVar

from repro.store.base import GCResult, UtilityStore
from repro.store.fingerprint import key_namespace

_T = TypeVar("_T")
_S = TypeVar("_S", bound="DurableState")

#: write attempts before a busy error surfaces to the caller
BUSY_RETRIES = 8

#: base pause between busy retries (seconds); scaled linearly per attempt
BUSY_BACKOFF_SECONDS = 0.05

#: keys per ``SELECT … IN`` of a batch read: under SQLite's host-parameter
#: limit (999 before SQLite 3.32) whatever the library version
READ_CHUNK = 512


#: marks a requested key no row answered, in a batch read
_ABSENT = object()


def is_busy_error(error: BaseException) -> bool:
    """Whether an :class:`sqlite3.OperationalError` is SQLITE_BUSY/LOCKED."""
    message = str(error).lower()
    return "database is locked" in message or "database is busy" in message


def run_with_busy_retry(
    operation: Callable[[], _T],
    retries: int = BUSY_RETRIES,
    backoff: float = BUSY_BACKOFF_SECONDS,
) -> _T:
    """Run ``operation``, absorbing up to ``retries`` SQLITE_BUSY errors.

    The pause grows linearly (``backoff``, ``2*backoff``, ...) so colliding
    writers spread out instead of retrying in lockstep.  Non-busy operational
    errors — and a lock still held after the final attempt — propagate: this
    helper exists to absorb *transient* contention, not to hide deadlocks.
    """
    attempts = max(1, int(retries))
    for attempt in range(attempts):
        try:
            return operation()
        except sqlite3.OperationalError as error:
            if not is_busy_error(error) or attempt == attempts - 1:
                raise
            time.sleep(backoff * (attempt + 1))
    raise AssertionError("unreachable")  # pragma: no cover


def connect_wal(
    path: str, timeout: float, isolation_level: Optional[str] = ""
) -> sqlite3.Connection:
    """Open one thread-hopping WAL connection with a blocking busy timeout.

    The ``connect()`` timeout only covers the lock waits the sqlite3 module
    itself performs; an explicit ``busy_timeout`` makes SQLite block (not
    fail) inside every statement, which is what several concurrent
    processes sharing one file need.  Callers serialise access to the handle
    themselves, so it may move between threads.
    """
    connection = sqlite3.connect(
        path,
        timeout=timeout,
        check_same_thread=False,
        isolation_level=isolation_level,
    )
    try:
        connection.execute("PRAGMA journal_mode=WAL")
    except sqlite3.DatabaseError:
        pass  # WAL is an optimisation; read-only media still work
    connection.execute("PRAGMA synchronous=NORMAL")
    connection.execute(f"PRAGMA busy_timeout={int(timeout * 1000)}")
    return connection


_SCHEMA = """
CREATE TABLE IF NOT EXISTS utilities (
    key        TEXT PRIMARY KEY,
    namespace  TEXT NOT NULL,
    value      REAL NOT NULL,
    created_at REAL NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_utilities_namespace ON utilities (namespace);
"""


def _row_bytes_estimate(key: str) -> int:
    """Estimated on-disk payload of one ``utilities`` row.

    SQLite record = key text + namespace text (the key's prefix) + two
    8-byte REALs + ~8 bytes of header/serial-type overhead.  An estimate is
    the honest best here: real page-level cost depends on B-tree fill and
    WAL state, which no per-row accounting can see.
    """
    key_bytes = len(key.encode("utf-8"))
    namespace_bytes = len(key_namespace(key).encode("utf-8"))
    return key_bytes + namespace_bytes + 16 + 8


class SqliteUtilityStore(UtilityStore):
    """Disk store backed by a single SQLite database file."""

    def __init__(self, path: str, timeout: float = 30.0) -> None:
        super().__init__()
        self.path = str(path)
        parent = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(parent, exist_ok=True)
        # The base-class lock serialises all access from this handle, so the
        # connection may safely hop between threads.
        self._connection = connect_wal(self.path, timeout)
        run_with_busy_retry(
            lambda: self._connection.executescript(_SCHEMA)
        )
        self._connection.commit()

    @property
    def location(self) -> str:
        return self.path

    @property
    def durable(self) -> bool:
        return self.path != ":memory:"

    # ------------------------------------------------------------------ #
    # Backend hooks
    # ------------------------------------------------------------------ #
    def _read(self, key: str) -> Optional[float]:
        row = self._connection.execute(
            "SELECT value FROM utilities WHERE key = ?", (key,)
        ).fetchone()
        if row is None:
            return None
        value = row[0]
        if not isinstance(value, float):
            # Torn or hand-edited row: surface it as a miss, never a crash.
            self.stats.corrupt_entries += 1
            return None
        return value

    def _read_many(self, keys: List[str]) -> Dict[str, float]:
        """One ``SELECT … IN`` per :data:`READ_CHUNK` distinct keys.

        Each query's key list is padded to a power of two by repeating its
        last key, so the connection caches at most ten statement shapes
        instead of one prepared statement per batch size.  Rows land on the
        caller's key objects, so the key strings SQLite returns are freed
        row by row.  Caller must hold the lock (the public ``get_many``
        does).
        """
        found: Dict[str, Any] = dict.fromkeys(keys, _ABSENT)
        distinct = list(found)
        for start in range(0, len(distinct), READ_CHUNK):
            chunk = distinct[start:start + READ_CHUNK]
            width = 1 << (len(chunk) - 1).bit_length()
            chunk += chunk[-1:] * (width - len(chunk))
            for key, value in self._connection.execute(
                "SELECT key, value FROM utilities WHERE key IN "
                f"({','.join('?' * len(chunk))})",
                chunk,
            ):
                found[key] = value
        results: Dict[str, float] = {}
        for key in keys:
            value = found[key]
            if isinstance(value, float):
                results[key] = value
            elif value is not _ABSENT:
                # Counted per requested key, as the per-key `_read` does.
                self.stats.corrupt_entries += 1
        return results

    def _write(self, key: str, value: float) -> int:
        def write_row() -> None:
            try:
                self._connection.execute(
                    "INSERT OR REPLACE INTO utilities "
                    "(key, namespace, value, created_at) VALUES (?, ?, ?, ?)",
                    # created_at aids store forensics; keys and values are
                    # content-addressed without it.
                    # repro: allow[RPR002] reason=created_at is telemetry, not identity
                    (key, key_namespace(key), float(value), time.time()),
                )
                self._connection.commit()
            except sqlite3.OperationalError:
                # Leave no transaction half-open behind a retry.
                self._connection.rollback()
                raise

        run_with_busy_retry(write_row)
        return _row_bytes_estimate(key)

    def _count(self) -> int:
        row = self._connection.execute("SELECT COUNT(*) FROM utilities").fetchone()
        return int(row[0])

    def _keys(self) -> Iterable[str]:
        rows: List[tuple] = self._connection.execute(
            "SELECT key FROM utilities"
        ).fetchall()
        return [row[0] for row in rows]

    def _size_bytes(self) -> int:
        try:
            return os.path.getsize(self.path)
        except OSError:
            return 0

    def _namespace_sizes(self) -> Dict[str, int]:
        """Estimated row-payload bytes per namespace (see `_row_bytes_estimate`)."""
        sizes: Dict[str, int] = {}
        rows: List[tuple] = self._connection.execute(
            "SELECT namespace, key FROM utilities"
        ).fetchall()
        for namespace, key in rows:
            sizes[namespace] = sizes.get(namespace, 0) + _row_bytes_estimate(key)
        return sizes

    def _gc(self, keep_namespace: Optional[str]) -> GCResult:
        # Concurrent-writer safety: the DELETEs carry their predicates into
        # the database, so a row deposited *while* gc runs is judged by the
        # same rules as every other row — a fresh valid entry in the kept
        # namespace can never be swept just because it post-dates whatever
        # summary the caller looked at before invoking gc.
        result = GCResult()

        def sweep() -> None:
            try:
                cursor = self._connection.execute(
                    "DELETE FROM utilities WHERE typeof(value) != 'real'"
                )
                result.dropped_corrupt = max(cursor.rowcount, 0)
                if keep_namespace is not None:
                    cursor = self._connection.execute(
                        "DELETE FROM utilities WHERE namespace != ?",
                        (keep_namespace,),
                    )
                    result.dropped_namespaces = max(cursor.rowcount, 0)
                self._connection.commit()
            except sqlite3.OperationalError:
                self._connection.rollback()
                result.dropped_corrupt = 0
                result.dropped_namespaces = 0
                raise

        run_with_busy_retry(sweep)
        try:
            run_with_busy_retry(lambda: self._connection.execute("VACUUM"))
        except sqlite3.OperationalError as error:
            if not is_busy_error(error):
                raise
            # VACUUM needs the file to itself; under live concurrent writers
            # the deletes above are already durable and space reclaim is
            # cosmetic, so skip it rather than fail the gc.
        result.kept = self._count()
        return result

    def _close(self) -> None:
        self._connection.close()


class DurableState:
    """One WAL-SQLite file of coordination state, plus its trainings ledger.

    The core of :class:`~repro.service.jobs.JobStore`, its one subclass: a
    single connection guarded by a process lock serves every thread, and
    cross-process atomicity comes from ``BEGIN IMMEDIATE`` transactions plus
    :func:`run_with_busy_retry`.  The subclass passes its own tables as
    ``schema`` and names the ledger's tag columns in :attr:`LEDGER_COLUMNS`
    (who paid for a training).

    The ``trainings`` ledger is deliberately a plain INSERT: a duplicated
    training must show up as a duplicate row, not be papered over by a
    unique constraint — ``COUNT(*) == COUNT(DISTINCT key)`` is the
    zero-duplicated-trainings invariant tests and the crash smokes assert.
    Its rows are written by :class:`RecordingStore`, only once a utility is
    in the store.
    """

    #: ledger columns after ``key`` that tag who paid for each training
    LEDGER_COLUMNS: Tuple[str, ...] = ()

    def __init__(self, path: str, schema: str, timeout: float = 10.0) -> None:
        self.path = str(path)
        self._lock = threading.RLock()
        # isolation_level=None: explicit BEGIN IMMEDIATE in _transaction; the
        # sqlite3 module's implicit transactions would defer lock acquisition
        # and turn claims into lost-update races.
        self._connection = connect_wal(self.path, timeout, isolation_level=None)
        columns = ("key",) + self.LEDGER_COLUMNS + ("recorded_at",)
        ledger = ", ".join(f"{column} TEXT NOT NULL" for column in columns[:-1])
        schema += (
            f"CREATE TABLE IF NOT EXISTS trainings "
            f"({ledger}, recorded_at REAL NOT NULL);"
        )
        self._insert_training = (
            f"INSERT INTO trainings ({', '.join(columns)}) "
            f"VALUES ({', '.join('?' * len(columns))})"
        )
        run_with_busy_retry(lambda: self._connection.executescript(schema))

    def _now(self) -> float:
        # Lease deadlines, submission order and wait times are wall-clock
        # *bookkeeping*: they decide scheduling and what gets reported,
        # never any value.
        return time.time()  # repro: allow[RPR002] reason=queue timestamps are bookkeeping telemetry, not identity

    def _transaction(self, operation: Callable[[sqlite3.Connection], _T]) -> _T:
        """Run ``operation(connection)`` inside BEGIN IMMEDIATE, with retry."""

        def attempt() -> _T:
            with self._lock:
                self._connection.execute("BEGIN IMMEDIATE")
                try:
                    result = operation(self._connection)
                    self._connection.execute("COMMIT")
                    return result
                except BaseException:
                    self._connection.execute("ROLLBACK")
                    raise

        return run_with_busy_retry(attempt)

    def _execute(self, sql: str, params: tuple = ()) -> int:
        """One write statement in its own transaction; returns its rowcount."""
        return self._transaction(lambda c: max(c.execute(sql, params).rowcount, 0))

    def _query(self, sql: str, params: tuple = ()) -> List[tuple]:
        def attempt() -> List[tuple]:
            with self._lock:
                return self._connection.execute(sql, params).fetchall()

        return run_with_busy_retry(attempt)

    # ------------------------------------------------------------------ #
    # Trainings ledger
    # ------------------------------------------------------------------ #
    def record_training(self, key: str, *tags: Any) -> None:
        """Ledger one *deposited* training, tagged per :attr:`LEDGER_COLUMNS`.

        Call only after the store put — :class:`RecordingStore` does.
        """
        self._execute(self._insert_training, (key, *tags, self._now()))

    def training_counts(self) -> Tuple[int, int]:
        """``(total, distinct)`` ledger rows; equal ⇔ zero duplicated trainings."""
        rows = self._query("SELECT COUNT(*), COUNT(DISTINCT key) FROM trainings")
        return int(rows[0][0]), int(rows[0][1])

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        with self._lock:
            try:
                self._connection.close()
            except sqlite3.Error:  # pragma: no cover - close is best-effort
                pass

    def __enter__(self: _S) -> _S:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class RecordingStore(UtilityStore):
    """Pass-through store that ledgers every write as one paid training.

    Reads go straight to ``inner``; every write — i.e. every training that
    actually reached the store — also calls ``record(key, *tags)``, a
    :meth:`DurableState.record_training`.  This proxy is the only writer of
    ledger rows, so a row exists
    exactly when a utility was stored: a non-finite utility (never
    persisted) or a coalition served from the store leaves none.

    It is a real :class:`UtilityStore` subclass (not a duck type) because
    :func:`repro.store.resolve_store` type-checks stores it is handed — and a
    subclass correctly inherits the "unowned handle" treatment: closing the
    proxy never closes the shared inner store.
    """

    def __init__(
        self, inner: UtilityStore, record: Callable[..., None], *tags: Any
    ) -> None:
        super().__init__()
        self._inner = inner
        self._record = record
        self._tags = tags

    # Backend hooks run with *this* proxy's lock held; they delegate to the
    # inner store's public interface, which takes the inner store's own lock —
    # lock order is always proxy → inner, so the pair cannot deadlock.

    @property
    def location(self) -> str:
        return self._inner.location

    def _read(self, key: str) -> Optional[float]:
        """Caller must hold the lock (the public ``get`` does)."""
        return self._inner.get(key)

    def _read_many(self, keys: List[str]) -> Dict[str, float]:
        """Caller must hold the lock (the public ``get_many`` does)."""
        return self._inner.get_many(keys)

    @property
    def durable(self) -> bool:
        return self._inner.durable

    def _write(self, key: str, value: float) -> int:
        """Caller must hold the lock (the public ``put`` does)."""
        self._inner.put(key, value)
        self._record(key, *self._tags)
        return 0  # byte accounting happens on the inner store

    def _count(self) -> int:
        """Caller must hold the lock (the public ``__len__`` does)."""
        return len(self._inner)

    def summary(self) -> dict:
        return self._inner.summary()

    def _keys(self) -> Iterable[str]:
        """Caller must hold the lock (unreached: ``summary`` is delegated)."""
        return []

    def _gc(self, keep_namespace: Optional[str]) -> GCResult:
        """Caller must hold the lock (the public ``gc`` does)."""
        return self._inner.gc(keep_namespace)

    def _close(self) -> None:
        """Caller must hold the lock (the public ``close`` does).

        Deliberately does NOT close the inner store: that is a shared handle
        owned by the server or worker, not by any one job or batch.
        """
