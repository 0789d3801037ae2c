"""The durable fleet work queue: a SQLite claim table with leases.

One SQLite file under the queue directory holds everything a fleet needs to
coordinate: registered *runs* (a pickled work payload describing how to
evaluate one oracle's coalitions), *batches* of coalitions to evaluate,
a *trainings* ledger, and a *workers* heartbeat table.

The protocol is classic lease-based work stealing:

``claim``
    One worker atomically (in one write-locking transaction) takes the
    oldest pending batch, marking it leased with a wall-clock deadline.
    Expired leases are requeued inside the same transaction, so a claim can
    never race a requeue into double-delivery.
``renew``
    The owner extends its lease while a long batch evaluates (workers
    heartbeat at a fraction of the lease).
``complete`` / ``release``
    The owner retires the batch (results are already durable in the shared
    utility store) or hands it back after a failed evaluation.
``lease expiry → requeue``
    A worker that dies mid-batch simply stops renewing; once the deadline
    passes, :meth:`requeue_expired` (run by the coordinator poll loop and by
    every claim) returns the batch to pending.  A batch whose delivery
    attempts exceed ``max_attempts`` is marked failed instead, and the
    coordinator surfaces the stored error.

Durability of *results* is the utility store's job, not the queue's: workers
deposit every trained utility into the shared content-addressed store before
completing a batch, so a requeued batch re-trains only what its dead owner
had not yet deposited.  The ``trainings`` ledger records one row per
deposited training — ``COUNT(*) == COUNT(DISTINCT key)`` is the fleet's
zero-duplicated-trainings invariant, checked by tests and the crash smoke.
The connection, transactions and ledger come from
:class:`~repro.store.sqlite.DurableState`, shared with the service's job store.

All timestamps in this module are wall-clock *lease bookkeeping and
telemetry* — they decide when work is handed out again and what ``repro``
reports, and never touch a fingerprint, seed or utility value.
"""

from __future__ import annotations

import json
import os
import pickle
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.store.sqlite import DurableState, is_busy_error

QUEUE_FILENAME = "queue.sqlite"

#: delivery attempts before a batch is marked failed instead of requeued
DEFAULT_MAX_ATTEMPTS = 5

_SCHEMA = """
CREATE TABLE IF NOT EXISTS runs (
    run_id     TEXT PRIMARY KEY,
    payload    BLOB NOT NULL,
    state      TEXT NOT NULL DEFAULT 'active',
    created_at REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS batches (
    seq         INTEGER PRIMARY KEY AUTOINCREMENT,
    batch_id    TEXT NOT NULL UNIQUE,
    run_id      TEXT NOT NULL,
    coalitions  TEXT NOT NULL,
    status      TEXT NOT NULL DEFAULT 'pending',
    owner       TEXT,
    deadline    REAL,
    attempts    INTEGER NOT NULL DEFAULT 0,
    last_error  TEXT,
    enqueued_at REAL NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_batches_status ON batches (status, seq);
CREATE INDEX IF NOT EXISTS idx_batches_run ON batches (run_id);
CREATE TABLE IF NOT EXISTS workers (
    worker_id    TEXT PRIMARY KEY,
    pid          INTEGER,
    started_at   REAL NOT NULL,
    last_seen    REAL NOT NULL,
    batches_done INTEGER NOT NULL DEFAULT 0
);
"""


@dataclass(frozen=True)
class WorkPayload:
    """Everything a worker needs to evaluate one run's batches.

    The evaluator must be picklable (the contract rule RPR004 checks and
    ``tests/test_picklability.py`` pins); the store travels as the path of
    its SQLite file, never as a live handle — each worker opens its own
    connection.  ``journal_path`` and ``parent_span`` let worker-side
    ``fleet.claim``/``fleet.batch`` spans land in the coordinating run's
    telemetry journal.  Payloads pickled by older versions also carry the
    retired store-format name; unpickling keeps it and nothing reads it.
    """

    evaluator: object
    store_path: str
    namespace: str
    journal_path: Optional[str] = None
    parent_span: Optional[str] = None

    def to_bytes(self) -> bytes:
        try:
            return pickle.dumps(self)
        except Exception as error:
            raise ValueError(
                "fleet work payloads must be picklable (RPR004): the "
                f"evaluator travels to worker processes — {error}"
            ) from error

    @classmethod
    def from_bytes(cls, blob: bytes) -> "WorkPayload":
        payload = pickle.loads(blob)
        if not isinstance(payload, cls):
            raise TypeError(f"queue payload is not a WorkPayload: {type(payload)!r}")
        return payload


@dataclass(frozen=True)
class Claim:
    """One leased batch, as handed to a worker."""

    batch_id: str
    run_id: str
    seq: int
    coalitions: Tuple[frozenset, ...]
    attempts: int
    deadline: float


@dataclass
class QueueCounts:
    """Batch counts per status (one run or the whole queue)."""

    pending: int = 0
    leased: int = 0
    done: int = 0
    failed: int = 0
    by_status: Dict[str, int] = field(default_factory=dict)

    @property
    def outstanding(self) -> int:
        return self.pending + self.leased


def _encode_coalitions(coalitions: Sequence[frozenset]) -> str:
    return json.dumps([sorted(int(c) for c in coalition) for coalition in coalitions])


def _decode_coalitions(blob: str) -> Tuple[frozenset, ...]:
    return tuple(frozenset(members) for members in json.loads(blob))


class LeaseQueue(DurableState):
    """Thread- and process-safe handle on one fleet queue directory.

    Ledger rows are tagged ``(worker, batch_id)``: who trained the key, for
    which batch.
    """

    LEDGER_COLUMNS = ("worker", "batch_id")

    def __init__(
        self,
        queue_dir: str,
        timeout: float = 10.0,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    ) -> None:
        self.queue_dir = str(queue_dir)
        self.max_attempts = int(max_attempts)
        os.makedirs(self.queue_dir, exist_ok=True)
        super().__init__(os.path.join(self.queue_dir, QUEUE_FILENAME), _SCHEMA, timeout)

    # ------------------------------------------------------------------ #
    # Runs
    # ------------------------------------------------------------------ #
    def register_run(self, run_id: str, payload: WorkPayload) -> None:
        self._execute(
            "INSERT OR REPLACE INTO runs (run_id, payload, state, created_at) "
            "VALUES (?, ?, 'active', ?)",
            (run_id, payload.to_bytes(), self._now()),
        )

    def run_payload(self, run_id: str) -> WorkPayload:
        rows = self._query("SELECT payload FROM runs WHERE run_id = ?", (run_id,))
        if not rows:
            raise KeyError(f"unknown run {run_id!r} in queue {self.path}")
        return WorkPayload.from_bytes(rows[0][0])

    def finish_run(self, run_id: str) -> None:
        self._execute("UPDATE runs SET state = 'finished' WHERE run_id = ?", (run_id,))

    def active_runs(self) -> List[str]:
        return [
            row[0]
            for row in self._query("SELECT run_id FROM runs WHERE state = 'active'")
        ]

    # ------------------------------------------------------------------ #
    # Enqueue / claim / renew / complete
    # ------------------------------------------------------------------ #
    def enqueue(
        self, run_id: str, batches: Sequence[Sequence[frozenset]]
    ) -> List[str]:
        """Append batches for ``run_id``; returns their batch ids (in order)."""
        now = self._now()

        def op(connection) -> List[str]:
            ids: List[str] = []
            for batch in batches:
                cursor = connection.execute(
                    "INSERT INTO batches (batch_id, run_id, coalitions, status, "
                    "attempts, enqueued_at) VALUES (?, ?, ?, 'pending', 0, ?)",
                    # The rowid-derived id is assigned inside the transaction,
                    # so it is unique across concurrent enqueuers.
                    (f"pending-{run_id}", run_id, _encode_coalitions(batch), now),
                )
                batch_id = f"{run_id}:{cursor.lastrowid}"
                connection.execute(
                    "UPDATE batches SET batch_id = ? WHERE seq = ?",
                    (batch_id, cursor.lastrowid),
                )
                ids.append(batch_id)
            return ids

        return self._transaction(op)

    def _requeue_expired_in(self, connection, now: float) -> Tuple[int, int]:
        """Requeue/fail expired leases; returns (requeued, newly_failed)."""
        requeued = connection.execute(
            "UPDATE batches SET status = 'pending', owner = NULL, deadline = NULL "
            "WHERE status = 'leased' AND deadline < ? AND attempts < ?",
            (now, self.max_attempts),
        ).rowcount
        failed = connection.execute(
            "UPDATE batches SET status = 'failed', owner = NULL, deadline = NULL, "
            "last_error = 'lease expired after ' || attempts || ' delivery attempts' "
            "WHERE status = 'leased' AND deadline < ?",
            (now,),
        ).rowcount
        return max(requeued, 0), max(failed, 0)

    def requeue_expired(self) -> Tuple[int, int]:
        """Return dead workers' leased batches to pending.

        Returns ``(requeued, newly_failed)`` — failed meaning the batch ran
        out of delivery attempts and will surface as an error.
        """
        now = self._now()
        return self._transaction(lambda c: self._requeue_expired_in(c, now))

    def claim(self, worker_id: str, lease_seconds: float) -> Optional[Claim]:
        """Atomically lease the oldest pending batch, or ``None`` if idle."""
        now = self._now()

        def op(connection) -> Optional[Claim]:
            self._requeue_expired_in(connection, now)
            row = connection.execute(
                "SELECT seq, batch_id, run_id, coalitions, attempts FROM batches "
                "WHERE status = 'pending' ORDER BY seq LIMIT 1"
            ).fetchone()
            if row is None:
                return None
            seq, batch_id, run_id, coalitions, attempts = row
            deadline = now + float(lease_seconds)
            connection.execute(
                "UPDATE batches SET status = 'leased', owner = ?, deadline = ?, "
                "attempts = attempts + 1 WHERE seq = ?",
                (worker_id, deadline, seq),
            )
            return Claim(
                batch_id=batch_id,
                run_id=run_id,
                seq=int(seq),
                coalitions=_decode_coalitions(coalitions),
                attempts=int(attempts) + 1,
                deadline=deadline,
            )

        return self._transaction(op)

    def renew(self, batch_id: str, worker_id: str, lease_seconds: float) -> bool:
        """Extend a lease; ``False`` means the lease was lost (expired away)."""
        deadline = self._now() + float(lease_seconds)
        return self._execute(
            "UPDATE batches SET deadline = ? "
            "WHERE batch_id = ? AND owner = ? AND status = 'leased'",
            (deadline, batch_id, worker_id),
        ) > 0

    def complete(self, batch_id: str, worker_id: str) -> bool:
        """Retire a finished batch; ``False`` if the lease was lost meanwhile."""
        return self._execute(
            "UPDATE batches SET status = 'done', deadline = NULL "
            "WHERE batch_id = ? AND owner = ? AND status = 'leased'",
            (batch_id, worker_id),
        ) > 0

    def release(self, batch_id: str, worker_id: str, error: Optional[str] = None) -> bool:
        """Hand a batch back after a failed evaluation (keeps its attempt count)."""

        def op(connection) -> bool:
            if error is not None:
                connection.execute(
                    "UPDATE batches SET last_error = ? WHERE batch_id = ?",
                    (str(error)[:500], batch_id),
                )
            status = (
                "pending"
                if self._attempts_in(connection, batch_id) < self.max_attempts
                else "failed"
            )
            cursor = connection.execute(
                "UPDATE batches SET status = ?, owner = NULL, deadline = NULL "
                "WHERE batch_id = ? AND owner = ? AND status = 'leased'",
                (status, batch_id, worker_id),
            )
            return cursor.rowcount > 0

        return self._transaction(op)

    @staticmethod
    def _attempts_in(connection, batch_id: str) -> int:
        row = connection.execute(
            "SELECT attempts FROM batches WHERE batch_id = ?", (batch_id,)
        ).fetchone()
        return int(row[0]) if row is not None else 0

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def statuses(self, batch_ids: Sequence[str]) -> Dict[str, Tuple[str, int, Optional[str]]]:
        """``{batch_id: (status, attempts, last_error)}`` for known batches."""
        out: Dict[str, Tuple[str, int, Optional[str]]] = {}
        ids = list(batch_ids)
        for start in range(0, len(ids), 500):
            chunk = ids[start : start + 500]
            marks = ",".join("?" for _ in chunk)
            for batch_id, status, attempts, last_error in self._query(
                f"SELECT batch_id, status, attempts, last_error FROM batches "
                f"WHERE batch_id IN ({marks})",
                tuple(chunk),
            ):
                out[batch_id] = (status, int(attempts), last_error)
        return out

    def counts(self, run_id: Optional[str] = None) -> QueueCounts:
        if run_id is None:
            rows = self._query("SELECT status, COUNT(*) FROM batches GROUP BY status")
        else:
            rows = self._query(
                "SELECT status, COUNT(*) FROM batches WHERE run_id = ? GROUP BY status",
                (run_id,),
            )
        counts = QueueCounts()
        for status, n in rows:
            counts.by_status[status] = int(n)
            if hasattr(counts, status):
                setattr(counts, status, int(n))
        return counts

    def depth(self) -> int:
        """Batches not yet retired (pending + leased): the queue-depth gauge."""
        return self.counts().outstanding

    def lease_owners(self) -> List[str]:
        """Workers holding a batch lease right now, oldest batch first."""
        return [
            row[0]
            for row in self._query(
                "SELECT owner FROM batches WHERE status = 'leased' ORDER BY seq"
            )
        ]

    # ------------------------------------------------------------------ #
    # Worker heartbeats
    # ------------------------------------------------------------------ #
    def register_worker(self, worker_id: str, pid: Optional[int] = None) -> None:
        now = self._now()
        self._execute(
            "INSERT OR REPLACE INTO workers "
            "(worker_id, pid, started_at, last_seen, batches_done) "
            "VALUES (?, ?, ?, ?, COALESCE("
            "  (SELECT batches_done FROM workers WHERE worker_id = ?), 0))",
            (worker_id, pid, now, now, worker_id),
        )

    def touch_worker(self, worker_id: str, batches_done: int = 0) -> None:
        self._execute(
            "UPDATE workers SET last_seen = ?, batches_done = batches_done + ? "
            "WHERE worker_id = ?",
            (self._now(), int(batches_done), worker_id),
        )

    def workers(self) -> List[dict]:
        return [
            {
                "worker_id": worker_id,
                "pid": pid,
                "started_at": started_at,
                "last_seen": last_seen,
                "batches_done": int(batches_done),
            }
            for worker_id, pid, started_at, last_seen, batches_done in self._query(
                "SELECT worker_id, pid, started_at, last_seen, batches_done "
                "FROM workers ORDER BY worker_id"
            )
        ]


__all__ = [
    "Claim",
    "DEFAULT_MAX_ATTEMPTS",
    "LeaseQueue",
    "QueueCounts",
    "QUEUE_FILENAME",
    "WorkPayload",
    "is_busy_error",
]
