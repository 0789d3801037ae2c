"""The service's durable job queue: one WAL-SQLite file of job rows.

Built on the durable-state core :class:`~repro.store.sqlite.DurableState`
(one connection behind a process lock, retrying write-locking transactions,
the trainings ledger).  Jobs are *claimed by in-process scheduler workers*,
not leased to remote processes, so there are no lease deadlines — a crashed
server leaves rows in ``running`` and
:meth:`JobStore.recover` requeues them on restart (their checkpoints carry
the actual progress).

Scheduling order inside :meth:`claim` is three-keyed:

1. **priority** — higher first (the preemption satellite's other half);
2. **tenant fairness** — among equal priorities, the tenant with the fewest
   running jobs goes first, so one chatty tenant cannot starve the rest;
3. **FIFO** — submission order (``seq``) breaks the remaining ties.

A claim also never picks a job whose store namespace is already running
(*store affinity*): two concurrent submits of the same (tenant, task) would
otherwise each miss the shared store's cold cache and train the same
coalitions twice.  Serialised, the second becomes a warm re-run.  The
``trainings`` ledger — one plain-INSERT row per stored training, tagged with
the job id — is how tests assert that invariant:
``COUNT(*) == COUNT(DISTINCT key)``.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional, Tuple

from repro.experiments.pipeline import stored_execution
from repro.service.models import JobRecord, JobSpec
from repro.store.sqlite import DurableState

JOBS_FILENAME = "jobs.sqlite"

_SCHEMA = """
CREATE TABLE IF NOT EXISTS jobs (
    seq               INTEGER PRIMARY KEY AUTOINCREMENT,
    job_id            TEXT NOT NULL UNIQUE,
    tenant            TEXT NOT NULL,
    priority          INTEGER NOT NULL DEFAULT 0,
    status            TEXT NOT NULL DEFAULT 'queued',
    spec              TEXT NOT NULL,
    namespace         TEXT NOT NULL,
    task_fingerprint  TEXT NOT NULL,
    algorithm         TEXT NOT NULL,
    submitted_at      REAL NOT NULL,
    queued_at         REAL NOT NULL,
    started_at        REAL,
    finished_at       REAL,
    attempts          INTEGER NOT NULL DEFAULT 0,
    preemptions       INTEGER NOT NULL DEFAULT 0,
    worker            TEXT,
    error             TEXT,
    result            TEXT,
    fl_trainings      INTEGER NOT NULL DEFAULT 0,
    store_hits        INTEGER NOT NULL DEFAULT 0,
    cancel_requested  INTEGER NOT NULL DEFAULT 0,
    preempt_requested INTEGER NOT NULL DEFAULT 0
);
CREATE INDEX IF NOT EXISTS idx_jobs_status ON jobs (status, priority DESC, seq);
CREATE INDEX IF NOT EXISTS idx_jobs_tenant ON jobs (tenant, seq);
"""

#: job columns that map one-to-one onto JobRecord fields
_RECORD_FIELDS = (
    "job_id", "status", "spec", "namespace", "task_fingerprint",
    "submitted_at", "started_at", "finished_at", "attempts", "preemptions",
    "worker", "error", "result", "fl_trainings", "store_hits",
)
_RECORD_COLUMNS = ", ".join(_RECORD_FIELDS)


def _record_from_row(row: tuple) -> JobRecord:
    fields = dict(zip(_RECORD_FIELDS, row))
    spec, result = fields.pop("spec"), fields.pop("result")
    return JobRecord(
        spec=JobSpec.from_dict(stored_execution(json.loads(spec))),
        result=None if result is None else json.loads(result),
        **fields,
    )


class JobStore(DurableState):
    """Thread- and process-safe handle on one service state directory's jobs."""

    LEDGER_COLUMNS = ("job_id",)

    def __init__(self, state_dir: str, timeout: float = 10.0) -> None:
        self.state_dir = str(state_dir)
        os.makedirs(self.state_dir, exist_ok=True)
        super().__init__(os.path.join(self.state_dir, JOBS_FILENAME), _SCHEMA, timeout)

    # ------------------------------------------------------------------ #
    # Submit / inspect
    # ------------------------------------------------------------------ #
    def submit(self, spec: JobSpec) -> JobRecord:
        """Durably enqueue one job; returns its record (status ``queued``).

        The job id derives from the row's transaction-assigned sequence
        number — unique across concurrent submitters without any randomness
        (RPR001: nothing about a job's identity may depend on entropy).
        """
        now = self._now()
        spec_json = json.dumps(spec.to_dict(), sort_keys=True)
        namespace = spec.namespace()
        task_fingerprint = spec.task_fingerprint()

        def op(connection) -> str:
            cursor = connection.execute(
                "INSERT INTO jobs (job_id, tenant, priority, status, spec, "
                "namespace, task_fingerprint, algorithm, submitted_at, queued_at) "
                "VALUES ('pending', ?, ?, 'queued', ?, ?, ?, ?, ?, ?)",
                (
                    spec.tenant,
                    int(spec.priority),
                    spec_json,
                    namespace,
                    task_fingerprint,
                    spec.algorithm,
                    now,
                    now,
                ),
            )
            job_id = f"job-{cursor.lastrowid:06d}"
            connection.execute(
                "UPDATE jobs SET job_id = ? WHERE seq = ?", (job_id, cursor.lastrowid)
            )
            return job_id

        job_id = self._transaction(op)
        return JobRecord(
            job_id=job_id,
            spec=spec,
            status="queued",
            namespace=namespace,
            task_fingerprint=task_fingerprint,
            submitted_at=now,
        )

    def get(self, job_id: str) -> Optional[JobRecord]:
        rows = self._query(
            f"SELECT {_RECORD_COLUMNS} FROM jobs WHERE job_id = ?", (job_id,)
        )
        return _record_from_row(rows[0]) if rows else None

    def list_jobs(
        self,
        tenant: Optional[str] = None,
        status: Optional[str] = None,
        limit: int = 200,
    ) -> List[JobRecord]:
        sql = f"SELECT {_RECORD_COLUMNS} FROM jobs"
        clauses, params = [], []
        if tenant is not None:
            clauses.append("tenant = ?")
            params.append(tenant)
        if status is not None:
            clauses.append("status = ?")
            params.append(status)
        if clauses:
            sql += " WHERE " + " AND ".join(clauses)
        sql += " ORDER BY seq DESC LIMIT ?"
        params.append(int(limit))
        return [_record_from_row(row) for row in self._query(sql, tuple(params))]

    def counts(self) -> Dict[str, int]:
        """``{status: count}`` over all jobs (the queue-depth/running gauges)."""
        return {
            status: int(n)
            for status, n in self._query(
                "SELECT status, COUNT(*) FROM jobs GROUP BY status"
            )
        }

    # ------------------------------------------------------------------ #
    # Scheduling transitions
    # ------------------------------------------------------------------ #
    def claim(self, worker: str) -> Optional[Tuple[JobRecord, float]]:
        """Atomically claim the next runnable job for *worker*.

        Returns ``(record, queue_wait_seconds)`` with the record already in
        ``running``, or ``None`` when nothing is runnable.  Order: priority,
        then tenant fairness, then FIFO — skipping any job whose store
        namespace is already running (see the module docstring).
        """
        now = self._now()

        def op(connection) -> Optional[Tuple[str, float]]:
            busy = {
                row[0]
                for row in connection.execute(
                    "SELECT namespace FROM jobs WHERE status = 'running'"
                )
            }
            running_by_tenant: Dict[str, int] = {}
            for tenant, n in connection.execute(
                "SELECT tenant, COUNT(*) FROM jobs WHERE status = 'running' "
                "GROUP BY tenant"
            ):
                running_by_tenant[tenant] = int(n)
            candidates = connection.execute(
                "SELECT seq, job_id, tenant, priority, queued_at, namespace "
                "FROM jobs WHERE status = 'queued' ORDER BY priority DESC, seq"
            ).fetchall()
            chosen = None  # (fairness_key, seq, job_id, queued_at)
            chosen_priority = 0
            for seq, job_id, tenant, priority, queued_at, namespace in candidates:
                if chosen is not None and priority < chosen_priority:
                    break  # candidates are priority-sorted; no better one left
                if namespace in busy:
                    continue  # store affinity: that namespace is running
                key = (running_by_tenant.get(tenant, 0), seq)
                if chosen is None or key < chosen[0]:
                    chosen = (key, seq, job_id, queued_at)
                    chosen_priority = priority
            if chosen is None:
                return None
            _key, seq, job_id, queued_at = chosen
            connection.execute(
                "UPDATE jobs SET status = 'running', worker = ?, started_at = ?, "
                "attempts = attempts + 1, preempt_requested = 0 WHERE seq = ?",
                (worker, now, seq),
            )
            return job_id, max(now - float(queued_at), 0.0)

        claimed = self._transaction(op)
        if claimed is None:
            return None
        job_id, wait = claimed
        record = self.get(job_id)
        if record is None:  # pragma: no cover - the row was just written
            return None
        return record, wait

    def finish(
        self,
        job_id: str,
        worker: str,
        result: dict,
        fl_trainings: int = 0,
        store_hits: int = 0,
    ) -> bool:
        """``running → done``; ``False`` if the job is no longer this worker's."""
        return self._execute(
            "UPDATE jobs SET status = 'done', finished_at = ?, result = ?, "
            "fl_trainings = fl_trainings + ?, store_hits = store_hits + ?, "
            "error = NULL WHERE job_id = ? AND worker = ? AND status = 'running'",
            (
                self._now(),
                json.dumps(result, sort_keys=True),
                int(fl_trainings),
                int(store_hits),
                job_id,
                worker,
            ),
        ) > 0

    def fail(self, job_id: str, worker: str, error: str) -> bool:
        """``running → failed`` with the error message recorded."""
        return self._execute(
            "UPDATE jobs SET status = 'failed', finished_at = ?, error = ? "
            "WHERE job_id = ? AND worker = ? AND status = 'running'",
            (self._now(), str(error)[:1000], job_id, worker),
        ) > 0

    def requeue(
        self,
        job_id: str,
        worker: str,
        preempted: bool,
        fl_trainings: int = 0,
        store_hits: int = 0,
    ) -> bool:
        """``running → queued`` (graceful preemption); progress is on disk."""
        return self._execute(
            "UPDATE jobs SET status = 'queued', worker = NULL, queued_at = ?, "
            "preemptions = preemptions + ?, preempt_requested = 0, "
            "fl_trainings = fl_trainings + ?, store_hits = store_hits + ? "
            "WHERE job_id = ? AND worker = ? AND status = 'running'",
            (
                self._now(),
                1 if preempted else 0,
                int(fl_trainings),
                int(store_hits),
                job_id,
                worker,
            ),
        ) > 0

    def mark_cancelled(self, job_id: str, worker: str) -> bool:
        """``running → cancelled`` after the runner honoured a cancel request."""
        return self._execute(
            "UPDATE jobs SET status = 'cancelled', finished_at = ?, "
            "worker = NULL WHERE job_id = ? AND worker = ? "
            "AND status = 'running'",
            (self._now(), job_id, worker),
        ) > 0

    # ------------------------------------------------------------------ #
    # Client-driven transitions
    # ------------------------------------------------------------------ #
    def cancel(self, job_id: str) -> Optional[str]:
        """Cancel a job; returns its resulting status, or ``None`` if unknown.

        A queued job is cancelled immediately (its queue slot frees in the
        same transaction).  A running job gets ``cancel_requested`` set and
        transitions once its runner reaches the next chunk boundary.
        Terminal jobs are left as they are.
        """
        now = self._now()

        def op(connection) -> Optional[str]:
            row = connection.execute(
                "SELECT status FROM jobs WHERE job_id = ?", (job_id,)
            ).fetchone()
            if row is None:
                return None
            status = row[0]
            if status == "queued":
                connection.execute(
                    "UPDATE jobs SET status = 'cancelled', finished_at = ? "
                    "WHERE job_id = ? AND status = 'queued'",
                    (now, job_id),
                )
                return "cancelled"
            if status == "running":
                connection.execute(
                    "UPDATE jobs SET cancel_requested = 1 WHERE job_id = ?",
                    (job_id,),
                )
                return "cancelling"
            return status

        return self._transaction(op)

    def request_preempt(self, job_id: str) -> bool:
        """Ask a running job to checkpoint and yield at its next chunk."""
        return self._execute(
            "UPDATE jobs SET preempt_requested = 1 "
            "WHERE job_id = ? AND status = 'running'",
            (job_id,),
        ) > 0

    def control_flags(self, job_id: str) -> Tuple[bool, bool]:
        """``(cancel_requested, preempt_requested)`` — polled per chunk."""
        rows = self._query(
            "SELECT cancel_requested, preempt_requested FROM jobs WHERE job_id = ?",
            (job_id,),
        )
        if not rows:
            return False, False
        return bool(rows[0][0]), bool(rows[0][1])

    # ------------------------------------------------------------------ #
    # Crash recovery
    # ------------------------------------------------------------------ #
    def recover(self) -> List[str]:
        """Requeue every job a dead server left in ``running``.

        Called once at startup, before any scheduler worker claims.  Jobs
        with a pending cancel request are cancelled instead of requeued.
        Returns the requeued job ids (the recovery counter's increment).
        """
        now = self._now()

        def op(connection) -> List[str]:
            connection.execute(
                "UPDATE jobs SET status = 'cancelled', finished_at = ?, "
                "worker = NULL WHERE status = 'running' AND cancel_requested = 1",
                (now,),
            )
            rows = connection.execute(
                "SELECT job_id FROM jobs WHERE status = 'running'"
            ).fetchall()
            connection.execute(
                "UPDATE jobs SET status = 'queued', worker = NULL, queued_at = ?, "
                "preempt_requested = 0 WHERE status = 'running'",
                (now,),
            )
            return [row[0] for row in rows]

        return self._transaction(op)


__all__ = ["JOBS_FILENAME", "JobStore"]
