"""The valuation service core: a job scheduler over in-process workers.

:class:`ValuationService` owns one state directory::

    <state-dir>/
        jobs.sqlite         durable job queue + trainings ledger (JobStore)
        store.sqlite        shared utility store (unless an external one is given)
        checkpoints/        <job>.state.json — mid-run EstimatorState
        events/             <job>.jsonl      — the job's --json-stream events
        results/            <job>.json       — terminal result payloads
        telemetry/          journal.jsonl    — spans + metrics (Telemetry)

N scheduler workers (plain threads — jobs evaluate coalitions on their own
in-process executor backend) claim jobs from the store and
drive them through :func:`repro.service.runner.run_job`.  Priorities preempt:
a submit that finds every worker busy and a strictly lower-priority job
running flags that job, whose runner checkpoints at its next chunk boundary
and returns to the queue.  A graceful :meth:`stop` preempts *everything* the
same way, so a restarted server continues each job from its checkpoint —
and a SIGKILL'd server recovers the same jobs via :meth:`JobStore.recover`,
just without the courtesy checkpoint (the last cadence checkpoint stands).
"""

from __future__ import annotations

import os
import threading
from typing import Callable, Dict, List, Optional, Tuple

from repro.service.jobs import JobStore
from repro.service.models import JobRecord, JobSpec
from repro.service.runner import JobOutcome, run_job
from repro.service.stream import EventWriter
from repro.store import open_store
from repro.store.base import UtilityStore
from repro.telemetry import Telemetry
from repro.telemetry.metrics import prometheus_text
from repro.telemetry.names import (
    SERVICE_FIRST_SNAPSHOT_SECONDS,
    SERVICE_JOB_SECONDS,
    SERVICE_JOB_SPAN,
    SERVICE_JOBS_CANCELLED,
    SERVICE_JOBS_COMPLETED,
    SERVICE_JOBS_FAILED,
    SERVICE_JOBS_RECOVERED,
    SERVICE_JOBS_SUBMITTED,
    SERVICE_PREEMPTIONS,
    SERVICE_QUEUE_DEPTH,
    SERVICE_QUEUE_WAIT_SECONDS,
    SERVICE_RUNNING,
)

EVENTS_DIR = "events"
DEFAULT_STORE_FILENAME = "store.sqlite"


def _no_log(message: str) -> None:
    """Default sink for service log lines (the server passes stderr)."""


class ValuationService:
    """Long-running multi-tenant valuation scheduler over one state dir."""

    def __init__(
        self,
        state_dir: str,
        workers: int = 2,
        store: Optional[UtilityStore] = None,
        store_path: Optional[str] = None,
        telemetry: Optional[Telemetry] = None,
        log: Optional[Callable[[str], None]] = None,
        poll_seconds: float = 0.2,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.state_dir = str(state_dir)
        os.makedirs(self.state_dir, exist_ok=True)
        self.workers = int(workers)
        # The store opens first: a rejected store path must not leave the
        # job store's connection behind.
        if store is not None:
            self.store = store
            self._owns_store = False
        else:
            self.store = open_store(
                store_path or os.path.join(self.state_dir, DEFAULT_STORE_FILENAME)
            )
            self._owns_store = True
        self.jobs = JobStore(self.state_dir)
        self.telemetry = (
            telemetry if telemetry is not None else Telemetry.for_run_dir(self.state_dir)
        )
        self.log = log if log is not None else _no_log
        self._poll_seconds = float(poll_seconds)
        self._stop = threading.Event()
        self._lock = threading.Lock()
        self._wake = threading.Condition(self._lock)
        self._threads: List[threading.Thread] = []
        self._started = False
        self.recovered_jobs: List[str] = []

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> "ValuationService":
        """Recover interrupted jobs, then start the scheduler workers."""
        with self._lock:
            if self._started:
                return self
            self._started = True
            self.recovered_jobs = self.jobs.recover()
            for job_id in self.recovered_jobs:
                self.telemetry.count(SERVICE_JOBS_RECOVERED)
                self._emit_for(
                    job_id, {"event": "recovered", "job_id": job_id}
                )
                self.log(f"recovered {job_id}: requeued from checkpoint")
            for index in range(self.workers):
                thread = threading.Thread(
                    target=self._worker_loop,
                    args=(f"scheduler-{index}",),
                    name=f"repro-scheduler-{index}",
                    daemon=True,
                )
                self._threads.append(thread)
        for thread in self._threads:
            thread.start()
        self._update_gauges()
        return self

    def stop(self) -> None:
        """Gracefully stop: running jobs checkpoint, requeue, workers exit."""
        self._stop.set()
        with self._wake:
            self._wake.notify_all()
        for thread in self._threads:
            thread.join(timeout=60.0)
        self._update_gauges()
        self.telemetry.close()
        self.jobs.close()
        if self._owns_store:
            self.store.close()

    def __enter__(self) -> "ValuationService":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # ------------------------------------------------------------------ #
    # Client surface (what the HTTP handlers call)
    # ------------------------------------------------------------------ #
    def submit(self, spec: JobSpec) -> JobRecord:
        """Durably enqueue a job; may flag a lower-priority one for preemption."""
        record = self.jobs.submit(spec)
        self.telemetry.count(SERVICE_JOBS_SUBMITTED)
        self._emit_for(
            record.job_id,
            {
                "event": "queued",
                "job_id": record.job_id,
                "task": spec.task_spec().label(),
                "algorithm": spec.algorithm,
                "tenant": spec.tenant,
                "priority": int(spec.priority),
            },
        )
        self._maybe_preempt_for(record)
        self._update_gauges()
        with self._wake:
            self._wake.notify_all()
        return record

    def get(self, job_id: str) -> Optional[JobRecord]:
        return self.jobs.get(job_id)

    def list_jobs(
        self, tenant: Optional[str] = None, status: Optional[str] = None
    ) -> List[JobRecord]:
        return self.jobs.list_jobs(tenant=tenant, status=status)

    def cancel(self, job_id: str) -> Optional[str]:
        """Cancel a job; returns the resulting status (None if unknown)."""
        status = self.jobs.cancel(job_id)
        if status == "cancelled":
            # Cancelled straight out of the queue; a running job's runner
            # emits its own event (and counts) when it honours the flag.
            self.telemetry.count(SERVICE_JOBS_CANCELLED)
            self._emit_for(job_id, {"event": "cancelled", "job_id": job_id})
            self._update_gauges()
            with self._wake:
                self._wake.notify_all()
        return status

    def event_log_path(self, job_id: str) -> str:
        return os.path.join(self.state_dir, EVENTS_DIR, f"{job_id}.jsonl")

    def job_finished(self, job_id: str) -> bool:
        """True once the job is terminal (the SSE tail-loop's stop signal)."""
        record = self.jobs.get(job_id)
        return record is None or record.terminal

    def metrics_text(self) -> str:
        """Current metrics as Prometheus exposition text (GET /metrics)."""
        self._update_gauges()
        return prometheus_text(self.telemetry.snapshot())

    def counts(self) -> Dict[str, int]:
        return self.jobs.counts()

    # ------------------------------------------------------------------ #
    # Scheduling internals
    # ------------------------------------------------------------------ #
    def _maybe_preempt_for(self, record: JobRecord) -> None:
        """Flag the weakest running job if *record* outranks it and no
        worker is idle; the flagged runner yields at its next chunk."""
        running = self.jobs.list_jobs(status="running", limit=self.workers + 1)
        if len(running) < self.workers:
            return  # an idle worker will pick the job up on its own
        victim = min(running, key=lambda r: (r.spec.priority, r.job_id))
        if victim.spec.priority < record.spec.priority:
            if self.jobs.request_preempt(victim.job_id):
                self.log(
                    f"preempting {victim.job_id} (priority {victim.spec.priority}) "
                    f"for {record.job_id} (priority {record.spec.priority})"
                )

    def _control_flags(self, job_id: str) -> Tuple[bool, bool]:
        """(cancel, preempt) for a running job; a stopping service preempts
        everything so each job checkpoints before the workers exit."""
        cancel, preempt = self.jobs.control_flags(job_id)
        if self._stop.is_set():
            preempt = True
        return cancel, preempt

    def _emit_for(self, job_id: str, payload: dict) -> None:
        """Append one event to a job's stream log (outside any run attempt)."""
        EventWriter(path=self._events_path_made(job_id)).emit(payload)

    def _events_path_made(self, job_id: str) -> str:
        path = self.event_log_path(job_id)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        return path

    def _update_gauges(self) -> None:
        counts = self.jobs.counts()
        self.telemetry.set_gauge(SERVICE_QUEUE_DEPTH, counts.get("queued", 0))
        self.telemetry.set_gauge(SERVICE_RUNNING, counts.get("running", 0))

    def _worker_loop(self, worker: str) -> None:
        while not self._stop.is_set():
            claimed = self.jobs.claim(worker)
            if claimed is None:
                with self._wake:
                    self._wake.wait(timeout=self._poll_seconds)
                continue
            record, queue_wait = claimed
            self.telemetry.observe(SERVICE_QUEUE_WAIT_SECONDS, queue_wait)
            self._update_gauges()
            self._execute(worker, record)
            self._update_gauges()
            with self._wake:
                # A finished job may unblock a same-namespace queued one.
                self._wake.notify_all()

    def _execute(self, worker: str, record: JobRecord) -> None:
        job_id = record.job_id
        writer = EventWriter(path=self._events_path_made(job_id))
        span = self.telemetry.span(
            SERVICE_JOB_SPAN,
            job=job_id,
            tenant=record.spec.tenant,
            algorithm=record.spec.algorithm,
            attempt=record.attempts,
        )
        controller = _JobController(self, job_id)
        try:
            with span:
                outcome = run_job(
                    record,
                    self.store,
                    self.state_dir,
                    self.jobs.record_training,
                    controller.flags,
                    writer.emit,
                    self.log,
                    telemetry=self.telemetry,
                )
        except Exception as error:  # noqa: BLE001 - job isolation boundary
            # One bad job must not take down the scheduler thread; the error
            # is recorded on the job row and reported in its event stream.
            self.log(f"{job_id} failed: {type(error).__name__}: {error}")
            self.jobs.fail(job_id, worker, f"{type(error).__name__}: {error}")
            self.telemetry.count(SERVICE_JOBS_FAILED)
            writer.emit(
                {
                    "event": "failed",
                    "job_id": job_id,
                    "error": f"{type(error).__name__}: {error}",
                }
            )
            return
        if outcome.first_snapshot_seconds is not None and record.attempts == 1:
            self.telemetry.observe(
                SERVICE_FIRST_SNAPSHOT_SECONDS, outcome.first_snapshot_seconds
            )
        if outcome.status == "done":
            self.jobs.finish(
                job_id,
                worker,
                outcome.result or {},
                fl_trainings=outcome.fl_trainings,
                store_hits=outcome.store_hits,
            )
            self.telemetry.count(SERVICE_JOBS_COMPLETED)
        elif outcome.status == "preempted":
            self.jobs.requeue(
                job_id,
                worker,
                preempted=True,
                fl_trainings=outcome.fl_trainings,
                store_hits=outcome.store_hits,
            )
            self.telemetry.count(SERVICE_PREEMPTIONS)
        elif outcome.status == "cancelled":
            self.jobs.mark_cancelled(job_id, worker)
            self.telemetry.count(SERVICE_JOBS_CANCELLED)
        self._observe_job_seconds(outcome)

    def _observe_job_seconds(self, outcome: JobOutcome) -> None:
        # Attempt duration approximated by the estimator's own elapsed clock
        # when available; recorded per attempt, so preempted attempts count.
        if outcome.result is not None:
            elapsed = outcome.result.get("result", {}).get("elapsed_seconds")
            if elapsed is not None:
                self.telemetry.observe(SERVICE_JOB_SECONDS, float(elapsed))


class _JobController:
    """Bound (service, job) pair: the runner's per-chunk control callback.

    A named class instead of a closure so the callback that crosses into
    :func:`run_job` is a plain bound method (the codebase's RPR004 idiom for
    callables handed across subsystem boundaries).
    """

    def __init__(self, service: ValuationService, job_id: str) -> None:
        self._service = service
        self._job_id = job_id

    def flags(self) -> Tuple[bool, bool]:
        return self._service._control_flags(self._job_id)


__all__ = ["DEFAULT_STORE_FILENAME", "EVENTS_DIR", "ValuationService"]
