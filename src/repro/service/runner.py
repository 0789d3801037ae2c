"""Execute one service job — the job → plan-cell adaptation layer.

A job runs *exactly* the computation a ``repro run`` cell with the same task
and algorithm would, through the same code: the oracle comes from
:func:`~repro.experiments.pipeline.build_cell_utility`, the estimator from
:func:`~repro.experiments.pipeline.build_task_algorithm` (same γ, same seed,
same builder registry), and the chunk loop, checkpoint cadence and resume
from :func:`~repro.experiments.pipeline.execute_cell`, which persists each
cadence chunk *before* calling the job's observer.  That ordering is what
makes graceful preemption free: raising :class:`JobPreempted` from the
observer always leaves the just-completed chunk on disk, so the resumed
attempt continues bitwise-identically.

What the service adds around that core:

* the job's utility store is wrapped in a
  :class:`~repro.store.sqlite.RecordingStore`, so every training that
  reaches the store lands in the trainings ledger under this job's id;
* the store is re-attached under the job's *tenant* namespace (see
  :func:`~repro.service.models.tenant_namespace`) — the default tenant keeps
  store-key parity with direct CLI runs;
* control flags (cancel / preempt) are polled at every chunk boundary, the
  only place the anytime protocol can stop cleanly; a preempt also writes
  the current chunk, which may be off the checkpoint cadence or have
  trained nothing;
* the job's event stream and its :class:`JobOutcome`.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from repro.core import parse_stopping_rule
from repro.experiments.pipeline import (
    CHECKPOINTS_DIR,
    RESULTS_DIR,
    build_cell_utility,
    build_task_algorithm,
    checkpoint_path,
    drop_checkpoint,
    execute_cell,
)
from repro.service.ledger import RecordingStore
from repro.service.models import JobRecord
from repro.store.base import UtilityStore
from repro.utils.jsonio import write_json_atomic


class JobPreempted(Exception):
    """Raised from the chunk observer to yield the worker to a higher-priority
    job; the chunk's checkpoint is already on disk when this propagates."""


class JobCancelled(Exception):
    """Raised from the chunk observer when the client cancelled the job."""


@dataclass
class JobOutcome:
    """What one execution attempt of a job produced."""

    status: str  # 'done' | 'preempted' | 'cancelled'
    result: Optional[dict] = None
    fl_trainings: int = 0
    store_hits: int = 0
    first_snapshot_seconds: Optional[float] = None
    chunks: int = 0


def result_path(state_dir: str, job_id: str) -> str:
    return os.path.join(state_dir, RESULTS_DIR, f"{job_id}.json")


#: Atomic compact-JSON write; callers look it up through this module global.
_write_json = write_json_atomic


def run_job(
    record: JobRecord,
    store: UtilityStore,
    state_dir: str,
    record_training: Callable[[str, str], None],
    control: Callable[[], Tuple[bool, bool]],
    emit: Callable[[dict], None],
    say: Callable[[str], None],
    telemetry=None,
) -> JobOutcome:
    """Run (or resume) one claimed job to its next stopping point.

    ``control()`` returns ``(cancel_requested, preempt_requested)`` and is
    polled once per chunk; ``emit`` receives the job's stream events (the
    ``--json-stream`` schema plus ``job_id``); ``record_training`` is the
    job store's ledger hook.
    """
    spec = record.spec
    task_spec = spec.task_spec()
    job_id = record.job_id
    ckpt = checkpoint_path(state_dir, job_id)
    tag = {"job_id": job_id, "task": task_spec.label()}
    started = time.perf_counter()
    progress: dict = {"first_snapshot": None, "chunks": 0}

    recording = RecordingStore(store, record_training, job_id)
    utility = build_cell_utility(task_spec, recording, spec, telemetry)

    def outcome(status: str, result: Optional[dict] = None) -> JobOutcome:
        return JobOutcome(
            status=status,
            result=result,
            fl_trainings=utility.evaluations,
            store_hits=utility.store_hits,
            first_snapshot_seconds=progress["first_snapshot"],
            chunks=progress["chunks"],
        )

    def observe(snapshot) -> None:
        # execute_cell has already written this chunk's checkpoint if it is
        # on the cadence and trained something.
        if progress["first_snapshot"] is None:
            progress["first_snapshot"] = time.perf_counter() - started
        progress["chunks"] += 1
        emit({"event": "snapshot", **tag, **snapshot.to_dict()})
        cancel, preempt = control()
        if cancel:
            raise JobCancelled(job_id)
        resumable = snapshot.state is not None and not snapshot.done
        if preempt and resumable and spec.checkpoint_every:
            # The scheduler asked us to yield: persist THIS chunk (it may
            # be off the checkpoint cadence or have trained nothing) and
            # hand the worker back.
            _write_json(ckpt, snapshot.state.to_dict())
            raise JobPreempted(job_id)

    try:
        # Re-namespace under the tenant (a no-op for the default tenant,
        # whose namespace IS the task fingerprint).
        utility.attach_store(recording, record.namespace)
        algorithm = build_task_algorithm(task_spec, spec.algorithm, utility.n_clients)
        stop_rule = (
            parse_stopping_rule(spec.stop_on) if spec.stop_on is not None else None
        )
        try:
            result, _ = execute_cell(
                algorithm,
                utility,
                ckpt,
                f"{job_id} ({task_spec.label()} × {spec.algorithm})",
                say,
                stop_rule,
                spec.checkpoint_every,
                observe,
            )
        except JobPreempted:
            emit({"event": "preempted", **tag, "algorithm": spec.algorithm})
            return outcome("preempted")
        except JobCancelled:
            drop_checkpoint(state_dir, job_id)
            emit({"event": "cancelled", **tag, "algorithm": spec.algorithm})
            return outcome("cancelled")

        payload = {
            "job_id": job_id,
            "algorithm": spec.algorithm,
            "task": task_spec.label(),
            "task_fingerprint": record.task_fingerprint,
            "tenant": spec.tenant,
            "namespace": record.namespace,
            "result": result.to_dict(),
            "store_hits": utility.store_hits,
            "fl_trainings": utility.evaluations,
        }
        _write_json(result_path(state_dir, job_id), payload)
        drop_checkpoint(state_dir, job_id)
        emit({"event": "result", "status": "done", **payload})
        return outcome("done", payload)
    finally:
        utility.close()


__all__ = [
    "CHECKPOINTS_DIR",
    "JobCancelled",
    "JobOutcome",
    "JobPreempted",
    "RESULTS_DIR",
    "checkpoint_path",
    "drop_checkpoint",
    "result_path",
    "run_job",
]
