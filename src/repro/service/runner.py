"""Execute one service job — the job → plan-cell adaptation layer.

A job runs *exactly* the computation a ``repro run`` cell with the same task
and algorithm would: the estimator comes from
:func:`repro.experiments.pipeline.build_task_algorithm` (same γ, same seed,
same builder registry), checkpoints round-trip through
:func:`repro.experiments.pipeline.load_estimator_checkpoint`, and the chunk
observer persists the estimator state *before* doing anything that can raise
— the same ordering the pipeline uses, and the property that makes graceful
preemption free: raising :class:`JobPreempted` from the observer always
leaves the just-completed chunk on disk, so the resumed attempt continues
bitwise-identically.

What the service adds around that core:

* the job's utility store is wrapped in a
  :class:`~repro.service.ledger.RecordingStore`, so every actual FL training
  lands in the trainings ledger under this job's id;
* the store is re-attached under the job's *tenant* namespace (see
  :func:`~repro.service.models.tenant_namespace`) — the default tenant keeps
  store-key parity with direct CLI runs;
* control flags (cancel / preempt) are polled at every chunk boundary, the
  only place the anytime protocol can stop cleanly.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from repro.core import ValuationAlgorithm, parse_stopping_rule
from repro.experiments.pipeline import build_task_algorithm, load_estimator_checkpoint
from repro.service.ledger import RecordingStore
from repro.service.models import JobRecord
from repro.store.base import UtilityStore
from repro.utils.jsonio import write_json_atomic

CHECKPOINTS_DIR = "checkpoints"
RESULTS_DIR = "results"


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


def checkpoint_path(state_dir: str, job_id: str) -> str:
    return os.path.join(state_dir, CHECKPOINTS_DIR, f"{job_id}.state.json")


def result_path(state_dir: str, job_id: str) -> str:
    return os.path.join(state_dir, RESULTS_DIR, f"{job_id}.json")


def drop_checkpoint(state_dir: str, job_id: str) -> None:
    path = checkpoint_path(state_dir, job_id)
    if os.path.exists(path):
        os.remove(path)


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
    started = time.perf_counter()
    progress = {"first_snapshot": None, "chunks": 0}

    recording = RecordingStore(store, record_training, job_id)
    utility = task_spec.build(recording)
    try:
        # Re-namespace under the tenant (a no-op for the default tenant,
        # whose namespace IS the task fingerprint).
        utility.attach_store(recording, record.namespace)
        if spec.backend == "fleet":
            from repro.fleet.coordinator import FleetExecutor

            utility.set_n_workers(
                spec.n_workers,
                FleetExecutor(
                    queue_dir=spec.queue_dir,
                    spawn_workers=spec.spawn_workers,
                    worker_backend=spec.worker_backend or "serial",
                    lease_seconds=spec.lease_seconds,
                    log=say,
                ),
            )
        elif spec.n_workers > 1 or spec.backend is not None:
            utility.set_n_workers(spec.n_workers, spec.backend)
        if telemetry is not None:
            utility.set_telemetry(telemetry)

        algorithm = build_task_algorithm(task_spec, spec.algorithm, utility.n_clients)
        stop_rule = (
            parse_stopping_rule(spec.stop_on) if spec.stop_on is not None else None
        )

        def observe(snapshot) -> None:
            # Checkpoint BEFORE emitting or raising, so whatever interrupts
            # this chunk still finds it on disk (the pipeline's ordering).
            resumable = snapshot.state is not None and not snapshot.done
            if (
                resumable
                and spec.checkpoint_every
                and snapshot.chunk_index % spec.checkpoint_every == 0
            ):
                _write_json(ckpt, snapshot.state.to_dict())
            if progress["first_snapshot"] is None:
                progress["first_snapshot"] = time.perf_counter() - started
            progress["chunks"] += 1
            emit(
                {
                    "event": "snapshot",
                    "job_id": job_id,
                    "task": task_spec.label(),
                    **snapshot.to_dict(),
                }
            )
            cancel, preempt = control()
            if cancel:
                raise JobCancelled(job_id)
            if preempt and resumable and spec.checkpoint_every:
                # The scheduler asked us to yield: persist THIS chunk (it may
                # be off the checkpoint cadence) and hand the worker back.
                _write_json(ckpt, snapshot.state.to_dict())
                raise JobPreempted(job_id)

        try:
            if not isinstance(algorithm, ValuationAlgorithm):
                # Single-chunk adapters (the gradient baselines) cannot be
                # checkpointed mid-run; they stream through iter_run.
                last = None
                for last in algorithm.iter_run(utility, utility.n_clients):
                    observe(last)
                result = last.result()
            else:
                state = load_estimator_checkpoint(
                    ckpt, algorithm, utility.n_clients, say
                )
                if state is not None:
                    say(
                        f"{job_id}: continuing from checkpoint "
                        f"(chunk {state.chunk_index}, "
                        f"{state.evaluations} evaluations spent)"
                    )
                result = algorithm.run(
                    utility,
                    utility.n_clients,
                    stopping_rule=stop_rule,
                    state=state,
                    on_snapshot=observe,
                )
        except JobPreempted:
            emit(
                {
                    "event": "preempted",
                    "job_id": job_id,
                    "task": task_spec.label(),
                    "algorithm": spec.algorithm,
                }
            )
            return JobOutcome(
                status="preempted",
                fl_trainings=utility.evaluations,
                store_hits=utility.store_hits,
                first_snapshot_seconds=progress["first_snapshot"],
                chunks=progress["chunks"],
            )
        except JobCancelled:
            drop_checkpoint(state_dir, job_id)
            emit(
                {
                    "event": "cancelled",
                    "job_id": job_id,
                    "task": task_spec.label(),
                    "algorithm": spec.algorithm,
                }
            )
            return JobOutcome(
                status="cancelled",
                fl_trainings=utility.evaluations,
                store_hits=utility.store_hits,
                first_snapshot_seconds=progress["first_snapshot"],
                chunks=progress["chunks"],
            )

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
        return JobOutcome(
            status="done",
            result=payload,
            fl_trainings=utility.evaluations,
            store_hits=utility.store_hits,
            first_snapshot_seconds=progress["first_snapshot"],
            chunks=progress["chunks"],
        )
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
