"""Wire schema of the valuation service: job specs, records, lifecycle.

A :class:`JobSpec` is what a client POSTs to ``/v1/jobs`` — a declarative
valuation request: one :class:`~repro.experiments.specs.TaskSpec` (or a
scenario reference), one algorithm, an optional stopping rule, a priority and
a tenant.  A :class:`JobRecord` is what the service stores and returns: the
spec plus lifecycle bookkeeping (status, timestamps, attempt counters, cost
accounting, result location).

Job lifecycle (the state machine ``docs/service.md`` documents)::

    queued ──claim──▶ running ──finish──▶ done
      │                 │  │
      │                 │  └─preempt/recover─▶ queued   (checkpoint kept)
      │                 └────────error───────▶ failed
      └──────────────── cancel ──────────────▶ cancelled (either state)

``queued → running`` happens only through the scheduler's claim (priority
first, then tenant-fair, then FIFO); ``running → queued`` happens on graceful
preemption and on crash recovery — both resume later from the job's
:class:`~repro.core.EstimatorState` checkpoint, bitwise-identically to an
uninterrupted run.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.core import parse_stopping_rule
from repro.experiments.pipeline import (
    available_algorithms,
    check_fields,
    drop_legacy_n_workers,
    validate_execution,
)
from repro.experiments.specs import TaskSpec
from repro.store import fingerprint

#: terminal statuses: the job will never run again
TERMINAL_STATUSES = ("done", "failed", "cancelled")
#: every status a JobRecord may carry
JOB_STATUSES = ("queued", "running") + TERMINAL_STATUSES

#: tenant whose jobs use the bare task fingerprint as their store namespace —
#: byte-identical store keys to a direct ``repro run`` against the same store
DEFAULT_TENANT = "default"


def tenant_namespace(tenant: str, task_fingerprint: str) -> str:
    """Store namespace of one (tenant, task) pair.

    The default tenant keeps the bare task fingerprint, so service jobs and
    direct ``repro run`` invocations against the same store share trainings.
    Any other tenant gets a derived fingerprint namespace: same width, valid
    key syntax whatever the tenant string contains, and never equal to a bare
    task fingerprint — two tenants with identical tasks can *never* alias
    store entries.
    """
    if tenant == DEFAULT_TENANT:
        return task_fingerprint
    return fingerprint({"tenant": tenant, "task": task_fingerprint})


@dataclass(frozen=True)
class JobSpec:
    """Declarative description of one valuation job (the POST body).

    Parameters
    ----------
    task:
        A :class:`~repro.experiments.specs.TaskSpec` — in wire form, its
        plain-dict rendering (``{"kind": "adult", "model": "logistic", ...}``,
        including ``kind="scenario"`` tasks).
    algorithm:
        Registered algorithm name (see ``repro list-tasks``).
    tenant / priority:
        Multi-tenancy coordinates: the tenant namespaces the job's store
        entries (see :func:`tenant_namespace`) and takes part in fair
        scheduling; a higher priority runs first and may gracefully preempt
        lower-priority running jobs.
    stop_on:
        Optional early-stop specification in the ``--stop-on`` mini-language
        (``"ci:0.02"``, ``"budget:64,rank:2@top5"``, ...).
    checkpoint_every:
        Estimator-state persistence cadence in chunks (0 disables — the job
        then cannot be gracefully preempted or crash-recovered mid-run).
    backend:
        Executor backend for coalition evaluation inside this job:
        ``"serial"`` or ``"vectorized"``, validated like an
        :class:`~repro.experiments.pipeline.ExperimentPlan`'s.
    """

    task: Dict[str, Any]
    algorithm: str
    tenant: str = DEFAULT_TENANT
    priority: int = 0
    stop_on: Optional[str] = None
    checkpoint_every: int = 1
    backend: Optional[str] = None

    def __post_init__(self) -> None:
        # Validate eagerly: a bad job must be rejected at submit time with an
        # actionable message, not discovered by a worker thread hours later.
        object.__setattr__(self, "task", dict(self.task))
        self.task_spec()  # raises on malformed task dicts
        if self.algorithm not in available_algorithms():
            raise ValueError(
                f"unknown algorithm {self.algorithm!r}; "
                f"choose from {available_algorithms()}"
            )
        if not self.tenant or not isinstance(self.tenant, str):
            raise ValueError(f"tenant must be a non-empty string, got {self.tenant!r}")
        if not isinstance(self.priority, numbers.Integral) or isinstance(
            self.priority, bool
        ):
            raise ValueError(f"priority must be an integer, got {self.priority!r}")
        if self.stop_on is not None:
            parse_stopping_rule(self.stop_on)  # raises on malformed specs
        if self.checkpoint_every < 0:
            raise ValueError(
                f"checkpoint_every must be >= 0, got {self.checkpoint_every}"
            )
        validate_execution(self)

    # ------------------------------------------------------------------ #
    # Derived identities
    # ------------------------------------------------------------------ #
    def task_spec(self) -> TaskSpec:
        """The live :class:`TaskSpec` this job values."""
        return TaskSpec.from_dict(self.task)

    def task_fingerprint(self) -> str:
        return self.task_spec().fingerprint()

    def namespace(self) -> str:
        """Store namespace of this job (see :func:`tenant_namespace`)."""
        return tenant_namespace(self.tenant, self.task_fingerprint())

    def label(self) -> str:
        return f"{self.task_spec().label()} × {self.algorithm}"

    # ------------------------------------------------------------------ #
    # Serialisation
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict:
        payload: Dict[str, Any] = {
            "task": dict(self.task),
            "algorithm": self.algorithm,
            "tenant": self.tenant,
            "priority": int(self.priority),
            "checkpoint_every": int(self.checkpoint_every),
        }
        if self.stop_on is not None:
            payload["stop_on"] = self.stop_on
        if self.backend is not None:
            payload["backend"] = self.backend
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "JobSpec":
        if not isinstance(payload, dict):
            raise ValueError(f"a job spec must be a JSON object, got {type(payload).__name__}")
        # A typo ("algorithms" for "algorithm") must fail the submit, not
        # silently run the default and bill the tenant for it.
        check_fields(
            "JobSpec",
            payload,
            {
                "task",
                "algorithm",
                "tenant",
                "priority",
                "stop_on",
                "checkpoint_every",
                "backend",
                "n_workers",  # legacy, see drop_legacy_n_workers
            },
        )
        missing = {"task", "algorithm"} - set(payload)
        if missing:
            raise ValueError(f"a job spec requires fields: {sorted(missing)}")
        payload = drop_legacy_n_workers(payload)
        return cls(
            task=dict(payload["task"]),
            algorithm=str(payload["algorithm"]),
            tenant=str(payload.get("tenant", DEFAULT_TENANT)),
            priority=int(payload.get("priority", 0)),
            stop_on=payload.get("stop_on"),
            checkpoint_every=int(payload.get("checkpoint_every", 1)),
            backend=payload.get("backend"),
        )


@dataclass
class JobRecord:
    """One job as the service tracks (and returns) it."""

    job_id: str
    spec: JobSpec
    status: str = "queued"
    namespace: str = ""
    task_fingerprint: str = ""
    submitted_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    attempts: int = 0
    preemptions: int = 0
    worker: Optional[str] = None
    error: Optional[str] = None
    result: Optional[dict] = None
    fl_trainings: int = 0
    store_hits: int = 0
    metadata: Dict[str, Any] = field(default_factory=dict)

    @property
    def terminal(self) -> bool:
        return self.status in TERMINAL_STATUSES

    def to_dict(self, include_result: bool = True) -> dict:
        payload: Dict[str, Any] = {
            "job_id": self.job_id,
            "spec": self.spec.to_dict(),
            "status": self.status,
            "tenant": self.spec.tenant,
            "priority": int(self.spec.priority),
            "algorithm": self.spec.algorithm,
            "task": self.spec.task_spec().label(),
            "namespace": self.namespace,
            "task_fingerprint": self.task_fingerprint,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "attempts": int(self.attempts),
            "preemptions": int(self.preemptions),
            "worker": self.worker,
            "error": self.error,
            "fl_trainings": int(self.fl_trainings),
            "store_hits": int(self.store_hits),
        }
        if include_result and self.result is not None:
            payload["result"] = self.result
        return payload


__all__ = [
    "DEFAULT_TENANT",
    "JOB_STATUSES",
    "JobRecord",
    "JobSpec",
    "TERMINAL_STATUSES",
    "tenant_namespace",
]
