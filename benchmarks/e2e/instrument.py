"""Patch span wrappers onto the public entry point of each layer.

Used only inside a benchmark process that asked for a trace (the workload
subprocess, or the traced ``repro serve`` launcher).  Every wrapper passes
its arguments and result through unchanged, so values, store keys and
training counts are the same as in an untraced run.  Layer names follow the
modules; ``catalog.LAYERS`` lists each boundary.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, Optional

from spans import Tracer


def _classes_defining(base: type, attribute: str) -> list:
    """``base`` and every imported subclass whose own body defines ``attribute``."""
    found, pending = [], [base]
    while pending:
        cls = pending.pop()
        if attribute in vars(cls):
            found.append(cls)
        pending.extend(cls.__subclasses__())
    return found


def _patch(
    tracer: Tracer,
    owner: object,
    attribute: str,
    layer: str,
    trace_of: Optional[Callable[..., str]] = None,
    counts: Optional[Dict[str, Callable[[tuple, object], float]]] = None,
) -> None:
    original = getattr(owner, attribute)
    setattr(owner, attribute, tracer.wrap(layer, original, trace_of, counts))


def _file_bytes(args: tuple, result: object) -> int:
    return os.path.getsize(args[0])


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary of ``catalog.LAYERS`` for this process."""
    import repro.experiments.pipeline as pipeline
    import repro.service.runner as runner
    import repro.service.scheduler as scheduler
    import repro.models  # noqa: F401 - imports every model class to patch
    from repro.core.anytime import EstimatorState
    from repro.core.base import ValuationAlgorithm
    from repro.experiments.specs import TaskSpec
    from repro.fl.federation import FederatedTrainer
    from repro.fl.vectorized import VectorizedCoalitionTrainer
    from repro.models.base import Model, ParametricModel
    from repro.parallel.batch_oracle import BatchUtilityOracle
    from repro.service.jobs import JobStore
    from repro.service.ledger import RecordingStore
    from repro.store.sqlite import SqliteUtilityStore

    _patch(tracer, TaskSpec, "build", "experiments.task_build")
    _patch(tracer, ValuationAlgorithm, "run", "core.estimator")
    _patch(tracer, EstimatorState, "to_dict", "core.checkpoint_encode")
    _patch(
        tracer,
        pipeline,
        "_write_json",
        "experiments.json_write",
        counts={"experiments.json_write.bytes": _file_bytes},
    )
    _patch(
        tracer,
        BatchUtilityOracle,
        "evaluate_batch",
        "parallel.oracle",
        counts={"parallel.oracle.coalitions": lambda args, result: len(result)},
    )
    # Patched on the concrete backend: the base class's get/put also serve
    # the service's RecordingStore, which is a layer of its own.
    _patch(
        tracer,
        SqliteUtilityStore,
        "get",
        "store.get",
        counts={"store.get.hits": lambda args, result: result is not None},
    )
    _patch(tracer, SqliteUtilityStore, "put", "store.put")
    _patch(tracer, RecordingStore, "get", "service.recording_store")
    _patch(tracer, RecordingStore, "put", "service.recording_store")
    _patch(
        tracer,
        VectorizedCoalitionTrainer,
        "train_parameters",
        "fl.train",
        counts={"fl.train.coalitions": lambda args, result: len(result)},
    )
    _patch(
        tracer,
        FederatedTrainer,
        "train_coalition",
        "fl.train",
        counts={"fl.train.coalitions": lambda args, result: 1},
    )
    for cls in _classes_defining(ParametricModel, "batch_gradient"):
        _patch(tracer, cls, "batch_gradient", "models.gradient")
    _patch(tracer, ParametricModel, "batch_evaluate", "fl.evaluate")
    for cls in _classes_defining(Model, "evaluate"):
        _patch(tracer, cls, "evaluate", "fl.evaluate")
    # The scheduler calls run_job through its own module global.
    _patch(
        tracer,
        scheduler,
        "run_job",
        "service.run_job",
        trace_of=lambda record, *args, **kwargs: record.job_id,
    )
    _patch(tracer, runner, "_write_json", "service.json_write")
    _patch(tracer, JobStore, "claim", "service.claim")
    _patch(tracer, JobStore, "record_training", "service.ledger")
    _patch(tracer, JobStore, "control_flags", "service.control")
