"""Names, units and bounds of everything the end-to-end benchmark reports.

``BENCHMARK.json`` at the repository root is the published form of this
catalog; ``test_e2e_harness.py`` keeps the two identical.  Nothing here
imports ``repro`` or NumPy, so the orchestrator and the tests can read it in
any environment.
"""

from __future__ import annotations

#: how long one measured run lasts (``--seconds`` default, ``run_seconds``)
RUN_SECONDS = 10

#: workload name -> why it exists (what it stresses, what it bypasses)
WORKLOADS = {
    "grid-cold": "Table IV grid (4 synthetic n=10 tasks x 5 algorithms, small MLP) "
    "into a fresh store: training-bound, where a kernel or trainer change shows",
    "grid-warm": "the same grid rerun against its filled store: zero trainings, "
    "so store, oracle, estimator and checkpoint/manifest writes dominate",
    "large-n": "IPSS at n=500 with ci:0.01 stopping: estimator bookkeeping and "
    "per-chunk checkpoints of 500-client state dominate, hashed store keys",
    "service-steady": "repro serve under an open loop of 10 short IPSS jobs/s from "
    "4 tenants, 1 in 5 a warm repeat: HTTP, task build, claims and the ledger matter",
}

#: end-to-end metrics: (name, unit, better, bound).  ``bound`` is the share of
#: the parent's median by which the metric may worsen before a change counts
#: as a regression, set from the run-to-run spreads measured across seeds
#: (see README.md).  Times of the measured work are in ``calib``: multiples
#: of a calibration slice timed next to them on the same machine, which
#: cancels much of the host's drifting speed.  The seconds they come from are
#: printed and kept in the trajectory.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("valuation_p50_calib", "calib", "lower", 0.25),
    ("valuation_tail_calib", "calib", "lower", 0.25),
    ("cpu_per_op_calib", "calib", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.1),
)

#: traced layers: name -> boundary the benchmark wraps (module-named)
LAYERS = {
    "experiments.task_build": "TaskSpec.build",
    "core.estimator": "ValuationAlgorithm.run (self = algorithm bookkeeping)",
    "core.checkpoint_encode": "EstimatorState.to_dict",
    "experiments.json_write": "repro.experiments.pipeline._write_json",
    "parallel.oracle": "BatchUtilityOracle.evaluate_batch",
    "store.get": "SqliteUtilityStore.get",
    "store.put": "SqliteUtilityStore.put",
    "fl.train": "VectorizedCoalitionTrainer.train_parameters / "
    "FederatedTrainer.train_coalition",
    "models.gradient": "<model>.batch_gradient",
    "fl.evaluate": "ParametricModel.batch_evaluate / <model>.evaluate",
    "service.recording_store": "RecordingStore.get / put",
    "service.run_job": "runner.run_job through the scheduler's import",
    "service.json_write": "repro.service.runner._write_json",
    "service.claim": "JobStore.claim",
    "service.ledger": "JobStore.record_training",
    "service.control": "JobStore.control_flags",
    "service.http_submit": "client POST /v1/jobs round trip",
    "service.http_poll": "client GET /v1/jobs round trip",
}

#: per-layer metrics beyond each layer's self share and call count:
#: (name, unit, better)
LAYER_EXTRAS = (
    ("fl.trainings", "count", "lower"),
    ("fl.train.coalitions", "count", "lower"),
    ("parallel.oracle.coalitions", "count", "lower"),
    ("store.get.hit_ratio", "ratio", "higher"),
    ("utils.cache.hit_ratio", "ratio", "higher"),
    ("experiments.json_write.mib", "MiB", "lower"),
    ("service.queue_wait.share", "ratio", "lower"),
    ("trace.unattributed_share", "ratio", "lower"),
    ("trace.overhead_est", "ratio", "lower"),
)


def per_layer_metrics() -> list:
    """Every per-layer metric as ``(name, unit, better)``, in report order."""
    rows = []
    for layer in LAYERS:
        rows.append((f"{layer}.self_share", "ratio", "lower"))
        rows.append((f"{layer}.calls", "count", "lower"))
    rows.extend(LAYER_EXTRAS)
    return rows


def units() -> dict:
    """``metric name -> unit`` over both metric families."""
    table = {name: unit for name, unit, _, _ in END_TO_END}
    table.update({name: unit for name, unit, _ in per_layer_metrics()})
    return table


def benchmark_json() -> dict:
    """The ``BENCHMARK.json`` document this catalog describes."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better in per_layer_metrics()
        ],
    }
