"""Experiment harness that regenerates every table and figure of the paper.

Each experiment (Table IV, Table V, Fig. 1b, Fig. 4, Fig. 6–10) has a
dedicated function returning a plain-data report (rows / series) plus a text
renderer, so the benchmark suite, the examples and EXPERIMENTS.md all use the
same code path.  Scales are configurable: the ``tiny`` scale finishes each
experiment in seconds for CI, the ``small`` scale is the default used to
produce the numbers recorded in EXPERIMENTS.md, and the ``paper`` scale
mirrors the paper's client counts and sampling budgets.

Tasks are described declaratively by :class:`TaskSpec` (registry-based,
serialisable, deterministically fingerprinted); a campaign over many tasks is
an :class:`ExperimentPlan` run through the resumable, manifest-tracked
:func:`run_plan` pipeline — the machinery behind the ``repro`` CLI.  All
entry points accept a persistent :mod:`repro.store` utility store so trained
coalitions are reused across processes and runs.
"""

from repro.experiments.config import (
    PAPER_SAMPLING_ROUNDS,
    ExperimentScale,
    sampling_rounds_for,
)
from repro.experiments.tasks import (
    build_adult_task,
    build_femnist_task,
    build_synthetic_task,
    task_fingerprint,
    SYNTHETIC_SETUPS,
)
from repro.experiments.specs import (
    TASK_REGISTRY,
    TaskSpec,
    available_tasks,
    register_task,
)
from repro.experiments.pipeline import (
    ALGORITHM_BUILDERS,
    DEFAULT_ALGORITHMS,
    ExperimentPlan,
    RunReport,
    available_algorithms,
    load_manifest,
    resume_run,
    run_plan,
)
from repro.experiments.reporting import format_table, format_series
from repro.experiments import figures, tables

__all__ = [
    "PAPER_SAMPLING_ROUNDS",
    "ExperimentScale",
    "sampling_rounds_for",
    "build_adult_task",
    "build_femnist_task",
    "build_synthetic_task",
    "task_fingerprint",
    "SYNTHETIC_SETUPS",
    "TASK_REGISTRY",
    "TaskSpec",
    "available_tasks",
    "register_task",
    "ALGORITHM_BUILDERS",
    "DEFAULT_ALGORITHMS",
    "ExperimentPlan",
    "RunReport",
    "available_algorithms",
    "load_manifest",
    "resume_run",
    "run_plan",
    "format_table",
    "format_series",
    "figures",
    "tables",
]
