"""Config-driven, resumable experiment pipeline.

A benchmark campaign is a grid of *cells* — one (task, algorithm) pair each —
described declaratively by an :class:`ExperimentPlan` (a list of
:class:`~repro.experiments.specs.TaskSpec` plus algorithm names).  The
pipeline executes cells one at a time and records each completed cell in a
JSON *manifest* under the run directory, with the raw
:class:`~repro.core.result.ValuationResult` persisted next to it.  That makes
long campaigns:

* **interruptible** — kill the process at any point; only the in-flight cell
  is lost, every finished cell is already on disk;
* **resumable** — :func:`resume_run` (or ``repro resume``) re-reads the
  manifest and computes only the missing cells; and
* **retraining-free** — with a persistent :class:`~repro.store.UtilityStore`
  attached, even the re-computed cells serve their coalition utilities from
  disk, so a full rerun of a finished campaign performs **zero** FL trainings
  and produces bitwise-identical values.

Cost-accounting caveat: the in-memory cache is cleared before every cell, but
the persistent store deliberately survives, so with a store attached each
cell's ``evaluations`` counts only its *incremental* trainings — coalitions
already trained by an earlier cell (or an earlier run) are served from disk
and cost nothing.  Values and error columns are unaffected.  For the paper's
every-algorithm-pays-its-own-cost accounting (Tables IV/V timings), run
without a store; see ``docs/store.md``.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.core.anytime import restore_rng
from repro.core import (
    CCShapleySampling,
    DIGFL,
    EstimatorState,
    ExtendedGTB,
    ExtendedTMC,
    GTGShapley,
    IPSS,
    LambdaMR,
    MCShapley,
    ORBaseline,
    PermShapley,
    StoppingRule,
    ValuationAlgorithm,
    rank_correlation,
    relative_error_l2,
)
from repro.experiments.config import sampling_rounds_for
from repro.experiments.specs import TaskSpec
from repro.parallel.executors import EXECUTOR_BACKENDS
from repro.store import StoreLike, fingerprint, resolve_store
from repro.telemetry import Telemetry
from repro.utils.jsonio import write_json_atomic

MANIFEST_VERSION = 1
MANIFEST_NAME = "manifest.json"
RESULTS_DIR = "results"
CHECKPOINTS_DIR = "checkpoints"

#: algorithm registry: name -> factory(n_clients, gamma, seed).  Names match
#: the ``ValuationAlgorithm.name`` identifiers used throughout the reports.
ALGORITHM_BUILDERS: Dict[str, Callable] = {
    "Perm-Shapley": lambda n, gamma, seed: PermShapley(seed=seed),
    "MC-Shapley": lambda n, gamma, seed: MCShapley(seed=seed),
    "Extended-TMC": lambda n, gamma, seed: ExtendedTMC(total_rounds=gamma, seed=seed),
    "Extended-GTB": lambda n, gamma, seed: ExtendedGTB(total_rounds=gamma, seed=seed),
    "CC-Shapley": lambda n, gamma, seed: CCShapleySampling(
        total_rounds=gamma, seed=seed
    ),
    "IPSS": lambda n, gamma, seed: IPSS(total_rounds=gamma, seed=seed),
    "DIG-FL": lambda n, gamma, seed: DIGFL(seed=seed),
    "GTG-Shapley": lambda n, gamma, seed: GTGShapley(seed=seed),
    "OR": lambda n, gamma, seed: ORBaseline(seed=seed),
    "lambda-MR": lambda n, gamma, seed: LambdaMR(seed=seed),
}

#: default cell line-up: the exact reference plus all sampling-based methods.
#: Gradient-based baselines retrain the grand coalition outside the utility
#: store on every run, so they are opt-in for store-backed campaigns.
DEFAULT_ALGORITHMS = (
    "MC-Shapley",
    "Extended-TMC",
    "Extended-GTB",
    "CC-Shapley",
    "IPSS",
)

#: the exact schemes: a task's rows are scored against MC-Shapley's values,
#: and these rows carry no error of their own
EXACT_ALGORITHMS = ("MC-Shapley", "Perm-Shapley")

#: the paper's comparison line-up (Tables IV/V, Figs. 1b/6), in report order
PAPER_ALGORITHMS = (
    "Perm-Shapley",
    "MC-Shapley",
    "DIG-FL",
    "Extended-TMC",
    "Extended-GTB",
    "CC-Shapley",
    "GTG-Shapley",
    "OR",
    "lambda-MR",
    "IPSS",
)

#: baselines that replay a parametric FL training history; tree models (xgb)
#: have none, hence the "\" cells of the paper's Table V
GRADIENT_ALGORITHMS = ("DIG-FL", "GTG-Shapley", "OR", "lambda-MR")


def available_algorithms() -> list[str]:
    """Registered algorithm names, in registry order."""
    return list(ALGORITHM_BUILDERS)


def paper_algorithms(models: Sequence[str], include_perm: bool = False) -> tuple:
    """:data:`PAPER_ALGORITHMS` for a plan over the FL ``models``.

    Perm-Shapley is factorially expensive, so it runs only on request.  A
    plan whose models are all xgb drops the gradient-based baselines; in a
    plan that mixes xgb with a parametric model they stay, and the pipeline
    records their xgb cells as skipped.
    """
    dropped = set() if include_perm else {"Perm-Shapley"}
    if all(model == "xgb" for model in models):
        dropped.update(GRADIENT_ALGORITHMS)
    return tuple(name for name in PAPER_ALGORITHMS if name not in dropped)


def build_task_algorithm(spec: TaskSpec, algorithm_name: str, n_clients: int):
    """Construct the estimator one (task, algorithm) cell runs.

    The single adaptation point between a declarative cell identity and a
    live estimator: the paper's γ budget is derived from the client count and
    the spec's seed feeds the estimator RNG.  Both the pipeline and the
    valuation service (:mod:`repro.service`) build their estimators here, so
    a service job and a ``repro run`` cell with the same spec are the same
    computation — bitwise, at fixed seed.
    """
    if algorithm_name not in ALGORITHM_BUILDERS:
        raise ValueError(
            f"unknown algorithm {algorithm_name!r}; "
            f"choose from {available_algorithms()}"
        )
    gamma = sampling_rounds_for(n_clients)
    return ALGORITHM_BUILDERS[algorithm_name](n_clients, gamma, spec.seed)


def load_estimator_checkpoint(
    path: str,
    algorithm,
    n_clients: int,
    say: Callable[[str], None],
) -> Optional[EstimatorState]:
    """Restore a mid-valuation checkpoint file, if it matches the estimator.

    A checkpoint that fails to parse, carries no restorable RNG snapshot, or
    belongs to a different algorithm configuration (e.g. the budget changed
    between invocations) is ignored — the valuation simply restarts from
    scratch rather than failing.  Shared by the pipeline's per-cell
    checkpoints and the service's per-job checkpoints.
    """
    if not os.path.exists(path):
        return None
    try:
        with open(path, "r", encoding="utf-8") as handle:
            state = EstimatorState.from_dict(json.load(handle))
        if not state.done:
            # Vet the RNG snapshot now: a missing or unrestorable rng_state
            # raising later, inside iter_run, would be mistaken for an
            # inapplicable algorithm and record the cell as skipped for good.
            if state.rng_state is None:
                raise ValueError("checkpoint carries no RNG state")
            restore_rng(state.rng_state)
    except (ValueError, KeyError, TypeError, json.JSONDecodeError) as error:
        say(f"ignoring unreadable checkpoint {path}: {error}")
        return None
    if not isinstance(algorithm, ValuationAlgorithm):
        return None
    if not algorithm.state_matches(state, n_clients):
        say(f"ignoring stale checkpoint {path}: algorithm configuration changed")
        return None
    return state


#: executor backends that were removed: old plans, job specs and scripts
#: still name them, so they fail with the replacement spelled out
RETIRED_BACKENDS = ("thread", "process", "fleet")

#: execution fields only the retired fleet backend read
RETIRED_FLEET_FIELDS = (
    "queue_dir",
    "spawn_workers",
    "worker_backend",
    "lease_seconds",
)

#: what replaces a retired backend
RETIRED_HINT = (
    "use 'vectorized' to train batches in lockstep in one process; to spread "
    "a campaign over processes, run several `repro run` processes over "
    "disjoint plans sharing one --store"
)


def check_backend(name: str) -> None:
    """Reject a backend name outside ``EXECUTOR_BACKENDS``, naming the field.

    A retired name gets its replacements spelled out.
    """
    if name in RETIRED_BACKENDS:
        raise ValueError(f"backend: the {name!r} backend was removed; {RETIRED_HINT}")
    if name not in EXECUTOR_BACKENDS:
        raise ValueError(
            f"backend: unknown backend {name!r}; choose from {EXECUTOR_BACKENDS}"
        )


def check_fields(kind: str, payload: dict, known: set) -> None:
    """Reject fields of a plan or job-spec payload outside ``known``.

    A typo in a plan file ("algorithm" for "algorithms") must fail loudly,
    not silently run hours of the default campaign; a field of a retired
    backend gets its replacement spelled out.
    """
    unknown = set(payload) - known
    if not unknown:
        return
    message = f"unknown {kind} fields: {sorted(unknown)}"
    retired = sorted(unknown.intersection(RETIRED_FLEET_FIELDS))
    if retired:
        message += (
            f"; {', '.join(retired)} configured the removed 'fleet' backend: "
            f"{RETIRED_HINT}"
        )
    raise ValueError(message)


def drop_legacy_n_workers(payload: dict) -> dict:
    """``payload`` without the retired ``n_workers`` field.

    Run manifests written while the pooled backends existed always carry
    ``"n_workers": 1``, so that value still loads and those run dirs resume.
    Any other value asked for a pool that no longer exists and is rejected.
    """
    if "n_workers" not in payload:
        return payload
    payload = dict(payload)
    value = payload.pop("n_workers")
    if value != 1:
        raise ValueError(
            f"n_workers: {value!r} is not supported; the field was removed "
            f"with the pooled backends and only its legacy value 1 still "
            f"loads; {RETIRED_HINT}"
        )
    return payload


def stored_execution(payload: dict) -> dict:
    """A stored plan or job spec with its execution fields mapped onto what
    the version that wrote it actually ran.

    The strict checks are for submitted input.  A run manifest or a job row
    written while the retired backends existed must still load, so:

    * ``n_workers`` (any value) sized a pool that no longer exists: dropped;
    * ``backend: 'fleet'`` becomes its stored ``worker_backend`` (default
      ``'serial'``), the executor its workers evaluated with, and the fleet
      fields are dropped;
    * any other retired backend becomes ``'serial'``.

    Every backend evaluates the same coalitions to the same values, so the
    mapped record resumes bitwise.
    """
    payload = dict(payload)
    payload.pop("n_workers", None)
    if payload.get("backend") == "fleet":
        payload["backend"] = payload.get("worker_backend") or "serial"
    for name in RETIRED_FLEET_FIELDS:
        payload.pop(name, None)
    if payload.get("backend") in RETIRED_BACKENDS:
        payload["backend"] = "serial"
    return payload


def validate_execution(execution) -> None:
    """Reject a bad ``backend`` of a plan or job spec, naming the field.

    ``execution`` is an :class:`ExperimentPlan` or a
    :class:`~repro.service.models.JobSpec`: both carry the same
    machine-local executor choice, checked here once for both.
    """
    if execution.backend is not None:
        check_backend(execution.backend)


def build_cell_utility(
    spec: TaskSpec,
    store,
    execution,
    telemetry: Optional[Telemetry] = None,
):
    """Build the utility oracle cells of ``spec`` run against.

    ``execution`` (an :class:`ExperimentPlan` or a service ``JobSpec``)
    supplies the executor choice; see :func:`validate_execution`.  Shared by
    the pipeline and the service, so a job and a ``repro run`` cell build
    the same oracle.
    """
    utility = spec.build(store)
    try:
        if execution.backend is not None:
            utility.set_executor(execution.backend)
        if telemetry is not None:
            utility.set_telemetry(telemetry)
    except BaseException:
        utility.close()
        raise
    return utility


def _slug(name: str) -> str:
    return "".join(c if c.isalnum() else "-" for c in name.lower()).strip("-")


def cell_id(task_fingerprint: str, algorithm: str) -> str:
    """Manifest id of one (task, algorithm) cell.

    The single definition — plan enumeration and the executor must agree, or
    a resume would silently recompute every already-finished cell.
    """
    return f"{task_fingerprint[:12]}-{_slug(algorithm)}"


@dataclass(frozen=True)
class ExperimentPlan:
    """Declarative description of one benchmark campaign.

    ``algorithms`` are registry names (:func:`available_algorithms`); every
    algorithm runs on every task, and each (task, algorithm) pair is one
    resumable cell.  ``backend`` picks the coalition-evaluation executor
    (:data:`~repro.parallel.executors.EXECUTOR_BACKENDS`; ``None`` keeps the
    oracle's serial default) and is recorded in the manifest.  It is a
    machine-local execution choice that never enters the plan fingerprint.
    """

    tasks: tuple
    algorithms: tuple = DEFAULT_ALGORITHMS
    name: str = "run"
    backend: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.tasks:
            raise ValueError("an ExperimentPlan needs at least one task")
        object.__setattr__(self, "tasks", tuple(self.tasks))
        object.__setattr__(self, "algorithms", tuple(self.algorithms))
        unknown = [a for a in self.algorithms if a not in ALGORITHM_BUILDERS]
        if unknown:
            raise ValueError(
                f"unknown algorithms {unknown}; choose from {available_algorithms()}"
            )
        validate_execution(self)

    def fingerprint(self) -> str:
        """Content address of the plan (tasks + algorithms, not concurrency).

        ``backend`` and ``name`` are deliberately excluded: resuming a campaign on
        a beefier machine, under a different label or on a different
        executor must not invalidate its completed cells — the backends are
        value-equivalent (see ``docs/performance.md``).
        """
        return fingerprint(
            {
                "version": MANIFEST_VERSION,
                "tasks": [spec.to_dict() for spec in self.tasks],
                "algorithms": list(self.algorithms),
            }
        )

    def cells(self) -> List[tuple]:
        """All (task_spec, algorithm_name, cell_id) triples, in run order."""
        triples = []
        for spec in self.tasks:
            task_fp = spec.fingerprint()
            for algorithm in self.algorithms:
                triples.append((spec, algorithm, cell_id(task_fp, algorithm)))
        return triples

    def to_dict(self) -> dict:
        payload = {
            "name": self.name,
            "tasks": [spec.to_dict() for spec in self.tasks],
            "algorithms": list(self.algorithms),
        }
        if self.backend is not None:
            payload["backend"] = self.backend
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "ExperimentPlan":
        check_fields(
            "ExperimentPlan",
            payload,
            {
                "name",
                "tasks",
                "algorithms",
                "n_workers",  # legacy, see drop_legacy_n_workers
                "backend",
            },
        )
        payload = drop_legacy_n_workers(payload)
        if "tasks" not in payload:
            raise ValueError("an ExperimentPlan requires a 'tasks' list")
        return cls(
            tasks=tuple(TaskSpec.from_dict(t) for t in payload["tasks"]),
            algorithms=tuple(payload.get("algorithms", DEFAULT_ALGORITHMS)),
            name=payload.get("name", "run"),
            backend=payload.get("backend"),
        )


@dataclass
class RunReport:
    """Outcome of one :func:`run_plan` invocation."""

    run_dir: str
    plan: ExperimentPlan
    rows: List[dict] = field(default_factory=list)
    cells_run: int = 0
    cells_resumed: int = 0
    cells_skipped: int = 0
    cells_continued: int = 0
    fl_trainings: int = 0
    store_hits: int = 0
    cache_hits: int = 0
    batch_counts: Dict[str, int] = field(default_factory=dict)

    def accounting(self) -> dict:
        """Consolidated cost accounting for this invocation.

        One place instead of callers re-deriving it from the oracle:
        evaluations actually paid, lookups served by each cache tier, the
        combined hit-rate, and batches dispatched per executor backend.
        All counts are deterministic (independent of telemetry being on).
        """
        lookups = self.fl_trainings + self.cache_hits + self.store_hits
        served = self.cache_hits + self.store_hits
        return {
            "evaluations": self.fl_trainings,
            "store_hits": self.store_hits,
            "cache_hits": self.cache_hits,
            "cache_hit_rate": (served / lookups) if lookups else 0.0,
            "batch_counts": dict(sorted(self.batch_counts.items())),
        }

    def to_dict(self) -> dict:
        return {
            "run_dir": self.run_dir,
            "plan_fingerprint": self.plan.fingerprint(),
            "cells_run": self.cells_run,
            "cells_resumed": self.cells_resumed,
            "cells_skipped": self.cells_skipped,
            "cells_continued": self.cells_continued,
            "fl_trainings": self.fl_trainings,
            "store_hits": self.store_hits,
            "accounting": self.accounting(),
            "rows": self.rows,
        }


#: Atomic compact-JSON write; callers look it up through this module global.
_write_json = write_json_atomic


def load_manifest(run_dir: str) -> Optional[dict]:
    """Read the run manifest, or ``None`` for a fresh directory."""
    path = os.path.join(run_dir, MANIFEST_NAME)
    if not os.path.exists(path):
        return None
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _fresh_manifest(plan: ExperimentPlan) -> dict:
    return {
        "version": MANIFEST_VERSION,
        "name": plan.name,
        "plan": plan.to_dict(),
        "plan_fingerprint": plan.fingerprint(),
        # Manifest timestamps are run telemetry; the plan fingerprint and
        # every store key are computed without them.
        "created_at": time.time(),  # repro: allow[RPR002] reason=telemetry (see above)
        "updated_at": time.time(),  # repro: allow[RPR002] reason=telemetry (see above)
        "cells": {},
    }


def run_plan(
    plan: ExperimentPlan,
    run_dir: str,
    store: StoreLike = None,
    resume: bool = False,
    log: Optional[Callable[[str], None]] = None,
    stop_rule: Optional[StoppingRule] = None,
    checkpoint_every: int = 1,
    on_snapshot: Optional[Callable[[TaskSpec, str, object], None]] = None,
    telemetry: Optional[Telemetry] = None,
) -> RunReport:
    """Execute (or finish) a campaign, one manifest-tracked cell at a time.

    With ``resume=False`` the run directory must be fresh — an existing
    manifest is refused rather than silently overwritten.  With
    ``resume=True`` an existing manifest is honoured: cells recorded as done
    (or deliberately skipped) are loaded from disk and *not* recomputed, and
    the manifest's plan must fingerprint-match ``plan`` so a resumed campaign
    cannot silently compute different cells than it started.

    Cells execute through the anytime protocol
    (:meth:`~repro.core.ValuationAlgorithm.iter_run`): every
    ``checkpoint_every`` chunks (0 disables) the estimator state is persisted
    under ``checkpoints/``, so an interrupted campaign resumes *inside* the
    interrupted cell — only the in-flight chunk's trainings are repeated,
    and with the store attached the replay of the chunks since the last
    checkpoint trains nothing (chunks that trained nothing are not
    checkpointed against a durable store; see :func:`execute_cell`).
    ``stop_rule`` (reset per cell) ends a cell early once converged; the
    cell is then recorded done with ``metadata.stopped_early``.
    ``on_snapshot(spec, algorithm, snapshot)`` observes every chunk of every
    cell.

    The report's ``fl_trainings`` counts only trainings paid by *this*
    invocation — the number the acceptance bar requires to be zero when a
    finished campaign is rerun against its persistent store.

    ``telemetry`` (a :class:`~repro.telemetry.Telemetry` handle, usually
    journal-backed via ``Telemetry.for_run_dir(run_dir)``) wraps the run and
    every cell in spans, records snapshot cadence and cache/store metrics,
    and stamps each completed cell's manifest entry with a ``telemetry``
    block of metric deltas.  It is strictly observational: values, seeds,
    store keys and the manifest's completion semantics are bitwise-identical
    with ``telemetry=None`` (the CI telemetry smoke gate enforces this).
    """
    say = log if log is not None else (lambda message: None)
    if checkpoint_every < 0:
        raise ValueError(f"checkpoint_every must be >= 0, got {checkpoint_every}")
    os.makedirs(os.path.join(run_dir, RESULTS_DIR), exist_ok=True)
    manifest = load_manifest(run_dir)
    if manifest is None:
        manifest = _fresh_manifest(plan)
        _write_json(os.path.join(run_dir, MANIFEST_NAME), manifest)
    elif not resume:
        raise ValueError(
            f"run directory {run_dir!r} already contains a manifest; "
            "resume it (repro resume / resume=True) or use a fresh directory"
        )
    elif manifest.get("plan_fingerprint") != plan.fingerprint():
        raise ValueError(
            "manifest plan does not match the requested plan "
            f"({manifest.get('plan_fingerprint')} != {plan.fingerprint()}); "
            "a resumed run must continue the campaign it started"
        )

    report = RunReport(run_dir=run_dir, plan=plan)
    opened_store, owns_store = resolve_store(store)
    if telemetry is not None and opened_store is not None:
        opened_store.set_telemetry(telemetry)
    run_span = (
        telemetry.span("pipeline.run", plan=plan.name, cells=len(plan.cells()))
        if telemetry is not None
        else nullcontext()
    )
    try:
        with run_span:
            for spec in plan.tasks:
                _run_task_cells(
                    plan,
                    spec,
                    manifest,
                    run_dir,
                    opened_store,
                    report,
                    say,
                    stop_rule=stop_rule,
                    checkpoint_every=checkpoint_every,
                    on_snapshot=on_snapshot,
                    telemetry=telemetry,
                )
    finally:
        manifest["updated_at"] = time.time()  # repro: allow[RPR002] reason=manifest telemetry
        _write_json(os.path.join(run_dir, MANIFEST_NAME), manifest)
        _write_json(os.path.join(run_dir, "summary.json"), report.to_dict())
        if telemetry is not None:
            telemetry.flush()
            if opened_store is not None:
                opened_store.set_telemetry(None)
        if owns_store and opened_store is not None:
            opened_store.close()
    return report


def resume_run(
    run_dir: str,
    store: StoreLike = None,
    log: Optional[Callable[[str], None]] = None,
    stop_rule: Optional[StoppingRule] = None,
    checkpoint_every: int = 1,
    on_snapshot: Optional[Callable[[TaskSpec, str, object], None]] = None,
    telemetry: Optional[Telemetry] = None,
) -> RunReport:
    """Finish an interrupted campaign from its manifest alone.

    Cells interrupted mid-valuation continue from their estimator checkpoint
    (see :func:`run_plan`): the resumed run repeats at most the in-flight
    chunk's trainings — it may replay more chunks than that, from the store
    — and produces values bitwise-identical to an uninterrupted run.
    """
    manifest = load_manifest(run_dir)
    if manifest is None:
        raise ValueError(f"no manifest found in {run_dir!r}; nothing to resume")
    plan = ExperimentPlan.from_dict(stored_execution(manifest["plan"]))
    return run_plan(
        plan,
        run_dir,
        store=store,
        resume=True,
        log=log,
        stop_rule=stop_rule,
        checkpoint_every=checkpoint_every,
        on_snapshot=on_snapshot,
        telemetry=telemetry,
    )


def plan_rows(plan: ExperimentPlan, store: StoreLike = None) -> List[tuple]:
    """Run ``plan`` in a throwaway run directory; its done rows, in plan order.

    Returns ``(spec, row)`` pairs, ``row`` as in :attr:`RunReport.rows`.
    Skipped cells (an algorithm inapplicable to the task's model) are left
    out.  Nothing resumes a throwaway directory, so no cell is checkpointed.
    The paper's table and figure functions run here; for a durable,
    resumable campaign call :func:`run_plan` with a run directory of your own.
    """
    with tempfile.TemporaryDirectory(prefix=f"repro-{_slug(plan.name)}-") as run_dir:
        report = run_plan(plan, run_dir, store=store, checkpoint_every=0)
    per_task = len(plan.algorithms)  # one row per cell, task by task
    return [
        (plan.tasks[index // per_task], row)
        for index, row in enumerate(report.rows)
        if row["status"] == "done"
    ]


# --------------------------------------------------------------------------- #
# Cell execution
# --------------------------------------------------------------------------- #
def checkpoint_path(root: str, cell: str) -> str:
    """Mid-valuation checkpoint file of one cell (or service job) under ``root``."""
    return os.path.join(root, CHECKPOINTS_DIR, f"{cell}.state.json")


def drop_checkpoint(root: str, cell: str) -> None:
    path = checkpoint_path(root, cell)
    if os.path.exists(path):
        os.remove(path)


def execute_cell(
    algorithm,
    utility,
    checkpoint: str,
    label: str,
    say: Callable[[str], None],
    stop_rule: Optional[StoppingRule] = None,
    checkpoint_every: int = 1,
    on_snapshot: Optional[Callable[[object], None]] = None,
) -> tuple:
    """Run one cell through the anytime protocol, checkpointing as it goes.

    Returns ``(result, continued)`` — ``continued`` when the run resumed
    from the ``checkpoint`` file.  The stop-rule loop itself lives in
    :meth:`ValuationAlgorithm.run`, the single driver of the snapshot
    stream; this function contributes the per-chunk observer: every
    ``checkpoint_every`` chunks (0 disables) the state is written to
    ``checkpoint`` *before* ``on_snapshot(snapshot)`` runs, so whatever the
    callback raises still finds the chunk on disk.  Gradient algorithms
    stream through their single-chunk ``iter_run`` adapter and are never
    checkpointed.  The pipeline and the service both run cells here.

    A checkpoint only saves trainings on resume, so a cadence chunk is not
    written when ``utility.evaluations`` has not grown since this cell's
    last checkpoint (or its start) and the attached store is
    :attr:`~repro.store.UtilityStore.durable`: every utility since then is
    on disk, and a resume replays those chunks from the last checkpoint's
    RNG state, bitwise, without training.  So a resume repeats at most the
    in-flight chunk's *trainings*, though it may replay more chunks.  A
    non-finite utility is counted in ``evaluations`` though never stored,
    so it still forces its checkpoint.  Without a store, or with one that
    dies with the process, every cadence chunk is written.
    """
    store = getattr(utility, "store", None)
    skip_untrained = store is not None and store.durable
    trained_at_checkpoint = utility.evaluations if skip_untrained else None

    def observe(snapshot) -> None:
        nonlocal trained_at_checkpoint
        if (
            snapshot.state is not None
            and not snapshot.done
            and checkpoint_every
            and snapshot.chunk_index % checkpoint_every == 0
        ):
            trained = utility.evaluations if skip_untrained else None
            if trained is None or trained != trained_at_checkpoint:
                _write_json(checkpoint, snapshot.state.to_dict())
                trained_at_checkpoint = trained
        if on_snapshot is not None:
            on_snapshot(snapshot)

    if not isinstance(algorithm, ValuationAlgorithm):
        last = None
        for last in algorithm.iter_run(utility, utility.n_clients):
            observe(last)
        return last.result(), False

    state = load_estimator_checkpoint(checkpoint, algorithm, utility.n_clients, say)
    if state is not None:
        say(
            f"continuing {label} from checkpoint "
            f"(chunk {state.chunk_index}, {state.evaluations} evaluations spent)"
        )
    result = algorithm.run(
        utility,
        utility.n_clients,
        stopping_rule=stop_rule,
        state=state,
        on_snapshot=observe,
    )
    stopped_by = result.metadata.get("stopped_by")
    if stopped_by:
        say(f"early stop for {label}: {stopped_by}")
    return result, state is not None


def _snapshot_interval_observer(telemetry: Telemetry, on_snapshot):
    """Wrap ``on_snapshot`` to record the cadence of one cell's snapshots.

    Feeds the ``snapshot.interval_seconds`` histogram — the p50/p99 snapshot
    latency the ROADMAP service PR needs to quote.  One wrapper per cell, so
    the gap between cells never pollutes the distribution.
    """
    last: List[float] = []

    def observe(spec, algorithm_name, snapshot) -> None:
        now = time.perf_counter()
        if last:
            telemetry.observe("snapshot.interval_seconds", now - last[0])
            last[0] = now
        else:
            last.append(now)
        if on_snapshot is not None:
            on_snapshot(spec, algorithm_name, snapshot)

    return observe


def _run_task_cells(
    plan: ExperimentPlan,
    spec: TaskSpec,
    manifest: dict,
    run_dir: str,
    store,
    report: RunReport,
    say: Callable[[str], None],
    stop_rule: Optional[StoppingRule] = None,
    checkpoint_every: int = 1,
    on_snapshot=None,
    telemetry: Optional[Telemetry] = None,
) -> None:
    task_fp = spec.fingerprint()
    cell_ids = {
        algorithm: cell_id(task_fp, algorithm) for algorithm in plan.algorithms
    }
    pending = [
        algorithm
        for algorithm, cid in cell_ids.items()
        if manifest["cells"].get(cid, {}).get("status") not in ("done", "skipped")
    ]

    utility = None
    results: Dict[str, dict] = {}
    try:
        if pending:
            utility = build_cell_utility(spec, store, plan, telemetry)
        for algorithm_name in plan.algorithms:
            this_cell = cell_ids[algorithm_name]
            recorded = manifest["cells"].get(this_cell)
            if recorded is not None and recorded.get("status") in ("done", "skipped"):
                if recorded["status"] == "done":
                    results[algorithm_name] = _load_cell(run_dir, recorded)
                    report.cells_resumed += 1
                else:
                    report.cells_skipped += 1
                    report.rows.append(_skip_row(spec, algorithm_name, recorded))
                continue

            algorithm = build_task_algorithm(spec, algorithm_name, utility.n_clients)
            # Fresh memory tier per cell, so one cell's hits never count for
            # another; the persistent store deliberately serves across cells,
            # making `evaluations` the cell's *incremental* training cost.
            utility.reset_cache()
            store_hits_before = utility.store_hits
            cache_hits_before = utility.cache_hits
            trainings_before = utility.evaluations
            say(f"running {spec.label()} × {algorithm_name}")
            cell_observer = on_snapshot
            telemetry_before: Optional[dict] = None
            if telemetry is not None:
                telemetry_before = telemetry.snapshot()
                cell_observer = _snapshot_interval_observer(telemetry, on_snapshot)
            if cell_observer is not None:
                cell_observer = partial(cell_observer, spec, algorithm_name)
            cell_span = (
                telemetry.span(
                    "pipeline.cell",
                    cell=this_cell,
                    task=spec.label(),
                    algorithm=algorithm_name,
                )
                if telemetry is not None
                else nullcontext()
            )
            try:
                with cell_span:
                    result, continued = execute_cell(
                        algorithm,
                        utility,
                        checkpoint_path(run_dir, this_cell),
                        f"{spec.label()} × {algorithm_name}",
                        say,
                        stop_rule,
                        checkpoint_every,
                        cell_observer,
                    )
                report.cells_continued += int(continued)
            except (TypeError, ValueError) as error:
                cell = {
                    "status": "skipped",
                    "algorithm": algorithm_name,
                    "task": spec.label(),
                    "task_fingerprint": task_fp,
                    "reason": str(error),
                    "error_type": type(error).__name__,
                }
                manifest["cells"][this_cell] = cell
                _write_json(os.path.join(run_dir, MANIFEST_NAME), manifest)
                drop_checkpoint(run_dir, this_cell)
                report.cells_skipped += 1
                report.rows.append(_skip_row(spec, algorithm_name, cell))
                continue
            payload = {
                "algorithm": algorithm_name,
                "task": spec.label(),
                "task_fingerprint": task_fp,
                "result": result.to_dict(),
                "store_hits": utility.store_hits - store_hits_before,
                "completed_at": time.time(),  # repro: allow[RPR002] reason=cell telemetry
            }
            result_file = os.path.join(RESULTS_DIR, f"{this_cell}.json")
            _write_json(os.path.join(run_dir, result_file), payload)
            cell_record = {
                "status": "done",
                "algorithm": algorithm_name,
                "task": spec.label(),
                "task_fingerprint": task_fp,
                "result_file": result_file,
            }
            if telemetry is not None and telemetry_before is not None:
                # Metric deltas attributable to this cell (counters/histogram
                # counts since the cell started).  Purely descriptive — a
                # resume never reads this block back.
                cell_record["telemetry"] = telemetry.delta_since(telemetry_before)
            manifest["cells"][this_cell] = cell_record
            manifest["updated_at"] = time.time()  # repro: allow[RPR002] reason=manifest telemetry
            _write_json(os.path.join(run_dir, MANIFEST_NAME), manifest)
            if telemetry is not None:
                telemetry.flush()
            # The cell is durably recorded; its mid-run checkpoint is obsolete.
            drop_checkpoint(run_dir, this_cell)
            report.cells_run += 1
            # `fl_trainings` must count only what THIS invocation paid.  For
            # a cell resumed from a mid-run checkpoint the result's
            # `utility_evaluations` is cumulative across invocations, so read
            # the oracle's own training counter instead.  Gradient-based
            # cells train their grand coalition outside the oracle; keep the
            # result's accounting (one FL training) for them.
            if isinstance(algorithm, ValuationAlgorithm):
                report.fl_trainings += int(utility.evaluations - trainings_before)
            else:
                report.fl_trainings += int(result.utility_evaluations)
            report.store_hits += int(payload["store_hits"])
            report.cache_hits += int(utility.cache_hits - cache_hits_before)
            results[algorithm_name] = payload
    finally:
        if utility is not None:
            for backend_name, count in getattr(utility, "batch_counts", {}).items():
                report.batch_counts[backend_name] = (
                    report.batch_counts.get(backend_name, 0) + int(count)
                )
            fallback = getattr(utility.executor, "last_fallback_reason", None)
            if fallback:
                # A requested vectorized backend that cannot engage runs the
                # serial loop instead — correct values, none of the speed.
                # Surface it so nobody benchmarks the wrong path unknowingly.
                say(
                    f"note: vectorized backend fell back to serial for "
                    f"{spec.label()}: {fallback}"
                )
            utility.close()

    report.rows.extend(_score_task_rows(spec, plan, results))


def _load_cell(run_dir: str, recorded: dict) -> dict:
    with open(os.path.join(run_dir, recorded["result_file"]), "r", encoding="utf-8") as handle:
        return json.load(handle)


def _skip_row(spec: TaskSpec, algorithm: str, cell: dict) -> dict:
    return {
        "task": spec.label(),
        "n": spec.n_clients,
        "algorithm": algorithm,
        "status": "skipped",
        "reason": cell.get("reason", ""),
    }


def _score_task_rows(
    spec: TaskSpec, plan: ExperimentPlan, results: Dict[str, dict]
) -> List[dict]:
    """Turn a task's cell payloads into report rows, scored against MC-SV.

    Errors are recomputed from the persisted value vectors, so resumed and
    fresh cells score identically — the error column never depends on which
    invocation happened to execute a cell.
    """
    exact_values = None
    if "MC-Shapley" in results:
        exact_values = np.asarray(results["MC-Shapley"]["result"]["values"], dtype=float)
    rows = []
    for algorithm_name in plan.algorithms:
        payload = results.get(algorithm_name)
        if payload is None:
            continue
        result = payload["result"]
        values = np.asarray(result["values"], dtype=float)
        is_exact = algorithm_name in EXACT_ALGORITHMS
        error = None
        correlation = None
        if exact_values is not None and not is_exact:
            error = relative_error_l2(values, exact_values)
            correlation = rank_correlation(values, exact_values)
        rows.append(
            {
                "task": payload["task"],
                "n": int(result["n_clients"]),
                "algorithm": algorithm_name,
                "status": "done",
                "time_s": float(result["elapsed_seconds"]),
                "evaluations": int(result["utility_evaluations"]),
                "store_hits": int(payload.get("store_hits", 0)),
                "error_l2": error,
                "rank_correlation": correlation,
            }
        )
    return rows
