"""``repro`` — the command-line face of the experiment pipeline.

Subcommands
-----------
``repro run``
    Execute a campaign described either by CLI flags (one task) or a JSON
    config file (any plan).  Each (task, algorithm) cell is recorded in a
    manifest as it completes, results land beside it, and a persistent
    utility store makes reruns retraining-free.
``repro run --scenario <names>``
    Robustness mode: run the algorithm grid on each named scenario *and* its
    behavior-free clean counterpart, then report per-algorithm robustness —
    adversary rank positions, precision@k for spotting the injected bad
    actors, and rank correlation against the clean valuation.
``repro resume``
    Finish an interrupted run from its manifest: only missing cells are
    computed; with the same store attached their coalitions come from disk.
    Cells interrupted mid-valuation continue from their estimator
    checkpoints (``checkpoints/`` under the run dir), repeating at most the
    in-flight chunk's trainings.
``repro run/resume --stop-on --checkpoint-every --progress --json-stream``
    The anytime surface (see docs/anytime.md): early-stop rules per cell
    (``budget:64,ci:0.02,rank:2@top5,wallclock:30``), checkpoint cadence,
    and per-chunk progress/snapshot streaming.
``repro worker <queue-dir>``
    Serve a fleet lease queue (see docs/fleet.md): claim coalition batches,
    evaluate them with a local executor, deposit utilities into the shared
    persistent store, heartbeat the lease.  Pairs with
    ``repro run --backend fleet --queue-dir DIR --store PATH`` on any
    machine that shares the queue directory and store.
``repro serve <state-dir>``
    Run the valuation service (see docs/service.md): an HTTP/JSON job server
    where tenants POST valuation jobs, stream live snapshot events (SSE),
    and read results; jobs are scheduled by priority with tenant fairness,
    preempted gracefully at chunk boundaries, and recovered from checkpoints
    after a crash — bitwise-identical to an uninterrupted ``repro run``.
``repro submit`` / ``repro jobs``
    The scripting client for a running service: submit a job (``--wait`` /
    ``--stream`` to follow it), list/inspect/cancel/stream jobs.
``repro scenarios list`` / ``repro scenarios show``
    Browse the registered client-behavior scenarios (see docs/scenarios.md).
``repro store stats`` / ``repro store gc``
    Inspect or compact a utility store.
``repro trace <run-dir>`` / ``repro stats <run-dir>``
    Read a finished run's telemetry journal back (see docs/observability.md):
    ``trace`` renders the span tree and its critical path, ``stats`` the
    metric summaries (p50/p90/p99; ``--json`` for machine-readable output,
    ``--prometheus`` for Prometheus text exposition).  Telemetry is on by
    default for ``run``/``resume``; ``--no-telemetry`` switches it off —
    values and store keys are bitwise-identical either way.
``repro list-tasks``
    Show the registered task kinds and algorithm names a plan may reference.
``repro check [paths]``
    Run the determinism & concurrency contract checker
    (:mod:`repro.analysis`, see docs/static-analysis.md) over the given
    files/directories (default: ``src tests``).  Exits non-zero on findings;
    ``--json`` for machine-readable output, ``--baseline`` to gate against a
    committed (shrinking) baseline, ``--select``/``--ignore`` to pick rules.

Example
-------
::

    repro run --run-dir runs/demo --store store.sqlite \\
        --task adult --model logistic --n-clients 3 --scale tiny
    repro resume --run-dir runs/demo --store store.sqlite

A JSON config (``repro run --config plan.json``) carries a full plan::

    {
      "name": "table5-campaign",
      "algorithms": ["MC-Shapley", "IPSS", "Extended-TMC"],
      "tasks": [
        {"kind": "adult", "model": "mlp", "n_clients": 3, "scale": "tiny"},
        {"kind": "femnist", "model": "mlp", "n_clients": 6, "scale": "tiny"}
      ]
    }
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from typing import Optional, Sequence

from repro.experiments.config import ExperimentScale
from repro.experiments.pipeline import (
    DEFAULT_ALGORITHMS,
    FLEET_FIELDS,
    ExperimentPlan,
    RunReport,
    available_algorithms,
    check_backend,
    resume_run,
    run_plan,
)
from repro.core import parse_stopping_rule
from repro.experiments.reporting import format_table
from repro.experiments.specs import SYNTHETIC_SETUPS, TaskSpec, available_tasks
from repro.experiments.tables import robustness_table
from repro.fleet.coordinator import WORKER_BACKENDS
from repro.parallel.executors import EXECUTOR_BACKENDS, IN_PROCESS_BACKENDS
from repro.scenarios import available_scenarios, get_scenario, run_robustness
from repro.store import open_store
from repro.telemetry import Telemetry, prometheus_text, read_journal
from repro.telemetry.report import (
    build_span_tree,
    load_metrics,
    render_stats,
    render_trace,
)
from repro.version import __version__

_SCALE_NAMES = ("tiny", "small", "paper")


def _add_backend_argument(
    parser: argparse.ArgumentParser,
    flag: str,
    field_name: str,
    choices: Sequence[str],
    **kwargs,
) -> None:
    """Add a backend flag checked once, by its ``type=``: a retired name gets
    the replacement spelled out instead of a bare "invalid choice"."""

    def parse(name: str) -> str:
        try:
            check_backend(field_name, name, choices)
        except ValueError as error:
            # argparse already names the flag
            message = str(error).removeprefix(f"{field_name}: ")
            raise argparse.ArgumentTypeError(message) from None
        return name

    parser.add_argument(
        flag, type=parse, metavar="{" + ",".join(choices) + "}", **kwargs
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Resumable, store-backed FL data-valuation experiments.",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)

    run = subparsers.add_parser("run", help="execute a campaign (flags or --config)")
    run.add_argument("--run-dir", required=True, help="directory for manifest + results")
    run.add_argument("--config", help="JSON plan file (overrides the task flags)")
    run.add_argument(
        "--scenario",
        help="comma-separated scenario names: run the robustness harness "
        "(each scenario plus its clean counterpart) instead of a single task; "
        "see `repro scenarios list`",
    )
    _add_task_arguments(run)
    run.add_argument(
        "--algorithms",
        help=f"comma-separated names (default: {','.join(DEFAULT_ALGORITHMS)}; "
        f"known: {','.join(available_algorithms())})",
    )
    _add_backend_argument(
        run,
        "--backend",
        "backend",
        EXECUTOR_BACKENDS,
        help="coalition-evaluation backend (default: serial); 'vectorized' "
        "trains whole coalition batches in lockstep on stacked parameters, "
        "'fleet' spreads them over worker processes — see "
        "docs/performance.md",
    )
    run.add_argument(
        "--queue-dir",
        help="fleet backend only: shared lease-queue directory (created if "
        "missing); workers join with `repro worker QUEUE_DIR`",
    )
    run.add_argument(
        "--spawn-workers",
        type=int,
        default=0,
        metavar="N",
        help="fleet backend only: worker processes the run launches itself "
        "(default 0: rely on externally started `repro worker` processes)",
    )
    _add_backend_argument(
        run,
        "--worker-backend",
        "worker_backend",
        WORKER_BACKENDS,
        help="fleet backend only: executor each worker evaluates with "
        "(default: serial)",
    )
    run.add_argument(
        "--lease-seconds",
        type=float,
        default=30.0,
        metavar="S",
        help="fleet backend only: batch lease duration; an expired lease "
        "requeues the batch for another worker (default 30)",
    )
    run.add_argument("--resume", action="store_true", help="continue an existing run dir")
    _add_anytime_arguments(run)
    _add_store_arguments(run)
    _add_output_arguments(run)

    worker = subparsers.add_parser(
        "worker",
        help="serve a fleet lease queue: claim coalition batches, evaluate, "
        "deposit into the shared store",
    )
    worker.add_argument("queue_dir", help="lease-queue directory shared with the run")
    _add_backend_argument(
        worker,
        "--backend",
        "backend",
        WORKER_BACKENDS,
        default="serial",
        help="executor used inside this worker (default: serial)",
    )
    worker.add_argument(
        "--lease-seconds",
        type=float,
        default=30.0,
        metavar="S",
        help="lease duration requested per claim (default 30)",
    )
    worker.add_argument(
        "--poll-interval",
        type=float,
        default=0.05,
        metavar="S",
        help="sleep between claim attempts when the queue is empty",
    )
    worker.add_argument(
        "--max-batches",
        type=int,
        metavar="N",
        help="exit after serving N batches (default: unlimited)",
    )
    worker.add_argument(
        "--idle-timeout",
        type=float,
        metavar="S",
        help="exit after S seconds without claiming anything",
    )
    worker.add_argument(
        "--stop-when-finished",
        action="store_true",
        help="exit once no active runs and no outstanding batches remain",
    )
    _add_output_arguments(worker)

    resume = subparsers.add_parser("resume", help="finish an interrupted run")
    resume.add_argument("--run-dir", required=True)
    _add_anytime_arguments(resume)
    _add_store_arguments(resume)
    _add_output_arguments(resume)

    serve = subparsers.add_parser(
        "serve",
        help="run the valuation service: an HTTP job server over a durable "
        "state directory (see docs/service.md)",
    )
    serve.add_argument(
        "state_dir",
        help="service state directory (job queue, store, checkpoints, events)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port",
        type=int,
        default=8310,
        help="listen port (0 binds an ephemeral port and prints it; default 8310)",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=2,
        metavar="N",
        help="concurrent scheduler workers (jobs running at once; default 2)",
    )
    _add_store_arguments(serve)
    _add_output_arguments(serve)

    submit = subparsers.add_parser(
        "submit", help="submit a valuation job to a running `repro serve`"
    )
    submit.add_argument(
        "--url", default="http://127.0.0.1:8310", help="service base URL"
    )
    submit.add_argument("--spec", help="JSON JobSpec file (overrides task flags)")
    _add_task_arguments(submit)
    submit.add_argument(
        "--algorithm",
        default="IPSS",
        help=f"one algorithm name (known: {','.join(available_algorithms())})",
    )
    submit.add_argument("--tenant", default="default")
    submit.add_argument(
        "--priority",
        type=int,
        default=0,
        help="higher runs first and may preempt lower-priority running jobs",
    )
    submit.add_argument("--stop-on", metavar="SPEC")
    submit.add_argument("--checkpoint-every", type=int, default=1, metavar="N")
    # Service jobs run in the server's process; it refuses fleet jobs.
    _add_backend_argument(submit, "--backend", "backend", IN_PROCESS_BACKENDS)
    submit.add_argument(
        "--wait", action="store_true", help="block until the job is terminal"
    )
    submit.add_argument(
        "--stream",
        action="store_true",
        help="print the job's event stream (JSONL) until it finishes",
    )
    _add_output_arguments(submit)

    jobs = subparsers.add_parser(
        "jobs", help="list, inspect, cancel or stream jobs on a `repro serve`"
    )
    jobs.add_argument("job_id", nargs="?", help="one job to show (default: list)")
    jobs.add_argument(
        "--url", default="http://127.0.0.1:8310", help="service base URL"
    )
    jobs.add_argument("--tenant", help="list filter")
    jobs.add_argument("--status", help="list filter (queued/running/done/...)")
    jobs.add_argument(
        "--cancel", action="store_true", help="cancel the given job id"
    )
    jobs.add_argument(
        "--stream",
        action="store_true",
        help="stream the given job's events (JSONL) until it finishes",
    )
    _add_output_arguments(jobs)

    scenarios = subparsers.add_parser(
        "scenarios", help="browse the client-behavior scenario catalog"
    )
    scenarios_sub = scenarios.add_subparsers(dest="scenarios_command", required=True)
    scenarios_list = scenarios_sub.add_parser("list", help="registered scenarios")
    _add_output_arguments(scenarios_list)
    scenarios_show = scenarios_sub.add_parser(
        "show", help="full definition of one scenario"
    )
    scenarios_show.add_argument("name")
    _add_output_arguments(scenarios_show)

    store = subparsers.add_parser("store", help="inspect or compact a utility store")
    store_sub = store.add_subparsers(dest="store_command", required=True)
    stats = store_sub.add_parser("stats", help="entry counts per task namespace")
    _add_store_arguments(stats, required=True)
    _add_output_arguments(stats)
    gc = store_sub.add_parser("gc", help="drop corrupt/foreign entries")
    _add_store_arguments(gc, required=True)
    gc.add_argument(
        "--keep-namespace",
        help="also drop every entry outside this task fingerprint",
    )
    _add_output_arguments(gc)

    trace = subparsers.add_parser(
        "trace", help="span tree + critical path of a finished run's telemetry"
    )
    trace.add_argument("run_dir", help="run directory (or a journal.jsonl path)")
    trace.add_argument(
        "--max-children",
        type=int,
        default=12,
        metavar="N",
        help="collapse sibling spans beyond N into one summary line (default 12)",
    )
    _add_output_arguments(trace)

    stats_cmd = subparsers.add_parser(
        "stats", help="metric summaries (p50/p90/p99) of a finished run's telemetry"
    )
    stats_cmd.add_argument("run_dir", help="run directory (or a journal.jsonl path)")
    stats_cmd.add_argument(
        "--prometheus",
        action="store_true",
        help="Prometheus text exposition format instead of the table",
    )
    _add_output_arguments(stats_cmd)

    list_tasks = subparsers.add_parser(
        "list-tasks", help="registered task kinds and algorithms"
    )
    _add_output_arguments(list_tasks)

    check = subparsers.add_parser(
        "check", help="run the determinism/concurrency contract checker"
    )
    check.add_argument(
        "paths",
        nargs="*",
        default=["src", "tests"],
        help="files or directories to check (default: src tests)",
    )
    check.add_argument(
        "--baseline",
        help="JSON baseline file: listed findings are accepted, stale "
        "entries fail the gate",
    )
    check.add_argument(
        "--write-baseline",
        action="store_true",
        help="write the current findings to --baseline and exit 0",
    )
    check.add_argument(
        "--select", help="comma-separated rule codes to run (default: all)"
    )
    check.add_argument("--ignore", help="comma-separated rule codes to skip")
    check.add_argument(
        "--list-rules", action="store_true", help="print the rule catalog and exit"
    )
    _add_output_arguments(check)
    return parser


def _add_task_arguments(parser: argparse.ArgumentParser) -> None:
    """The one-task flags of ``repro run`` and ``repro submit``."""
    # --task/--setup/--n-clients default to None so scenario mode can tell
    # "left alone" from "explicitly set" and refuse flags it would ignore.
    parser.add_argument(
        "--task", choices=available_tasks(), help="task kind (default: adult)"
    )
    parser.add_argument(
        "--setup", choices=SYNTHETIC_SETUPS, help="synthetic tasks only"
    )
    parser.add_argument("--model", default="logistic")
    parser.add_argument(
        "--n-clients", type=int, help="clients per task (default: 3)"
    )
    parser.add_argument("--scale", choices=_SCALE_NAMES, default="tiny")
    parser.add_argument("--seed", type=int, default=0)


def _add_anytime_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--stop-on",
        metavar="SPEC",
        help="early-stop rule(s) per cell, e.g. 'budget:64', 'ci:0.02', "
        "'rank:3@top5', 'wallclock:30'; comma-separated terms stop on "
        "whichever fires first (see docs/anytime.md)",
    )
    parser.add_argument(
        "--checkpoint-every",
        type=int,
        default=1,
        metavar="N",
        help="persist the estimator state every N chunks so an interrupted "
        "valuation resumes mid-run (0 disables; default 1)",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="print one line per estimator chunk to stderr",
    )
    parser.add_argument(
        "--json-stream",
        action="store_true",
        help="stream one JSON object per estimator chunk to stdout "
        "(followed by a final {'event': 'report'} object)",
    )
    parser.add_argument(
        "--heartbeat",
        type=float,
        default=0.0,
        metavar="S",
        help="with --json-stream: emit a {'event': 'heartbeat'} line after S "
        "seconds without a snapshot, so consumers can tell a stalled run "
        "from a slow chunk (0 disables; default 0)",
    )
    parser.add_argument(
        "--no-telemetry",
        action="store_true",
        help="skip the run's telemetry journal (<run-dir>/telemetry/); "
        "values and store keys are identical either way — telemetry is "
        "observational only (see docs/observability.md)",
    )


def _add_store_arguments(parser: argparse.ArgumentParser, required: bool = False) -> None:
    parser.add_argument(
        "--store",
        required=required,
        help="persistent utility store path (SQLite file)",
    )


def _add_output_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--json", action="store_true", help="machine-readable JSON on stdout"
    )


def _open_store_arg(args) -> Optional[object]:
    if getattr(args, "store", None) is None:
        return None
    return open_store(args.store)


def _fleet_overrides(args) -> dict:
    """Fleet execution flags, normalised for dataclasses.replace / the plan."""
    overrides = {}
    if getattr(args, "queue_dir", None):
        overrides["queue_dir"] = args.queue_dir
    if getattr(args, "spawn_workers", 0):
        overrides["spawn_workers"] = args.spawn_workers
    if getattr(args, "worker_backend", None):
        overrides["worker_backend"] = args.worker_backend
    if getattr(args, "lease_seconds", 30.0) != 30.0:
        overrides["lease_seconds"] = args.lease_seconds
    return overrides


def _plan_from_args(args) -> ExperimentPlan:
    if args.config:
        with open(args.config, "r", encoding="utf-8") as handle:
            plan = ExperimentPlan.from_dict(json.load(handle))
        overrides = _fleet_overrides(args)
        if args.backend:
            # Executor choice is machine-local, not plan content: a CLI
            # override neither changes values nor the plan fingerprint.
            # Leaving the fleet drops the plan's fleet fields with it; fleet
            # flags given alongside a non-fleet backend are still rejected.
            if args.backend != "fleet":
                overrides = {**dict(FLEET_FIELDS), **overrides}
            overrides["backend"] = args.backend
        if overrides:
            plan = dataclasses.replace(plan, **overrides)
        return plan
    task = args.task or "adult"
    spec = TaskSpec(
        kind=task,
        setup=args.setup if task == "synthetic" else None,
        model=args.model,
        n_clients=3 if args.n_clients is None else args.n_clients,
        scale=args.scale,
        seed=args.seed,
    )
    return ExperimentPlan(
        tasks=(spec,),
        algorithms=_algorithms_from_args(args) or DEFAULT_ALGORITHMS,
        backend=args.backend,
        **_fleet_overrides(args),
    )


def _stop_rule_from_args(args):
    spec = getattr(args, "stop_on", None)
    if not spec:
        return None
    return parse_stopping_rule(spec)


def _telemetry_from_args(args) -> Optional[Telemetry]:
    """A journal-backed handle for this run, or ``None`` with --no-telemetry."""
    if getattr(args, "no_telemetry", False):
        return None
    return Telemetry.for_run_dir(args.run_dir)


class _StreamCallback:
    """--json-stream observer: snapshot events (and optional heartbeats).

    Events go through the service's :class:`~repro.service.stream.EventWriter`
    — the same writer the SSE endpoint uses — so a CLI stream and an HTTP
    stream of the same run are line-identical.  With ``--heartbeat S`` a
    :class:`~repro.service.stream.Heartbeat` shares the writer, emitting
    ``{"event": "heartbeat"}`` whenever S seconds pass without a snapshot.
    """

    def __init__(self, telemetry: Optional[Telemetry], heartbeat_seconds: float):
        from repro.service.stream import EventWriter, Heartbeat

        self._telemetry = telemetry
        # Live metric deltas ride along on each snapshot event: what the
        # counters/histograms accumulated since the previous event.
        self._last_state = telemetry.snapshot() if telemetry is not None else None
        self._writer = EventWriter(stream=sys.stdout)
        self._heartbeat = None
        if heartbeat_seconds:
            self._heartbeat = Heartbeat(self._writer.emit, heartbeat_seconds).start()

    def __call__(self, spec, algorithm, snapshot) -> None:
        payload = {"event": "snapshot", "task": spec.label(), **snapshot.to_dict()}
        if self._telemetry is not None:
            payload["metrics"] = self._telemetry.delta_since(self._last_state)
            self._last_state = self._telemetry.snapshot()
        if self._heartbeat is not None:
            self._heartbeat.touch()
        self._writer.emit(payload)

    def close(self) -> None:
        if self._heartbeat is not None:
            self._heartbeat.stop()


def _close_callback(callback) -> None:
    close = getattr(callback, "close", None)
    if close is not None:
        close()


def _snapshot_callback(args, telemetry: Optional[Telemetry] = None):
    """Per-chunk observer for --json-stream / --progress (None otherwise)."""
    if getattr(args, "json_stream", False):
        return _StreamCallback(telemetry, getattr(args, "heartbeat", 0.0))
    if getattr(args, "progress", False) and not getattr(args, "json", False):

        def emit(spec, algorithm, snapshot):
            max_ci = snapshot.max_ci95()
            extra = "" if max_ci is None else f", max-ci95 {max_ci:.4g}"
            marker = "done" if snapshot.done else f"chunk {snapshot.chunk_index}"
            print(
                f"  {spec.label()} × {algorithm}: {marker}, "
                f"{snapshot.evaluations} evaluations{extra}",
                file=sys.stderr,
            )

        return emit
    return None


def _emit_report(report, args) -> None:
    if getattr(args, "json_stream", False):
        print(json.dumps({"event": "report", **report.to_dict()}, sort_keys=True))


def _print_report(report: RunReport, as_json: bool) -> None:
    if as_json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
        return
    done_rows = [row for row in report.rows if row.get("status") == "done"]
    if done_rows:
        print(
            format_table(
                done_rows,
                columns=[
                    "task",
                    "algorithm",
                    "time_s",
                    "evaluations",
                    "store_hits",
                    "error_l2",
                ],
                title=f"run: {report.run_dir}",
            )
        )
    for row in report.rows:
        if row.get("status") == "skipped":
            print(f"skipped {row['task']} × {row['algorithm']}: {row['reason']}")
    continued = (
        f", {report.cells_continued} continued mid-run" if report.cells_continued else ""
    )
    print(
        f"cells: {report.cells_run} run, {report.cells_resumed} resumed, "
        f"{report.cells_skipped} skipped{continued} "
        f"| fl_trainings: {report.fl_trainings} "
        f"| store_hits: {report.store_hits}"
    )
    accounting = report.accounting()
    batches = ", ".join(
        f"{backend}:{count}"
        for backend, count in sorted(accounting["batch_counts"].items())
    )
    print(
        f"accounting: {accounting['evaluations']} evaluations, "
        f"{accounting['store_hits']} store hits, "
        f"{accounting['cache_hits']} cache hits "
        f"(hit-rate {accounting['cache_hit_rate']:.1%})"
        + (f" | batches {batches}" if batches else "")
    )


def _algorithms_from_args(args) -> Optional[tuple]:
    if not args.algorithms:
        return None
    return tuple(name.strip() for name in args.algorithms.split(",") if name.strip())


def _cmd_run(args) -> int:
    if args.scenario:
        return _cmd_run_scenarios(args)
    plan = _plan_from_args(args)
    store = _open_store_arg(args)
    telemetry = _telemetry_from_args(args)
    quiet = args.json or args.json_stream
    callback = _snapshot_callback(args, telemetry)
    try:
        report = run_plan(
            plan,
            args.run_dir,
            store=store,
            resume=args.resume,
            log=None if quiet else lambda message: print(message, file=sys.stderr),
            stop_rule=_stop_rule_from_args(args),
            checkpoint_every=args.checkpoint_every,
            on_snapshot=callback,
            telemetry=telemetry,
        )
    finally:
        _close_callback(callback)
        if telemetry is not None:
            telemetry.close()
        if store is not None:
            store.close()
    if args.json_stream:
        _emit_report(report, args)
    else:
        _print_report(report, args.json)
    return 0


def _cmd_worker(args) -> int:
    """``repro worker QUEUE_DIR``: serve a fleet lease queue until told to stop."""
    from repro.fleet.worker import run_worker

    if not os.path.isdir(args.queue_dir):
        raise ValueError(
            f"queue directory {args.queue_dir!r} does not exist; start the "
            "coordinating run (repro run --backend fleet --queue-dir ...) "
            "first, or create the directory"
        )
    quiet = args.json
    stats = run_worker(
        args.queue_dir,
        backend=args.backend,
        lease_seconds=args.lease_seconds,
        poll_interval=args.poll_interval,
        max_batches=args.max_batches,
        idle_timeout=args.idle_timeout,
        stop_when_finished=args.stop_when_finished,
        log=None if quiet else lambda message: print(message, file=sys.stderr),
    )
    payload = {
        "worker_id": stats.worker_id,
        "batches": stats.batches,
        "trainings": stats.trainings,
        "store_hits": stats.store_hits,
        "released": stats.released,
        "renewals_lost": stats.renewals_lost,
        "runs_seen": stats.runs_seen,
    }
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(
            f"worker {stats.worker_id}: {stats.batches} batches, "
            f"{stats.trainings} trainings, {stats.store_hits} store hits, "
            f"{stats.released} released"
        )
    return 0


def _cmd_run_scenarios(args) -> int:
    """``repro run --scenario a,b``: the robustness-harness face of ``run``."""
    if args.config:
        raise ValueError(
            "--scenario and --config are mutually exclusive; put scenario "
            "tasks into the config plan instead (kind='scenario')"
        )
    ignored = [
        flag
        for flag, value in (
            ("--task", args.task),
            ("--setup", args.setup),
            ("--n-clients", args.n_clients),
        )
        if value is not None
    ]
    if ignored:
        raise ValueError(
            f"{', '.join(ignored)} cannot be combined with --scenario: the "
            "scenario definition fixes the dataset, partition and client "
            "count (see `repro scenarios show <name>`)"
        )
    names = [name.strip() for name in args.scenario.split(",") if name.strip()]
    store = _open_store_arg(args)
    telemetry = _telemetry_from_args(args)
    quiet = args.json or args.json_stream
    callback = _snapshot_callback(args, telemetry)
    try:
        report = run_robustness(
            names,
            args.run_dir,
            algorithms=_algorithms_from_args(args),
            model=args.model,
            scale=args.scale,
            seed=args.seed,
            store=store,
            resume=args.resume,
            log=None if quiet else lambda message: print(message, file=sys.stderr),
            stop_rule=_stop_rule_from_args(args),
            checkpoint_every=args.checkpoint_every,
            on_snapshot=callback,
            telemetry=telemetry,
            backend=args.backend,
            **_fleet_overrides(args),
        )
    finally:
        _close_callback(callback)
        if telemetry is not None:
            telemetry.close()
        if store is not None:
            store.close()
    if args.json_stream:
        _emit_report(report, args)
        return 0
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
        return 0
    print(robustness_table(report.rows, title=f"robustness: {args.run_dir}"))
    print(
        f"cells: {report.cells_run} run, {report.cells_resumed} resumed, "
        f"{report.cells_skipped} skipped | fl_trainings: {report.fl_trainings} "
        f"| store_hits: {report.store_hits}"
    )
    return 0


def _cmd_resume(args) -> int:
    store = _open_store_arg(args)
    telemetry = _telemetry_from_args(args)
    quiet = args.json or args.json_stream
    callback = _snapshot_callback(args, telemetry)
    try:
        report = resume_run(
            args.run_dir,
            store=store,
            log=None if quiet else lambda message: print(message, file=sys.stderr),
            stop_rule=_stop_rule_from_args(args),
            checkpoint_every=args.checkpoint_every,
            on_snapshot=callback,
            telemetry=telemetry,
        )
    finally:
        _close_callback(callback)
        if telemetry is not None:
            telemetry.close()
        if store is not None:
            store.close()
    if args.json_stream:
        _emit_report(report, args)
    else:
        _print_report(report, args.json)
    return 0


def _cmd_serve(args) -> int:
    """``repro serve STATE_DIR``: the valuation service (docs/service.md)."""
    from repro.service.scheduler import ValuationService
    from repro.service.server import serve as bind_server

    quiet = args.json
    service = ValuationService(
        args.state_dir,
        workers=args.workers,
        store_path=getattr(args, "store", None),
        log=None if quiet else lambda message: print(message, file=sys.stderr),
    )
    server = bind_server(service, host=args.host, port=args.port)
    host, port = server.server_address[:2]
    service.start()
    banner = {
        "event": "serving",
        "host": host,
        "port": port,
        "state_dir": args.state_dir,
        "workers": args.workers,
        "recovered": list(service.recovered_jobs),
    }
    # Always printed (and flushed) first, so scripts can scrape the bound
    # port even with --port 0.
    print(json.dumps(banner, sort_keys=True), flush=True)
    try:
        server.serve_forever(poll_interval=0.2)
    except KeyboardInterrupt:
        pass  # graceful shutdown below checkpoints + requeues running jobs
    finally:
        server.shutdown()
        server.server_close()
        service.stop()
    return 0


def _submit_spec_from_args(args) -> dict:
    if args.spec:
        with open(args.spec, "r", encoding="utf-8") as handle:
            return json.load(handle)
    task = args.task or "adult"
    task_payload = {
        "kind": task,
        "model": args.model,
        "n_clients": 3 if args.n_clients is None else args.n_clients,
        "scale": args.scale,
        "seed": args.seed,
    }
    if task == "synthetic":
        task_payload["setup"] = args.setup
    payload = {
        "task": task_payload,
        "algorithm": args.algorithm,
        "tenant": args.tenant,
        "priority": args.priority,
        "checkpoint_every": args.checkpoint_every,
    }
    if args.stop_on:
        payload["stop_on"] = args.stop_on
    if args.backend:
        payload["backend"] = args.backend
    return payload


def _cmd_submit(args) -> int:
    """``repro submit``: POST one job to a running service."""
    from repro.service.client import ServiceClient

    client = ServiceClient(args.url)
    record = client.submit(_submit_spec_from_args(args))
    job_id = record["job_id"]
    if args.stream:
        for event in client.stream(job_id):
            print(json.dumps(event, sort_keys=True), flush=True)
        record = client.job(job_id)
    elif args.wait:
        record = client.wait(job_id)
    if args.json or args.stream:
        print(json.dumps(record, sort_keys=True))
    else:
        print(f"{job_id}: {record['status']} ({record['task']} × {record['algorithm']})")
    return 0 if record["status"] in ("queued", "running", "done") else 1


def _cmd_jobs(args) -> int:
    """``repro jobs``: list/inspect/cancel/stream jobs on a running service."""
    from repro.service.client import ServiceClient

    client = ServiceClient(args.url)
    if args.cancel:
        if not args.job_id:
            raise ValueError("--cancel requires a job id")
        print(json.dumps(client.cancel(args.job_id), sort_keys=True))
        return 0
    if args.stream:
        if not args.job_id:
            raise ValueError("--stream requires a job id")
        for event in client.stream(args.job_id):
            print(json.dumps(event, sort_keys=True), flush=True)
        return 0
    if args.job_id:
        print(json.dumps(client.job(args.job_id), indent=2, sort_keys=True))
        return 0
    records = client.jobs(tenant=args.tenant, status=args.status)
    if args.json:
        print(json.dumps({"jobs": records}, indent=2, sort_keys=True))
        return 0
    if not records:
        print("no jobs")
        return 0
    print(
        format_table(
            [
                {
                    "job": r["job_id"],
                    "status": r["status"],
                    "tenant": r["tenant"],
                    "priority": r["priority"],
                    "algorithm": r["algorithm"],
                    "task": r["task"],
                    "attempts": r["attempts"],
                    "preemptions": r["preemptions"],
                }
                for r in records
            ],
            columns=[
                "job",
                "status",
                "tenant",
                "priority",
                "algorithm",
                "task",
                "attempts",
                "preemptions",
            ],
            title=f"jobs: {args.url}",
        )
    )
    return 0


def _require_existing_store(args) -> None:
    """Inspection commands must not conjure a fresh store from a typo'd path."""
    if not os.path.exists(args.store):
        raise FileNotFoundError(f"no store at {args.store!r}")


def _cmd_store_stats(args) -> int:
    _require_existing_store(args)
    with _open_store_arg(args) as store:
        summary = store.summary()
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
        return 0
    print(f"backend:  {summary['backend']}")
    print(f"location: {summary['location']}")
    print(f"entries:  {summary['entries']}  ({summary['size_bytes']} bytes)")
    namespace_bytes = summary.get("namespace_bytes") or {}
    if summary["namespaces"]:
        width = max(len(namespace) for namespace in summary["namespaces"])
        for namespace, count in sorted(summary["namespaces"].items()):
            size = namespace_bytes.get(namespace)
            suffix = "" if size is None else f"  {size:>10} bytes"
            print(f"  {namespace:<{width}}  {count:>6} coalitions{suffix}")
    return 0


def _cmd_store_gc(args) -> int:
    _require_existing_store(args)
    with _open_store_arg(args) as store:
        result = store.gc(keep_namespace=args.keep_namespace)
    if args.json:
        print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
        return 0
    print(
        f"kept {result.kept} entries; dropped {result.dropped_corrupt} corrupt, "
        f"{result.dropped_namespaces} out-of-namespace"
    )
    return 0


def _span_node_to_dict(node) -> dict:
    """JSON shape of one reconstructed span (children nested)."""
    payload = {
        "name": node.name,
        "span": node.span_id,
        "start": node.start,
        "dur_s": node.duration,
        "status": node.status,
    }
    if node.attrs:
        payload["attrs"] = node.attrs
    if node.children:
        payload["children"] = [_span_node_to_dict(child) for child in node.children]
    return payload


def _cmd_trace(args) -> int:
    """``repro trace <run-dir>``: span tree + critical path from the journal."""
    from repro.telemetry.report import critical_path

    records = read_journal(args.run_dir)
    roots = build_span_tree(records)
    if args.json:
        payload = {
            "spans": [_span_node_to_dict(root) for root in roots],
            "critical_path": [
                {"name": node.name, "span": node.span_id, "dur_s": node.duration}
                for node in critical_path(roots)
            ],
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    if not roots:
        print("no spans recorded (run finished before any instrumented section?)")
        return 0
    print(render_trace(roots, max_children=args.max_children), end="")
    return 0


def _cmd_stats(args) -> int:
    """``repro stats <run-dir>``: metric summaries from the journal."""
    registry = load_metrics(read_journal(args.run_dir))
    if args.prometheus:
        print(prometheus_text(registry.to_dict()), end="")
        return 0
    if args.json:
        print(json.dumps(registry.summaries(), indent=2, sort_keys=True))
        return 0
    print(render_stats(registry), end="")
    return 0


def _cmd_list_tasks(args) -> int:
    payload = {
        "tasks": available_tasks(),
        "synthetic_setups": list(SYNTHETIC_SETUPS),
        "scales": list(_SCALE_NAMES),
        "algorithms": available_algorithms(),
        "default_algorithms": list(DEFAULT_ALGORITHMS),
        "scenarios": available_scenarios(),
    }
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print("task kinds:      " + ", ".join(payload["tasks"]))
    print("synthetic setups:" + "".join(f"\n  {s}" for s in payload["synthetic_setups"]))
    print("scales:          " + ", ".join(payload["scales"]))
    print("algorithms:      " + ", ".join(payload["algorithms"]))
    print("defaults:        " + ", ".join(payload["default_algorithms"]))
    print("scenarios:       " + ", ".join(payload["scenarios"]))
    return 0


def _cmd_scenarios_list(args) -> int:
    names = available_scenarios()
    if args.json:
        payload = {
            name: {
                "summary": get_scenario(name).summary(),
                "description": get_scenario(name).description,
            }
            for name in names
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    width = max((len(name) for name in names), default=0)
    for name in names:
        print(f"{name.ljust(width)}  {get_scenario(name).summary()}")
    return 0


def _cmd_scenarios_show(args) -> int:
    scenario = get_scenario(args.name)
    if args.json:
        print(json.dumps(scenario.to_dict(), indent=2, sort_keys=True))
        return 0
    print(f"name:        {scenario.name}")
    print(f"description: {scenario.description or '-'}")
    print(f"base:        {scenario.summary()}")
    layout = scenario.layout()
    print(f"clients:     {layout.base_clients} base -> {layout.n_clients} total")
    print(f"adversaries: {list(layout.adversaries) or '-'}")
    if layout.roles:
        for client, role in sorted(layout.roles.items()):
            print(f"  client {client}: {role}")
    return 0


def _cmd_check(args) -> int:
    """``repro check``: the contract checker (see repro.analysis)."""
    from pathlib import Path

    from repro.analysis import RULES, check_paths, write_baseline

    if args.list_rules:
        rules = [RULES[code] for code in sorted(RULES)]
        if args.json:
            payload = {
                rule.code: {"name": rule.name, "summary": rule.summary}
                for rule in rules
            }
            print(json.dumps(payload, indent=2, sort_keys=True))
            return 0
        for rule in rules:
            print(f"{rule.code}  {rule.name}: {rule.summary}")
        return 0
    if args.write_baseline and not args.baseline:
        raise ValueError("--write-baseline requires --baseline FILE")
    select = None if not args.select else args.select.split(",")
    ignore = None if not args.ignore else args.ignore.split(",")
    if args.write_baseline:
        report = check_paths(
            [Path(p) for p in args.paths], select=select, ignore=ignore
        )
        write_baseline(report.findings, Path(args.baseline))
        print(
            f"wrote {len(report.findings)} finding(s) to {args.baseline}",
            file=sys.stderr,
        )
        return 0
    report = check_paths(
        [Path(p) for p in args.paths],
        select=select,
        ignore=ignore,
        baseline=None if not args.baseline else Path(args.baseline),
    )
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
        return report.exit_code
    for finding in report.findings:
        print(finding.format())
    suppressed = report.suppressed_by_pragma + report.suppressed_by_baseline
    suffix = f" ({suppressed} suppressed)" if suppressed else ""
    print(
        f"repro check: {len(report.findings)} finding(s) in "
        f"{report.files_checked} file(s){suffix}",
        file=sys.stderr,
    )
    return report.exit_code


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "resume": _cmd_resume,
        "worker": _cmd_worker,
        "serve": _cmd_serve,
        "submit": _cmd_submit,
        "jobs": _cmd_jobs,
        "trace": _cmd_trace,
        "stats": _cmd_stats,
        "list-tasks": _cmd_list_tasks,
        "check": _cmd_check,
    }
    try:
        if args.command == "store":
            handler = {"stats": _cmd_store_stats, "gc": _cmd_store_gc}[args.store_command]
            return handler(args)
        if args.command == "scenarios":
            handler = {
                "list": _cmd_scenarios_list,
                "show": _cmd_scenarios_show,
            }[args.scenarios_command]
            return handler(args)
        return handlers[args.command](args)
    except (ValueError, FileNotFoundError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via the console script
    sys.exit(main())
