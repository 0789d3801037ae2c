"""End-to-end valuation benchmark: four workloads through the shipped entry points.

Run from the repository root::

    python3 benchmarks/e2e/run.py --workload grid-cold --seed 0
    python3 benchmarks/e2e/run.py --all --seed 0 [--trace] [--append-trajectory]

Each workload runs in fresh subprocesses (``workload.py``) with one BLAS
thread.  Set-up is timed from process start to "inputs ready", several times
per run, and reported as the median.  The measured process then times a fixed
calibration kernel and runs the workload for ``--seconds``: batch workloads
call ``repro.cli.main(["run", ...])`` once per task, the service workload
drives ``repro serve`` over HTTP.  Outputs are checked (see README.md) and
every metric is printed with its unit; the last stdout line is a JSON object
``{"correct", "attempted", "failed", "metrics"}``.

With ``--trace`` the end-to-end metrics give way to per-layer ones, measured
by span wrappers around each layer's public entry point.  Everything is
written under ``--out``; ``--append-trajectory`` also appends one row per
workload to ``trajectory.jsonl`` next to this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import signal
import subprocess
import sys
import time
from typing import List, Optional

import catalog
import checks
import summary

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
WORKLOAD_SCRIPT = os.path.join(HERE, "workload.py")
REFERENCE_DIR = os.path.join(HERE, "reference")
TRAJECTORY = os.path.join(HERE, "trajectory.jsonl")
DEFAULT_OUT = os.path.join(ROOT, ".bench_out", "e2e")

#: timed set-up probes per untraced run, besides the measured process's own
SETUP_PROBES = 2

#: wall-clock budget of one workload run, subprocesses included
RUN_BUDGET_S = 150.0

#: grace period for a workload process told to stop
STOP_TIMEOUT_S = 20.0

SYNTHETIC_SETUPS = (
    "same-size-same-distribution",
    "same-size-different-distribution",
    "different-size-same-distribution",
    "same-size-noisy-label",
)
GRID_ALGORITHMS = ["MC-Shapley", "Extended-TMC", "Extended-GTB", "CC-Shapley", "IPSS"]
GRID_WARM_MIN_OPS = 100

#: service-steady: open-loop arrival rate, tenants, duplicate cadence
SERVICE_RATE = 10
SERVICE_TENANTS = 4
SERVICE_DUPLICATE_EVERY = 5
SERVICE_WORKERS = 2
#: the same-size setups only: different-size client sizes are drawn from the
#: seed, and those jobs, twice as long as the rest, would set the p90 alone
SERVICE_SETUPS = tuple(setup for setup in SYNTHETIC_SETUPS if setup.startswith("same-size"))
SERVICE_RECOMPUTE = list(range(10))

#: the open loop is invalid if the generator ever ran this late
MAX_LAG_S = 0.05


class BenchmarkError(RuntimeError):
    """A run that could not be measured (as opposed to wrong outputs)."""


# --------------------------------------------------------------------------- #
# Inputs
# --------------------------------------------------------------------------- #
def _reference_for(workload: str, seed: int) -> Optional[str]:
    path = os.path.join(REFERENCE_DIR, f"{workload}.json")
    if not os.path.exists(path):
        return None
    with open(path, "r", encoding="utf-8") as handle:
        return path if json.load(handle)["seed"] == seed else None


def make_inputs(workload: str, seed: int, seconds: int) -> dict:
    """Every input of one run, generated from the seed alone."""
    inputs = {"workload": workload, "seed": seed, "seconds": seconds}
    if workload in ("grid-cold", "grid-warm"):
        inputs["tasks"] = [
            {
                "kind": "synthetic",
                "setup": setup,
                "model": "mlp",
                "n_clients": 10,
                "scale": "small",
                "seed": seed,
            }
            for setup in SYNTHETIC_SETUPS
        ]
        inputs["algorithms"] = GRID_ALGORITHMS
        inputs["flags"] = ["--backend", "vectorized"]
        inputs["reference"] = _reference_for("grid-cold", seed)
        # Warm passes take ~0.1 s: 100 of them give the p90 ten samples
        # beyond it on any machine, not only on one fast enough.
        inputs["min_ops"] = GRID_WARM_MIN_OPS if workload == "grid-warm" else 1
    elif workload == "large-n":
        inputs["tasks"] = [
            {
                "kind": "synthetic",
                "setup": "same-size-same-distribution",
                "model": "mlp",
                "n_clients": 500,
                "scale": "tiny",
                "seed": seed + offset,
            }
            for offset in range(4)
        ]
        inputs["algorithms"] = ["IPSS"]
        inputs["flags"] = ["--backend", "vectorized", "--stop-on", "ci:0.01"]
        inputs["reference"] = _reference_for("large-n", seed)
        inputs["min_ops"] = 1
    elif workload == "service-steady":
        jobs: List[dict] = []
        for index in range(SERVICE_RATE * seconds):
            tenant = index % SERVICE_TENANTS
            if index % SERVICE_DUPLICATE_EVERY == SERVICE_DUPLICATE_EVERY - 1:
                # The tenant's previous job: the same tenant, the same task.
                original = index - SERVICE_TENANTS
                jobs.append({"spec": jobs[original]["spec"], "duplicate_of": original})
                continue
            task = {
                "kind": "synthetic",
                "setup": SERVICE_SETUPS[index % len(SERVICE_SETUPS)],
                "model": "mlp",
                "n_clients": 10,
                "scale": "tiny",
                "seed": seed * 100_003 + index,
            }
            spec = {
                "task": task,
                "algorithm": "IPSS",
                "tenant": f"tenant-{tenant}",
                "backend": "vectorized",
            }
            jobs.append({"spec": spec, "duplicate_of": None})
        inputs.update(
            {
                "rate": SERVICE_RATE,
                "workers": SERVICE_WORKERS,
                "jobs": jobs,
                "recompute": SERVICE_RECOMPUTE,
            }
        )
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {list(catalog.WORKLOADS)}")
    return inputs


# --------------------------------------------------------------------------- #
# Subprocesses
# --------------------------------------------------------------------------- #
class _Runner:
    """Starts workload processes for one run and keeps them within budget."""

    def __init__(self, out: str, deadline: float) -> None:
        self.deadline = deadline
        self.env = dict(os.environ)
        source = os.path.join(ROOT, "src")
        inherited = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = source + (os.pathsep + inherited if inherited else "")
        for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[name] = "1"
        self.env["TMPDIR"] = os.path.join(out, "tmp")
        os.makedirs(self.env["TMPDIR"], exist_ok=True)
        self.inputs_path = os.path.join(out, "inputs.json")

    def _remaining(self) -> float:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchmarkError("run exceeded its time budget")
        return remaining

    def start(self, workdir: str, *flags: str) -> float:
        """Run one workload process to completion; returns its set-up seconds."""
        os.makedirs(workdir, exist_ok=True)
        command = [sys.executable, WORKLOAD_SCRIPT, self.inputs_path, workdir, *flags]
        log_name = f"{flags[0].lstrip('-') if flags else 'measured'}.log"
        with open(os.path.join(workdir, log_name), "wb") as log:
            started = time.perf_counter()
            process = subprocess.Popen(
                command, stdout=subprocess.PIPE, stderr=log, cwd=ROOT, env=self.env
            )
            try:
                ready, _, _ = select.select([process.stdout], [], [], self._remaining())
                line = process.stdout.readline() if ready else b""
                setup_s = time.perf_counter() - started
                process.wait(timeout=self._remaining())
            except (subprocess.TimeoutExpired, BenchmarkError):
                raise BenchmarkError(f"{' '.join(flags) or 'measured'} process timed out")
            finally:
                if process.poll() is None:
                    # SIGTERM first: the service process then stops its server.
                    process.terminate()
                    try:
                        process.wait(timeout=STOP_TIMEOUT_S)
                    except subprocess.TimeoutExpired:
                        process.kill()
                        process.wait()
                process.stdout.close()
        if line.strip() != b"READY" or process.returncode != 0:
            raise BenchmarkError(
                f"workload process failed (exit {process.returncode}); see {log.name}"
            )
        return setup_s


# --------------------------------------------------------------------------- #
# One workload
# --------------------------------------------------------------------------- #
def run_workload(workload: str, seed: int, seconds: int, trace: bool, out: str) -> dict:
    """Measure one workload; returns the report :func:`print_report` renders."""
    out = os.path.join(out, f"{workload}-seed{seed}{'-trace' if trace else ''}")
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    runner = _Runner(out, time.monotonic() + RUN_BUDGET_S)
    inputs = make_inputs(workload, seed, seconds)
    with open(runner.inputs_path, "w", encoding="utf-8") as handle:
        json.dump(inputs, handle)

    measured = os.path.join(out, "measured")
    if workload == "grid-warm":
        # The warm store is the grid-cold workload's output; filling it is
        # timed there, so it is not part of this workload's set-up.
        runner.start(measured, "--prefill")
    setup_samples = []
    if not trace:
        runner.start(os.path.join(out, "probe-warmup"), "--probe")  # byte-compiles
        for probe in range(SETUP_PROBES):
            setup_samples.append(runner.start(os.path.join(out, f"probe-{probe}"), "--probe"))
    flags = ("--trace",) if trace else ()
    setup_samples.append(runner.start(measured, *flags))
    with open(os.path.join(measured, "result.json"), "r", encoding="utf-8") as handle:
        result = json.load(handle)

    ops = result["ops"]
    failed = summary.failed(ops)
    problems = [problem for op in ops for problem in op["problems"]]
    problems += result.get("run_problems", [])
    service = result.get("service")
    if service is not None and service["lag_max_s"] > MAX_LAG_S:
        problems.append(
            f"load generator ran {service['lag_max_s'] * 1e3:.1f} ms late (limit "
            f"{MAX_LAG_S * 1e3:.0f} ms): the open loop did not hold its schedule"
        )
    completed = [op for op in ops if op["wall_s"] is not None]
    if not completed:
        raise BenchmarkError("no operation completed")
    walls = [op["wall_s"] for op in completed]
    raw_s = summary.valuation_seconds(walls, result["cpu_s"])
    e2e = (
        {}
        if trace
        else summary.end_to_end(
            setup_samples, completed, result["cpu_s"], result["peak_rss_mb"]
        )
    )
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "out": out,
        "result": result,
        "setup_samples": setup_samples,
        "walls": walls,
        "raw_s": raw_s,
        "end_to_end": e2e,
        "metrics": result["per_layer"] if trace else e2e,
        "attempted": len(ops),
        "failed": failed,
        "correct": not problems,
        "problems": problems,
    }


# --------------------------------------------------------------------------- #
# Output
# --------------------------------------------------------------------------- #
def _ms(values: List[float], percent: int) -> str:
    return f"{summary.nearest_rank(values, percent) * 1e3:.1f} ms"


def print_report(report: dict) -> None:
    result = report["result"]
    walls = report["walls"]
    units = catalog.units()
    print(
        f"== {report['workload']}  seed={report['seed']}  seconds={report['seconds']}  "
        f"trace={'on' if report['trace'] else 'off'} =="
    )
    print(
        f"ops {report['attempted']}  failed {report['failed']}  "
        f"correct {'yes' if report['correct'] else 'NO'}  "
        f"fl_trainings {result['fl_trainings']}"
    )
    for problem in report["problems"][:10]:
        print(f"  problem: {problem.strip()}")
    label = summary.tail(walls)[0]
    if len(walls) < 20:
        label += " (too few samples for a tail)"
    notes = {
        "setup_s": f"median of {len(report['setup_samples'])} set-ups",
        "valuation_p50_s": f"p50 of n={len(walls)}",
        "valuation_tail_s": f"{label} of n={len(walls)}",
        "cpu_s_per_op": f"{result['cpu_s']:.3f} s CPU over {len(walls)} ops",
    }
    print(f"  calibration slice {result['calib_s'] * 1e3:.2f} ms (median of "
          f"{result['calib_slices']})")
    for name, value in report["raw_s"].items():
        print(f"  {name:<20} {value:>12.4f} s     {notes[name]}")
    peak_note = "server VmHWM" if "service" in result else "ru_maxrss"
    for name, value in report["end_to_end"].items():
        note = {"setup_s": notes["setup_s"], "peak_rss_mb": peak_note}.get(name, "")
        print(f"  {name:<20} {value:>12.4f} {units[name]:<5} {note}")
    service = result.get("service")
    if service is not None:
        print(
            f"  service: {service['jobs']} jobs at {SERVICE_RATE}/s, window "
            f"{service['window_s']:.2f} s, generator lag max "
            f"{service['lag_max_s'] * 1e3:.1f} ms, ledger {service['ledger'][0]} rows / "
            f"{service['ledger'][1]} distinct"
        )
        submits, waits = service["http_submit_s"], service["queue_wait_s"]
        if waits:
            print(
                f"  http submit p50 {_ms(submits, 50)} {summary.tail(submits)[0]} "
                f"{summary.tail(submits)[1] * 1e3:.1f} ms | queue wait p50 "
                f"{_ms(waits, 50)} {summary.tail(waits)[0]} "
                f"{summary.tail(waits)[1] * 1e3:.1f} ms (n={len(waits)})"
            )
    if report["trace"]:
        print_layers(result)


def print_layers(result: dict) -> None:
    table = result["layers"]
    metrics = result["per_layer"]
    wall_name = "cli.main" if "cli.main" in table else None
    wall = table[wall_name]["busy_s"] if wall_name else result["service"]["window_s"]
    print(f"  {'layer':<26} {'calls':>9} {'busy_s':>10} {'self_s':>10} {'share':>7}")
    total = 0.0
    for layer in sorted(catalog.LAYERS, key=lambda name: -table.get(name, {}).get("self_s", 0)):
        row = table.get(layer)
        if row is None:
            continue
        total += row["self_s"]
        print(
            f"  {layer:<26} {row['calls']:>9} {row['busy_s']:>10.3f} "
            f"{row['self_s']:>10.3f} {row['self_s'] / wall:>7.1%}"
        )
    if wall_name:
        rest = table[wall_name]["self_s"]
        print(f"  {'unattributed':<26} {'':>9} {'':>10} {rest:>10.3f} {rest / wall:>7.1%}")
        print(f"  {'wall (sum of ops)':<26} {'':>9} {'':>10} {total + rest:>10.3f} {1:>7.1%}")
    else:
        print(
            f"  window {wall:.3f} s; server threads overlap, so shares may sum past "
            f"100%; run time outside run_job spans: "
            f"{metrics['trace.unattributed_share']:.1%}"
        )
    print(
        f"  trace.unattributed_share {metrics['trace.unattributed_share']:.4f}  "
        f"trace.overhead_est {metrics['trace.overhead_est']:.4f}"
    )


# --------------------------------------------------------------------------- #
# Trajectory and reference
# --------------------------------------------------------------------------- #
def _git(*args: str) -> Optional[str]:
    try:
        completed = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return completed.stdout.strip() if completed.returncode == 0 else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def trajectory_row(
    report: dict, rev: Optional[str], src_dirty: Optional[bool], tag: Optional[str]
) -> dict:
    result = report["result"]
    return {
        "rev": rev,
        "src_dirty": src_dirty,
        "tag": tag,
        "host": {"nproc": os.cpu_count(), "cpu": _cpu_model(), **result["host"]},
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "workload": report["workload"],
        "seed": report["seed"],
        "seconds": report["seconds"],
        "trace": report["trace"],
        "calib_s": result["calib_s"],
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "fl_trainings": result["fl_trainings"],
        "raw_s": report["raw_s"],
        "metrics": report["metrics"],
    }


def write_reference(report: dict) -> str:
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    path = os.path.join(REFERENCE_DIR, f"{report['workload']}.json")
    payload = {
        "workload": report["workload"],
        "seed": report["seed"],
        "atol": checks.PARITY_ATOL,
        "cells": report["result"]["cells"],
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return path


# --------------------------------------------------------------------------- #
# Entry point
# --------------------------------------------------------------------------- #
def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", action="append", choices=list(catalog.WORKLOADS))
    which.add_argument("--all", action="store_true", help="every workload, in order")
    parser.add_argument("--seed", type=int, default=0, help="workload seed (default 0)")
    parser.add_argument(
        "--seconds",
        type=int,
        default=catalog.RUN_SECONDS,
        help=f"measured seconds per run (default {catalog.RUN_SECONDS})",
    )
    parser.add_argument(
        "--trace",
        type=int,
        nargs="?",
        const=1,
        default=0,
        choices=(0, 1),
        help="per-layer traced run instead of end-to-end metrics",
    )
    parser.add_argument("--out", default=DEFAULT_OUT, help="directory for run outputs")
    parser.add_argument(
        "--append-trajectory",
        action="store_true",
        help=f"append one row per workload to {os.path.relpath(TRAJECTORY, ROOT)}",
    )
    parser.add_argument(
        "--tag", help="label stored in appended trajectory rows, e.g. a run set's name"
    )
    parser.add_argument(
        "--update-reference",
        action="store_true",
        help="store this run's values as the reference for its seed "
        "(grid-cold, large-n)",
    )
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def _exit_on_signal(signum: int, frame: object) -> None:
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    # Turn SIGTERM into an exception, so the cleanup below stops children.
    signal.signal(signal.SIGTERM, _exit_on_signal)
    args = parse_args(argv)
    if not os.path.exists(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no repro sources under {ROOT}/src", file=sys.stderr)
        return 2
    workloads = list(catalog.WORKLOADS) if args.all else args.workload
    rev = src_dirty = None
    if args.append_trajectory:
        rev = _git("rev-parse", "HEAD")
        status = _git("status", "--porcelain", "--", "src")
        src_dirty = None if status is None else bool(status)
    for workload in workloads:
        try:
            report = run_workload(
                workload, args.seed, args.seconds, bool(args.trace), os.path.abspath(args.out)
            )
        except BenchmarkError as error:
            print(f"error: {workload}: {error}", file=sys.stderr)
            return 1
        print_report(report)
        if args.append_trajectory:
            with open(TRAJECTORY, "a", encoding="utf-8") as handle:
                handle.write(json.dumps(trajectory_row(report, rev, src_dirty, args.tag)) + "\n")
        if args.update_reference and report["result"].get("cells"):
            if workload == "grid-cold" or workload == "large-n":
                print(f"  reference written to {write_reference(report)}")
        print(
            json.dumps(
                summary.result_line(
                    report["metrics"], report["attempted"], report["failed"], report["correct"]
                )
            ),
            flush=True,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
