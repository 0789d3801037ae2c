"""One benchmark workload in a fresh process: set up, measure, check.

``run.py`` starts this script with an ``inputs.json`` it generated from the
benchmark seed, so the program only ever sees plain task and job specs::

    python benchmarks/e2e/workload.py INPUTS OUT [--probe | --prefill] [--trace]

The process prints ``READY`` once its inputs are ready (the parent times
set-up up to that line).  ``--probe`` stops there; ``--prefill`` fills the
grid-warm store and exits; otherwise it measures for the inputs' ``seconds``,
timing calibration slices alongside, and writes ``OUT/result.json``.
Everything it writes stays under OUT.
"""

from __future__ import annotations

import argparse
import contextlib
import http.client
import io
import json
import os
import platform
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from typing import Dict, List, Optional

import checks
import summary
from spans import Tracer, layer_table, load, unattributed, wrapper_cost

READY = "READY"

#: seconds allowed for the server to print its banner / exit on SIGINT (the
#: runner grants a stopping workload process twice the latter)
SERVER_START_TIMEOUT = 60.0
SERVER_STOP_TIMEOUT = 10.0

#: seconds allowed for the service's queue to drain after the open loop
DRAIN_TIMEOUT = 60.0

#: pause between job-list polls while the queue drains
POLL_INTERVAL = 0.1

#: calibration slices take this share of the measured time (at least one)
CALIBRATION_SHARE = 0.1

#: an operation is divided by the median slice within one operation length
#: of it, or of this many slices nearest in time when fewer lie that close
CALIBRATION_NEIGHBOURS = 4

#: the open loop starts a slice only this many seconds before a send: late
#: in the gap, when the previous job has most likely finished, yet early
#: enough for a ~30 ms slice to end before the send is due
SLICE_BEFORE_SEND_S = (0.035, 0.045)


class Calibration:
    """Times a fixed NumPy + pure-Python kernel in slices beside the workload.

    The host's vCPUs change speed independently, by tens of percent, from
    one second to the next, and every workload here is CPU-bound.  The
    kernel's inputs never change, so a slice's time measures only the
    machine at that moment.  Each operation is divided by the slices timed
    nearest to it (see README.md), which cancels much of that drift.
    """

    def __init__(self) -> None:
        import numpy as np

        self._np = np
        self._matrix = np.random.default_rng(0).standard_normal((160, 160))
        #: (wall-clock midpoint, seconds) of every slice, in time order
        self.samples: List[tuple] = []
        self.spent_s = 0.0

    def slice(self) -> None:
        """Time one slice of the kernel (~30 ms here)."""
        np, matrix = self._np, self._matrix
        started = time.time()
        start = time.perf_counter()
        for _ in range(60):
            matrix = np.tanh(matrix @ matrix.T / 160.0)
        total = 0
        for i in range(300_000):
            total += i * i % 7
        seconds = time.perf_counter() - start
        self.samples.append((started + seconds / 2, seconds))
        self.spent_s += seconds

    def behind(self, measured_s: float) -> bool:
        """Whether slices have taken less than CALIBRATION_SHARE of ``measured_s``."""
        return not self.samples or self.spent_s < CALIBRATION_SHARE * measured_s

    def keep_up(self, measured_s: float) -> None:
        while self.behind(measured_s):
            self.slice()

    def around(self, start: float, end: float) -> float:
        """Median slice time near the wall-clock interval ``[start, end]``."""
        length = end - start
        close = [s for t, s in self.samples if start - length <= t <= end + length]
        if len(close) < CALIBRATION_NEIGHBOURS:
            middle = (start + end) / 2
            nearest = sorted(self.samples, key=lambda sample: abs(sample[0] - middle))
            close = [s for _, s in nearest[:CALIBRATION_NEIGHBOURS]]
        return statistics.median(close)

    def median(self) -> float:
        return statistics.median(seconds for _, seconds in self.samples)


def _read_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _write_json(path: str, payload: object) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)


def read_cells(run_dir: str) -> Dict[str, dict]:
    """Every cell of a finished ``repro run`` directory, from its manifest."""
    manifest = _read_json(os.path.join(run_dir, "manifest.json"))
    cells = {}
    for cell_id, entry in manifest["cells"].items():
        cell = {"algorithm": entry["algorithm"], "status": entry["status"]}
        if entry["status"] == "done":
            payload = _read_json(os.path.join(run_dir, entry["result_file"]))
            cell["values"] = payload["result"]["values"]
            cell["evaluations"] = payload["result"]["utility_evaluations"]
        cells[cell_id] = cell
    return cells


def _quietly(call, *args):
    """Run ``call(*args)`` with the program's console output discarded."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
        io.StringIO()
    ):
        return call(*args)


class BatchWorkload:
    """``repro run`` over one task plan per operation (grid-cold/warm, large-n)."""

    def __init__(self, inputs: dict, out: str) -> None:
        self.inputs = inputs
        self.out = out
        self.tasks = inputs["tasks"]
        self.warm = inputs["workload"] == "grid-warm"
        self.reference = (
            _read_json(inputs["reference"])["cells"] if inputs.get("reference") else None
        )
        self.warm_dir = os.path.join(out, "warm")
        self.shared_store = os.path.join(self.warm_dir, "store.sqlite")
        self.cold_cells: Dict[str, list] = {}

    # -- set-up -------------------------------------------------------- #
    def setup(self) -> None:
        from repro.cli import main as repro_main
        from repro.experiments.config import sampling_rounds_for
        from repro.experiments.specs import TaskSpec
        from repro.store import open_store, utility_key

        self.repro_main = repro_main
        self.open_store = open_store
        self.utility_key = utility_key
        self.plans = []
        self.fingerprints = []
        plan_dir = os.path.join(self.out, "plans")
        os.makedirs(plan_dir, exist_ok=True)
        for index, task in enumerate(self.tasks):
            path = os.path.join(plan_dir, f"task-{index}.json")
            _write_json(
                path,
                {"name": f"task-{index}", "tasks": [task], "algorithms": self.inputs["algorithms"]},
            )
            self.plans.append(path)
            self.fingerprints.append(TaskSpec.from_dict(task).fingerprint())
        self.gammas = [sampling_rounds_for(task["n_clients"]) for task in self.tasks]
        if self.warm and os.path.exists(os.path.join(self.warm_dir, "cold_cells.json")):
            self.cold_cells = _read_json(os.path.join(self.warm_dir, "cold_cells.json"))

    def teardown(self) -> None:
        pass

    # -- operations ---------------------------------------------------- #
    def _argv(self, task_index: int, op_dir: str, store: str) -> List[str]:
        return [
            "run",
            "--config",
            self.plans[task_index],
            "--run-dir",
            os.path.join(op_dir, "run"),
            "--store",
            store,
            *self.inputs["flags"],
        ]

    def prefill(self) -> None:
        """Fill the grid-warm store with one cold pass over every task."""
        os.makedirs(self.warm_dir, exist_ok=True)
        for index in range(len(self.tasks)):
            op_dir = os.path.join(self.warm_dir, f"prefill-{index}")
            code = _quietly(self.repro_main, self._argv(index, op_dir, self.shared_store))
            if code != 0:
                raise RuntimeError(f"prefill of task {index} exited with {code}")
            for cell_id, cell in read_cells(os.path.join(op_dir, "run")).items():
                self.cold_cells[cell_id] = cell.get("values")
            shutil.rmtree(op_dir)
        _write_json(os.path.join(self.warm_dir, "cold_cells.json"), self.cold_cells)

    def run_op(self, index: int, tracer: Optional[Tracer]) -> dict:
        task_index = index % len(self.tasks)
        op_dir = os.path.join(self.out, "ops", f"op-{index}")
        store = self.shared_store if self.warm else os.path.join(op_dir, "store.sqlite")
        os.makedirs(op_dir, exist_ok=True)
        argv = self._argv(task_index, op_dir, store)
        op = {"task": task_index, "problems": [], "started": time.time()}
        cpu_start = time.process_time()
        start = time.perf_counter()
        try:
            if tracer is None:
                code = _quietly(self.repro_main, argv)
            else:
                with tracer.span("cli.main", trace=f"op-{index}"):
                    code = _quietly(self.repro_main, argv)
        except Exception:  # noqa: BLE001 - a failed op is counted, not fatal
            code = None
            op["problems"].append(traceback.format_exc(limit=3))
        op["wall_s"] = time.perf_counter() - start
        op["cpu_s"] = time.process_time() - cpu_start
        op["ended"] = time.time()
        if code == 0:
            run_dir = os.path.join(op_dir, "run")
            report = _read_json(os.path.join(run_dir, "summary.json"))
            op["fl_trainings"] = report["fl_trainings"]
            op["accounting"] = report["accounting"]
            cells = read_cells(run_dir)
            op["problems"] += self.check(task_index, cells, report, store)
            op["cells"] = {cid: cell.get("values") for cid, cell in cells.items()}
        elif code is not None:
            op["problems"].append(f"repro run exited with {code}")
        shutil.rmtree(op_dir)
        return op

    def check(self, task_index: int, cells: Dict[str, dict], report: dict, store: str) -> List[str]:
        problems = []
        if len(cells) != len(self.inputs["algorithms"]):
            problems.append(f"{len(cells)} cells, expected {len(self.inputs['algorithms'])}")
        done = {}
        for cell_id, cell in cells.items():
            if cell["status"] != "done":
                problems.append(f"{cell_id}: {cell['status']}")
                continue
            done[cell_id] = cell["values"]
            problems += checks.finite_problems(cell_id, cell["values"])
            if cell["algorithm"] == "IPSS":
                problems += checks.budget_problems(
                    cell_id, cell["evaluations"], self.gammas[task_index]
                )
            if cell["algorithm"] == "MC-Shapley":
                problems += self._efficiency(task_index, cell_id, cell["values"], store)
        if self.warm:
            if report["fl_trainings"] != 0:
                problems.append(f"warm pass trained {report['fl_trainings']} times")
            problems += checks.agreement_problems(done, self.cold_cells, atol=None)
        elif self.reference is not None:
            problems += checks.agreement_problems(done, self.reference)
        return problems

    def _efficiency(self, task_index: int, cell_id: str, values: list, path: str) -> List[str]:
        fingerprint = self.fingerprints[task_index]
        n = self.tasks[task_index]["n_clients"]
        with self.open_store(path) as store:
            grand = store.get(self.utility_key(fingerprint, range(n)))
            empty = store.get(self.utility_key(fingerprint, ()))
        return checks.efficiency_problems(cell_id, values, grand, empty)

    def measure(
        self, seconds: float, tracer: Optional[Tracer], calibration: Calibration
    ) -> dict:
        """Whole passes over the tasks for ``seconds`` and ``min_ops`` operations."""
        ops = []
        measured = 0.0
        start = time.perf_counter()
        while len(ops) < self.inputs["min_ops"] or time.perf_counter() - start < seconds:
            for _ in self.tasks:
                calibration.keep_up(measured)
                ops.append(self.run_op(len(ops), tracer))
                measured += ops[-1]["wall_s"]
        calibration.keep_up(measured)
        result = {
            "ops": [
                {
                    "task": op["task"],
                    "wall_s": op["wall_s"],
                    "cpu_s": op["cpu_s"],
                    "calib_s": calibration.around(op["started"], op["ended"]),
                    "problems": op["problems"],
                }
                for op in ops
            ],
            "cpu_s": sum(op["cpu_s"] for op in ops),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "fl_trainings": sum(op.get("fl_trainings", 0) for op in ops),
            "cells": {
                cid: values
                for op in ops[: len(self.tasks)]
                for cid, values in op.get("cells", {}).items()
            },
        }
        if tracer is not None:
            # Only spans under an operation: the checks between operations
            # read the store through the same wrapped methods.
            table = layer_table(tracer.threads, within="cli.main")
            wall = table["cli.main"]["busy_s"]
            lookups = served = 0
            for op in ops:
                accounting = op.get("accounting", {})
                served += accounting.get("cache_hits", 0) + accounting.get("store_hits", 0)
                lookups += accounting.get("evaluations", 0)
            lookups += served
            result["layers"] = table
            result["per_layer"] = summary.per_layer(
                table,
                tracer.counts,
                wall,
                unattributed(table, "cli.main")[1],
                tracer.span_count() * wrapper_cost() / wall,
                result["fl_trainings"],
                served / lookups if lookups else 0.0,
                0.0,
            )
            tracer.dump(os.path.join(self.out, "spans.jsonl"))
        return result


class _Connection:
    """One keep-alive HTTP/1.1 connection to the service, JSON in and out."""

    def __init__(self, host: str, port: int) -> None:
        self._connection = http.client.HTTPConnection(host, port, timeout=30)

    def request(self, method: str, path: str, payload: Optional[dict] = None) -> dict:
        body = None if payload is None else json.dumps(payload).encode("utf-8")
        headers = {} if body is None else {"Content-Type": "application/json"}
        self._connection.request(method, path, body=body, headers=headers)
        response = self._connection.getresponse()
        data = json.loads(response.read() or b"{}")
        if response.status >= 400:
            raise RuntimeError(f"{method} {path}: HTTP {response.status}: {data}")
        return data

    def close(self) -> None:
        self._connection.close()


def _proc_cpu_s(pid: int) -> float:
    """User + system CPU seconds of a live process, from /proc."""
    with open(f"/proc/{pid}/stat", "r", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _proc_peak_rss_mb(pid: int) -> float:
    """High-water resident set (VmHWM) of a live process, in MiB."""
    with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc status")


class ServiceWorkload:
    """``repro serve`` in a subprocess under an open loop of job submissions."""

    def __init__(self, inputs: dict, out: str, trace: bool) -> None:
        self.inputs = inputs
        self.out = out
        self.state_dir = os.path.join(out, "state")
        self.trace_file = os.path.join(out, "server-spans.jsonl") if trace else None
        self.server: Optional[subprocess.Popen] = None
        self.log = None

    def setup(self) -> None:
        from repro.cli import main as repro_main

        self.repro_main = repro_main
        here = os.path.dirname(os.path.abspath(__file__))
        command = [sys.executable, os.path.join(here, "serve.py")]
        if self.trace_file:
            command += ["--trace-out", self.trace_file]
        command += [self.state_dir, "--port", "0", "--workers", str(self.inputs["workers"])]
        self.log = open(os.path.join(self.out, "server.log"), "wb")
        self.server = subprocess.Popen(command, stdout=subprocess.PIPE, stderr=self.log)
        ready, _, _ = select.select([self.server.stdout], [], [], SERVER_START_TIMEOUT)
        banner = self.server.stdout.readline() if ready else b""
        if not banner:
            raise RuntimeError("repro serve printed no banner")
        self.port = json.loads(banner)["port"]
        self.connection = _Connection("127.0.0.1", self.port)
        health = self.connection.request("GET", "/healthz")
        if health.get("status") != "ok":
            raise RuntimeError(f"unhealthy service: {health}")

    def teardown(self) -> Optional[str]:
        """Stop the server gracefully; returns a problem if it would not stop."""
        # A SIGTERM arriving now must not abandon the server half-stopped.
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        problem = None
        if getattr(self, "connection", None) is not None:
            self.connection.close()
        if self.server is not None and self.server.poll() is None:
            self.server.send_signal(signal.SIGINT)
            try:
                self.server.wait(timeout=SERVER_STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                problem = "server did not stop on SIGINT"
                self.server.kill()
                self.server.wait()
        if self.server is not None:
            self.server.stdout.close()
        if self.log is not None:
            self.log.close()
        return problem

    def _poll(self, tracer: Optional[Tracer]) -> Dict[str, dict]:
        if tracer is None:
            listing = self.connection.request("GET", "/v1/jobs")
        else:
            with tracer.span("service.http_poll"):
                listing = self.connection.request("GET", "/v1/jobs")
        return {record["job_id"]: record for record in listing["jobs"]}

    def measure(
        self, seconds: float, tracer: Optional[Tracer], calibration: Calibration
    ) -> dict:
        jobs = self.inputs["jobs"]
        interval = 1.0 / self.inputs["rate"]
        pid = self.server.pid
        cpu_before = _proc_cpu_s(pid)
        t0 = time.time() + 0.05
        job_ids: List[str] = []
        lags: List[float] = []
        submits: List[float] = []
        for index, job in enumerate(jobs):
            # Completion times come from the job records, so the loop does
            # not poll while submitting: listing every job would delay sends.
            due = t0 + index * interval
            wait = due - time.time()
            while wait > 0:
                earliest, latest = SLICE_BEFORE_SEND_S
                if earliest < wait < latest and calibration.behind(time.time() - t0):
                    calibration.slice()
                else:
                    time.sleep(min(wait, 0.002))
                wait = due - time.time()
            lags.append(time.time() - due)
            sent = time.perf_counter()
            if tracer is None:
                record = self.connection.request("POST", "/v1/jobs", job["spec"])
            else:
                with tracer.span("service.http_submit"):
                    record = self.connection.request("POST", "/v1/jobs", job["spec"])
            submits.append(time.perf_counter() - sent)
            job_ids.append(record["job_id"])
        deadline = time.time() + DRAIN_TIMEOUT
        while True:
            records = self._poll(tracer)
            pending = [j for j in job_ids if records[j]["status"] in ("queued", "running")]
            if not pending or time.time() > deadline:
                break
            time.sleep(POLL_INTERVAL)
        window_s = time.time() - t0
        cpu_s = _proc_cpu_s(pid) - cpu_before
        peak_rss_mb = _proc_peak_rss_mb(pid)

        ops = [{"wall_s": None, "problems": []} for _ in jobs]
        values: Dict[int, list] = {}
        queue_waits = []
        for index, job_id in enumerate(job_ids):
            op = ops[index]
            record = self.connection.request("GET", f"/v1/jobs/{job_id}")
            if record["status"] != "done":
                op["problems"].append(f"{job_id}: {record['status']}")
                continue
            values[index] = record["result"]["result"]["values"]
            due = t0 + index * interval
            op["wall_s"] = record["finished_at"] - due
            queue_waits.append(record["started_at"] - record["submitted_at"])
            op["problems"] += checks.finite_problems(job_id, values[index])
            original = jobs[index]["duplicate_of"]
            if original is not None:
                if record["fl_trainings"] != 0:
                    op["problems"].append(
                        f"{job_id}: duplicate trained {record['fl_trainings']} times"
                    )
                if values.get(original) != values[index]:
                    op["problems"].append(f"{job_id}: differs from its original")
        trainings = sum(records[j]["fl_trainings"] for j in job_ids)
        store_hits = sum(records[j]["store_hits"] for j in job_ids)

        stop_problem = self.teardown()
        run_problems = [stop_problem] if stop_problem else []
        from repro.service.jobs import JobStore

        with JobStore(self.state_dir) as store:
            total, distinct = store.training_counts()
        if total != distinct:
            run_problems.append(f"ledger has {total} rows for {distinct} trainings")

        result = {
            "ops": ops,
            "run_problems": run_problems,
            "cpu_s": cpu_s,
            "peak_rss_mb": peak_rss_mb,
            "fl_trainings": trainings,
            "service": {
                "jobs": len(jobs),
                "window_s": window_s,
                "lag_max_s": max(lags),
                "http_submit_s": submits,
                "queue_wait_s": queue_waits,
                "ledger": [total, distinct],
            },
        }
        if tracer is not None:
            # Taken before the recomputation below, which runs in this
            # process and would otherwise add its spans.
            result.update(self._layers(tracer, window_s, records, job_ids, trainings, store_hits))
        for index in self.inputs["recompute"]:
            if index in values:
                ops[index]["problems"] += self._recompute(index, values[index])
        for index, op in enumerate(ops):
            if op["wall_s"] is not None:
                due = t0 + index * interval
                op["calib_s"] = calibration.around(due, due + op["wall_s"])
        return result

    def _layers(
        self,
        tracer: Tracer,
        window_s: float,
        records: Dict[str, dict],
        job_ids: List[str],
        trainings: int,
        store_hits: int,
    ) -> dict:
        """Per-layer results over the client's and the server's spans."""
        threads = list(tracer.threads)
        counts = dict(tracer.counts)
        if os.path.exists(self.trace_file):
            threads += load(self.trace_file)
            for name, amount in _read_json(self.trace_file + ".counts.json").items():
                counts[name] = counts.get(name, 0) + amount
        table = layer_table(threads)
        # The service's unattributed time: job run time (claim to finish)
        # that no run_job span covers.
        run_job = table.get("service.run_job", {"busy_s": 0.0})["busy_s"]
        running = sum(
            records[j]["finished_at"] - records[j]["started_at"]
            for j in job_ids
            if records[j]["finished_at"] is not None
        )
        queue_wait = sum(
            records[j]["started_at"] - records[j]["submitted_at"]
            for j in job_ids
            if records[j]["started_at"] is not None
        )
        latency = sum(
            records[j]["finished_at"] - records[j]["submitted_at"]
            for j in job_ids
            if records[j]["finished_at"] is not None
        )
        tracer.dump(os.path.join(self.out, "client-spans.jsonl"))
        spans_total = sum(len(spans) for _, spans in threads)
        return {
            "layers": table,
            "per_layer": summary.per_layer(
                table,
                counts,
                window_s,
                max(0.0, 1.0 - run_job / running) if running else 0.0,
                spans_total * wrapper_cost() / window_s,
                trainings,
                store_hits / (store_hits + trainings) if store_hits + trainings else 0.0,
                queue_wait / latency if latency else 0.0,
            ),
        }

    def _recompute(self, index: int, served: list) -> List[str]:
        """Value one job's task directly with ``repro run`` and compare."""
        spec = self.inputs["jobs"][index]["spec"]
        task = spec["task"]
        run_dir = os.path.join(self.out, "recompute", f"job-{index}")
        argv = [
            "run",
            "--run-dir",
            run_dir,
            "--task",
            task["kind"],
            "--setup",
            task["setup"],
            "--model",
            task["model"],
            "--n-clients",
            str(task["n_clients"]),
            "--scale",
            task["scale"],
            "--seed",
            str(task["seed"]),
            "--algorithms",
            spec["algorithm"],
            "--backend",
            spec["backend"],
        ]
        code = _quietly(self.repro_main, argv)
        if code != 0:
            return [f"job {index}: direct run exited with {code}"]
        direct = {cid: cell.get("values") for cid, cell in read_cells(run_dir).items()}
        shutil.rmtree(run_dir)
        return checks.agreement_problems({"served": served}, {"served": next(iter(direct.values()))})


def host_info() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"numpy": np.__version__, "blas": blas, "python": platform.python_version()}


def _exit_on_signal(signum: int, frame: object) -> None:
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    # Turn SIGTERM into an exception, so teardown still stops the server.
    signal.signal(signal.SIGTERM, _exit_on_signal)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("inputs", help="inputs.json written by run.py")
    parser.add_argument("out", help="directory for everything this process writes")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--probe", action="store_true", help="set up, report READY, exit")
    mode.add_argument("--prefill", action="store_true", help="fill the grid-warm store")
    parser.add_argument("--trace", action="store_true", help="record layer spans")
    args = parser.parse_args(argv)

    inputs = _read_json(args.inputs)
    if inputs["workload"] == "service-steady":
        workload = ServiceWorkload(inputs, args.out, args.trace)
    else:
        workload = BatchWorkload(inputs, args.out)
    try:
        workload.setup()
        print(READY, flush=True)
        if args.probe:
            return 0
        if args.prefill:
            workload.prefill()
            return 0
        calibration = Calibration()
        tracer = None
        if args.trace:
            from instrument import install

            tracer = Tracer()
            install(tracer)
        result = workload.measure(inputs["seconds"], tracer, calibration)
    finally:
        workload.teardown()
    result["calib_s"] = calibration.median()
    result["calib_slices"] = len(calibration.samples)
    result["host"] = host_info()
    _write_json(os.path.join(args.out, "result.json"), result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
