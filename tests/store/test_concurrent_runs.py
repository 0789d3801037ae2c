"""Several ``repro run`` processes share one SQLite store.

This is how a campaign spreads over processes: each process runs a disjoint
plan, and all of them read and write one store file.  Each run must value
exactly what it values alone, and a rerun of every plan against the shared
store must train nothing.
"""

import json
import os
import subprocess
import sys

import repro
from repro.store import open_store

ALGORITHMS = "MC-Shapley,IPSS"
#: two different tasks, so the runs write disjoint store namespaces
TASKS = {
    "a": ["--task", "synthetic", "--setup", "same-size-same-distribution"],
    "b": ["--task", "synthetic", "--setup", "different-size-same-distribution"],
}


def start_run(run_dir, store, task):
    """One ``repro run`` subprocess of ``task`` against ``store``."""
    source_root = os.path.dirname(os.path.dirname(repro.__file__))
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": source_root + (os.pathsep + path if path else "")}
    argv = [
        sys.executable, "-m", "repro.cli", "run",
        "--run-dir", str(run_dir), "--store", str(store),
        *TASKS[task], "--n-clients", "4", "--scale", "tiny",
        "--algorithms", ALGORITHMS, "--backend", "vectorized",
        "--no-telemetry", "--json",
    ]
    return subprocess.Popen(
        argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    )


def finish(process):
    """``(fl_trainings, {cell: values})`` of a finished run."""
    out, err = process.communicate(timeout=300)
    assert process.returncode == 0, err
    report = json.loads(out)
    run_dir = report["run_dir"]
    with open(os.path.join(run_dir, "manifest.json"), encoding="utf-8") as handle:
        cells = json.load(handle)["cells"]
    values = {}
    for cell, entry in cells.items():
        assert entry["status"] == "done", cell
        with open(os.path.join(run_dir, entry["result_file"]), encoding="utf-8") as handle:
            values[cell] = json.load(handle)["result"]["values"]
    return report["fl_trainings"], values


def run_together(tmp_path, label, store):
    processes = {
        task: start_run(tmp_path / f"{label}-{task}", store, task) for task in TASKS
    }
    return {task: finish(process) for task, process in processes.items()}


def test_concurrent_runs_share_one_store(tmp_path):
    solo = {
        task: finish(start_run(tmp_path / f"solo-{task}", tmp_path / f"solo-{task}.sqlite", task))
        for task in TASKS
    }
    shared = tmp_path / "shared.sqlite"

    together = run_together(tmp_path, "together", shared)
    for task in TASKS:
        trainings, values = together[task]
        assert values == solo[task][1], task
        assert trainings == solo[task][0] > 0, task
    entries = 0
    for task in TASKS:
        with open_store(str(tmp_path / f"solo-{task}.sqlite")) as store:
            entries += len(store)
    with open_store(str(shared)) as store:
        assert len(store) == entries

    rerun = run_together(tmp_path, "rerun", shared)
    for task in TASKS:
        trainings, values = rerun[task]
        assert trainings == 0, task
        assert values == solo[task][1], task
