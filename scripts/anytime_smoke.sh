#!/usr/bin/env bash
# Anytime-valuation smoke gate (shared by scripts/smoke.sh and CI):
#
# 1. a full-budget IPSS run on the paper's n=10 / γ=32 grid, store-backed;
# 2. the same cell with `--stop-on rank:1` must stop with STRICTLY fewer
#    oracle evaluations while reproducing the full-budget ranking exactly;
# 3. cold: a run on its own fresh store, interrupted inside IPSS's phase 2
#    (chunk 3: chunks 1-2 are the exhaustive strata), must leave a
#    `state_format` 2 checkpoint carrying the sample's draw state
#    (`partial_draw`); resumed in a fresh process (`repro resume`) it must
#    continue inside the cell, pay exactly the trainings the interrupted run
#    left unpaid, and land on bitwise-identical values;
# 4. warm: the same interrupt against the filled store trains nothing, so it
#    must leave NO checkpoint; its resume must perform ZERO FL trainings and
#    land on bitwise-identical values.
set -euo pipefail
cd "$(dirname "$0")/.."

SMOKE_DIR=$(mktemp -d)
trap 'rm -rf "$SMOKE_DIR"' EXIT
CLI="python -m repro.cli"
TASK_FLAGS="--task synthetic --setup different-size-same-distribution --model mlp \
    --n-clients 10 --scale tiny --seed 1 --algorithms IPSS"

PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} $CLI run \
    --run-dir "$SMOKE_DIR/full" --store "$SMOKE_DIR/store.sqlite" $TASK_FLAGS --json \
    > "$SMOKE_DIR/full.json"
# Separate store: the stopped run's trainings must measure its own demand.
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} $CLI run \
    --run-dir "$SMOKE_DIR/stop" --store "$SMOKE_DIR/store_stop.sqlite" $TASK_FLAGS \
    --stop-on rank:1 --json > "$SMOKE_DIR/stop.json"

python - "$SMOKE_DIR" <<'EOF'
import json, os, sys
import numpy as np

smoke_dir = sys.argv[1]
full = json.load(open(os.path.join(smoke_dir, "full.json")))
stop = json.load(open(os.path.join(smoke_dir, "stop.json")))

def cell(run):
    results = os.path.join(smoke_dir, run, "results")
    (name,) = os.listdir(results)
    return json.load(open(os.path.join(results, name)))["result"]

full_cell, stop_cell = cell("full"), cell("stop")
assert full["fl_trainings"] > 0
assert 0 < stop["fl_trainings"] < full["fl_trainings"], (
    f"converged run must train strictly less: {stop['fl_trainings']} "
    f"vs {full['fl_trainings']}"
)
assert stop_cell["metadata"]["stopped_early"] is True, stop_cell["metadata"]
full_rank = np.argsort(-np.asarray(full_cell["values"])).tolist()
stop_rank = np.argsort(-np.asarray(stop_cell["values"])).tolist()
assert stop_rank == full_rank, f"ranking diverged: {stop_rank} vs {full_rank}"
print(
    f"anytime smoke (convergence) ok: stopped at {stop_cell['utility_evaluations']} "
    f"of {full_cell['utility_evaluations']} evaluations "
    f"({stop_cell['metadata']['stopped_by']}), ranking reproduced"
)
EOF

# Interrupt the same cell inside phase 2 twice, then finish each run with
# `repro resume`: "cold" on a fresh store of its own, "warm" against the
# store the full run filled.
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python - "$SMOKE_DIR" <<'EOF'
import json, os, sys
from repro.experiments.pipeline import CHECKPOINTS_DIR, ExperimentPlan, run_plan
from repro.experiments.specs import TaskSpec
from repro.store import open_store

smoke_dir = sys.argv[1]
spec = TaskSpec(
    kind="synthetic", setup="different-size-same-distribution",
    model="mlp", n_clients=10, scale="tiny", seed=1,
)
plan = ExperimentPlan(tasks=(spec,), algorithms=("IPSS",))

def interrupt(spec, algorithm, snapshot):
    if snapshot.chunk_index == 3:
        raise KeyboardInterrupt

def interrupted_run(run, store_path):
    with open_store(store_path) as store:
        try:
            run_plan(plan, f"{smoke_dir}/{run}", store=store, on_snapshot=interrupt)
        except KeyboardInterrupt:
            pass
        else:
            raise AssertionError("the interrupted run was expected to stop mid-cell")
    checkpoints = os.path.join(smoke_dir, run, CHECKPOINTS_DIR)
    return sorted(os.listdir(checkpoints)) if os.path.isdir(checkpoints) else []

(name,) = interrupted_run("cold", f"{smoke_dir}/store_cold.sqlite")
state = json.load(open(os.path.join(smoke_dir, "cold", CHECKPOINTS_DIR, name)))
payload = state["payload"]
assert state["state_format"] == 2, state["state_format"]
assert payload["partial_draw"] is not None and "partial" not in payload, payload
assert 0 < payload["partial_evaluated"] < payload["partial_count"], payload
assert state["evaluations"] > 0, state["evaluations"]
with open(os.path.join(smoke_dir, "cold_paid.json"), "w") as handle:
    json.dump({"trainings": state["evaluations"]}, handle)
print(
    "anytime smoke: cold run interrupted in phase 2 "
    f"({payload['partial_evaluated']} of {payload['partial_count']} sampled, "
    f"{state['evaluations']} trainings paid), "
    "format-2 checkpoint with the draw state on disk"
)

leftover = interrupted_run("warm", f"{smoke_dir}/store.sqlite")
assert leftover == [], f"a warm interrupt trained nothing but left {leftover}"
print("anytime smoke: warm run interrupted in phase 2, no checkpoint written")
EOF

for run in cold warm; do
    store="$SMOKE_DIR/store.sqlite"
    if [ "$run" = cold ]; then store="$SMOKE_DIR/store_cold.sqlite"; fi
    PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} $CLI resume \
        --run-dir "$SMOKE_DIR/$run" --store "$store" --json \
        > "$SMOKE_DIR/resumed_$run.json"
done

python - "$SMOKE_DIR" <<'EOF'
import json, os, sys

smoke_dir = sys.argv[1]
full = json.load(open(os.path.join(smoke_dir, "full.json")))
cold = json.load(open(os.path.join(smoke_dir, "resumed_cold.json")))
warm = json.load(open(os.path.join(smoke_dir, "resumed_warm.json")))
paid = json.load(open(os.path.join(smoke_dir, "cold_paid.json")))["trainings"]

def values(run):
    results = os.path.join(smoke_dir, run, "results")
    (name,) = os.listdir(results)
    return json.load(open(os.path.join(results, name)))["result"]["values"]

assert cold["cells_continued"] == 1, (
    f"cold resume should continue inside the interrupted cell: {cold}"
)
assert paid + cold["fl_trainings"] == full["fl_trainings"], (
    f"the cold run paid {paid} + {cold['fl_trainings']} trainings, "
    f"the uninterrupted run {full['fl_trainings']}"
)
assert values("cold") == values("full"), "cold resumed values diverged from full run"
print(
    f"anytime smoke (cold resume) ok: continued mid-cell, {paid} + "
    f"{cold['fl_trainings']} = {full['fl_trainings']} trainings, "
    "values bitwise-identical"
)

assert warm["fl_trainings"] == 0, (
    f"warm resume retrained {warm['fl_trainings']} coalitions; "
    "the warm store should have served them all"
)
assert values("warm") == values("full"), "warm resumed values diverged from full run"
print(
    f"anytime smoke (warm resume) ok: 0 trainings "
    f"(store_hits={warm['store_hits']}), values bitwise-identical"
)
EOF
