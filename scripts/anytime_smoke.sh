#!/usr/bin/env bash
# Anytime-valuation smoke gate (shared by scripts/smoke.sh and CI):
#
# 1. a full-budget IPSS run on the paper's n=10 / γ=32 grid, store-backed;
# 2. the same cell with `--stop-on rank:1` must stop with STRICTLY fewer
#    oracle evaluations while reproducing the full-budget ranking exactly;
# 3. a run interrupted inside IPSS's phase 2 (chunk 3: chunks 1-2 are the
#    exhaustive strata) must leave a `state_format` 2 checkpoint carrying
#    the sample's draw state (`partial_draw`), then resume from it in a fresh
#    process (`repro resume`), perform ZERO extra FL trainings against the
#    warm store, and land on bitwise-identical values.
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

# Interrupt a fresh run of the same cell inside phase 2 (the warm store means
# the partial run itself trains nothing), then finish it with `repro resume`.
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

with open_store(f"{smoke_dir}/store.sqlite") as store:
    try:
        run_plan(plan, f"{smoke_dir}/resume", store=store, on_snapshot=interrupt)
    except KeyboardInterrupt:
        pass
    else:
        raise AssertionError("the interrupted run was expected to stop mid-cell")
checkpoints = os.path.join(smoke_dir, "resume", CHECKPOINTS_DIR)
(name,) = os.listdir(checkpoints)
state = json.load(open(os.path.join(checkpoints, name)))
payload = state["payload"]
assert state["state_format"] == 2, state["state_format"]
assert payload["partial_draw"] is not None and "partial" not in payload, payload
assert 0 < payload["partial_evaluated"] < payload["partial_count"], payload
print(
    "anytime smoke: run interrupted in phase 2 "
    f"({payload['partial_evaluated']} of {payload['partial_count']} sampled), "
    "format-2 checkpoint with the draw state on disk"
)
EOF

PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} $CLI resume \
    --run-dir "$SMOKE_DIR/resume" --store "$SMOKE_DIR/store.sqlite" --json \
    > "$SMOKE_DIR/resumed.json"

python - "$SMOKE_DIR" <<'EOF'
import json, os, sys

smoke_dir = sys.argv[1]
resumed = json.load(open(os.path.join(smoke_dir, "resumed.json")))
assert resumed["cells_continued"] == 1, (
    f"resume should continue inside the interrupted cell: {resumed}"
)
assert resumed["fl_trainings"] == 0, (
    f"resumed run retrained {resumed['fl_trainings']} coalitions; "
    "the warm store should have served them all"
)

def values(run):
    results = os.path.join(smoke_dir, run, "results")
    (name,) = os.listdir(results)
    return json.load(open(os.path.join(results, name)))["result"]["values"]

assert values("resume") == values("full"), "resumed values diverged from full run"
print(
    f"anytime smoke (resume) ok: continued mid-cell, 0 trainings "
    f"(store_hits={resumed['store_hits']}), values bitwise-identical"
)
EOF
