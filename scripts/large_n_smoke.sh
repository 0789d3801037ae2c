#!/usr/bin/env bash
# Large-federation smoke gate (shared by scripts/smoke.sh and CI):
#
# 1. the tracemalloc memory-regression tests: planning/sampling a stratum at
#    n=500 must allocate O(batch), never anything 2^n-shaped;
# 2. an end-to-end n=100 IPSS CLI run under a tight budget with CI-width
#    stopping (`--stop-on ci:...`) must complete, stop early, and spend
#    strictly fewer FL trainings than the budget γ allows;
# 3. the same run interrupted at a phase-2 chunk (before the stop) and
#    finished by `repro resume` in a new process must land on step 2's
#    values, stderr, stopping rule and evaluation count, bitwise: the
#    resumed process redraws the phase-2 sample and rebuilds its fold.
set -euo pipefail
cd "$(dirname "$0")/.."

SMOKE_DIR=$(mktemp -d)
trap 'rm -rf "$SMOKE_DIR"' EXIT
CLI="python -m repro.cli"

PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -q \
    tests/core/test_plans.py::TestMemoryRegression

PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} $CLI run \
    --run-dir "$SMOKE_DIR/large" \
    --task synthetic --setup same-size-same-distribution --model mlp \
    --n-clients 100 --scale tiny --seed 1 --algorithms IPSS \
    --stop-on ci:0.01 --json > "$SMOKE_DIR/large.json"

python - "$SMOKE_DIR" <<'EOF'
import json, os, sys

smoke_dir = sys.argv[1]
report = json.load(open(os.path.join(smoke_dir, "large.json")))
results = os.path.join(smoke_dir, "large", "results")
(name,) = os.listdir(results)
cell = json.load(open(os.path.join(results, name)))["result"]

n = 100
gamma = 461  # ⌈100·ln 100⌉, the runner's default budget for n=100
assert len(cell["values"]) == n, f"expected {n} values, got {len(cell['values'])}"
assert report["fl_trainings"] > 0
assert cell["metadata"].get("stopped_early") is True, cell["metadata"]
assert cell["utility_evaluations"] < gamma, (
    f"CI stopping saved nothing: {cell['utility_evaluations']} of {gamma}"
)
print(
    f"large-n smoke ok: n={n} IPSS valued in {cell['utility_evaluations']} "
    f"of {gamma} evaluations ({cell['metadata']['stopped_by']}), "
    "O(batch) planning verified at n=500"
)
EOF

# Interrupt step 2's run at chunk 9: chunks 1-2 are the exhaustive strata,
# 3 onwards the balanced phase-2 sample, and the rule fires at chunk 16.
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python - "$SMOKE_DIR" <<'EOF'
import os, sys
from repro.core.anytime import parse_stopping_rule
from repro.experiments.pipeline import CHECKPOINTS_DIR, ExperimentPlan, run_plan
from repro.experiments.specs import TaskSpec

smoke_dir = sys.argv[1]
spec = TaskSpec(
    kind="synthetic", setup="same-size-same-distribution",
    model="mlp", n_clients=100, scale="tiny", seed=1,
)
plan = ExperimentPlan(tasks=(spec,), algorithms=("IPSS",))

def interrupt(spec, algorithm, snapshot):
    if snapshot.chunk_index == 9:
        assert snapshot.stderr is not None, "chunk 9 must be in phase 2"
        raise KeyboardInterrupt

try:
    run_plan(
        plan, f"{smoke_dir}/cut", stop_rule=parse_stopping_rule("ci:0.01"),
        on_snapshot=interrupt,
    )
except KeyboardInterrupt:
    pass
else:
    raise AssertionError("the interrupted run was expected to stop mid-cell")
assert os.listdir(os.path.join(smoke_dir, "cut", CHECKPOINTS_DIR))
EOF

PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} $CLI resume \
    --run-dir "$SMOKE_DIR/cut" --stop-on ci:0.01 --json > "$SMOKE_DIR/cut.json"

python - "$SMOKE_DIR" <<'EOF'
import json, os, sys

smoke_dir = sys.argv[1]

def cell(run):
    results = os.path.join(smoke_dir, run, "results")
    (name,) = os.listdir(results)
    return json.load(open(os.path.join(results, name)))["result"]

resumed = json.load(open(os.path.join(smoke_dir, "cut.json")))
assert resumed["cells_continued"] == 1, resumed
full, cut = cell("large"), cell("cut")
# Compared as JSON text: float reprs round-trip, and NaN equals NaN.
for key in ("values", "stderr", "utility_evaluations"):
    assert json.dumps(cut[key]) == json.dumps(full[key]), (
        f"resumed {key} diverged from the uninterrupted run"
    )
assert cut["metadata"]["stopped_by"] == full["metadata"]["stopped_by"], (
    cut["metadata"], full["metadata"]
)
print(
    "large-n smoke (phase-2 resume) ok: interrupted at chunk 9, resumed in a "
    f"new process, stopped by {cut['metadata']['stopped_by']} after "
    f"{cut['utility_evaluations']} evaluations, values and stderr bitwise"
)
EOF
