#!/usr/bin/env bash
# Fleet smoke gate (shared by scripts/smoke.sh and CI): run a tiny task via
# `repro run --backend fleet` with two spawned workers, SIGKILL one of them
# mid-run, and assert the run still completes with values identical to a
# serial reference and **zero duplicated trainings** in the queue's ledger
# (COUNT(*) == COUNT(DISTINCT key) — lease expiry requeues the dead
# worker's batch, the store dedupes everything already deposited).
set -euo pipefail
cd "$(dirname "$0")/.."

SMOKE_DIR=$(mktemp -d)
RUN_PID=""
cleanup() {
    # Never delete the queue out from under a still-running coordinator.
    [ -n "$RUN_PID" ] && kill "$RUN_PID" 2>/dev/null && wait "$RUN_PID" 2>/dev/null
    rm -rf "$SMOKE_DIR"
}
trap cleanup EXIT
CLI="python -m repro.cli"
TASK_FLAGS="--task adult --model logistic --n-clients 5 --scale tiny --seed 0"
export PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH}

# 1. Serial reference run.
$CLI run --run-dir "$SMOKE_DIR/run-serial" --store "$SMOKE_DIR/store-serial.sqlite" \
    $TASK_FLAGS --json > "$SMOKE_DIR/serial.json"

# 2. The same plan on the fleet backend, two workers, short leases so the
#    killed worker's batch requeues quickly.
$CLI run --run-dir "$SMOKE_DIR/run-fleet" --store "$SMOKE_DIR/store-fleet.sqlite" \
    --backend fleet --queue-dir "$SMOKE_DIR/queue" --spawn-workers 2 \
    --lease-seconds 3 $TASK_FLAGS --json > "$SMOKE_DIR/fleet.json" &
RUN_PID=$!

# 3. Wait until a worker holds a lease, then SIGKILL it mid-batch.
VICTIM=$(python - "$SMOKE_DIR/queue" <<'EOF'
import sys, time
from repro.fleet.queue import LeaseQueue

queue_dir = sys.argv[1]
deadline = time.monotonic() + 90
while time.monotonic() < deadline:
    with LeaseQueue(queue_dir) as queue:
        pids = {w["worker_id"]: w["pid"] for w in queue.workers()}
        owners = queue.lease_owners()
        if owners and pids.get(owners[0]):
            print(pids[owners[0]])
            sys.exit(0)
    time.sleep(0.02)
sys.exit(3)
EOF
) || { echo "fleet smoke: never caught a worker holding a lease" >&2; exit 1; }

kill -9 "$VICTIM" 2>/dev/null || true
echo "fleet smoke: SIGKILLed worker pid $VICTIM mid-lease"

# 4. The run must still finish cleanly.
wait "$RUN_PID"
RUN_PID=""

# 5. Values identical to serial; ledger shows zero duplicated trainings.
python - "$SMOKE_DIR/serial.json" "$SMOKE_DIR/fleet.json" "$SMOKE_DIR/queue" <<'EOF'
import json, sys
from repro.fleet.queue import LeaseQueue

serial = json.load(open(sys.argv[1]))
fleet = json.load(open(sys.argv[2]))
errors = lambda report: {
    row["algorithm"]: row["error_l2"]
    for row in report["rows"]
    if row.get("status") == "done"
}
assert errors(serial), "serial reference produced no finished rows"
assert errors(fleet) == errors(serial), (
    f"fleet run changed values: {errors(fleet)} != {errors(serial)}"
)
with LeaseQueue(sys.argv[3]) as queue:
    total, distinct = queue.training_counts()
assert total > 0, "fleet run trained nothing"
assert total == distinct, f"{total - distinct} duplicated trainings in the ledger"
print(
    f"fleet smoke ok: worker killed mid-run, values match serial, "
    f"{total} trainings, 0 duplicated"
)
EOF
