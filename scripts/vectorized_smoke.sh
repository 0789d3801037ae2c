#!/usr/bin/env bash
# Vectorized-backend parity smoke: the vectorized executor must produce the
# same utilities and the same training counts as the serial executor on a
# real FL task, and must actually engage (no silent fallback).  Kept tiny so
# CI pays a few seconds, not a benchmark run.
set -euo pipefail
cd "$(dirname "$0")/.."

PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python - <<'PY'
import numpy as np

from repro.core import IPSS
from repro.experiments.config import ExperimentScale, sampling_rounds_for
from repro.experiments.tasks import build_synthetic_task
from repro.fl.vectorized import PARITY_ATOL


def run(backend):
    utility = build_synthetic_task(
        "same-size-same-distribution",
        n_clients=6,
        model="mlp",
        scale=ExperimentScale.tiny(),
        seed=0,
    )
    utility.set_executor(backend)
    values = IPSS(total_rounds=sampling_rounds_for(6), seed=0).run(utility, 6).values
    return values, utility.evaluations, utility


serial_values, serial_evals, _ = run("serial")
vector_values, vector_evals, utility = run("vectorized")

assert utility.executor.last_fallback_reason is None, (
    f"vectorized backend fell back: {utility.executor.last_fallback_reason}"
)
# Gate on the documented cross-BLAS guarantee (docs/performance.md); the unit
# suite additionally pins bitwise equality for the build it runs on.
assert np.allclose(serial_values, vector_values, rtol=0, atol=PARITY_ATOL), (
    f"parity violation:\n  serial     {serial_values}\n  vectorized {vector_values}"
)
assert serial_evals == vector_evals, (serial_evals, vector_evals)
max_diff = float(np.max(np.abs(serial_values - vector_values)))
print(
    f"vectorized smoke ok: {vector_evals} trainings, "
    f"max |serial - vectorized| = {max_diff:.1e} (atol {PARITY_ATOL})"
)
PY
