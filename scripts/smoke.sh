#!/usr/bin/env bash
# Local mirror of the CI gates: static contract check (see scripts/lint.sh)
# + full test suite + the end-to-end benchmark harness tests
# (benchmarks/e2e) + benchmark collection
# + the persistent-store CLI smoke (see scripts/store_smoke.sh) + the
# scenario-robustness CLI smoke (see scripts/scenario_smoke.sh) + the
# vectorized-backend parity smoke (see scripts/vectorized_smoke.sh) + the
# anytime-valuation smoke (see scripts/anytime_smoke.sh) + the
# large-federation smoke (see scripts/large_n_smoke.sh) + the
# telemetry-neutrality smoke (see scripts/telemetry_smoke.sh) + the
# valuation-service crash smoke (see scripts/service_smoke.sh).
set -euo pipefail
cd "$(dirname "$0")/.."

bash scripts/lint.sh
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -x -q
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest benchmarks/e2e -q
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest benchmarks/ --collect-only -q -o python_files='bench_*.py'
bash scripts/store_smoke.sh
bash scripts/scenario_smoke.sh
bash scripts/vectorized_smoke.sh
bash scripts/anytime_smoke.sh
bash scripts/large_n_smoke.sh
bash scripts/telemetry_smoke.sh
bash scripts/service_smoke.sh
