"""Batched coalition-evaluation engine.

Per-coalition FL training (the paper's cost τ) dominates every valuation
algorithm, yet the algorithms themselves mostly *pre-enumerate* the coalitions
they need.  This package turns that structure into throughput:

* :class:`BatchUtilityOracle` — a utility oracle that accepts whole coalition
  batches, deduplicates them against a concurrency-safe cache and hands the
  misses to one executor call;
* :mod:`repro.parallel.executors` — the serial / vectorized backends behind
  it, both order-deterministic.  The vectorized backend trains the whole
  miss batch in lockstep on stacked parameter matrices
  (:mod:`repro.fl.vectorized`); see ``docs/performance.md`` for the backend
  matrix.  Across processes, several ``repro run`` processes share one
  SQLite utility store (:mod:`repro.store`).

The valuation algorithms request their coalition batches through
:meth:`repro.core.base.ValuationAlgorithm._batch_utilities`, which detects
``evaluate_batch`` on the oracle and falls back to sequential calls for plain
callables — so the engine is opt-in and value-preserving: every backend
produces bitwise-identical results to serial execution.
"""

from repro.parallel.batch_oracle import BatchUtilityOracle, coalition_batch_keys
from repro.parallel.executors import (
    EXECUTOR_BACKENDS,
    CoalitionExecutor,
    SerialExecutor,
    VectorizedExecutor,
    make_executor,
)

__all__ = [
    "BatchUtilityOracle",
    "coalition_batch_keys",
    "CoalitionExecutor",
    "SerialExecutor",
    "VectorizedExecutor",
    "make_executor",
    "EXECUTOR_BACKENDS",
]
