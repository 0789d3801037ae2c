"""Shared test helpers (importable from test modules, unlike conftest)."""

from __future__ import annotations

import os
import threading

import numpy as np

from repro.fl import TabularUtility


def monotone_game(n_clients: int, seed: int = 0, concavity: float = 0.6) -> TabularUtility:
    """A random monotone, concave utility game resembling FL model accuracy.

    Each client has a weight; ``U(S) = 0.1 + 0.85 · (Σ_S w)^c / (Σ_N w)^c``,
    so utility grows monotonically in the coalition and saturates — the same
    qualitative behaviour as model accuracy when more data joins the
    federation.
    """
    generator = np.random.default_rng(seed)
    weights = generator.uniform(0.2, 1.0, size=n_clients)
    total = weights.sum() ** concavity

    def function(coalition: frozenset) -> float:
        if not coalition:
            return 0.1
        mass = sum(weights[i] for i in coalition) ** concavity
        return 0.1 + 0.85 * mass / total

    return TabularUtility.from_function(n_clients, function)


class FleetHarness:
    """A fleet test rig: one queue dir, disk stores, in-process worker threads.

    Subprocess workers are exercised by the dedicated fleet tests; for the
    cross-backend matrices (parity, anytime) thread workers run the *same*
    ``run_worker`` loop against the same SQLite queue without paying Python
    startup per test.  ``executor()`` hands out a fresh
    :class:`~repro.fleet.FleetExecutor` on the shared queue;
    ``fresh_store_path()`` a new SQLite store file for utilities to open.
    """

    def __init__(self, root, workers: int = 1, worker_backend: str = "serial"):
        from repro.fleet.worker import run_worker

        self.root = str(root)
        self.queue_dir = os.path.join(self.root, "queue")
        os.makedirs(self.queue_dir, exist_ok=True)
        self._stores = 0
        self._stop = threading.Event()
        self._threads = []
        for index in range(workers):
            thread = threading.Thread(
                target=run_worker,
                kwargs=dict(
                    queue_dir=self.queue_dir,
                    backend=worker_backend,
                    poll_interval=0.01,
                    worker_id=f"test-worker-{index}",
                    stop_event=self._stop,
                ),
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)

    def executor(self, **overrides):
        from repro.fleet import FleetExecutor

        options = dict(
            queue_dir=self.queue_dir,
            lease_seconds=10.0,
            poll_interval=0.01,
            stall_timeout=60.0,
        )
        options.update(overrides)
        return FleetExecutor(**options)

    def fresh_store_path(self) -> str:
        self._stores += 1
        return os.path.join(self.root, f"store-{self._stores}.sqlite")

    def training_counts(self):
        from repro.fleet import LeaseQueue

        with LeaseQueue(self.queue_dir) as queue:
            return queue.training_counts()

    def close(self) -> None:
        self._stop.set()
        for thread in self._threads:
            thread.join(timeout=10.0)
