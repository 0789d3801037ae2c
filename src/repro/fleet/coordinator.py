"""The fleet coordinator: enqueue coalition batches, block on store deposits.

:class:`FleetExecutor` is the multi-process coalition-executor backend: instead of
evaluating a miss batch in-process, it chunks the batch onto the durable
:class:`~repro.fleet.queue.LeaseQueue`, lets any number of worker processes
(on this or other hosts sharing the queue directory and store path) drain
it, and reads the resulting utilities back out of the shared persistent
:class:`~repro.store.UtilityStore`.  Values are bitwise-identical to serial
because per-coalition seeds are content-derived — *which process* trains a
coalition cannot change what it trains.

Like every backend, the executor receives only the coalitions the oracle's
memo and store could not serve, and the oracle memoises (and writes through)
the returned values itself — so ``evaluations`` / ``store_hits`` accounting
agrees with every other backend by construction.

The executor needs two things wired up before its first batch:

* a SQLite store and namespace, delivered by :meth:`bind_store` (the
  oracle calls it whenever store or executor change) — workers open the
  same file, and any other store is rejected;
* a picklable evaluator (no lambdas; lint rule RPR004), shipped to workers
  once per run via the queue's payload table.

Failure semantics: a worker dying mid-batch stops renewing its lease; the
coordinator's poll loop requeues expired leases (counting
``fleet.lease_expired`` / ``fleet.requeued``), respawns workers it spawned
itself, and raises only when a batch exhausts its delivery attempts or the
whole drain stalls past ``stall_timeout`` with no live workers.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
import time
from typing import Callable, Dict, List, Optional, Sequence

from repro.fleet.queue import DEFAULT_MAX_ATTEMPTS, LeaseQueue, WorkPayload
from repro.parallel.executors import (
    IN_PROCESS_BACKENDS,
    CoalitionExecutor,
    Evaluator,
    SerialExecutor,
)
from repro.store import SqliteUtilityStore, UtilityStore, utility_key

#: executor backends a worker may run internally (no fleet-in-fleet)
WORKER_BACKENDS = IN_PROCESS_BACKENDS


def spawn_worker(
    queue_dir: str,
    backend: str = "serial",
    lease_seconds: float = 30.0,
    poll_interval: float = 0.05,
    log_path: Optional[str] = None,
    extra_args: Sequence[str] = (),
) -> subprocess.Popen:
    """Start one ``repro worker`` subprocess serving ``queue_dir``.

    The child runs ``python -m repro.cli worker ...`` with this package's
    source root prepended to ``PYTHONPATH``, so spawning works from source
    checkouts and installed environments alike.
    """
    import repro

    source_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    # The child inherits this process's environment (plus the import path it
    # needs); environment contents are process plumbing, not valuation input.
    env = dict(os.environ)  # repro: allow[RPR002] reason=subprocess environment plumbing, not identity
    existing = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = (
        source_root + os.pathsep + existing if existing else source_root
    )
    command = [
        sys.executable,
        "-m",
        "repro.cli",
        "worker",
        queue_dir,
        "--backend",
        backend,
        "--lease-seconds",
        str(float(lease_seconds)),
        "--poll-interval",
        str(float(poll_interval)),
        "--stop-when-finished",
        *extra_args,
    ]
    if log_path is not None:
        os.makedirs(os.path.dirname(log_path) or ".", exist_ok=True)
        with open(log_path, "ab") as sink:
            return subprocess.Popen(
                command, env=env, stdout=sink, stderr=subprocess.STDOUT
            )
    return subprocess.Popen(command, env=env)


class FleetExecutor(CoalitionExecutor):
    """Coalition executor draining batches through a shared lease queue.

    Parameters
    ----------
    queue_dir:
        Directory holding the fleet's ``queue.sqlite``; every worker serving
        this run must see the same path (shared filesystem for multi-host).
    batch_size:
        Coalitions per queue batch; ``None`` sizes batches to roughly two
        per expected worker (bounded to [1, 32]) so the fleet load-balances.
    lease_seconds:
        Lease length workers request; also how long a dead worker's batch
        stays stranded before requeue, so crash tests use small values.
    spawn_workers:
        Workers this executor launches (and supervises) itself; ``0`` means
        workers are started externally via ``repro worker <queue-dir>``.
    worker_backend:
        Executor each worker evaluates with internally
        (:data:`WORKER_BACKENDS`).
    poll_interval:
        Coordinator poll cadence while blocked on results.
    stall_timeout:
        Raise if nothing completes for this long *and* no live worker is
        visible (``None`` disables; spawned workers are also respawned).
    """

    name = "fleet"

    def __init__(
        self,
        queue_dir: str,
        batch_size: Optional[int] = None,
        lease_seconds: float = 30.0,
        spawn_workers: int = 0,
        worker_backend: str = "serial",
        poll_interval: float = 0.05,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        stall_timeout: Optional[float] = 120.0,
        log: Optional[Callable[[str], None]] = None,
    ) -> None:
        if batch_size is not None and batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        if spawn_workers < 0:
            raise ValueError(f"spawn_workers must be >= 0, got {spawn_workers}")
        if worker_backend not in WORKER_BACKENDS:
            raise ValueError(
                f"unknown worker backend {worker_backend!r}; "
                f"choose from {WORKER_BACKENDS}"
            )
        self.queue_dir = str(queue_dir)
        self.batch_size = batch_size
        self.lease_seconds = float(lease_seconds)
        self.spawn_workers = int(spawn_workers)
        self.worker_backend = worker_backend
        self.poll_interval = float(poll_interval)
        self.max_attempts = int(max_attempts)
        self.stall_timeout = stall_timeout
        self._say = log if log is not None else (lambda message: None)
        self._queue: Optional[LeaseQueue] = None
        self._store: Optional[UtilityStore] = None
        self._namespace: Optional[str] = None
        self._run_ids: Dict[int, str] = {}  # id(evaluator) -> registered run
        self._registered_runs: List[str] = []
        self._processes: List[subprocess.Popen] = []
        self._respawns = 0

    # ------------------------------------------------------------------ #
    # Wiring
    # ------------------------------------------------------------------ #
    def bind_store(
        self, store: Optional[UtilityStore], namespace: Optional[str]
    ) -> None:
        """Receive the oracle's persistent store + namespace (see base class)."""
        self._store = store
        self._namespace = namespace

    @property
    def queue(self) -> LeaseQueue:
        if self._queue is None:
            self._queue = LeaseQueue(self.queue_dir, max_attempts=self.max_attempts)
        return self._queue

    def _require_store(self) -> UtilityStore:
        store = self._store
        if store is None or self._namespace is None:
            raise RuntimeError(
                "the fleet backend shares results through a persistent "
                "UtilityStore: attach one (CoalitionUtility(store=..., "
                "store_namespace=...) / repro run --store ...) before "
                "evaluating batches"
            )
        if not isinstance(store, SqliteUtilityStore):
            raise RuntimeError(
                "the fleet backend needs a disk-backed store that its worker "
                "processes can open (a SqliteUtilityStore), got a "
                f"{type(store).__name__}"
            )
        return store

    def _run_for(self, evaluator: Evaluator, store: UtilityStore) -> str:
        """Register (once) and return the queue run for this evaluator."""
        run_id = self._run_ids.get(id(evaluator))
        if run_id is not None:
            return run_id
        journal_path = None
        parent_span = None
        if self.telemetry is not None and self.telemetry.enabled:
            if self.telemetry.journal is not None:
                journal_path = self.telemetry.journal.path
            parent_span = self.telemetry.tracer.current_span_id()
        payload = WorkPayload(
            evaluator=evaluator,
            store_path=store.location,
            namespace=self._namespace or "default",
            journal_path=journal_path,
            parent_span=parent_span,
        )
        # pid + instance id make the run id unique across coordinators that
        # share one queue directory; both are queue bookkeeping, not values.
        pid = os.getpid()  # repro: allow[RPR002] reason=run id is queue bookkeeping, telemetry-only
        run_id = (
            f"run-{pid}-{id(self):x}-{len(self._registered_runs)}-"
            f"{(self._namespace or 'default')[:16]}"
        )
        self.queue.register_run(run_id, payload)
        self._run_ids[id(evaluator)] = run_id
        self._registered_runs.append(run_id)
        return run_id

    # ------------------------------------------------------------------ #
    # Worker supervision
    # ------------------------------------------------------------------ #
    def _worker_log_path(self, index: int) -> str:
        return os.path.join(self.queue_dir, "workers", f"worker-{index}.log")

    def _ensure_workers(self) -> None:
        while len(self._processes) < self.spawn_workers:
            index = len(self._processes) + self._respawns
            self._processes.append(
                spawn_worker(
                    self.queue_dir,
                    backend=self.worker_backend,
                    lease_seconds=self.lease_seconds,
                    poll_interval=self.poll_interval,
                    log_path=self._worker_log_path(index),
                )
            )
            self._say(f"fleet: spawned worker {index} (pid {self._processes[-1].pid})")

    def _reap_dead_workers(self, work_remains: bool) -> None:
        survivors: List[subprocess.Popen] = []
        for process in self._processes:
            if process.poll() is None:
                survivors.append(process)
            else:
                self._say(
                    f"fleet: worker pid {process.pid} exited "
                    f"(code {process.returncode})"
                )
        died = len(self._processes) - len(survivors)
        self._processes = survivors
        if died and work_remains:
            self._respawns += died
            if self.telemetry is not None:
                self.telemetry.count("fleet.worker_respawns", died)
            self._ensure_workers()

    def worker_pids(self) -> List[int]:
        """Pids of the workers this executor spawned and still supervises."""
        return [p.pid for p in self._processes if p.poll() is None]

    # ------------------------------------------------------------------ #
    # The executor interface
    # ------------------------------------------------------------------ #
    def _batch_size_for(self, n_coalitions: int) -> int:
        if self.batch_size is not None:
            return self.batch_size
        expected = self.spawn_workers or len(self.queue.workers()) or 1
        return max(1, min(32, math.ceil(n_coalitions / (2 * expected))))

    def map_utilities(
        self, evaluator: Evaluator, coalitions: Sequence[frozenset]
    ) -> list[float]:
        if not coalitions:
            return []
        store = self._require_store()
        run_id = self._run_for(evaluator, store)
        size = self._batch_size_for(len(coalitions))
        batches = [
            list(coalitions[start : start + size])
            for start in range(0, len(coalitions), size)
        ]
        batch_ids = self.queue.enqueue(run_id, batches)
        if self.telemetry is not None:
            self.telemetry.count("fleet.batches_enqueued", len(batch_ids))
        self._ensure_workers()
        self._drain(batch_ids)
        return self._collect(evaluator, store, coalitions)

    def _drain(self, batch_ids: Sequence[str]) -> None:
        """Block until every batch is done; requeue expired leases meanwhile."""
        pending = set(batch_ids)
        last_progress = time.monotonic()
        respawns_at_progress = self._respawns
        respawn_limit = max(4, 2 * self.spawn_workers)
        while pending:
            requeued, failed = self.queue.requeue_expired()
            if self.telemetry is not None and (requeued or failed):
                self.telemetry.count("fleet.lease_expired", requeued + failed)
                if requeued:
                    self.telemetry.count("fleet.requeued", requeued)
            statuses = self.queue.statuses(sorted(pending))
            for batch_id, (status, attempts, last_error) in statuses.items():
                if status == "done":
                    pending.discard(batch_id)
                    last_progress = time.monotonic()
                    respawns_at_progress = self._respawns
                elif status == "failed":
                    raise RuntimeError(
                        f"fleet batch {batch_id} failed after {attempts} "
                        f"delivery attempts: {last_error or 'unknown error'}"
                    )
            if self.telemetry is not None:
                self.telemetry.set_gauge("fleet.queue_depth", self.queue.depth())
            if not pending:
                break
            self._reap_dead_workers(work_remains=True)
            if self._respawns - respawns_at_progress > respawn_limit:
                # A crash-looping fleet (e.g. workers that die on import)
                # would otherwise respawn forever without ever tripping the
                # stall guard below, because each respawn looks "live".
                raise RuntimeError(
                    f"fleet workers are crash-looping: "
                    f"{self._respawns - respawns_at_progress} respawns with no "
                    f"completed batch ({len(pending)} outstanding) — see logs "
                    f"under {os.path.join(self.queue_dir, 'workers')}"
                )
            if self.stall_timeout is not None:
                stalled = time.monotonic() - last_progress
                if stalled >= self.stall_timeout and not self._live_workers():
                    raise RuntimeError(
                        f"fleet drain stalled: {len(pending)} batch(es) "
                        f"outstanding, no progress for {stalled:.0f}s and no "
                        f"live worker on {self.queue.path} — start workers "
                        "with `repro worker <queue-dir>` or pass "
                        "spawn_workers/--spawn-workers"
                    )
            time.sleep(self.poll_interval)

    def _live_workers(self) -> bool:
        if self.worker_pids():
            return True
        now = self.queue._now()
        grace = max(5.0, 3 * self.lease_seconds)
        return any(now - w["last_seen"] <= grace for w in self.queue.workers())

    def _collect(
        self,
        evaluator: Evaluator,
        store: UtilityStore,
        coalitions: Sequence[frozenset],
    ) -> list[float]:
        namespace = self._namespace or "default"
        values: list[float] = []
        fallback: List[frozenset] = []
        for coalition in coalitions:
            value = store.get(utility_key(namespace, coalition))
            if value is None:
                # A non-finite utility is never persisted (store.put policy),
                # so a completed batch can still leave a hole; the evaluator
                # is deterministic, so evaluating locally reproduces exactly
                # what the worker computed.
                fallback.append(coalition)
                values.append(math.nan)
            else:
                values.append(value)
        if fallback:
            if self.telemetry is not None:
                self.telemetry.count("fleet.local_fallback", len(fallback))
            local = SerialExecutor().map_utilities(evaluator, fallback)
            replacements = dict(zip(fallback, local))
            values = [
                replacements.get(coalition, value)
                for coalition, value in zip(coalitions, values)
            ]
        return values

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Finish registered runs, stop spawned workers, drop the queue handle."""
        if self._queue is not None:
            for run_id in self._registered_runs:
                self._queue.finish_run(run_id)
        for process in self._processes:
            # stop_when_finished workers exit on their own once runs finish;
            # give them a moment, then insist.
            try:
                process.wait(timeout=max(2.0, 4 * self.poll_interval + 1.0))
            except subprocess.TimeoutExpired:
                process.terminate()
                try:
                    process.wait(timeout=5.0)
                except subprocess.TimeoutExpired:  # pragma: no cover - last resort
                    process.kill()
                    process.wait()
        self._processes = []
        self._run_ids = {}
        self._registered_runs = []
        if self._queue is not None:
            self._queue.close()
            self._queue = None


__all__ = ["FleetExecutor", "WORKER_BACKENDS", "spawn_worker"]
