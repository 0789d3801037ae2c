"""The fleet worker: claim → evaluate → deposit → heartbeat, forever.

``run_worker`` is the body of the ``repro worker <queue-dir>`` CLI verb and
of every worker the coordinator spawns.  Each claimed batch is evaluated
through a per-run :class:`~repro.parallel.batch_oracle.BatchUtilityOracle`
(serial or vectorized executor inside the worker), which deposits every
trained utility into the shared persistent store *before* the batch is
completed — the store, not the queue, is where results live, so a worker may
die at any instruction and the only cost is re-evaluating whatever it had
not yet deposited.

Dedupe discipline (the zero-duplicated-trainings invariant):

1. the oracle reads the store for every claimed coalition — anything a
   sibling (or a dead predecessor) already deposited is a store hit and is
   *not* trained again;
2. the oracle writes the batch's trained utilities through to the store
   when the batch returns;
3. the store is a :class:`~repro.store.sqlite.RecordingStore`, so each
   write that lands is recorded in the queue's trainings ledger right after
   the put — the same rule as the service's job ledger.

A SIGKILL between the put and its ledger row therefore under-counts the
ledger but can never double-train: the requeued batch finds the utility in
the store.  A utility that is never stored (non-finite) leaves no row.

Lease renewal runs on a daemon heartbeat thread at a third of the lease
interval; a worker that loses its lease anyway (e.g. a pathological stall)
finishes the batch — its deposits are idempotent — and its ``complete`` is
simply ignored by the queue.
"""

from __future__ import annotations

import os
import socket
import sqlite3
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.fleet.queue import Claim, LeaseQueue, WorkPayload
from repro.parallel.batch_oracle import BatchUtilityOracle
from repro.store import open_store
from repro.store.sqlite import RecordingStore
from repro.telemetry import RunJournal, Telemetry, Tracer

#: how many runs' unpickled contexts one worker keeps alive
_CONTEXT_CACHE = 4


@dataclass
class WorkerStats:
    """What one ``run_worker`` invocation did (returned for tests/CLI)."""

    worker_id: str = ""
    batches: int = 0
    trainings: int = 0
    store_hits: int = 0
    released: int = 0
    renewals_lost: int = 0
    runs_seen: int = 0

    def to_dict(self) -> dict:
        return dict(self.__dict__)


class _RunContext:
    """One run's unpickled payload: oracle + store handle + telemetry.

    The oracle sees the store through a :class:`RecordingStore` that ledgers
    each write under this worker and the batch being served.
    """

    def __init__(
        self,
        payload: WorkPayload,
        backend: str,
        queue: LeaseQueue,
        worker_id: str,
    ) -> None:
        self.payload = payload
        self.queue = queue
        self.worker_id = worker_id
        self.batch_id = ""
        self.store = open_store(payload.store_path)
        self.oracle = BatchUtilityOracle(
            payload.evaluator,
            executor=backend,
            store=RecordingStore(self.store, self.record_training),
            store_namespace=payload.namespace,
        )
        self.telemetry: Optional[Telemetry] = None
        if payload.journal_path:
            # Spans from this worker land in the coordinating run's journal,
            # parented under the span that registered the run — `repro
            # trace` then shows fleet batches nested inside the run tree.
            journal = RunJournal(payload.journal_path)
            self.telemetry = Telemetry(journal=journal, tracer=Tracer(journal))

    def record_training(self, key: str) -> None:
        self.queue.record_training(key, self.worker_id, self.batch_id)

    def span(self, name: str, parent: bool = True, **attrs):
        if self.telemetry is None:
            return None
        span = self.telemetry.tracer.span(name, **attrs)
        if parent and span.parent_id is None:
            span.parent_id = self.payload.parent_span
        return span

    def close(self) -> None:
        self.oracle.close()
        self.store.close()
        if self.telemetry is not None:
            self.telemetry.close()


class _Heartbeat:
    """Daemon thread renewing one claim's lease at a third of its length."""

    def __init__(
        self, queue: LeaseQueue, claim: Claim, worker_id: str, lease_seconds: float
    ) -> None:
        self._queue = queue
        self._claim = claim
        self._worker_id = worker_id
        self._lease_seconds = float(lease_seconds)
        self._stop = threading.Event()
        self.lost = False
        self._thread = threading.Thread(target=self._beat, daemon=True)
        self._thread.start()

    def _beat(self) -> None:
        interval = max(0.05, self._lease_seconds / 3.0)
        while not self._stop.wait(interval):
            try:
                renewed = self._queue.renew(
                    self._claim.batch_id, self._worker_id, self._lease_seconds
                )
            except sqlite3.OperationalError:
                continue  # transient contention; the next beat retries
            if not renewed:
                self.lost = True

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=2.0)


def default_worker_id() -> str:
    """Stable-enough identity for one worker process.

    Host + pid uniquely names a live worker on a fleet; both are queue
    bookkeeping (who holds which lease) and telemetry, never inputs to any
    value or fingerprint.
    """
    pid = os.getpid()  # repro: allow[RPR002] reason=worker identity is queue bookkeeping, telemetry-only
    try:
        host = socket.gethostname()  # repro: allow[RPR002] reason=worker identity is queue bookkeeping, telemetry-only
    except OSError:  # pragma: no cover - hostname lookup is best-effort
        host = "host"
    return f"{host}-{pid}"


def run_worker(
    queue_dir: str,
    backend: str = "serial",
    lease_seconds: float = 30.0,
    poll_interval: float = 0.05,
    max_batches: Optional[int] = None,
    idle_timeout: Optional[float] = None,
    stop_when_finished: bool = False,
    worker_id: Optional[str] = None,
    log: Optional[Callable[[str], None]] = None,
    stop_event: Optional[threading.Event] = None,
) -> WorkerStats:
    """Drain a fleet queue until stopped.

    Parameters
    ----------
    backend:
        The executor each batch is evaluated with *inside* this worker —
        ``"serial"`` (default) or ``"vectorized"``
        (:data:`~repro.fleet.coordinator.WORKER_BACKENDS`).
    lease_seconds:
        Lease length requested per claim; renewed at a third of this while a
        batch evaluates.
    max_batches:
        Stop after this many completed batches (tests; ``None`` = unlimited).
    idle_timeout:
        Exit after this many seconds without claimable work (``None`` =
        wait forever).
    stop_when_finished:
        Exit once every registered run is finished and no batches remain —
        how coordinator-spawned workers terminate.
    stop_event:
        Optional :class:`threading.Event`; setting it makes the worker exit
        before its next claim — how in-process (thread) workers terminate.
    """
    say = log if log is not None else (lambda message: None)
    stats = WorkerStats(worker_id=worker_id or default_worker_id())
    queue = LeaseQueue(queue_dir)
    pid = os.getpid()  # repro: allow[RPR002] reason=worker heartbeat row is telemetry-only
    contexts: Dict[str, _RunContext] = {}
    idle_clock: Optional[float] = None
    try:
        queue.register_worker(stats.worker_id, pid=pid)
        say(f"worker {stats.worker_id}: serving {queue.path} ({backend})")
        while True:
            if stop_event is not None and stop_event.is_set():
                break
            if max_batches is not None and stats.batches >= max_batches:
                break
            claim = queue.claim(stats.worker_id, lease_seconds)
            if claim is None:
                if stop_when_finished and not queue.active_runs():
                    if queue.counts().outstanding == 0:
                        break
                now = time.monotonic()
                if idle_timeout is not None:
                    if idle_clock is None:
                        idle_clock = now
                    elif now - idle_clock >= idle_timeout:
                        say(f"worker {stats.worker_id}: idle for {idle_timeout}s, exiting")
                        break
                queue.touch_worker(stats.worker_id)
                time.sleep(poll_interval)
                continue
            idle_clock = None
            _serve_claim(queue, claim, contexts, backend, lease_seconds, stats, say)
    finally:
        for context in contexts.values():
            context.close()
        queue.close()
    return stats


def _context_for(
    queue: LeaseQueue,
    contexts: Dict[str, _RunContext],
    run_id: str,
    backend: str,
    stats: WorkerStats,
) -> _RunContext:
    context = contexts.get(run_id)
    if context is None:
        context = _RunContext(
            queue.run_payload(run_id), backend, queue, stats.worker_id
        )
        if len(contexts) >= _CONTEXT_CACHE:
            evicted_id = next(iter(contexts))
            contexts.pop(evicted_id).close()
        contexts[run_id] = context
        stats.runs_seen += 1
    return context


def _serve_claim(
    queue: LeaseQueue,
    claim: Claim,
    contexts: Dict[str, _RunContext],
    backend: str,
    lease_seconds: float,
    stats: WorkerStats,
    say: Callable[[str], None],
) -> None:
    """Evaluate one leased batch and retire it."""
    context = _context_for(queue, contexts, claim.run_id, backend, stats)
    claim_span = context.span(
        "fleet.claim", batch=claim.batch_id, size=len(claim.coalitions),
        attempt=claim.attempts, worker=stats.worker_id,
    )
    if claim_span is not None:
        claim_span.__enter__()
    heartbeat = _Heartbeat(queue, claim, stats.worker_id, lease_seconds)
    try:
        oracle = context.oracle
        trained_before = oracle.evaluations
        served_before = oracle.cache_hits + oracle.store_hits
        context.batch_id = claim.batch_id
        batch_span = context.span(
            "fleet.batch", batch=claim.batch_id, backend=backend,
            size=len(claim.coalitions),
        )
        try:
            if batch_span is not None:
                batch_span.__enter__()
            oracle.evaluate_batch(claim.coalitions)
        except Exception as error:  # repro: allow[RPR007] reason=reported via queue.release(error=...); surfaces through the coordinator after max_attempts
            if batch_span is not None:
                batch_span.__exit__(type(error), error, None)
            queue.release(claim.batch_id, stats.worker_id, error=repr(error))
            stats.released += 1
            say(f"worker {stats.worker_id}: released {claim.batch_id}: {error!r}")
            return
        # Anything already deposited (a sibling, or this batch's dead former
        # owner) was served, not trained; the oracle's accounting says which.
        trained = oracle.evaluations - trained_before
        stats.trainings += trained
        stats.store_hits += oracle.cache_hits + oracle.store_hits - served_before
        if batch_span is not None:
            batch_span.annotate(misses=trained)
            batch_span.__exit__(None, None, None)
        if heartbeat.lost:
            stats.renewals_lost += 1
        if queue.complete(claim.batch_id, stats.worker_id):
            stats.batches += 1
            queue.touch_worker(stats.worker_id, batches_done=1)
    finally:
        heartbeat.stop()
        if claim_span is not None:
            claim_span.__exit__(None, None, None)


__all__ = ["WorkerStats", "default_worker_id", "run_worker"]
