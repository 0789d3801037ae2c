"""The coalition-utility oracle: memo, single-flight, store tier, executor.

Training an FL model for a coalition is the dominant cost of every valuation
algorithm (the paper's τ), so :class:`BatchUtilityOracle` is the one place
that decides whether a coalition is trained.  It is a drop-in utility oracle
(``oracle(coalition) -> float``) that also accepts whole coalition sets
through :meth:`evaluate_batch`.  Every lookup, on every backend, follows one
path:

1. under the lock, each key is a memo hit, a wait on another caller's claim,
   or a new claim — so concurrent callers never train a coalition twice;
2. the persistent store (if any) is read for the claimed keys;
3. the misses go to ``executor.map_utilities`` in one call (a single
   ``oracle(c)`` lookup always evaluates inline, on a serial executor);
4. trained values are written through to the store, then all land in the memo;
5. the claims are released, waking any waiters.

A batch that fails in steps 2-4 keeps nothing (no memo entry, no count) and
still releases its claims, so the next call retries fresh.

Batch-oracle protocol
---------------------
Valuation algorithms probe their oracle for an ``evaluate_batch`` attribute
(via :meth:`repro.core.base.ValuationAlgorithm._batch_utilities`).  An oracle
that provides

``evaluate_batch(coalitions) -> dict[frozenset, float]``

(keys in first-appearance input order) gets handed every pre-enumerated
coalition set in one call and may train it in lockstep; a plain callable is
fed the same coalitions one at a time, in the same order — so results are
bitwise-identical either way.  That is only sound because per-coalition
training seeds are content-derived and collision-resistant
(:meth:`repro.fl.federation.FederatedTrainer._coalition_seed`): no matter
which process trains a coalition, or in which order, it trains the same
model.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from repro.parallel.executors import (
    CoalitionExecutor,
    ExecutorLike,
    SerialExecutor,
    make_executor,
)
from repro.store import StoreLike, UtilityStore, resolve_store, utility_key
from repro.store.fingerprint import coalition_token, key_prefix
from repro.telemetry import SIZE_BUCKETS, Telemetry

#: sentinel distinguishing "absent" from a memoised value
_MISSING = object()


def coalition_batch_keys(coalitions: Iterable[Iterable[int]]) -> list[frozenset]:
    """Canonicalise a batch: frozenset keys, deduplicated, input order kept."""
    ordered: dict[frozenset, None] = {}
    for coalition in coalitions:
        ordered.setdefault(frozenset(map(int, coalition)), None)
    return list(ordered)


@dataclass
class Accounting:
    """One oracle's cost record, the hardware-independent cost model.

    ``evaluations`` counts the FL trainings whose results were kept; ``hits``
    and ``store_hits`` count lookups served by the memo and by the store
    (zero trainings each); ``batch_counts`` counts batches per backend.
    """

    hits: int = 0
    evaluations: int = 0
    store_hits: int = 0
    batch_counts: dict[str, int] = field(default_factory=dict)


class BatchUtilityOracle:
    """Memoised, batch-capable utility oracle ``U(S)``.

    Parameters
    ----------
    evaluator:
        Callable mapping a coalition (``frozenset``) to its utility — e.g.
        ``FederatedTrainer.utility`` or any plain game function.
    n_clients:
        Number of clients; inferred from ``evaluator.n_clients`` when absent.
    executor:
        Backend name (``"serial"``/``"vectorized"``), an existing
        :class:`~repro.parallel.executors.CoalitionExecutor`, or ``None`` for
        serial.  The
        vectorized backend trains miss batches in lockstep on stacked
        parameters when the evaluator is a bound
        :class:`~repro.fl.federation.FederatedTrainer` method with a
        vectorization-capable model (and falls back to the serial loop
        otherwise — see ``docs/performance.md``).
    store:
        Optional persistent tier beneath the memo: a
        :class:`~repro.store.UtilityStore` instance (caller keeps ownership)
        or a path (opened here, closed by :meth:`close`).  Memo misses
        consult it before training and trained utilities are written
        through, so separate processes sharing a store never train the same
        coalition twice.
    store_namespace:
        Content-address namespace (task fingerprint) for this oracle's
        coalitions; required to be collision-free across different tasks.
    telemetry:
        Optional :class:`~repro.telemetry.Telemetry` handle, passed on to the
        executor and the store.  When present, batches run inside
        ``oracle.batch`` spans, batch sizes feed the ``executor.batch_size``
        histogram and lookups count ``cache.hit``/``store.hit``/``store.miss``.
        ``None`` (default) disables all of it; telemetry never influences
        values, ordering, seeds or store keys.
    """

    def __init__(
        self,
        evaluator: Callable[[Iterable[int]], float],
        n_clients: Optional[int] = None,
        executor: ExecutorLike = None,
        store: StoreLike = None,
        store_namespace: Optional[str] = None,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        if n_clients is None:
            n_clients = getattr(evaluator, "n_clients", None)
        self._n_clients = None if n_clients is None else int(n_clients)
        self._evaluator = evaluator
        self._lock = threading.Lock()
        self._memo: dict[frozenset, float] = {}
        self._in_flight: dict[frozenset, threading.Event] = {}
        # Every coalition this oracle has seen, for its whole lifetime (the
        # memo is per cell; these survive `reset_cache`): its canonical key,
        # and its store token once it has been looked up in a store.  A
        # coalition is converted and sorted once, not once per lookup.
        self._canonical: dict[frozenset, frozenset] = {}
        self._tokens: dict[frozenset, str] = {}
        self._accounting = Accounting()
        # Single lookups evaluate inline, whatever the batch backend: one
        # coalition never goes to the vectorized engine.
        self._inline = SerialExecutor()
        self._executor: Optional[CoalitionExecutor] = None
        self._store: Optional[UtilityStore] = None
        self._owns_store = False
        self._namespace = "default"
        self._telemetry: Optional[Telemetry] = None
        self.attach_store(store, store_namespace)
        self.set_executor(executor)
        if telemetry is not None:
            self.set_telemetry(telemetry)

    # ------------------------------------------------------------------ #
    # Lookups
    # ------------------------------------------------------------------ #
    @property
    def n_clients(self) -> int:
        if self._n_clients is None:
            raise AttributeError(
                "n_clients is unknown: pass it to BatchUtilityOracle or expose "
                "it on the evaluator"
            )
        return self._n_clients

    def __call__(self, coalition: Iterable[int]) -> float:
        return self.utility(coalition)

    def utility(self, coalition: Iterable[int]) -> float:
        """Return ``U(M_S)``, evaluating inline and memoising on first use."""
        with self._lock:
            (key,) = self._canonical_keys([coalition])
        return self._resolve([key], self._inline)[key]

    def evaluate_batch(
        self, coalitions: Iterable[Iterable[int]]
    ) -> dict[frozenset, float]:
        """Evaluate a set of coalitions, training the misses on the executor.

        Returns ``{coalition: utility}`` with keys in first-appearance input
        order, so callers that fold the results into floating-point sums see
        the same ordering — hence bitwise-identical values — regardless of
        backend.
        """
        coalitions = list(coalitions)
        if not coalitions:
            return {}
        executor = self._executor
        with self._lock:
            keys = self._canonical_keys(coalitions)
            counts = self._accounting.batch_counts
            counts[executor.name] = counts.get(executor.name, 0) + 1
        telemetry = self._telemetry
        if telemetry is None:
            return self._resolve(keys, executor)
        with telemetry.span("oracle.batch", backend=executor.name, size=len(keys)):
            telemetry.observe("executor.batch_size", len(keys), SIZE_BUCKETS)
            return self._resolve(keys, executor)

    def __contains__(self, coalition: Iterable[int]) -> bool:
        """Whether the memo or the store holds ``coalition``; counts nothing."""
        key = frozenset(int(c) for c in coalition)
        with self._lock:
            if key in self._memo:
                return True
            store, namespace = self._store, self._namespace
        return store is not None and utility_key(namespace, key) in store

    def _resolve(
        self, keys: list[frozenset], executor: CoalitionExecutor
    ) -> dict[frozenset, float]:
        results: dict[frozenset, float] = {}
        pending = keys
        while pending:
            claimed: list[frozenset] = []
            waiting: list[frozenset] = []
            events: set[threading.Event] = set()
            claim = None
            with self._lock:
                for key in pending:
                    value = self._memo.get(key, _MISSING)
                    if value is not _MISSING:
                        results[key] = value
                    elif key in self._in_flight:
                        waiting.append(key)
                        events.add(self._in_flight[key])
                    else:
                        claim = claim or threading.Event()
                        claimed.append(key)
                        self._in_flight[key] = claim
                hits = len(pending) - len(claimed) - len(waiting)
                self._accounting.hits += hits
            self._count("cache.hit", hits)
            if claimed:
                try:
                    results.update(self._fill(claimed, executor))
                finally:
                    with self._lock:
                        for key in claimed:
                            del self._in_flight[key]
                    claim.set()
            # Another caller owns these: once it is done they are memo hits,
            # or — if it failed — ours to claim on the next pass.
            for event in events:
                event.wait()
            pending = waiting
        return {key: results[key] for key in keys}

    def _canonical_keys(self, coalitions: list) -> list[frozenset]:
        """:func:`coalition_batch_keys` over this oracle's canonical keys.

        A frozenset seen before maps to its stored canonical key by one
        hashed lookup; anything else is converted as
        :func:`coalition_batch_keys` converts it.  Caller must hold the lock.
        """
        canonical = self._canonical
        ordered: dict[frozenset, None] = {}
        for coalition in coalitions:
            key = canonical.get(coalition) if type(coalition) is frozenset else None
            if key is None:
                key = frozenset(map(int, coalition))
                key = canonical.setdefault(key, key)
            ordered[key] = None
        return list(ordered)

    def _store_keys(
        self, namespace: str, keys: list[frozenset]
    ) -> dict[frozenset, str]:
        """Store key of each coalition, sorting each one at most once."""
        prefix = key_prefix(namespace)
        with self._lock:
            tokens = self._tokens
            for key in keys:
                if key not in tokens:
                    tokens[key] = coalition_token(key)
            return {key: prefix + tokens[key] for key in keys}

    def _fill(
        self, keys: list[frozenset], executor: CoalitionExecutor
    ) -> dict[frozenset, float]:
        """Resolve claimed keys from the store (one read), then the executor."""
        store, namespace = self._store, self._namespace
        stored: dict[frozenset, float] = {}
        if store is not None:
            store_keys = self._store_keys(namespace, keys)
            found = store.get_many(store_keys.values())
            for key, store_key in store_keys.items():
                value = found.get(store_key)
                if value is not None:
                    stored[key] = value
            self._count("store.hit", len(stored))
            self._count("store.miss", len(keys) - len(stored))
        misses = [key for key in keys if key not in stored]
        trained: dict[frozenset, float] = {}
        if misses:
            trained = dict(
                zip(misses, executor.map_utilities(self._evaluator, misses))
            )
            if store is not None:
                for key, value in trained.items():
                    store.put(store_keys[key], value)
        with self._lock:
            self._accounting.store_hits += len(stored)
            self._accounting.evaluations += len(trained)
            self._memo.update(stored)
            self._memo.update(trained)
        return {**stored, **trained}

    def _count(self, name: str, amount: int) -> None:
        if amount and self._telemetry is not None:
            self._telemetry.count(name, amount)

    # ------------------------------------------------------------------ #
    # Configuration
    # ------------------------------------------------------------------ #
    @property
    def executor(self) -> CoalitionExecutor:
        return self._executor

    @property
    def backend(self) -> str:
        """Registry name of the active executor backend (e.g. ``"serial"``)."""
        return self._executor.name

    def set_executor(self, executor: ExecutorLike) -> None:
        """Switch the batch backend: a name, an instance, or ``None`` (serial)."""
        previous = self._executor
        resolved = make_executor(executor)
        resolved.set_telemetry(self._telemetry)
        with self._lock:
            self._executor = resolved
        if previous is not None and previous is not resolved:
            previous.close()  # release any workers the old backend held

    @property
    def telemetry(self) -> Optional[Telemetry]:
        return self._telemetry

    def set_telemetry(self, telemetry: Optional[Telemetry]) -> None:
        """Attach (or detach with ``None``) telemetry across the whole stack.

        Reaches the lookup counters, the executors (eval latency, vectorized
        chunk spans) and the attached store (``store.put_bytes``).  Purely
        observational — see the fingerprint-neutrality contract in
        :mod:`repro.telemetry`.
        """
        with self._lock:
            self._telemetry = telemetry
        self._inline.set_telemetry(telemetry)
        self._executor.set_telemetry(telemetry)
        if self._store is not None:
            self._store.set_telemetry(telemetry)

    def close(self) -> None:
        """Release the executor's workers and any store this oracle opened.

        A store that was passed in as a path (and
        therefore opened — and owned — by this oracle) is closed for good.
        Stores passed in as instances belong to the caller and are left open.
        """
        self._executor.close()
        if self._owns_store:
            self.attach_store(None)

    def __enter__(self) -> "BatchUtilityOracle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #
    @property
    def store(self) -> Optional[UtilityStore]:
        """The persistent tier beneath the memo, if one is attached."""
        return self._store

    def attach_store(
        self, store: StoreLike, namespace: Optional[str] = None
    ) -> None:
        """Attach (or detach, with ``None``) a persistent utility store.

        ``store`` may be a :class:`~repro.store.UtilityStore` instance or a
        path; paths are opened here and closed by :meth:`close`.  Any
        previously attached store this oracle owned is closed first.
        """
        resolved, owned = resolve_store(store)
        if resolved is not None and self._telemetry is not None:
            resolved.set_telemetry(self._telemetry)
        with self._lock:
            previous = self._store if self._owns_store else None
            self._store, self._owns_store = resolved, owned
            if namespace is not None:
                self._namespace = namespace
        if previous is not None and previous is not resolved:
            previous.close()

    # ------------------------------------------------------------------ #
    # Cost accounting
    # ------------------------------------------------------------------ #
    @property
    def evaluations(self) -> int:
        """Number of evaluator calls (FL trainings) performed so far."""
        return self._accounting.evaluations

    @property
    def cache_hits(self) -> int:
        """Lookups served by the in-memory memo."""
        return self._accounting.hits

    @property
    def store_hits(self) -> int:
        """Lookups served by the persistent tier (zero trainings each)."""
        return self._accounting.store_hits

    @property
    def batch_counts(self) -> dict[str, int]:
        """Batches dispatched per executor backend since construction.

        Plain deterministic accounting (kept even with telemetry disabled);
        survives :meth:`reset_cache` so a multi-cell run reports totals.
        """
        with self._lock:
            return dict(self._accounting.batch_counts)

    def reset_cache(self) -> None:
        """Drop the memo and zero all counters but ``batch_counts``.

        The store survives: this isolates per-algorithm cost accounting, so
        dropped entries reload as ``store_hits``, not re-evaluations.
        """
        with self._lock:
            self._memo.clear()
            self._accounting = Accounting(batch_counts=self._accounting.batch_counts)
