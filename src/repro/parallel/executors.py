"""Pluggable execution backends for batched coalition evaluation.

A coalition executor maps an evaluator over a list of coalitions and returns
the utilities *in input order*.  Five backends are provided:

* :class:`SerialExecutor` — plain loop; the reference semantics.
* :class:`ThreadPoolExecutor` — concurrent evaluation in threads.  The right
  choice when the evaluator releases the GIL (NumPy linear algebra, I/O,
  sleeping cost models) or holds non-picklable state such as lambda model
  factories.
* :class:`ProcessPoolExecutor` — concurrent evaluation in worker processes.
  Requires the evaluator to be picklable; buys true CPU parallelism for
  pure-Python training loops.
* :class:`VectorizedExecutor` — trains the whole batch in lockstep as
  stacked parameter matrices (:mod:`repro.fl.vectorized`) instead of
  parallelising per-coalition loops; no workers at all.  Falls back to the
  serial loop for evaluators the vectorized engine cannot handle (plain
  game functions, non-parametric/CNN models, partial client participation).
* ``FleetExecutor`` (:mod:`repro.fleet.coordinator`, re-exported here) —
  enqueues miss batches onto a durable shared lease queue and blocks on
  results deposited through the persistent utility store, so any number of
  worker *processes or hosts* (``repro worker <queue-dir>``) drain one
  coalition plan.  Needs a queue directory and a disk-backed store, so
  :func:`make_executor` cannot conjure one from the bare name — construct
  it explicitly (or use ``repro run --backend fleet --queue-dir ...``).

All backends are deterministic in *values*: utilities depend only on the
coalition (per-coalition seeds are content-derived, see
:meth:`repro.fl.federation.FederatedTrainer._coalition_seed`), and results are
re-associated with their coalitions by position, so the evaluation order and
worker assignment cannot change what any algorithm computes.  The vectorized
backend additionally replays the serial path seed-for-seed; its equivalence
policy is documented in ``docs/performance.md``.
"""

from __future__ import annotations

import abc
import concurrent.futures
import functools
import time
from typing import TYPE_CHECKING, Callable, Optional, Sequence, Union

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry import Telemetry

Evaluator = Callable[[frozenset], float]

#: registered backend names; all but "fleet" are constructible by
#: :func:`make_executor` from the bare name (fleet needs a queue directory)
EXECUTOR_BACKENDS = ("serial", "thread", "process", "vectorized", "fleet")


class CoalitionExecutor(abc.ABC):
    """Maps an evaluator over coalitions, preserving input order.

    The oracle hands every backend the same thing: only the coalitions that
    neither its memo nor its store could serve, in one call per batch.
    """

    #: registry name of the backend (``EXECUTOR_BACKENDS`` entry); custom
    #: executors may leave the default
    name: str = "custom"

    #: optional :class:`~repro.telemetry.Telemetry` handle (observational
    #: only; never consulted for values, seeds or ordering)
    telemetry: "Optional[Telemetry]" = None

    @abc.abstractmethod
    def map_utilities(
        self, evaluator: Evaluator, coalitions: Sequence[frozenset]
    ) -> list[float]:
        """Return ``[evaluator(c) for c in coalitions]``, possibly in parallel."""

    def set_telemetry(self, telemetry: "Optional[Telemetry]") -> None:
        """Attach (or detach with ``None``) a telemetry handle.

        The base implementation just stores it; backends that own inner
        engines (vectorized) propagate it further.
        """
        self.telemetry = telemetry

    def bind_store(self, store, namespace) -> None:
        """Receive the oracle's persistent store and namespace.

        The oracle calls this whenever executor or store change.  Most
        backends ignore it (the oracle reads and writes the store itself);
        the fleet backend needs it to ship the store's location to worker
        processes and to read results back.  Observational for everyone
        else — the base implementation is a no-op.
        """

    def close(self) -> None:
        """Release any worker resources (no-op for stateless executors)."""


def _timed(evaluator: Evaluator, telemetry: "Telemetry", coalition: frozenset) -> float:
    """One in-process evaluation, observed as ``utility.eval_seconds``."""
    start = time.perf_counter()
    value = float(evaluator(coalition))
    telemetry.observe("utility.eval_seconds", time.perf_counter() - start)
    return value


class SerialExecutor(CoalitionExecutor):
    """Sequential reference backend: a plain loop, no worker overhead."""

    name = "serial"

    def map_utilities(
        self, evaluator: Evaluator, coalitions: Sequence[frozenset]
    ) -> list[float]:
        if self.telemetry is not None:
            evaluator = functools.partial(_timed, evaluator, self.telemetry)
        return [float(evaluator(coalition)) for coalition in coalitions]


class _PooledExecutor(CoalitionExecutor):
    """Shared machinery for pool-backed executors.

    The underlying worker pool is created lazily on first use and *reused*
    across ``map_utilities`` calls — an algorithm run issues one batch per
    phase, and paying pool startup (and, for processes, evaluator pickling)
    per batch would dwarf the work being parallelised.  ``close`` releases
    the pool; the next call transparently recreates it.
    """

    _pool_factory = None  # concurrent.futures executor class

    def __init__(self, n_workers: int) -> None:
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        self.n_workers = int(n_workers)
        self._pool = None

    def map_utilities(
        self, evaluator: Evaluator, coalitions: Sequence[frozenset]
    ) -> list[float]:
        if len(coalitions) <= 1 or self.n_workers == 1:
            return SerialExecutor().map_utilities(evaluator, coalitions)
        if self._pool is None:
            self._pool = self._pool_factory(max_workers=self.n_workers)
        try:
            return [float(v) for v in self._pool.map(evaluator, coalitions)]
        except BaseException:
            # A failed batch may leave the pool broken (e.g. an unpicklable
            # evaluator in a process pool); discard it so the next call
            # starts from a fresh one.
            self.close()
            raise

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


class ThreadPoolExecutor(_PooledExecutor):
    """Evaluates coalitions concurrently in a persistent thread pool."""

    name = "thread"
    _pool_factory = concurrent.futures.ThreadPoolExecutor

    def map_utilities(
        self, evaluator: Evaluator, coalitions: Sequence[frozenset]
    ) -> list[float]:
        if self.telemetry is not None:
            evaluator = functools.partial(_timed, evaluator, self.telemetry)
        return super().map_utilities(evaluator, coalitions)


class ProcessPoolExecutor(_PooledExecutor):
    """Evaluates coalitions concurrently in a persistent process pool.

    The evaluator (and its closure — datasets, model factory, config) must be
    picklable; lambdas are not.  Side effects performed by the evaluator in
    the workers (counters, caches) stay in the workers — only the returned
    utilities travel back.
    """

    name = "process"
    _pool_factory = concurrent.futures.ProcessPoolExecutor


class VectorizedExecutor(CoalitionExecutor):
    """Trains whole coalition batches in lockstep on stacked parameters.

    Instead of parallelising B per-coalition training loops across workers,
    the batch is handed to a
    :class:`~repro.fl.vectorized.VectorizedCoalitionTrainer`: one round of
    "B coalitions × FedAvg" becomes a handful of large stacked NumPy ops.
    The trainer is resolved from the evaluator itself (the bound
    ``FederatedTrainer.utility`` method that
    :class:`~repro.fl.utility.CoalitionUtility` wires into its oracle), so
    the backend is a drop-in choice next to serial/thread/process.

    The evaluator must be the *bare* bound method: any wrapper hides the
    trainer and quietly selects the serial fallback.  So the oracle hands
    it over unwrapped, and per-evaluation timing (``utility.eval_seconds``) lives in
    the serial and thread executors instead.

    Evaluators the engine cannot vectorize (plain game functions,
    non-parametric or kernel-less models, ``client_fraction < 1``) fall back
    to the serial loop; the reason is kept in :attr:`last_fallback_reason`
    (``strict=True`` raises instead, for tests and benchmarks that must not
    silently measure the fallback).
    """

    name = "vectorized"

    def __init__(
        self,
        chunk_size: int = 64,
        strict: bool = False,
        max_batch_bytes: Optional[int] = None,
    ) -> None:
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        self.chunk_size = int(chunk_size)
        self.strict = bool(strict)
        # None auto-detects from available RAM inside the engine; an explicit
        # integer caps each stacked batch's estimated footprint at that size.
        self.max_batch_bytes = max_batch_bytes
        self.last_fallback_reason: Optional[str] = None
        self._trainer_cache: Optional[tuple] = None  # (trainer id, engine)

    @staticmethod
    def _resolve_trainer(evaluator: Evaluator):
        """Find the FederatedTrainer behind an evaluator, or ``None``."""
        from repro.fl.federation import FederatedTrainer

        for candidate in (
            evaluator,
            getattr(evaluator, "__self__", None),
            getattr(evaluator, "trainer", None),
        ):
            if isinstance(candidate, FederatedTrainer):
                return candidate
        return None

    def _engine_for(self, trainer):
        """Cache one vectorized engine per trainer (they are stateless)."""
        from repro.fl.vectorized import VectorizedCoalitionTrainer

        if self._trainer_cache is not None and self._trainer_cache[0] is trainer:
            engine = self._trainer_cache[1]
            engine.set_telemetry(self.telemetry)
            return engine
        engine = VectorizedCoalitionTrainer(
            trainer,
            chunk_size=self.chunk_size,
            max_batch_bytes=self.max_batch_bytes,
            telemetry=self.telemetry,
        )
        self._trainer_cache = (trainer, engine)
        return engine

    def map_utilities(
        self, evaluator: Evaluator, coalitions: Sequence[frozenset]
    ) -> list[float]:
        from repro.fl.vectorized import vectorization_blocker

        trainer = self._resolve_trainer(evaluator)
        if trainer is None:
            reason = (
                "evaluator is not backed by a FederatedTrainer "
                f"({type(evaluator).__name__})"
            )
        else:
            reason = vectorization_blocker(trainer)
        if reason is not None:
            if self.strict:
                raise ValueError(f"vectorized backend cannot engage: {reason}")
            self.last_fallback_reason = reason
            return SerialExecutor().map_utilities(evaluator, coalitions)
        self.last_fallback_reason = None
        return self._engine_for(trainer).utilities(coalitions)


ExecutorLike = Union[str, CoalitionExecutor, None]


def make_executor(executor: ExecutorLike = None, n_workers: int = 1) -> CoalitionExecutor:
    """Resolve an executor spec into a :class:`CoalitionExecutor` instance.

    ``executor`` may be an existing instance (returned unchanged), a backend
    name from :data:`EXECUTOR_BACKENDS`, or ``None`` — which picks
    :class:`SerialExecutor` for ``n_workers <= 1`` and a thread pool
    otherwise (the only backend that is always safe, since it needs no
    picklability).
    """
    if isinstance(executor, CoalitionExecutor):
        return executor
    if n_workers < 1:
        raise ValueError(f"n_workers must be >= 1, got {n_workers}")
    if executor is None:
        executor = "serial" if n_workers <= 1 else "thread"
    if executor == "serial":
        return SerialExecutor()
    if executor == "thread":
        return ThreadPoolExecutor(n_workers)
    if executor == "process":
        return ProcessPoolExecutor(n_workers)
    if executor == "vectorized":
        # Lockstep training has no workers; n_workers is irrelevant to it.
        return VectorizedExecutor()
    if executor == "fleet":
        raise ValueError(
            "the fleet backend cannot be constructed from its bare name: it "
            "needs a queue directory (and a disk-backed store).  Construct "
            "repro.fleet.FleetExecutor(queue_dir=...) and pass the instance, "
            "or use `repro run --backend fleet --queue-dir DIR --store PATH`"
        )
    raise ValueError(
        f"unknown executor backend {executor!r}; choose from {EXECUTOR_BACKENDS}"
    )


def __getattr__(name: str):
    # FleetExecutor lives in repro.fleet (which imports this module); the
    # lazy re-export keeps `from repro.parallel.executors import
    # FleetExecutor` working without a circular import.
    if name == "FleetExecutor":
        from repro.fleet.coordinator import FleetExecutor

        return FleetExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
