"""Pluggable execution backends for batched coalition evaluation.

A coalition executor maps an evaluator over a list of coalitions and returns
the utilities *in input order*.  Two backends are provided, both in the
calling process:

* :class:`SerialExecutor` — plain loop; the reference semantics.
* :class:`VectorizedExecutor` — trains the whole batch in lockstep as
  stacked parameter matrices (:mod:`repro.fl.vectorized`) instead of
  looping per coalition; no workers at all.  Falls back to the serial loop
  for evaluators the vectorized engine cannot handle (plain game functions,
  non-parametric/CNN models, partial client participation).

Work spreads over processes one level up: several ``repro run`` processes
over disjoint plans share one SQLite utility store (see ``docs/store.md``).

All backends are deterministic in *values*: utilities depend only on the
coalition (per-coalition seeds are content-derived, see
:meth:`repro.fl.federation.FederatedTrainer._coalition_seed`), and results are
re-associated with their coalitions by position, so the evaluation order
cannot change what any algorithm computes.  The vectorized
backend additionally replays the serial path seed-for-seed; its equivalence
policy is documented in ``docs/performance.md``.
"""

from __future__ import annotations

import abc
import functools
import time
from typing import TYPE_CHECKING, Callable, Optional, Sequence, Union

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry import Telemetry

Evaluator = Callable[[frozenset], float]

#: registered backend names, each constructible by :func:`make_executor`
EXECUTOR_BACKENDS = ("serial", "vectorized")


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
        """Return ``[evaluator(c) for c in coalitions]``, in input order."""

    def set_telemetry(self, telemetry: "Optional[Telemetry]") -> None:
        """Attach (or detach with ``None``) a telemetry handle.

        The base implementation just stores it; backends that own inner
        engines (vectorized) propagate it further.
        """
        self.telemetry = telemetry

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


class VectorizedExecutor(CoalitionExecutor):
    """Trains whole coalition batches in lockstep on stacked parameters.

    Instead of running B per-coalition training loops one after another,
    the batch is handed to a
    :class:`~repro.fl.vectorized.VectorizedCoalitionTrainer`: one round of
    "B coalitions × FedAvg" becomes a handful of large stacked NumPy ops.
    The trainer is resolved from the evaluator itself (the bound
    ``FederatedTrainer.utility`` method that
    :class:`~repro.fl.utility.CoalitionUtility` wires into its oracle), so
    the backend is a drop-in choice next to serial.

    The evaluator must be the *bare* bound method: any wrapper hides the
    trainer and quietly selects the serial fallback.  So the oracle hands
    it over unwrapped, and per-evaluation timing (``utility.eval_seconds``) lives in
    the serial executor instead.

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
            fallback = SerialExecutor()
            fallback.set_telemetry(self.telemetry)
            return fallback.map_utilities(evaluator, coalitions)
        self.last_fallback_reason = None
        return self._engine_for(trainer).utilities(coalitions)


ExecutorLike = Union[str, CoalitionExecutor, None]


def make_executor(executor: ExecutorLike = None) -> CoalitionExecutor:
    """Resolve an executor spec into a :class:`CoalitionExecutor` instance.

    ``executor`` may be an existing instance (returned unchanged), a backend
    name from :data:`EXECUTOR_BACKENDS`, or ``None`` — which picks
    :class:`SerialExecutor`.
    """
    if isinstance(executor, CoalitionExecutor):
        return executor
    if executor is None or executor == "serial":
        return SerialExecutor()
    if executor == "vectorized":
        return VectorizedExecutor()
    raise ValueError(
        f"unknown executor backend {executor!r}; choose from {EXECUTOR_BACKENDS}"
    )
