"""Base classes for valuation algorithms.

Two families exist, mirroring the paper's taxonomy (Sec. II-C):

* **Utility-based** algorithms (exact schemes, the stratified framework,
  K-Greedy, IPSS, Extended-TMC, Extended-GTB, CC-Shapley, DIG-FL) consume a
  utility oracle ``U(S)`` — any callable that maps a coalition to a float and
  optionally exposes ``evaluations`` / ``n_clients``.
* **Gradient-based** algorithms (OR, λ-MR, GTG-Shapley) consume the training
  history of the grand-coalition FL run and reconstruct coalition models from
  recorded client updates instead of retraining.
"""

from __future__ import annotations

import abc
import itertools
from typing import Callable, Iterable, Iterator, Optional, Protocol, runtime_checkable

import numpy as np

from repro.core.anytime import (
    EstimatorState,
    StepResult,
    StoppingRule,
    ValuationSnapshot,
    capture_rng_state,
    restore_rng,
)
from repro.core.result import ValuationResult
from repro.parallel.batch_oracle import coalition_batch_keys
from repro.utils.rng import RandomState, SeedLike
from repro.utils.timer import Timer

UtilityFunction = Callable[[Iterable[int]], float]


@runtime_checkable
class UtilityOracle(Protocol):
    """Structural type for utility oracles with cost accounting."""

    def __call__(self, coalition: Iterable[int]) -> float: ...

    @property
    def evaluations(self) -> int: ...


@runtime_checkable
class SupportsBatchEvaluation(Protocol):
    """Structural type for oracles that accept whole coalition batches.

    ``evaluate_batch`` receives a sequence of coalitions and returns
    ``{coalition: utility}`` with keys in first-appearance input order; see
    :class:`repro.parallel.BatchUtilityOracle` for the reference
    implementation (deduplication, caching, and a serial or vectorized
    executor behind a single call).
    """

    def evaluate_batch(
        self, coalitions: Iterable[Iterable[int]]
    ) -> dict[frozenset, float]: ...


def _evaluation_count(utility: UtilityFunction) -> int:
    """Best-effort read of a utility oracle's evaluation counter."""
    return int(getattr(utility, "evaluations", 0))


def infer_n_clients(utility: UtilityFunction, n_clients: Optional[int]) -> int:
    """Resolve the number of clients from the argument or the oracle itself."""
    if n_clients is not None:
        if n_clients < 1:
            raise ValueError(f"n_clients must be >= 1, got {n_clients}")
        return int(n_clients)
    inferred = getattr(utility, "n_clients", None)
    if inferred is None:
        raise ValueError(
            "n_clients was not provided and the utility oracle does not expose it"
        )
    return int(inferred)


class ValuationAlgorithm(abc.ABC):
    """Base class for utility-oracle-based valuation algorithms.

    Algorithms implement *incremental chunks*: :meth:`_incremental_init`
    prepares a checkpointable payload and :meth:`_incremental_step` advances
    the estimate by one chunk (a coalition-size stratum, a permutation walk,
    a block of Monte-Carlo rounds, ...).  :meth:`iter_run` drives the chunks
    and yields a :class:`~repro.core.anytime.ValuationSnapshot` after each
    one; :meth:`run` is a thin wrapper that consumes the snapshot stream.
    The contract every implementation must honour: an uninterrupted
    ``iter_run`` consumed to exhaustion — with or without a checkpoint
    restore in the middle — produces values bitwise-identical to the
    monolithic estimation at the same seed.

    Algorithms that have not been migrated simply inherit the default
    single-chunk adapter, which runs :meth:`_estimate` in one step (no
    mid-run checkpoints, one terminal snapshot).
    """

    #: short name used in result objects and experiment reports
    name: str = "base"

    #: whether this algorithm yields more than one chunk (and therefore
    #: supports mid-run checkpointing / convergence-based early stop)
    incremental: bool = False

    def __init__(self, seed: SeedLike = None) -> None:
        self.seed = seed

    @abc.abstractmethod
    def _estimate(
        self,
        utility: UtilityFunction,
        n_clients: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Return the estimated data values for all clients."""

    # ------------------------------------------------------------------ #
    # Incremental protocol
    # ------------------------------------------------------------------ #
    def _state_config(self) -> dict:
        """Constructor parameters a checkpoint must match to be resumable."""
        return {}

    def _incremental_init(self, n_clients: int, rng: np.random.Generator) -> dict:
        """Build the initial (checkpointable) payload; may consume RNG."""
        return {}

    def _incremental_step(
        self,
        utility: UtilityFunction,
        n_clients: int,
        rng: np.random.Generator,
        payload: dict,
    ) -> StepResult:
        """Advance the estimate by one chunk.

        The default is the single-chunk adapter: run the monolithic
        :meth:`_estimate` and finish.  Incremental algorithms override this
        (together with :meth:`_incremental_init`) and keep *all* mutable
        estimation state inside ``payload`` so a restored checkpoint resumes
        exactly where the interrupted run left off.
        """
        values = self._estimate(utility, n_clients, rng)
        return StepResult(
            values=np.asarray(values, dtype=float), stderr=None, n_samples=None, done=True
        )

    def _drive_chunks(
        self, utility: UtilityFunction, n_clients: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Run the incremental chunks to exhaustion (used by ``_estimate``)."""
        payload = self._incremental_init(n_clients, rng)
        while True:
            step = self._incremental_step(utility, n_clients, rng, payload)
            if step.done:
                return np.asarray(step.values, dtype=float)

    def state_matches(self, state: EstimatorState, n_clients: int) -> bool:
        """Whether a checkpoint belongs to this algorithm configuration."""
        return (
            isinstance(state, EstimatorState)
            and state.algorithm == self.name
            and int(state.n_clients) == int(n_clients)
            and state.config == self._state_config()
        )

    def iter_run(
        self,
        utility: UtilityFunction,
        n_clients: Optional[int] = None,
        state: Optional[EstimatorState] = None,
    ) -> Iterator[ValuationSnapshot]:
        """Run the estimation incrementally, yielding a snapshot per chunk.

        ``state`` resumes a previously checkpointed run: pass an
        :class:`EstimatorState` restored via ``EstimatorState.from_dict`` and
        the generator continues from the first unfinished chunk — evaluations
        and elapsed time keep accumulating, and the final values are
        bitwise-identical to an uninterrupted run at the same seed.
        """
        n = infer_n_clients(utility, n_clients)
        if state is None:
            rng = RandomState(self.seed)
            state = EstimatorState(
                algorithm=self.name, n_clients=n, config=self._state_config()
            )
            state.payload = self._incremental_init(n, rng)
            state.rng_state = capture_rng_state(rng)
        else:
            if not self.state_matches(state, n):
                raise ValueError(
                    f"estimator state does not match this algorithm: state is for "
                    f"{state.algorithm!r} (n={state.n_clients}, config="
                    f"{state.config}), this is {self.name!r} (n={n}, config="
                    f"{self._state_config()})"
                )
            if state.done:
                yield self._snapshot(state)
                return
            if state.rng_state is None:
                raise ValueError("estimator state carries no RNG state")
            rng = restore_rng(state.rng_state)
        while not state.done:
            evaluations_before = _evaluation_count(utility)
            with Timer() as timer:
                step = self._incremental_step(utility, n, rng, state.payload)
            state.evaluations += _evaluation_count(utility) - evaluations_before
            state.elapsed_seconds += timer.elapsed
            state.chunk_index += 1
            state.done = bool(step.done)
            state.rng_state = capture_rng_state(rng)
            state.values = np.asarray(step.values, dtype=float)
            state.stderr = (
                None if step.stderr is None else np.asarray(step.stderr, dtype=float)
            )
            state.n_samples = (
                None
                if step.n_samples is None
                else np.asarray(step.n_samples, dtype=float)
            )
            yield self._snapshot(state)

    def _snapshot(self, state: EstimatorState) -> ValuationSnapshot:
        return ValuationSnapshot(
            algorithm=self.name,
            n_clients=state.n_clients,
            values=state.values,
            evaluations=state.evaluations,
            elapsed_seconds=state.elapsed_seconds,
            chunk_index=state.chunk_index,
            done=state.done,
            stderr=state.stderr,
            n_samples_per_client=state.n_samples,
            metadata=self._metadata(),
            state=state,
        )

    def _batch_utilities(
        self,
        utility: UtilityFunction,
        coalitions: Iterable[Iterable[int]],
        batch_size: Optional[int] = None,
    ) -> dict[frozenset, float]:
        """Evaluate a planned batch of coalitions through the oracle.

        This is the planning hook of the batch-oracle protocol: algorithms
        that pre-enumerate the coalitions they need (the exact schemes,
        stratified sampling, K-Greedy, IPSS) hand the whole plan over in one
        call instead of invoking the oracle coalition by coalition.  Oracles
        exposing ``evaluate_batch`` (:class:`repro.parallel.BatchUtilityOracle`,
        :class:`repro.fl.CoalitionUtility`) may then deduplicate, cache and
        train misses concurrently; plain callables fall back to sequential
        calls in the same deduplicated order, so the returned mapping — and
        hence every downstream floating-point reduction — is identical either
        way.

        ``batch_size`` streams a (possibly lazy) coalition iterable through
        the oracle in bounded slices, never materialising the whole plan:
        peak plan memory is ``O(batch_size)``, which is what lets an
        exhaustive stratum walk survive federations where a stratum has
        billions of coalitions.  Per-coalition utilities are deterministic
        and duplicates are skipped across slices exactly as
        :func:`~repro.parallel.batch_oracle.coalition_batch_keys` skips them
        within one plan, so the returned mapping — keys in first-appearance
        order, values bit-for-bit — is identical to the unstreamed call.
        """
        if batch_size is None:
            ordered = coalition_batch_keys(coalitions)
            if isinstance(utility, SupportsBatchEvaluation):
                results = utility.evaluate_batch(ordered)
                return {key: float(results[key]) for key in ordered}
            return {key: float(utility(key)) for key in ordered}
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1 or None, got {batch_size}")
        merged: dict[frozenset, float] = {}
        stream = iter(coalitions)
        while True:
            block = list(itertools.islice(stream, batch_size))
            if not block:
                return merged
            ordered = [
                key for key in coalition_batch_keys(block) if key not in merged
            ]
            if not ordered:
                continue
            if isinstance(utility, SupportsBatchEvaluation):
                results = utility.evaluate_batch(ordered)
                merged.update({key: float(results[key]) for key in ordered})
            else:
                merged.update({key: float(utility(key)) for key in ordered})

    def run(
        self,
        utility: UtilityFunction,
        n_clients: Optional[int] = None,
        stopping_rule: Optional[StoppingRule] = None,
        state: Optional[EstimatorState] = None,
        on_snapshot: Optional[Callable[[ValuationSnapshot], None]] = None,
    ) -> ValuationResult:
        """Estimate data values, measuring wall-clock time and oracle calls.

        A thin wrapper over :meth:`iter_run`: without a ``stopping_rule`` the
        snapshot stream is consumed to exhaustion, which is seed-for-seed
        identical to the pre-anytime blocking implementation.  With a rule,
        the run may stop early; the returned result then records
        ``metadata["stopped_early"]`` / ``metadata["stopped_by"]``.  ``state``
        resumes a checkpointed run and ``on_snapshot`` observes every chunk.
        """
        if stopping_rule is not None:
            stopping_rule.reset()
        last: Optional[ValuationSnapshot] = None
        stopped_by: Optional[str] = None
        for snapshot in self.iter_run(utility, n_clients, state=state):
            last = snapshot
            if on_snapshot is not None:
                on_snapshot(snapshot)
            if snapshot.done:
                break
            if stopping_rule is not None and stopping_rule.should_stop(snapshot):
                stopped_by = stopping_rule.fired or stopping_rule.describe()
                break
        if last is None:  # pragma: no cover - iter_run always yields
            raise RuntimeError(f"{self.name}.iter_run produced no snapshots")
        return last.result(stopped_by=stopped_by)

    def _metadata(self) -> dict:
        """Algorithm-specific extras attached to the result; override freely."""
        return {}


class GradientBasedValuation(abc.ABC):
    """Base class for algorithms that reconstruct models from FL history.

    Subclasses receive a :class:`~repro.fl.history.TrainingHistory`, a template
    parametric model (used to evaluate reconstructed parameter vectors) and
    the test dataset; they never retrain FL models.
    """

    name: str = "gradient-base"

    def __init__(self, seed: SeedLike = None) -> None:
        self.seed = seed
        self._model_evaluations = 0

    @abc.abstractmethod
    def _estimate(self, history, model, test_dataset, rng) -> np.ndarray:
        """Return estimated values given the recorded training history."""

    def run_from_history(self, history, model, test_dataset) -> ValuationResult:
        """Estimate values from an already-recorded grand-coalition history."""
        rng = RandomState(self.seed)
        self._model_evaluations = 0
        n = len(history.clients())
        with Timer() as timer:
            values = self._estimate(history, model, test_dataset, rng)
        return ValuationResult(
            values=np.asarray(values, dtype=float),
            algorithm=self.name,
            n_clients=n,
            utility_evaluations=1,  # the single grand-coalition FL training
            elapsed_seconds=timer.elapsed,
            metadata={"model_evaluations": self._model_evaluations, **self._metadata()},
        )

    def run(self, utility, n_clients: Optional[int] = None) -> ValuationResult:
        """Estimate values from a :class:`~repro.fl.utility.CoalitionUtility`.

        The oracle must expose its :class:`~repro.fl.federation.FederatedTrainer`
        (as ``utility.trainer``) so the grand-coalition training history can be
        produced; tree-model oracles raise, matching the paper's remark that
        gradient-based approximation is not applicable to XGBoost.
        """
        trainer = getattr(utility, "trainer", None)
        if trainer is None:
            raise TypeError(
                f"{self.name} is gradient-based and requires a CoalitionUtility "
                "backed by a FederatedTrainer"
            )
        rng = RandomState(self.seed)
        self._model_evaluations = 0
        n = infer_n_clients(utility, n_clients)
        with Timer() as timer:
            history = trainer.grand_coalition_history()
            model = trainer.template_model()
            values = self._estimate(history, model, trainer.test_dataset, rng)
        return ValuationResult(
            values=np.asarray(values, dtype=float),
            algorithm=self.name,
            n_clients=n,
            utility_evaluations=1,
            elapsed_seconds=timer.elapsed,
            metadata={"model_evaluations": self._model_evaluations, **self._metadata()},
        )

    def iter_run(
        self,
        utility,
        n_clients: Optional[int] = None,
        state: Optional[EstimatorState] = None,
    ) -> Iterator[ValuationSnapshot]:
        """Single-chunk anytime adapter for the gradient-based family.

        Gradient-based methods replay one recorded FL history, so there is no
        meaningful chunk boundary to checkpoint at; the adapter exists so the
        pipeline and CLI can treat every registered algorithm uniformly.
        """
        if state is not None:
            raise ValueError(
                f"{self.name} is gradient-based (single-chunk) and cannot "
                "resume from an estimator checkpoint"
            )
        result = self.run(utility, n_clients)
        yield ValuationSnapshot(
            algorithm=self.name,
            n_clients=result.n_clients,
            values=result.values,
            evaluations=result.utility_evaluations,
            elapsed_seconds=result.elapsed_seconds,
            chunk_index=1,
            done=True,
            metadata=dict(result.metadata),
            state=None,
        )

    def _evaluate_parameters(self, model, parameters: np.ndarray, test_dataset) -> float:
        """Evaluate a reconstructed parameter vector on the test set."""
        model.set_parameters(parameters)
        self._model_evaluations += 1
        return float(model.evaluate(test_dataset))

    def _metadata(self) -> dict:
        return {}
