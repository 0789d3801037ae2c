"""CC-Shapley: complementary-contribution sampling (Zhang et al., SIGMOD 2023).

Each sampling round draws a random coalition ``S`` and evaluates the
complementary contribution ``U(S) − U(N \\ S)``.  The key efficiency of the
method is that a single pair of evaluations yields a sample for *every*
client: clients inside ``S`` receive the contribution at stratum ``|S|``,
clients outside receive its negation at stratum ``n − |S|``.  Estimates are
averaged within strata and then across strata, exactly like the CC-SV branch
of the unified framework (Alg. 1).

The paper adopts this method as the representative state-of-the-art
sampling baseline and shows that its variance exceeds MC-SV's in FL (Thm. 2,
Fig. 10).
"""

from __future__ import annotations

import numpy as np

from repro.core.anytime import StepResult, stratified_stderr
from repro.core.base import UtilityFunction, ValuationAlgorithm
from repro.utils.rng import SeedLike


class CCShapleySampling(ValuationAlgorithm):
    """Complementary-contribution Monte Carlo estimator.

    Incremental: the deterministic U(N) − U(∅) pair forms the first chunk,
    then each chunk draws up to ``chunk_rounds`` complementary pairs.  Pairs
    are evaluated one at a time through the oracle's single-coalition path.
    Batching a chunk's draws would not change the accounting: the budget is
    this estimator's own counter, charged for every draw (re-drawn
    coalitions included), and the oracle counts unique trainings either way.

    Parameters
    ----------
    total_rounds:
        Budget γ on coalition utility evaluations.  Each sampling round
        charges two (the coalition and its complement), whether or not the
        oracle already holds them.
    stratified:
        When true (default) the coalition size is drawn uniformly from
        ``1..n−1`` (stratified over sizes); otherwise each client is included
        independently with probability 1/2.
    chunk_rounds:
        Sampling rounds per incremental chunk (checkpoint/early-stop
        granularity only — values are chunk-boundary-invariant).
    """

    name = "CC-Shapley"
    incremental = True

    def __init__(
        self,
        total_rounds: int = 32,
        stratified: bool = True,
        chunk_rounds: int = 4,
        seed: SeedLike = None,
    ) -> None:
        super().__init__(seed=seed)
        if total_rounds < 2:
            raise ValueError("total_rounds must be at least 2")
        if chunk_rounds < 1:
            raise ValueError(f"chunk_rounds must be >= 1, got {chunk_rounds}")
        self.total_rounds = total_rounds
        self.stratified = stratified
        self.chunk_rounds = chunk_rounds
        self._rounds_used = 0

    def _state_config(self) -> dict:
        return {"total_rounds": self.total_rounds, "stratified": self.stratified}

    def _incremental_init(self, n_clients: int, rng: np.random.Generator) -> dict:
        self._rounds_used = 0
        return {
            # Per-client per-stratum accumulators of complementary contributions.
            "sums": np.zeros((n_clients, n_clients + 1)),
            "sumsq": np.zeros((n_clients, n_clients + 1)),
            "counts": np.zeros((n_clients, n_clients + 1)),
            "budget": self.total_rounds,
            "rounds_used": 0,
            "anchored": False,
        }

    def _step_result(self, payload: dict, n_clients: int) -> StepResult:
        sums, counts = payload["sums"], payload["counts"]
        values = np.zeros(n_clients)
        for client in range(n_clients):
            total = 0.0
            for stratum in range(1, n_clients + 1):
                if counts[client, stratum] > 0:
                    total += sums[client, stratum] / counts[client, stratum]
            values[client] = total / n_clients
        return StepResult(
            values=values,
            stderr=stratified_stderr(sums, payload["sumsq"], counts),
            n_samples=counts.sum(axis=1),
            done=payload["budget"] < 2,
        )

    def _incremental_step(self, utility, n_clients, rng, payload) -> StepResult:
        everyone = frozenset(range(n_clients))
        sums, sumsq, counts = payload["sums"], payload["sumsq"], payload["counts"]
        self._rounds_used = int(payload["rounds_used"])

        if not payload["anchored"]:
            payload["anchored"] = True
            # The stratum of size n is a single deterministic complementary
            # pair, U(N) − U(∅), shared by every client; evaluate it once up
            # front so the estimator covers all strata (random sampling below
            # only reaches sizes 1..n−1).
            if payload["budget"] >= 2:
                grand_minus_empty = utility(everyone) - utility(frozenset())
                payload["budget"] -= 2
                for client in range(n_clients):
                    sums[client, n_clients] += grand_minus_empty
                    sumsq[client, n_clients] += grand_minus_empty**2
                    counts[client, n_clients] += 1
            return self._step_result(payload, n_clients)

        budget = int(payload["budget"])
        attempts = 0
        while budget >= 2 and attempts < self.chunk_rounds:
            attempts += 1
            if self.stratified:
                size = int(rng.integers(1, n_clients)) if n_clients > 1 else 1
                members = rng.choice(n_clients, size=size, replace=False)
                coalition = frozenset(int(m) for m in members)
            else:
                mask = rng.random(n_clients) < 0.5
                coalition = frozenset(np.flatnonzero(mask).tolist())
                if len(coalition) in (0, n_clients):
                    continue
            complement = everyone - coalition

            coalition_utility = utility(coalition)
            complement_utility = utility(complement)
            budget -= 2
            payload["rounds_used"] += 1
            self._rounds_used = int(payload["rounds_used"])

            contribution = coalition_utility - complement_utility
            size = len(coalition)
            for client in coalition:
                sums[client, size] += contribution
                sumsq[client, size] += contribution**2
                counts[client, size] += 1
            for client in complement:
                sums[client, n_clients - size] += -contribution
                sumsq[client, n_clients - size] += contribution**2
                counts[client, n_clients - size] += 1
        payload["budget"] = budget
        return self._step_result(payload, n_clients)

    def _estimate(
        self, utility: UtilityFunction, n_clients: int, rng: np.random.Generator
    ) -> np.ndarray:
        return self._drive_chunks(utility, n_clients, rng)

    def _metadata(self) -> dict:
        return {
            "total_rounds": self.total_rounds,
            "stratified": self.stratified,
            "rounds_used": self._rounds_used,
        }
