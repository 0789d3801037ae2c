"""Extended-GTB: Group-Testing-Based Shapley estimation, extended to FL.

Jia et al.'s group-testing estimator draws random coalitions whose size
follows the distribution ``q(k) ∝ 1/(k(n−k))``, evaluates their utilities and
from them builds unbiased estimates of the pairwise Shapley differences
``φ_i − φ_j``.  The values are then recovered by solving a small feasibility
problem subject to the efficiency constraint ``Σ φ_i = U(N) − U(∅)``.

The paper extends the method to FL (each evaluation is a full FL training)
and notes that when no exact feasible solution exists the constraints are
relaxed incrementally; here the relaxation is realised as a least-squares
solve of the same constrained system, which is its natural limit.
"""

from __future__ import annotations

import numpy as np

from repro.core.anytime import StepResult
from repro.core.base import UtilityFunction, ValuationAlgorithm
from repro.utils.rng import SeedLike


class ExtendedGTB(ValuationAlgorithm):
    """Group-testing-based Shapley approximation under an evaluation budget.

    Incremental: the anchor evaluations (U(N), U(∅)) form the first chunk,
    then each chunk draws and evaluates up to ``chunk_rounds`` coalition
    samples and re-solves the (cheap) constrained least-squares recovery over
    all samples so far.  Samples are evaluated one at a time through the
    oracle's single-coalition path.  Batching a chunk's draws would not
    change the accounting: the paper's budget is this estimator's own
    counter, charged for *every* draw (repeats included), and the oracle
    counts unique trainings either way.

    Parameters
    ----------
    total_rounds:
        Budget γ on coalition utility evaluations; two evaluations are spent
        on U(N) and U(∅), the rest on sampled coalitions.
    chunk_rounds:
        Coalition samples per incremental chunk (checkpoint/early-stop
        granularity only — values are chunk-boundary-invariant).
    """

    name = "Extended-GTB"
    incremental = True

    def __init__(
        self, total_rounds: int = 32, chunk_rounds: int = 8, seed: SeedLike = None
    ) -> None:
        super().__init__(seed=seed)
        if total_rounds < 4:
            raise ValueError("total_rounds must be at least 4 for GTB")
        if chunk_rounds < 1:
            raise ValueError(f"chunk_rounds must be >= 1, got {chunk_rounds}")
        self.total_rounds = total_rounds
        self.chunk_rounds = chunk_rounds
        self._samples_used = 0

    @staticmethod
    def _size_distribution(n_clients: int) -> np.ndarray:
        """q(k) ∝ 1/(k(n−k)) over coalition sizes k = 1..n−1."""
        sizes = np.arange(1, n_clients)
        weights = 1.0 / (sizes * (n_clients - sizes))
        return weights / weights.sum()

    def _state_config(self) -> dict:
        return {"total_rounds": self.total_rounds}

    def _incremental_init(self, n_clients: int, rng: np.random.Generator) -> dict:
        self._samples_used = 0
        return {
            "membership": [],
            "utilities": [],
            "budget": 0,
            "grand": None,
            "empty": None,
            "anchored": False,
            "samples_used": 0,
        }

    def _solve(self, payload: dict, n_clients: int) -> np.ndarray:
        """Constrained least-squares recovery from the samples drawn so far."""
        grand_utility, empty_utility = payload["grand"], payload["empty"]
        membership, utilities = payload["membership"], payload["utilities"]
        if not membership:
            return np.full(n_clients, (grand_utility - empty_utility) / n_clients)
        normalisation = float(
            (1.0 / (np.arange(1, n_clients) * (n_clients - np.arange(1, n_clients)))).sum()
            * n_clients
        )
        membership_matrix = np.stack(membership)
        utility_vector = np.asarray(utilities)

        # Estimated pairwise differences: Δ_{ij} ≈ Z/T · Σ_t U_t (B_ti − B_tj).
        t = len(utility_vector)
        weighted = membership_matrix * utility_vector[:, None]
        column_means = weighted.sum(axis=0) / t
        delta = normalisation * (column_means[:, None] - column_means[None, :])

        # Recover φ from the difference matrix under the efficiency constraint
        # via least squares: minimise Σ_{i<j} (φ_i − φ_j − Δ_ij)² s.t. Σφ = U(N) − U(∅).
        # The unconstrained minimiser is φ_i = mean_j Δ_ij + c; the constraint
        # fixes the constant c.
        unconstrained = delta.mean(axis=1)
        total = grand_utility - empty_utility
        constant = (total - unconstrained.sum()) / n_clients
        return unconstrained + constant

    def _appearances(self, payload: dict, n_clients: int) -> np.ndarray:
        if not payload["membership"]:
            return np.zeros(n_clients)
        return np.stack(payload["membership"]).sum(axis=0)

    def _incremental_step(self, utility, n_clients, rng, payload) -> StepResult:
        self._samples_used = int(payload.get("samples_used", self._samples_used))
        if n_clients == 1:
            values = np.array([utility(frozenset({0})) - utility(frozenset())])
            return StepResult(values=values, stderr=None, n_samples=None, done=True)

        if not payload["anchored"]:
            payload["grand"] = float(utility(frozenset(range(n_clients))))
            payload["empty"] = float(utility(frozenset()))
            payload["budget"] = self.total_rounds - 2
            payload["anchored"] = True
            return StepResult(
                values=self._solve(payload, n_clients),
                stderr=None,
                n_samples=self._appearances(payload, n_clients),
                done=payload["budget"] <= 0,
            )

        budget = int(payload["budget"])
        size_probabilities = self._size_distribution(n_clients)
        drawn = 0
        while budget > 0 and drawn < self.chunk_rounds:
            size = int(rng.choice(np.arange(1, n_clients), p=size_probabilities))
            members = rng.choice(n_clients, size=size, replace=False)
            coalition = frozenset(int(m) for m in members)
            value = float(utility(coalition))
            budget -= 1
            drawn += 1
            self._samples_used += 1
            row = np.zeros(n_clients)
            row[list(coalition)] = 1.0
            payload["membership"].append(row)
            payload["utilities"].append(value)
        payload["budget"] = budget
        payload["samples_used"] = self._samples_used
        return StepResult(
            values=self._solve(payload, n_clients),
            stderr=None,
            n_samples=self._appearances(payload, n_clients),
            done=budget <= 0,
        )

    def _estimate(
        self, utility: UtilityFunction, n_clients: int, rng: np.random.Generator
    ) -> np.ndarray:
        return self._drive_chunks(utility, n_clients, rng)

    def _metadata(self) -> dict:
        return {"total_rounds": self.total_rounds, "samples_used": self._samples_used}
