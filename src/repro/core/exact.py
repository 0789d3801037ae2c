"""Exact Shapley-value computation schemes.

Three equivalent formulations are provided, matching the paper's Definitions
3–4 and the Perm-Shapley baseline:

* :class:`MCShapley` — marginal-contribution scheme (Def. 3),
* :class:`CCShapley` — complementary-contribution scheme (Def. 4),
* :class:`PermShapley` — permutation form, averaging marginal contributions
  over every ordering of the clients.

All three train/evaluate ``O(2^n)`` coalitions (``O(n!)`` orderings for the
permutation form), so they are only usable for small ``n`` — which is exactly
the paper's motivation for approximation.  They serve as ground truth in the
experiments and tests.

All three are *incremental*: evaluation proceeds one coalition-size stratum
per chunk (smallest first, each planned through ``_batch_utilities`` so
batch-capable oracles train the stratum concurrently), and every chunk yields
an interim estimate restricted to the marginal pairs whose endpoints are both
evaluated.  Consumed to exhaustion the chunks fold contributions in exactly
the order the monolithic loop did, so the final values are bitwise-identical.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from repro.core.anytime import StepResult
from repro.core.base import UtilityFunction, ValuationAlgorithm
from repro.core.plans import DEFAULT_PLAN_BATCH, check_enumeration_limit
from repro.utils.combinatorics import coalitions_of_size, marginal_coefficient
from repro.utils.rng import SeedLike

#: refuse exact permutation enumeration beyond this many clients
MAX_EXACT_PERMUTATION_CLIENTS = 9

#: refuse exact coalition enumeration beyond this many clients
MAX_EXACT_COALITION_CLIENTS = 20


def mc_accumulate_stratum(
    utilities: dict,
    n_clients: int,
    base_size: int,
    values: np.ndarray,
    counts: np.ndarray,
) -> None:
    """Fold the MC contributions of all base coalitions of one size.

    Called once the ``base_size + 1`` stratum is evaluated.  For any fixed
    client the coalitions arrive in the same (size-ascending, lexicographic)
    order as the monolithic per-client loop, and each client's accumulator
    takes its contributions one at a time in that order — so the folded
    floats are bitwise-identical to the one-shot computation.

    The (client, with-client, base) triples are gathered in the loop's visit
    order and folded by ``np.add.at``, which is unbuffered and applies
    repeated indices in index order: the same sequence of scalar ``+=`` as
    the per-pair loop, without a NumPy scalar operation per pair.

    This fold order is load-bearing for the bitwise-parity contract and is
    shared by every MC-scheme estimator (MC/Perm-Shapley here, K-Greedy and
    IPSS's exhaustive phase import it) — change it in one place or not at
    all.
    """
    weight = marginal_coefficient(n_clients, base_size)
    everyone = range(n_clients)
    clients: list = []
    with_client: list = []
    base: list = []
    for coalition in coalitions_of_size(n_clients, base_size):
        outside = [client for client in everyone if client not in coalition]
        clients += outside
        with_client += [utilities[coalition.union((client,))] for client in outside]
        base.append(utilities[coalition])
    if not clients:
        return
    index = np.asarray(clients, dtype=np.intp)
    # Every base coalition has exactly n - base_size outside clients.
    base_utility = np.repeat(np.asarray(base, dtype=float), n_clients - base_size)
    contributions = weight * (np.asarray(with_client, dtype=float) - base_utility)
    np.add.at(values, index, contributions)
    counts += np.bincount(index, minlength=n_clients)


class MCShapley(ValuationAlgorithm):
    """Exact Shapley value via the marginal-contribution scheme (MC-SV).

    ``φ_i = Σ_{S ⊆ N\\{i}} [U(S ∪ {i}) − U(S)] / (n · C(n−1, |S|))``
    """

    name = "MC-Shapley"
    incremental = True

    def __init__(
        self, max_exact_clients: int | None = None, seed: SeedLike = None
    ) -> None:
        super().__init__(seed=seed)
        self.max_exact_clients = (
            MAX_EXACT_COALITION_CLIENTS
            if max_exact_clients is None
            else int(max_exact_clients)
        )

    def _incremental_init(self, n_clients: int, rng: np.random.Generator) -> dict:
        check_enumeration_limit(n_clients, self.max_exact_clients, "MC-SV")
        return {
            "utilities": {},
            "next_size": 0,
            "values": np.zeros(n_clients),
            "counts": np.zeros(n_clients),
        }

    def _incremental_step(self, utility, n_clients, rng, payload) -> StepResult:
        size = int(payload["next_size"])
        payload["utilities"].update(
            self._batch_utilities(
                utility,
                coalitions_of_size(n_clients, size),
                batch_size=DEFAULT_PLAN_BATCH,
            )
        )
        if size >= 1:
            mc_accumulate_stratum(
                payload["utilities"], n_clients, size - 1,
                payload["values"], payload["counts"],
            )
        payload["next_size"] = size + 1
        return StepResult(
            values=payload["values"].copy(),
            stderr=None,
            n_samples=payload["counts"].copy(),
            done=size >= n_clients,
        )

    def _estimate(
        self, utility: UtilityFunction, n_clients: int, rng: np.random.Generator
    ) -> np.ndarray:
        return self._drive_chunks(utility, n_clients, rng)


class CCShapley(ValuationAlgorithm):
    """Exact Shapley value via the complementary-contribution scheme (CC-SV).

    ``φ_i = Σ_{S ⊆ N\\{i}} [U(S ∪ {i}) − U(N \\ (S ∪ {i}))] / (n · C(n−1, |S|))``
    """

    name = "CC-Shapley-exact"
    incremental = True

    def __init__(
        self, max_exact_clients: int | None = None, seed: SeedLike = None
    ) -> None:
        super().__init__(seed=seed)
        self.max_exact_clients = (
            MAX_EXACT_COALITION_CLIENTS
            if max_exact_clients is None
            else int(max_exact_clients)
        )

    def _incremental_init(self, n_clients: int, rng: np.random.Generator) -> dict:
        check_enumeration_limit(n_clients, self.max_exact_clients, "CC-SV")
        return {"utilities": {}, "next_size": 0}

    @staticmethod
    def _restricted_values(utilities: dict, n_clients: int) -> np.ndarray:
        """The CC-SV sum over pairs whose both endpoints are evaluated.

        A coalition's complementary pair can live in a *larger* stratum than
        the coalition itself, so contributions cannot be folded stratum by
        stratum in the monolithic order; instead the (cheap) restricted sum is
        recomputed per chunk.  Once every stratum is in, the guard never
        skips and the loop *is* the monolithic one — identical fold order.
        """
        everyone = frozenset(range(n_clients))
        values = np.zeros(n_clients)
        for client in range(n_clients):
            for coalition in utilities:
                if client in coalition:
                    continue
                with_client = coalition | {client}
                complement = everyone - with_client
                if with_client not in utilities or complement not in utilities:
                    continue
                weight = marginal_coefficient(n_clients, len(coalition))
                values[client] += weight * (
                    utilities[with_client] - utilities[complement]
                )
        return values

    def _incremental_step(self, utility, n_clients, rng, payload) -> StepResult:
        size = int(payload["next_size"])
        payload["utilities"].update(
            self._batch_utilities(
                utility,
                coalitions_of_size(n_clients, size),
                batch_size=DEFAULT_PLAN_BATCH,
            )
        )
        payload["next_size"] = size + 1
        return StepResult(
            values=self._restricted_values(payload["utilities"], n_clients),
            stderr=None,
            n_samples=None,
            done=size >= n_clients,
        )

    def _estimate(
        self, utility: UtilityFunction, n_clients: int, rng: np.random.Generator
    ) -> np.ndarray:
        return self._drive_chunks(utility, n_clients, rng)


class PermShapley(ValuationAlgorithm):
    """Exact Shapley value via full permutation enumeration (Perm-SV).

    For every ordering π of the clients the marginal contribution of each
    client with respect to its predecessors is accumulated; the Shapley value
    is the average over all ``n!`` orderings.  Equivalent to MC-SV but — as in
    the paper's Perm-Shapley baseline — far more expensive, so it is capped at
    :data:`MAX_EXACT_PERMUTATION_CLIENTS` clients.

    Incrementally the coalition strata are evaluated one chunk at a time
    (every prefix of every permutation is some subset of N); interim chunks
    report the MC-SV estimate restricted to the evaluated strata, and the
    final chunk runs the n!-ordering sweep over the complete table.
    """

    name = "Perm-Shapley"
    incremental = True

    def __init__(
        self, max_exact_clients: int | None = None, seed: SeedLike = None
    ) -> None:
        super().__init__(seed=seed)
        self.max_exact_clients = (
            MAX_EXACT_PERMUTATION_CLIENTS
            if max_exact_clients is None
            else int(max_exact_clients)
        )

    def _incremental_init(self, n_clients: int, rng: np.random.Generator) -> dict:
        check_enumeration_limit(n_clients, self.max_exact_clients, "Perm-SV")
        return {
            "utilities": {},
            "next_size": 0,
            "values": np.zeros(n_clients),
            "counts": np.zeros(n_clients),
        }

    def _incremental_step(self, utility, n_clients, rng, payload) -> StepResult:
        size = int(payload["next_size"])
        payload["utilities"].update(
            self._batch_utilities(
                utility,
                coalitions_of_size(n_clients, size),
                batch_size=DEFAULT_PLAN_BATCH,
            )
        )
        if size >= 1:
            # Interim trajectory: the (equivalent) MC-SV estimate over the
            # evaluated strata — the permutation sweep needs the full table.
            mc_accumulate_stratum(
                payload["utilities"], n_clients, size - 1,
                payload["values"], payload["counts"],
            )
        payload["next_size"] = size + 1
        if size < n_clients:
            return StepResult(
                values=payload["values"].copy(),
                stderr=None,
                n_samples=payload["counts"].copy(),
                done=False,
            )
        return StepResult(
            values=self._permutation_sweep(payload["utilities"], n_clients),
            stderr=None,
            n_samples=payload["counts"].copy(),
            done=True,
        )

    @staticmethod
    def _permutation_sweep(utilities: dict, n_clients: int) -> np.ndarray:
        values = np.zeros(n_clients)
        n_permutations = math.factorial(n_clients)
        for permutation in itertools.permutations(range(n_clients)):
            prefix: frozenset = frozenset()
            previous_utility = utilities[prefix]
            for client in permutation:
                prefix = prefix | {client}
                current_utility = utilities[prefix]
                values[client] += current_utility - previous_utility
                previous_utility = current_utility
        return values / n_permutations

    def _estimate(
        self, utility: UtilityFunction, n_clients: int, rng: np.random.Generator
    ) -> np.ndarray:
        return self._drive_chunks(utility, n_clients, rng)


def exact_shapley(utility: UtilityFunction, n_clients: int) -> np.ndarray:
    """Convenience function returning the exact MC-SV values as an array."""
    return MCShapley().run(utility, n_clients).values
