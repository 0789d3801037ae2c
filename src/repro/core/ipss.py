"""IPSS — Importance-Pruned Stratified Sampling (paper Alg. 3).

IPSS is the paper's main contribution: a budgeted MC-SV approximation that
exploits the *key combinations* phenomenon.  Given a sampling budget γ it

1. computes ``k* = max{k : Σ_{j≤k} C(n, j) ≤ γ}`` and exhaustively evaluates
   every coalition with at most ``k*`` clients (these are the high-impact,
   small coalitions),
2. spends the remaining budget on coalitions of size ``k* + 1`` sampled so
   that every client appears equally often (constraint (3) of Alg. 3, which
   balances the approximation error across clients), and
3. estimates each client's value with the MC-SV formula restricted to the
   evaluated coalitions.

Under the FL linear-regression model the relative error is bounded by
``O((n − k*) / (k* · n · t))`` (Thm. 3) and the time complexity is ``O(τ·γ)``
where τ is the cost of one FL training.

Evaluation is incremental: one coalition-size stratum per chunk during the
exhaustive phase (each planned through ``_batch_utilities``), then one final
chunk for the balanced partial stratum.  Marginal contributions fold as soon
as both endpoints are evaluated — per client in the monolithic loop's exact
order — so exhausting the chunks is bitwise-identical to the one-shot run,
while a convergence-based stopping rule can cut the later (low-coefficient)
strata and save their FL trainings.
"""

from __future__ import annotations

import json

import numpy as np

from repro.core.anytime import StepResult, capture_rng_state, restore_rng
from repro.core.base import UtilityFunction, ValuationAlgorithm
from repro.core.exact import mc_accumulate_stratum
from repro.core.plans import DEFAULT_PLAN_BATCH
from repro.utils.combinatorics import (
    balanced_coalitions_of_size,
    client_appearance_counts,
    coalitions_of_size,
    count_coalitions_up_to,
    marginal_coefficient,
    max_fully_enumerable_size,
)
from repro.utils.rng import SeedLike


class IPSS(ValuationAlgorithm):
    """Importance-Pruned Stratified Sampling for MC-SV data valuation.

    Parameters
    ----------
    total_rounds:
        The sampling budget γ — the maximum number of coalition utility
        evaluations (FL trainings) the algorithm may spend.
    include_partial_stratum:
        Whether to spend the leftover budget on the (k*+1)-sized stratum
        (lines 8-14 of Alg. 3).  Disabling this reduces IPSS to K-Greedy with
        ``K = k*`` and is exposed for the ablation benchmark.
    partial_chunk_size:
        Evaluation granularity of the phase-2 stratum in the anytime
        protocol: the balanced sample is drawn once (one RNG consumption, so
        values stay chunk-boundary-invariant) and then evaluated in slices of
        this many coalitions, each slice yielding a snapshot.  The partial
        stratum often dominates the budget — on the paper's n=10/γ=32 grid it
        is 21 of 32 evaluations — so this is where convergence-based early
        stop actually saves trainings.  ``None`` evaluates it in one chunk.
        Checkpoints persist the generator state the sample was drawn from
        (``partial_draw``), not the sample: a resume in a fresh process
        redraws it from that state.
    """

    incremental = True

    def __init__(
        self,
        total_rounds: int = 32,
        include_partial_stratum: bool = True,
        partial_chunk_size: int | None = 8,
        seed: SeedLike = None,
    ) -> None:
        super().__init__(seed=seed)
        if total_rounds < 1:
            raise ValueError(f"total_rounds must be >= 1, got {total_rounds}")
        if partial_chunk_size is not None and partial_chunk_size < 1:
            raise ValueError(
                f"partial_chunk_size must be >= 1 or None, got {partial_chunk_size}"
            )
        self.total_rounds = total_rounds
        self.include_partial_stratum = include_partial_stratum
        self.partial_chunk_size = partial_chunk_size
        self.name = "IPSS"
        self._last_k_star: int | None = None
        self._last_partial_count: int = 0
        # (memo key, phase-2 sample, its planned per-client appearance counts)
        self._sample_memo: tuple | None = None
        self._fold: _PhaseTwoFold | None = None

    # ------------------------------------------------------------------ #
    def k_star(self, n_clients: int) -> int:
        """The largest fully enumerated coalition size for the current budget."""
        return max_fully_enumerable_size(n_clients, self.total_rounds)

    def _state_config(self) -> dict:
        return {
            "total_rounds": self.total_rounds,
            "include_partial_stratum": self.include_partial_stratum,
        }

    def _incremental_init(self, n_clients: int, rng: np.random.Generator) -> dict:
        k_star = self.k_star(n_clients)
        if k_star < 0:
            raise ValueError(
                f"sampling budget {self.total_rounds} cannot even evaluate the "
                "empty coalition; increase total_rounds"
            )
        self._last_k_star = k_star
        self._last_partial_count = 0
        return {
            "utilities": {},
            "next_size": 0,
            "k_star": k_star,
            "partial_draw": None,
            "partial_evaluated": 0,
            "partial_count": 0,
            "values": np.zeros(n_clients),
            "counts": np.zeros(n_clients),
        }

    def _has_partial_phase(self, n_clients: int, k_star: int) -> bool:
        if not self.include_partial_stratum or k_star + 1 > n_clients:
            return False
        return self.total_rounds - count_coalitions_up_to(n_clients, k_star) > 0

    def _incremental_step(self, utility, n_clients, rng, payload) -> StepResult:
        k_star = int(payload["k_star"])
        self._last_k_star = k_star
        values, counts = payload["values"], payload["counts"]
        size = int(payload["next_size"])

        if size <= k_star:
            # Phase 1 (lines 1-7): one exhaustively-enumerated stratum per
            # chunk, streamed through the oracle in bounded plan batches so
            # nothing C(n, size)-shaped is materialised at once.
            payload["utilities"].update(
                self._batch_utilities(
                    utility,
                    coalitions_of_size(n_clients, size),
                    batch_size=DEFAULT_PLAN_BATCH,
                )
            )
            if 1 <= size:
                # Marginals based on the (size-1) stratum now have both
                # endpoints; fold them in the monolithic loop's order.
                mc_accumulate_stratum(
                    payload["utilities"], n_clients, size - 1, values, counts
                )
            payload["next_size"] = size + 1
            done = size >= k_star and not self._has_partial_phase(n_clients, k_star)
            self._last_partial_count = int(payload["partial_count"])
            return StepResult(
                values=values.copy(), stderr=None, n_samples=counts.copy(), done=done
            )

        # Phase 2 (lines 8-14): the balanced (k*+1)-stratum sample.  The whole
        # sample is drawn in one RNG consumption (chunk boundaries must not
        # move the stream), then evaluated slice by slice; each slice is one
        # ``_batch_utilities`` plan and one snapshot.
        partial, planned = self._phase_two_sample(n_clients, k_star, rng, payload)
        self._last_partial_count = len(partial)
        cursor = int(payload["partial_evaluated"])
        if self.partial_chunk_size is None:
            chunk = partial[cursor:]
        else:
            chunk = partial[cursor : cursor + self.partial_chunk_size]
        if chunk:
            payload["utilities"].update(self._batch_utilities(utility, chunk))
        cursor += len(chunk)
        payload["partial_evaluated"] = cursor

        # Fold the size-k* marginals against the evaluated part of the sample
        # onto a *copy* of the phase-1 accumulators.  Only the pairs the
        # sample can form are folded: each evaluated (k*+1)-sized coalition T
        # yields one (T \ {i}, i) pair per member, and in (base, client)
        # order they reproduce the monolithic nested loop's (lexicographic
        # base, ascending client) visit order restricted to its hits — so
        # once the sample is fully evaluated the final chunk is
        # bitwise-identical to the one-shot computation.  The pairs are
        # sorted once per phase (``_PhaseTwoFold``); a chunk computes only
        # its own contributions in Python, O(chunk·(k*+1)), then one NumPy
        # pass over the evaluated prefix's pairs folds them.
        values = values.copy()
        counts = counts.copy()
        weight = (
            marginal_coefficient(n_clients, k_star)
            if k_star <= n_clients - 1
            else 0.0
        )
        contrib_sum = np.zeros(n_clients)
        contrib_sumsq = np.zeros(n_clients)
        contrib_count = np.zeros(n_clients)
        if cursor and k_star <= n_clients - 1:
            fold = self._fold
            if (
                fold is None
                or fold.sample is not partial
                or fold.utilities is not payload["utilities"]
            ):
                fold = _PhaseTwoFold(partial, payload["utilities"], k_star + 1)
                self._fold = fold
            clients, contributions = fold.evaluated_pairs(cursor)
            np.add.at(values, clients, weight * contributions)
            np.add.at(contrib_sum, clients, contributions)
            np.add.at(contrib_sumsq, clients, contributions * contributions)
            contrib_count += np.bincount(clients, minlength=n_clients)
            counts += contrib_count
        return StepResult(
            values=values,
            stderr=self._remaining_uncertainty(
                n_clients, planned, weight, contrib_sum, contrib_sumsq, contrib_count
            ),
            n_samples=counts,
            done=cursor >= len(partial),
        )

    def _phase_two_sample(
        self, n_clients: int, k_star: int, rng: np.random.Generator, payload: dict
    ) -> tuple:
        """The phase-2 sample and its planned per-client appearance counts.

        On the first phase-2 chunk the generator state is captured into
        ``payload["partial_draw"]`` immediately before the draw, so the main
        stream advances exactly as if the sample itself were persisted.  Later
        chunks reuse the in-memory sample; a resume without it (a fresh
        process or a fresh instance) redraws it from ``partial_draw``.
        Format-1 payloads that carry the sample itself (``partial``) use it
        as it is.
        """
        legacy = payload.get("partial")
        if legacy is not None:
            return legacy, client_appearance_counts(legacy, n_clients).astype(float)
        payload.pop("partial", None)
        fresh = payload.get("partial_draw") is None
        if fresh:
            payload["partial_draw"] = capture_rng_state(rng)
            payload["partial_evaluated"] = 0
        leftover = self.total_rounds - count_coalitions_up_to(n_clients, k_star)
        # Phase 1 draws nothing, so under one seed the draw state is the same
        # for every n: the key carries the plan's shape as well.
        key = (
            n_clients,
            k_star + 1,
            leftover,
            json.dumps(payload["partial_draw"], sort_keys=True),
        )
        memo = self._sample_memo
        if not fresh and memo is not None and memo[0] == key:
            return memo[1], memo[2]
        sample = balanced_coalitions_of_size(
            n_clients,
            k_star + 1,
            leftover,
            rng if fresh else restore_rng(payload["partial_draw"]),
        )
        planned = client_appearance_counts(sample, n_clients).astype(float)
        payload["partial_count"] = len(sample)
        self._sample_memo = (key, sample, planned)
        return sample, planned

    @staticmethod
    def _remaining_uncertainty(
        n_clients: int,
        planned: np.ndarray,
        weight: float,
        contrib_sum: np.ndarray,
        contrib_sumsq: np.ndarray,
        contrib_count: np.ndarray,
    ) -> np.ndarray:
        """Per-client scale of the not-yet-evaluated phase-2 contribution.

        IPSS is a deterministic plan, so this is *convergence-to-plan*
        uncertainty, not a statistical CI on the true Shapley value: for each
        client it bounds how far the value can still move before the plan is
        exhausted, by projecting the sample standard deviation of the
        client's evaluated phase-2 marginals onto its remaining planned
        appearances (``weight · sqrt(remaining · s²)``).  Clients whose
        planned appearances are all evaluated report exactly ``0.0``;
        clients with fewer than two evaluated marginals but work remaining
        report ``NaN`` (unknown, never a false-certainty zero) — matching
        the stderr policy of the sampling estimators, so
        ``ConvergenceRule(metric="ci")`` can stop IPSS early once every
        client's residual is small, and never stops on ignorance.
        ``planned`` holds each client's appearance count in the sample.
        """
        remaining = planned - contrib_count
        with np.errstate(divide="ignore", invalid="ignore"):
            mean = contrib_sum / contrib_count
            variance = (contrib_sumsq - contrib_count * mean * mean) / (
                contrib_count - 1.0
            )
            # ``max(0.0, v)`` per client: +0.0 unless v > 0, NaN included.
            variance = np.where(variance > 0.0, variance, 0.0)
            residual = weight * np.sqrt(remaining * variance)
        return np.where(
            remaining <= 0, 0.0, np.where(contrib_count >= 2, residual, np.nan)
        )

    def _estimate(
        self, utility: UtilityFunction, n_clients: int, rng: np.random.Generator
    ) -> np.ndarray:
        return self._drive_chunks(utility, n_clients, rng)

    # ------------------------------------------------------------------ #
    def sampling_plan(self, n_clients: int) -> dict:
        """Describe how the budget would be spent for ``n`` clients (no training)."""
        k_star = self.k_star(n_clients)
        exhaustive = count_coalitions_up_to(n_clients, max(k_star, 0)) if k_star >= 0 else 0
        leftover = max(0, self.total_rounds - exhaustive)
        return {
            "total_rounds": self.total_rounds,
            "k_star": k_star,
            "exhaustive_evaluations": exhaustive,
            "partial_stratum_size": k_star + 1 if k_star + 1 <= n_clients else None,
            "partial_budget": leftover if self.include_partial_stratum else 0,
        }

    def last_appearance_counts(self, n_clients: int, coalitions) -> np.ndarray:
        """Client appearance counts of a phase-2 sample (for fairness checks)."""
        return client_appearance_counts(coalitions, n_clients)

    def _metadata(self) -> dict:
        return {
            "total_rounds": self.total_rounds,
            "k_star": self._last_k_star,
            "partial_stratum_samples": self._last_partial_count,
            "include_partial_stratum": self.include_partial_stratum,
        }


class _PhaseTwoFold:
    """The phase-2 sample's (base, client) pairs, sorted once into fold order.

    Row ``t·w + j`` (``w = k* + 1``) is the pair of sample coalition ``t``
    and its ``j``-th smallest member: ``clients`` holds that member and
    ``contributions`` its marginal ``U(T) − U(T \\ {i})`` once ``t`` is
    evaluated.  ``order`` is the ``np.lexsort`` of the rows by (sorted base
    members, client), so the rows of the evaluated prefix — those below
    ``cursor · w`` — taken in ``order`` are the per-pair loop's fold order.
    The fold is tied to one sample and one utility table (by identity); a
    resume in a fresh instance rebuilds it and refills the evaluated prefix.
    """

    def __init__(self, sample: list, utilities: dict, width: int) -> None:
        self.sample = sample
        self.utilities = utilities
        self.width = width
        members = np.array(
            [sorted(coalition) for coalition in sample], dtype=np.intp
        ).reshape(len(sample), width)
        self.clients = members.ravel()
        # Base column c of pair (t, j) is members[t, c] before j, else c + 1.
        position = np.arange(width)
        base_columns = [
            np.where(
                column < position, members[:, [column]], members[:, [column + 1]]
            ).ravel()
            for column in range(width - 1)
        ]
        self.order = np.lexsort((self.clients, *reversed(base_columns)))
        self.contributions = np.empty(len(self.clients))
        self.filled = 0

    def evaluated_pairs(self, cursor: int) -> tuple[np.ndarray, np.ndarray]:
        """Clients and contributions of the first ``cursor`` coalitions' pairs,
        in fold order."""
        width, utilities = self.width, self.utilities
        if cursor > self.filled:
            start = self.filled * width
            self.contributions[start : cursor * width] = [
                utilities[coalition] - utilities[coalition - {client}]
                for coalition, row in zip(
                    self.sample[self.filled : cursor],
                    range(start, cursor * width, width),
                )
                for client in self.clients[row : row + width].tolist()
            ]
            self.filled = cursor
        rows = self.order[self.order < cursor * width]
        return self.clients[rows], self.contributions[rows]
