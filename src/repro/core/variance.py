"""Variance analysis of the MC-SV and CC-SV computation schemes.

Theorem 2 of the paper shows that, inside the stratified sampling framework
and under the FL linear-regression model, the MC-SV scheme always has lower
variance than the CC-SV scheme.  This module provides

* the closed-form variance expressions used in the proof (Eq. 9 / Eq. 10),
* an empirical variance estimator that repeatedly runs Alg. 1 with either
  scheme and measures the spread of the estimates (Fig. 10), and
* a convenience comparison helper used by the theory benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.core.base import UtilityFunction
from repro.core.stratified import StratifiedSampling
from repro.utils.rng import RandomState, SeedLike, spawn_rng


def theoretical_variance_mc(
    client_sizes: Sequence[int],
    client: int,
    rounds_per_stratum: Sequence[int],
    noise_variance: float = 1.0,
) -> float:
    """Eq. 9: variance of the MC-SV estimator for one client.

    ``Var[φ̂_i^MC] = Σ_k Σ_S |D_i|² σ² / (n² m_{i,k}²)`` — with one sampled
    coalition per (stratum, round) the inner sum has ``m_{i,k}`` terms, giving
    ``Σ_k |D_i|² σ² / (n² m_{i,k})``.
    """
    sizes = np.asarray(client_sizes, dtype=float)
    n = len(sizes)
    own = sizes[client]
    total = 0.0
    for m_k in rounds_per_stratum:
        if m_k <= 0:
            continue
        total += own**2 * noise_variance / (n**2 * m_k)
    return float(total)


def theoretical_variance_cc(
    client_sizes: Sequence[int],
    client: int,
    rounds_per_stratum: Sequence[int],
    noise_variance: float = 1.0,
    expected_coalition_fraction: float = 0.5,
) -> float:
    """Eq. 10: variance of the CC-SV estimator for one client.

    The coalition-size term ``(|D_S| + |D_i|)² + (|D_N| − |D_S| − |D_i|)²``
    depends on the sampled coalition; we evaluate it at the expected coalition
    size (``expected_coalition_fraction`` of the remaining data), which is the
    comparison point used in the paper's discussion.
    """
    sizes = np.asarray(client_sizes, dtype=float)
    n = len(sizes)
    own = sizes[client]
    others_total = sizes.sum() - own
    coalition_data = expected_coalition_fraction * others_total
    total_data = sizes.sum()
    per_sample = (coalition_data + own) ** 2 + (total_data - coalition_data - own) ** 2
    total = 0.0
    for m_k in rounds_per_stratum:
        if m_k <= 0:
            continue
        total += per_sample * noise_variance / (n**2 * m_k)
    return float(total)


def contribution_variance(
    utility: UtilityFunction,
    n_clients: int,
    n_samples: int = 200,
    seed: SeedLike = None,
) -> dict[str, float]:
    """Empirical variance of a *single* MC vs CC contribution sample.

    Theorem 2 compares the variance of the building blocks of the two schemes:
    one MC sample is ``U(S ∪ {i}) − U(S)``, one CC sample is
    ``U(S ∪ {i}) − U(N \\ (S ∪ {i}))``, with the client ``i`` and the coalition
    ``S ⊆ N \\ {i}`` drawn at random.  This routine draws ``n_samples`` of
    each (using the same ``(i, S)`` pairs for both schemes so the comparison is
    paired) and returns their empirical variances.
    """
    from repro.utils.combinatorics import random_coalition_of_size

    if n_samples < 2:
        raise ValueError("n_samples must be at least 2")
    rng = RandomState(seed)
    everyone = frozenset(range(n_clients))
    mc_samples = np.empty(n_samples)
    cc_samples = np.empty(n_samples)
    for index in range(n_samples):
        client = int(rng.integers(0, n_clients))
        size = int(rng.integers(0, n_clients))
        coalition = random_coalition_of_size(n_clients, size, rng, exclude=[client])
        with_client = coalition | {client}
        mc_samples[index] = utility(with_client) - utility(coalition)
        cc_samples[index] = utility(with_client) - utility(everyone - with_client)
    return {
        "mc_variance": float(mc_samples.var(ddof=1)),
        "cc_variance": float(cc_samples.var(ddof=1)),
        "mc_is_lower": bool(mc_samples.var(ddof=1) <= cc_samples.var(ddof=1)),
    }


@dataclass
class VarianceComparison:
    """Empirical variance of both schemes over repeated runs of Alg. 1.

    ``evaluations`` / ``store_hits`` record what the sweep cost: how many
    oracle evaluations (FL trainings) were actually performed, and how many
    lookups the persistent store served instead (always zero without a
    store; ``evaluations`` is zero when the oracle exposes no counter).
    """

    mc_variance: np.ndarray
    cc_variance: np.ndarray
    mc_mean: np.ndarray
    cc_mean: np.ndarray
    repetitions: int
    evaluations: int = 0
    store_hits: int = 0

    @property
    def mean_mc_variance(self) -> float:
        return float(self.mc_variance.mean())

    @property
    def mean_cc_variance(self) -> float:
        return float(self.cc_variance.mean())

    @property
    def mc_is_lower(self) -> bool:
        """Whether the empirical result agrees with Theorem 2."""
        return self.mean_mc_variance <= self.mean_cc_variance


def empirical_scheme_variance(
    utility: UtilityFunction,
    n_clients: int,
    total_rounds: int,
    repetitions: int = 20,
    seed: SeedLike = None,
    store=None,
    store_namespace: Optional[str] = None,
) -> VarianceComparison:
    """Run Alg. 1 repeatedly with both schemes and measure estimator variance.

    This reproduces the procedure behind Fig. 10: the same utility oracle and
    sampling budget are used for both schemes; only the pairing rule differs.

    With ``store=`` (a :class:`~repro.store.UtilityStore` instance or a path)
    the raw oracle is wrapped in one shared
    :class:`~repro.parallel.BatchUtilityOracle` for the whole sweep, so the
    2 × ``repetitions`` stratified runs reuse every already-evaluated
    coalition (within the sweep *and* across processes sharing the store)
    instead of re-training it per repetition — the estimates themselves are
    bitwise-unchanged, only the cost drops.  Because store keys are plain
    coalition sets, ``store_namespace`` must content-address the *task* (use
    :meth:`TaskSpec.fingerprint` or equivalent) — it is therefore required
    whenever a store is attached, so two different tasks can never silently
    serve each other's cached utilities.
    """
    if repetitions < 2:
        raise ValueError("at least two repetitions are needed to estimate variance")
    if store is not None and store_namespace is None:
        raise ValueError(
            "store_namespace is required when a store is attached: store keys "
            "are coalition sets, so the namespace must content-address the "
            "task (e.g. its TaskSpec fingerprint) to keep sweeps over "
            "different utilities from sharing cached values"
        )
    rng = RandomState(seed)
    seeds = spawn_rng(rng, 2 * repetitions)

    oracle = utility
    owns_oracle = False
    if store is not None:
        from repro.parallel import BatchUtilityOracle

        oracle = BatchUtilityOracle(
            utility,
            n_clients=n_clients,
            store=store,
            store_namespace=store_namespace,
        )
        owns_oracle = True
    evaluations_before = int(getattr(oracle, "evaluations", 0))
    store_hits_before = int(getattr(oracle, "store_hits", 0))

    mc_estimates = np.zeros((repetitions, n_clients))
    cc_estimates = np.zeros((repetitions, n_clients))
    try:
        for rep in range(repetitions):
            mc_algorithm = StratifiedSampling(
                total_rounds=total_rounds, scheme="mc", seed=seeds[2 * rep]
            )
            cc_algorithm = StratifiedSampling(
                total_rounds=total_rounds, scheme="cc", seed=seeds[2 * rep + 1]
            )
            mc_estimates[rep] = mc_algorithm.run(oracle, n_clients).values
            cc_estimates[rep] = cc_algorithm.run(oracle, n_clients).values
        evaluations = int(getattr(oracle, "evaluations", 0)) - evaluations_before
        store_hits = int(getattr(oracle, "store_hits", 0)) - store_hits_before
    finally:
        if owns_oracle:
            # Closes any store the oracle opened from a path; stores passed in
            # as instances stay with the caller.
            oracle.close()

    return VarianceComparison(
        mc_variance=mc_estimates.var(axis=0, ddof=1),
        cc_variance=cc_estimates.var(axis=0, ddof=1),
        mc_mean=mc_estimates.mean(axis=0),
        cc_mean=cc_estimates.mean(axis=0),
        repetitions=repetitions,
        evaluations=evaluations,
        store_hits=store_hits,
    )
