"""Coalition combinatorics used by every Shapley-value computation scheme.

Throughout the library a *coalition* is represented as a ``frozenset`` of
zero-based client indices.  The helpers here enumerate coalitions, sample
coalitions uniformly from a stratum (all coalitions of a given size), and
compute the combinatorial coefficients that appear in the MC-SV and CC-SV
definitions (Def. 3 and Def. 4 of the paper).
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Iterator, Sequence

import numpy as np

Coalition = frozenset


def coalition_key(members: Iterable[int]) -> frozenset:
    """Return the canonical (hashable) representation of a coalition."""
    return frozenset(int(m) for m in members)


def n_choose_k(n: int, k: int) -> int:
    """Binomial coefficient C(n, k); zero outside the valid range."""
    if k < 0 or k > n or n < 0:
        return 0
    return math.comb(n, k)


def marginal_coefficient(n: int, coalition_size: int) -> float:
    """Weight of a single marginal contribution in the exact MC-SV.

    For a coalition ``S`` not containing client ``i`` the MC-SV definition
    (Def. 3) weights ``U(S ∪ {i}) − U(S)`` by ``1 / (n · C(n−1, |S|))``.
    """
    if n <= 0:
        raise ValueError(f"number of clients must be positive, got {n}")
    if coalition_size < 0 or coalition_size > n - 1:
        raise ValueError(
            f"coalition size must lie in [0, {n - 1}], got {coalition_size}"
        )
    return 1.0 / (n * n_choose_k(n - 1, coalition_size))


def all_coalitions(n: int, include_empty: bool = True) -> Iterator[frozenset]:
    """Yield every coalition of ``n`` clients in size order.

    The number of coalitions is ``2**n``; callers are expected to keep ``n``
    small (exact Shapley computation is only feasible for roughly n <= 15).
    """
    start = 0 if include_empty else 1
    clients = range(n)
    for size in range(start, n + 1):
        for combo in itertools.combinations(clients, size):
            yield frozenset(combo)


def coalitions_of_size(n: int, size: int) -> Iterator[frozenset]:
    """Yield every coalition of exactly ``size`` clients out of ``n``."""
    if size < 0 or size > n:
        return iter(())
    return (frozenset(c) for c in itertools.combinations(range(n), size))


def unrank_combination(n: int, k: int, rank: int) -> frozenset:
    """The ``rank``-th size-``k`` subset of ``range(n)`` in lexicographic order.

    Ranks follow the combinatorial number system and match the enumeration
    order of ``itertools.combinations(range(n), k)`` (hence of
    :func:`coalitions_of_size`):  ``unrank_combination(n, k, r)`` equals the
    ``r``-th element of that stream, computed in ``O(n)`` without enumerating
    the ``C(n, k)`` predecessors.  This is what lets a sampler draw from a
    stratum of astronomically many coalitions while allocating only the
    coalitions it actually returns.
    """
    total = n_choose_k(n, k)
    if rank < 0 or rank >= total:
        raise ValueError(
            f"rank must lie in [0, C({n},{k})={total}), got {rank}"
        )
    members: list[int] = []
    remaining = k
    candidate = 0
    while remaining > 0:
        with_candidate = n_choose_k(n - candidate - 1, remaining - 1)
        if rank < with_candidate:
            members.append(candidate)
            remaining -= 1
        else:
            rank -= with_candidate
        candidate += 1
    return frozenset(members)


#: strata at most this large draw sample *ranks* in one vectorised
#: ``rng.choice(total, replace=False)`` call; larger strata use rejection
#: sampling on coalitions so nothing C(n, k)-shaped is ever allocated
SAMPLING_ENUMERATION_LIMIT = 4096


def sample_coalitions_of_size(
    n: int,
    k: int,
    rng: np.random.Generator,
    count: int,
):
    """Sample ``count`` coalitions of exactly ``k`` clients uniformly.

    Memory is ``O(count)`` regardless of how large the stratum is — the
    2^n-shaped coalition list is never materialised:

    * ``count >= C(n, k)`` — the whole stratum, enumerated lazily into a list
      (no RNG consumed: every coalition is in the sample).
    * stratum of at most :data:`SAMPLING_ENUMERATION_LIMIT` coalitions —
      ``count`` distinct *ranks* are drawn without replacement in one
      ``rng.choice`` call and unranked lexicographically
      (:func:`unrank_combination`).
    * larger strata — rejection-sampled without replacement, one
      :func:`random_coalition_of_size` draw per attempt; duplicates are
      vanishingly rare at any budget that could actually be *evaluated*
      (each sampled coalition costs one FL training), so the expected number
      of draws stays within a whisker of ``count``.

    Returns a list of ``frozenset`` coalitions without replacement; ordering
    is deterministic given the RNG state (lexicographic-rank order on the
    vectorised path, draw order on the rejection path).
    """
    if k < 0 or k > n:
        raise ValueError(f"coalition size must lie in [0, {n}], got {k}")
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    if count == 0:
        return []
    total = n_choose_k(n, k)
    if count >= total:
        return list(coalitions_of_size(n, k))
    if total <= SAMPLING_ENUMERATION_LIMIT:
        picks = rng.choice(total, size=count, replace=False)
        return [unrank_combination(n, k, int(rank)) for rank in picks]
    chosen: dict[frozenset, None] = {}
    while len(chosen) < count:
        chosen.setdefault(random_coalition_of_size(n, k, rng), None)
    return list(chosen)


def count_coalitions_up_to(n: int, max_size: int) -> int:
    """Number of coalitions with at most ``max_size`` members (including ∅)."""
    max_size = min(max_size, n)
    return sum(n_choose_k(n, k) for k in range(0, max_size + 1))


def max_fully_enumerable_size(n: int, budget: int) -> int:
    """Largest ``k*`` such that all coalitions of size ≤ k* fit in ``budget``.

    This is line 1 of Alg. 3 (IPSS): ``k* = max{k : sum_{j<=k} C(n, j) <= γ}``.
    Returns ``-1`` when even the empty coalition does not fit (budget < 1).
    """
    if budget < 1:
        return -1
    total = 0
    k_star = -1
    for k in range(0, n + 1):
        total += n_choose_k(n, k)
        if total <= budget:
            k_star = k
        else:
            break
    return k_star


def random_coalition(
    n: int,
    rng: np.random.Generator,
    exclude: Iterable[int] | None = None,
) -> frozenset:
    """Sample a coalition uniformly from all subsets of the eligible clients."""
    excluded = set(exclude) if exclude is not None else set()
    eligible = [i for i in range(n) if i not in excluded]
    mask = rng.random(len(eligible)) < 0.5
    return frozenset(c for c, keep in zip(eligible, mask) if keep)


def random_coalition_of_size(
    n: int,
    size: int,
    rng: np.random.Generator,
    exclude: Iterable[int] | None = None,
) -> frozenset:
    """Sample a coalition of exactly ``size`` clients uniformly at random."""
    excluded = set(exclude) if exclude is not None else set()
    eligible = [i for i in range(n) if i not in excluded]
    if size > len(eligible):
        raise ValueError(
            f"cannot sample coalition of size {size} from {len(eligible)} clients"
        )
    chosen = rng.choice(len(eligible), size=size, replace=False)
    return frozenset(eligible[int(i)] for i in chosen)


def random_permutation(n: int, rng: np.random.Generator) -> tuple[int, ...]:
    """Sample a uniformly random permutation of the ``n`` clients."""
    return tuple(int(i) for i in rng.permutation(n))


def predecessors_in_permutation(
    permutation: Sequence[int], client: int
) -> frozenset:
    """Clients that appear before ``client`` in ``permutation``.

    Used by permutation-based Shapley estimators (Perm-Shapley, Extended-TMC):
    the marginal contribution of ``client`` under a permutation π is
    ``U(pred ∪ {client}) − U(pred)``.
    """
    preds: list[int] = []
    for member in permutation:
        if member == client:
            return frozenset(preds)
        preds.append(member)
    raise ValueError(f"client {client} does not appear in the permutation")


def stratum_sizes(n: int) -> list[int]:
    """Number of coalitions in each stratum k = 0..n for ``n`` clients."""
    return [n_choose_k(n, k) for k in range(n + 1)]


def balanced_coalitions_of_size(
    n: int,
    size: int,
    budget: int,
    rng: np.random.Generator,
) -> list[frozenset]:
    """Sample up to ``budget`` distinct coalitions of ``size`` clients such that
    every client appears (as close as possible to) equally often.

    This realises constraint (3) of Alg. 3: ``∀ i, j ∈ N, C_i = C_j`` where
    ``C_k`` counts the sampled coalitions containing client ``k``.  Each new
    coalition greedily takes the ``size`` clients with the lowest appearance
    count so far (random tie-breaking); duplicates are escaped by re-drawing
    with probabilities that still favour under-represented clients, so counts
    stay within one of each other except in heavily constrained corner cases.
    """
    if size <= 0 or size > n or budget <= 0:
        return []
    total_available = n_choose_k(n, size)
    if budget >= total_available:
        return list(coalitions_of_size(n, size))

    counts = np.zeros(n, dtype=float)
    chosen: list[frozenset] = []
    seen: set[frozenset] = set()
    while len(chosen) < budget:
        # Greedy pick: the `size` least-used clients, random tie-breaking.
        jitter = rng.random(n)
        picked = _least_used(counts, jitter, size)
        members = frozenset(picked.tolist())
        if members in seen:
            # Escape duplicates by weighted sampling that still favours
            # under-represented clients.
            members = None
            for _ in range(20):
                weights = counts.max() - counts + 1.0
                weights = weights / weights.sum()
                draw = rng.choice(n, size=size, replace=False, p=weights)
                candidate = frozenset(int(c) for c in draw)
                if candidate not in seen:
                    members, picked = candidate, draw
                    break
            if members is None:
                break
        seen.add(members)
        chosen.append(members)
        counts[picked] += 1
    return chosen


def _least_used(counts: np.ndarray, jitter: np.ndarray, size: int) -> np.ndarray:
    """The ``size`` smallest ``(count, jitter)`` pairs, in ``np.lexsort`` order.

    Counts are whole numbers and jitter lies in [0, 1), so the rounded key
    ``counts + jitter`` never orders two pairs against their lexicographic
    order; it can only tie them.  When the ``size``-th smallest key is unique
    the ``np.argpartition`` selection is therefore exactly the lexsort prefix
    — O(n) instead of O(n log n) — and only the ``size`` picked indices are
    sorted, so the frozenset is built in the same insertion order.  A tie at
    the boundary falls back to the full lexsort.
    """
    if size < len(counts):
        key = counts + jitter
        picked = key.argpartition(size - 1)[:size]
        if np.count_nonzero(key == key[picked[-1]]) == 1:
            picked.sort()
            return picked[np.lexsort((jitter[picked], counts[picked]))]
    return np.lexsort((jitter, counts))[:size]


def client_appearance_counts(
    coalitions: Iterable[frozenset], n: int
) -> np.ndarray:
    """Count how many of the given coalitions contain each client."""
    counts = np.zeros(n, dtype=int)
    for coalition in coalitions:
        for member in coalition:
            counts[member] += 1
    return counts
