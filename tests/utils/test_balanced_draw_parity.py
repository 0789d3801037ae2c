"""The argpartition balanced draw returns exactly what the full lexsort did.

``balanced_coalitions_of_size`` picks each coalition's ``size`` least-used
clients with ``np.argpartition`` on ``counts + jitter`` and falls back to the
full ``np.lexsort`` when the boundary key ties.  IPSS checkpoints persist the
generator state, not the sample, so any difference in the coalitions (or in
the order their members are inserted) would change every phase-2 value.
``lexsort_draw`` below is the draw as it was before the argpartition pick,
kept verbatim as the reference.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.combinatorics import (
    _least_used,
    balanced_coalitions_of_size,
    coalitions_of_size,
    n_choose_k,
)


def lexsort_draw(n, size, budget, rng):
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
        order = np.lexsort((jitter, counts))
        members = frozenset(int(c) for c in order[:size])
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
                    members = candidate
                    break
            if members is None:
                break
        seen.add(members)
        chosen.append(members)
        for member in members:
            counts[member] += 1
    return chosen


class RepeatingJitter:
    """A generator whose ``random`` draws from a few values, forcing ties.

    ``1 - 2**-53`` rounds ``count + jitter`` up to ``count + 1`` for any
    count of at least one, so it also ties keys of different counts.
    """

    VALUES = np.array([0.0, 0.25, 0.5, np.nextafter(1.0, 0.0)])

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)

    def random(self, n):
        return self.VALUES[self._rng.integers(0, len(self.VALUES), n)]

    def choice(self, *args, **kwargs):
        return self._rng.choice(*args, **kwargs)


def assert_same_draw(expected, actual):
    assert actual == expected
    # Same members inserted in the same order: frozenset iteration agrees.
    assert [tuple(c) for c in actual] == [tuple(c) for c in expected]


shapes = st.integers(min_value=1, max_value=12).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.integers(min_value=1, max_value=n),
        st.integers(min_value=1, max_value=min(math.comb(n, n // 2) + 3, 80)),
    )
)


@settings(max_examples=150, deadline=None)
@given(shape=shapes, seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_draw_matches_lexsort_reference(shape, seed):
    n, size, budget = shape
    assert_same_draw(
        lexsort_draw(n, size, budget, np.random.default_rng(seed)),
        balanced_coalitions_of_size(n, size, budget, np.random.default_rng(seed)),
    )


@settings(max_examples=150, deadline=None)
@given(shape=shapes, seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_draw_matches_lexsort_reference_under_jitter_ties(shape, seed):
    n, size, budget = shape
    assert_same_draw(
        lexsort_draw(n, size, budget, RepeatingJitter(seed)),
        balanced_coalitions_of_size(n, size, budget, RepeatingJitter(seed)),
    )


def test_duplicate_escape_path_matches_reference():
    # Near the whole stratum (19 of C(6, 3) = 20) the greedy pick repeats a
    # coalition and the weighted rng.choice escape runs, on both draws.
    escapes = 0
    for seed in range(20):
        reference = lexsort_draw(6, 3, 19, np.random.default_rng(seed))
        assert_same_draw(
            reference,
            balanced_coalitions_of_size(6, 3, 19, np.random.default_rng(seed)),
        )
        # A greedy-only draw leaves the generator after 19 random(6) calls.
        greedy_only = np.random.default_rng(seed)
        greedy_only.random(6 * 19)
        probe = np.random.default_rng(seed)
        lexsort_draw(6, 3, 19, probe)
        escapes += probe.random() != greedy_only.random()
    assert escapes > 0


@pytest.mark.parametrize("swap", [False, True])
def test_rounded_boundary_tie_falls_back_to_lexsort(swap):
    # The key 1 + (1 - 2**-53) rounds to 2.0 and ties 2 + 0, though
    # (1, 1 - 2**-53) sorts before (2, 0); either index order must pick it.
    almost_one = np.nextafter(1.0, 0.0)
    counts = np.array([0.0, 0.0, 1.0, 2.0])
    jitter = np.array([0.5, almost_one, almost_one, 0.0])
    if swap:
        counts, jitter = counts[[0, 1, 3, 2]], jitter[[0, 1, 3, 2]]
    key = counts + jitter
    assert key[2] == key[3]
    order = np.lexsort((jitter, counts))
    for size in range(1, 5):
        np.testing.assert_array_equal(_least_used(counts, jitter, size), order[:size])
