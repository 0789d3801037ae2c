"""Shared test helpers (importable from test modules, unlike conftest)."""

from __future__ import annotations

import numpy as np

from repro.fl import TabularUtility


def monotone_game(n_clients: int, seed: int = 0, concavity: float = 0.6) -> TabularUtility:
    """A random monotone, concave utility game resembling FL model accuracy.

    Each client has a weight; ``U(S) = 0.1 + 0.85 · (Σ_S w)^c / (Σ_N w)^c``,
    so utility grows monotonically in the coalition and saturates — the same
    qualitative behaviour as model accuracy when more data joins the
    federation.
    """
    generator = np.random.default_rng(seed)
    weights = generator.uniform(0.2, 1.0, size=n_clients)
    total = weights.sum() ** concavity

    def function(coalition: frozenset) -> float:
        if not coalition:
            return 0.1
        mass = sum(weights[i] for i in coalition) ** concavity
        return 0.1 + 0.85 * mass / total

    return TabularUtility.from_function(n_clients, function)
