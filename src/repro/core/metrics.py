"""Evaluation metrics for valuation algorithms.

The paper reports two headline metrics (Sec. V-A): calculation time and the
relative ℓ2 approximation error against the exact MC-SV values.  For the
scalability experiment (Fig. 9), where exact values are unobtainable, it uses
proxy metrics based on the fairness axioms: how far estimated values of
*null* clients are from zero (no-free-riders) and how far values of clients
with identical datasets are from each other (symmetric fairness).
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np


def relative_error_l2(estimated: np.ndarray, exact: np.ndarray) -> float:
    """``‖φ̂ − φ‖₂ / ‖φ‖₂`` — the paper's approximation-error metric (Eq. 21)."""
    estimated = np.asarray(estimated, dtype=float)
    exact = np.asarray(exact, dtype=float)
    if estimated.shape != exact.shape:
        raise ValueError(
            f"shape mismatch: estimated {estimated.shape} vs exact {exact.shape}"
        )
    denominator = np.linalg.norm(exact)
    if denominator == 0.0:
        return float(np.linalg.norm(estimated - exact))
    return float(np.linalg.norm(estimated - exact) / denominator)


def max_absolute_error(estimated: np.ndarray, exact: np.ndarray) -> float:
    """Worst-case per-client absolute error."""
    estimated = np.asarray(estimated, dtype=float)
    exact = np.asarray(exact, dtype=float)
    if estimated.shape != exact.shape:
        raise ValueError("estimated and exact must have the same shape")
    return float(np.max(np.abs(estimated - exact)))


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks, ties sharing the mean of the ranks they span."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    starts_group = np.concatenate(([True], ordered[1:] != ordered[:-1]))
    starts = np.flatnonzero(starts_group)
    ends = np.append(starts[1:], len(values))
    ranks = np.empty(len(values))
    ranks[order] = ((starts + ends + 1) / 2.0)[np.cumsum(starts_group) - 1]
    return ranks


def rank_correlation(estimated: np.ndarray, exact: np.ndarray) -> float:
    """Spearman rank correlation between estimated and exact values.

    Data markets mostly care about the *ordering* of clients; a high rank
    correlation means the approximation preserves who is worth more.  It is
    the Pearson correlation of the average ranks; a constant (or NaN-holding)
    input has no defined correlation and scores 0.0.
    """
    estimated = np.asarray(estimated, dtype=float)
    exact = np.asarray(exact, dtype=float)
    if estimated.shape != exact.shape:
        raise ValueError("estimated and exact must have the same shape")
    if len(estimated) < 2:
        return 1.0
    if np.isnan(estimated).any() or np.isnan(exact).any():
        return 0.0
    a = _average_ranks(estimated)
    b = _average_ranks(exact)
    a -= a.mean()
    b -= b.mean()
    denominator = np.sqrt(np.dot(a, a) * np.dot(b, b))
    if denominator == 0.0:
        return 0.0
    return float(np.clip(np.dot(a, b) / denominator, -1.0, 1.0))


def null_player_error(values: np.ndarray, null_clients: Iterable[int]) -> float:
    """No-free-riders proxy error (Fig. 9).

    Clients in ``null_clients`` hold empty (or useless) datasets, so their
    exact value is zero.  The error is the ℓ2 norm of their estimated values
    normalised by the ℓ2 norm of all values; zero means the axiom holds.
    """
    values = np.asarray(values, dtype=float)
    null_clients = list(null_clients)
    if not null_clients:
        return 0.0
    denominator = np.linalg.norm(values)
    if denominator == 0.0:
        return 0.0
    return float(np.linalg.norm(values[null_clients]) / denominator)


def symmetry_error(values: np.ndarray, duplicate_groups: Sequence[Sequence[int]]) -> float:
    """Symmetric-fairness proxy error (Fig. 9).

    Each group in ``duplicate_groups`` lists clients holding identical
    datasets, whose exact values are equal.  The error is the average spread
    (max − min) within each group, normalised by the mean absolute value.
    """
    values = np.asarray(values, dtype=float)
    spreads = []
    for group in duplicate_groups:
        group = list(group)
        if len(group) < 2:
            continue
        member_values = values[group]
        spreads.append(float(member_values.max() - member_values.min()))
    if not spreads:
        return 0.0
    scale = float(np.mean(np.abs(values)))
    if scale == 0.0:
        return float(np.mean(spreads))
    return float(np.mean(spreads) / scale)


def fairness_proxy_error(
    values: np.ndarray,
    null_clients: Iterable[int],
    duplicate_groups: Sequence[Sequence[int]],
) -> float:
    """Combined Fig. 9 proxy: null-player error plus symmetry error."""
    return null_player_error(values, null_clients) + symmetry_error(
        values, duplicate_groups
    )


def efficiency_gap(values: np.ndarray, grand_utility: float, empty_utility: float) -> float:
    """|Σ φ_i − (U(N) − U(∅))| — how far the values are from efficiency.

    The exact Shapley value satisfies efficiency exactly; approximations do
    not, and the gap is a useful diagnostic reported in EXPERIMENTS.md.
    """
    values = np.asarray(values, dtype=float)
    return float(abs(values.sum() - (grand_utility - empty_utility)))
