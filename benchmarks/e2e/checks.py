"""Value checks of the benchmark's outputs (pure functions over plain lists).

Each check returns a list of problems; an operation with any problem counts
as failed.  Values arrive as the JSON floats the program wrote, which
round-trip exactly, so "bitwise-equal" is plain list equality.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence

#: absolute tolerance for reference and recomputation agreement; matches
#: the vectorized backend's documented parity guarantee
PARITY_ATOL = 1e-9

#: absolute tolerance of the MC-Shapley efficiency axiom
EFFICIENCY_ATOL = 1e-9


def finite_problems(cell: str, values: Sequence[float]) -> List[str]:
    if all(math.isfinite(value) for value in values):
        return []
    return [f"{cell}: non-finite values"]


def efficiency_problems(
    cell: str, values: Sequence[float], grand: Optional[float], empty: Optional[float]
) -> List[str]:
    """Efficiency axiom: the values sum to U(N) - U(empty set)."""
    if grand is None or empty is None:
        return [f"{cell}: U(N) or U(empty set) missing from the store"]
    gap = abs(math.fsum(values) - (grand - empty))
    if gap > EFFICIENCY_ATOL:
        return [f"{cell}: efficiency off by {gap:.3g}"]
    return []


def budget_problems(cell: str, evaluations: int, gamma: int) -> List[str]:
    if evaluations > gamma:
        return [f"{cell}: {evaluations} evaluations exceed gamma={gamma}"]
    return []


def agreement_problems(
    cells: Dict[str, Sequence[float]],
    expected: Dict[str, Sequence[float]],
    atol: Optional[float] = PARITY_ATOL,
) -> List[str]:
    """Every cell matches its expected values (``atol=None``: bitwise)."""
    problems = []
    for cell, values in sorted(cells.items()):
        want = expected.get(cell)
        if want is None:
            problems.append(f"{cell}: no expected values")
        elif len(want) != len(values):
            problems.append(f"{cell}: {len(values)} values, expected {len(want)}")
        elif atol is None:
            if list(values) != list(want):
                problems.append(f"{cell}: values differ bitwise")
        else:
            worst = max((abs(a - b) for a, b in zip(values, want)), default=0.0)
            if not worst <= atol:
                problems.append(f"{cell}: off by {worst:.3g} (atol {atol:g})")
    return problems
