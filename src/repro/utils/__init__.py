"""Shared utilities: coalition combinatorics, RNG control, timing and validation.

These helpers are intentionally free of any federated-learning or valuation
logic so that every other subpackage (``repro.core``, ``repro.fl``,
``repro.datasets``, ``repro.experiments``) can depend on them without creating
import cycles.
"""

from repro.utils.combinatorics import (
    all_coalitions,
    coalition_key,
    coalitions_of_size,
    count_coalitions_up_to,
    marginal_coefficient,
    max_fully_enumerable_size,
    n_choose_k,
    random_coalition,
    random_coalition_of_size,
    random_permutation,
)
from repro.utils.rng import RandomState, spawn_rng
from repro.utils.timer import Timer
from repro.utils.validation import (
    check_client_count,
    check_fraction,
    check_positive,
    check_probability_vector,
)

__all__ = [
    "all_coalitions",
    "coalition_key",
    "coalitions_of_size",
    "count_coalitions_up_to",
    "marginal_coefficient",
    "max_fully_enumerable_size",
    "n_choose_k",
    "random_coalition",
    "random_coalition_of_size",
    "random_permutation",
    "RandomState",
    "spawn_rng",
    "Timer",
    "check_client_count",
    "check_fraction",
    "check_positive",
    "check_probability_vector",
]
