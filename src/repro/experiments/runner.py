"""Shared comparison runner: run a suite of algorithms on one utility oracle.

The paper's end-to-end experiments (Fig. 1b, Fig. 6, Table IV, Table V) all
have the same shape: fix a task, run every algorithm, report per-algorithm
wall-clock time and relative ℓ2 error against the exact MC-SV ground truth.
:func:`run_comparison` implements that once; the table/figure modules build on
it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from repro.core import (
    CCShapleySampling,
    DIGFL,
    ExtendedGTB,
    ExtendedTMC,
    GTGShapley,
    IPSS,
    LambdaMR,
    MCShapley,
    ORBaseline,
    PermShapley,
    rank_correlation,
    relative_error_l2,
)
from repro.core.result import ValuationResult
from repro.experiments.config import sampling_rounds_for
from repro.utils.rng import SeedLike

#: algorithm-name groups used when filtering suites
EXACT_ALGORITHMS = ("Perm-Shapley", "MC-Shapley")
SAMPLING_ALGORITHMS = ("Extended-TMC", "Extended-GTB", "CC-Shapley", "IPSS")
GRADIENT_ALGORITHMS = ("DIG-FL", "OR", "lambda-MR", "GTG-Shapley")


@dataclass
class ComparisonRow:
    """One algorithm's outcome on one task."""

    algorithm: str
    values: np.ndarray
    elapsed_seconds: float
    utility_evaluations: int
    relative_error: Optional[float] = None
    rank_corr: Optional[float] = None
    is_exact: bool = False

    def to_dict(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "time_s": self.elapsed_seconds,
            "evaluations": self.utility_evaluations,
            "error_l2": self.relative_error,
            "rank_correlation": self.rank_corr,
        }


@dataclass
class SkippedAlgorithm:
    """Record of an algorithm that was skipped during a comparison run.

    Distinguishes the deliberate "\\" entries of the paper's Table V (e.g. a
    gradient-based method on an XGBoost task) from genuine crashes: the
    skipped algorithm's name, the exception type and its message are kept so
    reports can explain *why* a cell is empty.
    """

    algorithm: str
    reason: str
    error_type: str

    def to_dict(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "reason": self.reason,
            "error_type": self.error_type,
        }


@dataclass
class AlgorithmComparison:
    """All rows of one comparison plus the ground truth used for errors."""

    rows: list[ComparisonRow] = field(default_factory=list)
    exact_values: Optional[np.ndarray] = None
    task_label: str = ""
    skipped: list[SkippedAlgorithm] = field(default_factory=list)

    def row(self, algorithm: str) -> ComparisonRow:
        for row in self.rows:
            if row.algorithm == algorithm:
                return row
        raise KeyError(f"no row for algorithm {algorithm!r}")

    def best_error(self) -> ComparisonRow:
        candidates = [r for r in self.rows if r.relative_error is not None]
        if not candidates:
            raise ValueError("no approximate rows with a recorded error")
        return min(candidates, key=lambda r: r.relative_error)

    def fastest(self, approximate_only: bool = True) -> ComparisonRow:
        rows = [r for r in self.rows if not (approximate_only and r.is_exact)]
        return min(rows, key=lambda r: r.elapsed_seconds)

    def to_records(self) -> list[dict]:
        return [row.to_dict() for row in self.rows]


def build_algorithm_suite(
    n_clients: int,
    total_rounds: Optional[int] = None,
    include_exact: bool = True,
    include_perm: bool = False,
    include_gradient: bool = True,
    include_sampling: bool = True,
    seed: SeedLike = 0,
) -> list:
    """Instantiate the paper's algorithm line-up for a given client count.

    All sampling-based algorithms share the same budget γ (Table III), exactly
    as in the paper's setup.  ``include_perm`` is off by default because the
    permutation-exact baseline is factorially expensive even on tiny tasks.
    """
    gamma = total_rounds if total_rounds is not None else sampling_rounds_for(n_clients)
    suite = []
    if include_exact:
        if include_perm:
            suite.append(PermShapley(seed=seed))
        suite.append(MCShapley(seed=seed))
    if include_gradient:
        suite.append(DIGFL(seed=seed))
    if include_sampling:
        suite.append(ExtendedTMC(total_rounds=gamma, seed=seed))
        suite.append(ExtendedGTB(total_rounds=gamma, seed=seed))
        suite.append(CCShapleySampling(total_rounds=gamma, seed=seed))
    if include_gradient:
        suite.append(GTGShapley(seed=seed))
        suite.append(ORBaseline(seed=seed))
        suite.append(LambdaMR(seed=seed))
    suite.append(IPSS(total_rounds=gamma, seed=seed))
    return suite


def run_comparison(
    utility,
    algorithms: Sequence,
    n_clients: Optional[int] = None,
    exact_values: Optional[np.ndarray] = None,
    task_label: str = "",
    skip_failures: bool = True,
) -> AlgorithmComparison:
    """Run every algorithm on the oracle and score it against the exact values.

    Exact values are computed with MC-Shapley when not provided and when an
    exact algorithm is part of the suite; otherwise errors are left ``None``.
    Gradient-based algorithms that are inapplicable to the task's model (e.g.
    XGBoost) are skipped when ``skip_failures`` is true, mirroring the "\\"
    entries of the paper's Table V; each skip is recorded (algorithm, reason,
    exception type) in :attr:`AlgorithmComparison.skipped` so empty cells stay
    distinguishable from crashes.

    The oracle is used as configured: its executor backend (see
    :meth:`repro.parallel.BatchUtilityOracle.set_executor`) changes cost,
    never values.
    """
    if n_clients is not None:
        n = int(n_clients)
    else:
        n = getattr(utility, "n_clients", None)
        if n is None:
            raise ValueError(
                "n_clients was not provided and the utility oracle does not "
                "expose an n_clients attribute; pass n_clients=... to "
                "run_comparison (plain game functions cannot be introspected)"
            )
        n = int(n)
    comparison = AlgorithmComparison(task_label=task_label)
    reset_cache = getattr(utility, "reset_cache", None)

    results: list[tuple[object, ValuationResult]] = []
    for algorithm in algorithms:
        # Every algorithm pays its own FL-training cost, as in the paper's
        # per-algorithm wall-clock measurements: warm cache entries left by
        # a previously run algorithm are dropped first.
        if callable(reset_cache):
            reset_cache()
        try:
            result = algorithm.run(utility, n)
        except (TypeError, ValueError) as error:
            if skip_failures:
                comparison.skipped.append(
                    SkippedAlgorithm(
                        algorithm=getattr(
                            algorithm, "name", type(algorithm).__name__
                        ),
                        reason=str(error),
                        error_type=type(error).__name__,
                    )
                )
                continue
            raise error
        results.append((algorithm, result))
        if exact_values is None and isinstance(algorithm, MCShapley):
            exact_values = result.values

    comparison.exact_values = (
        None if exact_values is None else np.asarray(exact_values, dtype=float)
    )
    for algorithm, result in results:
        _append_row(comparison, algorithm, result)
    return comparison


def _append_row(comparison: AlgorithmComparison, algorithm, result) -> None:
    """Score one algorithm's result against the comparison's exact values."""
    is_exact = isinstance(algorithm, (MCShapley, PermShapley))
    error = None
    correlation = None
    if comparison.exact_values is not None and not is_exact:
        error = relative_error_l2(result.values, comparison.exact_values)
        correlation = rank_correlation(result.values, comparison.exact_values)
    comparison.rows.append(
        ComparisonRow(
            algorithm=result.algorithm,
            values=result.values,
            elapsed_seconds=result.elapsed_seconds,
            utility_evaluations=result.utility_evaluations,
            relative_error=error,
            rank_corr=correlation,
            is_exact=is_exact,
        )
    )


def run_spec(
    spec,
    algorithms: Optional[Sequence] = None,
    store=None,
    exact_values: Optional[np.ndarray] = None,
    include_perm: bool = False,
    include_gradient: bool = True,
    skip_failures: bool = True,
) -> AlgorithmComparison:
    """Run a comparison on a declaratively specified task.

    The spec-consuming face of :func:`run_comparison`: builds the utility
    oracle from a :class:`~repro.experiments.specs.TaskSpec` (store-backed
    when ``store`` is given, so trained coalitions persist across runs),
    derives the default algorithm suite from the task's client count and the
    paper's budget table, and tears the oracle down deterministically.
    """
    utility, info = spec.build_with_info(store)
    n = int(info.get("n_clients", spec.n_clients))
    if algorithms is None:
        algorithms = build_algorithm_suite(
            n,
            total_rounds=sampling_rounds_for(n),
            include_perm=include_perm,
            include_gradient=include_gradient,
            seed=spec.seed,
        )
    with utility:
        return run_comparison(
            utility,
            algorithms,
            n_clients=n,
            exact_values=exact_values,
            task_label=spec.label(),
            skip_failures=skip_failures,
        )
