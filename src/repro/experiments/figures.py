"""Regenerators for the paper's figures (Fig. 1b, 4, 6, 7, 8, 9, 10).

Each function runs the experiment behind one figure and returns the numeric
series the figure plots; :func:`repro.experiments.reporting.format_series`
renders them as text.  Tasks are described declaratively
(:class:`~repro.experiments.specs.TaskSpec`), dataset/model sizes are
controlled by :class:`~repro.experiments.config.ExperimentScale`, and every
figure accepts ``store=`` to persist trained coalition utilities across
invocations (regenerating a figure against a warm store retrains nothing).

Fig. 1(b) and Fig. 6 run the paper's whole line-up as an
:class:`~repro.experiments.pipeline.ExperimentPlan` (:func:`figure1b_plan`,
:func:`figure6_plan`) through :func:`~repro.experiments.pipeline.run_plan`
in a throwaway run directory; call ``run_plan(figure6_plan(...), run_dir)``
for a durable, resumable one.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core import (
    CCShapleySampling,
    ExtendedGTB,
    ExtendedTMC,
    IPSS,
    KGreedy,
    MCShapley,
    empirical_scheme_variance,
    fairness_proxy_error,
    rank_correlation,
    relative_error_l2,
)
from repro.core.variance import contribution_variance
from repro.experiments.config import ExperimentScale, sampling_rounds_for
from repro.experiments.pipeline import (
    EXACT_ALGORITHMS,
    ExperimentPlan,
    paper_algorithms,
    plan_rows,
)
from repro.experiments.specs import TaskSpec, scale_preset_name
from repro.experiments.tasks import SYNTHETIC_SETUPS
from repro.store import StoreLike
from repro.utils.combinatorics import count_coalitions_up_to
from repro.utils.rng import RandomState, spawn_rng
from repro.utils.timer import Timer


def _femnist_spec(
    scale: ExperimentScale,
    n_clients: int,
    model: str,
    seed: int,
    n_null_clients: int = 0,
    n_duplicate_clients: int = 0,
) -> TaskSpec:
    return TaskSpec(
        kind="femnist",
        n_clients=n_clients,
        model=model,
        scale=scale_preset_name(scale),
        seed=seed,
        n_null_clients=n_null_clients,
        n_duplicate_clients=n_duplicate_clients,
    )


# --------------------------------------------------------------------------- #
# Fig. 1(b): time-vs-error scatter on FEMNIST with ten clients
# --------------------------------------------------------------------------- #
def figure1b_plan(
    scale: Optional[ExperimentScale] = None,
    n_clients: int = 10,
    model: str = "mlp",
    seed: int = 0,
) -> ExperimentPlan:
    """Fig. 1(b) as a plan: the paper's line-up on one femnist-like task."""
    spec = _femnist_spec(scale or ExperimentScale.small(), n_clients, model, seed)
    return ExperimentPlan(
        tasks=(spec,), algorithms=paper_algorithms((model,)), name="figure1b"
    )


def figure1b(
    scale: Optional[ExperimentScale] = None,
    n_clients: int = 10,
    model: str = "mlp",
    seed: int = 0,
    store: StoreLike = None,
) -> list[dict]:
    """Motivating scatter: each algorithm's (time, error) point."""
    plan = figure1b_plan(scale, n_clients, model, seed)
    return [
        {
            "algorithm": row["algorithm"],
            "time_s": row["time_s"],
            "error_l2": row["error_l2"],
        }
        for _, row in plan_rows(plan, store)
        if row["algorithm"] not in EXACT_ALGORITHMS
    ]


# --------------------------------------------------------------------------- #
# Fig. 4: K-Greedy — error and evaluation count versus K
# --------------------------------------------------------------------------- #
def figure4(
    scale: Optional[ExperimentScale] = None,
    n_clients: int = 10,
    model: str = "mlp",
    max_k: Optional[int] = None,
    seed: int = 0,
    store: StoreLike = None,
) -> dict:
    """Key-combinations probe: relative error of K-Greedy as K grows."""
    scale = scale or ExperimentScale.small()
    max_k = max_k or n_clients
    with _femnist_spec(scale, n_clients, model, seed).build(store) as utility:
        exact = MCShapley(seed=seed).run(utility, n_clients).values

        ks, errors, evaluations = [], [], []
        for k in range(1, max_k + 1):
            result = KGreedy(max_size=k, seed=seed).run(utility, n_clients)
            ks.append(k)
            errors.append(relative_error_l2(result.values, exact))
            evaluations.append(count_coalitions_up_to(n_clients, k))
    return {"k": ks, "relative_error": errors, "evaluations": evaluations}


# --------------------------------------------------------------------------- #
# Convergence curves: the anytime protocol's evaluations-vs-quality trace
# --------------------------------------------------------------------------- #
def convergence_curve(
    algorithm,
    utility,
    n_clients: Optional[int] = None,
    reference: Optional[np.ndarray] = None,
    stopping_rule=None,
) -> dict:
    """Trace an estimator's convergence trajectory chunk by chunk.

    Records, per chunk, the evaluations spent, elapsed wall-clock, the
    largest per-client 95% CI half-width (where the estimator defines
    standard errors for every client) and — when ``reference`` values (e.g.
    exact MC-SV) are given — the relative ℓ2 error and Spearman rank
    correlation against them.  With a ``stopping_rule`` the trace ends where
    the rule fires, which is exactly the trade-off the curve is meant to
    show: evaluations saved versus estimate quality at the stopping point.
    The snapshot stream is driven by
    :meth:`~repro.core.ValuationAlgorithm.run` — the same loop the pipeline
    and CLI use — so a curve's stopping point is exactly where a real run
    would stop.
    """
    reference = None if reference is None else np.asarray(reference, dtype=float)
    series: dict = {
        "algorithm": algorithm.name,
        "chunk": [],
        "evaluations": [],
        "elapsed_s": [],
        "max_ci95": [],
        "error_l2": [],
        "rank_correlation": [],
        "stopped_by": None,
        "done": False,
    }

    def record(snapshot) -> None:
        series["chunk"].append(snapshot.chunk_index)
        series["evaluations"].append(snapshot.evaluations)
        series["elapsed_s"].append(snapshot.elapsed_seconds)
        series["max_ci95"].append(snapshot.max_ci95())
        series["error_l2"].append(
            None if reference is None else relative_error_l2(snapshot.values, reference)
        )
        series["rank_correlation"].append(
            None if reference is None else rank_correlation(snapshot.values, reference)
        )
        series["done"] = bool(snapshot.done)

    result = algorithm.run(
        utility, n_clients, stopping_rule=stopping_rule, on_snapshot=record
    )
    series["stopped_by"] = result.metadata.get("stopped_by")
    return series


# --------------------------------------------------------------------------- #
# Fig. 6: the five synthetic setups, MLP and CNN
# --------------------------------------------------------------------------- #
def figure6_plan(
    scale: Optional[ExperimentScale] = None,
    setups: Sequence[str] = SYNTHETIC_SETUPS,
    models: Sequence[str] = ("mlp", "cnn"),
    n_clients: int = 10,
    seed: int = 0,
) -> ExperimentPlan:
    """Fig. 6 as a plan: a synthetic task per (setup, model), in row order."""
    scale_name = scale_preset_name(scale or ExperimentScale.small())
    tasks = [
        TaskSpec(
            kind="synthetic",
            setup=setup,
            n_clients=n_clients,
            model=model,
            scale=scale_name,
            seed=seed,
        )
        for setup in setups
        for model in models
    ]
    return ExperimentPlan(
        tasks=tasks, algorithms=paper_algorithms(models), name="figure6"
    )


def figure6(
    scale: Optional[ExperimentScale] = None,
    setups: Sequence[str] = SYNTHETIC_SETUPS,
    models: Sequence[str] = ("mlp", "cnn"),
    n_clients: int = 10,
    seed: int = 0,
    store: StoreLike = None,
) -> list[dict]:
    """Time and error of every algorithm on the synthetic setups (a)–(e)."""
    plan = figure6_plan(scale, setups, models, n_clients, seed)
    return [
        {
            "setup": spec.setup,
            "model": spec.model,
            "algorithm": row["algorithm"],
            "time_s": row["time_s"],
            "error_l2": row["error_l2"],
        }
        for spec, row in plan_rows(plan, store)
    ]


# --------------------------------------------------------------------------- #
# Fig. 7: error versus sampling rounds γ
# --------------------------------------------------------------------------- #
def figure7(
    scale: Optional[ExperimentScale] = None,
    n_clients: int = 10,
    model: str = "mlp",
    gammas: Sequence[int] = (8, 16, 32, 64, 128),
    repetitions: int = 3,
    seed: int = 0,
    store: StoreLike = None,
) -> dict:
    """Mean relative error of the sampling algorithms as γ grows."""
    scale = scale or ExperimentScale.small()
    series: dict[str, list[float]] = {
        "IPSS": [],
        "Extended-TMC": [],
        "Extended-GTB": [],
        "CC-Shapley": [],
    }
    with _femnist_spec(scale, n_clients, model, seed).build(store) as utility:
        exact = MCShapley(seed=seed).run(utility, n_clients).values
        rng = RandomState(seed)

        for gamma in gammas:
            errors = {name: [] for name in series}
            for rep_rng in spawn_rng(rng, repetitions):
                rep_seed = int(rep_rng.integers(0, 2**31 - 1))
                algorithms = {
                    "IPSS": IPSS(total_rounds=gamma, seed=rep_seed),
                    "Extended-TMC": ExtendedTMC(total_rounds=gamma, seed=rep_seed),
                    "Extended-GTB": ExtendedGTB(total_rounds=gamma, seed=rep_seed),
                    "CC-Shapley": CCShapleySampling(total_rounds=gamma, seed=rep_seed),
                }
                for name, algorithm in algorithms.items():
                    result = algorithm.run(utility, n_clients)
                    errors[name].append(relative_error_l2(result.values, exact))
            for name in series:
                series[name].append(float(np.mean(errors[name])))
    return {"gamma": list(gammas), "series": series}


# --------------------------------------------------------------------------- #
# Fig. 8: Pareto curves (time vs error) for the sampling algorithms
# --------------------------------------------------------------------------- #
def figure8(
    scale: Optional[ExperimentScale] = None,
    n_clients: int = 6,
    model: str = "mlp",
    gammas: Sequence[int] = (6, 12, 24, 48),
    seed: int = 0,
    store: StoreLike = None,
) -> list[dict]:
    """Per-(algorithm, γ) points tracing the efficiency/effectiveness trade-off."""
    scale = scale or ExperimentScale.small()
    rows: list[dict] = []
    with _femnist_spec(scale, n_clients, model, seed).build(store) as utility:
        exact = MCShapley(seed=seed).run(utility, n_clients).values

        for gamma in gammas:
            algorithms = {
                "IPSS": IPSS(total_rounds=gamma, seed=seed),
                "Extended-TMC": ExtendedTMC(total_rounds=gamma, seed=seed),
                "Extended-GTB": ExtendedGTB(total_rounds=gamma, seed=seed),
                "CC-Shapley": CCShapleySampling(total_rounds=gamma, seed=seed),
            }
            for name, algorithm in algorithms.items():
                # Use a fresh cache per point so the measured time reflects the
                # budget actually spent at this γ rather than earlier warm-up.
                # (With store= given, coalitions persisted by earlier points
                # still serve from disk — pass no store for pure timings.)
                utility.reset_cache()
                with Timer() as timer:
                    result = algorithm.run(utility, n_clients)
                rows.append(
                    {
                        "algorithm": name,
                        "gamma": gamma,
                        "n": n_clients,
                        "model": model,
                        "time_s": timer.elapsed,
                        "evaluations": result.utility_evaluations,
                        "error_l2": relative_error_l2(result.values, exact),
                    }
                )
    return rows


# --------------------------------------------------------------------------- #
# Fig. 9: scalability to large client counts with fairness-proxy errors
# --------------------------------------------------------------------------- #
def figure9(
    scale: Optional[ExperimentScale] = None,
    client_counts: Sequence[int] = (20, 50, 100),
    model: str = "logistic",
    null_fraction: float = 0.05,
    duplicate_fraction: float = 0.05,
    seed: int = 0,
    store: StoreLike = None,
) -> list[dict]:
    """Running time and fairness-proxy error for 20–100 clients.

    Exact values are unobtainable at this scale, so — as in the paper — 5% of
    clients hold empty datasets and 5% duplicate another client's dataset, and
    the no-free-rider / symmetric-fairness violations serve as the error proxy.
    γ is set to n·log n.
    """
    scale = scale or ExperimentScale.tiny()
    rows: list[dict] = []
    for n_clients in client_counts:
        n_null = max(1, int(round(null_fraction * n_clients)))
        n_duplicate = max(1, int(round(duplicate_fraction * n_clients)))
        spec = _femnist_spec(
            scale,
            n_clients,
            model,
            seed,
            n_null_clients=n_null,
            n_duplicate_clients=n_duplicate,
        )
        utility, info = spec.build_with_info(store)
        gamma = sampling_rounds_for(n_clients)
        algorithms = {
            "IPSS": IPSS(total_rounds=gamma, seed=seed),
            "Extended-TMC": ExtendedTMC(total_rounds=gamma, seed=seed),
            "Extended-GTB": ExtendedGTB(total_rounds=gamma, seed=seed),
            "CC-Shapley": CCShapleySampling(total_rounds=gamma, seed=seed),
        }
        with utility:
            for name, algorithm in algorithms.items():
                utility.reset_cache()
                with Timer() as timer:
                    result = algorithm.run(utility, info["n_clients"])
                proxy = fairness_proxy_error(
                    result.values, info["null_clients"], info["duplicate_groups"]
                )
                rows.append(
                    {
                        "n": info["n_clients"],
                        "gamma": gamma,
                        "algorithm": name,
                        "time_s": timer.elapsed,
                        "evaluations": result.utility_evaluations,
                        "fairness_error": proxy,
                    }
                )
    return rows


# --------------------------------------------------------------------------- #
# Fig. 10: variance of MC-SV versus CC-SV inside the stratified framework
# --------------------------------------------------------------------------- #
def figure10(
    scale: Optional[ExperimentScale] = None,
    client_counts: Sequence[int] = (3, 6, 10),
    model: str = "mlp",
    gammas: Sequence[int] = (4, 8, 16, 32),
    repetitions: int = 10,
    contribution_samples: int = 120,
    seed: int = 0,
    store: StoreLike = None,
) -> list[dict]:
    """Variance comparison of the MC-SV and CC-SV schemes (Fig. 10).

    Two variance notions are reported per (n, γ):

    * ``mc_variance`` / ``cc_variance`` — the spread of the full Alg. 1
      estimate across ``repetitions`` re-runs with different sampled
      coalitions (the quantity plotted in the paper's figure), and
    * ``mc_contribution_variance`` / ``cc_contribution_variance`` — the
      variance of a single marginal vs complementary contribution sample,
      which is the quantity Theorem 2 bounds and is independent of γ.
    """
    scale = scale or ExperimentScale.tiny()
    rows: list[dict] = []
    for n_clients in client_counts:
        with _femnist_spec(scale, n_clients, model, seed).build(store) as utility:
            per_sample = contribution_variance(
                utility, n_clients, n_samples=contribution_samples, seed=seed
            )
            for gamma in gammas:
                comparison = empirical_scheme_variance(
                    utility,
                    n_clients=n_clients,
                    total_rounds=gamma,
                    repetitions=repetitions,
                    seed=seed,
                )
                rows.append(
                    {
                        "n": n_clients,
                        "model": model,
                        "gamma": gamma,
                        "mc_variance": comparison.mean_mc_variance,
                        "cc_variance": comparison.mean_cc_variance,
                        "mc_is_lower": comparison.mc_is_lower,
                        "mc_contribution_variance": per_sample["mc_variance"],
                        "cc_contribution_variance": per_sample["cc_variance"],
                        "contribution_mc_is_lower": per_sample["mc_is_lower"],
                    }
                )
    return rows
