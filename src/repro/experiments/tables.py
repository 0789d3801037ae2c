"""Regenerators for the paper's result tables (Table IV and Table V).

Both tables compare all ten algorithms across client counts {3, 6, 10} on a
real-style dataset, reporting wall-clock time and the relative ℓ2 error
against the exact MC-SV values.  Each table is an
:class:`~repro.experiments.pipeline.ExperimentPlan` (:func:`table4_plan`,
:func:`table5_plan`): one declarative task per (model, n), the paper's
line-up on each.  :func:`table4`/:func:`table5` run it through
:func:`~repro.experiments.pipeline.run_plan` in a throwaway run directory;
for a durable, resumable table, call ``run_plan(table4_plan(...), run_dir)``
yourself.  Passing ``store=`` persists every trained coalition so
regenerating the *same* table later retrains nothing (reuse is per task
fingerprint, so a different client count or scale shares nothing — and
timings/evaluation counts then reflect incremental cost, not the paper's
per-algorithm accounting; see ``docs/store.md``).  The functions return a
structured report (list of dict rows) and can render it as text;
EXPERIMENTS.md records the outputs next to the paper's numbers.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.experiments.config import ExperimentScale
from repro.experiments.pipeline import ExperimentPlan, paper_algorithms, plan_rows
from repro.experiments.reporting import format_table
from repro.experiments.specs import TaskSpec, scale_preset_name as _scale_name
from repro.store import StoreLike


def _table_plan(
    name: str,
    kind: str,
    scale: Optional[ExperimentScale],
    client_counts: Sequence[int],
    models: Sequence[str],
    include_perm: bool,
    seed: int,
) -> ExperimentPlan:
    scale_name = _scale_name(scale or ExperimentScale.small())
    tasks = [
        TaskSpec(kind=kind, n_clients=n, model=model, scale=scale_name, seed=seed)
        for model in models
        for n in client_counts
    ]
    return ExperimentPlan(
        tasks=tasks, algorithms=paper_algorithms(models, include_perm), name=name
    )


def _table_rows(plan: ExperimentPlan, dataset: str, store: StoreLike) -> list[dict]:
    return [
        {
            "dataset": dataset,
            "model": spec.model,
            "n": spec.n_clients,
            "algorithm": row["algorithm"],
            "time_s": row["time_s"],
            "evaluations": row["evaluations"],
            "error_l2": row["error_l2"],
        }
        for spec, row in plan_rows(plan, store)
    ]


def table4_plan(
    scale: Optional[ExperimentScale] = None,
    client_counts: Sequence[int] = (3, 6, 10),
    models: Sequence[str] = ("mlp", "cnn"),
    include_perm: bool = False,
    seed: int = 0,
) -> ExperimentPlan:
    """Table IV as a plan: a femnist-like task per (model, n), in row order."""
    return _table_plan(
        "table4", "femnist", scale, client_counts, models, include_perm, seed
    )


def table4(
    scale: Optional[ExperimentScale] = None,
    client_counts: Sequence[int] = (3, 6, 10),
    models: Sequence[str] = ("mlp", "cnn"),
    include_perm: bool = False,
    seed: int = 0,
    store: StoreLike = None,
) -> list[dict]:
    """Table IV: FEMNIST-style results for MLP and CNN FL models.

    Returns one row per (model, n, algorithm) with time, evaluation count and
    relative error.  ``include_perm`` adds the Perm-Shapley exact baseline
    (very slow; disabled by default).  ``store`` persists trained coalition
    utilities across invocations (values are unchanged).
    """
    plan = table4_plan(scale, client_counts, models, include_perm, seed)
    return _table_rows(plan, "femnist-like", store)


def table5_plan(
    scale: Optional[ExperimentScale] = None,
    client_counts: Sequence[int] = (3, 6, 10),
    models: Sequence[str] = ("mlp", "xgb"),
    include_perm: bool = False,
    seed: int = 0,
) -> ExperimentPlan:
    """Table V as a plan: an adult-like task per (model, n), in row order."""
    return _table_plan(
        "table5", "adult", scale, client_counts, models, include_perm, seed
    )


def table5(
    scale: Optional[ExperimentScale] = None,
    client_counts: Sequence[int] = (3, 6, 10),
    models: Sequence[str] = ("mlp", "xgb"),
    include_perm: bool = False,
    seed: int = 0,
    store: StoreLike = None,
) -> list[dict]:
    """Table V: Adult-style results for MLP and XGBoost FL models.

    Gradient-based baselines are automatically excluded for the XGBoost model
    (they require parametric FL training), matching the "\\" cells in the
    paper's table.  ``store`` persists trained coalition utilities across
    invocations.
    """
    plan = table5_plan(scale, client_counts, models, include_perm, seed)
    return _table_rows(plan, "adult-like", store)


def render_table(rows: list[dict], title: str) -> str:
    """Render a table4/table5 report in the paper's layout."""
    return format_table(
        rows,
        columns=["dataset", "model", "n", "algorithm", "time_s", "evaluations", "error_l2"],
        title=title,
    )


def convergence_table(curve: dict, title: Optional[str] = None) -> str:
    """Render a :func:`repro.experiments.figures.convergence_curve` trace.

    One row per incremental chunk: evaluations and wall-clock spent, the
    widest 95% CI half-width (where defined) and — when the curve was traced
    against reference values — the error/rank-correlation trajectory.  The
    footer marks an early stop with the rule that fired.
    """
    rows = []
    for index in range(len(curve["chunk"])):
        rows.append(
            {
                "chunk": curve["chunk"][index],
                "evaluations": curve["evaluations"][index],
                "time_s": curve["elapsed_s"][index],
                "max_ci95": curve["max_ci95"][index],
                "error_l2": curve["error_l2"][index],
                "rank_corr": curve["rank_correlation"][index],
            }
        )
    rendered = format_table(
        rows,
        columns=["chunk", "evaluations", "time_s", "max_ci95", "error_l2", "rank_corr"],
        title=title or f"convergence: {curve['algorithm']}",
    )
    if curve.get("stopped_by"):
        rendered += f"\nstopped early by {curve['stopped_by']}"
    return rendered


def robustness_table(rows: list[dict], title: str = "valuation robustness") -> str:
    """Render :func:`repro.scenarios.run_robustness` rows as a summary table.

    One row per (scenario, algorithm): the injected adversaries, their rank
    positions from the bottom of the valuation (1 = lowest), precision@k for
    picking them out, whether they all rank *strictly* below every honest
    client, and the Spearman correlation against the clean-scenario ranking.
    Skipped cells render with their skip reason in place of metrics.
    """
    display = []
    for row in rows:
        if row.get("status") == "skipped":
            display.append(
                {
                    "scenario": row["scenario"],
                    "algorithm": row["algorithm"],
                    "adversaries": "skipped: " + row.get("reason", ""),
                }
            )
            continue
        display.append(
            {
                "scenario": row["scenario"],
                "algorithm": row["algorithm"],
                "n": row["n"],
                "adversaries": ",".join(str(c) for c in row["adversaries"]) or "-",
                "adv_ranks": ",".join(str(r) for r in row["adversary_ranks"]) or "-",
                "prec@k": row["precision_at_k"],
                "strictly_last": "yes" if row["strictly_last"] else "NO",
                "rank_corr_clean": row["rank_corr_clean"],
            }
        )
    return format_table(
        display,
        columns=[
            "scenario",
            "algorithm",
            "n",
            "adversaries",
            "adv_ranks",
            "prec@k",
            "strictly_last",
            "rank_corr_clean",
        ],
        title=title,
    )
