"""Valuation-robustness harness: score algorithms against scenario attacks.

The one question a contribution-valuation method must answer in production is
*does it still rank the bad actors last?*  This module runs an algorithm ×
scenario grid through the resumable :func:`~repro.experiments.pipeline.run_plan`
pipeline (every scenario paired with its behavior-free *clean* counterpart)
and reduces each cell's value vector to three robustness metrics:

* **adversary ranks** — each injected bad actor's rank from the bottom of the
  valuation (1 = lowest-valued client), plus a strictness flag that is true
  only when *every* adversary is valued strictly below *every* honest client;
* **precision@k** — with ``k`` = number of injected adversaries, the fraction
  of the bottom-``k`` clients that really are adversaries (the "audit the k
  cheapest clients" decision rule); and
* **rank correlation vs clean** — Spearman correlation between the scenario
  valuation and the clean-counterpart valuation over the base clients: how
  much the attack disturbed the ordering of the whole federation.

Because every cell runs through the manifest-tracked pipeline with the
persistent utility store attached, a robustness campaign is interruptible,
resumable, and free to rerun: the warm rerun performs zero FL trainings.

Imports from :mod:`repro.experiments` are function-local — the experiments
layer imports :mod:`repro.scenarios` for the ``"scenario"`` task kind, so
module-level imports here would be circular.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Callable, Iterable, List, Optional, Sequence

import numpy as np

from repro.core.metrics import rank_correlation
from repro.scenarios.scenario import resolve_scenario


# --------------------------------------------------------------------------- #
# Metrics
# --------------------------------------------------------------------------- #
def adversary_ranks(values: np.ndarray, adversaries: Iterable[int]) -> list[int]:
    """Rank-from-the-bottom of each adversary (1 = lowest-valued client).

    Returned in ascending order of adversary index.  Ties are broken by
    client index (stable argsort), so equal values share no rank.
    """
    values = np.asarray(values, dtype=float)
    order = np.argsort(values, kind="stable")
    rank_of = {int(client): position + 1 for position, client in enumerate(order)}
    return [rank_of[int(a)] for a in sorted(int(a) for a in adversaries)]


def precision_at_k(
    values: np.ndarray, adversaries: Iterable[int], k: Optional[int] = None
) -> float:
    """Fraction of the bottom-``k`` valued clients that are injected adversaries.

    ``k`` defaults to the number of adversaries, making 1.0 mean "auditing
    the k cheapest clients catches every bad actor".
    """
    adversaries = {int(a) for a in adversaries}
    if not adversaries:
        return 1.0
    values = np.asarray(values, dtype=float)
    if k is None:
        k = len(adversaries)
    if not 1 <= k <= len(values):
        raise ValueError(f"k must lie in [1, {len(values)}], got {k}")
    bottom = set(np.argsort(values, kind="stable")[:k].tolist())
    return len(bottom & adversaries) / float(k)


def adversaries_strictly_last(values: np.ndarray, adversaries: Iterable[int]) -> bool:
    """True iff every adversary is valued strictly below every honest client."""
    adversaries = {int(a) for a in adversaries}
    if not adversaries:
        return True
    values = np.asarray(values, dtype=float)
    honest = [i for i in range(len(values)) if i not in adversaries]
    if not honest:
        return True
    return float(values[list(adversaries)].max()) < float(values[honest].min())


# --------------------------------------------------------------------------- #
# Report
# --------------------------------------------------------------------------- #
@dataclass
class RobustnessReport:
    """Outcome of one :func:`run_robustness` campaign."""

    run_dir: str
    rows: List[dict] = field(default_factory=list)
    cells_run: int = 0
    cells_resumed: int = 0
    cells_skipped: int = 0
    cells_continued: int = 0
    fl_trainings: int = 0
    store_hits: int = 0

    def to_dict(self) -> dict:
        return {
            "run_dir": self.run_dir,
            "cells_run": self.cells_run,
            "cells_resumed": self.cells_resumed,
            "cells_skipped": self.cells_skipped,
            "cells_continued": self.cells_continued,
            "fl_trainings": self.fl_trainings,
            "store_hits": self.store_hits,
            "rows": self.rows,
        }

    def scenario_rows(self, scenario: str) -> list[dict]:
        return [row for row in self.rows if row["scenario"] == scenario]

    def row(self, scenario: str, algorithm: str) -> dict:
        for candidate in self.rows:
            if (
                candidate["scenario"] == scenario
                and candidate["algorithm"] == algorithm
            ):
                return candidate
        raise KeyError(f"no robustness row for {scenario!r} × {algorithm!r}")


# --------------------------------------------------------------------------- #
# Harness
# --------------------------------------------------------------------------- #
def build_robustness_plan(
    scenarios: Sequence,
    algorithms: Optional[Sequence[str]] = None,
    model: str = "logistic",
    scale: str = "tiny",
    seed: int = 0,
    name: str = "robustness",
    backend: Optional[str] = None,
):
    """The (clean ∪ adversarial) task grid of a robustness campaign, as a plan.

    Clean counterparts are deduplicated by content fingerprint, so scenarios
    sharing a base recipe contribute a single set of clean cells.
    ``backend`` is the plan's executor choice (see
    :class:`~repro.experiments.pipeline.ExperimentPlan`).
    """
    from repro.experiments.pipeline import DEFAULT_ALGORITHMS, ExperimentPlan
    from repro.experiments.specs import TaskSpec

    resolved = [resolve_scenario(s) for s in scenarios]
    if not resolved:
        raise ValueError("a robustness campaign needs at least one scenario")
    names = [s.name for s in resolved]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate scenario names in campaign: {names}")

    specs, seen = [], set()
    pairs = []  # (scenario, adversarial spec, clean spec)
    for scenario in resolved:
        clean_spec = TaskSpec(
            kind="scenario", scenario=scenario.clean().to_dict(),
            model=model, scale=scale, seed=seed,
        )
        adv_spec = TaskSpec(
            kind="scenario", scenario=scenario.to_dict(),
            model=model, scale=scale, seed=seed,
        )
        for spec in (clean_spec, adv_spec):
            fingerprint = spec.fingerprint()
            if fingerprint not in seen:
                seen.add(fingerprint)
                specs.append(spec)
        pairs.append((scenario, adv_spec, clean_spec))

    plan = ExperimentPlan(
        tasks=tuple(specs),
        algorithms=tuple(algorithms) if algorithms else DEFAULT_ALGORITHMS,
        name=name,
        backend=backend,
    )
    return plan, pairs


def _cell_payload(run_dir: str, cell: Optional[dict]) -> Optional[dict]:
    if cell is None or cell.get("status") != "done":
        return None
    path = os.path.join(run_dir, cell["result_file"])
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def run_robustness(
    scenarios: Sequence,
    run_dir: str,
    algorithms: Optional[Sequence[str]] = None,
    model: str = "logistic",
    scale: str = "tiny",
    seed: int = 0,
    store=None,
    resume: bool = False,
    log: Optional[Callable[[str], None]] = None,
    stop_rule=None,
    checkpoint_every: int = 1,
    on_snapshot=None,
    telemetry=None,
    backend: Optional[str] = None,
) -> RobustnessReport:
    """Run an algorithm × scenario grid and score every cell's robustness.

    ``scenarios`` may mix registered names, :class:`Scenario` objects and
    definition dicts.  Every scenario is paired with its clean counterpart;
    both run through the resumable pipeline into ``run_dir`` (one manifest-
    tracked cell per task × algorithm), then each adversarial cell's value
    vector is scored.  Cells the pipeline skipped (inapplicable algorithms)
    surface as ``status: "skipped"`` rows.

    ``stop_rule`` / ``checkpoint_every`` / ``on_snapshot`` / ``telemetry``
    are forwarded to
    :func:`~repro.experiments.pipeline.run_plan`: cells can stop early on a
    convergence rule (their robustness is then scored on the early-stopped
    values) and interrupted cells resume from their estimator checkpoints.
    ``backend`` picks the executor as in :func:`build_robustness_plan`.
    """
    from repro.experiments.pipeline import cell_id, load_manifest, run_plan

    plan, pairs = build_robustness_plan(
        scenarios,
        algorithms=algorithms,
        model=model,
        scale=scale,
        seed=seed,
        backend=backend,
    )
    run_report = run_plan(
        plan,
        run_dir,
        store=store,
        resume=resume,
        log=log,
        stop_rule=stop_rule,
        checkpoint_every=checkpoint_every,
        on_snapshot=on_snapshot,
        telemetry=telemetry,
    )
    manifest = load_manifest(run_dir)

    report = RobustnessReport(
        run_dir=run_dir,
        cells_run=run_report.cells_run,
        cells_resumed=run_report.cells_resumed,
        cells_skipped=run_report.cells_skipped,
        cells_continued=run_report.cells_continued,
        fl_trainings=run_report.fl_trainings,
        store_hits=run_report.store_hits,
    )
    for scenario, adv_spec, clean_spec in pairs:
        layout = scenario.layout()
        adv_fp, clean_fp = adv_spec.fingerprint(), clean_spec.fingerprint()
        for algorithm in plan.algorithms:
            adv_cell = manifest["cells"].get(cell_id(adv_fp, algorithm))
            payload = _cell_payload(run_dir, adv_cell)
            if payload is None:
                report.rows.append(
                    {
                        "scenario": scenario.name,
                        "algorithm": algorithm,
                        "status": "skipped",
                        "reason": (adv_cell or {}).get("reason", "cell not computed"),
                    }
                )
                continue
            values = np.asarray(payload["result"]["values"], dtype=float)
            row = {
                "scenario": scenario.name,
                "algorithm": algorithm,
                "status": "done",
                "n": len(values),
                "adversaries": list(layout.adversaries),
                "adversary_ranks": adversary_ranks(values, layout.adversaries),
                "precision_at_k": precision_at_k(values, layout.adversaries),
                "strictly_last": adversaries_strictly_last(values, layout.adversaries),
                "rank_corr_clean": None,
                "values": values.tolist(),
                "time_s": float(payload["result"]["elapsed_seconds"]),
                "evaluations": int(payload["result"]["utility_evaluations"]),
                "store_hits": int(payload.get("store_hits", 0)),
            }
            clean_payload = _cell_payload(
                run_dir, manifest["cells"].get(cell_id(clean_fp, algorithm))
            )
            if clean_payload is not None:
                clean_values = np.asarray(
                    clean_payload["result"]["values"], dtype=float
                )
                shared = min(layout.base_clients, len(values), len(clean_values))
                if shared >= 2:
                    row["rank_corr_clean"] = rank_correlation(
                        values[:shared], clean_values[:shared]
                    )
            report.rows.append(row)
    return report
