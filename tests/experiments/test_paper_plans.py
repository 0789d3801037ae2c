"""Tables IV/V and Figs. 1(b)/6 as plans through the run pipeline.

``tests/data/golden_paper_tables.json`` holds the rows the earlier
comparison runner produced for these four experiments at tiny scale, seed
0: every algorithm in suite order, its evaluation count and its relative ℓ2
error against exact MC-SV.  The plan path must reproduce them bitwise.
"""

import inspect
import json
import os

import pytest

from repro.experiments import (
    ALGORITHM_BUILDERS,
    ExperimentPlan,
    ExperimentScale,
    TaskSpec,
    figures,
    resume_run,
    run_plan,
    tables,
)
from repro.experiments.pipeline import (
    EXACT_ALGORITHMS,
    GRADIENT_ALGORITHMS,
    PAPER_ALGORITHMS,
    build_task_algorithm,
    paper_algorithms,
    plan_rows,
)
from repro.store import SqliteUtilityStore

TINY = ExperimentScale.tiny()

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "..", "data", "golden_paper_tables.json"
)
with open(GOLDEN_PATH, "r", encoding="utf-8") as handle:
    GOLDEN = json.load(handle)["cases"]

FUNCTIONS = {
    "table4": tables.table4,
    "table5": tables.table5,
    "figure1b": figures.figure1b,
    "figure6": figures.figure6,
}
PLANS = {
    "table4": tables.table4_plan,
    "table5": tables.table5_plan,
    "figure1b": figures.figure1b_plan,
    "figure6": figures.figure6_plan,
}
ROW_KEYS = {
    "table4": {"dataset", "model", "n", "algorithm", "time_s", "evaluations", "error_l2"},
    "table5": {"dataset", "model", "n", "algorithm", "time_s", "evaluations", "error_l2"},
    "figure1b": {"algorithm", "time_s", "error_l2"},
    "figure6": {"setup", "model", "algorithm", "time_s", "error_l2"},
}


def _scored(rows, keys=("algorithm", "evaluations", "error_l2")):
    return [tuple(row[key] for key in keys) for row in rows]


class TestGoldenRows:
    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_plan_rows_match_golden(self, name, tmp_path):
        case = GOLDEN[name]
        plan = PLANS[name](scale=TINY, **case["kwargs"])
        report = run_plan(plan, str(tmp_path / "run"))
        assert report.cells_skipped == 0
        assert _scored(report.rows) == _scored(case["rows"])

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_public_function_rows_match_golden(self, name):
        case = GOLDEN[name]
        rows = FUNCTIONS[name](scale=TINY, **case["kwargs"])
        expected = case["rows"]
        if name == "figure1b":  # the scatter plots approximations only
            expected = [r for r in expected if r["algorithm"] not in EXACT_ALGORITHMS]
        assert all(set(row) == ROW_KEYS[name] for row in rows)
        keys = ("algorithm", "error_l2")
        if "evaluations" in ROW_KEYS[name]:
            keys += ("evaluations",)
        assert _scored(rows, keys) == _scored(expected, keys)


class TestCallersStore:
    def test_warm_store_retrains_nothing_and_keeps_the_errors(self, tmp_path):
        path = str(tmp_path / "store.sqlite")
        kwargs = GOLDEN["table4"]["kwargs"]
        cold = tables.table4(scale=TINY, store=path, **kwargs)
        with SqliteUtilityStore(path) as store:
            warm = tables.table4(scale=TINY, store=store, **kwargs)
            assert not store.closed  # the caller's instance stays open
        errors = ("algorithm", "error_l2")
        assert _scored(cold, errors) == _scored(warm, errors)
        assert _scored(warm, errors) == _scored(GOLDEN["table4"]["rows"], errors)
        for row in warm:  # gradient baselines train outside the store
            assert row["evaluations"] == int(row["algorithm"] in GRADIENT_ALGORITHMS)


class TestInterruptedTable:
    def test_resumed_run_gives_the_uninterrupted_rows(self, tmp_path):
        plan = tables.table4_plan(scale=TINY, client_counts=(3,), models=("mlp",))

        class Interrupt(RuntimeError):
            pass

        def interrupt(spec, algorithm, snapshot):
            if algorithm == "Extended-TMC" and snapshot.chunk_index == 1:
                raise Interrupt("killed mid-cell")

        run_dir = str(tmp_path / "interrupted")
        with pytest.raises(Interrupt):
            run_plan(plan, run_dir, on_snapshot=interrupt)
        resumed = resume_run(run_dir)
        assert resumed.cells_resumed == 2  # MC-Shapley and DIG-FL finished
        assert resumed.cells_continued == 1  # Extended-TMC from its checkpoint

        uninterrupted = run_plan(plan, str(tmp_path / "straight"))

        def untimed(report):
            return [{k: v for k, v in r.items() if k != "time_s"} for r in report.rows]

        assert untimed(resumed) == untimed(uninterrupted)
        # Extended-TMC's first chunk is not trained again.
        finished = sum(r["evaluations"] for r in uninterrupted.rows[:2])
        assert resumed.fl_trainings < uninterrupted.fl_trainings - finished


class TestLineup:
    def test_lineup_is_registered_and_in_report_order(self):
        assert set(PAPER_ALGORITHMS) <= set(ALGORITHM_BUILDERS)
        assert set(EXACT_ALGORITHMS) | set(GRADIENT_ALGORITHMS) <= set(PAPER_ALGORITHMS)
        assert paper_algorithms(("mlp",), include_perm=True) == PAPER_ALGORITHMS
        default = paper_algorithms(("mlp", "cnn"))
        assert "Perm-Shapley" not in default  # factorial cost: opt-in
        assert default[0] == "MC-Shapley" and default[-1] == "IPSS"

    def test_gradient_baselines_dropped_only_for_all_xgb_plans(self):
        xgb = paper_algorithms(("xgb",))
        assert set(GRADIENT_ALGORITHMS).isdisjoint(xgb)
        assert xgb == ("MC-Shapley", "Extended-TMC", "Extended-GTB", "CC-Shapley", "IPSS")
        assert set(GRADIENT_ALGORITHMS) <= set(paper_algorithms(("mlp", "xgb")))

    def test_mixed_table5_keeps_gradient_rows_off_xgb(self):
        rows = tables.table5(scale=TINY, client_counts=(3,), models=("mlp", "xgb"))
        assert {(r["dataset"], r["n"]) for r in rows} == {("adult-like", 3)}
        by_model = {
            model: [r["algorithm"] for r in rows if r["model"] == model]
            for model in ("mlp", "xgb")
        }
        assert tuple(by_model["mlp"]) == paper_algorithms(("mlp",))
        assert tuple(by_model["xgb"]) == paper_algorithms(("xgb",))

    def test_plan_rows_pair_each_row_with_its_own_task(self):
        # Same label (kind/model/n), different seed: told apart by position,
        # with each task's skipped OR cell reported ahead of its done cell.
        specs = [
            TaskSpec(kind="adult", n_clients=3, model="xgb", scale="tiny", seed=seed)
            for seed in (0, 1)
        ]
        plan = ExperimentPlan(tasks=specs, algorithms=("MC-Shapley", "OR"))
        pairs = plan_rows(plan)
        assert [spec for spec, _ in pairs] == specs
        assert [row["algorithm"] for _, row in pairs] == ["MC-Shapley", "MC-Shapley"]

    def test_sampling_budget_follows_the_paper_table(self):
        spec = TaskSpec(kind="femnist", n_clients=10, model="mlp", scale="tiny")
        assert build_task_algorithm(spec, "IPSS", 10).total_rounds == 32

    def test_public_signatures_are_unchanged(self):
        expected = {
            "table4": ["scale", "client_counts", "models", "include_perm", "seed", "store"],
            "table5": ["scale", "client_counts", "models", "include_perm", "seed", "store"],
            "figure1b": ["scale", "n_clients", "model", "seed", "store"],
            "figure6": ["scale", "setups", "models", "n_clients", "seed", "store"],
        }
        for name, parameters in expected.items():
            assert list(inspect.signature(FUNCTIONS[name]).parameters) == parameters
            plan_parameters = list(inspect.signature(PLANS[name]).parameters)
            assert plan_parameters == parameters[:-1]  # all but store
