"""Tests for TaskSpec / ExperimentPlan and the resumable run pipeline."""

import json
import os

import pytest

from repro.experiments import (
    ExperimentPlan,
    TaskSpec,
    available_algorithms,
    available_tasks,
    load_manifest,
    resume_run,
    run_plan,
)
from repro.experiments.pipeline import ALGORITHM_BUILDERS
from repro.fl import CoalitionUtility
from repro.store import SqliteUtilityStore

TINY_SPEC = TaskSpec(kind="adult", n_clients=3, model="logistic", scale="tiny", seed=0)
ALGOS = ("MC-Shapley", "IPSS")


class TestTaskSpec:
    def test_registry_lists_builtin_kinds(self):
        assert {"synthetic", "femnist", "adult"} <= set(available_tasks())

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            TaskSpec(kind="quantum")

    def test_synthetic_requires_setup(self):
        with pytest.raises(ValueError):
            TaskSpec(kind="synthetic", setup=None)
        spec = TaskSpec(kind="synthetic", setup="same-size-same-distribution")
        assert "same-size" in spec.label()

    def test_setup_rejected_for_other_kinds(self):
        with pytest.raises(ValueError):
            TaskSpec(kind="adult", setup="same-size-same-distribution")

    def test_unknown_model_and_scale_rejected(self):
        with pytest.raises(ValueError):
            TaskSpec(kind="adult", model="transformer")
        with pytest.raises(ValueError):
            TaskSpec(kind="adult", scale="galactic")

    def test_dict_roundtrip(self):
        spec = TaskSpec(
            kind="femnist",
            n_clients=6,
            model="mlp",
            scale="tiny",
            seed=3,
            n_null_clients=1,
            n_duplicate_clients=1,
        )
        assert TaskSpec.from_dict(spec.to_dict()) == spec

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError):
            TaskSpec.from_dict({"kind": "adult", "gpu": True})
        with pytest.raises(ValueError):
            TaskSpec.from_dict({"model": "mlp"})

    def test_build_returns_fingerprinted_utility(self):
        utility = TINY_SPEC.build()
        assert isinstance(utility, CoalitionUtility)
        assert utility.n_clients == 3
        assert utility.task_fingerprint == TINY_SPEC.fingerprint()
        utility.close()

    def test_build_with_info_reports_effective_clients(self):
        spec = TaskSpec(
            kind="femnist",
            n_clients=4,
            model="logistic",
            scale="tiny",
            n_null_clients=1,
        )
        utility, info = spec.build_with_info()
        with utility:
            assert info["n_clients"] == 4
            assert len(info["null_clients"]) == 1


class TestExperimentPlan:
    def test_plan_validation(self):
        with pytest.raises(ValueError):
            ExperimentPlan(tasks=())
        with pytest.raises(ValueError):
            ExperimentPlan(tasks=(TINY_SPEC,), algorithms=("Quantum-SV",))
        with pytest.raises(ValueError, match="the 'fleet' backend was removed"):
            ExperimentPlan(tasks=(TINY_SPEC,), backend="fleet")

    def test_registry_covers_the_paper_lineup(self):
        assert {
            "MC-Shapley",
            "Perm-Shapley",
            "IPSS",
            "Extended-TMC",
            "Extended-GTB",
            "CC-Shapley",
            "DIG-FL",
            "GTG-Shapley",
            "OR",
            "lambda-MR",
        } <= set(available_algorithms())

    def test_fingerprint_ignores_backend_and_name(self):
        plan = ExperimentPlan(tasks=(TINY_SPEC,), algorithms=ALGOS)
        relabeled = ExperimentPlan(
            tasks=(TINY_SPEC,), algorithms=ALGOS, name="other", backend="vectorized"
        )
        assert plan.fingerprint() == relabeled.fingerprint()
        different = ExperimentPlan(tasks=(TINY_SPEC,), algorithms=("IPSS",))
        assert plan.fingerprint() != different.fingerprint()

    def test_cells_enumerate_tasks_x_algorithms(self):
        plan = ExperimentPlan(tasks=(TINY_SPEC,), algorithms=ALGOS)
        cells = plan.cells()
        assert len(cells) == 2
        assert len({cell_id for _, _, cell_id in cells}) == 2

    def test_dict_roundtrip(self):
        plan = ExperimentPlan(tasks=(TINY_SPEC,), algorithms=ALGOS, name="grid")
        assert ExperimentPlan.from_dict(plan.to_dict()) == plan

    def test_backend_validated_recorded_and_fingerprint_neutral(self):
        with pytest.raises(ValueError, match="backend"):
            ExperimentPlan(tasks=(TINY_SPEC,), backend="gpu")
        plan = ExperimentPlan(tasks=(TINY_SPEC,), algorithms=ALGOS, backend="vectorized")
        assert plan.to_dict()["backend"] == "vectorized"
        assert ExperimentPlan.from_dict(plan.to_dict()) == plan
        # Executor choice must not invalidate completed cells on resume.
        serial = ExperimentPlan(tasks=(TINY_SPEC,), algorithms=ALGOS)
        assert plan.fingerprint() == serial.fingerprint()
        assert "backend" not in serial.to_dict()  # default elided


class TestRunPlan:
    def test_manifest_and_results_written(self, tmp_path):
        plan = ExperimentPlan(tasks=(TINY_SPEC,), algorithms=ALGOS)
        report = run_plan(plan, str(tmp_path / "run"))
        assert report.cells_run == 2
        assert report.fl_trainings > 0
        manifest = load_manifest(str(tmp_path / "run"))
        assert manifest["plan_fingerprint"] == plan.fingerprint()
        assert all(c["status"] == "done" for c in manifest["cells"].values())
        for cell in manifest["cells"].values():
            assert os.path.exists(tmp_path / "run" / cell["result_file"])
        summary = json.loads((tmp_path / "run" / "summary.json").read_text())
        assert summary["fl_trainings"] == report.fl_trainings

    def test_refuses_to_clobber_existing_run(self, tmp_path):
        plan = ExperimentPlan(tasks=(TINY_SPEC,), algorithms=("MC-Shapley",))
        run_plan(plan, str(tmp_path / "run"))
        with pytest.raises(ValueError, match="resume"):
            run_plan(plan, str(tmp_path / "run"))

    def test_resume_refuses_mismatched_plan(self, tmp_path):
        run_plan(
            ExperimentPlan(tasks=(TINY_SPEC,), algorithms=("MC-Shapley",)),
            str(tmp_path / "run"),
        )
        other = ExperimentPlan(tasks=(TINY_SPEC,), algorithms=("IPSS",))
        with pytest.raises(ValueError, match="fingerprint|match"):
            run_plan(other, str(tmp_path / "run"), resume=True)

    def test_rerun_against_store_trains_nothing(self, tmp_path):
        """Acceptance bar: second run of a finished campaign = 0 trainings,
        bitwise-identical values."""
        plan = ExperimentPlan(tasks=(TINY_SPEC,), algorithms=ALGOS)
        store = str(tmp_path / "store.sqlite")
        first = run_plan(plan, str(tmp_path / "run1"), store=store)
        second = run_plan(plan, str(tmp_path / "run2"), store=store)
        assert first.fl_trainings > 0
        assert second.fl_trainings == 0
        assert second.cells_run == 2  # recomputed, but served from the store

        def values(run_dir):
            manifest = load_manifest(str(run_dir))
            out = {}
            for cell in manifest["cells"].values():
                payload = json.loads((run_dir / cell["result_file"]).read_text())
                out[cell["algorithm"]] = payload["result"]["values"]
            return out

        assert values(tmp_path / "run1") == values(tmp_path / "run2")  # bitwise

    def test_interrupt_and_resume_computes_only_missing_cells(
        self, tmp_path, monkeypatch
    ):
        """Kill the run mid-campaign; resume must redo only the lost cell and,
        with the store attached, retrain zero coalitions."""
        plan = ExperimentPlan(tasks=(TINY_SPEC,), algorithms=ALGOS)
        store = str(tmp_path / "store.sqlite")

        class Boom(RuntimeError):
            pass

        real_builder = ALGORITHM_BUILDERS["IPSS"]

        def exploding_builder(n, gamma, seed):
            raise Boom("simulated crash before the IPSS cell")

        monkeypatch.setitem(ALGORITHM_BUILDERS, "IPSS", exploding_builder)
        with pytest.raises(Boom):
            run_plan(plan, str(tmp_path / "run"), store=store)

        manifest = load_manifest(str(tmp_path / "run"))
        assert manifest["cells"]  # MC-Shapley cell persisted before the crash
        statuses = {c["algorithm"]: c["status"] for c in manifest["cells"].values()}
        assert statuses == {"MC-Shapley": "done"}

        monkeypatch.setitem(ALGORITHM_BUILDERS, "IPSS", real_builder)
        report = resume_run(str(tmp_path / "run"), store=store)
        assert report.cells_resumed == 1  # MC-Shapley loaded, not recomputed
        assert report.cells_run == 1  # only the lost IPSS cell
        assert report.fl_trainings == 0  # its coalitions came from the store

    def test_resume_finished_run_is_a_noop(self, tmp_path):
        plan = ExperimentPlan(tasks=(TINY_SPEC,), algorithms=ALGOS)
        run_plan(plan, str(tmp_path / "run"))
        report = resume_run(str(tmp_path / "run"))
        assert report.cells_run == 0
        assert report.cells_resumed == 2
        assert report.fl_trainings == 0
        assert len([r for r in report.rows if r["status"] == "done"]) == 2

    def test_resume_without_manifest_raises(self, tmp_path):
        with pytest.raises(ValueError, match="nothing to resume"):
            resume_run(str(tmp_path / "empty"))

    def test_inapplicable_algorithm_recorded_as_skip(self, tmp_path):
        """Gradient methods on an XGBoost task mirror Table V's '\\' cells."""
        spec = TaskSpec(kind="adult", n_clients=3, model="xgb", scale="tiny", seed=0)
        plan = ExperimentPlan(tasks=(spec,), algorithms=("MC-Shapley", "OR"))
        report = run_plan(plan, str(tmp_path / "run"))
        assert report.cells_skipped == 1
        skipped = [r for r in report.rows if r["status"] == "skipped"]
        assert skipped[0]["algorithm"] == "OR"
        assert skipped[0]["reason"]

    def test_errors_scored_against_mc_shapley(self, tmp_path):
        plan = ExperimentPlan(tasks=(TINY_SPEC,), algorithms=ALGOS)
        report = run_plan(plan, str(tmp_path / "run"))
        by_algorithm = {r["algorithm"]: r for r in report.rows}
        assert by_algorithm["MC-Shapley"]["error_l2"] is None
        assert by_algorithm["IPSS"]["error_l2"] is not None

    def test_store_opened_from_path_is_closed(self, tmp_path):
        plan = ExperimentPlan(tasks=(TINY_SPEC,), algorithms=("MC-Shapley",))
        store_path = str(tmp_path / "store.sqlite")
        run_plan(plan, str(tmp_path / "run"), store=store_path)
        # reopenable and populated => the run released its handle cleanly
        with SqliteUtilityStore(store_path) as store:
            assert len(store) > 0


class TestReviewRegressions:
    def test_plan_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown ExperimentPlan fields"):
            ExperimentPlan.from_dict(
                {"tasks": [TINY_SPEC.to_dict()], "algorithm": ["IPSS"]}
            )
        with pytest.raises(ValueError, match="tasks"):
            ExperimentPlan.from_dict({"algorithms": ["IPSS"]})

    def test_spec_seed_must_be_integer(self):
        with pytest.raises(ValueError, match="seed"):
            TaskSpec(kind="adult", seed=None)
        with pytest.raises(ValueError, match="seed"):
            TaskSpec(kind="adult", seed=0.5)

    def test_figures_refuse_ad_hoc_scales(self):
        from dataclasses import replace

        from repro.experiments import ExperimentScale, figures

        custom = replace(ExperimentScale.tiny(), fl_rounds=20)
        with pytest.raises(ValueError, match="preset"):
            figures.figure1b(scale=custom, n_clients=3, model="logistic")
