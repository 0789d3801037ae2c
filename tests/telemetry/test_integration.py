"""Telemetry end-to-end: instrumentation coverage and fingerprint neutrality.

The hard invariant of the whole subsystem is tested here at the pipeline
level: a run with telemetry attached must produce bitwise-identical values
and store keys to one without (the CI smoke gate re-checks the same thing
through the CLI).
"""

import json
import os

from repro.experiments import ExperimentPlan, TaskSpec, load_manifest, run_plan
from repro.store import SqliteUtilityStore
from repro.telemetry import Telemetry, read_journal
from repro.telemetry.report import build_span_tree, load_metrics

TINY_SPEC = TaskSpec(kind="adult", n_clients=3, model="logistic", scale="tiny", seed=0)
PLAN = ExperimentPlan(tasks=(TINY_SPEC,), algorithms=("MC-Shapley", "IPSS"))


def run_values(run_dir):
    """cell id → value vector for every done cell, from the result files."""
    manifest = load_manifest(str(run_dir))
    values = {}
    for cell_id, cell in manifest["cells"].items():
        if cell.get("status") != "done":
            continue
        with open(os.path.join(str(run_dir), cell["result_file"])) as handle:
            values[cell_id] = json.load(handle)["result"]["values"]
    assert values
    return values


def run_once(tmp_path, label, telemetry=None):
    store = SqliteUtilityStore(str(tmp_path / f"{label}.sqlite"))
    try:
        report = run_plan(
            PLAN, str(tmp_path / label), store=store, telemetry=telemetry
        )
        keys = sorted(store._keys())
    finally:
        store.close()
    return report, keys


class TestFingerprintNeutrality:
    def test_values_and_store_keys_identical_with_and_without(self, tmp_path):
        _, plain_keys = run_once(tmp_path, "plain")
        with Telemetry.for_run_dir(str(tmp_path / "traced")) as telemetry:
            _, traced_keys = run_once(tmp_path, "traced", telemetry)
        assert plain_keys == traced_keys
        plain = run_values(tmp_path / "plain")
        traced = run_values(tmp_path / "traced")
        assert plain == traced  # bitwise: exact floats through JSON round-trip

    def test_disabled_run_writes_no_journal(self, tmp_path):
        run_once(tmp_path, "plain")
        assert not os.path.exists(str(tmp_path / "plain" / "telemetry"))


class TestInstrumentationCoverage:
    def test_journal_holds_spans_and_metrics(self, tmp_path):
        with Telemetry.for_run_dir(str(tmp_path / "run")) as telemetry:
            report, _ = run_once(tmp_path, "run", telemetry)
        records = read_journal(str(tmp_path / "run"))
        roots = build_span_tree(records)
        (root,) = roots
        assert root.name == "pipeline.run"
        cell_names = [child.name for child in root.children]
        assert cell_names == ["pipeline.cell", "pipeline.cell"]
        batch_spans = [
            grandchild
            for child in root.children
            for grandchild in child.children
            if grandchild.name == "oracle.batch"
        ]
        assert batch_spans and all("backend" in s.attrs for s in batch_spans)

        registry = load_metrics(records)
        names = registry.names()
        assert "utility.eval_seconds" in names
        assert "executor.batch_size" in names
        assert "store.put_bytes" in names
        assert "snapshot.interval_seconds" in names
        evaluated = registry.histogram("utility.eval_seconds").count
        assert evaluated == report.fl_trainings

    def test_store_hits_counted_on_warm_rerun(self, tmp_path):
        store = SqliteUtilityStore(str(tmp_path / "shared.sqlite"))
        try:
            run_plan(PLAN, str(tmp_path / "cold"), store=store)
            with Telemetry.for_run_dir(str(tmp_path / "warm")) as telemetry:
                report = run_plan(
                    PLAN, str(tmp_path / "warm"), store=store, telemetry=telemetry
                )
        finally:
            store.close()
        assert report.fl_trainings == 0
        registry = load_metrics(read_journal(str(tmp_path / "warm")))
        assert registry.counter("store.hit").value == report.store_hits

    def test_manifest_cells_gain_telemetry_deltas(self, tmp_path):
        with Telemetry.for_run_dir(str(tmp_path / "run")) as telemetry:
            run_once(tmp_path, "run", telemetry)
        manifest = load_manifest(str(tmp_path / "run"))
        cells = [c for c in manifest["cells"].values() if c["status"] == "done"]
        assert cells
        for cell in cells:
            block = cell["telemetry"]
            assert block["executor.batch_size"]["count"] >= 1

    def test_manifest_cells_stay_plain_without_telemetry(self, tmp_path):
        run_once(tmp_path, "plain")
        manifest = load_manifest(str(tmp_path / "plain"))
        for cell in manifest["cells"].values():
            assert "telemetry" not in cell


class TestAccountingBlock:
    def test_report_accounting_matches_counts(self, tmp_path):
        report, _ = run_once(tmp_path, "run")
        accounting = report.to_dict()["accounting"]
        assert accounting["evaluations"] == report.fl_trainings
        assert accounting["store_hits"] == report.store_hits
        assert accounting["batch_counts"].get("serial", 0) > 0
        total = (
            accounting["evaluations"]
            + accounting["cache_hits"]
            + accounting["store_hits"]
        )
        expected = (
            (accounting["cache_hits"] + accounting["store_hits"]) / total
            if total
            else 0.0
        )
        assert accounting["cache_hit_rate"] == expected

    def test_accounting_is_json_serialisable(self, tmp_path):
        report, _ = run_once(tmp_path, "run")
        json.dumps(report.to_dict())
