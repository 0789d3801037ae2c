"""Execution fields of plans and job specs: fleet-only fields, legacy input.

Only the fleet backend reads ``queue_dir``, ``spawn_workers``,
``worker_backend`` and ``lease_seconds``; any other backend rejects them,
naming the field, instead of silently ignoring them.  The pooled ``thread``
and ``process`` backends and their ``n_workers`` knob are gone: manifests
written while they existed carry ``"n_workers": 1`` and must still resume,
while any other value, or a retired backend name in a plan, a job or on the
command line, fails with the replacement spelled out.
"""

import json

import pytest

from repro.cli import _plan_from_args, build_parser
from repro.experiments import (
    ExperimentPlan,
    TaskSpec,
    load_manifest,
    resume_run,
    run_plan,
)
from repro.experiments.pipeline import (
    ALGORITHM_BUILDERS,
    MANIFEST_NAME,
    stored_execution,
)
from repro.service.models import JobSpec

TINY_SPEC = TaskSpec(kind="adult", n_clients=3, model="logistic", scale="tiny", seed=0)
JOB_TASK = {
    "kind": "synthetic",
    "setup": "same-size-same-distribution",
    "n_clients": 4,
    "seed": 0,
}
FLEET_ONLY = {
    "queue_dir": "/nonexistent",
    "spawn_workers": 3,
    "worker_backend": "vectorized",
    "lease_seconds": 5.0,
}
RETIRED = ("thread", "process")


def plan_payload(**fields):
    return {"tasks": [TINY_SPEC.to_dict()], "algorithms": ["IPSS"], **fields}


def job_payload(**fields):
    return {"task": JOB_TASK, "algorithm": "IPSS", **fields}


def assert_names_replacements(message):
    assert "'vectorized'" in message
    assert "'fleet --spawn-workers N'" in message


class TestFleetOnlyFields:
    @pytest.mark.parametrize("backend", [None, "serial", "vectorized"])
    @pytest.mark.parametrize("field_name", sorted(FLEET_ONLY))
    def test_plan_rejects_fleet_field_without_fleet(self, backend, field_name):
        fields = {field_name: FLEET_ONLY[field_name]}
        with pytest.raises(ValueError, match=f"{field_name}: fleet-only"):
            ExperimentPlan(tasks=(TINY_SPEC,), backend=backend, **fields)

    @pytest.mark.parametrize("field_name", sorted(FLEET_ONLY))
    def test_job_rejects_fleet_field_without_fleet(self, field_name):
        fields = {field_name: FLEET_ONLY[field_name]}
        with pytest.raises(ValueError, match=f"{field_name}: fleet-only"):
            JobSpec.from_dict(job_payload(backend="vectorized", **fields))

    def test_every_ignored_field_is_named(self):
        with pytest.raises(ValueError) as excinfo:
            JobSpec.from_dict(job_payload(backend="vectorized", **FLEET_ONLY))
        message = str(excinfo.value)
        for field_name in FLEET_ONLY:
            assert field_name in message

    def test_default_lease_is_not_a_fleet_field(self):
        payload = plan_payload(backend="vectorized", lease_seconds=30.0)
        plan = ExperimentPlan.from_dict(payload)
        assert plan.backend == "vectorized"

    def test_fleet_backend_accepts_them(self, tmp_path):
        fields = {**FLEET_ONLY, "queue_dir": str(tmp_path)}
        plan = ExperimentPlan.from_dict(plan_payload(backend="fleet", **fields))
        job = JobSpec.from_dict(job_payload(backend="fleet", **fields))
        for field_name, value in fields.items():
            assert getattr(plan, field_name) == value
            assert getattr(job, field_name) == value


def interrupted_run(run_dir, monkeypatch):
    """A run dir whose IPSS cell never ran."""
    plan = ExperimentPlan(tasks=(TINY_SPEC,), algorithms=("MC-Shapley", "IPSS"))

    def exploding_builder(n, gamma, seed):
        raise RuntimeError("simulated crash before the IPSS cell")

    with monkeypatch.context() as patch:
        patch.setitem(ALGORITHM_BUILDERS, "IPSS", exploding_builder)
        with pytest.raises(RuntimeError):
            run_plan(plan, str(run_dir))


class TestLegacyWorkers:
    def test_legacy_value_one_still_loads(self):
        plan = ExperimentPlan.from_dict(plan_payload(n_workers=1))
        assert plan == ExperimentPlan.from_dict(plan_payload())
        assert "n_workers" not in plan.to_dict()
        job = JobSpec.from_dict(job_payload(n_workers=1))
        assert job == JobSpec.from_dict(job_payload())

    @pytest.mark.parametrize("value", [0, 2, 4])
    def test_other_values_are_rejected_naming_the_field(self, value):
        with pytest.raises(ValueError, match="n_workers") as excinfo:
            ExperimentPlan.from_dict(plan_payload(n_workers=value))
        assert_names_replacements(str(excinfo.value))
        with pytest.raises(ValueError, match="n_workers"):
            JobSpec.from_dict(job_payload(n_workers=value))

    def test_legacy_manifest_resumes(self, tmp_path, monkeypatch):
        """A run dir whose manifest carries ``"n_workers": 1`` (as every
        manifest written with the pooled backends does) still resumes."""
        run_dir = tmp_path / "run"
        interrupted_run(run_dir, monkeypatch)
        manifest = load_manifest(str(run_dir))
        manifest["plan"]["n_workers"] = 1
        (run_dir / MANIFEST_NAME).write_text(json.dumps(manifest))

        report = resume_run(str(run_dir))
        assert report.cells_resumed == 1
        assert report.cells_run == 1
        assert len([r for r in report.rows if r["status"] == "done"]) == 2


class TestStoredRecords:
    """What older versions stored loads as they ran it (strictness is for
    submitted input, not for records those versions wrote and ran)."""

    @pytest.mark.parametrize(
        "legacy",
        [
            {"backend": "process", "n_workers": 2},
            {"backend": "thread", "n_workers": 4, "queue_dir": "/nonexistent"},
        ],
        ids=["process", "thread-with-ignored-fleet-field"],
    )
    def test_pooled_backend_manifest_resumes(self, legacy, tmp_path, monkeypatch):
        run_dir = tmp_path / "run"
        interrupted_run(run_dir, monkeypatch)
        manifest = load_manifest(str(run_dir))
        manifest["plan"].update(legacy)
        (run_dir / MANIFEST_NAME).write_text(json.dumps(manifest))

        report = resume_run(str(run_dir))
        assert report.plan.backend == "serial"
        assert report.cells_resumed == 1
        assert report.cells_run == 1

    def test_stored_job_spec_maps_to_what_ran(self):
        stored = job_payload(backend="vectorized", n_workers=2, **FLEET_ONLY)
        job = JobSpec.from_dict(stored_execution(stored))
        assert job == JobSpec.from_dict(job_payload(backend="vectorized"))

    def test_stored_fleet_job_keeps_its_fleet_fields(self, tmp_path):
        stored = job_payload(
            backend="fleet",
            queue_dir=str(tmp_path),
            spawn_workers=2,
            worker_backend="process",
            n_workers=2,
        )
        job = JobSpec.from_dict(stored_execution(stored))
        assert (job.backend, job.worker_backend) == ("fleet", "serial")
        assert (job.queue_dir, job.spawn_workers) == (str(tmp_path), 2)


class TestCliBackendOverride:
    def fleet_config(self, tmp_path):
        config = tmp_path / "fleet_plan.json"
        fields = {**FLEET_ONLY, "queue_dir": str(tmp_path / "queue")}
        config.write_text(json.dumps(plan_payload(backend="fleet", **fields)))
        return str(config)

    def test_non_fleet_backend_drops_the_plans_fleet_fields(self, tmp_path):
        args = build_parser().parse_args(
            ["run", "--run-dir", "r", "--config", self.fleet_config(tmp_path),
             "--backend", "vectorized"]
        )
        plan = _plan_from_args(args)
        assert plan == ExperimentPlan.from_dict(plan_payload(backend="vectorized"))

    def test_fleet_flags_with_a_non_fleet_backend_are_still_rejected(
        self, tmp_path
    ):
        args = build_parser().parse_args(
            ["run", "--run-dir", "r", "--config", self.fleet_config(tmp_path),
             "--backend", "vectorized", "--spawn-workers", "2"]
        )
        with pytest.raises(ValueError, match="spawn_workers: fleet-only"):
            _plan_from_args(args)


class TestRetiredBackends:
    @pytest.mark.parametrize("name", RETIRED)
    @pytest.mark.parametrize("field_name", ["backend", "worker_backend"])
    def test_plan_names_the_replacements(self, name, field_name, tmp_path):
        fields = {field_name: name}
        if field_name == "worker_backend":
            fields.update(backend="fleet", queue_dir=str(tmp_path))
        removed = f"{field_name}: the '{name}' backend was removed"
        with pytest.raises(ValueError, match=removed) as excinfo:
            ExperimentPlan.from_dict(plan_payload(**fields))
        assert_names_replacements(str(excinfo.value))

    @pytest.mark.parametrize("name", RETIRED)
    @pytest.mark.parametrize("field_name", ["backend", "worker_backend"])
    def test_job_names_the_replacements(self, name, field_name, tmp_path):
        fields = {field_name: name}
        if field_name == "worker_backend":
            fields.update(backend="fleet", queue_dir=str(tmp_path))
        removed = f"{field_name}: the '{name}' backend was removed"
        with pytest.raises(ValueError, match=removed) as excinfo:
            JobSpec.from_dict(job_payload(**fields))
        assert_names_replacements(str(excinfo.value))

    @pytest.mark.parametrize("name", RETIRED)
    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--run-dir", "r", "--backend"],
            ["run", "--run-dir", "r", "--backend", "fleet", "--worker-backend"],
            ["worker", "q", "--backend"],
            ["submit", "--backend"],
        ],
        ids=["run", "run-worker-backend", "worker", "submit"],
    )
    def test_cli_names_the_replacements(self, name, argv, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([*argv, name])
        message = capsys.readouterr().err
        assert f"the '{name}' backend was removed" in message
        assert_names_replacements(message)

    def test_cli_has_no_worker_count_flag(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--run-dir", "r", "--n-workers", "2"])
        assert "unrecognized arguments" in capsys.readouterr().err
