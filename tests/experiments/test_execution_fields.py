"""Execution fields of plans and job specs: retired backends, legacy input.

The pooled ``thread`` and ``process`` backends, their ``n_workers`` knob and
the ``fleet`` backend with its ``queue_dir``, ``spawn_workers``,
``worker_backend`` and ``lease_seconds`` fields are gone.  Manifests and job
rows written while they existed must still load and run as what they ran,
while any of them in a new plan, a job or on the command line fails with
the replacement spelled out.
"""

import json

import pytest

from repro.cli import _plan_from_args, build_parser, main
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
from repro.parallel import EXECUTOR_BACKENDS, make_executor
from repro.service.models import JobSpec

TINY_SPEC = TaskSpec(kind="adult", n_clients=3, model="logistic", scale="tiny", seed=0)
JOB_TASK = {
    "kind": "synthetic",
    "setup": "same-size-same-distribution",
    "n_clients": 4,
    "seed": 0,
}
FLEET_FIELDS = {
    "queue_dir": "/nonexistent",
    "spawn_workers": 3,
    "worker_backend": "vectorized",
    "lease_seconds": 5.0,
}
RETIRED = ("thread", "process", "fleet")


def plan_payload(**fields):
    return {"tasks": [TINY_SPEC.to_dict()], "algorithms": ["IPSS"], **fields}


def job_payload(**fields):
    return {"task": JOB_TASK, "algorithm": "IPSS", **fields}


def assert_names_replacements(message):
    """The hint names 'vectorized' and processes sharing one store, and
    never the removed fleet flags."""
    assert "'vectorized'" in message
    assert "several `repro run` processes" in message
    assert "--store" in message
    assert "--spawn-workers" not in message


class TestRetiredFleetFields:
    @pytest.mark.parametrize("backend", [None, "serial", "vectorized"])
    @pytest.mark.parametrize("field_name", sorted(FLEET_FIELDS))
    def test_plan_rejects_a_fleet_field(self, backend, field_name):
        fields = {field_name: FLEET_FIELDS[field_name]}
        if backend is not None:
            fields["backend"] = backend
        with pytest.raises(ValueError, match="unknown ExperimentPlan fields") as excinfo:
            ExperimentPlan.from_dict(plan_payload(**fields))
        assert f"{field_name} configured the removed 'fleet' backend" in str(
            excinfo.value
        )
        assert_names_replacements(str(excinfo.value))

    @pytest.mark.parametrize("field_name", sorted(FLEET_FIELDS))
    def test_job_rejects_a_fleet_field(self, field_name):
        fields = {field_name: FLEET_FIELDS[field_name]}
        with pytest.raises(ValueError, match="unknown JobSpec fields") as excinfo:
            JobSpec.from_dict(job_payload(backend="vectorized", **fields))
        assert f"{field_name} configured the removed 'fleet' backend" in str(
            excinfo.value
        )
        assert_names_replacements(str(excinfo.value))

    def test_every_rejected_field_is_named(self):
        with pytest.raises(ValueError) as excinfo:
            JobSpec.from_dict(job_payload(backend="vectorized", **FLEET_FIELDS))
        message = str(excinfo.value)
        for field_name in FLEET_FIELDS:
            assert field_name in message

    def test_a_typo_next_to_a_fleet_field_is_named_too(self):
        with pytest.raises(ValueError) as excinfo:
            ExperimentPlan.from_dict(plan_payload(queue_dir="q", algoritms=["IPSS"]))
        message = str(excinfo.value)
        assert "['algoritms', 'queue_dir']" in message
        assert "queue_dir configured the removed 'fleet' backend" in message
        assert "algoritms configured" not in message


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

    def test_legacy_value_does_not_revive_a_retired_backend(self):
        with pytest.raises(ValueError, match="the 'fleet' backend was removed"):
            ExperimentPlan.from_dict(plan_payload(n_workers=1, backend="fleet"))
        with pytest.raises(ValueError, match="the 'process' backend was removed"):
            JobSpec.from_dict(job_payload(n_workers=1, backend="process"))

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


def finished_values(run_dir):
    """``cell id -> values`` of every finished cell in ``run_dir``."""
    manifest = load_manifest(str(run_dir))
    values = {}
    for cell, entry in manifest["cells"].items():
        payload = json.loads((run_dir / entry["result_file"]).read_text())
        values[cell] = payload["result"]["values"]
    return values


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

    @pytest.mark.parametrize(
        ("worker_backend", "runs_as"),
        [(None, "serial"), ("vectorized", "vectorized"), ("process", "serial")],
    )
    def test_fleet_manifest_resumes_bitwise(
        self, worker_backend, runs_as, tmp_path, monkeypatch
    ):
        """A fleet run dir resumes on the executor its workers used, and its
        values are bitwise those of an uninterrupted run."""
        full = tmp_path / "full"
        run_plan(
            ExperimentPlan(tasks=(TINY_SPEC,), algorithms=("MC-Shapley", "IPSS")),
            str(full),
        )
        run_dir = tmp_path / "run"
        interrupted_run(run_dir, monkeypatch)
        manifest = load_manifest(str(run_dir))
        legacy = {
            "backend": "fleet",
            "queue_dir": str(tmp_path / "queue"),
            "spawn_workers": 2,
            "lease_seconds": 5.0,
        }
        if worker_backend is not None:
            legacy["worker_backend"] = worker_backend
        manifest["plan"].update(legacy)
        (run_dir / MANIFEST_NAME).write_text(json.dumps(manifest))

        report = resume_run(str(run_dir))
        assert report.plan.backend == runs_as
        assert (report.cells_resumed, report.cells_run) == (1, 1)
        assert finished_values(run_dir) == finished_values(full)

    def test_stored_job_spec_maps_to_what_ran(self):
        stored = job_payload(backend="vectorized", n_workers=2, **FLEET_FIELDS)
        job = JobSpec.from_dict(stored_execution(stored))
        assert job == JobSpec.from_dict(job_payload(backend="vectorized"))

    @pytest.mark.parametrize(
        ("worker_backend", "runs_as"),
        [(None, "serial"), ("vectorized", "vectorized"), ("process", "serial")],
    )
    def test_stored_fleet_job_maps_to_its_worker_backend(
        self, worker_backend, runs_as, tmp_path
    ):
        stored = job_payload(
            backend="fleet",
            queue_dir=str(tmp_path),
            spawn_workers=2,
            lease_seconds=5.0,
            n_workers=2,
        )
        if worker_backend is not None:
            stored["worker_backend"] = worker_backend
        job = JobSpec.from_dict(stored_execution(stored))
        assert job == JobSpec.from_dict(job_payload(backend=runs_as))

    @pytest.mark.parametrize("name", ["thread", "process"])
    def test_stored_pooled_job_runs_serially(self, name):
        stored = job_payload(backend=name, n_workers=4)
        job = JobSpec.from_dict(stored_execution(stored))
        assert job == JobSpec.from_dict(job_payload(backend="serial"))

    @pytest.mark.parametrize("backend", [None, *EXECUTOR_BACKENDS])
    def test_current_records_load_unchanged(self, backend):
        fields = {} if backend is None else {"backend": backend}
        for payload in (plan_payload(**fields), job_payload(**fields)):
            assert stored_execution(payload) == payload

    def test_mapping_leaves_the_stored_record_alone(self, tmp_path):
        stored = job_payload(
            backend="fleet", worker_backend="vectorized", n_workers=2,
            queue_dir=str(tmp_path),
        )
        snapshot = json.loads(json.dumps(stored))
        assert stored_execution(stored)["backend"] == "vectorized"
        assert stored == snapshot

    def test_cli_resumes_a_fleet_run_dir(self, tmp_path, monkeypatch, capsys):
        """``repro resume`` finishes a run dir the fleet backend started."""
        run_dir = tmp_path / "run"
        interrupted_run(run_dir, monkeypatch)
        manifest = load_manifest(str(run_dir))
        manifest["plan"].update(
            backend="fleet", queue_dir=str(tmp_path / "queue"), spawn_workers=2,
            worker_backend="vectorized",
        )
        (run_dir / MANIFEST_NAME).write_text(json.dumps(manifest))
        capsys.readouterr()

        assert main(["resume", "--run-dir", str(run_dir), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert (report["cells_resumed"], report["cells_run"]) == (1, 1)
        cells = load_manifest(str(run_dir))["cells"].values()
        assert [entry["status"] for entry in cells] == ["done", "done"]


class TestBackendSwitchOnResume:
    """The backend is machine-local: it never enters the plan fingerprint,
    so a run started on one backend finishes on the other, bitwise."""

    @pytest.mark.parametrize(
        ("started_on", "finished_on"),
        [("serial", "vectorized"), ("vectorized", "serial")],
    )
    def test_interrupted_run_finishes_on_the_other_backend(
        self, started_on, finished_on, tmp_path, monkeypatch
    ):
        algorithms = ("MC-Shapley", "IPSS")
        full = tmp_path / "full"
        run_plan(ExperimentPlan(tasks=(TINY_SPEC,), algorithms=algorithms), str(full))
        run_dir = tmp_path / "run"
        started = ExperimentPlan(
            tasks=(TINY_SPEC,), algorithms=algorithms, backend=started_on
        )

        def exploding_builder(n, gamma, seed):
            raise RuntimeError("simulated crash before the IPSS cell")

        with monkeypatch.context() as patch:
            patch.setitem(ALGORITHM_BUILDERS, "IPSS", exploding_builder)
            with pytest.raises(RuntimeError):
                run_plan(started, str(run_dir))

        finishing = ExperimentPlan(
            tasks=(TINY_SPEC,), algorithms=algorithms, backend=finished_on
        )
        report = run_plan(finishing, str(run_dir), resume=True)
        assert report.plan.backend == finished_on
        assert (report.cells_resumed, report.cells_run) == (1, 1)
        assert finished_values(run_dir) == finished_values(full)

    @pytest.mark.parametrize("backend", EXECUTOR_BACKENDS)
    def test_rerun_on_a_warm_store_trains_nothing(self, backend, tmp_path):
        plan = ExperimentPlan(
            tasks=(TINY_SPEC,), algorithms=("MC-Shapley", "IPSS"), backend=backend
        )
        store = str(tmp_path / "store.sqlite")
        first = run_plan(plan, str(tmp_path / "first"), store=store)
        second = run_plan(plan, str(tmp_path / "second"), store=store)
        assert first.fl_trainings > 0
        assert second.fl_trainings == 0
        first_values = finished_values(tmp_path / "first")
        assert finished_values(tmp_path / "second") == first_values


class TestCliBackendOverride:
    def test_backend_flag_overrides_the_plans(self, tmp_path):
        config = tmp_path / "plan.json"
        config.write_text(json.dumps(plan_payload(backend="serial")))
        args = build_parser().parse_args(
            ["run", "--run-dir", "r", "--config", str(config),
             "--backend", "vectorized"]
        )
        plan = _plan_from_args(args)
        assert plan == ExperimentPlan.from_dict(plan_payload(backend="vectorized"))

    def test_fleet_plan_file_names_the_replacements(self, tmp_path):
        config = tmp_path / "fleet_plan.json"
        config.write_text(json.dumps(plan_payload(backend="fleet")))
        args = build_parser().parse_args(
            ["run", "--run-dir", "r", "--config", str(config)]
        )
        with pytest.raises(ValueError, match="the 'fleet' backend was removed") as excinfo:
            _plan_from_args(args)
        assert_names_replacements(str(excinfo.value))

    @pytest.mark.parametrize(
        "flag",
        [
            ["--queue-dir", "q"],
            ["--spawn-workers", "2"],
            ["--worker-backend", "vectorized"],
            ["--lease-seconds", "5"],
        ],
        ids=lambda flag: flag[0],
    )
    def test_fleet_flags_are_rejected(self, flag, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--run-dir", "r", *flag])
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_worker_command_is_gone(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["worker", "q"])
        assert "invalid choice: 'worker'" in capsys.readouterr().err


class TestRetiredBackends:
    @pytest.mark.parametrize("name", RETIRED)
    def test_plan_names_the_replacements(self, name):
        removed = f"backend: the '{name}' backend was removed"
        with pytest.raises(ValueError, match=removed) as excinfo:
            ExperimentPlan.from_dict(plan_payload(backend=name))
        assert_names_replacements(str(excinfo.value))

    @pytest.mark.parametrize("name", RETIRED)
    def test_job_names_the_replacements(self, name):
        removed = f"backend: the '{name}' backend was removed"
        with pytest.raises(ValueError, match=removed) as excinfo:
            JobSpec.from_dict(job_payload(backend=name))
        assert_names_replacements(str(excinfo.value))

    @pytest.mark.parametrize("name", RETIRED)
    @pytest.mark.parametrize(
        "argv",
        [["run", "--run-dir", "r", "--backend"], ["submit", "--backend"]],
        ids=["run", "submit"],
    )
    def test_cli_names_the_replacements(self, name, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args([*argv, name])
        assert excinfo.value.code == 2
        message = capsys.readouterr().err
        assert f"the '{name}' backend was removed" in message
        assert_names_replacements(message)

    @pytest.mark.parametrize("name", RETIRED)
    def test_executor_factory_does_not_know_the_name(self, name):
        with pytest.raises(ValueError, match="unknown executor backend") as excinfo:
            make_executor(name)
        assert str(EXECUTOR_BACKENDS) in str(excinfo.value)

    def test_cli_has_no_worker_count_flag(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--run-dir", "r", "--n-workers", "2"])
        assert "unrecognized arguments" in capsys.readouterr().err
