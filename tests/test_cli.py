"""Tests for the ``repro`` command-line interface."""

import json

import pytest

from repro.cli import build_parser, main

TASK_FLAGS = [
    "--task", "adult",
    "--model", "logistic",
    "--n-clients", "3",
    "--scale", "tiny",
    "--seed", "0",
    "--algorithms", "MC-Shapley,IPSS",
]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestListTasks:
    def test_lists_kinds_and_algorithms(self, capsys):
        code, out = run_cli(capsys, "list-tasks")
        assert code == 0
        assert "adult" in out and "IPSS" in out

    def test_json_output(self, capsys):
        code, out = run_cli(capsys, "list-tasks", "--json")
        payload = json.loads(out)
        assert code == 0
        assert "synthetic" in payload["tasks"]
        assert "MC-Shapley" in payload["algorithms"]


class TestRunResume:
    def test_run_twice_second_is_training_free(self, tmp_path, capsys):
        """The CLI face of the acceptance bar: rerunning a finished campaign
        against its store performs zero FL trainings."""
        store = str(tmp_path / "store.sqlite")
        code, out = run_cli(
            capsys,
            "run", "--run-dir", str(tmp_path / "run1"), "--store", store,
            *TASK_FLAGS, "--json",
        )
        assert code == 0
        first = json.loads(out)
        assert first["fl_trainings"] > 0

        code, out = run_cli(
            capsys,
            "run", "--run-dir", str(tmp_path / "run2"), "--store", store,
            *TASK_FLAGS, "--json",
        )
        assert code == 0
        second = json.loads(out)
        assert second["fl_trainings"] == 0
        assert second["cells_run"] == 2

    def test_run_refuses_existing_dir_then_resume_flag_continues(
        self, tmp_path, capsys
    ):
        store = str(tmp_path / "store.sqlite")
        run_dir = str(tmp_path / "run")
        assert run_cli(
            capsys, "run", "--run-dir", run_dir, "--store", store, *TASK_FLAGS
        )[0] == 0
        code, _ = run_cli(
            capsys, "run", "--run-dir", run_dir, "--store", store, *TASK_FLAGS
        )
        assert code == 2  # refuses to clobber
        code, out = run_cli(
            capsys,
            "run", "--run-dir", run_dir, "--store", store, *TASK_FLAGS,
            "--resume", "--json",
        )
        assert code == 0
        assert json.loads(out)["cells_resumed"] == 2

    def test_backend_flag_recorded_and_value_neutral(self, tmp_path, capsys):
        """`--backend vectorized` lands in the manifest and, sharing a store
        with a serial run, re-trains nothing — the backends agree exactly."""
        store = str(tmp_path / "store.sqlite")
        flags = [
            "--task", "synthetic", "--setup", "same-size-same-distribution",
            "--model", "mlp", "--n-clients", "3", "--scale", "tiny",
            "--algorithms", "MC-Shapley",
        ]
        code, out = run_cli(
            capsys,
            "run", "--run-dir", str(tmp_path / "vec"), "--store", store,
            *flags, "--backend", "vectorized", "--json",
        )
        assert code == 0
        vectorized = json.loads(out)
        assert vectorized["fl_trainings"] == 8  # 2^3 coalitions trained

        manifest = json.loads((tmp_path / "vec" / "manifest.json").read_text())
        assert manifest["plan"]["backend"] == "vectorized"

        code, out = run_cli(
            capsys,
            "run", "--run-dir", str(tmp_path / "serial"), "--store", store,
            *flags, "--json",
        )
        serial = json.loads(out)
        assert serial["fl_trainings"] == 0  # served from the vectorized run's store
        assert serial["rows"][0]["store_hits"] == 8

    def test_unknown_backend_is_a_clean_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main([
                "run", "--run-dir", str(tmp_path / "run"),
                "--backend", "gpu", *TASK_FLAGS,
            ])

    def test_resume_subcommand_reads_plan_from_manifest(self, tmp_path, capsys):
        store = str(tmp_path / "store.sqlite")
        run_dir = str(tmp_path / "run")
        run_cli(capsys, "run", "--run-dir", run_dir, "--store", store, *TASK_FLAGS)
        code, out = run_cli(
            capsys, "resume", "--run-dir", run_dir, "--store", store, "--json"
        )
        assert code == 0
        report = json.loads(out)
        assert report["cells_resumed"] == 2
        assert report["fl_trainings"] == 0

    def test_config_file_plan(self, tmp_path, capsys):
        config = tmp_path / "plan.json"
        config.write_text(
            json.dumps(
                {
                    "name": "demo",
                    "algorithms": ["MC-Shapley"],
                    "tasks": [
                        {
                            "kind": "adult",
                            "model": "logistic",
                            "n_clients": 3,
                            "scale": "tiny",
                        }
                    ],
                }
            )
        )
        code, out = run_cli(
            capsys,
            "run", "--run-dir", str(tmp_path / "run"),
            "--config", str(config), "--json",
        )
        assert code == 0
        assert json.loads(out)["cells_run"] == 1

    def test_unknown_algorithm_is_a_clean_error(self, tmp_path, capsys):
        code, _ = run_cli(
            capsys,
            "run", "--run-dir", str(tmp_path / "run"),
            "--task", "adult", "--algorithms", "Quantum-SV",
        )
        assert code == 2


class TestScenarioCommands:
    def test_scenarios_list(self, capsys):
        code, out = run_cli(capsys, "scenarios", "list")
        assert code == 0
        assert "free-rider" in out and "sybil-attack" in out

    def test_scenarios_list_json(self, capsys):
        code, out = run_cli(capsys, "scenarios", "list", "--json")
        payload = json.loads(out)
        assert code == 0
        assert "label-flippers" in payload

    def test_scenarios_show(self, capsys):
        code, out = run_cli(capsys, "scenarios", "show", "mixed-adversaries")
        assert code == 0
        assert "adversaries" in out and "free_rider" in out

    def test_scenarios_show_unknown_is_clean_error(self, capsys):
        code, _ = run_cli(capsys, "scenarios", "show", "nope")
        assert code == 2

    def test_run_scenario_emits_robustness_report(self, tmp_path, capsys):
        code, out = run_cli(
            capsys,
            "run", "--run-dir", str(tmp_path / "run"),
            "--store", str(tmp_path / "store.sqlite"),
            "--scenario", "free-rider",
            "--algorithms", "MC-Shapley",
            "--scale", "tiny", "--json",
        )
        assert code == 0
        report = json.loads(out)
        row = report["rows"][0]
        assert row["scenario"] == "free-rider"
        assert row["strictly_last"] is True
        assert row["precision_at_k"] == 1.0
        assert report["fl_trainings"] > 0

    def test_run_scenario_warm_rerun_trains_nothing(self, tmp_path, capsys):
        store = str(tmp_path / "store.sqlite")
        args = [
            "--store", store, "--scenario", "free-rider",
            "--algorithms", "MC-Shapley,IPSS", "--scale", "tiny", "--json",
        ]
        run_cli(capsys, "run", "--run-dir", str(tmp_path / "run1"), *args)
        code, out = run_cli(capsys, "run", "--run-dir", str(tmp_path / "run2"), *args)
        assert code == 0
        assert json.loads(out)["fl_trainings"] == 0

    def test_run_scenario_on_the_vectorized_backend(self, tmp_path, capsys):
        """The backend flag reaches the robustness plan; values match serial."""
        args = [
            "--scenario", "free-rider", "--algorithms", "MC-Shapley",
            "--scale", "tiny", "--json",
        ]
        code, out = run_cli(
            capsys,
            "run", "--run-dir", str(tmp_path / "vectorized"),
            "--store", str(tmp_path / "store.sqlite"), "--backend", "vectorized",
            *args,
        )
        assert code == 0
        vectorized = json.loads(out)
        code, out = run_cli(capsys, "run", "--run-dir", str(tmp_path / "serial"), *args)
        assert code == 0
        serial = json.loads(out)
        assert [row["values"] for row in vectorized["rows"]] == [
            row["values"] for row in serial["rows"]
        ]
        assert vectorized["fl_trainings"] == serial["fl_trainings"] > 0

    def test_run_scenario_rejects_config(self, tmp_path, capsys):
        code, _ = run_cli(
            capsys,
            "run", "--run-dir", str(tmp_path / "run"),
            "--scenario", "free-rider", "--config", "plan.json",
        )
        assert code == 2

    def test_run_scenario_rejects_task_shaping_flags(self, tmp_path, capsys):
        """Flags the scenario definition overrides must error, not silently
        do nothing."""
        code, _ = run_cli(
            capsys,
            "run", "--run-dir", str(tmp_path / "run"),
            "--scenario", "free-rider", "--task", "adult", "--n-clients", "8",
        )
        assert code == 2

    def test_run_scenario_table_output(self, tmp_path, capsys):
        code, out = run_cli(
            capsys,
            "run", "--run-dir", str(tmp_path / "run"),
            "--scenario", "free-rider",
            "--algorithms", "MC-Shapley", "--scale", "tiny",
        )
        assert code == 0
        assert "strictly_last" in out and "free-rider" in out

    def test_config_plan_with_inline_scenario_task(self, tmp_path, capsys):
        config = tmp_path / "plan.json"
        config.write_text(
            json.dumps(
                {
                    "algorithms": ["MC-Shapley"],
                    "tasks": [
                        {
                            "kind": "scenario",
                            "model": "logistic",
                            "scale": "tiny",
                            "scenario": {
                                "name": "my-rider",
                                "n_clients": 3,
                                "behaviors": [
                                    {"kind": "free_rider", "clients": [2]}
                                ],
                            },
                        }
                    ],
                }
            )
        )
        code, out = run_cli(
            capsys,
            "run", "--run-dir", str(tmp_path / "run"),
            "--config", str(config), "--json",
        )
        assert code == 0
        report = json.loads(out)
        assert report["cells_run"] == 1
        assert report["rows"][0]["task"] == "scenario/my-rider/logistic/n=3"


class TestStoreCommands:
    def test_stats_and_gc(self, tmp_path, capsys):
        store = str(tmp_path / "store.sqlite")
        run_cli(
            capsys,
            "run", "--run-dir", str(tmp_path / "run"), "--store", store, *TASK_FLAGS,
        )
        code, out = run_cli(capsys, "store", "stats", "--store", store, "--json")
        assert code == 0
        summary = json.loads(out)
        assert summary["entries"] == 8  # all coalitions of a 3-client task
        assert len(summary["namespaces"]) == 1

        code, out = run_cli(capsys, "store", "gc", "--store", store, "--json")
        assert code == 0
        assert json.loads(out)["kept"] == 8

    def test_stats_missing_store_fails_cleanly(self, tmp_path, capsys):
        """A typo'd path must error, not conjure a fresh empty store."""
        missing = tmp_path / "stroe.sqlite"
        code, _ = run_cli(capsys, "store", "stats", "--store", str(missing), "--json")
        assert code == 2
        assert not missing.exists()  # inspection left no stray store behind
        code, _ = run_cli(capsys, "store", "gc", "--store", str(missing), "--json")
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--run-dir", "r", *TASK_FLAGS],
            ["resume", "--run-dir", "r"],
            ["serve", "state", "--port", "0"],
            ["store", "stats"],
            ["store", "gc"],
        ],
        ids=["run", "resume", "serve", "store-stats", "store-gc"],
    )
    def test_directory_store_fails_with_the_upgrade_path(
        self, argv, tmp_path, capsys, monkeypatch
    ):
        """A directory (the retired JSONL format) exits 2 naming the cause,
        not with SQLite's "unable to open database file"."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "store-dir").mkdir()
        code = main([*argv, "--store", "store-dir"])
        err = capsys.readouterr().err
        assert code == 2
        assert "JSONL stores are no longer read" in err
        assert "pass a .sqlite file" in err


class TestSubmitBackend:
    """``repro submit --backend`` offers what the service runs."""

    @pytest.mark.parametrize("name", ["serial", "vectorized"])
    def test_in_process_backends_parse(self, name):
        args = build_parser().parse_args(["submit", "--backend", name])
        assert args.backend == name

    def test_fleet_is_not_offered(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["submit", "--backend", "fleet"])
        message = capsys.readouterr().err
        assert "--backend {serial,vectorized}" in message
        assert "the 'fleet' backend was removed; use 'vectorized'" in message

    def test_unknown_backend_lists_the_choices(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["submit", "--backend", "gpu"])
        assert "choose from ('serial', 'vectorized')" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["thread", "process"])
    def test_retired_backend_hint_suggests_no_fleet(self, name, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["submit", "--backend", name])
        message = capsys.readouterr().err
        assert f"the '{name}' backend was removed; use 'vectorized'" in message
        assert "fleet" not in message


class TestTaskFlagGroup:
    """``run`` and ``submit`` share one task-flag group; defaults are pinned."""

    TASK_DEFAULTS = {
        "task": None,
        "setup": None,
        "model": "logistic",
        "n_clients": None,
        "scale": "tiny",
        "seed": 0,
    }

    def test_run_defaults_unchanged(self):
        args = vars(build_parser().parse_args(["run", "--run-dir", "r"]))
        assert args == {
            **self.TASK_DEFAULTS,
            "command": "run",
            "run_dir": "r",
            "config": None,
            "scenario": None,
            "algorithms": None,
            "backend": None,
            "resume": False,
            "stop_on": None,
            "checkpoint_every": 1,
            "progress": False,
            "heartbeat": 0.0,
            "json_stream": False,
            "no_telemetry": False,
            "store": None,
            "json": False,
        }

    def test_submit_defaults_unchanged(self):
        args = vars(build_parser().parse_args(["submit"]))
        assert args == {
            **self.TASK_DEFAULTS,
            "command": "submit",
            "url": "http://127.0.0.1:8310",
            "spec": None,
            "algorithm": "IPSS",
            "tenant": "default",
            "priority": 0,
            "stop_on": None,
            "checkpoint_every": 1,
            "backend": None,
            "wait": False,
            "stream": False,
            "json": False,
        }

    def test_task_flags_parse_the_same_on_both_verbs(self):
        flags = [
            "--task", "synthetic",
            "--setup", "same-size-noisy-label",
            "--model", "mlp",
            "--n-clients", "4",
            "--scale", "small",
            "--seed", "3",
        ]
        parser = build_parser()
        run = vars(parser.parse_args(["run", "--run-dir", "r", *flags]))
        submit = vars(parser.parse_args(["submit", *flags]))
        for name in self.TASK_DEFAULTS:
            assert run[name] == submit[name]
