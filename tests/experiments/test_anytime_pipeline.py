"""Pipeline-level anytime behavior: mid-cell checkpoints, stop rules, streams."""

import json
import os

import numpy as np
import pytest

from repro.core import BudgetRule, parse_stopping_rule
from repro.core.exact import MCShapley
from repro.experiments import pipeline
from repro.experiments.figures import convergence_curve
from repro.experiments.pipeline import (
    CHECKPOINTS_DIR,
    ExperimentPlan,
    execute_cell,
    resume_run,
    run_plan,
)
from repro.experiments.specs import TaskSpec
from repro.experiments.tables import convergence_table
from repro.parallel import BatchUtilityOracle
from repro.store import MemoryUtilityStore, SqliteUtilityStore


def _spec(n_clients=3, seed=0):
    return TaskSpec(
        kind="adult", model="logistic", n_clients=n_clients, scale="tiny", seed=seed
    )


def _plan(algorithms=("MC-Shapley", "IPSS"), **kwargs):
    return ExperimentPlan(tasks=(_spec(**kwargs),), algorithms=algorithms)


def _cell_values(run_dir):
    values = {}
    results_dir = os.path.join(run_dir, "results")
    for name in sorted(os.listdir(results_dir)):
        with open(os.path.join(results_dir, name), "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        values[payload["algorithm"]] = payload["result"]["values"]
    return values


class _InterruptAfter:
    """on_snapshot observer that raises KeyboardInterrupt after N snapshots."""

    def __init__(self, count):
        self.remaining = count

    def __call__(self, spec, algorithm, snapshot):
        self.remaining -= 1
        if self.remaining <= 0:
            raise KeyboardInterrupt


class TestMidCellCheckpointResume:
    def test_interrupted_cell_resumes_mid_run_bitwise(self, tmp_path):
        run_dir = str(tmp_path / "interrupted")
        with MemoryUtilityStore() as store:
            with pytest.raises(KeyboardInterrupt):
                run_plan(_plan(), run_dir, store=store, on_snapshot=_InterruptAfter(2))
            checkpoints = os.listdir(os.path.join(run_dir, CHECKPOINTS_DIR))
            assert len(checkpoints) == 1  # the in-flight cell left its state

            report = resume_run(run_dir, store=store)
        assert report.cells_continued == 1
        assert report.cells_run == 2

        reference_dir = str(tmp_path / "reference")
        with MemoryUtilityStore() as store:
            run_plan(_plan(), reference_dir, store=store)
        assert _cell_values(run_dir) == _cell_values(reference_dir)
        # Completed cells clean up their checkpoints.
        assert os.listdir(os.path.join(run_dir, CHECKPOINTS_DIR)) == []

    def test_resume_with_warm_store_trains_nothing_extra(self, tmp_path):
        with MemoryUtilityStore() as store:
            warm_dir = str(tmp_path / "warm")
            run_plan(_plan(), warm_dir, store=store)  # populates the store

            run_dir = str(tmp_path / "interrupted")
            with pytest.raises(KeyboardInterrupt):
                run_plan(_plan(), run_dir, store=store, on_snapshot=_InterruptAfter(2))
            report = resume_run(run_dir, store=store)
            assert report.fl_trainings == 0
            assert report.cells_continued == 1
            assert _cell_values(run_dir) == _cell_values(warm_dir)

    def test_resumed_invocation_counts_only_its_own_trainings(self, tmp_path):
        # Without a store: the interrupted invocation pays some trainings,
        # the resume pays only the rest — the two reports must sum to the
        # uninterrupted total, not double-count the checkpointed prefix.
        run_dir = str(tmp_path / "interrupted")
        with pytest.raises(KeyboardInterrupt):
            run_plan(
                _plan(algorithms=("IPSS",)), run_dir, on_snapshot=_InterruptAfter(2)
            )
        checkpoint_dir = os.path.join(run_dir, CHECKPOINTS_DIR)
        (name,) = os.listdir(checkpoint_dir)
        with open(os.path.join(checkpoint_dir, name), "r", encoding="utf-8") as handle:
            paid_before_interrupt = json.load(handle)["evaluations"]
        assert paid_before_interrupt > 0

        report = resume_run(run_dir)
        reference = run_plan(_plan(algorithms=("IPSS",)), str(tmp_path / "reference"))
        assert (
            paid_before_interrupt + report.fl_trainings == reference.fl_trainings
        ), "resume must not re-count trainings already paid before the interrupt"

    def test_stale_checkpoint_is_ignored_not_fatal(self, tmp_path):
        run_dir = str(tmp_path / "stale")
        with pytest.raises(KeyboardInterrupt):
            run_plan(_plan(), run_dir, on_snapshot=_InterruptAfter(2))
        checkpoint_dir = os.path.join(run_dir, CHECKPOINTS_DIR)
        (name,) = os.listdir(checkpoint_dir)
        path = os.path.join(checkpoint_dir, name)
        with open(path, "r", encoding="utf-8") as handle:
            state = json.load(handle)
        state["config"] = {"total_rounds": 999_999}  # as if the budget changed
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(state, handle)

        report = resume_run(run_dir)
        assert report.cells_run == 2
        assert report.cells_continued == 0  # restarted the cell from scratch

        reference_dir = str(tmp_path / "reference")
        run_plan(_plan(), reference_dir)
        assert _cell_values(run_dir) == _cell_values(reference_dir)

    def test_checkpoint_without_rng_state_restarts_cell(self, tmp_path):
        # A parseable, config-matching checkpoint whose RNG snapshot is gone
        # must restart the cell — not surface as a permanently-skipped cell.
        run_dir = str(tmp_path / "norng")
        with pytest.raises(KeyboardInterrupt):
            run_plan(_plan(), run_dir, on_snapshot=_InterruptAfter(2))
        checkpoint_dir = os.path.join(run_dir, CHECKPOINTS_DIR)
        (name,) = os.listdir(checkpoint_dir)
        path = os.path.join(checkpoint_dir, name)
        with open(path, "r", encoding="utf-8") as handle:
            state = json.load(handle)
        state["rng_state"] = None
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(state, handle)

        report = resume_run(run_dir)
        assert report.cells_skipped == 0
        assert report.cells_run == 2
        assert report.cells_continued == 0

        reference_dir = str(tmp_path / "reference")
        run_plan(_plan(), reference_dir)
        assert _cell_values(run_dir) == _cell_values(reference_dir)

    def test_corrupt_checkpoint_is_ignored(self, tmp_path):
        run_dir = str(tmp_path / "corrupt")
        with pytest.raises(KeyboardInterrupt):
            run_plan(_plan(), run_dir, on_snapshot=_InterruptAfter(2))
        checkpoint_dir = os.path.join(run_dir, CHECKPOINTS_DIR)
        (name,) = os.listdir(checkpoint_dir)
        with open(os.path.join(checkpoint_dir, name), "w", encoding="utf-8") as handle:
            handle.write("{not json")
        report = resume_run(run_dir)
        assert report.cells_run == 2

    def test_indented_checkpoint_from_older_writer_resumes_bitwise(self, tmp_path):
        # Checkpoints used to be written with indent=2; a run interrupted
        # under that writer must still continue mid-phase-2 after an upgrade.
        plan = _plan(algorithms=("IPSS",), n_clients=40)

        def interrupt_mid_phase_two(spec, algorithm, snapshot):
            if snapshot.state.payload["partial_evaluated"] >= 48:
                raise KeyboardInterrupt

        run_dir = str(tmp_path / "interrupted")
        with MemoryUtilityStore() as store:
            with pytest.raises(KeyboardInterrupt):
                run_plan(
                    plan, run_dir, store=store, on_snapshot=interrupt_mid_phase_two
                )
            (name,) = os.listdir(os.path.join(run_dir, CHECKPOINTS_DIR))
            path = os.path.join(run_dir, CHECKPOINTS_DIR, name)
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
            assert "\n" not in text  # written compact
            state = json.loads(text)
            payload = state["payload"]
            assert 0 < payload["partial_evaluated"] < payload["partial_count"]
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(state, handle, indent=2, sort_keys=True)

            report = resume_run(run_dir, store=store)
        assert report.cells_continued == 1

        reference_dir = str(tmp_path / "reference")
        with MemoryUtilityStore() as store:
            reference = run_plan(plan, reference_dir, store=store)
        assert _cell_values(run_dir) == _cell_values(reference_dir)
        assert state["evaluations"] + report.fl_trainings == reference.fl_trainings

    def test_checkpoint_every_zero_disables_checkpoints(self, tmp_path):
        run_dir = str(tmp_path / "nocp")
        with pytest.raises(KeyboardInterrupt):
            run_plan(
                _plan(),
                run_dir,
                checkpoint_every=0,
                on_snapshot=_InterruptAfter(2),
            )
        assert not os.path.exists(os.path.join(run_dir, CHECKPOINTS_DIR))


class _CheckpointSpy:
    """Records the checkpoints the pipeline writes and the chunks it runs.

    A chunk's checkpoint is written just before its snapshot reaches the
    observer, so each write is attributed to the snapshot that follows it.
    """

    def __init__(self, monkeypatch):
        self.events = []
        write = pipeline._write_json

        def spy(path, payload):
            if os.path.basename(os.path.dirname(path)) == CHECKPOINTS_DIR:
                self.events.append(("write", payload["chunk_index"]))
            write(path, payload)

        monkeypatch.setattr(pipeline, "_write_json", spy)

    def __call__(self, spec, algorithm, snapshot):
        self.events.append(
            ("chunk", algorithm, snapshot.chunk_index, snapshot.evaluations,
             snapshot.done)
        )

    def _chunks(self):
        return [event[1:] for event in self.events if event[0] == "chunk"]

    def writes(self):
        """``(algorithm, chunk)`` of every checkpoint written."""
        written = []
        for event, following in zip(self.events, self.events[1:]):
            if event[0] == "write":
                assert following[0] == "chunk" and following[2] == event[1]
                written.append(following[1:3])
        return written

    def cadence_chunks(self, every=1):
        return [
            (algorithm, chunk)
            for algorithm, chunk, _, done in self._chunks()
            if not done and chunk % every == 0
        ]

    def trained_chunks(self, every=1):
        """Cadence chunks that trained since their cell's last such chunk."""
        expected, last = [], {}
        for algorithm, chunk, evaluations, done in self._chunks():
            if done or chunk % every:
                continue
            if evaluations != last.get(algorithm, 0):
                expected.append((algorithm, chunk))
                last[algorithm] = evaluations
        return expected


class TestCheckpointOnlyAfterTrainings:
    """Against a durable store, only chunks that trained are checkpointed."""

    @pytest.mark.parametrize("every", [1, 2])
    def test_cold_sqlite_checkpoints_every_chunk_that_trained(
        self, tmp_path, monkeypatch, every
    ):
        spy = _CheckpointSpy(monkeypatch)
        with SqliteUtilityStore(str(tmp_path / "store.sqlite")) as store:
            run_plan(
                _plan(),
                str(tmp_path / "cold"),
                store=store,
                checkpoint_every=every,
                on_snapshot=spy,
            )
        expected = spy.trained_chunks(every)
        # IPSS reads every coalition MC-Shapley trained and trains none.
        assert {algorithm for algorithm, _ in expected} == {"MC-Shapley"}
        assert len(expected) < len(spy.cadence_chunks(every))
        assert spy.writes() == expected

    def test_warm_sqlite_never_creates_a_checkpoint(self, tmp_path, monkeypatch):
        path = str(tmp_path / "store.sqlite")
        with SqliteUtilityStore(path) as store:
            run_plan(_plan(), str(tmp_path / "fill"), store=store)
        spy = _CheckpointSpy(monkeypatch)
        warm_dir = str(tmp_path / "warm")
        with SqliteUtilityStore(path) as store:
            report = run_plan(_plan(), warm_dir, store=store, on_snapshot=spy)
        assert report.fl_trainings == 0
        assert len(spy.cadence_chunks()) > 2
        assert spy.writes() == []
        checkpoints = os.path.join(warm_dir, CHECKPOINTS_DIR)
        assert not os.path.isdir(checkpoints) or os.listdir(checkpoints) == []
        assert _cell_values(warm_dir) == _cell_values(str(tmp_path / "fill"))

    @pytest.mark.parametrize("store_kind", ["memory", "none"])
    def test_without_a_durable_store_every_cadence_chunk_is_written(
        self, tmp_path, monkeypatch, store_kind
    ):
        store = MemoryUtilityStore() if store_kind == "memory" else None
        if store is not None:
            run_plan(_plan(), str(tmp_path / "fill"), store=store)  # warm it
        spy = _CheckpointSpy(monkeypatch)
        run_plan(_plan(), str(tmp_path / "run"), store=store, on_snapshot=spy)
        assert spy.cadence_chunks()
        assert spy.writes() == spy.cadence_chunks()

    def test_a_non_finite_utility_counts_as_trained(self, tmp_path, monkeypatch):
        # NaN utilities are never stored, so a warm rerun trains them again:
        # the chunk that does is checkpointed, the others are not.
        def game(coalition):
            members = set(coalition)
            return float("nan") if members == {0, 1} else float(len(members))

        def checkpoint(run):
            return str(tmp_path / run / CHECKPOINTS_DIR / "cell.state.json")

        with SqliteUtilityStore(str(tmp_path / "store.sqlite")) as store:
            with BatchUtilityOracle(game, 3, store=store, store_namespace="t") as cold:
                execute_cell(MCShapley(), cold, checkpoint("cold"), "cold", _quiet)
            spy = _CheckpointSpy(monkeypatch)
            with BatchUtilityOracle(game, 3, store=store, store_namespace="t") as warm:
                execute_cell(
                    MCShapley(), warm, checkpoint("warm"), "warm", _quiet,
                    on_snapshot=lambda snapshot: spy(None, "MC", snapshot),
                )
            assert warm.evaluations == 1
        assert spy.writes() == [("MC", 3)]  # chunk 3 is the size-2 stratum


def _quiet(message):
    """Log sink for execute_cell."""


class TestStopRules:
    def test_stop_rule_limits_cell_evaluations(self, tmp_path):
        full_dir = str(tmp_path / "full")
        full = run_plan(_plan(algorithms=("IPSS",)), full_dir)
        stopped_dir = str(tmp_path / "stopped")
        stopped = run_plan(
            _plan(algorithms=("IPSS",)), stopped_dir, stop_rule=BudgetRule(2)
        )
        assert stopped.fl_trainings < full.fl_trainings
        (payload,) = [
            json.load(open(os.path.join(stopped_dir, "results", f)))
            for f in os.listdir(os.path.join(stopped_dir, "results"))
        ]
        assert payload["result"]["metadata"]["stopped_early"] is True
        assert payload["result"]["metadata"]["stopped_by"] == "budget:2"

    def test_stop_rule_is_reset_between_cells(self, tmp_path):
        # A stateful rule must not carry its streak from one cell to the next:
        # with the same rule instance, both cells stop (each on its own count).
        run_dir = str(tmp_path / "both")
        report = run_plan(
            _plan(algorithms=("IPSS", "CC-Shapley")), run_dir, stop_rule=BudgetRule(2)
        )
        for name in os.listdir(os.path.join(run_dir, "results")):
            payload = json.load(open(os.path.join(run_dir, "results", name)))
            assert payload["result"]["metadata"].get("stopped_early") is True
        assert report.cells_run == 2

    def test_parsed_rule_through_robustness(self, tmp_path):
        from repro.scenarios import run_robustness

        report = run_robustness(
            ["free-rider"],
            str(tmp_path / "robustness"),
            algorithms=("IPSS",),
            stop_rule=parse_stopping_rule("budget:2"),
        )
        from repro.experiments.config import sampling_rounds_for

        done = [row for row in report.rows if row["status"] == "done"]
        assert done, report.rows
        # The rule fires at the first chunk boundary past the budget, well
        # short of each cell's full sampling budget.
        assert all(
            row["evaluations"] < sampling_rounds_for(row["n"]) for row in done
        )


class TestSnapshotStream:
    def test_on_snapshot_sees_every_chunk_of_every_cell(self, tmp_path):
        seen = []
        run_plan(
            _plan(),
            str(tmp_path / "stream"),
            on_snapshot=lambda spec, algorithm, snap: seen.append(
                (algorithm, snap.chunk_index, snap.done)
            ),
        )
        algorithms = {alg for alg, _, _ in seen}
        assert algorithms == {"MC-Shapley", "IPSS"}
        assert sum(1 for _, _, done in seen if done) == 2

    def test_gradient_based_cells_also_stream(self, tmp_path):
        # Single-chunk adapters still emit their terminal snapshot, so a
        # --json-stream consumer sees every cell of the campaign.
        seen = []
        report = run_plan(
            _plan(algorithms=("IPSS", "OR")),
            str(tmp_path / "gradient"),
            on_snapshot=lambda spec, algorithm, snap: seen.append(
                (algorithm, snap.done)
            ),
        )
        assert report.cells_run == 2
        assert ("OR", True) in seen
        assert report.fl_trainings > 0


class TestConvergenceReporting:
    def test_convergence_curve_and_table(self):
        import sys

        sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))
        from helpers import monotone_game
        from repro.core import IPSS, MCShapley

        exact = MCShapley(seed=0).run(monotone_game(6, seed=4), 6).values
        curve = convergence_curve(
            IPSS(total_rounds=24, seed=0),
            monotone_game(6, seed=4),
            6,
            reference=exact,
        )
        assert curve["done"] is True
        assert curve["evaluations"] == sorted(curve["evaluations"])
        assert len(curve["chunk"]) >= 2
        # The error trajectory must reach the full-budget error at the end.
        assert curve["error_l2"][-1] == pytest.approx(
            np.linalg.norm(
                IPSS(total_rounds=24, seed=0).run(monotone_game(6, seed=4), 6).values
                - exact
            )
            / np.linalg.norm(exact)
        )
        rendered = convergence_table(curve)
        assert "convergence: IPSS" in rendered
        assert "evaluations" in rendered

    def test_convergence_curve_records_stop(self):
        import sys

        sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))
        from helpers import monotone_game
        from repro.core import IPSS

        curve = convergence_curve(
            IPSS(total_rounds=24, seed=0),
            monotone_game(6, seed=4),
            6,
            stopping_rule=BudgetRule(4),
        )
        assert curve["stopped_by"] == "budget:4"
        assert curve["done"] is False
        rendered = convergence_table(curve)
        assert "stopped early by budget:4" in rendered
