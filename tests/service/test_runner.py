"""run_job: the bitwise-identity invariant, deterministically.

These tests drive :func:`repro.service.runner.run_job` directly with stub
control callbacks, so preemption and cancellation land at an exact chunk —
no timing, no threads.  The service-level suite (test_service.py) covers the
same invariants through the real scheduler.
"""

import json
import os

import pytest

from repro.service.jobs import JobStore
from repro.service.models import JobRecord
from repro.service.runner import checkpoint_path, result_path, run_job
from repro.store import open_store
from tests.service.helpers import direct_values, make_spec, make_task


class Ledger:
    """Collects (key, job_id) training records, like JobStore's ledger."""

    def __init__(self):
        self.rows = []

    def record(self, key, job_id):
        self.rows.append((key, job_id))

    def duplicates(self):
        keys = [key for key, _ in self.rows]
        return len(keys) - len(set(keys))


class ControlScript:
    """Returns (cancel, preempt) flags according to a per-chunk script."""

    def __init__(self, cancel_at=None, preempt_at=None):
        self.calls = 0
        self.cancel_at = cancel_at
        self.preempt_at = preempt_at

    def flags(self):
        self.calls += 1
        cancel = self.cancel_at is not None and self.calls >= self.cancel_at
        preempt = self.preempt_at is not None and self.calls >= self.preempt_at
        return cancel, preempt


def make_record(spec, job_id="job-000001"):
    return JobRecord(
        job_id=job_id,
        spec=spec,
        status="running",
        namespace=spec.namespace(),
        task_fingerprint=spec.task_fingerprint(),
        attempts=1,
    )


def quiet(message):
    """Log sink for run_job (tests keep worker chatter out of the output)."""


def execute(record, store, state_dir, ledger, control, events):
    return run_job(
        record,
        store,
        state_dir,
        ledger.record,
        control.flags,
        events.append,
        quiet,
    )


@pytest.fixture
def store(tmp_path):
    with open_store(str(tmp_path / "store.sqlite")) as handle:
        yield handle


class TestUninterruptedRun:
    def test_done_job_matches_the_direct_run_bitwise(self, tmp_path, store):
        spec = make_spec(n_clients=5)
        events = []
        outcome = execute(
            make_record(spec), store, str(tmp_path), Ledger(), ControlScript(), events
        )
        assert outcome.status == "done"
        assert outcome.result["result"]["values"] == direct_values(
            spec.task, spec.algorithm
        )
        assert events[-1]["event"] == "result"
        assert all(e["job_id"] == "job-000001" for e in events)

    def test_done_job_persists_its_result_and_drops_the_checkpoint(
        self, tmp_path, store
    ):
        spec = make_spec(n_clients=4)
        execute(make_record(spec), store, str(tmp_path), Ledger(), ControlScript(), [])
        assert os.path.exists(result_path(str(tmp_path), "job-000001"))
        assert not os.path.exists(checkpoint_path(str(tmp_path), "job-000001"))

    def test_every_training_lands_in_the_ledger_once(self, tmp_path, store):
        spec = make_spec(n_clients=5)
        ledger = Ledger()
        outcome = execute(
            make_record(spec), store, str(tmp_path), ledger, ControlScript(), []
        )
        assert len(ledger.rows) == outcome.fl_trainings > 0
        assert ledger.duplicates() == 0


class TestPreemption:
    @pytest.mark.parametrize("backend", [None, "vectorized"])
    def test_preempted_then_resumed_is_bitwise_identical(
        self, tmp_path, store, backend
    ):
        spec = make_spec(n_clients=5, backend=backend)
        record = make_record(spec)
        ledger = Ledger()
        events = []

        first = execute(
            record, store, str(tmp_path), ledger, ControlScript(preempt_at=3), events
        )
        assert first.status == "preempted"
        assert events[-1]["event"] == "preempted"
        # The interrupted chunk is on disk before JobPreempted propagates.
        assert os.path.exists(checkpoint_path(str(tmp_path), record.job_id))

        resumed_events = []
        second = execute(
            record, store, str(tmp_path), ledger, ControlScript(), resumed_events
        )
        assert second.status == "done"
        # The resumed attempt continued, not restarted: its first snapshot
        # picks up after the checkpointed chunk.
        snapshots = [e for e in resumed_events if e["event"] == "snapshot"]
        assert snapshots[0]["chunk"] > 1
        assert second.result["result"]["values"] == direct_values(
            spec.task, spec.algorithm
        )
        assert ledger.duplicates() == 0

    def test_off_cadence_preemption_still_checkpoints_the_current_chunk(
        self, tmp_path, store
    ):
        # checkpoint_every=4 but preemption lands at chunk 3: the runner must
        # persist chunk 3 anyway, then resume from it bitwise-identically.
        spec = make_spec(n_clients=5, checkpoint_every=4)
        record = make_record(spec)
        first = execute(
            record, store, str(tmp_path), Ledger(), ControlScript(preempt_at=3), []
        )
        assert first.status == "preempted"
        second = execute(record, store, str(tmp_path), Ledger(), ControlScript(), [])
        assert second.result["result"]["values"] == direct_values(
            spec.task, spec.algorithm
        )

    def test_checkpointing_disabled_means_no_graceful_preemption(
        self, tmp_path, store
    ):
        spec = make_spec(n_clients=4, checkpoint_every=0)
        outcome = execute(
            make_record(spec),
            store,
            str(tmp_path),
            Ledger(),
            ControlScript(preempt_at=1),
            [],
        )
        # The preempt flag is ignored (nothing to resume from); the job runs
        # to completion instead of losing its progress.
        assert outcome.status == "done"


class TestCancellation:
    def test_cancel_mid_run_discards_the_checkpoint(self, tmp_path, store):
        spec = make_spec(n_clients=5)
        events = []
        outcome = execute(
            make_record(spec),
            store,
            str(tmp_path),
            Ledger(),
            ControlScript(cancel_at=2),
            events,
        )
        assert outcome.status == "cancelled"
        assert events[-1]["event"] == "cancelled"
        assert not os.path.exists(checkpoint_path(str(tmp_path), "job-000001"))
        assert not os.path.exists(result_path(str(tmp_path), "job-000001"))

    def test_cancel_wins_over_a_simultaneous_preempt(self, tmp_path, store):
        spec = make_spec(n_clients=5)
        outcome = execute(
            make_record(spec),
            store,
            str(tmp_path),
            Ledger(),
            ControlScript(cancel_at=2, preempt_at=2),
            [],
        )
        assert outcome.status == "cancelled"


class TestWarmStore:
    def test_second_identical_job_rides_the_store_for_free(self, tmp_path, store):
        spec = make_spec(n_clients=5)
        ledger = Ledger()
        cold = execute(
            make_record(spec, "job-000001"),
            store,
            str(tmp_path),
            ledger,
            ControlScript(),
            [],
        )
        warm = execute(
            make_record(spec, "job-000002"),
            store,
            str(tmp_path),
            ledger,
            ControlScript(),
            [],
        )
        assert cold.fl_trainings > 0
        assert warm.fl_trainings == 0
        assert warm.store_hits > 0
        assert warm.result["result"]["values"] == cold.result["result"]["values"]
        assert ledger.duplicates() == 0

    def test_real_jobstore_ledger_confirms_the_invariant(self, tmp_path, store):
        spec = make_spec(n_clients=4)
        with JobStore(str(tmp_path)) as jobs:
            for job_id in ("job-000001", "job-000002"):
                run_job(
                    make_record(spec, job_id),
                    store,
                    str(tmp_path),
                    jobs.record_training,
                    ControlScript().flags,
                    list().append,
                    quiet,
                )
            total, distinct = jobs.training_counts()
            assert total == distinct > 0

    def test_preempted_warm_job_still_checkpoints(self, tmp_path, store):
        # A warm job trains nothing, so its cadence chunks are not written
        # against the durable store; a preempt writes its chunk regardless,
        # and the resumed attempt continues from it.
        spec = make_spec(n_clients=5)
        execute(
            make_record(spec, "job-000001"),
            store,
            str(tmp_path),
            Ledger(),
            ControlScript(),
            [],
        )
        record = make_record(spec, "job-000002")
        first = execute(
            record, store, str(tmp_path), Ledger(), ControlScript(preempt_at=3), []
        )
        assert first.status == "preempted"
        assert first.fl_trainings == 0
        with open(checkpoint_path(str(tmp_path), record.job_id)) as handle:
            assert json.load(handle)["chunk_index"] == 3

        resumed_events = []
        second = execute(
            record, store, str(tmp_path), Ledger(), ControlScript(), resumed_events
        )
        snapshots = [e for e in resumed_events if e["event"] == "snapshot"]
        assert snapshots[0]["chunk"] == 4
        assert second.fl_trainings == 0
        assert second.result["result"]["values"] == direct_values(
            spec.task, spec.algorithm
        )
