"""ValuationService end-to-end: the ISSUE's four invariants, in-process.

* a preempted-and-resumed job is bitwise-identical to an uninterrupted run;
* a cancelled job releases its queue slot;
* two tenants with identical tasks never share store entries;
* concurrent submits never duplicate trainings (the ledger invariant).

Timing-sensitive scenarios use the n=8 synthetic task (~2.5s of chunks),
which leaves a wide window to preempt/cancel/stop mid-run.
"""

import contextlib
import json
import os
import sqlite3

import pytest

from repro.experiments.pipeline import ALGORITHM_BUILDERS
from repro.service.jobs import JOBS_FILENAME, JobStore
from repro.service.models import JobSpec
from repro.service.runner import checkpoint_path
from repro.service.scheduler import ValuationService
from repro.service.stream import read_events
from tests.service.helpers import direct_values, make_spec, wait_terminal, wait_until

SLOW = 8  # n_clients of the long-running job (≈2.5s, 18 chunks)
QUICK = 5  # n_clients of the fast jobs (≈0.2s)


def start_service(tmp_path, workers=1):
    return ValuationService(str(tmp_path / "state"), workers=workers).start()


def wait_running(service, job_id, min_chunks=1):
    """Block until the job is running and has streamed *min_chunks* snapshots
    (i.e. it is genuinely mid-valuation, not just claimed)."""

    def mid_run():
        record = service.get(job_id)
        if record is None or record.status != "running":
            return False
        snapshots = [
            e
            for e in read_events(service.event_log_path(job_id))
            if e["event"] == "snapshot"
        ]
        return len(snapshots) >= min_chunks

    wait_until(mid_run, timeout=30.0, message=f"{job_id} to be mid-run")


class TestHappyPath:
    def test_submitted_job_completes_bitwise_identical_to_direct_run(self, tmp_path):
        service = start_service(tmp_path)
        try:
            spec = make_spec(n_clients=QUICK)
            record = service.submit(spec)
            final = wait_terminal(service, record.job_id)
            assert final.status == "done"
            assert final.result["result"]["values"] == direct_values(
                spec.task, spec.algorithm
            )
            assert final.fl_trainings > 0
            assert service.jobs.training_counts()[0] == final.fl_trainings
            events = read_events(service.event_log_path(record.job_id))
            assert [e["event"] for e in events][0] == "queued"
            assert events[-1]["event"] == "result"
        finally:
            service.stop()

    def test_submit_rejects_the_fleet_backend(self, tmp_path):
        service = start_service(tmp_path)
        try:
            with pytest.raises(ValueError, match="the 'fleet' backend was removed"):
                service.submit(make_spec(n_clients=4, backend="fleet"))
            assert service.list_jobs() == []
        finally:
            service.stop()

    def test_a_stored_fleet_job_runs_as_its_workers_did(self, tmp_path):
        """Older versions accepted fleet jobs; a queued row loads as its
        worker backend and finishes with the direct-run values."""
        spec = make_spec(n_clients=4)
        with JobStore(str(tmp_path / "state")) as jobs:
            job_id = jobs.submit(spec).job_id
        stored = {
            **spec.to_dict(),
            "backend": "fleet",
            "queue_dir": str(tmp_path / "queue"),
            "spawn_workers": 1,
            "worker_backend": "vectorized",
            "lease_seconds": 5.0,
        }
        with contextlib.closing(
            sqlite3.connect(str(tmp_path / "state" / JOBS_FILENAME))
        ) as connection, connection:
            connection.execute(
                "UPDATE jobs SET spec = ? WHERE job_id = ?",
                (json.dumps(stored), job_id),
            )
        service = start_service(tmp_path)
        try:
            assert service.get(job_id).spec.backend == "vectorized"
            final = wait_terminal(service, job_id)
            assert final.status == "done"
            assert final.result["result"]["values"] == direct_values(
                spec.task, spec.algorithm
            )
            assert not os.path.exists(tmp_path / "queue")
        finally:
            service.stop()

    def test_a_failing_job_fails_alone(self, tmp_path, monkeypatch):
        # A queued row that fails must neither stop the service from
        # starting nor take the next job down with it.
        def exploding_builder(n, gamma, seed):
            raise RuntimeError("simulated estimator failure")

        monkeypatch.setitem(ALGORITHM_BUILDERS, "IPSS", exploding_builder)
        bad = make_spec(n_clients=4, algorithm="IPSS")
        with JobStore(str(tmp_path / "state")) as jobs:
            stored = jobs.submit(bad)
        service = start_service(tmp_path)
        try:
            good = service.submit(make_spec(n_clients=4, seed=1))
            final_good = wait_terminal(service, good.job_id)
            final_bad = wait_terminal(service, stored.job_id, timeout=90.0)
            assert final_good.status == "done"
            assert final_bad.status == "failed"
            assert final_bad.error == "RuntimeError: simulated estimator failure"
            assert final_bad.fl_trainings == 0
        finally:
            service.stop()


class TestPreemption:
    def test_priority_submit_preempts_and_both_finish_bitwise_identical(
        self, tmp_path
    ):
        service = start_service(tmp_path, workers=1)
        try:
            slow_spec = make_spec(n_clients=SLOW)
            slow = service.submit(slow_spec)
            wait_running(service, slow.job_id)

            urgent_spec = make_spec(n_clients=QUICK, seed=1, priority=10)
            urgent = service.submit(urgent_spec)

            final_urgent = wait_terminal(service, urgent.job_id)
            final_slow = wait_terminal(service, slow.job_id, timeout=90.0)

            assert final_urgent.status == "done"
            assert final_slow.status == "done"
            assert final_slow.preemptions >= 1
            assert final_slow.attempts >= 2
            # The urgent job ran while the slow one waited: it finished first.
            assert final_urgent.finished_at <= final_slow.finished_at
            # Bitwise identity across the preemption.
            assert final_slow.result["result"]["values"] == direct_values(
                slow_spec.task, slow_spec.algorithm
            )
            assert final_urgent.result["result"]["values"] == direct_values(
                urgent_spec.task, urgent_spec.algorithm
            )
            total, distinct = service.jobs.training_counts()
            assert total == distinct
        finally:
            service.stop()

    def test_equal_priority_never_preempts(self, tmp_path):
        service = start_service(tmp_path, workers=1)
        try:
            slow = service.submit(make_spec(n_clients=SLOW))
            wait_running(service, slow.job_id)
            service.submit(make_spec(n_clients=QUICK, seed=1))
            final_slow = wait_terminal(service, slow.job_id, timeout=90.0)
            assert final_slow.preemptions == 0
            assert final_slow.attempts == 1
        finally:
            service.stop()


class TestCancellation:
    def test_cancelled_queued_job_releases_its_slot(self, tmp_path):
        service = start_service(tmp_path, workers=1)
        try:
            slow = service.submit(make_spec(n_clients=SLOW))
            wait_running(service, slow.job_id)
            victim = service.submit(make_spec(n_clients=QUICK, seed=1))
            survivor = service.submit(make_spec(n_clients=QUICK, seed=2))
            assert service.cancel(victim.job_id) == "cancelled"
            # The job behind the cancelled one still gets the worker.
            final_survivor = wait_terminal(service, survivor.job_id, timeout=90.0)
            assert final_survivor.status == "done"
            final_victim = service.get(victim.job_id)
            assert final_victim.status == "cancelled"
            assert final_victim.attempts == 0
        finally:
            service.stop()

    def test_cancelling_a_running_job_takes_effect_at_the_next_chunk(self, tmp_path):
        service = start_service(tmp_path, workers=1)
        try:
            slow = service.submit(make_spec(n_clients=SLOW))
            wait_running(service, slow.job_id)
            assert service.cancel(slow.job_id) == "cancelling"
            final = wait_terminal(service, slow.job_id)
            assert final.status == "cancelled"
            # A cancelled job keeps no checkpoint around.
            assert not os.path.exists(
                checkpoint_path(service.state_dir, slow.job_id)
            )
        finally:
            service.stop()


class TestTenancy:
    def test_two_tenants_same_task_never_share_store_entries(self, tmp_path):
        service = start_service(tmp_path, workers=2)
        try:
            spec = make_spec(n_clients=QUICK)
            alice = service.submit(JobSpec.from_dict({**spec.to_dict(), "tenant": "alice"}))
            bob = service.submit(JobSpec.from_dict({**spec.to_dict(), "tenant": "bob"}))
            final_alice = wait_terminal(service, alice.job_id)
            final_bob = wait_terminal(service, bob.job_id)
            assert final_alice.namespace != final_bob.namespace
            # No sharing: each tenant paid for every training itself.
            assert final_alice.fl_trainings == final_bob.fl_trainings > 0
            assert final_alice.store_hits == final_bob.store_hits == 0
            # And the ledger stays duplicate-free: the keys are namespaced.
            total, distinct = service.jobs.training_counts()
            assert total == distinct == final_alice.fl_trainings * 2
            # Same task, same seed: the values agree even though the store
            # entries do not.
            assert (
                final_alice.result["result"]["values"]
                == final_bob.result["result"]["values"]
            )
        finally:
            service.stop()

    def test_concurrent_identical_submits_never_duplicate_trainings(self, tmp_path):
        service = start_service(tmp_path, workers=2)
        try:
            spec = make_spec(n_clients=QUICK)
            first = service.submit(spec)
            second = service.submit(spec)
            final_first = wait_terminal(service, first.job_id)
            final_second = wait_terminal(service, second.job_id)
            assert final_first.status == final_second.status == "done"
            # Store affinity serialised them: the duplicate became a warm
            # re-run that paid for nothing.
            assert final_first.fl_trainings > 0
            assert final_second.fl_trainings == 0
            assert final_second.store_hits > 0
            total, distinct = service.jobs.training_counts()
            assert total == distinct == final_first.fl_trainings
            assert (
                final_first.result["result"]["values"]
                == final_second.result["result"]["values"]
            )
        finally:
            service.stop()


class TestRestart:
    def test_graceful_stop_checkpoints_and_a_restart_finishes_identically(
        self, tmp_path
    ):
        spec = make_spec(n_clients=SLOW)
        service = start_service(tmp_path, workers=1)
        try:
            record = service.submit(spec)
            wait_running(service, record.job_id, min_chunks=2)
        finally:
            service.stop()  # graceful: checkpoint + requeue

        parked = JobStore(str(tmp_path / "state"))
        try:
            row = parked.get(record.job_id)
            assert row.status == "queued"
            assert row.preemptions >= 1
        finally:
            parked.close()
        assert os.path.exists(
            checkpoint_path(str(tmp_path / "state"), record.job_id)
        )

        restarted = start_service(tmp_path, workers=1)
        try:
            final = wait_terminal(restarted, record.job_id, timeout=90.0)
            assert final.status == "done"
            assert final.result["result"]["values"] == direct_values(
                spec.task, spec.algorithm
            )
            total, distinct = restarted.jobs.training_counts()
            assert total == distinct
        finally:
            restarted.stop()

    def test_crash_recovery_requeues_and_finishes_identically(self, tmp_path):
        # Simulate a SIGKILL'd server: a row left in 'running' with no
        # process behind it (the smoke script does this with a real kill -9).
        spec = make_spec(n_clients=QUICK)
        state_dir = str(tmp_path / "state")
        with JobStore(state_dir) as orphaned:
            record = orphaned.submit(spec)
            orphaned.claim("dead-worker")

        service = ValuationService(state_dir, workers=1).start()
        try:
            assert service.recovered_jobs == [record.job_id]
            final = wait_terminal(service, record.job_id)
            assert final.status == "done"
            assert final.attempts == 2  # the dead claim plus the real one
            assert final.result["result"]["values"] == direct_values(
                spec.task, spec.algorithm
            )
            events = read_events(service.event_log_path(record.job_id))
            assert any(e["event"] == "recovered" for e in events)
        finally:
            service.stop()


class TestStorePath:
    def test_directory_store_path_fails_with_the_upgrade_path(self, tmp_path):
        """A directory store (the retired JSONL format) is named, not
        reported as SQLite's "unable to open database file"."""
        (tmp_path / "store-dir").mkdir()
        with pytest.raises(ValueError, match="JSONL stores are no longer read"):
            ValuationService(
                str(tmp_path / "state"), store_path=str(tmp_path / "store-dir")
            )
        assert not os.path.exists(tmp_path / "state" / "jobs.sqlite")


class TestObservability:
    def test_metrics_text_reports_lifecycle_counters(self, tmp_path):
        service = start_service(tmp_path)
        try:
            record = service.submit(make_spec(n_clients=4))
            wait_terminal(service, record.job_id)
            text = service.metrics_text()
            assert "repro_service_jobs_submitted 1" in text
            assert "repro_service_jobs_completed 1" in text
            assert "# TYPE repro_service_first_snapshot_seconds histogram" in text
            assert "repro_service_queue_depth 0" in text
        finally:
            service.stop()

    def test_event_log_is_valid_jsonl_with_sorted_keys(self, tmp_path):
        service = start_service(tmp_path)
        try:
            record = service.submit(make_spec(n_clients=4))
            wait_terminal(service, record.job_id)
            path = service.event_log_path(record.job_id)
            with open(path, "r", encoding="utf-8") as handle:
                for line in handle:
                    payload = json.loads(line)
                    assert line == json.dumps(payload, sort_keys=True) + "\n"
        finally:
            service.stop()
