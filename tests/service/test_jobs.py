"""JobStore protocol: claim ordering, cancel, recovery, the trainings ledger,
and claims racing across threads and processes."""

import os
import sqlite3
import subprocess
import sys
import threading
import time

import pytest

import repro
from repro.service.jobs import JOBS_FILENAME, JobStore
from tests.service.helpers import make_spec


@pytest.fixture
def jobs(tmp_path):
    with JobStore(str(tmp_path)) as store:
        yield store


class TestSubmit:
    def test_ids_derive_from_the_row_sequence(self, jobs):
        first = jobs.submit(make_spec(seed=0))
        second = jobs.submit(make_spec(seed=1))
        assert first.job_id == "job-000001"
        assert second.job_id == "job-000002"
        assert jobs.get(first.job_id).status == "queued"

    def test_counts_group_by_status(self, jobs):
        jobs.submit(make_spec(seed=0))
        jobs.submit(make_spec(seed=1))
        assert jobs.counts() == {"queued": 2}

    def test_list_filters_by_tenant_and_status(self, jobs):
        jobs.submit(make_spec(seed=0, tenant="alice"))
        jobs.submit(make_spec(seed=1, tenant="bob"))
        assert [r.spec.tenant for r in jobs.list_jobs(tenant="alice")] == ["alice"]
        assert len(jobs.list_jobs(status="queued")) == 2
        assert jobs.list_jobs(status="done") == []


class TestClaimOrdering:
    def test_fifo_within_equal_priority(self, jobs):
        first = jobs.submit(make_spec(seed=0))
        jobs.submit(make_spec(seed=1))
        record, wait = jobs.claim("w0")
        assert record.job_id == first.job_id
        assert record.status == "running"
        assert record.attempts == 1
        assert wait >= 0.0

    def test_priority_beats_submission_order(self, jobs):
        jobs.submit(make_spec(seed=0, priority=0))
        urgent = jobs.submit(make_spec(seed=1, priority=5))
        record, _ = jobs.claim("w0")
        assert record.job_id == urgent.job_id

    def test_tenant_fairness_among_equal_priorities(self, jobs):
        # alice already has a running job; her next job queued first, but
        # bob (zero running) must win the tie.
        jobs.submit(make_spec(seed=0, tenant="alice"))
        jobs.claim("w0")
        jobs.submit(make_spec(seed=1, tenant="alice"))
        bobs = jobs.submit(make_spec(seed=2, tenant="bob"))
        record, _ = jobs.claim("w1")
        assert record.job_id == bobs.job_id

    def test_store_affinity_skips_a_running_namespace(self, jobs):
        # Two identical submits: while the first runs, the duplicate must
        # stay queued (claiming it would train the same coalitions twice).
        jobs.submit(make_spec(seed=0))
        duplicate = jobs.submit(make_spec(seed=0))
        other = jobs.submit(make_spec(seed=1))
        running, _ = jobs.claim("w0")
        next_record, _ = jobs.claim("w1")
        assert next_record.job_id == other.job_id
        assert jobs.claim("w2") is None
        assert jobs.get(duplicate.job_id).status == "queued"
        # Once the first finishes, the duplicate becomes claimable.
        jobs.finish(running.job_id, "w0", {"ok": True})
        record, _ = jobs.claim("w2")
        assert record.job_id == duplicate.job_id

    def test_claim_returns_none_on_an_empty_queue(self, jobs):
        assert jobs.claim("w0") is None


class TestTransitions:
    def test_finish_records_result_and_accounting(self, jobs):
        submitted = jobs.submit(make_spec(seed=0))
        jobs.claim("w0")
        assert jobs.finish(submitted.job_id, "w0", {"values": [1.0]}, fl_trainings=3, store_hits=2)
        record = jobs.get(submitted.job_id)
        assert record.status == "done"
        assert record.result == {"values": [1.0]}
        assert record.fl_trainings == 3
        assert record.store_hits == 2

    def test_finish_by_the_wrong_worker_is_a_noop(self, jobs):
        submitted = jobs.submit(make_spec(seed=0))
        jobs.claim("w0")
        assert not jobs.finish(submitted.job_id, "w1", {})
        assert jobs.get(submitted.job_id).status == "running"

    def test_fail_records_the_error(self, jobs):
        submitted = jobs.submit(make_spec(seed=0))
        jobs.claim("w0")
        assert jobs.fail(submitted.job_id, "w0", "ZeroDivisionError: boom")
        record = jobs.get(submitted.job_id)
        assert record.status == "failed"
        assert "boom" in record.error

    def test_requeue_counts_the_preemption_and_accumulates_cost(self, jobs):
        submitted = jobs.submit(make_spec(seed=0))
        jobs.claim("w0")
        assert jobs.requeue(submitted.job_id, "w0", preempted=True, fl_trainings=7)
        record = jobs.get(submitted.job_id)
        assert record.status == "queued"
        assert record.preemptions == 1
        assert record.fl_trainings == 7
        assert record.worker is None
        # The next attempt increments the counter again.
        record, _ = jobs.claim("w1")
        assert record.attempts == 2


class TestCancel:
    def test_cancel_queued_frees_the_slot_immediately(self, jobs):
        victim = jobs.submit(make_spec(seed=0))
        survivor = jobs.submit(make_spec(seed=1))
        assert jobs.cancel(victim.job_id) == "cancelled"
        record, _ = jobs.claim("w0")
        assert record.job_id == survivor.job_id
        assert jobs.get(victim.job_id).status == "cancelled"

    def test_cancel_running_sets_the_flag_for_the_runner(self, jobs):
        submitted = jobs.submit(make_spec(seed=0))
        jobs.claim("w0")
        assert jobs.cancel(submitted.job_id) == "cancelling"
        assert jobs.control_flags(submitted.job_id) == (True, False)
        assert jobs.get(submitted.job_id).status == "running"
        assert jobs.mark_cancelled(submitted.job_id, "w0")
        assert jobs.get(submitted.job_id).status == "cancelled"

    def test_cancel_terminal_and_unknown_jobs(self, jobs):
        submitted = jobs.submit(make_spec(seed=0))
        jobs.claim("w0")
        jobs.finish(submitted.job_id, "w0", {})
        assert jobs.cancel(submitted.job_id) == "done"
        assert jobs.cancel("job-999999") is None


class TestPreemptFlag:
    def test_request_preempt_only_hits_running_jobs(self, jobs):
        queued = jobs.submit(make_spec(seed=0))
        assert not jobs.request_preempt(queued.job_id)
        jobs.claim("w0")
        assert jobs.request_preempt(queued.job_id)
        assert jobs.control_flags(queued.job_id) == (False, True)

    def test_a_fresh_claim_clears_the_preempt_flag(self, jobs):
        submitted = jobs.submit(make_spec(seed=0))
        jobs.claim("w0")
        jobs.request_preempt(submitted.job_id)
        jobs.requeue(submitted.job_id, "w0", preempted=True)
        jobs.claim("w1")
        assert jobs.control_flags(submitted.job_id) == (False, False)


class TestRecovery:
    def test_recover_requeues_what_a_dead_server_left_running(self, jobs):
        submitted = jobs.submit(make_spec(seed=0))
        jobs.claim("w0")
        requeued = jobs.recover()
        assert requeued == [submitted.job_id]
        record = jobs.get(submitted.job_id)
        assert record.status == "queued"
        assert record.worker is None

    def test_recover_honours_a_pending_cancel_instead_of_requeueing(self, jobs):
        submitted = jobs.submit(make_spec(seed=0))
        jobs.claim("w0")
        jobs.cancel(submitted.job_id)
        assert jobs.recover() == []
        assert jobs.get(submitted.job_id).status == "cancelled"

    def test_recover_survives_a_literal_reopen(self, tmp_path):
        with JobStore(str(tmp_path)) as first:
            submitted = first.submit(make_spec(seed=0))
            first.claim("w0")
        # A second handle on the same file sees the orphaned running row.
        with JobStore(str(tmp_path)) as second:
            assert second.recover() == [submitted.job_id]


class TestTrainingsLedger:
    def test_distinct_keys_keep_the_invariant(self, jobs):
        jobs.record_training("ns1:c1", "job-000001")
        jobs.record_training("ns1:c2", "job-000001")
        assert jobs.training_counts() == (2, 2)

    def test_duplicated_trainings_are_visible_not_papered_over(self, jobs):
        jobs.record_training("ns1:c1", "job-000001")
        jobs.record_training("ns1:c1", "job-000002")
        total, distinct = jobs.training_counts()
        assert (total, distinct) == (2, 1)
        assert total != distinct


def claim_all(jobs, worker):
    """Claim until the queue is empty; the ids claimed, in order."""
    claimed = []
    while True:
        claim = jobs.claim(worker)
        if claim is None:
            return claimed
        claimed.append(claim[0].job_id)


CLAIM_SCRIPT = """
import sys
from repro.service.jobs import JobStore

with JobStore(sys.argv[1]) as jobs:
    while True:
        claim = jobs.claim(sys.argv[2])
        if claim is None:
            break
        print(claim[0].job_id)
"""


class TestConcurrentClaims:
    """Every queued job goes to exactly one claimant, however they race."""

    N_JOBS = 12

    def submit_distinct(self, jobs):
        # Distinct seeds: distinct store namespaces, so affinity blocks none.
        return {jobs.submit(make_spec(seed=seed)).job_id for seed in range(self.N_JOBS)}

    @pytest.mark.parametrize("handles", ["shared", "own"])
    def test_threads_never_double_claim(self, handles, tmp_path):
        with JobStore(str(tmp_path)) as jobs:
            submitted = self.submit_distinct(jobs)
            results = {}

            def claimant(worker):
                if handles == "shared":
                    results[worker] = claim_all(jobs, worker)
                    return
                with JobStore(str(tmp_path)) as own:
                    results[worker] = claim_all(own, worker)

            threads = [
                threading.Thread(target=claimant, args=(f"w{index}",))
                for index in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            claimed = [job_id for ids in results.values() for job_id in ids]
            assert sorted(claimed) == sorted(submitted)
            for worker, ids in results.items():
                for job_id in ids:
                    assert jobs.get(job_id).worker == worker

    def test_processes_never_double_claim(self, tmp_path):
        with JobStore(str(tmp_path)) as jobs:
            submitted = self.submit_distinct(jobs)
        source_root = os.path.dirname(os.path.dirname(repro.__file__))
        existing = os.environ.get("PYTHONPATH")
        env = {
            **os.environ,
            "PYTHONPATH": source_root + (os.pathsep + existing if existing else ""),
        }
        processes = [
            subprocess.Popen(
                [sys.executable, "-c", CLAIM_SCRIPT, str(tmp_path), f"p{index}"],
                env=env,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            )
            for index in range(3)
        ]
        claimed = []
        for process in processes:
            out, err = process.communicate(timeout=120)
            assert process.returncode == 0, err
            claimed.extend(out.split())
        assert sorted(claimed) == sorted(submitted)
        with JobStore(str(tmp_path)) as jobs:
            assert jobs.counts() == {"running": self.N_JOBS}

    def test_a_claim_waits_out_another_connections_write_transaction(
        self, jobs, tmp_path
    ):
        submitted = jobs.submit(make_spec(seed=0))
        started = threading.Event()

        def hold_write_lock():
            connection = sqlite3.connect(
                str(tmp_path / JOBS_FILENAME), isolation_level=None
            )
            try:
                connection.execute("BEGIN IMMEDIATE")
                started.set()
                time.sleep(0.4)
                connection.execute("COMMIT")
            finally:
                connection.close()

        holder = threading.Thread(target=hold_write_lock)
        holder.start()
        assert started.wait(10)
        record, _ = jobs.claim("w0")
        holder.join()
        assert record.job_id == submitted.job_id
        assert jobs.get(submitted.job_id).status == "running"
