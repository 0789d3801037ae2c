"""The lease queue's protocol: claim, renew, complete, expiry, contention."""

import json
import sqlite3
import subprocess
import sys
import threading

import pytest

from repro.fleet.queue import (
    DEFAULT_MAX_ATTEMPTS,
    LeaseQueue,
    QUEUE_FILENAME,
    WorkPayload,
)


def make_payload(namespace="ns"):
    return WorkPayload(
        evaluator=len,  # picklable stand-in; queue tests never evaluate
        store_path="/tmp/store.sqlite",
        namespace=namespace,
    )


@pytest.fixture
def queue(tmp_path):
    with LeaseQueue(str(tmp_path / "q")) as q:
        yield q


COALITIONS = [frozenset({0}), frozenset({0, 1}), frozenset()]


class TestRuns:
    def test_register_and_fetch_payload_roundtrip(self, queue):
        queue.register_run("r1", make_payload("abc"))
        payload = queue.run_payload("r1")
        assert payload.namespace == "abc"
        assert payload.store_path == "/tmp/store.sqlite"
        assert queue.active_runs() == ["r1"]

    def test_finish_run_removes_from_active(self, queue):
        queue.register_run("r1", make_payload())
        queue.finish_run("r1")
        assert queue.active_runs() == []

    def test_unknown_run_raises(self, queue):
        with pytest.raises(KeyError):
            queue.run_payload("nope")

    def test_unpicklable_payload_rejected(self, queue):
        payload = WorkPayload(
            evaluator=lambda c: 0.0,
            store_path="s",
            namespace="n",
        )
        with pytest.raises(ValueError, match="RPR004"):
            queue.register_run("r1", payload)


class TestClaimLifecycle:
    def test_enqueue_then_claim_returns_coalitions_in_order(self, queue):
        queue.register_run("r1", make_payload())
        ids = queue.enqueue("r1", [COALITIONS, COALITIONS[:1]])
        assert len(ids) == 2
        assert len(set(ids)) == 2

        claim = queue.claim("w1", lease_seconds=30)
        assert claim.batch_id == ids[0]
        assert claim.run_id == "r1"
        assert claim.coalitions == tuple(COALITIONS)
        assert claim.attempts == 1

    def test_claimed_batch_is_invisible_to_others(self, queue):
        queue.register_run("r1", make_payload())
        queue.enqueue("r1", [COALITIONS])
        assert queue.claim("w1", 30) is not None
        assert queue.claim("w2", 30) is None

    def test_complete_retires_batch(self, queue):
        queue.register_run("r1", make_payload())
        (batch_id,) = queue.enqueue("r1", [COALITIONS])
        claim = queue.claim("w1", 30)
        assert queue.complete(claim.batch_id, "w1") is True
        assert queue.statuses([batch_id])[batch_id][0] == "done"
        assert queue.counts("r1").outstanding == 0

    def test_complete_by_non_owner_is_refused(self, queue):
        queue.register_run("r1", make_payload())
        queue.enqueue("r1", [COALITIONS])
        claim = queue.claim("w1", 30)
        assert queue.complete(claim.batch_id, "w2") is False

    def test_release_returns_batch_to_pending_with_error(self, queue):
        queue.register_run("r1", make_payload())
        (batch_id,) = queue.enqueue("r1", [COALITIONS])
        claim = queue.claim("w1", 30)
        assert queue.release(claim.batch_id, "w1", error="boom") is True
        status, attempts, last_error = queue.statuses([batch_id])[batch_id]
        assert status == "pending"
        assert attempts == 1
        assert last_error == "boom"
        # The batch is deliverable again — attempts keep counting up.
        again = queue.claim("w2", 30)
        assert again.batch_id == batch_id
        assert again.attempts == 2

    def test_renew_extends_only_owned_leases(self, queue):
        queue.register_run("r1", make_payload())
        queue.enqueue("r1", [COALITIONS])
        claim = queue.claim("w1", 30)
        assert queue.renew(claim.batch_id, "w1", 60) is True
        assert queue.renew(claim.batch_id, "w2", 60) is False
        assert queue.renew("r1:999", "w1", 60) is False


class TestLeaseExpiry:
    def test_expired_lease_is_requeued_and_reclaim_increments_attempts(self, queue):
        queue.register_run("r1", make_payload())
        (batch_id,) = queue.enqueue("r1", [COALITIONS])
        queue.claim("w1", lease_seconds=-1)  # already expired
        requeued, failed = queue.requeue_expired()
        assert (requeued, failed) == (1, 0)
        claim = queue.claim("w2", 30)
        assert claim.batch_id == batch_id
        assert claim.attempts == 2

    def test_claim_requeues_expired_without_explicit_sweep(self, queue):
        queue.register_run("r1", make_payload())
        (batch_id,) = queue.enqueue("r1", [COALITIONS])
        queue.claim("w1", lease_seconds=-1)
        # No requeue_expired() call: the next claim folds the sweep in.
        claim = queue.claim("w2", 30)
        assert claim is not None and claim.batch_id == batch_id

    def test_late_complete_after_expiry_is_ignored(self, queue):
        queue.register_run("r1", make_payload())
        (batch_id,) = queue.enqueue("r1", [COALITIONS])
        stale = queue.claim("w1", lease_seconds=-1)
        fresh = queue.claim("w2", 30)
        assert fresh.batch_id == stale.batch_id
        assert queue.complete(stale.batch_id, "w1") is False
        assert queue.complete(fresh.batch_id, "w2") is True

    def test_exhausted_attempts_mark_batch_failed(self, tmp_path):
        with LeaseQueue(str(tmp_path / "q"), max_attempts=2) as queue:
            queue.register_run("r1", make_payload())
            (batch_id,) = queue.enqueue("r1", [COALITIONS])
            queue.claim("w1", lease_seconds=-1)
            queue.requeue_expired()
            queue.claim("w1", lease_seconds=-1)
            requeued, failed = queue.requeue_expired()
            assert (requeued, failed) == (0, 1)
            status, attempts, last_error = queue.statuses([batch_id])[batch_id]
            assert status == "failed"
            assert attempts == 2
            assert "lease expired" in last_error
            assert queue.claim("w1", 30) is None


class TestLedgerAndWorkers:
    def test_training_counts_flag_duplicates(self, queue):
        queue.record_training("k1", "w1", "b1")
        queue.record_training("k2", "w1", "b1")
        assert queue.training_counts() == (2, 2)
        queue.record_training("k1", "w2", "b2")  # a duplicated training
        assert queue.training_counts() == (3, 2)

    def test_worker_heartbeats(self, queue):
        queue.register_worker("w1", pid=123)
        queue.touch_worker("w1", batches_done=2)
        queue.touch_worker("w1", batches_done=1)
        (worker,) = queue.workers()
        assert worker["worker_id"] == "w1"
        assert worker["pid"] == 123
        assert worker["batches_done"] == 3
        assert worker["last_seen"] >= worker["started_at"]

    def test_register_worker_twice_keeps_batches_done(self, queue):
        queue.register_worker("w1")
        queue.touch_worker("w1", batches_done=4)
        queue.register_worker("w1")  # a restarted worker re-registers
        assert queue.workers()[0]["batches_done"] == 4

    def test_depth_counts_outstanding(self, queue):
        queue.register_run("r1", make_payload())
        queue.enqueue("r1", [COALITIONS, COALITIONS])
        assert queue.depth() == 2
        claim = queue.claim("w1", 30)
        assert queue.depth() == 2  # leased still outstanding
        queue.complete(claim.batch_id, "w1")
        assert queue.depth() == 1

    def test_default_max_attempts(self, queue):
        assert queue.max_attempts == DEFAULT_MAX_ATTEMPTS


def _claim_worker(queue_dir, worker_id, results):
    with LeaseQueue(queue_dir) as queue:
        claimed = []
        while True:
            claim = queue.claim(worker_id, 30)
            if claim is None:
                break
            claimed.append(claim.batch_id)
            queue.complete(claim.batch_id, worker_id)
        results[worker_id] = claimed


class TestContention:
    def test_concurrent_threads_never_double_deliver(self, tmp_path):
        queue_dir = str(tmp_path / "q")
        with LeaseQueue(queue_dir) as queue:
            queue.register_run("r1", make_payload())
            expected = queue.enqueue("r1", [COALITIONS] * 40)
        results = {}
        threads = [
            threading.Thread(target=_claim_worker, args=(queue_dir, f"w{i}", results))
            for i in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        claimed = [bid for ids in results.values() for bid in ids]
        assert sorted(claimed) == sorted(expected)
        assert len(set(claimed)) == len(expected)

    def test_concurrent_processes_never_double_deliver(self, tmp_path):
        queue_dir = str(tmp_path / "q")
        with LeaseQueue(queue_dir) as queue:
            queue.register_run("r1", make_payload())
            expected = queue.enqueue("r1", [COALITIONS] * 30)
        script = (
            "import json, sys\n"
            "from repro.fleet.queue import LeaseQueue\n"
            "queue_dir, worker_id = sys.argv[1], sys.argv[2]\n"
            "claimed = []\n"
            "with LeaseQueue(queue_dir) as queue:\n"
            "    while True:\n"
            "        claim = queue.claim(worker_id, 30)\n"
            "        if claim is None:\n"
            "            break\n"
            "        claimed.append(claim.batch_id)\n"
            "        queue.complete(claim.batch_id, worker_id)\n"
            "print(json.dumps(claimed))\n"
        )
        processes = [
            subprocess.Popen(
                [sys.executable, "-c", script, queue_dir, f"w{i}"],
                stdout=subprocess.PIPE,
                text=True,
            )
            for i in range(3)
        ]
        claimed = []
        for process in processes:
            out, _ = process.communicate(timeout=120)
            assert process.returncode == 0
            claimed.extend(json.loads(out))
        assert sorted(claimed) == sorted(expected)
        assert len(set(claimed)) == len(expected)

    def test_queue_file_lives_under_queue_dir(self, tmp_path, queue):
        assert queue.path.endswith(QUEUE_FILENAME)
        with LeaseQueue(queue.queue_dir) as second:
            second.register_run("r2", make_payload())
        assert "r2" in queue.active_runs()


class TestBusyTolerance:
    def test_claim_survives_a_long_writer_transaction(self, tmp_path):
        queue_dir = str(tmp_path / "q")
        with LeaseQueue(queue_dir) as queue:
            queue.register_run("r1", make_payload())
            queue.enqueue("r1", [COALITIONS])

            blocker = sqlite3.connect(
                queue.path, timeout=1, isolation_level=None, check_same_thread=False
            )
            blocker.execute("BEGIN IMMEDIATE")

            def release_soon():
                blocker.execute("COMMIT")
                blocker.close()

            timer = threading.Timer(0.3, release_soon)
            timer.start()
            try:
                claim = queue.claim("w1", 30)  # blocks, then succeeds
            finally:
                timer.join()
            assert claim is not None
