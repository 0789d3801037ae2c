"""The worker loop, in-process: claim → evaluate → deposit → ledger."""

import math

import pytest

from repro.fleet import ModeledCostEvaluator
from repro.fleet.queue import LeaseQueue, WorkPayload
from repro.fleet.worker import default_worker_id, run_worker
from repro.store import open_store, utility_key

N = 6
NAMESPACE = "worker-tests"


class ExplodingEvaluator:
    """Picklable evaluator that always fails (exercises release-on-error)."""

    n_clients = N

    def __call__(self, coalition):
        raise RuntimeError("training exploded")


@pytest.fixture
def rig(tmp_path):
    """(queue, store_path, evaluator) with one registered run."""
    queue_dir = str(tmp_path / "q")
    store_path = str(tmp_path / "store.sqlite")
    evaluator = ModeledCostEvaluator(n_clients=N, tau=0.0, seed=7)
    queue = LeaseQueue(queue_dir)
    queue.register_run(
        "r1",
        WorkPayload(
            evaluator=evaluator,
            store_path=store_path,
            namespace=NAMESPACE,
        ),
    )
    yield queue, store_path, evaluator
    queue.close()


def plan(k=N):
    return [frozenset(range(i + 1)) for i in range(k)]


class TestServeBatches:
    def test_worker_deposits_utilities_and_records_trainings(self, rig):
        queue, store_path, evaluator = rig
        coalitions = plan()
        queue.enqueue("r1", [coalitions[:3], coalitions[3:]])

        stats = run_worker(
            queue.queue_dir, poll_interval=0.01, max_batches=2, worker_id="w1"
        )
        assert stats.batches == 2
        assert stats.trainings == len(coalitions)
        assert stats.store_hits == 0
        assert stats.released == 0
        assert stats.runs_seen == 1

        with open_store(store_path) as store:
            for coalition in coalitions:
                value = store.get(utility_key(NAMESPACE, coalition))
                assert value == evaluator(coalition)  # bitwise round-trip
        assert queue.training_counts() == (len(coalitions), len(coalitions))
        assert queue.counts("r1").outstanding == 0

    def test_predeposited_coalitions_are_store_hits_not_trainings(self, rig):
        queue, store_path, evaluator = rig
        coalitions = plan()
        with open_store(store_path) as store:
            for coalition in coalitions[:2]:
                store.put(utility_key(NAMESPACE, coalition), evaluator(coalition))
        queue.enqueue("r1", [coalitions])

        stats = run_worker(
            queue.queue_dir, poll_interval=0.01, max_batches=1, worker_id="w1"
        )
        assert stats.store_hits == 2
        assert stats.trainings == len(coalitions) - 2
        total, distinct = queue.training_counts()
        assert total == distinct == len(coalitions) - 2

    def test_two_sequential_workers_never_duplicate_trainings(self, rig):
        queue, store_path, _ = rig
        coalitions = plan()
        queue.enqueue("r1", [coalitions])
        run_worker(queue.queue_dir, poll_interval=0.01, max_batches=1, worker_id="w1")
        # Same coalitions again: everything is already in the store.
        queue.enqueue("r1", [coalitions])
        stats = run_worker(
            queue.queue_dir, poll_interval=0.01, max_batches=1, worker_id="w2"
        )
        assert stats.trainings == 0
        assert stats.store_hits == len(coalitions)
        assert queue.training_counts() == (len(coalitions), len(coalitions))

    def test_payload_pickled_by_an_older_version_still_runs(self, tmp_path):
        """Older versions' payloads carry a ``store_backend`` field; they
        unpickle, and the worker opens the store from ``store_path``."""
        store_path = str(tmp_path / "store.sqlite")
        evaluator = ModeledCostEvaluator(n_clients=N, tau=0.0, seed=7)
        legacy = WorkPayload.__new__(WorkPayload)
        legacy.__dict__.update(
            evaluator=evaluator,
            store_path=store_path,
            store_backend="sqlite",
            namespace=NAMESPACE,
            journal_path=None,
            parent_span=None,
        )
        with LeaseQueue(str(tmp_path / "q")) as queue:
            queue.register_run("r1", legacy)
            assert queue.run_payload("r1").store_path == store_path
            coalitions = plan()
            queue.enqueue("r1", [coalitions])
            stats = run_worker(
                queue.queue_dir, poll_interval=0.01, max_batches=1, worker_id="w1"
            )
            assert (stats.batches, stats.trainings) == (1, len(coalitions))
        with open_store(store_path) as store:
            for coalition in coalitions:
                assert store.get(utility_key(NAMESPACE, coalition)) == evaluator(
                    coalition
                )


class TestFailureSemantics:
    def test_failed_evaluation_releases_the_batch(self, tmp_path):
        queue = LeaseQueue(str(tmp_path / "q"))
        queue.register_run(
            "r1",
            WorkPayload(
                evaluator=ExplodingEvaluator(),
                store_path=str(tmp_path / "store.sqlite"),
                namespace=NAMESPACE,
            ),
        )
        (batch_id,) = queue.enqueue("r1", [plan(2)])
        stats = run_worker(
            queue.queue_dir,
            poll_interval=0.01,
            max_batches=1,
            idle_timeout=0.2,
            worker_id="w1",
        )
        assert stats.batches == 0
        assert stats.released >= 1
        status, attempts, last_error = queue.statuses([batch_id])[batch_id]
        assert status in ("pending", "failed")
        assert "training exploded" in last_error
        assert queue.training_counts() == (0, 0)
        queue.close()

    def test_non_finite_utility_is_not_a_ledger_training(self, tmp_path):
        # NaN utilities are never persisted (store.put policy); the worker
        # still completes the batch and the coordinator falls back locally.
        queue = LeaseQueue(str(tmp_path / "q"))
        queue.register_run(
            "r1",
            WorkPayload(
                evaluator=NaNEvaluator(),
                store_path=str(tmp_path / "store.sqlite"),
                namespace=NAMESPACE,
            ),
        )
        (batch_id,) = queue.enqueue("r1", [plan(2)])
        stats = run_worker(
            queue.queue_dir, poll_interval=0.01, max_batches=1, worker_id="w1"
        )
        assert stats.batches == 1
        assert queue.statuses([batch_id])[batch_id][0] == "done"
        # Nothing reached the store, so nothing may enter the ledger.
        assert queue.training_counts() == (0, 0)
        queue.close()


class NaNEvaluator:
    n_clients = N

    def __call__(self, coalition):
        return math.nan


class TestTermination:
    def test_idle_timeout_exits_an_empty_queue(self, tmp_path):
        stats = run_worker(
            str(tmp_path / "q"),
            poll_interval=0.01,
            idle_timeout=0.1,
            worker_id="w1",
        )
        assert stats.batches == 0

    def test_stop_when_finished_exits_once_runs_finish(self, rig):
        queue, _, _ = rig
        coalitions = plan(3)
        queue.enqueue("r1", [coalitions])
        queue.finish_run("r1")
        stats = run_worker(
            queue.queue_dir,
            poll_interval=0.01,
            stop_when_finished=True,
            worker_id="w1",
        )
        # Outstanding work is drained before exiting.
        assert stats.batches == 1
        assert queue.counts("r1").outstanding == 0

    def test_worker_registers_heartbeat_row(self, rig):
        queue, _, _ = rig
        queue.enqueue("r1", [plan(2)])
        run_worker(queue.queue_dir, poll_interval=0.01, max_batches=1, worker_id="wx")
        workers = {w["worker_id"]: w for w in queue.workers()}
        assert workers["wx"]["batches_done"] == 1

    def test_default_worker_id_contains_pid(self):
        import os

        assert str(os.getpid()) in default_worker_id()
