"""Tests for the batched coalition-evaluation engine (repro.parallel)."""

import sys
import threading
import time

import numpy as np
import pytest

from repro.parallel import (
    BatchUtilityOracle,
    CoalitionExecutor,
    EXECUTOR_BACKENDS,
    SerialExecutor,
    VectorizedExecutor,
    coalition_batch_keys,
    make_executor,
)
from repro.store import MemoryUtilityStore, SqliteUtilityStore, utility_key
from repro.telemetry import Telemetry
from repro.utils import all_coalitions

from tests.helpers import monotone_game


class CountingGame:
    """Picklable counting evaluator: U(S) = |S| with a call log."""

    def __init__(self):
        self.calls = []

    def __call__(self, coalition):
        self.calls.append(frozenset(coalition))
        return float(len(coalition))


class TestCoalitionBatchKeys:
    def test_dedupes_preserving_first_appearance_order(self):
        keys = coalition_batch_keys([{1, 0}, {2}, [0, 1], (2,), frozenset()])
        assert keys == [frozenset({0, 1}), frozenset({2}), frozenset()]

    def test_empty(self):
        assert coalition_batch_keys([]) == []


class TestMakeExecutor:
    def test_default_is_serial(self):
        assert isinstance(make_executor(None), SerialExecutor)

    @pytest.mark.parametrize("name", EXECUTOR_BACKENDS)
    def test_named_backends(self, name):
        assert make_executor(name).name == name

    def test_instance_passthrough(self):
        executor = SerialExecutor()
        assert make_executor(executor) is executor

    def test_unknown_backend_raises(self):
        with pytest.raises(ValueError):
            make_executor("gpu")


class TestBatchUtilityOracle:
    def test_single_call_interface(self):
        oracle = BatchUtilityOracle(CountingGame(), n_clients=4)
        assert oracle({0, 1}) == 2.0
        assert oracle.utility({0, 1}) == 2.0  # cached
        assert oracle.evaluations == 1
        assert oracle.cache_hits == 1
        assert oracle.n_clients == 4

    def test_n_clients_inferred_from_evaluator(self):
        game = monotone_game(5)
        oracle = BatchUtilityOracle(game)
        assert oracle.n_clients == 5

    def test_n_clients_unknown_raises(self):
        oracle = BatchUtilityOracle(CountingGame())
        with pytest.raises(AttributeError):
            oracle.n_clients

    def test_batch_dedupes_and_preserves_order(self):
        game = CountingGame()
        oracle = BatchUtilityOracle(game, n_clients=4)
        results = oracle.evaluate_batch([{0}, {1, 2}, [0], frozenset()])
        assert list(results) == [frozenset({0}), frozenset({1, 2}), frozenset()]
        assert results[frozenset({1, 2})] == 2.0
        assert oracle.evaluations == 3  # duplicate {0} trained once

    def test_keys_are_canonical_and_store_keys_unchanged(self):
        # Members of any integer type key as Python ints, once per oracle,
        # and reach the store under the key `utility_key` spells.
        store = MemoryUtilityStore()
        oracle = BatchUtilityOracle(
            CountingGame(), n_clients=20, store=store, store_namespace="t"
        )
        first = oracle.evaluate_batch([frozenset({1, 2}), (np.int64(2), 1)])
        (key,) = first
        assert all(type(member) is int for member in key)
        wide = frozenset(np.arange(18))  # hashed token
        oracle.reset_cache()
        again = oracle.evaluate_batch([frozenset({np.int64(1), 2}), wide])
        assert next(iter(again)) is key  # the canonical key, not a rebuild
        assert oracle.utility(wide) == 18.0
        assert sorted(store._data) == sorted(
            [utility_key("t", [1, 2]), utility_key("t", range(18))]
        )

    def test_batch_uses_cache_across_calls(self):
        game = CountingGame()
        oracle = BatchUtilityOracle(game, n_clients=4)
        oracle.evaluate_batch([{0}, {1}])
        oracle.evaluate_batch([{0}, {2}])
        assert oracle.evaluations == 3
        assert oracle.cache_hits == 1

    def test_empty_batch(self):
        oracle = BatchUtilityOracle(CountingGame(), n_clients=2)
        assert oracle.evaluate_batch([]) == {}

    @pytest.mark.parametrize("executor", ["serial", "vectorized"])
    def test_backends_agree(self, executor):
        game = monotone_game(5, seed=3)
        oracle = BatchUtilityOracle(game, n_clients=5, executor=executor)
        batch = [{0}, {1, 2}, {0, 1, 2, 3, 4}, frozenset(), {4}]
        results = oracle.evaluate_batch(batch)
        for coalition in batch:
            key = frozenset(coalition)
            assert results[key] == game._table[key]

    def test_set_executor_switches_backend(self):
        oracle = BatchUtilityOracle(CountingGame(), n_clients=3)
        assert isinstance(oracle.executor, SerialExecutor)
        oracle.set_executor("vectorized")
        assert isinstance(oracle.executor, VectorizedExecutor)
        assert oracle.backend == "vectorized"
        oracle.set_executor(None)
        assert isinstance(oracle.executor, SerialExecutor)
        with pytest.raises(ValueError):
            oracle.set_executor("gpu")

        class RecordingExecutor(SerialExecutor):
            pass

        # A custom executor instance is kept verbatim.
        custom = RecordingExecutor()
        oracle.set_executor(custom)
        assert oracle.executor is custom
        assert oracle.evaluate_batch([{0, 1}]) == {frozenset({0, 1}): 2.0}

    def test_reset_cache(self):
        oracle = BatchUtilityOracle(CountingGame(), n_clients=3)
        oracle.evaluate_batch([{0}, {1}])
        oracle.reset_cache()
        assert oracle.evaluations == 0
        oracle.evaluate_batch([{0}])
        assert oracle.evaluations == 1

    def test_batch_warms_single_lookups(self):
        game = CountingGame()
        oracle = BatchUtilityOracle(game, n_clients=3)
        oracle.evaluate_batch([{0, 1}, {2}])
        assert oracle.evaluations == 2
        assert oracle({0, 1}) == 2.0
        assert oracle.evaluations == 2  # hit

    def test_membership_checks_memo_then_store_and_counts_nothing(self):
        store = MemoryUtilityStore()
        store.put(utility_key("t", [2]), 0.5)
        oracle = BatchUtilityOracle(
            CountingGame(), n_clients=3, store=store, store_namespace="t"
        )
        oracle.utility({0})
        assert {0} in oracle  # memo
        assert [2] in oracle  # store
        assert {1} not in oracle
        assert (oracle.cache_hits, oracle.store_hits, oracle.evaluations) == (0, 0, 1)
        assert store.stats.gets == 1  # only the utility() lookup read the store


def run_threads(threads, start=True, timeout=10):
    """Start (optionally) and join ``threads``, failing on any still alive."""
    if start:
        for thread in threads:
            thread.start()
    for thread in threads:
        thread.join(timeout)
    assert not any(thread.is_alive() for thread in threads)


class TestMemo:
    def test_first_lookup_is_a_miss(self):
        game = CountingGame()
        oracle = BatchUtilityOracle(game)
        assert oracle.utility({0, 1}) == 2.0
        assert len(game.calls) == 1
        assert oracle.evaluations == 1
        assert oracle.cache_hits == 0

    def test_second_lookup_is_a_hit(self):
        game = CountingGame()
        oracle = BatchUtilityOracle(game)
        oracle.utility({0, 1})
        oracle.utility([1, 0])  # same coalition, different container/order
        assert len(game.calls) == 1
        assert oracle.cache_hits == 1

    def test_call_and_utility_are_equivalent(self):
        game = CountingGame()
        oracle = BatchUtilityOracle(game)
        assert oracle({0}) == oracle.utility({0})

    def test_evaluations_counts_distinct_coalitions(self):
        game = CountingGame()
        oracle = BatchUtilityOracle(game)
        for coalition in [{0}, {1}, {0, 1}, {0}, {1}]:
            oracle.utility(coalition)
        assert oracle.evaluations == 3
        assert oracle.cache_hits == 2

    def test_empty_coalition_is_cacheable(self):
        game = CountingGame()
        oracle = BatchUtilityOracle(game)
        oracle.utility(frozenset())
        oracle.utility(set())
        assert len(game.calls) == 1

    def test_reset_cache_zeroes_lookups_but_keeps_batch_counts(self):
        oracle = BatchUtilityOracle(CountingGame(), n_clients=3)
        oracle.evaluate_batch([{0}, {1}])
        oracle.utility({0})
        oracle.reset_cache()
        assert (oracle.evaluations, oracle.cache_hits, oracle.store_hits) == (0, 0, 0)
        assert oracle.batch_counts == {"serial": 1}

    def test_reset_cache_keeps_store_so_reload_is_a_store_hit(self):
        store = MemoryUtilityStore()
        game = CountingGame()
        oracle = BatchUtilityOracle(game, store=store, store_namespace="t")
        oracle.utility([0, 1])
        oracle.reset_cache()
        assert oracle.utility([0, 1]) == 2.0
        assert len(game.calls) == 1  # reload came from the store
        assert oracle.store_hits == 1
        assert oracle.evaluations == 0


class TestSingleFlight:
    def test_concurrent_single_lookups_train_once(self):
        calls = []
        lock = threading.Lock()

        def evaluator(coalition):
            with lock:
                calls.append(frozenset(coalition))
            time.sleep(0.005)
            return float(len(coalition))

        oracle = BatchUtilityOracle(evaluator)
        results = []

        def worker():
            results.append(oracle.utility({0, 1}))

        run_threads([threading.Thread(target=worker) for _ in range(8)])
        assert len(calls) == 1  # one training, seven waiters
        assert results == [2.0] * 8
        assert oracle.evaluations == 1
        assert oracle.cache_hits == 7

    def test_failed_evaluation_releases_waiters(self):
        attempts = []

        def evaluator(coalition):
            attempts.append(1)
            if len(attempts) == 1:
                raise RuntimeError("transient")
            return 1.0

        oracle = BatchUtilityOracle(evaluator)
        with pytest.raises(RuntimeError):
            oracle.utility({0})
        assert oracle._in_flight == {}
        # The claim was released: the next call retries fresh.
        assert oracle.utility({0}) == 1.0
        assert oracle.evaluations == 1

    def test_waiter_claims_the_coalition_when_its_owner_fails(self):
        started = threading.Event()
        release = threading.Event()
        calls = []

        def evaluator(coalition):
            calls.append(frozenset(coalition))
            if len(calls) == 1:
                started.set()
                release.wait(5)
                raise RuntimeError("owner fails")
            return 7.0

        oracle = BatchUtilityOracle(evaluator)
        owner_errors = []

        def owner():
            try:
                oracle.utility({0})
            except RuntimeError as error:
                owner_errors.append(error)

        thread = threading.Thread(target=owner)
        thread.start()
        assert started.wait(5)
        waiter_result = []
        waiter = threading.Thread(
            target=lambda: waiter_result.append(oracle.evaluate_batch([{0}, {1}]))
        )
        waiter.start()
        time.sleep(0.02)  # let the waiter block on the owner's claim
        release.set()
        run_threads([thread, waiter], start=False)
        assert owner_errors
        assert waiter_result[0] == {frozenset({0}): 7.0, frozenset({1}): 7.0}
        assert oracle.evaluations == 2
        assert oracle._in_flight == {}


class MapExecutor(CoalitionExecutor):
    """A batch-only executor: maps the evaluator over the misses it is given."""

    def map_utilities(self, evaluator, coalitions):
        return [float(evaluator(c)) for c in coalitions]


class FailOnSecond:
    """Evaluator whose second call raises; every other call succeeds."""

    def __init__(self):
        self.calls = []
        self.succeeded = []

    def __call__(self, coalition):
        self.calls.append(frozenset(coalition))
        if len(self.calls) == 2:
            raise RuntimeError("training diverged")
        self.succeeded.append(frozenset(coalition))
        return float(len(coalition))


class TestBatchFailure:
    @pytest.mark.parametrize("executor", [SerialExecutor, MapExecutor])
    def test_failed_batch_keeps_nothing_and_retries_fresh(self, executor):
        store = MemoryUtilityStore()
        evaluator = FailOnSecond()
        oracle = BatchUtilityOracle(
            evaluator, n_clients=3, executor=executor(), store=store,
            store_namespace="t",
        )
        batch = [{0}, {1}, {0, 1}]
        with pytest.raises(RuntimeError, match="diverged"):
            oracle.evaluate_batch(batch)
        assert oracle._in_flight == {}  # no claim leaked
        assert oracle._memo == {}
        assert len(store) == 0
        assert oracle.evaluations == 0

        results = oracle.evaluate_batch(batch)
        assert list(results.values()) == [1.0, 1.0, 2.0]
        # all three are trained again
        assert evaluator.calls[2:] == [frozenset(c) for c in batch]
        # The failed batch's one successful call ({0}) never reached the
        # oracle — the batch raised — so only the retry's three count.
        assert len(evaluator.succeeded) == 4
        assert oracle.evaluations == 3
        assert len(store) == 3

    @pytest.mark.parametrize("executor", [SerialExecutor, MapExecutor])
    def test_failing_store_put_releases_claims_in_a_batch(self, executor):
        class ExplodingStore(MemoryUtilityStore):
            def put(self, key, value):
                raise OSError("disk full")

        game = CountingGame()
        oracle = BatchUtilityOracle(
            game, n_clients=3, executor=executor(), store=ExplodingStore(),
            store_namespace="t",
        )
        with pytest.raises(OSError):
            oracle.evaluate_batch([{0}, {1}])
        assert oracle._in_flight == {}
        assert oracle._memo == {}
        oracle.attach_store(MemoryUtilityStore())
        assert list(oracle.evaluate_batch([{0}, {1}]).values()) == [1.0, 1.0]
        assert oracle.evaluations == 2
        assert len(game.calls) == 4


def _eval_count(telemetry):
    metric = telemetry.metrics.get("utility.eval_seconds")
    return 0 if metric is None else metric.count


class TestTelemetryReach:
    def test_constructor_telemetry_reaches_the_store(self):
        telemetry = Telemetry.in_memory()
        store = SqliteUtilityStore(":memory:")
        oracle = BatchUtilityOracle(
            CountingGame(), n_clients=3, store=store, store_namespace="t",
            telemetry=telemetry,
        )
        oracle.evaluate_batch([{0}, {1}])
        assert store.telemetry is telemetry
        assert telemetry.metrics.get("store.put_bytes").count == 2
        assert telemetry.metrics.counter("store.miss").value == 2
        store.close()

    def test_set_telemetry_reaches_store_executor_and_counters(self):
        telemetry = Telemetry.in_memory()
        store = MemoryUtilityStore()
        oracle = BatchUtilityOracle(
            CountingGame(), n_clients=3, store=store, store_namespace="t",
        )
        oracle.set_telemetry(telemetry)
        assert store.telemetry is telemetry
        assert oracle.executor.telemetry is telemetry
        oracle.evaluate_batch([{0}, {1}])
        oracle.utility({0})
        assert telemetry.metrics.counter("cache.hit").value == 1
        oracle.set_telemetry(None)
        assert store.telemetry is None

    @pytest.mark.parametrize("executor", ["serial", "vectorized"])
    def test_eval_seconds_once_per_in_process_call(self, executor):
        """Also on the vectorized backend's serial fallback (a plain game)."""
        telemetry = Telemetry.in_memory()
        game = monotone_game(4, seed=2)
        with BatchUtilityOracle(
            game, n_clients=4, executor=executor, telemetry=telemetry
        ) as oracle:
            oracle.evaluate_batch([{0}, {1}, {0, 1}])
            batch_timings = _eval_count(telemetry)
            oracle.utility({2})  # single lookups evaluate inline: always timed
            total = _eval_count(telemetry)
        assert batch_timings == 3
        assert total == batch_timings + 1


class TestConcurrentAccounting:
    @pytest.mark.parametrize(
        "executor", ["serial", MapExecutor(), VectorizedExecutor()],
        ids=["serial", "map", "vectorized"],
    )
    def test_hit_miss_accounting_under_concurrent_batches(self, executor):
        """Overlapping batches from many threads never double-train a
        coalition, and hits + misses add up to total lookups — also on
        executors that only map the misses they are given (a custom one,
        and the vectorized backend's serial fallback for a plain game)."""
        calls = []
        lock = threading.Lock()

        def evaluator(coalition):
            with lock:
                calls.append(frozenset(coalition))
            time.sleep(0.002)  # widen the race window
            return float(len(coalition))

        oracle = BatchUtilityOracle(evaluator, n_clients=6, executor=executor)
        batches = [
            [{0}, {1}, {0, 1}, {2}],
            [{1}, {2}, {3}, {0, 1}],
            [{3}, {4}, {0}, {5}],
            [{5}, {4}, {2}, {1}],
        ]
        barrier = threading.Barrier(len(batches))

        def run(batch):
            barrier.wait()
            oracle.evaluate_batch(batch)

        run_threads([threading.Thread(target=run, args=(b,)) for b in batches])

        distinct = {frozenset(c) for batch in batches for c in batch}
        assert len(calls) == len(distinct)  # single-flight: one training each
        assert oracle.evaluations == len(distinct)
        lookups = sum(len(coalition_batch_keys(batch)) for batch in batches)
        assert oracle.cache_hits + oracle.evaluations == lookups
        assert sum(oracle.batch_counts.values()) == len(batches)
        oracle.close()

    def test_stress_mixed_lookups_from_more_threads_than_cores(self):
        """Twelve threads with a tiny switch interval mix single and batch
        lookups over one 32-coalition space: each coalition trains once and
        each lookup is counted once — a lost update breaks either count."""
        self._stress_mixed_lookups(store=None)

    def test_stress_with_a_store_reads_and_keys_each_coalition_once(self):
        store = MemoryUtilityStore()
        oracle, space = self._stress_mixed_lookups(store)
        assert store.stats.gets == store.stats.puts == len(space)
        assert len(oracle._tokens) == len(space)
        for coalition in space:
            assert store.get(utility_key("t", coalition)) == len(coalition)

    @staticmethod
    def _stress_mixed_lookups(store):
        calls = []
        lock = threading.Lock()

        def evaluator(coalition):
            with lock:
                calls.append(frozenset(coalition))
            return float(len(coalition))

        oracle = BatchUtilityOracle(
            evaluator, n_clients=5, store=store, store_namespace="t"
        )
        space = list(all_coalitions(5))
        generator = np.random.default_rng(0)

        def draw():
            return [space[i] for i in generator.choice(len(space), 6, replace=False)]

        plans = [[draw() for _ in range(20)] for _ in range(12)]

        def run(plan):
            for step, batch in enumerate(plan):
                if step % 4 == 0:
                    for coalition in batch:
                        oracle.utility(coalition)
                else:
                    oracle.evaluate_batch(batch)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(p,)) for p in plans]
            run_threads(threads, timeout=60)
        finally:
            sys.setswitchinterval(interval)
            oracle.close()
        assert len(calls) == len(set(calls)) == oracle.evaluations == len(space)
        lookups = sum(len(batch) for plan in plans for batch in plan)
        assert oracle.cache_hits + oracle.evaluations == lookups
        return oracle, space


class ClosingExecutor(SerialExecutor):
    """Serial executor that counts its ``close`` calls."""

    def __init__(self):
        self.closed = 0

    def close(self):
        self.closed += 1


class TestOracleContextManager:
    def test_with_statement_closes_executor(self):
        executor = ClosingExecutor()
        with BatchUtilityOracle(
            CountingGame(), n_clients=4, executor=executor
        ) as oracle:
            oracle.evaluate_batch([{0}, {1}, {0, 1}])
            assert oracle.evaluations == 3
        assert executor.closed == 1  # workers released on exit

    def test_exception_inside_with_still_closes(self):
        executor = ClosingExecutor()
        oracle = BatchUtilityOracle(CountingGame(), n_clients=4, executor=executor)
        with pytest.raises(RuntimeError):
            with oracle:
                oracle.evaluate_batch([{0}, {1}])
                raise RuntimeError("boom")
        assert executor.closed == 1

    def test_reusable_after_close(self):
        with BatchUtilityOracle(CountingGame(), n_clients=4) as oracle:
            oracle.utility({0})
        assert oracle.utility({0}) == 1.0  # the memo survives close
