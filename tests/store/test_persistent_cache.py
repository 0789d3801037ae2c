"""Tests for the persistent tier beneath BatchUtilityOracle's memo."""

import pytest

from repro.parallel import BatchUtilityOracle, CoalitionExecutor
from repro.store import MemoryUtilityStore, SqliteUtilityStore, utility_key

from tests.helpers import monotone_game


class CountingGame:
    """Tabular game that records every evaluator call."""

    def __init__(self, n_clients=4, seed=0):
        self._game = monotone_game(n_clients, seed=seed)
        self.n_clients = n_clients
        self.calls = []

    def __call__(self, coalition):
        self.calls.append(frozenset(coalition))
        return self._game(coalition)


def explode(coalition):
    raise ZeroDivisionError("this oracle must not train")


class TestCacheWriteThrough:
    def test_evaluation_writes_through_to_store(self):
        store = MemoryUtilityStore()
        game = CountingGame()
        oracle = BatchUtilityOracle(game, store=store, store_namespace="t")
        value = oracle.utility([0, 1])
        assert store.get(utility_key("t", [0, 1])) == value
        assert oracle.evaluations == 1
        assert oracle.store_hits == 0

    def test_store_hit_skips_evaluator_and_is_bitwise_identical(self):
        store = MemoryUtilityStore()
        game = CountingGame()
        first = BatchUtilityOracle(game, store=store, store_namespace="t")
        fresh_value = first.utility([0, 2])

        exploding = BatchUtilityOracle(
            explode, n_clients=4, store=store, store_namespace="t"
        )
        assert exploding.utility([0, 2]) == fresh_value  # bitwise
        assert exploding.store_hits == 1
        assert exploding.evaluations == 0

    def test_namespaces_do_not_alias(self):
        store = MemoryUtilityStore()
        game = CountingGame()
        a = BatchUtilityOracle(game, store=store, store_namespace="taskA")
        b = BatchUtilityOracle(game, store=store, store_namespace="taskB")
        a.utility([0, 1])
        b.utility([0, 1])
        assert len(game.calls) == 2  # same coalition, different namespace

    def test_hit_accounting_parity_with_memory_only_cache(self):
        """Same access sequence => identical hits and evaluations, and
        identical values, whether or not a store is attached."""
        sequence = [[0], [0, 1], [0], [1, 2], [0, 1], [2], [0]]
        plain = BatchUtilityOracle(CountingGame())
        tiered = BatchUtilityOracle(
            CountingGame(), store=MemoryUtilityStore(), store_namespace="t"
        )
        plain_values = [plain.utility(c) for c in sequence]
        tiered_values = [tiered.utility(c) for c in sequence]
        assert plain_values == tiered_values
        assert plain.cache_hits == tiered.cache_hits
        # a cold store adds nothing: evaluations match exactly
        assert plain.evaluations == tiered.evaluations
        assert tiered.store_hits == 0
        assert tiered.cache_hits + tiered.evaluations == len(sequence)


class TestOracleStorePlumbing:
    def test_reset_cache_then_rerun_trains_nothing(self):
        store = MemoryUtilityStore()
        game = CountingGame()
        oracle = BatchUtilityOracle(game, store=store, store_namespace="t")
        oracle.evaluate_batch([[0], [0, 1], [1, 2]])
        trained = len(game.calls)
        oracle.reset_cache()
        repeat = oracle.evaluate_batch([[0], [0, 1], [1, 2]])
        assert len(game.calls) == trained  # zero new trainings
        assert oracle.evaluations == 0
        assert oracle.store_hits == 3
        assert list(repeat) == [frozenset({0}), frozenset({0, 1}), frozenset({1, 2})]

    def test_batch_only_executor_is_served_by_the_store(self):
        """A custom batch executor only ever sees store misses, like the
        vectorized backend."""
        store = MemoryUtilityStore()
        game = CountingGame()
        warm = BatchUtilityOracle(game, store=store, store_namespace="t")
        warm.evaluate_batch([[0, 1], [1, 2]])

        class MapExecutor(CoalitionExecutor):
            def map_utilities(self, evaluator, coalitions):
                return [float(evaluator(c)) for c in coalitions]

        cold = BatchUtilityOracle(
            explode,
            n_clients=4,
            executor=MapExecutor(),
            store=store,
            store_namespace="t",
        )
        results = cold.evaluate_batch([[0, 1], [1, 2]])
        assert len(results) == 2
        assert cold.evaluations == 0
        assert cold.store_hits == 2

    def test_owned_path_store_closed_on_close(self, tmp_path):
        path = str(tmp_path / "s.sqlite")
        oracle = BatchUtilityOracle(
            monotone_game(4), n_clients=4, store=path, store_namespace="t"
        )
        oracle.utility([0, 1])
        handle = oracle.store
        assert isinstance(handle, SqliteUtilityStore)
        oracle.close()
        assert handle.closed
        assert oracle.store is None

    def test_instance_store_left_open_on_close(self):
        store = MemoryUtilityStore()
        oracle = BatchUtilityOracle(
            monotone_game(4), n_clients=4, store=store, store_namespace="t"
        )
        oracle.close()
        assert not store.closed

    def test_context_manager(self):
        with BatchUtilityOracle(monotone_game(4), n_clients=4) as oracle:
            assert oracle.utility([0, 1]) > 0

    def test_attach_store_after_construction(self):
        store = MemoryUtilityStore()
        game = CountingGame()
        oracle = BatchUtilityOracle(game)
        oracle.attach_store(store, "late")
        oracle.utility([0, 1])
        assert store.get(utility_key("late", [0, 1])) is not None


class TestCrossProcessSharing:
    def test_second_process_rereads_store(self, tmp_path):
        """Fingerprint keys + a disk store = zero trainings in a new process."""
        import os
        import subprocess
        import sys

        path = str(tmp_path / "shared.sqlite")
        store = SqliteUtilityStore(path)
        game = CountingGame()
        oracle = BatchUtilityOracle(game, store=store, store_namespace="task")
        first = oracle.evaluate_batch([[0], [0, 1]])
        oracle.close()
        store.close()

        script = (
            "import sys;"
            "from repro.parallel import BatchUtilityOracle;"
            f"o = BatchUtilityOracle(lambda s: 1/0, n_clients=4, store={path!r},"
            " store_namespace='task');"
            "r = o.evaluate_batch([[0], [0, 1]]);"
            "assert o.evaluations == 0;"
            "print(repr(sorted(r.values())))"
        )
        src_dir = os.path.abspath(
            os.path.join(os.path.dirname(__file__), "..", "..", "src")
        )
        env = dict(os.environ, PYTHONPATH=src_dir)
        output = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
        assert output == repr(sorted(first.values()))  # bitwise across processes


class TestStoreFailureIsolation:
    def test_failing_store_put_releases_in_flight_waiters(self):
        """A store write failure must not leave the coalition's claim behind
        — later lookups would deadlock on the unset event."""

        class ExplodingStore(MemoryUtilityStore):
            def put(self, key, value):
                raise OSError("disk full")

        game = CountingGame()
        oracle = BatchUtilityOracle(
            game, store=ExplodingStore(), store_namespace="t"
        )
        with pytest.raises(OSError):
            oracle.utility([0, 1])
        assert oracle._in_flight == {}  # released, not leaked
        # The same coalition stays evaluable (no deadlock, no stale event).
        oracle.attach_store(MemoryUtilityStore())
        assert oracle.utility([0, 1]) == game._game([0, 1])

    def test_non_finite_values_are_not_persisted(self):
        """NaN utilities (degenerate training) must neither crash the store
        nor poison it; they simply are not shared."""
        import math

        for store in (
            MemoryUtilityStore(),
            SqliteUtilityStore(":memory:"),
        ):
            oracle = BatchUtilityOracle(
                nan_utility, n_clients=1, store=store, store_namespace="t"
            )
            assert math.isnan(oracle.utility([0]))  # evaluation still works
            assert store.get(utility_key("t", [0])) is None  # nothing persisted
            store.close()


def nan_utility(coalition):
    return float("nan")
