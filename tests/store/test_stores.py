"""Contract tests for the utility stores: SQLite and its in-memory reference."""

import sqlite3

import pytest

from repro.store import (
    MemoryUtilityStore,
    SqliteUtilityStore,
    open_store,
    resolve_store,
    utility_key,
)

BACKENDS = ("memory", "sqlite")


def make_store(backend: str, tmp_path):
    if backend == "memory":
        return MemoryUtilityStore()
    return SqliteUtilityStore(str(tmp_path / "store.sqlite"))


def reopen(store, backend: str, tmp_path):
    """Close and reopen the same on-disk store (fresh handle, fresh process
    semantics); memory stores are returned as-is since they have no disk."""
    if backend == "memory":
        return store
    store.close()
    return make_store(backend, tmp_path)


@pytest.mark.parametrize("backend", BACKENDS)
class TestStoreContract:
    def test_roundtrip_is_bitwise_exact(self, backend, tmp_path):
        store = make_store(backend, tmp_path)
        awkward = [0.1 + 0.2, 1.0 / 3.0, 1e-17, 0.8543291236471819]
        for index, value in enumerate(awkward):
            store.put(utility_key("ns", [index]), value)
        store = reopen(store, backend, tmp_path)
        for index, value in enumerate(awkward):
            assert store.get(utility_key("ns", [index])) == value  # bitwise
        store.close()

    def test_missing_key_is_none(self, backend, tmp_path):
        store = make_store(backend, tmp_path)
        assert store.get("ns:0,1") is None
        assert "ns:0,1" not in store
        store.close()

    def test_overwrite_last_wins(self, backend, tmp_path):
        store = make_store(backend, tmp_path)
        store.put("ns:0", 0.25)
        store.put("ns:0", 0.75)
        assert store.get("ns:0") == 0.75
        assert len(store) == 1
        store.close()

    def test_get_many_and_put_many(self, backend, tmp_path):
        store = make_store(backend, tmp_path)
        store.put_many({"ns:0": 0.1, "ns:1": 0.2})
        found = store.get_many(["ns:0", "ns:1", "ns:2"])
        assert found == {"ns:0": 0.1, "ns:1": 0.2}
        store.close()

    def test_summary_groups_by_namespace(self, backend, tmp_path):
        store = make_store(backend, tmp_path)
        store.put(utility_key("taskA", [0]), 0.5)
        store.put(utility_key("taskA", [1]), 0.6)
        store.put(utility_key("taskB", [0]), 0.7)
        summary = store.summary()
        assert summary["entries"] == 3
        assert summary["namespaces"] == {"taskA": 2, "taskB": 1}
        store.close()

    def test_gc_keep_namespace(self, backend, tmp_path):
        store = make_store(backend, tmp_path)
        store.put(utility_key("keep", [0]), 0.5)
        store.put(utility_key("drop", [0]), 0.6)
        result = store.gc(keep_namespace="keep")
        assert result.dropped_namespaces == 1
        assert result.kept == 1
        assert store.get(utility_key("keep", [0])) == 0.5
        assert store.get(utility_key("drop", [0])) is None
        store.close()

    def test_gc_keeps_the_latest_overwrite(self, backend, tmp_path):
        store = make_store(backend, tmp_path)
        key = utility_key("ns", [1, 2])
        for value in (1.0, 2.0, 3.0):
            store.put(key, value)
        result = store.gc()
        assert result.kept == 1
        assert result.dropped == 0
        store = reopen(store, backend, tmp_path)
        assert store.get(key) == 3.0
        assert len(store) == 1
        store.close()

    def test_stats_counters(self, backend, tmp_path):
        store = make_store(backend, tmp_path)
        store.put("ns:0", 0.5)
        store.get("ns:0")
        store.get("ns:1")
        assert store.stats.puts == 1
        assert store.stats.gets == 2
        assert store.stats.hits == 1
        assert store.stats.misses == 1
        assert store.stats.hit_rate == pytest.approx(0.5)
        store.close()

    def test_context_manager_closes(self, backend, tmp_path):
        with make_store(backend, tmp_path) as store:
            store.put("ns:0", 0.5)
        assert store.closed
        with pytest.raises(ValueError):
            store.get("ns:0")


@pytest.mark.parametrize("backend", ("sqlite",))
class TestPersistence:
    def test_values_survive_reopen(self, backend, tmp_path):
        store = make_store(backend, tmp_path)
        store.put(utility_key("t", [0, 1]), 0.875)
        store = reopen(store, backend, tmp_path)
        assert store.get(utility_key("t", [0, 1])) == 0.875
        assert len(store) == 1
        store.close()

    def test_two_handles_share_entries(self, backend, tmp_path):
        """Two open handles model two worker processes sharing one store."""
        writer = make_store(backend, tmp_path)
        reader = make_store(backend, tmp_path)
        writer.put("t:0", 0.25)
        assert reader.get("t:0") == 0.25
        writer.close()
        reader.close()


class TestSqliteCorruptionRecovery:
    def test_non_real_value_reads_as_miss_and_gcs(self, tmp_path):
        path = str(tmp_path / "store.sqlite")
        store = SqliteUtilityStore(path)
        store.put("t:0", 0.5)
        store.put("t:1", 0.6)
        store.close()
        connection = sqlite3.connect(path)
        connection.execute("UPDATE utilities SET value = 'corrupt' WHERE key = 't:1'")
        connection.commit()
        connection.close()

        store = SqliteUtilityStore(path)
        assert store.get("t:0") == 0.5
        assert store.get("t:1") is None
        assert store.stats.corrupt_entries == 1
        result = store.gc()
        assert result.dropped_corrupt == 1
        assert result.kept == 1
        store.close()

    def test_blob_and_text_values_read_as_misses_and_gc(self, tmp_path):
        path = str(tmp_path / "store.sqlite")
        store = SqliteUtilityStore(path)
        store.put_many({"t:0": 0.5, "t:1": 0.6, "t:2": 0.7})
        store.close()
        connection = sqlite3.connect(path)
        connection.execute("UPDATE utilities SET value = x'00ff' WHERE key = 't:1'")
        connection.execute("UPDATE utilities SET value = 'torn' WHERE key = 't:2'")
        connection.commit()
        connection.close()

        store = SqliteUtilityStore(path)
        assert store.get_many(["t:0", "t:1", "t:2"]) == {"t:0": 0.5}
        assert store.stats.corrupt_entries == 2
        result = store.gc()
        assert result.dropped_corrupt == 2
        assert result.kept == 1
        store.close()
        with SqliteUtilityStore(path) as store:
            assert store.get("t:0") == 0.5
            assert len(store) == 1
            assert store.stats.corrupt_entries == 0


class TestOpenStore:
    @pytest.mark.parametrize("name", ["a.sqlite", "no-suffix", "legacy.jsonl"])
    def test_every_path_opens_sqlite(self, tmp_path, name):
        with open_store(tmp_path / name) as store:
            assert isinstance(store, SqliteUtilityStore)
            store.put("t:0", 0.5)
        assert (tmp_path / name).is_file()

    def test_existing_directory_fails_with_the_upgrade_path(self, tmp_path):
        directory = tmp_path / "store.d"
        directory.mkdir()
        with pytest.raises(ValueError) as excinfo:
            open_store(directory)
        message = str(excinfo.value)
        assert "JSONL stores are no longer read" in message
        assert "cache" in message
        assert "recomputes them bitwise" in message
        assert ".sqlite file" in message
        assert list(directory.iterdir()) == []

    def test_resolve_store_owns_only_the_paths_it_opens(self, tmp_path):
        assert resolve_store(None) == (None, False)
        memory = MemoryUtilityStore()
        assert resolve_store(memory) == (memory, False)
        with SqliteUtilityStore(str(tmp_path / "mine.sqlite")) as handle:
            assert resolve_store(handle) == (handle, False)
        for path in (tmp_path / "owned.sqlite", str(tmp_path / "owned.sqlite")):
            store, owned = resolve_store(path)
            assert isinstance(store, SqliteUtilityStore)
            assert owned is True
            store.close()
