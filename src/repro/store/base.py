"""The persistent utility-store interface.

A :class:`UtilityStore` maps content-addressed keys (see
:mod:`repro.store.fingerprint`) to coalition utilities.  It is the disk tier
beneath the memo of :class:`~repro.parallel.batch_oracle.BatchUtilityOracle`:
values written here survive the process, so separate workers — and separate
*runs*, days apart — share FL-training results instead of re-paying the
per-coalition cost τ.  Backends must preserve floats bitwise (IEEE-754 doubles round-trip
exactly through SQLite REAL columns), which is what makes stored-vs-fresh
utilities bitwise-identical.

Backends are concurrency-safe within a process (internal lock) and tolerate
concurrent writers across processes for distinct keys; a key is only ever
written with the value its fingerprint determines, so racing writers are
idempotent.
"""

from __future__ import annotations

import abc
import math
import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, Optional

from repro.store.fingerprint import key_namespace
from repro.telemetry import BYTES_BUCKETS

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry import Telemetry


@dataclass
class StoreStats:
    """Access counters of one store handle (not persisted)."""

    gets: int = 0
    hits: int = 0
    puts: int = 0
    corrupt_entries: int = 0

    @property
    def misses(self) -> int:
        return self.gets - self.hits

    @property
    def hit_rate(self) -> float:
        if self.gets == 0:
            return 0.0
        return self.hits / self.gets


@dataclass
class GCResult:
    """Outcome of a :meth:`UtilityStore.gc` pass."""

    kept: int = 0
    dropped_corrupt: int = 0
    dropped_namespaces: int = 0

    @property
    def dropped(self) -> int:
        return self.dropped_corrupt + self.dropped_namespaces

    def to_dict(self) -> dict:
        return {
            "kept": self.kept,
            "dropped_corrupt": self.dropped_corrupt,
            "dropped_namespaces": self.dropped_namespaces,
        }


class UtilityStore(abc.ABC):
    """Persistent, content-addressed ``key -> utility`` mapping.

    Keys follow the :func:`repro.store.fingerprint.utility_key` format
    ``<task-fingerprint>:<sorted members>``; the namespace prefix groups all
    coalitions of one task so :meth:`summary` and :meth:`gc` can report and
    prune per task.
    """

    def __init__(self) -> None:
        self.stats = StoreStats()
        self._lock = threading.RLock()
        self._closed = False
        self.telemetry: "Optional[Telemetry]" = None

    def set_telemetry(self, telemetry: "Optional[Telemetry]") -> None:
        """Attach (or detach with ``None``) a telemetry handle.

        Observational only: the handle feeds the ``store.put_bytes``
        histogram; it never influences keys, values or placement.
        """
        with self._lock:
            self.telemetry = telemetry

    # ------------------------------------------------------------------ #
    # Core mapping interface
    # ------------------------------------------------------------------ #
    def get(self, key: str) -> Optional[float]:
        """Return the stored utility or ``None`` (absent or unreadable).

        A corrupted entry is treated as a miss — the caller retrains the
        coalition and overwrites it — never as an error: a single bad disk
        record must not take down a multi-hour campaign.
        """
        with self._lock:
            self._check_open()
            self.stats.gets += 1
            value = self._read(key)
            if value is not None:
                self.stats.hits += 1
            return value

    def put(self, key: str, value: float) -> None:
        """Persist one utility; overwrites any previous record for the key.

        Non-finite values are not persisted: SQLite cannot represent NaN in a
        REAL NOT NULL column, and a NaN utility signals a degenerate training
        run rather than a result worth sharing.  Skipping (instead of
        raising) keeps a single bad evaluation from aborting a campaign; a
        deterministic evaluator reproduces the same value on the next run.
        """
        value = float(value)
        if not math.isfinite(value):
            return
        with self._lock:
            self._check_open()
            self.stats.puts += 1
            written = self._write(key, value)
            if self.telemetry is not None and written:
                self.telemetry.observe("store.put_bytes", written, BYTES_BUCKETS)

    def get_many(self, keys: Iterable[str]) -> Dict[str, float]:
        """Batch read; only present (readable) keys appear in the result."""
        results: Dict[str, float] = {}
        for key in keys:
            value = self.get(key)
            if value is not None:
                results[key] = value
        return results

    def put_many(self, entries: Dict[str, float]) -> None:
        for key, value in entries.items():
            self.put(key, value)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            self._check_open()
            return self._read(key) is not None

    def __len__(self) -> int:
        with self._lock:
            self._check_open()
            return self._count()

    # ------------------------------------------------------------------ #
    # Maintenance
    # ------------------------------------------------------------------ #
    def summary(self) -> dict:
        """Describe the store: backend, location, entry counts per namespace.

        ``namespace_bytes`` maps each namespace to its estimated on-disk
        row-payload bytes (SQLite) and is ``None`` for the memory store,
        which has no disk.
        """
        with self._lock:
            self._check_open()
            namespaces: Dict[str, int] = {}
            for key in self._keys():
                ns = key_namespace(key)
                namespaces[ns] = namespaces.get(ns, 0) + 1
            return {
                "backend": type(self).__name__,
                "location": self.location,
                "entries": sum(namespaces.values()),
                "namespaces": namespaces,
                "namespace_bytes": self._namespace_sizes(),
                "size_bytes": self._size_bytes(),
            }

    def gc(self, keep_namespace: Optional[str] = None) -> GCResult:
        """Compact the store: drop corrupt records, optionally everything
        outside ``keep_namespace``."""
        with self._lock:
            self._check_open()
            return self._gc(keep_namespace)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Release file/connection handles; idempotent."""
        with self._lock:
            if not self._closed:
                self._close()
                self._closed = True

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "UtilityStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise ValueError(f"{type(self).__name__} is closed")

    # ------------------------------------------------------------------ #
    # Backend hooks (called with the lock held)
    # ------------------------------------------------------------------ #
    @property
    @abc.abstractmethod
    def location(self) -> str:
        """Human-readable location (path or ':memory:')."""

    @abc.abstractmethod
    def _read(self, key: str) -> Optional[float]: ...

    @abc.abstractmethod
    def _write(self, key: str, value: float) -> int:
        """Persist one record; returns the on-disk bytes it cost (0 if unknown)."""

    @abc.abstractmethod
    def _count(self) -> int: ...

    @abc.abstractmethod
    def _keys(self) -> Iterable[str]: ...

    @abc.abstractmethod
    def _gc(self, keep_namespace: Optional[str]) -> GCResult: ...

    def _size_bytes(self) -> int:
        return 0

    def _namespace_sizes(self) -> Optional[Dict[str, int]]:
        """Per-namespace on-disk bytes, or ``None`` when not attributable."""
        return None

    def _close(self) -> None: ...


class MemoryUtilityStore(UtilityStore):
    """Dict-backed store: the reference semantics, and a test double.

    Not persistent, obviously — it exists so the tiered-cache logic can be
    exercised (and benchmarked) without touching disk, and as the executable
    specification the SQLite store is tested against.
    """

    def __init__(self) -> None:
        super().__init__()
        self._data: Dict[str, float] = {}

    @property
    def location(self) -> str:
        return ":memory:"

    def _read(self, key: str) -> Optional[float]:
        return self._data.get(key)

    def _write(self, key: str, value: float) -> int:
        self._data[key] = value
        return 0  # nothing touches disk

    def _count(self) -> int:
        return len(self._data)

    def _keys(self) -> Iterable[str]:
        return list(self._data)

    def _gc(self, keep_namespace: Optional[str]) -> GCResult:
        result = GCResult()
        if keep_namespace is not None:
            doomed = [
                k for k in self._data if key_namespace(k) != keep_namespace
            ]
            for key in doomed:
                del self._data[key]
            result.dropped_namespaces = len(doomed)
        result.kept = len(self._data)
        return result
