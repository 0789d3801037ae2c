"""Persistent, content-addressed coalition-utility store.

Training an FL model for a coalition (the paper's cost τ) dominates every
experiment, and the memo of
:class:`~repro.parallel.batch_oracle.BatchUtilityOracle` dies with the
process.  This package adds the disk tier beneath it:

* :mod:`repro.store.fingerprint` — stable content fingerprints of task specs
  and coalitions (canonical JSON → SHA-256), so two processes always agree on
  the key of the same training result;
* :class:`UtilityStore` — the backend interface, with
  :class:`MemoryUtilityStore` (reference/tests),
  :class:`JsonlUtilityStore` (sharded append-only JSONL) and
  :class:`SqliteUtilityStore` (one WAL-mode SQLite file, the default);
* :func:`open_store` — path-based factory used by the builders and the
  ``repro`` CLI.

Values stay bitwise-identical to a fresh evaluation, and a store hit performs
zero FL trainings — which is what makes benchmark campaigns resumable and
shardable across processes and machines.
"""

from __future__ import annotations

import os
from typing import Optional, Union

from repro.store.base import GCResult, MemoryUtilityStore, StoreStats, UtilityStore
from repro.store.fingerprint import (
    FINGERPRINT_SCHEMA_VERSION,
    HASHED_KEY_TAG,
    HASHED_KEY_THRESHOLD,
    canonical_json,
    canonicalize,
    coalition_token,
    fingerprint,
    key_namespace,
    utility_key,
)
from repro.store.jsonl import JsonlUtilityStore
from repro.store.sqlite import SqliteUtilityStore

#: what the store-accepting APIs take: an instance, a path, or nothing
StoreLike = Union[UtilityStore, str, os.PathLike, None]

#: backend names accepted by :func:`open_store`
STORE_BACKENDS = ("sqlite", "jsonl", "memory")


def open_store(path: Union[str, os.PathLike], backend: Optional[str] = None) -> UtilityStore:
    """Open (creating if necessary) a persistent store at ``path``.

    With ``backend=None`` the kind is inferred: an existing directory — or a
    path without a file suffix — opens as a sharded JSONL store, anything
    else as a single SQLite file.  ``backend="memory"`` ignores the path.
    """
    path = os.fspath(path)
    if backend is None:
        if os.path.isdir(path) or not os.path.splitext(path)[1]:
            backend = "jsonl"
        elif os.path.splitext(path)[1] == ".jsonl":
            backend = "jsonl"
        else:
            backend = "sqlite"
    if backend == "sqlite":
        return SqliteUtilityStore(path)
    if backend == "jsonl":
        return JsonlUtilityStore(path)
    if backend == "memory":
        return MemoryUtilityStore()
    raise ValueError(f"unknown store backend {backend!r}; choose from {STORE_BACKENDS}")


def resolve_store(store: StoreLike, backend: Optional[str] = None) -> tuple[Optional[UtilityStore], bool]:
    """Normalise a :data:`StoreLike` into ``(store, owned)``.

    Paths are opened here and flagged ``owned=True`` so whoever resolved them
    (an oracle, a task builder, the CLI) knows to close the handle; instances
    belong to the caller and are passed through unowned.
    """
    if store is None:
        return None, False
    if isinstance(store, UtilityStore):
        return store, False
    return open_store(store, backend), True


__all__ = [
    "FINGERPRINT_SCHEMA_VERSION",
    "GCResult",
    "JsonlUtilityStore",
    "MemoryUtilityStore",
    "STORE_BACKENDS",
    "SqliteUtilityStore",
    "StoreLike",
    "StoreStats",
    "UtilityStore",
    "canonical_json",
    "canonicalize",
    "coalition_token",
    "HASHED_KEY_TAG",
    "HASHED_KEY_THRESHOLD",
    "fingerprint",
    "key_namespace",
    "open_store",
    "resolve_store",
    "utility_key",
]
