"""Persistent, content-addressed coalition-utility store.

Training an FL model for a coalition (the paper's cost τ) dominates every
experiment, and the memo of
:class:`~repro.parallel.batch_oracle.BatchUtilityOracle` dies with the
process.  This package adds the disk tier beneath it:

* :mod:`repro.store.fingerprint` — stable content fingerprints of task specs
  and coalitions (canonical JSON → SHA-256), so two processes always agree on
  the key of the same training result;
* :class:`UtilityStore` — the store interface, with
  :class:`SqliteUtilityStore` (one WAL-mode SQLite file, the only disk
  format) and :class:`MemoryUtilityStore` (the in-process reference that
  tests run against);
* :func:`open_store` — opens the SQLite file at a path; used by the
  builders, the service and the ``repro`` CLI.

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
from repro.store.sqlite import SqliteUtilityStore

#: what the store-accepting APIs take: an instance, a path, or nothing
StoreLike = Union[UtilityStore, str, os.PathLike, None]


def open_store(path: Union[str, os.PathLike]) -> SqliteUtilityStore:
    """Open (creating if necessary) the SQLite store file at ``path``.

    An existing directory is rejected with the upgrade path: it is a store
    in the retired sharded-JSONL format, which is no longer read.
    """
    path = os.fspath(path)
    if os.path.isdir(path):
        raise ValueError(
            f"store path {path!r} is a directory: JSONL stores are no longer "
            "read. Their entries are a cache, and the same training "
            "recomputes them bitwise, so pass a .sqlite file path instead"
        )
    return SqliteUtilityStore(path)


def resolve_store(store: StoreLike) -> tuple[Optional[UtilityStore], bool]:
    """Normalise a :data:`StoreLike` into ``(store, owned)``.

    Paths are opened here and flagged ``owned=True`` so whoever resolved them
    (an oracle, a task builder, the CLI) knows to close the handle; instances
    belong to the caller and are passed through unowned.
    """
    if store is None:
        return None, False
    if isinstance(store, UtilityStore):
        return store, False
    return open_store(store), True


__all__ = [
    "FINGERPRINT_SCHEMA_VERSION",
    "GCResult",
    "MemoryUtilityStore",
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
