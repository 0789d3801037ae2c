"""A recording proxy over the service's shared utility store.

Each running job sees the shared :class:`~repro.store.UtilityStore` through a
:class:`RecordingStore`: reads pass straight through, but every write — i.e.
every *actual FL training* the job paid for — is also recorded in the job
queue's trainings ledger under the job's id.  That ledger is how the service
(and its tests, and the crash smoke) asserts the zero-duplicated-trainings
invariant: ``COUNT(*) == COUNT(DISTINCT key)`` across all jobs, tenants and
restarts.

The proxy is a real :class:`UtilityStore` subclass (not a duck type) because
:func:`repro.store.resolve_store` type-checks stores it is
handed — and a subclass correctly inherits the "unowned handle" treatment:
job teardown must never close the server's shared store, so :meth:`_close`
is a no-op on the inner store.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.store.base import GCResult, UtilityStore


class RecordingStore(UtilityStore):
    """Pass-through store that ledgers every write as one paid training."""

    def __init__(self, inner: UtilityStore, record: "callable", job_id: str) -> None:
        super().__init__()
        self._inner = inner
        self._record = record
        self._job_id = job_id

    # Backend hooks run with *this* proxy's lock held; they delegate to the
    # inner store's public interface, which takes the inner store's own lock —
    # lock order is always proxy → inner, so the pair cannot deadlock.

    @property
    def location(self) -> str:
        return self._inner.location

    def _read(self, key: str) -> Optional[float]:
        """Caller must hold the lock (the public ``get`` does)."""
        return self._inner.get(key)

    def _write(self, key: str, value: float) -> int:
        """Caller must hold the lock (the public ``put`` does)."""
        self._inner.put(key, value)
        self._record(key, self._job_id)
        return 0  # byte accounting happens on the inner store

    def _count(self) -> int:
        """Caller must hold the lock (the public ``__len__`` does)."""
        return len(self._inner)

    def summary(self) -> dict:
        return self._inner.summary()

    def _keys(self) -> Iterable[str]:
        """Caller must hold the lock (unreached: ``summary`` is delegated)."""
        return []

    def _gc(self, keep_namespace: Optional[str]) -> GCResult:
        """Caller must hold the lock (the public ``gc`` does)."""
        return self._inner.gc(keep_namespace)

    def _close(self) -> None:
        """Caller must hold the lock (the public ``close`` does).

        Deliberately does NOT close the inner store: that is the server's
        shared handle, owned by the service, not by any one job.
        """


__all__ = ["RecordingStore"]
