"""The per-job store proxy feeding the service's trainings ledger.

Each running job sees the shared utility store through a
:class:`~repro.store.sqlite.RecordingStore` that ledgers every write under
the job's id in :class:`~repro.service.jobs.JobStore`.  The class lives with
the durable-state core it records into; this module keeps the service's
import path.
"""

from repro.store.sqlite import RecordingStore

__all__ = ["RecordingStore"]
