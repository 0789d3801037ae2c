"""The run journal: a process-safe JSONL sink under the run directory.

Every telemetry record of a run — spans, metric flushes, annotations — is one
JSON line in ``<run-dir>/telemetry/journal.jsonl``.  Writes are single
``O_APPEND`` appends of whole lines, the same atomicity argument the JSONL
utility store relies on (POSIX guarantees small appends interleave as whole
lines, never tear), so another *process* can append to the same journal as
the parent run: the journal object pickles down to its path and re-opens its
own handle lazily on first write in that process — and re-opens
after a ``fork()`` as well (handle sharing across a fork would interleave
buffered partial lines).

Reading (:func:`read_journal`) tolerates corrupt lines — a crash mid-append
must never make a run's telemetry unreadable — and returns records in file
order, which for a single-process run is emission order.
"""

from __future__ import annotations

import json
import os
from typing import IO, Iterable, List, Optional

#: subdirectory of a run dir holding telemetry artifacts
TELEMETRY_DIR = "telemetry"

#: the journal file name inside :data:`TELEMETRY_DIR`
JOURNAL_NAME = "journal.jsonl"


def journal_path(run_dir: str) -> str:
    """Canonical journal location for a run directory."""
    return os.path.join(run_dir, TELEMETRY_DIR, JOURNAL_NAME)


class RunJournal:
    """Append-only JSONL record sink, safe across threads, forks and pickling.

    The journal is identified by its *path*; the open handle is an
    implementation detail that is dropped on pickle and recreated per
    process, so a journal captured inside a pickled evaluator and unpickled
    in another process writes to the same file as the parent.
    """

    def __init__(self, path: str) -> None:
        self.path = str(path)
        self._handle: Optional[IO[str]] = None
        self._pid: Optional[int] = None

    # ------------------------------------------------------------------ #
    # Writing
    # ------------------------------------------------------------------ #
    def write(self, record: dict) -> None:
        """Append one record as a single JSON line (atomic via O_APPEND)."""
        line = json.dumps(record, separators=(",", ":"), sort_keys=True)
        handle = self._ensure_handle()
        handle.write(line + "\n")
        handle.flush()

    def write_many(self, records: Iterable[dict]) -> None:
        for record in records:
            self.write(record)

    def _ensure_handle(self) -> IO[str]:
        # Journal lines record *when* things happened; nothing derived from
        # the pid ever reaches a fingerprint, seed or valuation payload.
        pid = os.getpid()  # repro: allow[RPR002] reason=fork detection for the append handle, telemetry-only
        if self._handle is None or self._pid != pid:
            if self._handle is not None:
                try:
                    self._handle.close()
                except OSError:  # pragma: no cover - best-effort close
                    pass
            os.makedirs(os.path.dirname(self.path) or ".", exist_ok=True)
            self._handle = open(self.path, "a", encoding="utf-8")
            self._pid = pid
        return self._handle

    # ------------------------------------------------------------------ #
    # Lifecycle / pickling
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        if self._handle is not None:
            try:
                self._handle.close()
            finally:
                self._handle = None
                self._pid = None

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __getstate__(self) -> dict:
        return {"path": self.path}

    def __setstate__(self, state: dict) -> None:
        self.path = state["path"]
        self._handle = None
        self._pid = None


def read_journal(path_or_run_dir: str) -> List[dict]:
    """Load a journal's records, skipping corrupt lines.

    Accepts either the journal file itself or a run directory (resolved via
    :func:`journal_path`).  Raises :class:`FileNotFoundError` when neither
    exists — an absent journal means the run executed with telemetry
    disabled, and callers (the ``repro trace``/``repro stats`` verbs) turn
    that into a helpful message.
    """
    path = path_or_run_dir
    if os.path.isdir(path):
        path = journal_path(path)
    if not os.path.exists(path):
        raise FileNotFoundError(
            f"no telemetry journal at {path!r}; was the run executed with "
            "telemetry disabled (--no-telemetry)?"
        )
    records: List[dict] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                continue  # torn append; the record is lost, the run is not
            if isinstance(record, dict):
                records.append(record)
    return records


__all__ = ["JOURNAL_NAME", "RunJournal", "TELEMETRY_DIR", "journal_path", "read_journal"]
