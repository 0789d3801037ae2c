"""Telemetry: structured tracing, metrics and run journals.

The subsystem has three layers:

* :mod:`repro.telemetry.metrics` — counters/gauges/fixed-bucket histograms
  behind a :class:`MetricsRegistry` (p50/p90/p99 summaries, Prometheus text
  export, cross-process merge);
* :mod:`repro.telemetry.trace` — ``with telemetry.span("oracle.batch"): …``
  nested spans with monotonic durations;
* :mod:`repro.telemetry.journal` — the process-safe JSONL sink under
  ``<run-dir>/telemetry/`` that both layers write to, readable back via
  :mod:`repro.telemetry.report` and the ``repro trace`` / ``repro stats``
  CLI verbs.

The single entry point is the :class:`Telemetry` handle, threaded
*explicitly* through constructors (``BatchUtilityOracle(…, telemetry=t)``) —
there is no ambient global, because an ambient registry is exactly the kind
of hidden state the repo's determinism gates exist to keep out of valuation
code.  Two invariants every instrumented site must preserve:

1. **Fingerprint neutrality.**  No telemetry value may influence a store
   key, a seed, an RNG draw, or an estimator payload.  Telemetry observes
   the run; the run never reads it back.  The CI telemetry smoke gate
   enforces this bitwise (same values, same store keys, telemetry on/off).
2. **Disabled means free.**  ``telemetry=None`` is the disabled form; call
   sites guard with ``if telemetry is not None`` so a disabled run executes
   zero extra attribute lookups on hot paths.  (A constructed-but-disabled
   handle also no-ops, for call sites that prefer unconditional calls.)
"""

from __future__ import annotations

from typing import Any, Optional, Sequence, Union

from repro.telemetry.journal import (
    JOURNAL_NAME,
    TELEMETRY_DIR,
    RunJournal,
    journal_path,
    read_journal,
)
from repro.telemetry.metrics import (
    BYTES_BUCKETS,
    SECONDS_BUCKETS,
    SIZE_BUCKETS,
    MetricsRegistry,
    prometheus_text,
    registry_from_dict,
)
from repro.telemetry.trace import NULL_SPAN, Span, Tracer, _NullSpan


class Telemetry:
    """The explicit handle instrumented components receive.

    Bundles a metrics registry, a tracer and (optionally) a journal.  Build
    one with :meth:`for_run_dir` for a real run (spans and metric flushes
    stream to ``<run-dir>/telemetry/journal.jsonl``) or :meth:`in_memory`
    for tests and library embedding (spans buffer on ``tracer.records``).
    """

    def __init__(
        self,
        journal: Optional[RunJournal] = None,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        enabled: bool = True,
    ) -> None:
        self.enabled = bool(enabled)
        self.journal = journal
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else Tracer(journal)

    @classmethod
    def for_run_dir(cls, run_dir: str) -> "Telemetry":
        """Journal-backed handle writing under ``<run_dir>/telemetry/``."""
        return cls(journal=RunJournal(journal_path(run_dir)))

    @classmethod
    def in_memory(cls) -> "Telemetry":
        """Journal-less handle; spans buffer on ``tracer.records``."""
        return cls(journal=None)

    # ------------------------------------------------------------------ #
    # Guarded convenience recorders
    # ------------------------------------------------------------------ #
    def span(self, name: str, **attrs: Any) -> Union[Span, _NullSpan]:
        """A traced section, or the shared no-op span when disabled."""
        if not self.enabled:
            return NULL_SPAN
        return self.tracer.span(name, **attrs)

    def count(self, name: str, amount: Union[int, float] = 1) -> None:
        if self.enabled:
            self.metrics.counter(name).inc(amount)

    def observe(
        self,
        name: str,
        value: Union[int, float],
        buckets: Sequence[float] = SECONDS_BUCKETS,
    ) -> None:
        if self.enabled:
            self.metrics.histogram(name, buckets).observe(value)

    def set_gauge(self, name: str, value: Union[int, float]) -> None:
        if self.enabled:
            self.metrics.gauge(name).set(value)

    # ------------------------------------------------------------------ #
    # Snapshots and persistence
    # ------------------------------------------------------------------ #
    def snapshot(self) -> dict:
        """Full registry state; pair with :meth:`delta_since` for live deltas."""
        return self.metrics.to_dict()

    def delta_since(self, before: dict) -> dict:
        return self.metrics.delta_since(before)

    def flush(self) -> None:
        """Write the cumulative registry to the journal (last record wins)."""
        if self.enabled and self.journal is not None:
            self.journal.write({"event": "metrics", "registry": self.metrics.to_dict()})

    def close(self) -> None:
        self.flush()
        if self.journal is not None:
            self.journal.close()

    def __enter__(self) -> "Telemetry":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


__all__ = [
    "BYTES_BUCKETS",
    "JOURNAL_NAME",
    "MetricsRegistry",
    "NULL_SPAN",
    "RunJournal",
    "SECONDS_BUCKETS",
    "SIZE_BUCKETS",
    "Span",
    "TELEMETRY_DIR",
    "Tracer",
    "Telemetry",
    "journal_path",
    "prometheus_text",
    "read_journal",
    "registry_from_dict",
]
