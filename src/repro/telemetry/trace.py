"""Span-based tracing: nested timed sections emitted to the run journal.

A *span* is one named, timed section of work — ``oracle.batch``,
``executor.map``, ``pipeline.cell`` — with free-form attributes (batch sizes,
backend names, task labels).  Spans nest: a per-thread stack links each span
to its parent, so the journal reconstructs the run as a tree
(:mod:`repro.telemetry.report`).  Durations come from ``perf_counter`` (the
monotonic clock; wall-clock only stamps *when* a span started, for humans
reading journals, never for arithmetic).

Two clocks, two rules:

* ``dur_s`` is monotonic and is what every report aggregates;
* ``start`` is wall-clock telemetry under the documented RPR002 pragma —
  nothing derived from it may reach a fingerprint, seed or estimator payload.

"""

from __future__ import annotations

import itertools
import os
import threading
import time
from typing import Any, Dict, List, Optional

from repro.telemetry.journal import RunJournal


class Span:
    """One in-flight traced section; use via ``tracer.span(...)``."""

    __slots__ = ("tracer", "name", "attrs", "span_id", "parent_id", "_t0", "_start", "status")

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        attrs: Dict[str, Any],
        span_id: str,
        parent_id: Optional[str],
    ) -> None:
        self.tracer = tracer
        self.name = name
        self.attrs = attrs
        self.span_id = span_id
        self.parent_id = parent_id
        self._t0 = 0.0
        self._start = 0.0
        self.status = "ok"

    def __enter__(self) -> "Span":
        self._start = time.time()  # repro: allow[RPR002] reason=span wall-clock timestamp is journal telemetry
        self._t0 = time.perf_counter()
        self.tracer._push(self)
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        duration = time.perf_counter() - self._t0
        if exc_type is not None:
            self.status = "error"
            self.attrs.setdefault("error_type", getattr(exc_type, "__name__", str(exc_type)))
        self.tracer._pop(self)
        self.tracer._emit(self, duration)

    def annotate(self, **attrs: Any) -> "Span":
        """Attach attributes discovered mid-span (e.g. a fallback reason)."""
        self.attrs.update(attrs)
        return self


class _NullSpan:
    """Shared no-op span: what a disabled tracer hands out."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None

    def annotate(self, **attrs: Any) -> "_NullSpan":
        return self


NULL_SPAN = _NullSpan()


class Tracer:
    """Hands out spans and emits their records to the journal.

    With no journal attached, finished spans accumulate in :attr:`records`
    (handy for tests and library embedding); with one attached, records
    stream straight to disk and the in-memory list stays empty.
    """

    def __init__(self, journal: Optional[RunJournal] = None) -> None:
        self.journal = journal
        self.records: List[dict] = []
        self._local = threading.local()
        # next() on a C-level iterator is atomic in CPython, so concurrent
        # span() calls get distinct sequence numbers without a lock; the
        # parent stack is thread-local and needs none either.
        self._ids = itertools.count(1)

    def span(self, name: str, **attrs: Any) -> Span:
        """Open a traced section: ``with tracer.span("oracle.batch", n=64): ...``"""
        sequence = next(self._ids)
        # The pid namespaces span ids across processes sharing a journal; it is
        # journal telemetry and never reaches fingerprints or seeds.
        pid = os.getpid()  # repro: allow[RPR002] reason=span-id namespacing across worker processes, telemetry-only
        span_id = f"{pid:x}.{sequence:x}"
        return Span(self, name, dict(attrs), span_id, self.current_span_id())

    def current_span_id(self) -> Optional[str]:
        stack = getattr(self._local, "stack", None)
        if not stack:
            return None
        return stack[-1].span_id

    def _push(self, span: Span) -> None:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        stack.append(span)

    def _pop(self, span: Span) -> None:
        stack = getattr(self._local, "stack", None)
        if stack and stack[-1] is span:
            stack.pop()

    def _emit(self, span: Span, duration: float) -> None:
        record = {
            "event": "span",
            "name": span.name,
            "span": span.span_id,
            "parent": span.parent_id,
            "start": span._start,
            "dur_s": duration,
            "status": span.status,
        }
        if span.attrs:
            record["attrs"] = span.attrs
        if self.journal is not None:
            self.journal.write(record)
        else:
            self.records.append(record)


__all__ = ["NULL_SPAN", "Span", "Tracer"]
