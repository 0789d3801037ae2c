"""In-memory spans and per-layer self time for the traced benchmark run.

A :class:`Tracer` wraps functions; each call records one span (name, start,
end, parent, thread, trace id) in a per-thread list, so recording takes no
lock.  A span's *self* time is its duration minus the time its children on
the same thread cover.  Children on a thread run one after another inside
their parent, so that coverage is the sum of their durations, accumulated
when each child ends.  Spans on another thread never count as children.

The spans stay in memory until :meth:`Tracer.dump` writes them as JSONL;
:func:`load` reads such a file back into the same per-thread shape.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

# A record is a list, completed in place when the span ends:
# [name, start, end, parent index in the same thread's list (-1: none),
#  trace id, seconds covered by children].  Start and end stay None while
# the span is open, e.g. on a daemon thread still inside it at exit.
NAME, START, END, PARENT, TRACE, CHILD = range(6)

#: one thread's spans: (thread name, records in start order)
ThreadSpans = Tuple[str, list]


class _ThreadState(threading.local):
    def __init__(self) -> None:
        self.records: Optional[list] = None
        self.stack: List[int] = []
        self.trace: Optional[str] = None


class Tracer:
    """Records spans around wrapped calls; see the module docstring."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._state = _ThreadState()
        self._lock = threading.Lock()
        #: every thread that recorded a span, as (thread name, records)
        self.threads: List[ThreadSpans] = []
        #: counters fed by :meth:`wrap`'s ``counts`` and :meth:`add`
        self.counts: Dict[str, float] = {}

    def _open(self, name: str, trace: Optional[str]) -> tuple:
        state = self._state
        records = state.records
        if records is None:
            records = state.records = []
            with self._lock:
                # Numbered: thread names can repeat, and load() groups by it.
                label = f"{threading.current_thread().name}#{len(self.threads)}"
                self.threads.append((label, records))
        previous_trace = state.trace
        if trace is not None:
            state.trace = trace
        stack = state.stack
        parent = stack[-1] if stack else -1
        record = [name, None, None, parent, state.trace, 0.0]
        stack.append(len(records))
        records.append(record)
        return record, records, previous_trace, self._clock()

    def _close(self, opened: tuple) -> None:
        end = self._clock()
        record, records, previous_trace, start = opened
        state = self._state
        state.stack.pop()
        state.trace = previous_trace
        record[START] = start
        record[END] = end
        if record[PARENT] >= 0:
            records[record[PARENT]][CHILD] += end - start

    def wrap(
        self,
        name: str,
        function: Callable,
        trace_of: Optional[Callable[..., str]] = None,
        counts: Optional[Dict[str, Callable[[tuple, object], float]]] = None,
    ) -> Callable:
        """``function`` with a span named ``name`` around every call.

        ``trace_of(*args, **kwargs)`` gives the trace id of the call and of
        every span beneath it on the same thread.  ``counts`` maps a counter
        name to ``f(args, result)``, added to :attr:`counts` after each call
        that returns.
        """
        opener, closer = self._open, self._close
        add = self.add

        @functools.wraps(function)
        def traced(*args, **kwargs):
            opened = opener(name, None if trace_of is None else trace_of(*args, **kwargs))
            try:
                result = function(*args, **kwargs)
            finally:
                closer(opened)
            if counts is not None:
                for counter, measure in counts.items():
                    add(counter, measure(args, result))
            return result

        return traced

    def add(self, counter: str, amount: float) -> None:
        """Add ``amount`` to one of :attr:`counts`."""
        with self._lock:
            self.counts[counter] = self.counts.get(counter, 0) + amount

    def span(self, name: str, trace: Optional[str] = None) -> "_Span":
        """Context manager recording one span around a ``with`` body."""
        return _Span(self, name, trace)

    def span_count(self) -> int:
        return sum(len(records) for _, records in self.threads)

    def dump(self, path: str) -> int:
        """Write every span as one JSON line; returns the number written."""
        with open(path, "w", encoding="utf-8") as handle:
            for thread, records in self.threads:
                for index, record in enumerate(records):
                    handle.write(
                        json.dumps(
                            {
                                "name": record[NAME],
                                "start": record[START],
                                "end": record[END],
                                "parent": record[PARENT],
                                "index": index,
                                "thread": thread,
                                "trace": record[TRACE],
                                "child_s": record[CHILD],
                            }
                        )
                        + "\n"
                    )
        return self.span_count()


class _Span:
    def __init__(self, tracer: Tracer, name: str, trace: Optional[str]) -> None:
        self._tracer = tracer
        self._name = name
        self._trace = trace
        self._opened: Optional[tuple] = None

    def __enter__(self) -> "_Span":
        self._opened = self._tracer._open(self._name, self._trace)
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._tracer._close(self._opened)


def load(path: str) -> List[ThreadSpans]:
    """Read a :meth:`Tracer.dump` file back as per-thread record lists."""
    threads: Dict[str, list] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            span = json.loads(line)
            threads.setdefault(span["thread"], []).append(
                [
                    span["name"],
                    span["start"],
                    span["end"],
                    span["parent"],
                    span["trace"],
                    span["child_s"],
                ]
            )
    return list(threads.items())


def layer_table(threads: List[ThreadSpans], within: Optional[str] = None) -> Dict[str, dict]:
    """Per span name: ``calls``, ``busy_s`` and ``self_s``.

    ``busy_s`` sums the spans that have no ancestor of the same name, so a
    layer that re-enters itself is not counted twice.  With ``within``, only
    spans whose outermost ancestor (or themselves) carry that name count.
    """
    table: Dict[str, dict] = {}
    for _, records in threads:
        for record in records:
            if record[END] is None:
                continue
            nested_in_self = False
            root = record
            while root[PARENT] >= 0:
                root = records[root[PARENT]]
                nested_in_self = nested_in_self or root[NAME] == record[NAME]
            if within is not None and root[NAME] != within:
                continue
            row = table.setdefault(
                record[NAME], {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
            )
            duration = record[END] - record[START]
            row["calls"] += 1
            row["self_s"] += duration - record[CHILD]
            if not nested_in_self:
                row["busy_s"] += duration
    return table


def unattributed(table: Dict[str, dict], root: str) -> Tuple[float, float]:
    """``(seconds, share)`` of the ``root`` spans' time no layer claims.

    The roots' durations are the wall time being split; everything below
    them is a layer, so the roots' own self time is what stays unattributed.
    """
    row = table.get(root)
    if row is None or row["busy_s"] <= 0.0:
        return 0.0, 0.0
    return row["self_s"], row["self_s"] / row["busy_s"]


def wrapper_cost(samples: int = 20000) -> float:
    """Seconds one span adds to a call, measured on a no-op function."""
    tracer = Tracer()

    def noop() -> None:
        return None

    traced = tracer.wrap("noop", noop)
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        for _ in range(samples):
            noop()
        bare = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(samples):
            traced()
        best = min(best, (time.perf_counter() - start - bare) / samples)
        tracer.threads.clear()
        tracer._state.records = None
    return max(best, 0.0)
