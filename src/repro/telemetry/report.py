"""Turn a run journal back into span trees, critical paths and stat tables.

Everything here is read-side: the inputs are the records
:func:`repro.telemetry.journal.read_journal` returns, the outputs are plain
data structures (:class:`SpanNode` trees, metric summary dicts) and rendered
text for the ``repro trace`` / ``repro stats`` CLI verbs.  Nothing in this
module runs during a valuation — it cannot perturb one.

Journals may contain spans from several processes whose records interleave
arbitrarily;
reconstruction is therefore order-insensitive: spans link to parents by id,
spans whose parent never finished (crash) or lives in a lost torn line
become roots, and siblings sort by wall-clock start so the tree reads in the
order things happened.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.telemetry.metrics import MetricsRegistry, registry_from_dict


class SpanNode:
    """One reconstructed span with its children attached."""

    __slots__ = ("name", "span_id", "parent_id", "start", "duration", "status", "attrs", "children")

    def __init__(self, record: dict) -> None:
        self.name = str(record.get("name", "?"))
        self.span_id = str(record.get("span", ""))
        parent = record.get("parent")
        self.parent_id: Optional[str] = str(parent) if parent is not None else None
        self.start = float(record.get("start", 0.0))
        self.duration = float(record.get("dur_s", 0.0))
        self.status = str(record.get("status", "ok"))
        self.attrs = dict(record.get("attrs") or {})
        self.children: List["SpanNode"] = []

    @property
    def self_seconds(self) -> float:
        """Duration not accounted for by children (clamped at zero)."""
        return max(0.0, self.duration - sum(child.duration for child in self.children))


def build_span_tree(records: Sequence[dict]) -> List[SpanNode]:
    """Link span records into a forest of :class:`SpanNode` roots.

    Records whose parent id is absent from the journal (lost line, crashed
    parent, span emitted outside any enclosing span) become roots.  Children
    and roots are ordered by wall-clock start time, ties broken by span id so
    the layout is stable across re-renders.
    """
    nodes: Dict[str, SpanNode] = {}
    spans: List[SpanNode] = []
    for record in records:
        if record.get("event") != "span":
            continue
        node = SpanNode(record)
        spans.append(node)
        if node.span_id:
            nodes[node.span_id] = node
    roots: List[SpanNode] = []
    for node in spans:
        parent = nodes.get(node.parent_id) if node.parent_id else None
        if parent is not None and parent is not node:
            parent.children.append(node)
        else:
            roots.append(node)
    for node in spans:
        node.children.sort(key=lambda child: (child.start, child.span_id))
    roots.sort(key=lambda root: (root.start, root.span_id))
    return roots


def critical_path(roots: Sequence[SpanNode]) -> List[SpanNode]:
    """The chain of longest spans: heaviest root, then its heaviest child, down.

    This is the wall-clock critical path under the span model (children run
    within their parent): shaving time anywhere else cannot shorten the run
    by more than the slack between a node and its heaviest child.
    """
    if not roots:
        return []
    path: List[SpanNode] = []
    node: Optional[SpanNode] = max(roots, key=lambda root: root.duration)
    while node is not None:
        path.append(node)
        node = max(node.children, key=lambda child: child.duration) if node.children else None
    return path


def load_metrics(records: Sequence[dict]) -> MetricsRegistry:
    """Rebuild the metrics registry from a journal's ``metrics`` records.

    The run flushes its full cumulative registry (possibly several times —
    e.g. once per task cell and once at exit), so later flushes supersede
    earlier ones; the last complete record wins.
    """
    payload: Optional[dict] = None
    for record in records:
        if record.get("event") == "metrics" and isinstance(record.get("registry"), dict):
            payload = record["registry"]
    return registry_from_dict(payload) if payload is not None else MetricsRegistry()


# ---------------------------------------------------------------------- #
# Rendering
# ---------------------------------------------------------------------- #

def format_seconds(value: Optional[float]) -> str:
    if value is None:
        return "-"
    if value >= 1.0:
        return f"{value:.2f}s"
    if value >= 0.001:
        return f"{value * 1000:.1f}ms"
    return f"{value * 1e6:.0f}µs"


def _attr_text(attrs: dict) -> str:
    if not attrs:
        return ""
    parts = ", ".join(f"{key}={attrs[key]}" for key in sorted(attrs))
    return f"  [{parts}]"


def render_trace(
    roots: Sequence[SpanNode],
    max_children: int = 12,
) -> str:
    """ASCII span tree plus the critical path, for ``repro trace``.

    Long sibling runs (hundreds of ``oracle.batch`` spans) collapse after
    ``max_children`` into one ``… (+N more, total)`` line — the tree is for
    orientation; exhaustive numbers live in ``repro stats``.
    """
    lines: List[str] = []
    total = sum(root.duration for root in roots)
    lines.append(f"{len(roots)} root span(s), {format_seconds(total)} total")
    lines.append("")
    for root in roots:
        _render_node(root, "", True, lines, max_children)
    path = critical_path(roots)
    if path:
        lines.append("")
        lines.append("critical path:")
        for node in path:
            lines.append(
                f"  {format_seconds(node.duration):>9}  {node.name}"
                f"  (self {format_seconds(node.self_seconds)})"
            )
    return "\n".join(lines) + "\n"


def _render_node(
    node: SpanNode,
    indent: str,
    is_last: bool,
    lines: List[str],
    max_children: int,
) -> None:
    connector = "└─ " if is_last else "├─ "
    marker = "" if node.status == "ok" else f"  !{node.status}"
    lines.append(
        f"{indent}{connector}{node.name}  {format_seconds(node.duration)}"
        f"{marker}{_attr_text(node.attrs)}"
    )
    child_indent = indent + ("   " if is_last else "│  ")
    shown = node.children[:max_children]
    hidden = node.children[max_children:]
    for index, child in enumerate(shown):
        last = index == len(shown) - 1 and not hidden
        _render_node(child, child_indent, last, lines, max_children)
    if hidden:
        hidden_total = sum(child.duration for child in hidden)
        lines.append(
            f"{child_indent}└─ … (+{len(hidden)} more, {format_seconds(hidden_total)})"
        )


def _histogram_formatter(name: str):
    """Durations render as 1.2ms; sizes/bytes/counts render as plain numbers."""
    if name.endswith("seconds") or name.endswith("_s"):
        return format_seconds

    def plain(value: Optional[float]) -> str:
        if value is None:
            return "-"
        return f"{value:g}"

    return plain


def render_stats(registry: MetricsRegistry) -> str:
    """Aligned text table of metric summaries, for ``repro stats``."""
    summaries = registry.summaries()
    if not summaries:
        return "no metrics recorded\n"
    lines: List[str] = []
    scalar_width = max(
        [len(name) for name, value in summaries.items() if not isinstance(value, dict)],
        default=0,
    )
    hist_names = [name for name, value in summaries.items() if isinstance(value, dict)]
    for name in sorted(summaries):
        value = summaries[name]
        if isinstance(value, dict):
            continue
        rendered = f"{value:g}"
        lines.append(f"{name:<{scalar_width}}  {rendered}")
    if hist_names:
        if lines:
            lines.append("")
        width = max(len(name) for name in hist_names)
        header = (
            f"{'histogram':<{width}}  {'count':>8}  {'sum':>10}"
            f"  {'p50':>9}  {'p90':>9}  {'p99':>9}  {'max':>9}"
        )
        lines.append(header)
        lines.append("-" * len(header))
        for name in sorted(hist_names):
            digest = summaries[name]
            fmt = _histogram_formatter(name)
            lines.append(
                f"{name:<{width}}  {digest['count']:>8}"
                f"  {fmt(digest['sum']):>10}"
                f"  {fmt(digest['p50']):>9}"
                f"  {fmt(digest['p90']):>9}"
                f"  {fmt(digest['p99']):>9}"
                f"  {fmt(digest['max']):>9}"
            )
    return "\n".join(lines) + "\n"


__all__ = [
    "SpanNode",
    "build_span_tree",
    "critical_path",
    "format_seconds",
    "load_metrics",
    "render_stats",
    "render_trace",
]
