"""Summarise trajectory.jsonl as Markdown: medians, quartiles and spreads.

    python3 benchmarks/e2e/trajectory.py --tag spread-A
    python3 benchmarks/e2e/trajectory.py --tag spread-A --tag spread-B

One tag: per workload and end-to-end metric, the untraced rows' median,
quartiles and spread (quartile distance over the median) next to the bound.
Two tags: both sets' medians and quartiles, and the second median's change
against the first, which must stay within the bound.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List

import catalog
import summary

TRAJECTORY = os.path.join(os.path.dirname(os.path.abspath(__file__)), "trajectory.jsonl")


def load_rows() -> List[dict]:
    with open(TRAJECTORY, "r", encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def values_by_metric(rows: List[dict], tag: str) -> Dict[tuple, List[float]]:
    """``(workload, metric) -> values`` over a tag's untraced rows."""
    table: Dict[tuple, List[float]] = {}
    for row in rows:
        if row["tag"] == tag and not row["trace"]:
            for name, value in row["metrics"].items():
                table.setdefault((row["workload"], name), []).append(value)
    return table


def _fmt(value: float) -> str:
    return f"{value:.4g}"


def render(rows: List[dict], tags: List[str]) -> str:
    bounds = {name: bound for name, _, _, bound in catalog.END_TO_END}
    sets = [values_by_metric(rows, tag) for tag in tags]
    if len(tags) == 1:
        lines = [
            "| workload | metric | n | median | q1 | q3 | spread | bound |",
            "|---|---|---|---|---|---|---|---|",
        ]
    else:
        lines = [
            "| workload | metric | median A | q1–q3 A | median B | q1–q3 B | B vs A | bound |",
            "|---|---|---|---|---|---|---|---|",
        ]
    for workload in catalog.WORKLOADS:
        for name in bounds:
            columns = []
            for values in (found.get((workload, name)) for found in sets):
                if not values or len(values) < 2:
                    break
                q1, median, q3 = summary.quartiles(values)
                columns.append((len(values), median, q1, q3, summary.spread(values)))
            else:
                if len(tags) == 1:
                    n, median, q1, q3, spread = columns[0]
                    cells = [str(n), _fmt(median), _fmt(q1), _fmt(q3), f"{spread:.1%}"]
                else:
                    (_, med_a, q1_a, q3_a, _), (_, med_b, q1_b, q3_b, _) = columns[:2]
                    cells = [
                        _fmt(med_a),
                        f"{_fmt(q1_a)}–{_fmt(q3_a)}",
                        _fmt(med_b),
                        f"{_fmt(q1_b)}–{_fmt(q3_b)}",
                        f"{med_b / med_a - 1:+.1%}",
                    ]
                lines.append(f"| {workload} | {name} | " + " | ".join(cells) + f" | {bounds[name]:.0%} |")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tag", action="append", required=True, help="row set (one or two)")
    args = parser.parse_args(argv)
    if len(args.tag) > 2:
        parser.error("give one or two --tag values")
    print(render(load_rows(), args.tag))
    return 0


if __name__ == "__main__":
    sys.exit(main())
