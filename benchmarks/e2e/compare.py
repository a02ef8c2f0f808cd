#!/usr/bin/env python3
"""Compare two sets of benchmark records: ``compare.py A.json B.json``.

A and B are files written by ``run.py --json`` (one record, one run, or the
list of runs of ``--repeat N``).  For every workload and end-to-end metric
the median of B is set against the median of A; the relative change in the
metric's worse direction is judged against the bound fixed in
``e2ebench/metrics.py``:

* ``within``     — B is no worse (and no better) than A by more than the bound;
* ``worse``      — B's median is worse by more than the bound;
* ``better``     — B's median is better by more than the bound, or every run
  of B reads better than every run of A;
* ``unresolved`` — the run-to-run spread (interquartile range over the
  median, the wider of the two sets) exceeds the bound, so the sets cannot
  tell a change from noise.

One row per workload; exit status 1 if any pair is ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from e2ebench.metrics import END_TO_END  # noqa: E402


def load(path: str) -> dict:
    """workload -> metric -> values, from any shape ``run.py --json`` writes."""
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    records: list = []

    def collect(node) -> None:
        if isinstance(node, dict):
            records.append(node)
        else:
            for child in node:
                collect(child)

    collect(data)
    table: dict = {}
    for record in records:
        metrics = table.setdefault(record["workload"], {})
        for metric, value in record["end_to_end"].items():
            metrics.setdefault(metric, []).append(value)
    return table


def spread(values: list) -> float:
    """Interquartile range over the median (0 for fewer than two runs)."""
    if len(values) < 2:
        return 0.0
    q1, _median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def verdict(metric: str, before: list, after: list) -> tuple[str, float]:
    """(``within`` | ``worse`` | ``better`` | ``unresolved``, worsening)."""
    _unit, better, bound = END_TO_END[metric]
    sign = 1.0 if better == "lower" else -1.0
    a, b = statistics.median(before), statistics.median(after)
    if bound == 0.0:  # absolute: fail_ratio may not rise at all
        worsening = sign * (b - a)
        return ("worse" if worsening > 0 else "better" if worsening < 0 else "within"), worsening
    worsening = sign * (b - a) / a if a else 0.0
    separated = (
        max(after) < min(before) if better == "lower" else min(after) > max(before)
    )
    if separated and min(len(before), len(after)) > 1:
        return "better", worsening
    if max(spread(before), spread(after)) > bound:
        return "unresolved", worsening
    if worsening > bound:
        return "worse", worsening
    if worsening < -bound:
        return "better", worsening
    return "within", worsening


def compare(before: dict, after: dict) -> tuple[list[str], dict]:
    """Markdown table lines (one row per workload) and verdict counts."""
    metrics = list(END_TO_END)
    lines = [
        "| workload | " + " | ".join(metrics) + " |",
        "|---|" + "---|" * len(metrics),
    ]
    counts: dict = {}
    for workload in before:
        if workload not in after:
            continue
        cells = []
        for metric in metrics:
            if metric not in before[workload] or metric not in after[workload]:
                cells.append("—")
                continue
            a, b = before[workload][metric], after[workload][metric]
            word, worsening = verdict(metric, a, b)
            counts[word] = counts.get(word, 0) + 1
            cells.append(
                f"{statistics.median(a):.4g} → {statistics.median(b):.4g} "
                f"({worsening:+.1%}, ±{max(spread(a), spread(b)):.1%}) **{word}**"
                if END_TO_END[metric][2]
                else f"{statistics.median(a):.4g} → {statistics.median(b):.4g} **{word}**"
            )
        lines.append(f"| `{workload}` | " + " | ".join(cells) + " |")
    return lines, counts


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    lines, counts = compare(load(argv[0]), load(argv[1]))
    print("\n".join(lines))
    print()
    print(
        "Each cell: median A → median B (change in the worse direction, "
        "± the wider run-to-run spread) verdict."
    )
    print(", ".join(f"{count} {word}" for word, count in sorted(counts.items())))
    return 1 if counts.get("worse") else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
