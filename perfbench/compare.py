"""Compare two sets of benchmark runs: one row per workload x end-to-end metric.

    python3 perfbench/compare.py OLD.jsonl NEW.jsonl

Each file holds run documents as ``run.py --out`` appends them, one JSON
object per line; traced runs are ignored.  Each row gives both sides'
median with its first and third quartiles, the change of the median as
a share of OLD's, the metric's bound from BENCHMARK.json, and a verdict:

``worse``       NEW's median is worse than OLD's by more than the bound
                (the "worse by" column: positive is worse);
``better``      NEW's median is better than OLD's by more than OLD's
                quartile spread, or every NEW run beats every OLD run;
``unresolved``  a side's quartile spread (Q3 - Q1, as a share of its
                median) is wider than the bound, so the runs cannot tell;
``unchanged``   otherwise.

Exit status 1 when any row is ``worse``, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_runs(path: str) -> dict[str, dict[str, list[float]]]:
    """workload -> metric -> values, over the untraced runs in *path*."""
    runs: dict[str, dict[str, list[float]]] = defaultdict(lambda: defaultdict(list))
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            doc = json.loads(line)
            if doc.get("trace"):
                continue
            for name, m in doc["metrics"].items():
                runs[doc["workload"]][name].append(float(m["value"]))
    return runs


def summary(values: list[float]) -> tuple[float, float, float]:
    """(median, Q1, Q3), quartiles as ``statistics.quantiles(n=4)``."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def spread(values: list[float]) -> float:
    med, q1, q3 = summary(values)
    return (q3 - q1) / abs(med) if med else 0.0


def verdict(old: list[float], new: list[float], bound: float, better: str) -> tuple[str, float]:
    """The row's verdict and the change of the median (positive = worse)."""
    sign = 1.0 if better == "lower" else -1.0
    m_old, m_new = statistics.median(old), statistics.median(new)
    # end-to-end metrics are never 0, so OLD's median is a safe base
    worse_by = sign * (m_new - m_old) / abs(m_old)
    # every NEW run beats every OLD run: better, whatever the spread
    if max(sign * v for v in new) < min(sign * v for v in old):
        return "better", worse_by
    if spread(old) > bound or spread(new) > bound:
        return "unresolved", worse_by
    if worse_by > bound:
        return "worse", worse_by
    if -worse_by > spread(old):
        return "better", worse_by
    return "unchanged", worse_by


def compare(old_path: str, new_path: str, bench_path: Path = BENCHMARK_JSON) -> tuple[list, int]:
    """The table rows and the exit status."""
    metrics = json.loads(bench_path.read_text())["end_to_end"]
    old, new = load_runs(old_path), load_runs(new_path)
    rows, status = [], 0
    for workload in sorted(set(old) | set(new)):
        for m in metrics:
            a = old.get(workload, {}).get(m["name"], [])
            b = new.get(workload, {}).get(m["name"], [])
            if not a or not b:
                rows.append((workload, m["name"], a, b, None, m["bound"], "missing"))
                continue
            v, change = verdict(a, b, m["bound"], m["better"])
            status = max(status, int(v == "worse"))
            rows.append((workload, m["name"], a, b, change, m["bound"], v))
    return rows, status


def _fmt(values: list[float]) -> str:
    if not values:
        return "-"
    med, q1, q3 = summary(values)
    return f"{med:.4g} [{q1:.4g}, {q3:.4g}] n={len(values)}"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("old")
    p.add_argument("new")
    args = p.parse_args(argv)
    rows, status = compare(args.old, args.new)
    header = ("workload", "metric", "old median [Q1, Q3]", "new median [Q1, Q3]",
              "worse by", "bound", "verdict")
    table = [header] + [
        (w, name, _fmt(a), _fmt(b),
         "-" if change is None else f"{100 * change:+.1f}%", f"{100 * bound:.0f}%", v)
        for w, name, a, b, change, bound, v in rows
    ]
    widths = [max(len(r[i]) for r in table) for i in range(len(header))]
    for r in table:
        print("  ".join(cell.ljust(width) for cell, width in zip(r, widths)).rstrip())
    return status


if __name__ == "__main__":
    sys.exit(main())
