"""Compare a parent result set with a change result set.

Usage: python3 perfbench/run.py compare PARENT CHANGE

PARENT and CHANGE are result files saved by `run.py --out`, or directories
of them.  Only untraced runs count.  For each workload and end-to-end metric
it prints both sides' medians and quartiles, the share of pairs the change
won (pairs matched by seed, else by order; ties count for neither side) and
a verdict judged by the metric's bound in BENCHMARK.json:

  improved    the change wins at least 9 in 10 pairs and the medians differ
              by more than the parent's quartile spread;
  no worse    the change median is within the bound of the parent median,
              or every change run beats every parent run;
  worse       the change median is worse by more than the bound;
  unresolved  either side's quartile spread is wider than the bound.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path


def load(path: Path) -> dict[str, list[dict]]:
    """workload -> untraced records, ordered by seed."""
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    by_workload: dict[str, list[dict]] = defaultdict(list)
    for f in files:
        data = json.loads(f.read_text(encoding="utf-8"))
        for record in data if isinstance(data, list) else [data]:
            if not record["meta"]["trace"]:
                by_workload[record["meta"]["workload"]].append(record)
    for records in by_workload.values():
        records.sort(key=lambda r: r["meta"]["seed"])
    return by_workload


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _fmt(q: tuple[float, ...]) -> str:
    return "/".join(f"{x:.4g}" for x in q)


def pairs(parent: list[dict], change: list[dict]) -> list[tuple[dict, dict]]:
    by_seed = {r["meta"]["seed"]: r for r in change}
    matched = [(p, by_seed[p["meta"]["seed"]]) for p in parent if p["meta"]["seed"] in by_seed]
    return matched if matched else list(zip(parent, change))


def verdict(p: list[float], c: list[float], won: float, bound: float, lower: bool) -> str:
    sign = 1 if lower else -1
    p1, pm, p3 = quartiles(p)
    c1, cm, c3 = quartiles(c)
    gain = sign * (pm - cm)  # positive when the change is better
    if won >= 0.9 and gain > p3 - p1:
        return "improved"
    if all(sign * (pc - cc) > 0 for pc in p for cc in c):
        return "no worse"
    if (p3 - p1) > bound * abs(pm) or (c3 - c1) > bound * abs(cm):
        return "unresolved"
    return "worse" if -gain > bound * abs(pm) else "no worse"


def main(argv: list[str], benchmark: Path) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(benchmark.read_text(encoding="utf-8"))
    parent, change = load(Path(argv[0])), load(Path(argv[1]))
    print(f"{'workload':<16} {'metric':<12} {'parent q1/med/q3':>30} "
          f"{'change q1/med/q3':>30} {'won':>9}  verdict")
    for workload in sorted(set(parent) & set(change)):
        matched = pairs(parent[workload], change[workload])
        for metric in spec["end_to_end"]:
            name, lower = metric["name"], metric["better"] == "lower"
            p = [r["result"]["metrics"][name]["value"] for r in parent[workload]]
            c = [r["result"]["metrics"][name]["value"] for r in change[workload]]
            wins = sum((a["result"]["metrics"][name]["value"] -
                        b["result"]["metrics"][name]["value"]) * (1 if lower else -1) > 0
                       for a, b in matched)
            won = wins / len(matched) if matched else 0.0
            print(f"{workload:<16} {name:<12} {_fmt(quartiles(p)):>30} {_fmt(quartiles(c)):>30} "
                  f"{wins:>3}/{len(matched):<3} {won:>4.0%}  "
                  f"{verdict(p, c, won, metric['bound'], lower)}")
    return 0
