"""Compare benchmark results of a parent commit and a change.

    python3 perfbench/compare.py PARENT CHANGE

PARENT and CHANGE are each a directory of result records (the
`.perfbench_out/results/` of the checkout that ran them) or a list of
record files joined by commas. Untraced records are paired per workload in
the order they were started, so run the two sides alternately, with the
same seeds and the same `--seconds`.

For each workload and end-to-end metric of BENCHMARK.json it prints one row:

- improved: at least 10 pairs, the change wins at least 9 in 10 of them
  (ties count for neither side), and the medians differ by more than the
  parent's interquartile range;
- worse: the change's median is worse than the parent's by more than the
  metric's bound;
- unresolved: fewer than 10 pairs, or the parent's own interquartile range
  is wider than the bound, or the change fails more operations than the
  parent (a gain does not count then);
- unchanged: otherwise.

Traced records, where both sides have them, add one informational row per
per-layer metric with the two medians.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_records(spec: str) -> list:
    path = Path(spec)
    files = (sorted(path.glob("*.json")) if path.is_dir()
             else [Path(p) for p in spec.split(",") if p])
    records = [json.loads(f.read_text()) for f in files]
    return sorted(records, key=lambda r: r["started_at"])


def by_workload(records: list, trace: int) -> dict:
    out: dict = {}
    for r in records:
        if r["trace"] == trace:
            out.setdefault(r["workload"], []).append(r)
    return out


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent: list, change: list, better: str, bound: float,
            more_failures: bool) -> tuple[str, str]:
    """Apply the pairing rule to one metric; returns (verdict, wins)."""
    n = min(len(parent), len(change))
    if n == 0:
        return "unresolved", "0/0"
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(parent[:n], change[:n]))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    p_q1, p_med, p_q3 = quartiles(parent)
    gap = sign * (statistics.median(change) - p_med)
    spread = (p_q3 - p_q1) / abs(p_med) if p_med else float("inf")
    score = f"{wins}/{n}"
    if n >= MIN_PAIRS and wins >= WIN_SHARE * n and gap > p_q3 - p_q1:
        return ("unresolved" if more_failures else "improved"), score
    if spread > bound:
        all_better = (min(sign * c for c in change)
                      > max(sign * p for p in parent))
        return ("unchanged" if all_better else "unresolved"), score
    if -gap > bound * abs(p_med):
        return "worse", score
    return ("unchanged" if n >= MIN_PAIRS else "unresolved"), score


def metric_values(records: list, name: str) -> list:
    return [r["result"]["metrics"][name]["value"] for r in records
            if name in r["result"]["metrics"]]


def fmt(values: list) -> str:
    if not values:
        return "-"
    q1, med, q3 = quartiles(values)
    return f"{med:.4g} [{q1:.4g}, {q3:.4g}]"


def failures(records: list) -> tuple[int, int]:
    return (sum(r["result"]["failed"] for r in records),
            sum(r["result"]["attempted"] for r in records))


def compare(parent: list, change: list, bench: dict) -> list:
    """Rows of (workload, metric, parent, change, wins, verdict)."""
    rows = []
    p_runs, c_runs = by_workload(parent, 0), by_workload(change, 0)
    for workload in sorted(set(p_runs) | set(c_runs)):
        p, c = p_runs.get(workload, []), c_runs.get(workload, [])
        pf, pa = failures(p)
        cf, ca = failures(c)
        rows.append((workload, "failed/attempted", f"{pf}/{pa}", f"{cf}/{ca}",
                     "", "worse" if cf > pf else "unchanged"))
        for m in bench["end_to_end"]:
            pv, cv = metric_values(p, m["name"]), metric_values(c, m["name"])
            v, wins = verdict(pv, cv, m["better"], m["bound"], cf > pf)
            rows.append((workload, m["name"], fmt(pv), fmt(cv), wins, v))
    p_tr, c_tr = by_workload(parent, 1), by_workload(change, 1)
    for workload in sorted(set(p_tr) & set(c_tr)):
        for m in bench["per_layer"]:
            pv = metric_values(p_tr[workload], m["name"])
            cv = metric_values(c_tr[workload], m["name"])
            rows.append((workload, m["name"], fmt(pv), fmt(cv), "", "info"))
    return rows


def main(argv=None) -> int:
    p = argparse.ArgumentParser(
        description="Compare benchmark results of a parent and a change.")
    p.add_argument("parent", help="directory of result records, or files "
                                  "joined by commas")
    p.add_argument("change", help="the same for the change")
    args = p.parse_args(argv)
    bench = json.loads(BENCHMARK.read_text())
    rows = compare(load_records(args.parent), load_records(args.change), bench)
    if not rows:
        print("error: no result records found", file=sys.stderr)
        return 1
    header = ("workload", "metric", "parent median [q1, q3]",
              "change median [q1, q3]", "wins", "verdict")
    widths = [max(len(str(r[i])) for r in rows + [header])
              for i in range(len(header))]
    for row in [header] + rows:
        print("  ".join(str(x).ljust(w) for x, w in zip(row, widths)).rstrip())
    return 0


if __name__ == "__main__":
    sys.exit(main())
