"""Do two sets of end-to-end benchmark runs agree?

Usage (from the repository root)::

    python3 benchmarks/e2e/compare.py A.jsonl B.jsonl

Each file holds the records that ``run.py --out`` appends, one JSON
object per line; a set is every record of one workload in one file.
For each (metric, workload) present in both files the table gives each
set's run count, median, first and third quartiles
(``statistics.quantiles(values, n=4)``) and spread (quartile distance
over median), then a verdict against the metric's ``bound`` in
``BENCHMARK.json``:

* ``agree`` — the medians differ by at most the bound (as a share of
  A's median) and both spreads are within it;
* ``B worse`` / ``B better`` — the medians differ by more than the bound;
* ``noisy`` — the medians agree but a set's spread exceeds the bound, so
  the pair is unresolved.

Per-layer metrics have no bound and get no verdict.  The exit status is
1 when any verdict is not ``agree``.
"""

from __future__ import annotations

import argparse
import json
import statistics
from collections import defaultdict
from pathlib import Path

SPEC = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def load(path: str) -> dict[tuple[str, str], list[float]]:
    """``(workload, metric) -> values`` over the file's records."""
    values: dict[tuple[str, str], list[float]] = defaultdict(list)
    with open(path) as handle:
        for line in handle:
            if line.strip():
                record = json.loads(line)
                for metric, value in record["metrics"].items():
                    values[(record["workload"], metric)].append(value)
    return values


def summary(values: list[float]) -> tuple[float, float, float, float]:
    """``(median, q1, q3, spread)``; one value is its own quartiles."""
    median = statistics.median(values)
    q1, _, q3 = (
        statistics.quantiles(values, n=4) if len(values) > 1
        else (median, median, median)
    )
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def verdict(a, b, bound: float, better: str) -> str:
    change = (b[0] - a[0]) / a[0] if a[0] else 0.0
    if abs(change) > bound:
        worse = change > 0 if better == "lower" else change < 0
        return "B worse" if worse else "B better"
    if a[3] > bound or b[3] > bound:
        return "noisy"
    return "agree"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", help="records of set A (run.py --out)")
    parser.add_argument("b", help="records of set B")
    args = parser.parse_args(argv)
    spec = json.loads(SPEC.read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    a, b = load(args.a), load(args.b)
    ok = True
    print(f"{'workload':<12} {'metric':<28} {'set':>3} {'n':>3} "
          f"{'median':>12} {'q1':>12} {'q3':>12} {'spread':>7}  verdict")
    for key in sorted(set(a) & set(b)):
        workload, name = key
        meta = metrics.get(name)
        sa, sb = summary(a[key]), summary(b[key])
        bound = meta.get("bound") if meta else None
        result = (
            verdict(sa, sb, bound, meta["better"]) if bound is not None else ""
        )
        ok = ok and result in ("agree", "")
        for label, values, s in (("A", a[key], sa), ("B", b[key], sb)):
            print(f"{workload:<12} {name:<28} {label:>3} {len(values):>3} "
                  f"{s[0]:>12.6g} {s[1]:>12.6g} {s[2]:>12.6g} {s[3]:>7.3f}"
                  + (f"  {result} (bound {bound})" if label == "B" and result
                     else ""))
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
