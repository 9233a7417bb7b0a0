"""``run.py --compare A.json B.json``: did B get worse than A?

One row per workload x end-to-end metric.  B's median may be worse than
A's by at most the metric's bound (BENCHMARK.json); when either side's
run-to-run spread (interquartile range over its median, from
``--repeat`` samples) is wider than the bound the row is *unresolved*,
not unchanged, unless every run of B reads better than every run of A.
Simulated numbers are not timings: ``sim_digest`` and the count metrics
must match exactly.
"""

from __future__ import annotations

import json
import statistics
from typing import List

from layers import SIMULATED_COUNTS


def spread(values: List[float]) -> float:
    """Interquartile range as a share of the median (0 for one run)."""
    if len(values) < 2:
        return 0.0
    low, _mid, high = statistics.quantiles(values, n=4)
    return (high - low) / statistics.median(values)


def judge(a: List[float], b: List[float], better: str, bound: float) -> str:
    """``within-bound``, ``regressed`` or ``unresolved`` for one row."""
    sign = 1.0 if better == "lower" else -1.0
    if max(spread(a), spread(b)) > bound:
        all_better = max(sign * v for v in b) < min(sign * v for v in a)
        return "within-bound" if all_better else "unresolved"
    worse_by = sign * (statistics.median(b) - statistics.median(a)) \
        / statistics.median(a)
    return "regressed" if worse_by > bound else "within-bound"


def _load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def main(path_a: str, path_b: str, contract: dict) -> int:
    a, b = _load(path_a), _load(path_b)
    for key in ("seed", "seconds", "quick"):
        if a[key] != b[key]:
            print(f"compare: the results differ in {key} ({a[key]} vs "
                  f"{b[key]}); simulated numbers only compare for the "
                  f"same inputs")
            return 2
    bad = 0
    print(f"{'workload':<16}{'metric':<22}{'A median':>12}{'B median':>12}"
          f"{'change':>9}{'bound':>7}  verdict")
    for workload in a["workloads"]:
        if workload not in b["workloads"]:
            print(f"{workload:<16}missing from {path_b}")
            bad += 1
            continue
        side_a, side_b = a["workloads"][workload], b["workloads"][workload]
        for metric in contract["end_to_end"]:
            name = metric["name"]
            values_a = side_a["end_to_end_samples"][name]
            values_b = side_b["end_to_end_samples"][name]
            verdict = judge(values_a, values_b, metric["better"],
                            metric["bound"])
            median_a = statistics.median(values_a)
            median_b = statistics.median(values_b)
            bad += verdict != "within-bound"
            print(f"{workload:<16}{name:<22}{median_a:>12.5g}"
                  f"{median_b:>12.5g}{(median_b - median_a) / median_a:>+9.1%}"
                  f"{metric['bound']:>7.2f}  {verdict}")
        exact = {"sim_digest": (side_a["sim_digest"], side_b["sim_digest"])}
        for name, value in side_a["counts"].items():
            exact[name] = (value, side_b["counts"].get(name))
        for name in SIMULATED_COUNTS:
            exact[name] = (side_a["per_layer"][name],
                           side_b["per_layer"][name])
        differing = [name for name, (x, y) in exact.items() if x != y]
        bad += len(differing)
        print(f"{workload:<16}sim_digest and {len(exact) - 1} counts: "
              + ("identical" if not differing
                 else "DIFFER in " + ", ".join(differing)))
    print("no regression, nothing unresolved" if not bad
          else f"{bad} row(s) regressed, unresolved or differing")
    return 1 if bad else 0

