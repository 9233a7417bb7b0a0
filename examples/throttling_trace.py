#!/usr/bin/env python
"""Reproduce Figure 2: compilation memory vs time under throttling.

Three traced compilations (Q1, Q2, Q3) start close together while a
crowd of background compilations keeps the memory monitors occupied.
The printed curves show the paper's signature shape: memory ramps,
flat *blocking plateaus* where a query waits at a monitor, and the
release to zero when compilation completes.  The run is the
registry's ``fig2`` scenario, so it is what ``repro scenarios run
fig2`` prints.

Run:  python examples/throttling_trace.py
"""

from __future__ import annotations

from repro.scenarios import get_scenario, run_scenario


def main() -> None:
    print("simulating three traced compilations under memory pressure …")
    result = run_scenario(get_scenario("fig2"))
    print()
    print(result.body)
    print()
    metrics = result.scenario_metrics
    print(f"  {metrics['traced_queries']:.0f} traced queries, "
          f"{metrics['plateau_total']:.0f} blocking plateau(s) in all")
    for check in result.checks:
        print(f"  {check.describe()}")


if __name__ == "__main__":
    main()
