#!/usr/bin/env python
"""Reproduce Figure 3: throttled vs un-throttled throughput.

Runs the SALES benchmark at the saturation client count twice — once
with the compilation gateways enabled, once without — and prints the
completions-per-time-slice series side by side, like the paper's
Figure 3.  The run is the registry's throughput scenario, so it is the
same pair ``repro scenarios run fig3`` runs.  Uses the "smoke" preset
by default so it finishes in well under a minute; pass "scaled" or
"paper" for higher fidelity.

Run:  python examples/throughput_comparison.py [preset] [clients]
"""

from __future__ import annotations

import sys

from repro.scenarios import run_scenario, throughput_scenario


def main() -> None:
    preset = sys.argv[1] if len(sys.argv) > 1 else "smoke"
    clients = int(sys.argv[2]) if len(sys.argv) > 2 else 30
    print(f"running SALES at {clients} clients, preset={preset!r} "
          f"(throttled + un-throttled) …")
    result = run_scenario(throughput_scenario(clients, preset=preset))
    print()
    print(result.body)
    print()
    print(f"paper reference: ≈+35% at 30 clients; "
          f"measured: {result.scenario_metrics['improvement']:+.1%}")


if __name__ == "__main__":
    main()
