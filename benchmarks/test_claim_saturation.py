"""CLAIM-SAT — §5.2 prose: "this benchmark produces maximum throughput
with 30 clients … Throughput is reduced with fewer users."

A client sweep on the throttled server: throughput must rise up to the
saturation region and not keep rising linearly past it.
"""

import pytest

from repro.metrics.report import render_table
from repro.scenarios import saturation_scenario
from benchmarks.conftest import print_banner

CLIENT_SWEEP = (5, 15, 30, 40)


@pytest.fixture(scope="module")
def sweep(scenario):
    runs = scenario(saturation_scenario(CLIENT_SWEEP)).batch.results
    return {clients: runs[f"sat_{clients}c"] for clients in CLIENT_SWEEP}


def test_claim_saturation_knee(benchmark, sweep):
    benchmark.pedantic(lambda: sweep, rounds=1, iterations=1)
    print_banner("CLAIM-SAT: completions vs client count (throttled)")
    rows = [(clients, result.completed, result.failed)
            for clients, result in sweep.items()]
    print(render_table(("clients", "completed", "errors"), rows))

    completed = {c: r.completed for c, r in sweep.items()}
    # throughput is reduced with fewer users
    assert completed[5] < completed[30]
    assert completed[15] < completed[30]
    # beyond saturation throughput stops scaling with clients: going
    # 30 -> 40 (+33% offered load) must NOT yield +33% completions
    assert completed[40] < completed[30] * 1.15
