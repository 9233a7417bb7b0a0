"""CLAIM-MEM — §1/§2 prose: un-throttled concurrent compilations
"consume most available memory on the machine and starve query
execution memory and the buffer pool".

Compares mean per-clerk memory between the throttled and un-throttled
runs at the saturation point.
"""

import pytest

from repro.metrics.report import render_table
from repro.scenarios import throughput_scenario
from repro.units import MiB
from benchmarks.conftest import print_banner


@pytest.fixture(scope="module")
def results(scenario):
    # the FIG-3 pair: its cells are the 30-client runs this claim reads
    runs = scenario(throughput_scenario(30)).batch.results
    return {True: runs["throttled"], False: runs["unthrottled"]}


def test_claim_memory_breakdown(benchmark, results):
    benchmark.pedantic(lambda: results, rounds=1, iterations=1)
    print_banner("CLAIM-MEM: mean memory by component (MiB), 30 clients")
    clerks = sorted(set(results[True].memory_by_clerk)
                    | set(results[False].memory_by_clerk))
    rows = [(clerk,
             results[True].memory_by_clerk.get(clerk, 0) / MiB,
             results[False].memory_by_clerk.get(clerk, 0) / MiB)
            for clerk in clerks]
    print(render_table(("component", "throttled", "unthrottled"), rows))

    throttled = results[True].memory_by_clerk
    unthrottled = results[False].memory_by_clerk
    # un-throttled compilation eats a multiple of the throttled amount
    assert (unthrottled["compilation"]
            > 1.5 * throttled["compilation"])
    # and the victims get less memory than under throttling
    assert (unthrottled["workspace"]
            < throttled["workspace"])
