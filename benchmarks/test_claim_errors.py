"""CLAIM-ERR — §4/§5 prose: throttling trades out-of-memory aborts for
(bounded) gateway timeouts and improves completion rates.

"Properly tuned, this approach allows the DBMS implementer to achieve
a balance between out-of-memory errors and throttle-induced timeouts"
and "reduces resource errors returned to clients".
"""

import pytest

from repro.metrics.report import render_table
from repro.scenarios import throughput_scenario
from benchmarks.conftest import print_banner


@pytest.fixture(scope="module")
def results(scenario):
    # the FIG-5 pair: its cells are the 40-client runs this claim reads
    runs = scenario(throughput_scenario(40)).batch.results
    return {True: runs["throttled"], False: runs["unthrottled"]}


def test_claim_error_taxonomy(benchmark, results):
    benchmark.pedantic(lambda: results, rounds=1, iterations=1)
    print_banner("CLAIM-ERR: error taxonomy at 40 clients")
    kinds = sorted(set(results[True].error_counts)
                   | set(results[False].error_counts))
    rows = [(kind,
             results[True].error_counts.get(kind, 0),
             results[False].error_counts.get(kind, 0))
            for kind in kinds]
    rows.append(("TOTAL", results[True].failed, results[False].failed))
    rows.append(("completed", results[True].completed,
                 results[False].completed))
    rows.append(("degraded plans", results[True].degraded,
                 results[False].degraded))
    print(render_table(("error kind", "throttled", "unthrottled"), rows))

    throttled, unthrottled = results[True], results[False]
    # resource errors are reduced (dramatically)
    assert throttled.failed < unthrottled.failed / 2
    # the un-throttled failure mode is memory exhaustion
    oom_kinds = {"compile_oom", "execution_oom", "OutOfMemoryError"}
    unthrottled_oom = sum(unthrottled.error_counts.get(k, 0)
                          for k in oom_kinds)
    assert unthrottled_oom > unthrottled.failed * 0.8
    # completion rate improves
    t_rate = throttled.completed / max(
        1, throttled.completed + throttled.failed)
    u_rate = unthrottled.completed / max(
        1, unthrottled.completed + unthrottled.failed)
    assert t_rate > u_rate
