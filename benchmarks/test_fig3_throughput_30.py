"""FIG3 — Figure 3 "Throughput - 30 clients".

Successful query completions per time slice, throttled vs
un-throttled, at the saturation client count.  The paper reports a
~35% throughput improvement and sustained 30–40 completions per slice;
we assert the *shape*: throttling wins by a clearly positive factor
and the throttled series is sustained (no collapse over time).
"""

import pytest

from repro.scenarios import throughput_scenario
from benchmarks.conftest import print_banner


@pytest.fixture(scope="module")
def figure(scenario):
    return scenario(throughput_scenario(30))


def test_fig3_throughput_30_clients(benchmark, figure):
    benchmark.pedantic(lambda: figure, rounds=1, iterations=1)
    print_banner("Figure 3: Successful Queries/Time (30 clients)")
    print(figure.body)

    throttled = figure.batch.results["throttled"]
    unthrottled = figure.batch.results["unthrottled"]
    improvement = figure.scenario_metrics["improvement"]
    # who wins: throttling, by a clearly positive factor (paper: ~+35%)
    assert improvement > 0.10, f"improvement {improvement:+.1%}"
    # reliability: the throttled server returns far fewer errors
    assert throttled.failed < unthrottled.failed / 2
    # sustained throughput: later buckets do not collapse vs earlier ones
    counts = [c for _, c in throttled.throughput]
    first_half = sum(counts[:len(counts) // 2])
    second_half = sum(counts[len(counts) - len(counts) // 2:])
    assert second_half > 0.5 * first_half
