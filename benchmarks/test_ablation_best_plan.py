"""ABL-BPSF — §4.1 extension (b): returning the best already-explored
plan instead of an out-of-memory error "allow[s] the system to better
handle low-memory conditions".
"""

import pytest

from repro.metrics.report import render_table
from repro.scenarios import best_plan_ablation_scenario
from benchmarks.conftest import print_banner


@pytest.fixture(scope="module")
def results(scenario):
    return scenario(best_plan_ablation_scenario(clients=40)).batch.results


def test_ablation_best_plan(benchmark, results):
    benchmark.pedantic(lambda: results, rounds=1, iterations=1)
    print_banner("ABL-BPSF: best-plan-so-far on/off (40 clients)")
    rows = [(label, r.completed, r.failed, r.degraded,
             r.error_counts.get("compile_oom", 0))
            for label, r in results.items()]
    print(render_table(
        ("variant", "completed", "errors", "degraded plans",
         "compile OOM"), rows))

    hard = results["hard_oom"]
    soft = results["best_plan"]
    # the extension converts compile OOM errors into degraded plans
    assert (soft.error_counts.get("compile_oom", 0)
            < max(1, hard.error_counts.get("compile_oom", 0)))
    assert soft.degraded > hard.degraded
    # and completes at least as many queries
    assert soft.completed >= hard.completed
