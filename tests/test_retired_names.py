"""Retired layers stay retired.

Each row names one deleted layer, the commit that deleted it, a
regular expression of the names it left behind and the paths that
must not mention them again (this file excepted, since it spells the
names out).  ``tests/`` is left out of a row where tests still name the
retired values as inputs the validators must reject.
"""

import os
import re

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

THIS_FILE = os.path.abspath(__file__)

WIDE = ("src", "tests", "benchmarks", "docs", "README.md")
NO_BENCHMARKS = ("src", "tests", "docs", "README.md")

#: (what went, the commit that removed it, pattern, paths searched)
RETIRED = [
    ("process-pool executor", "ce14ca3",
     r"ExperimentEngine|PoolExecutor|stream-workers|executor pool", WIDE),
    ("deleted axis value classes", "04f3914",
     r"TenantQuotaPolicy|TokenBucketPolicy|ParetoArrivals|DiurnalArrivals"
     r"|HeuristicSelection|PaddedParameterization|NoPreCheck", WIDE),
    ("deleted axis value names", "04f3914",
     r"tenant_quota|token_bucket", ("src", "docs", "README.md")),
    ("removed run commands and cost scheduler", "772aa37",
     r"CellScheduler|order_tasks|heuristic_cost|history_from_"
     r"|experiment_suite_specs|EXPERIMENT_SUITES|--order|--warehouse"
     r"|workers serve|repro (figure|sweep|ablation|experiments|monitors)\b",
     WIDE),
    ("shard subsystem", "b3acfc1",
     r"shards run|shards merge|shards plan|BENCH_shard|ShardPlan"
     r"|rebuild_scenario_payload", ("src", "docs", "README.md")),
    ("session and gateway tables", "1e3bc4e",
     r"SessionTable|GatewayTable|GatewayStatsView|OpenLoopStatsView"
     r"|OUTCOME_NAMES|repro\.sim\.state", NO_BENCHMARKS),
    ("regression radar", "3ff2efc",
     r"results\.radar|results (trend|radar)|DEFAULT_REGRESSION_THRESHOLD"
     r"|wall_seconds_percentiles\(|scenario_percentiles|regression-radar",
     NO_BENCHMARKS),
    ("TCP listener", "8df8358",
     r"workers join|--bind|parse_address|ACCEPT_THREAD_NAME|WIRE_PROTOCOL"
     r"|create_connection|0\.0\.0\.0", NO_BENCHMARKS),
    ("calendar-queue kernel", "023e079",
     r"EventWheel|KERNEL_NAMES|_run_wheel|repro\.sim\.wheel|kernel=",
     ("src", "tests")),
    ("pre-registry harness", "c44c500",
     r"time_scale|\.scaled\(|throughput_figure|ablate_|AblationResult"
     r"|ABLATION_SCENARIOS|experiments\.ablations|only_toggles_throttling"
     r"|def is_noop",
     ("src", "tests", "benchmarks", "examples", "docs", "README.md")),
]


def searched_files(paths):
    for path in paths:
        path = os.path.join(REPO, path)
        if os.path.isfile(path):
            yield path
            continue
        for root, dirs, files in os.walk(path):
            dirs[:] = [d for d in dirs if d != "__pycache__"
                       and not d.endswith(".egg-info")]
            for name in files:
                yield os.path.join(root, name)


@pytest.mark.parametrize("what,commit,pattern,paths", RETIRED,
                         ids=[row[0] for row in RETIRED])
def test_retired_names_stay_gone(what, commit, pattern, paths):
    regex = re.compile(pattern)
    hits = []
    for path in searched_files(paths):
        if os.path.abspath(path) == THIS_FILE:
            continue
        with open(path, encoding="utf-8", errors="replace") as fh:
            for number, line in enumerate(fh, start=1):
                if regex.search(line):
                    hits.append(f"{os.path.relpath(path, REPO)}:{number}: "
                                f"{line.strip()}")
    assert not hits, (f"the {what} removed in {commit} is named again:\n"
                      + "\n".join(hits))
