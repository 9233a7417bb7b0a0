"""Benchmark harness configuration.

Every benchmark prints the series/rows of the paper artifact it
regenerates.  ``REPRO_PRESET`` selects fidelity: the default "smoke"
keeps the whole suite in minutes; "scaled" is the EXPERIMENTS.md
setting; "paper" replays the full 8-hour run (slow).
"""

from __future__ import annotations

import os

import pytest

#: preset used by throughput benchmarks (see repro.experiments.PRESETS)
PRESET = os.environ.get("REPRO_PRESET", "smoke")
#: seed shared by all benchmark runs
SEED = int(os.environ.get("REPRO_SEED", "3"))
#: worker processes for benchmarks that fan cells out (1 = inline)
WORKERS = int(os.environ.get("REPRO_WORKERS", "1"))
#: when set, a BENCH_benchmarks.json artifact is written there
BENCH_DIR = os.environ.get("REPRO_BENCH_DIR", "")


@pytest.fixture(scope="session")
def scenario():
    """``scenario(spec)`` runs ``spec`` at the session's preset, seed
    and worker count and returns its
    :class:`~repro.scenarios.ScenarioResult`.  Each scenario runs once
    per session, however many benchmarks read it."""
    from repro.scenarios import run_scenario

    runs = {}

    def run(spec):
        spec = spec.customized(preset=PRESET, seed=SEED)
        if spec not in runs:
            result = run_scenario(spec, workers=WORKERS)
            if result.batch.errors:
                failures = ", ".join(f"{k}: {v}" for k, v
                                     in result.batch.errors.items())
                raise RuntimeError(
                    f"scenario {spec.scenario_id!r} had failing runs: "
                    f"{failures}")
            runs[spec] = result
        return runs[spec]

    return run


def print_banner(title: str) -> None:
    print()
    print("=" * 72)
    print(title)
    print("=" * 72)


# -- CI artifact: per-benchmark outcomes and durations --------------------
_REPORTS: list = []


def pytest_runtest_logreport(report) -> None:
    # the hook is session-global once this conftest loads; a whole-repo
    # run must not leak unit-test nodeids into the benchmark artifact.
    # Setup-phase errors are recorded too: module-scoped fixtures do
    # the heavy lifting here, and a fixture crash would otherwise
    # leave no trace of the benchmark in the artifact.
    if not report.nodeid.startswith("benchmarks/"):
        return
    if report.when == "call" or (report.when == "setup"
                                 and report.outcome != "passed"):
        _REPORTS.append({
            "test": report.nodeid,
            "outcome": ("error" if report.when == "setup"
                        else report.outcome),
            "duration_seconds": round(report.duration, 3),
        })


def pytest_sessionfinish(session, exitstatus) -> None:
    """Write ``BENCH_benchmarks.json`` when REPRO_BENCH_DIR is set.

    Written even with an empty report list, so CI consumers can tell
    "nothing ran" apart from "artifact step never executed".
    """
    if not BENCH_DIR:
        return
    from repro.experiments.runner import write_bench_document

    write_bench_document(BENCH_DIR, "benchmarks", {
        "preset": PRESET,
        "seed": SEED,
        "exit_status": int(exitstatus),
        "tests": sorted(_REPORTS, key=lambda r: r["test"]),
    })
