"""One workload, one pass, in this interpreter: set up, measure, check.

``run.py`` starts this module in a fresh child interpreter per
workload and pass.  Isolation is needed, not cosmetic: ``runner.py``
sweeps the garbage collector every fourth run and ``InlineExecutor``
carries a search pool across cells, so what a cell costs depends on
what ran before it in the process.  A fixed cell order in a fresh
process makes that dependence the same on every run.

Prints one JSON document as the last line of stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import resource
import statistics
import time
from time import perf_counter
from typing import List, Optional

from repro.experiments.executors import (CellExecutor, InlineExecutor,
                                         StreamExecutor, tasks_for_specs)
from repro.experiments.journal import journaled_executor
from repro.experiments.shards import canonical_document
from repro.results.warehouse import Warehouse
from repro.scenarios import run_scenarios
from repro.scenarios.facade import write_scenario_artifact

import layers
import panels
import probes
from tracer import Tracer


def _cell_key(result) -> tuple:
    cell = result.cell
    return (cell.scenario_id, cell.variant, cell.seed)


def _canonical(result) -> str:
    """The cell result with every execution-dependent field removed."""
    doc = result.to_doc()
    if "summary" in doc:
        # present only in the traced pass; canonical_document would
        # zero it, but the key itself must not tell the passes apart
        doc["summary"] = {key: value for key, value
                          in doc["summary"].items() if key != "snapshot"}
    return json.dumps(canonical_document(doc), sort_keys=True,
                      separators=(",", ":"))


def _digest(results) -> str:
    sha = hashlib.sha256()
    for result in sorted(results, key=_cell_key):
        sha.update(_canonical(result).encode("utf-8"))
        sha.update(b"\n")
    return sha.hexdigest()


def _sessions(result) -> float:
    """Sessions a cell offered: arrivals of an open-loop cell, clients
    of a closed-loop one, none for a render-only cell."""
    summary = result.summary
    if summary is None:
        return 0.0
    if "open_loop" in summary:
        return summary["open_loop"]["offered"]
    return float(summary["config"]["clients"])


class Recorder(CellExecutor):
    """Passes cells through ``inner``, keeping every result that goes by."""

    def __init__(self, inner: CellExecutor):
        self.inner = inner
        self.results: List = []

    def submit(self, tasks, progress=None):
        for result in self.inner.submit(tasks, progress=progress):
            self.results.append(result)
            yield result

    def close(self) -> None:
        self.inner.close()

    def cancel(self) -> None:
        self.inner.cancel()


def warm_up(selection) -> object:
    """Run the panel's first cell once, unmeasured, on its own executor
    (so its recorded searches do not pre-seed the measured cells)."""
    task = tasks_for_specs(selection[:1])[0]
    with InlineExecutor() as executor:
        return next(iter(executor.submit([task])))


def run_round(workload: str, seed: int, quick: bool, traced: bool,
              work_dir: str) -> dict:
    """Run the panel once; returns the round's facts and raw results."""
    selections = panels.build(workload, seed, quick)
    stream = workload == "harness-stream"
    journal_path = os.path.join(work_dir, "run.journal")
    artifact_dir = os.path.join(work_dir, "artifacts")
    checks: List[bool] = []

    def on_result(result) -> None:
        checks.extend(check.passed for check in result.checks)
        if stream:
            write_scenario_artifact(artifact_dir, result)

    started = perf_counter()
    if stream:
        inner = journaled_executor(StreamExecutor(spawn_workers=1),
                                   journal_path)
    else:
        inner = InlineExecutor()
    recorder = Recorder(inner)
    try:
        for selection in selections:
            run_scenarios(selection, executor=recorder, snapshot=traced,
                          on_result=on_result)
    finally:
        recorder.close()
    if stream:
        with Warehouse(os.path.join(work_dir, "warehouse.sqlite"),
                       create=True) as warehouse:
            # fixed identity: no `git` subprocess, same rows on any host
            warehouse.load(artifact_dir, git_sha="perf", host="perf")
    wall_s = perf_counter() - started

    facts = {"seed": seed, "wall_s": wall_s, "results": recorder.results,
             "checks_passed": sum(checks), "checks": len(checks),
             "journal_bytes": 0, "artifact_bytes": 0}
    if stream:
        facts["journal_bytes"] = os.path.getsize(journal_path)
        facts["artifact_bytes"] = sum(
            os.path.getsize(os.path.join(artifact_dir, name))
            for name in os.listdir(artifact_dir))
    return facts


def measure(args, warm_result, work_dir: str) -> dict:
    traced = bool(args.trace)
    tracer: Optional[Tracer] = None
    if traced:
        probed = probes.run_all(args.seed, work_dir)
        tracer = Tracer()
        tracer.install(layers.seams())
    rounds: List[dict] = []
    began = perf_counter()
    try:
        while True:
            index = len(rounds)
            round_dir = os.path.join(work_dir, f"round{index}")
            os.makedirs(round_dir)
            seed = args.seed + index * panels.ROUND_STRIDE
            with (tracer.span(layers.ROOT) if traced
                  else contextlib.nullcontext()):
                rounds.append(run_round(args.workload, seed, args.quick,
                                        traced, round_dir))
            elapsed = perf_counter() - began
            # another whole round only if it fits the measuring time; a
            # traced pass runs one, so its counts are exact for the seed
            if traced or elapsed + elapsed / len(rounds) > args.seconds:
                break
            gc.collect()
    finally:
        if tracer is not None:
            tracer.uninstall()

    results = [result for facts in rounds for result in facts["results"]]
    failed = {(_cell_key(result), index)
              for index, facts in enumerate(rounds)
              for result in facts["results"] if result.error is not None}
    # determinism: the warm-up cell, re-run as the first measured cell,
    # must come out byte for byte the same
    rerun = next(result for result in rounds[0]["results"]
                 if _cell_key(result) == _cell_key(warm_result))
    deterministic = _canonical(rerun) == _canonical(warm_result)
    if not deterministic:
        failed.add((_cell_key(rerun), 0))

    cell_walls = [result.wall_seconds for result in results]
    cell_wall_s = sum(cell_walls)
    cells = len(results)
    summaries = [result.summary for result in results
                 if result.summary is not None]
    first = [result.summary for result in rounds[0]["results"]
             if result.summary is not None]
    sessions = sum(_sessions(result) for result in results)
    measured_wall_s = sum(facts["wall_s"] for facts in rounds)
    doc = {
        "workload": args.workload, "seed": args.seed,
        "trace": int(traced), "quick": args.quick,
        "rounds": len(rounds),
        "attempted": cells, "failed": len(failed),
        "failed_cells": sorted(f"{key[0]}/{key[1]}#{key[2]}@round{index}"
                               for key, index in failed),
        "deterministic": deterministic,
        "sim_digest": _digest(rounds[0]["results"]),
        "round_digests": [_digest(facts["results"]) for facts in rounds],
        "checks_passed": sum(facts["checks_passed"] for facts in rounds),
        "checks": sum(facts["checks"] for facts in rounds),
        # simulated numbers: these repeat exactly for a given seed
        "counts": {
            "cells_per_round": len(rounds[0]["results"]),
            "sim_completed": sum(s["completed"] for s in first),
            "sim_failed": sum(s["failed"] for s in first),
            "sessions_offered": sum(_sessions(result)
                                    for result in rounds[0]["results"]),
        },
        "end_to_end": {
            "wall_s_per_cell": statistics.median(
                facts["wall_s"] / len(facts["results"]) for facts in rounds),
            "sessions_per_wall_s": sessions / measured_wall_s,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
        "detail": {
            "measured_wall_s": measured_wall_s,
            "cell_wall_s_sum": cell_wall_s,
            "cell_wall_s_p50": statistics.median(cell_walls),
            "cell_wall_s_max": max(cell_walls),
        },
    }
    if cells >= 100:
        # the highest percentile with ten samples beyond it
        doc["detail"]["cell_wall_s_p90"] = \
            statistics.quantiles(cell_walls, n=10)[-1]
    if tracer is not None:
        wall_s = tracer.total_s[layers.ROOT]
        per_layer = layers.derive(
            tracer, summaries, cells=cells, wall_s=wall_s,
            cell_wall_s=cell_wall_s,
            journal_bytes=sum(f["journal_bytes"] for f in rounds),
            artifact_bytes=sum(f["artifact_bytes"] for f in rounds))
        per_layer.update(probed)
        doc["per_layer"] = per_layer
    return doc


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, report when ready, and exit")
    args = parser.parse_args(argv)

    selection = panels.build(args.workload, args.seed, args.quick)[0]
    warm_result = warm_up(selection)
    if warm_result.error is not None:
        raise SystemExit(f"warm-up cell failed: {warm_result.error}")
    doc = {"ready_at": time.time()}
    if not args.setup_only:
        os.makedirs(args.work_dir, exist_ok=True)
        doc.update(measure(args, warm_result, args.work_dir))
    print(json.dumps(doc), flush=True)
    # skip interpreter teardown: freeing a paper-sweep heap takes
    # seconds and there is nothing left to clean up
    os._exit(0)


if __name__ == "__main__":
    main()
