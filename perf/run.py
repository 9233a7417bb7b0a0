#!/usr/bin/env python3
"""The repository benchmark: four workloads, end-to-end and per-layer.

    python perf/run.py --seed 3
        every workload, untraced (end-to-end metrics) then traced
        (per-layer metrics), each pass in a fresh child interpreter;
        prints every metric by name and unit, checks outputs, and
        writes one JSON result (``--out``, default perf/.out/).

    python perf/run.py --workload NAME --seed N --seconds S --trace 0|1
        one workload, one pass: the form BENCHMARK.json's driver runs.
        The last line of stdout is the result object.

    python perf/run.py --compare A.json B.json
        one row per workload x end-to-end metric of two results.

See perf/README.md for the workloads, the metrics and how to read them.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import compare  # noqa: E402
import layers  # noqa: E402
import panels  # noqa: E402

#: child interpreters set up per run; ``setup_s`` is their median
SETUPS = 3
#: a child that has not finished by then is killed and the run fails
CHILD_TIMEOUT_S = 170.0

END_TO_END_UNITS = {"setup_s": "s", "wall_s_per_cell": "s",
                    "sessions_per_wall_s": "1/s", "peak_rss_mb": "MB"}


def load_contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _spawn(arguments: List[str]) -> tuple:
    """Run one child to completion; returns (spawned_at, its document)."""
    env = dict(os.environ)
    source = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = source + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    command = [sys.executable, os.path.join(HERE, "cell_runner.py")]
    spawned_at = time.time()
    # its own process group, so a timeout also stops the stream
    # executor's worker the child spawned
    child = subprocess.Popen(command + arguments, env=env,
                             stdout=subprocess.PIPE, text=True,
                             start_new_session=True)
    try:
        stdout, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        raise SystemExit(f"perf: child timed out after {CHILD_TIMEOUT_S:.0f}s"
                         f": {' '.join(arguments)}")
    if child.returncode != 0:
        raise SystemExit(f"perf: child exited with code {child.returncode}: "
                         f"{' '.join(arguments)}")
    return spawned_at, json.loads(stdout.strip().splitlines()[-1])


def run_pass(workload: str, seed: int, seconds: float, trace: int,
             quick: bool) -> dict:
    """One workload, one pass: set up several times, measure once."""
    work_dir = os.path.join(HERE, ".work",
                            f"{os.getpid()}-{workload}-{trace}")
    arguments = ["--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace),
                 "--work-dir", work_dir]
    if quick:
        arguments.append("--quick")
    setups = []
    try:
        for _ in range(0 if quick else SETUPS - 1):
            spawned_at, doc = _spawn(arguments + ["--setup-only"])
            setups.append(doc["ready_at"] - spawned_at)
        spawned_at, doc = _spawn(arguments)
        setups.append(doc["ready_at"] - spawned_at)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    doc["end_to_end"]["setup_s"] = statistics.median(setups)
    doc["detail"]["setup_samples_s"] = setups
    del doc["ready_at"]
    return doc


def passed(doc: dict) -> bool:
    return doc["failed"] == 0 and doc["deterministic"]


# ------------------------------------------------------------- printing
def _print_metrics(title: str, values: Dict[str, float],
                   units: Dict[str, str]) -> None:
    print(title)
    for name, unit in units.items():
        print(f"  {name:<42} {values[name]:>16.6g} {unit}")


def print_pass(doc: dict) -> None:
    print(f"== {doc['workload']} seed={doc['seed']} "
          f"{'traced' if doc['trace'] else 'untraced'}"
          f"{' quick' if doc['quick'] else ''}: {doc['attempted']} cells in "
          f"{doc['rounds']} round(s), {doc['failed']} failed "
          f"(failed_share {doc['failed'] / doc['attempted']:.3f}), "
          f"checks_passed {doc['checks_passed']}/{doc['checks']}")
    print(f"  sim_digest {doc['sim_digest']}")
    for cell in doc["failed_cells"]:
        print(f"  FAILED {cell}")
    if doc["trace"]:
        _print_metrics("  per-layer (traced pass; _s is self time):",
                       doc["per_layer"], dict(layers.PER_LAYER))
    else:
        print(f"  n_cells {doc['attempted']}")
        _print_metrics("  end-to-end (untraced pass):",
                       doc["end_to_end"], END_TO_END_UNITS)
        for name, value in sorted(doc["detail"].items()):
            print(f"  {name:<42} {value}")


def contract_line(doc: dict) -> str:
    """The driver's result object for one pass."""
    if doc["trace"]:
        values, units = doc["per_layer"], dict(layers.PER_LAYER)
    else:
        values, units = doc["end_to_end"], END_TO_END_UNITS
    return json.dumps({
        "correct": passed(doc),
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    })


# ------------------------------------------------------------ full runs
def full_run(workloads: List[str], seed: int, seconds: float, quick: bool,
             repeat: int, out: Optional[str]) -> int:
    result = {"seed": seed, "seconds": seconds, "quick": quick,
              "workloads": {}}
    ok = True
    for workload in workloads:
        untraced = [run_pass(workload, seed, seconds, 0, quick)
                    for _ in range(repeat)]
        traced = run_pass(workload, seed, seconds, 1, quick)
        print_pass(untraced[0])
        print_pass(traced)
        ratio = traced["per_layer"]["trace.wall_s_per_cell"] \
            / statistics.median(doc["end_to_end"]["wall_s_per_cell"]
                                for doc in untraced)
        # tracing may not perturb the simulation, nor one run another
        same = len({doc["sim_digest"] for doc in untraced + [traced]}) == 1
        print(f"  trace_overhead_ratio {ratio:.3f} (traced wall / untraced "
              f"wall)\n  digests {'match' if same else 'DIFFER'} across "
              f"{repeat} untraced and 1 traced pass")
        ok = ok and same and all(map(passed, untraced + [traced]))
        entry = dict(untraced[0])
        entry["end_to_end_samples"] = {
            name: [doc["end_to_end"][name] for doc in untraced]
            for name in END_TO_END_UNITS}
        entry["per_layer"] = traced["per_layer"]
        entry["trace_overhead_ratio"] = ratio
        entry["digests_match"] = same
        entry["traced_failed"] = traced["failed"]
        result["workloads"][workload] = entry
    result["ok"] = ok
    out = out or os.path.join(HERE, ".out", f"result-seed{seed}.json")
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{'OK' if ok else 'FAILED'}: wrote {out}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", action="append",
                        choices=list(panels.WORKLOADS),
                        help="run only this workload (repeatable)")
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--seconds", type=float,
                        help="measure for about this long: whole rounds of "
                             "the panel, at least one (default: "
                             "BENCHMARK.json's run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="one pass only: 0 end-to-end, 1 per-layer; "
                             "prints the driver's result object last")
    parser.add_argument("--quick", action="store_true",
                        help="smoke size: small panels, one round, one "
                             "set-up")
    parser.add_argument("--repeat", type=int, default=1,
                        help="untraced passes per workload in a full run, "
                             "so --compare has a spread to judge by")
    parser.add_argument("--out", help="where a full run writes its JSON")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)

    contract = load_contract()
    if args.compare:
        return compare.main(args.compare[0], args.compare[1], contract)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perf: no program to measure: {ROOT}/src/repro is missing",
              file=sys.stderr)
        return 2
    seconds = args.seconds
    if seconds is None:
        seconds = 0.0 if args.quick else float(contract["run_seconds"])
    if args.trace is not None:
        if not args.workload or len(args.workload) != 1:
            parser.error("--trace takes exactly one --workload")
        doc = run_pass(args.workload[0], args.seed, seconds, args.trace,
                       args.quick)
        print_pass(doc)
        print(contract_line(doc))
        return 0
    return full_run(args.workload or list(panels.WORKLOADS), args.seed,
                    seconds, args.quick, args.repeat, args.out)


if __name__ == "__main__":
    sys.exit(main())
