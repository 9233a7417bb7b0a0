"""The four workloads: which cells each one runs, and why.

A workload's *panel* is a fixed, ordered list of selections; each
selection is one ``run_scenarios`` submission.  The specs come from
``perf/workloads/*.json`` (frozen from the registry by ``freeze.py``)
and receive only the seed, so the program sees generated inputs and a
later retune of ``library.py`` does not move the benchmark.

Sizes are what fits the benchmark's time cap on a 2-core box (about
ten seconds of measured work per run); ISSUE 12 sized the same panels
3-4x larger and asks to keep the ratios when shrinking.
"""

from __future__ import annotations

import json
import os
from dataclasses import replace
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))

#: name -> one-line reason, in reporting order (BENCHMARK.json's
#: ``workloads`` list is this table)
WORKLOADS = {
    "paper-sweep": "closed loop, SALES ad-hoc joins at 30 and 40 clients, "
                   "throttled vs un-throttled: what a paper sweep costs; "
                   "the optimizer-bound workload",
    "open-flood": "open loop, Poisson flood where every query text is "
                  "seen once: what a scale scenario costs; front end "
                  "dominates and a text-keyed cache can only cost",
    "oltp-mix": "closed and open loop, small repeating templates and "
                "cheap compiles: kernel and broker work shows here, "
                "compile-path work should not",
    "harness-stream": "render-only and two-client cells through the "
                      "journaled stream executor, artifacts and "
                      "warehouse: the run surface itself",
}

#: round ``r`` of a run uses ``seed + r * ROUND_STRIDE``, so a repeat
#: round never re-runs inputs a process-wide cache has already seen
ROUND_STRIDE = 1000


def load_specs(workload: str) -> Dict[str, "ScenarioSpec"]:
    """The workload's frozen specs by scenario id."""
    from repro.scenarios import ScenarioSpec

    path = os.path.join(HERE, "workloads", f"{workload}.json")
    with open(path, encoding="utf-8") as fh:
        docs = json.load(fh)["specs"]
    return {doc["scenario_id"]: ScenarioSpec.from_dict(doc) for doc in docs}


def build(workload: str, seed: int, quick: bool) -> List[List]:
    """The panel of ``workload`` at ``seed``: a list of selections."""
    specs = load_specs(workload)

    def at(scenario_id: str, offset: int = 0):
        return specs[scenario_id].customized(seed=seed + offset)

    if workload == "paper-sweep":
        figures = ("fig3",) if quick else ("fig3", "fig5")
        return [[at(name) for name in figures]]
    if workload == "open-flood":
        # one cell per selection: the same scenario at consecutive seeds
        if quick:
            return [[at("scale-flood-150", offset)] for offset in range(2)]
        return [[at("scale-flood-700", offset)] for offset in range(3)]
    if workload == "oltp-mix":
        names = ("mixed-rush", "fairness-noisy", "burst-noisy")
        return [[at(name, offset) for name in names]
                for offset in range(1 if quick else 3)]
    if workload == "harness-stream":
        monitors, oltp = (20, 2) if quick else (150, 9)
        # ids are what distinguish cells on the wire and in the journal
        selection = [replace(at("fig1"), scenario_id=f"monitors-{i:03d}")
                     for i in range(monitors)]
        selection += [replace(at("oltp-2c", i), scenario_id=f"oltp-2c-{i:02d}")
                      for i in range(oltp)]
        return [selection]
    raise ValueError(f"unknown workload {workload!r}; valid workloads: "
                     f"{', '.join(WORKLOADS)}")
