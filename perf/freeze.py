"""Write ``perf/workloads/*.json`` from the scenario registry.

Run once, at the commit that defined the benchmark; the JSON files are
what the benchmark loads from then on, so retuning a registered
scenario in ``library.py`` does not move the benchmark.  Kept for
provenance: it records which registry entries (and which builder
arguments) each frozen document came from.  Re-running it redefines
the benchmark and invalidates every earlier baseline.

    PYTHONPATH=src python perf/freeze.py
"""

from __future__ import annotations

import json
import os

from repro.scenarios import ScenarioSpec, get_scenario
from repro.scenarios.library import scale_flood_scenario

HERE = os.path.dirname(os.path.abspath(__file__))

#: session slots of the flood cell: full size and ``--quick`` size
FLOOD_SLOTS = (700, 150)


def _doc(spec: ScenarioSpec) -> dict:
    doc = spec.to_dict()
    # ROADMAP may delete the kernel axis; kernels pop events in the
    # identical order, so the frozen cells run on whatever the default is
    doc.pop("kernel", None)
    return ScenarioSpec.from_dict(doc).to_dict()


def _flood(slots: int) -> dict:
    doc = _doc(scale_flood_scenario(sessions=slots))
    doc["scenario_id"] = f"scale-flood-{slots}"
    return doc


def _oltp_2c() -> dict:
    return _doc(ScenarioSpec(
        scenario_id="oltp-2c", title="Two-client OLTP cell",
        family="harness", workload="oltp", clients=2, preset="smoke",
        description="A cell that simulates little, so the run surface "
                    "around it dominates."))


WORKLOADS = {
    "paper-sweep": lambda: [_doc(get_scenario(name))
                            for name in ("fig3", "fig5")],
    "open-flood": lambda: [_flood(slots) for slots in FLOOD_SLOTS],
    "oltp-mix": lambda: [_doc(get_scenario(name)) for name in
                         ("mixed-rush", "fairness-noisy", "burst-noisy")],
    "harness-stream": lambda: [_doc(get_scenario("fig1")), _oltp_2c()],
}


def main() -> None:
    out_dir = os.path.join(HERE, "workloads")
    os.makedirs(out_dir, exist_ok=True)
    for name, build in WORKLOADS.items():
        docs = build()
        for doc in docs:  # the frozen form must load back unchanged
            assert ScenarioSpec.from_dict(doc).to_dict() == doc, \
                doc["scenario_id"]
        path = os.path.join(out_dir, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"workload": name, "specs": docs}, fh, indent=1,
                      sort_keys=True)
            fh.write("\n")
        print(f"wrote {path} ({len(docs)} specs)")


if __name__ == "__main__":
    main()
