"""Declarative scenarios: one spec type for every experiment surface.

``ScenarioSpec`` (spec), the registry (``register_scenario`` /
``get_scenario`` / ``list_scenarios``) and the ``run_scenario`` facade
are the public API; importing this package also registers the built-in
scenario catalogue (``repro.scenarios.library``).
"""

from repro.scenarios.spec import (
    SPEC_FORMAT_VERSION,
    ConfigOverrides,
    Expectation,
    ScenarioSpec,
    VariantSpec,
)
from repro.scenarios.registry import (
    get_scenario,
    list_scenarios,
    register_scenario,
    scenario_families,
    scenario_ids,
    unregister_scenario,
)
from repro.scenarios.facade import (
    CheckOutcome,
    ScenarioResult,
    evaluate_expectations,
    jobs_for_scenario,
    load_scenario_file,
    metrics_from_summary,
    result_from_summary,
    result_metrics,
    run_cell_scenario,
    run_scenario,
    run_scenarios,
    scenario_artifact_name,
    scenario_payload,
    scenario_result_from_cells,
    write_scenario_artifact,
)
from repro.scenarios.library import (
    best_plan_ablation_scenario,
    dynamic_ablation_scenario,
    flash_crowd_scenario,
    gateway_ablation_scenario,
    noisy_neighbor_scenario,
    saturation_scenario,
    throughput_scenario,
)
from repro.traffic.spec import TrafficSpec

__all__ = [
    "CheckOutcome",
    "ConfigOverrides",
    "Expectation",
    "SPEC_FORMAT_VERSION",
    "ScenarioResult",
    "ScenarioSpec",
    "TrafficSpec",
    "VariantSpec",
    "best_plan_ablation_scenario",
    "dynamic_ablation_scenario",
    "evaluate_expectations",
    "flash_crowd_scenario",
    "gateway_ablation_scenario",
    "noisy_neighbor_scenario",
    "get_scenario",
    "jobs_for_scenario",
    "list_scenarios",
    "load_scenario_file",
    "metrics_from_summary",
    "register_scenario",
    "result_from_summary",
    "result_metrics",
    "run_cell_scenario",
    "run_scenario",
    "run_scenarios",
    "saturation_scenario",
    "scenario_artifact_name",
    "scenario_families",
    "scenario_ids",
    "scenario_payload",
    "scenario_result_from_cells",
    "throughput_scenario",
    "unregister_scenario",
    "write_scenario_artifact",
]
