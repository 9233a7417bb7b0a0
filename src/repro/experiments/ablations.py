"""Ablations of the design choices the paper reports tuning (§4.1).

* gateway count — "Experimental analysis showed that dividing query
  compilations into four memory usage categories gives the best
  balance";
* static vs dynamic thresholds (extension a);
* best-plan-so-far vs hard out-of-memory failures (extension b).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Tuple

from repro.config import (
    GatewayConfig,
    ServerConfig,
    default_gateways,
    paper_server_config,
)
from repro.experiments.runner import ExperimentResult


def gateway_ladder(count: int) -> Tuple[GatewayConfig, ...]:
    """The first ``count`` monitors of the default ladder (0 = throttle
    disabled entirely)."""
    if not 0 <= count <= 3:
        raise ValueError("gateway count must be 0..3")
    return default_gateways()[:count]


def config_with_gateways(count: int) -> ServerConfig:
    """A paper config restricted to ``count`` monitors."""
    base = paper_server_config(throttling=count > 0)
    if count == 0:
        return base
    throttle = replace(base.throttle, gateways=gateway_ladder(count))
    return replace(base, throttle=throttle)


def config_with_dynamic(dynamic: bool) -> ServerConfig:
    base = paper_server_config(throttling=True)
    return replace(base, throttle=replace(base.throttle,
                                          dynamic_thresholds=dynamic))


def config_with_best_plan(enabled: bool) -> ServerConfig:
    base = paper_server_config(throttling=True)
    return replace(base, throttle=replace(base.throttle,
                                          best_plan_so_far=enabled))


@dataclass
class AblationResult:
    """One ablation sweep: variant label -> run result."""

    name: str
    results: Dict[str, ExperimentResult]

    def completions(self) -> Dict[str, int]:
        return {label: r.completed for label, r in self.results.items()}

    def errors(self) -> Dict[str, int]:
        return {label: r.failed for label, r in self.results.items()}


def _run_scenario_ablation(name: str, spec, workers: int) -> AblationResult:
    """Run one ablation scenario through the facade.

    With ``workers > 1`` the variants fan out across spawned worker
    processes; the result dict always preserves the variant
    declaration order.
    """
    from repro.scenarios import run_scenario

    scenario = run_scenario(spec, workers=workers)
    batch = scenario.batch
    if batch.errors:
        failures = ", ".join(f"{k}: {v}" for k, v in batch.errors.items())
        raise RuntimeError(f"ablation {name!r} had failing runs: {failures}")
    results = {variant.name: batch.results[variant.name]
               for variant in spec.variants}
    return AblationResult(name=name, results=results)


def gateway_variants() -> Dict[str, ServerConfig]:
    return {f"{n}_monitors": config_with_gateways(n) for n in (0, 1, 2, 3)}


def dynamic_variants() -> Dict[str, ServerConfig]:
    return {
        "static": config_with_dynamic(False),
        "dynamic": config_with_dynamic(True),
    }


def best_plan_variants() -> Dict[str, ServerConfig]:
    return {
        "hard_oom": config_with_best_plan(False),
        "best_plan": config_with_best_plan(True),
    }


def ablate_gateway_count(clients: int = 30, preset: str = "smoke",
                         seed: int = 1, workers: int = 1) -> AblationResult:
    """ABL-GATES: 0, 1, 2 and 3 monitors (scenario shim)."""
    from repro.scenarios import gateway_ablation_scenario

    return _run_scenario_ablation(
        "gateway_count",
        gateway_ablation_scenario(clients=clients, preset=preset,
                                  seed=seed),
        workers=workers)


def ablate_dynamic_thresholds(clients: int = 35, preset: str = "smoke",
                              seed: int = 1,
                              workers: int = 1) -> AblationResult:
    """ABL-DYN: static vs broker-driven thresholds (scenario shim)."""
    from repro.scenarios import dynamic_ablation_scenario

    return _run_scenario_ablation(
        "dynamic_thresholds",
        dynamic_ablation_scenario(clients=clients, preset=preset,
                                  seed=seed),
        workers=workers)


def ablate_best_plan(clients: int = 40, preset: str = "smoke",
                     seed: int = 1, workers: int = 1) -> AblationResult:
    """ABL-BPSF: best-plan-so-far on/off (scenario shim)."""
    from repro.scenarios import best_plan_ablation_scenario

    return _run_scenario_ablation(
        "best_plan_so_far",
        best_plan_ablation_scenario(clients=clients, preset=preset,
                                    seed=seed),
        workers=workers)

