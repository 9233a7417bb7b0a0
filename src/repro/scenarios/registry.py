"""The scenario registry.

Built-in scenarios (``repro.scenarios.library``) and user code register
:class:`~repro.scenarios.spec.ScenarioSpec` values here; ``repro
scenarios run`` (the one CLI command that runs a selection) and the
test suite enumerate them.  Ids are unique — re-registering an id is a
hard error so two harnesses can never silently disagree about what a
scenario means.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.errors import ConfigurationError
from repro.scenarios.spec import ScenarioSpec

_REGISTRY: Dict[str, ScenarioSpec] = {}


def register_scenario(spec: ScenarioSpec) -> ScenarioSpec:
    """Register one spec; returns it so builders can chain.

    Also usable as a decorator on a zero-argument builder function::

        @register_scenario
        def my_scenario() -> ScenarioSpec:
            return ScenarioSpec(...)
    """
    if callable(spec) and not isinstance(spec, ScenarioSpec):
        built = spec()
        register_scenario(built)
        return spec
    if not isinstance(spec, ScenarioSpec):
        raise ConfigurationError(
            f"register_scenario needs a ScenarioSpec, "
            f"got {type(spec).__name__}")
    if spec.scenario_id in _REGISTRY:
        raise ConfigurationError(
            f"scenario {spec.scenario_id!r} is already registered")
    _REGISTRY[spec.scenario_id] = spec
    return spec


def unregister_scenario(scenario_id: str) -> None:
    """Remove one registration (tests use this to stay hermetic)."""
    _REGISTRY.pop(scenario_id, None)


def get_scenario(scenario_id: str) -> ScenarioSpec:
    """Look one registered spec up by id.

    Raises :class:`ConfigurationError` naming the registered ids when
    the id is unknown (typos teach the catalogue).
    """
    try:
        return _REGISTRY[scenario_id]
    except KeyError:
        raise ConfigurationError(
            f"unknown scenario {scenario_id!r}; registered scenarios: "
            f"{', '.join(sorted(_REGISTRY))}") from None


def list_scenarios(family: Optional[str] = None) -> List[ScenarioSpec]:
    """Registered specs, ordered by (family, id)."""
    specs = [s for s in _REGISTRY.values()
             if family is None or s.family == family]
    return sorted(specs, key=lambda s: (s.family, s.scenario_id))


def scenario_ids() -> List[str]:
    """All registered scenario ids, sorted."""
    return sorted(_REGISTRY)


def scenario_families() -> List[str]:
    """All families with at least one registered scenario, sorted."""
    return sorted({s.family for s in _REGISTRY.values()})
