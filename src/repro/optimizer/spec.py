"""The declarative optimizer axis: which strategy runs each stage.

:class:`OptimizerSpec` rides on a
:class:`~repro.scenarios.spec.ScenarioSpec` (and on
:class:`~repro.experiments.runner.ExperimentConfig`) and names one
strategy per stage of the
:class:`~repro.optimizer.pipeline.OptimizerPipeline`:

    support pre-check -> join enumeration -> physical operator
    selection -> plan parameterization

``None`` (the default everywhere) means "the built-in pipeline" —
basic pre-check, memo enumeration, cost-based selection, estimate
pass-through — which is what keeps every pre-existing scenario
byte-identical.

The spec follows the :class:`~repro.admission.spec.AdmissionSpec`
contract: frozen, structurally comparable, JSON round-trippable, with
strict validation that rejects unknown fields and teaches the valid
choices.  This module imports only :mod:`repro.errors` so that
``repro.config`` and ``repro.scenarios.spec`` can depend on it without
pulling the whole optimizer package into their import graphs.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Tuple

from repro.errors import ConfigurationError

#: support pre-check strategies (see ``repro.optimizer.precheck``)
PRECHECK_NAMES: Tuple[str, ...] = ("basic",)

#: join-enumeration strategies (see ``repro.optimizer.enumeration``)
ENUMERATOR_NAMES: Tuple[str, ...] = ("memo", "ues")

#: operator-selection strategies (see ``repro.optimizer.selection``)
SELECTION_NAMES: Tuple[str, ...] = ("cost",)

#: plan-parameterization strategies
#: (see ``repro.optimizer.parameterization``)
PARAMETERIZATION_NAMES: Tuple[str, ...] = ("estimates",)

#: stage field -> valid strategy names, in pipeline order
STAGE_CHOICES = {
    "precheck": PRECHECK_NAMES,
    "enumerator": ENUMERATOR_NAMES,
    "selection": SELECTION_NAMES,
    "parameterization": PARAMETERIZATION_NAMES,
}


@dataclass(frozen=True)
class OptimizerSpec:
    """One fully-described optimizer pipeline configuration.

    Each field names the strategy driving one stage; the defaults
    reproduce the pre-pipeline monolithic optimizer byte for byte:

    * ``precheck`` — ``basic`` walks the bound tree and rejects
      unsupported operators before any memory is charged.
    * ``enumerator`` — ``memo`` is the staged Cascades-style search
      (stage-0 syntactic plan, budgeted exploration rounds); ``ues``
      is a greedy upper-bound-driven left-deep reorder with no
      exploration (far less work, far smaller memo).
    * ``selection`` — ``cost`` costs every candidate implementation
      and keeps the cheapest.
    * ``parameterization`` — ``estimates`` passes the winning plan's
      estimates through unchanged.

    Only ``enumerator`` has a choice; the three one-name stages stay
    fields because spec documents and artifacts name all four stages.
    """

    precheck: str = "basic"
    enumerator: str = "memo"
    selection: str = "cost"
    parameterization: str = "estimates"

    def __post_init__(self):
        self._validate()

    def _validate(self) -> None:
        for stage, valid in STAGE_CHOICES.items():
            value = getattr(self, stage)
            if value not in valid:
                raise ConfigurationError(
                    f"unknown optimizer {stage} strategy {value!r}; "
                    f"valid {stage} strategies: {', '.join(valid)}")

    # ------------------------------------------------------------ API
    def to_dict(self) -> dict:
        """The JSON-ready document form (every stage named)."""
        return {"precheck": self.precheck,
                "enumerator": self.enumerator,
                "selection": self.selection,
                "parameterization": self.parameterization}

    @classmethod
    def from_dict(cls, doc: dict) -> "OptimizerSpec":
        """Parse an optimizer document, rejecting unknown stages."""
        if not isinstance(doc, dict):
            raise ConfigurationError(
                f"optimizer must be a JSON object, got "
                f"{type(doc).__name__}")
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(doc) - known)
        if unknown:
            raise ConfigurationError(
                f"unknown optimizer stage(s) {', '.join(unknown)}; "
                f"valid stages: {', '.join(f.name for f in fields(cls))}")
        return cls(**doc)
