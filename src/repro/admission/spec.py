"""The declarative admission axis: who gets a slot, and what must hold.

:class:`AdmissionSpec` rides on a
:class:`~repro.scenarios.spec.ScenarioSpec` (and on
:class:`~repro.experiments.runner.ExperimentConfig`) and selects the
:mod:`policy <repro.admission.policies>` arbitrating the open-loop
admission slots; :class:`SloSpec` declares latency objectives that are
evaluated against the run's ``open_loop`` fact block and surface as
pinned ``slo.*`` facts.  ``None`` (the default everywhere) means
"FIFO, no objectives" — which is what keeps every pre-existing
scenario byte-identical.

Both specs follow the :class:`~repro.traffic.spec.TrafficSpec`
contract: frozen, structurally comparable, JSON round-trippable, with
strict validation that rejects unknown fields and teaches the valid
choices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.errors import ConfigurationError
from repro.specdoc import SpecDocument, sorted_pairs

#: every registered admission policy (see ``repro.admission.policies``)
POLICY_NAMES = ("fifo", "weighted_fair")

#: SLO metrics evaluable against the ``open_loop`` fact block
SLO_METRICS = ("queue_wait", "sojourn")

#: SLO percentile points the fact block publishes
SLO_PERCENTILES = ("p50", "p90", "p99", "max")


def _weight_pairs(value) -> Tuple[Tuple[str, float], ...]:
    """Canonicalize a weight mapping (or pair sequence) to sorted
    tuples."""
    try:
        return sorted_pairs(value, float)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"admission weights must map tenant "
                                 f"names to numbers: {exc}") from exc


@dataclass(frozen=True)
class AdmissionSpec(SpecDocument, what="admission", always=("policy",)):
    """One fully-described admission policy.

    ``policy`` names the arbiter; ``weights`` gives per-tenant slot
    share weights and is rejected on any policy but ``weighted_fair``,
    the same way trace-only transforms are rejected on synthetic
    traffic (unlisted tenants weigh 1.0).  All-unit weights carry no
    differentiation and are pinned byte-identical to ``fifo``.
    """

    policy: str = "fifo"
    #: tenant -> weight, deep-frozen to sorted pairs (weighted_fair)
    weights: Tuple[Tuple[str, float], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "weights", _weight_pairs(self.weights))
        self._validate()

    def _validate(self) -> None:
        if self.policy not in POLICY_NAMES:
            raise ConfigurationError(
                f"unknown admission policy {self.policy!r}; valid "
                f"policies: {', '.join(POLICY_NAMES)}")
        if self.weights and self.policy != "weighted_fair":
            raise ConfigurationError(
                f"admission field 'weights' parameterizes the "
                f"'weighted_fair' policy; it does not apply to "
                f"{self.policy!r}")
        for tenant, weight in self.weights:
            if not tenant or weight <= 0:
                raise ConfigurationError(
                    f"admission weight for tenant {tenant!r} must be "
                    f"positive, got {weight!r}")

    # ------------------------------------------------------------ API
    def weights_dict(self) -> Dict[str, float]:
        return dict(self.weights)


@dataclass(frozen=True)
class SloTarget(SpecDocument, what="SLO target"):
    """One latency objective: a percentile of a fact must stay under
    ``max_value`` paper seconds, aggregate or for one tenant."""

    metric: str
    percentile: str
    max_value: float
    tenant: Optional[str] = None

    def __post_init__(self):
        if self.metric not in SLO_METRICS:
            raise ConfigurationError(
                f"unknown SLO metric {self.metric!r}; valid metrics: "
                f"{', '.join(SLO_METRICS)}")
        if self.percentile not in SLO_PERCENTILES:
            raise ConfigurationError(
                f"unknown SLO percentile {self.percentile!r}; valid "
                f"percentiles: {', '.join(SLO_PERCENTILES)}")
        if not isinstance(self.max_value, (int, float)) \
                or isinstance(self.max_value, bool) \
                or self.max_value <= 0:
            raise ConfigurationError(
                f"SLO max_value must be positive paper seconds, got "
                f"{self.max_value!r}")
        if self.tenant is not None:
            if not self.tenant:
                raise ConfigurationError("SLO tenant must be non-empty")
            if self.metric != "queue_wait":
                raise ConfigurationError(
                    "per-tenant SLO targets evaluate against the "
                    "per-tenant queue-wait percentiles; the fact block "
                    f"publishes no per-tenant {self.metric!r}")

    @property
    def key(self) -> str:
        """The ``open_loop`` fact this target evaluates against."""
        stem = f"{self.metric}_{self.percentile}"
        if self.tenant is not None:
            return f"tenant.{self.tenant}.{stem}"
        return stem


@dataclass(frozen=True)
class SloSpec(SpecDocument, what="slo"):
    """A set of latency objectives evaluated after every run."""

    targets: Tuple[SloTarget, ...] = ()

    def __post_init__(self):
        targets = tuple(
            target if isinstance(target, SloTarget)
            else SloTarget.from_dict(target) for target in self.targets)
        object.__setattr__(self, "targets", targets)
        if not targets:
            raise ConfigurationError("an SLO spec needs at least one "
                                     "target")
        seen = set()
        for target in targets:
            if target.key in seen:
                raise ConfigurationError(
                    f"duplicate SLO target for {target.key!r}")
            seen.add(target.key)
