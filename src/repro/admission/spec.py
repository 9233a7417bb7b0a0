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

from dataclasses import dataclass, fields
from typing import Dict, Optional, Tuple

from repro.errors import ConfigurationError

#: every registered admission policy (see ``repro.admission.policies``)
POLICY_NAMES = ("fifo", "weighted_fair")

#: SLO metrics evaluable against the ``open_loop`` fact block
SLO_METRICS = ("queue_wait", "sojourn")

#: SLO percentile points the fact block publishes
SLO_PERCENTILES = ("p50", "p90", "p99", "max")


def _weight_pairs(value) -> Tuple[Tuple[str, float], ...]:
    """Canonicalize a weight mapping (or pair sequence) to sorted
    tuples."""
    if isinstance(value, dict):
        value = value.items()
    try:
        return tuple(sorted((str(key), float(item))
                            for key, item in value))
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"admission weights must map tenant "
                                 f"names to numbers: {exc}") from exc


@dataclass(frozen=True)
class AdmissionSpec:
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

    def to_dict(self) -> dict:
        """The JSON-ready document form (defaults omitted)."""
        doc: dict = {"policy": self.policy}
        if self.weights:
            doc["weights"] = {t: w for t, w in self.weights}
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "AdmissionSpec":
        """Parse an admission document, rejecting unknown fields."""
        if not isinstance(doc, dict):
            raise ConfigurationError(
                f"admission must be a JSON object, got "
                f"{type(doc).__name__}")
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(doc) - known)
        if unknown:
            raise ConfigurationError(
                f"unknown admission field(s) {', '.join(unknown)}; "
                f"valid fields: {', '.join(sorted(known))}")
        return cls(**doc)


@dataclass(frozen=True)
class SloTarget:
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

    def to_dict(self) -> dict:
        doc: dict = {"metric": self.metric,
                     "percentile": self.percentile,
                     "max_value": self.max_value}
        if self.tenant is not None:
            doc["tenant"] = self.tenant
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "SloTarget":
        if not isinstance(doc, dict):
            raise ConfigurationError(
                f"SLO target must be a JSON object, got "
                f"{type(doc).__name__}")
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(doc) - known)
        if unknown:
            raise ConfigurationError(
                f"unknown SLO target field(s) {', '.join(unknown)}; "
                f"valid fields: {', '.join(sorted(known))}")
        return cls(**doc)


@dataclass(frozen=True)
class SloSpec:
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

    def to_dict(self) -> dict:
        return {"targets": [target.to_dict() for target in self.targets]}

    @classmethod
    def from_dict(cls, doc: dict) -> "SloSpec":
        if not isinstance(doc, dict):
            raise ConfigurationError(
                f"slo must be a JSON object, got {type(doc).__name__}")
        unknown = sorted(set(doc) - {"targets"})
        if unknown:
            raise ConfigurationError(
                f"unknown slo field(s) {', '.join(unknown)}; the only "
                f"valid field is 'targets'")
        targets = doc.get("targets", [])
        if not isinstance(targets, (list, tuple)):
            raise ConfigurationError("slo targets must be a list")
        return cls(targets=tuple(SloTarget.from_dict(item)
                                 for item in targets))
