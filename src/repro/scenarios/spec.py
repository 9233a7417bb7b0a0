"""The declarative scenario specification.

A :class:`ScenarioSpec` is the one currency every experiment surface
consumes: the CLI (``repro scenarios …`` and the legacy ``figure`` /
``sweep`` / ``ablation`` / ``experiments`` commands), the cell
executors, the benchmark suite and user-authored JSON files all
describe a run as one frozen, validated, round-trippable value.  Adding a scenario is a data
change, not a code change.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, fields, replace
from typing import Dict, Optional, Tuple

from repro.admission.spec import AdmissionSpec, SloSpec
from repro.config import ServerConfig, default_gateways, paper_server_config
from repro.errors import ConfigurationError
from repro.optimizer.spec import OptimizerSpec
from repro.traffic.spec import TrafficSpec

#: version of the JSON spec format.  ``ScenarioSpec.to_dict`` stamps
#: it; ``from_dict`` accepts documents of this and every older version
#: (a missing version means version 1, predating versioning) and
#: rejects versions from the future so an old build never silently
#: misreads a newer spec file.
#: History: 1 = the PR 2 format; 2 = cross-variant expectations
#: (``than_variant``, ``value`` optional); 3 = the open-loop
#: ``traffic`` axis; 4 = the ``kernel`` knob (a choice of simulation
#: scheduler core), since removed: nothing writes version 4 any more,
#: and a version-4 document's ``kernel`` key is dropped on read;
#: 5 = the ``admission`` / ``slo`` axes (policy-driven admission
#: control and latency objectives); 6 = the ``optimizer`` axis
#: (pipeline stage strategies).
#: Documents are stamped with the *minimal* version able to read them
#: (a spec without a traffic axis is still a version-2 document; one
#: without admission policies or SLOs needs at most version 3; one
#: without an optimizer axis needs at most version 5), so pre-existing
#: scenarios keep producing byte-identical artifacts and stay readable
#: by older builds.
SPEC_FORMAT_VERSION = 6

#: the values the removed ``kernel`` knob took; documents written
#: with either still parse, and the key is dropped
_RETIRED_KERNELS = ("legacy", "wheel")

#: comparison operators an Expectation may use
EXPECTATION_OPS = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "==": operator.eq,
    "!=": operator.ne,
}

#: what a scenario *is*: a batch of runs, a configuration rendering
#: (Figure 1's monitor ladder) or a compilation-memory trace (Figure 2)
SCENARIO_KINDS = ("experiment", "monitors", "trace")

#: how an experiment scenario renders its batch
RENDER_STYLES = ("table", "comparison", "monitors", "trace")


def _valid_workloads() -> Tuple[str, ...]:
    from repro.experiments.runner import WORKLOAD_FACTORIES

    return tuple(sorted(WORKLOAD_FACTORIES))


def _valid_presets() -> Tuple[str, ...]:
    from repro.experiments.runner import PRESETS

    return tuple(sorted(PRESETS))


def _check_bool(value, what: str) -> None:
    """A toggle is ``true``, ``false`` or unset: a non-empty string
    such as ``"no"`` would otherwise switch it on."""
    if value is not None and not isinstance(value, bool):
        raise ConfigurationError(
            f"{what} must be true or false, got {value!r}")


def _check_int(value, what: str) -> None:
    """A count is an integer or unset; ``bool`` is an ``int`` subclass
    in Python, so ``true`` is refused explicitly."""
    if value is not None and (isinstance(value, bool)
                              or not isinstance(value, int)):
        raise ConfigurationError(
            f"{what} must be an integer, got {value!r}")


@dataclass(frozen=True)
class Expectation:
    """One metric assertion checked after a scenario runs.

    ``variant`` names the run the metric comes from; ``None`` reads the
    scenario-level aggregate metrics (``total_completed``,
    ``improvement``, …).  ``errors.<kind>`` metrics default to 0 when
    the error kind never occurred.

    Cross-variant form: with ``than_variant`` set, the assertion
    compares the *same metric* between two variants instead of against
    a literal ``value`` — e.g. ``{"metric": "failed", "op": "<",
    "variant": "soft", "than_variant": "hard"}`` asserts that the
    ``soft`` variant failed less than the ``hard`` one.  ``value``
    must be omitted in that form (and ``variant`` is required).
    """

    metric: str
    op: str
    value: Optional[float] = None
    variant: Optional[str] = None
    than_variant: Optional[str] = None

    def __post_init__(self):
        if not self.metric:
            raise ConfigurationError("expectation metric must be non-empty")
        if self.op not in EXPECTATION_OPS:
            raise ConfigurationError(
                f"unknown expectation op {self.op!r}; valid ops: "
                f"{', '.join(EXPECTATION_OPS)}")
        if self.than_variant is not None:
            if self.value is not None:
                raise ConfigurationError(
                    f"cross-variant expectation on {self.metric!r} takes "
                    f"either a value or a than_variant, not both")
            if self.variant is None:
                raise ConfigurationError(
                    f"cross-variant expectation on {self.metric!r} needs "
                    f"a variant to compare from")
            if self.variant == self.than_variant:
                raise ConfigurationError(
                    f"cross-variant expectation on {self.metric!r} "
                    f"compares variant {self.variant!r} against itself")
        elif isinstance(self.value, bool) \
                or not isinstance(self.value, (int, float)):
            raise ConfigurationError(
                f"expectation value must be a number, "
                f"got {self.value!r}")

    def holds(self, actual: float,
              reference: Optional[float] = None) -> bool:
        """Whether ``actual`` satisfies the assertion.

        For cross-variant expectations the caller supplies
        ``reference`` (the ``than_variant``'s metric); plain
        expectations compare against the literal ``value``.
        """
        threshold = reference if self.than_variant is not None \
            else self.value
        if threshold is None:
            return False
        return EXPECTATION_OPS[self.op](actual, threshold)

    def describe(self) -> str:
        where = f"{self.variant}." if self.variant else ""
        if self.than_variant is not None:
            return (f"{where}{self.metric} {self.op} "
                    f"{self.than_variant}.{self.metric}")
        return f"{where}{self.metric} {self.op} {self.value:g}"

    def to_dict(self) -> dict:
        doc = {"metric": self.metric, "op": self.op}
        if self.value is not None:
            doc["value"] = self.value
        if self.variant is not None:
            doc["variant"] = self.variant
        if self.than_variant is not None:
            doc["than_variant"] = self.than_variant
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "Expectation":
        return cls(**_checked_kwargs(cls, doc, "expectation"))


@dataclass(frozen=True)
class ConfigOverrides:
    """Server-config deltas a variant applies on top of the paper config.

    Every field defaults to ``None`` (= keep the paper value), so a
    spec only states what it changes — the ablation toggles, hardware
    shrinks and broker switches the paper reports tuning.
    """

    throttling: Optional[bool] = None
    #: restrict the ladder to its first N monitors (0 = throttle off)
    gateway_count: Optional[int] = None
    dynamic_thresholds: Optional[bool] = None
    best_plan_so_far: Optional[bool] = None
    broker_enabled: Optional[bool] = None
    physical_memory: Optional[int] = None
    cpus: Optional[int] = None

    def __post_init__(self):
        for name in ("throttling", "dynamic_thresholds",
                     "best_plan_so_far", "broker_enabled"):
            _check_bool(getattr(self, name), name)
        for name in ("gateway_count", "physical_memory", "cpus"):
            _check_int(getattr(self, name), name)
        if self.gateway_count is not None \
                and not 0 <= self.gateway_count <= 3:
            raise ConfigurationError("gateway_count must be 0..3")
        if self.physical_memory is not None and self.physical_memory <= 0:
            raise ConfigurationError("physical_memory must be positive")
        if self.cpus is not None and self.cpus <= 0:
            raise ConfigurationError("cpus must be positive")

    def is_noop(self) -> bool:
        return all(getattr(self, f.name) is None for f in fields(self))

    def only_toggles_throttling(self) -> bool:
        """True when the delta is expressible by the ``throttling`` flag
        alone (such variants need no ServerConfig override object)."""
        return all(getattr(self, f.name) is None for f in fields(self)
                   if f.name != "throttling")

    def apply(self, base: Optional[ServerConfig] = None) -> ServerConfig:
        cfg = base if base is not None else paper_server_config()
        if self.physical_memory is not None or self.cpus is not None:
            hardware = cfg.hardware
            if self.physical_memory is not None:
                hardware = replace(hardware,
                                   physical_memory=self.physical_memory)
            if self.cpus is not None:
                hardware = replace(hardware, cpus=self.cpus)
            cfg = replace(cfg, hardware=hardware)
        if self.gateway_count is not None:
            if self.gateway_count == 0:
                cfg = cfg.with_throttling(False)
            else:
                cfg = replace(cfg, throttle=replace(
                    cfg.throttle, enabled=True,
                    gateways=default_gateways()[:self.gateway_count]))
        if self.dynamic_thresholds is not None:
            cfg = replace(cfg, throttle=replace(
                cfg.throttle, dynamic_thresholds=self.dynamic_thresholds))
        if self.best_plan_so_far is not None:
            cfg = replace(cfg, throttle=replace(
                cfg.throttle, best_plan_so_far=self.best_plan_so_far))
        if self.broker_enabled is not None:
            cfg = replace(cfg, broker=replace(
                cfg.broker, enabled=self.broker_enabled))
        if self.throttling is not None:
            cfg = cfg.with_throttling(self.throttling)
        return cfg

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)
                if getattr(self, f.name) is not None}

    @classmethod
    def from_dict(cls, doc: dict) -> "ConfigOverrides":
        return cls(**_checked_kwargs(cls, doc, "overrides"))


@dataclass(frozen=True)
class VariantSpec:
    """One named run of a scenario (a point of its sweep/comparison)."""

    name: str
    overrides: ConfigOverrides = field(default_factory=ConfigOverrides)
    #: per-variant client count (None = the scenario's)
    clients: Optional[int] = None
    #: per-variant think time (None = the scenario's)
    think_time: Optional[float] = None
    #: per-variant admission policy (None = the scenario's) — what lets
    #: one scenario compare `fifo` vs `weighted_fair` across variants
    admission: Optional[AdmissionSpec] = None
    #: per-variant optimizer pipeline (None = the scenario's) — what
    #: lets one scenario compare `memo` vs `ues` across variants
    optimizer: Optional[OptimizerSpec] = None

    def __post_init__(self):
        if not self.name or any(c.isspace() for c in self.name):
            raise ConfigurationError(
                f"variant name {self.name!r} must be non-empty with no "
                f"whitespace")
        _check_int(self.clients, "variant clients")
        if self.clients is not None and self.clients < 1:
            raise ConfigurationError("variant clients must be >= 1")
        if self.think_time is not None:
            _check_think_time(self.think_time, "variant think_time")

    def to_dict(self) -> dict:
        doc: dict = {"name": self.name}
        overrides = self.overrides.to_dict()
        if overrides:
            doc["overrides"] = overrides
        if self.clients is not None:
            doc["clients"] = self.clients
        if self.think_time is not None:
            doc["think_time"] = self.think_time
        if self.admission is not None:
            doc["admission"] = self.admission.to_dict()
        if self.optimizer is not None:
            doc["optimizer"] = self.optimizer.to_dict()
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "VariantSpec":
        kwargs = _checked_kwargs(cls, doc, "variant")
        overrides = kwargs.get("overrides")
        if isinstance(overrides, dict):
            kwargs["overrides"] = ConfigOverrides.from_dict(overrides)
        admission = kwargs.get("admission")
        if isinstance(admission, dict):
            kwargs["admission"] = AdmissionSpec.from_dict(admission)
        optimizer = kwargs.get("optimizer")
        if isinstance(optimizer, dict):
            kwargs["optimizer"] = OptimizerSpec.from_dict(optimizer)
        return cls(**kwargs)


@dataclass(frozen=True)
class ScenarioSpec:
    """One fully-described scenario (see module docstring)."""

    scenario_id: str
    title: str
    family: str
    kind: str = "experiment"
    workload: str = "sales"
    #: kind-dependent parameters, canonicalized to a sorted tuple of
    #: pairs so specs stay hashable and round-trippable: for
    #: ``experiment`` scenarios these are extra workload-factory
    #: keyword arguments (validated at construction); ``monitors`` /
    #: ``trace`` scenarios pass them to the figure renderer instead
    workload_params: Tuple[Tuple[str, object], ...] = ()
    clients: int = 30
    preset: str = "smoke"
    seed: int = 3
    think_time: float = 15.0
    #: open-loop traffic shape (arrival process or trace replay);
    #: ``None`` = the default closed-loop think-time clients
    traffic: Optional[TrafficSpec] = None
    #: admission policy arbitrating the open-loop slots (``None`` =
    #: FIFO, pinned byte-identical to the pre-policy behavior);
    #: variants may override it
    admission: Optional[AdmissionSpec] = None
    #: latency objectives evaluated against the ``open_loop`` facts
    #: into pinned ``slo.*`` metrics
    slo: Optional[SloSpec] = None
    #: optimizer pipeline stage strategies (``None`` = the default
    #: pipeline, pinned byte-identical to the pre-pipeline optimizer);
    #: variants may override it
    optimizer: Optional[OptimizerSpec] = None
    variants: Tuple[VariantSpec, ...] = (VariantSpec("run"),)
    expect: Tuple[Expectation, ...] = ()
    render: str = "table"
    description: str = ""

    def __post_init__(self):
        # canonicalize collection fields so equality is structural
        object.__setattr__(self, "variants", tuple(self.variants))
        object.__setattr__(self, "expect", tuple(self.expect))
        params = self.workload_params
        if isinstance(params, dict):
            params = params.items()
        object.__setattr__(self, "workload_params",
                           tuple(sorted((str(k), v) for k, v in params)))
        self._validate()

    def _validate(self) -> None:
        if not self.scenario_id or any(c.isspace() for c in self.scenario_id):
            raise ConfigurationError(
                f"scenario_id {self.scenario_id!r} must be non-empty with "
                f"no whitespace")
        if not self.title:
            raise ConfigurationError(
                f"scenario {self.scenario_id!r} needs a title")
        if not self.family:
            raise ConfigurationError(
                f"scenario {self.scenario_id!r} needs a family")
        if self.kind not in SCENARIO_KINDS:
            raise ConfigurationError(
                f"unknown scenario kind {self.kind!r}; valid kinds: "
                f"{', '.join(SCENARIO_KINDS)}")
        if self.render not in RENDER_STYLES:
            raise ConfigurationError(
                f"unknown render style {self.render!r}; valid styles: "
                f"{', '.join(RENDER_STYLES)}")
        workloads = _valid_workloads()
        if self.workload not in workloads:
            raise ConfigurationError(
                f"unknown workload {self.workload!r}; valid workloads: "
                f"{', '.join(workloads)}")
        if self.kind == "experiment" and self.workload_params:
            # fail at definition time, not after an expensive run:
            # instantiating the factory validates the parameter names
            from repro.experiments.runner import make_workload

            make_workload(self.workload, **dict(self.workload_params))
        presets = _valid_presets()
        if self.preset not in presets:
            raise ConfigurationError(
                f"unknown preset {self.preset!r}; valid presets: "
                f"{', '.join(presets)}")
        _check_int(self.clients, "clients")
        if self.clients < 1:
            raise ConfigurationError("clients must be >= 1")
        _check_int(self.seed, "seed")
        _check_think_time(self.think_time, "think_time")
        if self.traffic is not None and self.kind != "experiment":
            raise ConfigurationError(
                f"scenario {self.scenario_id!r} is a {self.kind!r} "
                f"scenario; the traffic axis only applies to "
                f"experiment scenarios")
        if self.traffic is None:
            if self.admission is not None or self.slo is not None \
                    or any(v.admission is not None
                           for v in self.variants):
                raise ConfigurationError(
                    f"scenario {self.scenario_id!r} has no traffic "
                    f"axis; admission policies and SLOs govern "
                    f"open-loop admission and require one")
        if self.kind != "experiment" \
                and (self.optimizer is not None
                     or any(v.optimizer is not None
                            for v in self.variants)):
            raise ConfigurationError(
                f"scenario {self.scenario_id!r} is a {self.kind!r} "
                f"scenario; the optimizer axis only applies to "
                f"experiment scenarios")
        if not self.variants:
            raise ConfigurationError(
                f"scenario {self.scenario_id!r} needs at least one variant")
        if self.kind != "experiment" and len(self.variants) != 1:
            # variants only vary experiment configs; a monitors/trace
            # scenario is a single unit of work (one shard cell)
            raise ConfigurationError(
                f"scenario {self.scenario_id!r} is a {self.kind!r} "
                f"scenario and takes exactly one variant")
        names = [v.name for v in self.variants]
        if len(set(names)) != len(names):
            raise ConfigurationError(
                f"scenario {self.scenario_id!r} has duplicate variant "
                f"names: {names}")
        for expectation in self.expect:
            for referenced in (expectation.variant,
                               expectation.than_variant):
                if referenced is not None and referenced not in names:
                    raise ConfigurationError(
                        f"expectation {expectation.describe()!r} "
                        f"references unknown variant {referenced!r} "
                        f"(variants: {', '.join(names)})")

    # ------------------------------------------------------------ API
    def customized(self, preset: Optional[str] = None,
                   seed: Optional[int] = None,
                   clients: Optional[int] = None,
                   optimizer: Optional[str] = None) -> "ScenarioSpec":
        """A copy with CLI-style overrides applied (and re-validated).

        A ``clients`` override takes effect for every variant,
        including those carrying their own per-variant count; an
        ``optimizer`` override (a join-enumerator name) likewise
        replaces per-variant optimizer pipelines so every variant runs
        the requested enumerator.
        """
        spec = self
        if clients is not None and any(v.clients is not None
                                       for v in spec.variants):
            spec = replace(spec, variants=tuple(
                replace(v, clients=None) for v in spec.variants))
        if optimizer is not None and any(v.optimizer is not None
                                         for v in spec.variants):
            spec = replace(spec, variants=tuple(
                replace(v, optimizer=None) for v in spec.variants))
        updates: Dict[str, object] = {}
        if preset is not None:
            updates["preset"] = preset
        if seed is not None:
            updates["seed"] = seed
        if clients is not None:
            updates["clients"] = clients
        if optimizer is not None:
            updates["optimizer"] = replace(
                self.optimizer or OptimizerSpec(), enumerator=optimizer)
        return replace(spec, **updates) if updates else spec

    def variant_names(self) -> Tuple[str, ...]:
        return tuple(v.name for v in self.variants)

    def document_version(self) -> int:
        """The minimal spec-format version able to read this spec.

        Only the optimizer axis needs version 6, only admission
        policies and SLOs need version 5 and only the traffic axis
        needs version 3; everything else has been expressible since
        version 2 (nothing needs version 4 any more).  Minimal
        stamping is what keeps pre-existing scenarios byte-identical
        in artifacts across format bumps.
        """
        if self.optimizer is not None \
                or any(v.optimizer is not None for v in self.variants):
            return 6
        if self.admission is not None or self.slo is not None \
                or any(v.admission is not None for v in self.variants):
            return 5
        if self.traffic is not None:
            return 3
        return 2

    def to_dict(self) -> dict:
        """The JSON-ready document form of this spec.

        Stamped with the spec-format ``version`` (the minimal one able
        to read it, see :meth:`document_version`) so files written
        today stay readable (or fail loudly) as the format evolves.
        """
        doc = {
            "version": self.document_version(),
            "scenario_id": self.scenario_id,
            "title": self.title,
            "family": self.family,
            "kind": self.kind,
            "workload": self.workload,
            "workload_params": dict(self.workload_params),
            "clients": self.clients,
            "preset": self.preset,
            "seed": self.seed,
            "think_time": self.think_time,
        }
        if self.traffic is not None:
            doc["traffic"] = self.traffic.to_dict()
        if self.admission is not None:
            doc["admission"] = self.admission.to_dict()
        if self.slo is not None:
            doc["slo"] = self.slo.to_dict()
        if self.optimizer is not None:
            doc["optimizer"] = self.optimizer.to_dict()
        doc.update({
            "variants": [v.to_dict() for v in self.variants],
            "expect": [e.to_dict() for e in self.expect],
            "render": self.render,
            "description": self.description,
        })
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "ScenarioSpec":
        """Parse a spec document, rejecting unknown fields and versions.

        Unknown top-level keys raise :class:`ConfigurationError` naming
        the valid ones; a ``version`` newer than this build understands
        is rejected instead of being misread.  The ``kernel`` key of
        a version-4 document is dropped: the scheduler core it chose
        never changed a simulated number.
        """
        doc = _checked_version(doc, "scenario")
        kernel = doc.pop("kernel", "legacy")
        if kernel not in _RETIRED_KERNELS:
            raise ConfigurationError(
                f"unknown kernel {kernel!r}; the scheduler-core choice "
                f"was removed, and only {' or '.join(_RETIRED_KERNELS)} "
                f"is still read (and ignored)")
        kwargs = _checked_kwargs(cls, doc, "scenario")
        traffic = kwargs.get("traffic")
        if isinstance(traffic, dict):
            kwargs["traffic"] = TrafficSpec.from_dict(traffic)
        admission = kwargs.get("admission")
        if isinstance(admission, dict):
            kwargs["admission"] = AdmissionSpec.from_dict(admission)
        slo = kwargs.get("slo")
        if isinstance(slo, dict):
            kwargs["slo"] = SloSpec.from_dict(slo)
        optimizer = kwargs.get("optimizer")
        if isinstance(optimizer, dict):
            kwargs["optimizer"] = OptimizerSpec.from_dict(optimizer)
        variants = kwargs.get("variants")
        if variants is not None:
            kwargs["variants"] = tuple(
                VariantSpec.from_dict(v) if isinstance(v, dict) else v
                for v in variants)
        expectations = kwargs.get("expect")
        if expectations is not None:
            kwargs["expect"] = tuple(
                Expectation.from_dict(e) if isinstance(e, dict) else e
                for e in expectations)
        return cls(**kwargs)


def _check_think_time(value, what: str) -> None:
    """A think time is the mean of an exponential draw and the bound of
    a uniform one, so only a finite number above zero runs.  Checked at
    construction because ``json`` parses ``NaN`` and ``Infinity``, and
    the load generator would otherwise fail mid-run."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not math.isfinite(value) or value <= 0:
        raise ConfigurationError(
            f"{what} must be a finite number > 0, got {value!r}")


def _checked_version(doc: dict, what: str) -> dict:
    """Strip and validate the spec-format ``version`` key.

    Returns a copy of ``doc`` without the key; a missing version means
    version 1 (documents written before versioning existed).
    """
    if not isinstance(doc, dict):
        raise ConfigurationError(f"{what} must be a JSON object, "
                                 f"got {type(doc).__name__}")
    doc = dict(doc)
    version = doc.pop("version", SPEC_FORMAT_VERSION)
    if not isinstance(version, int) or isinstance(version, bool):
        raise ConfigurationError(
            f"{what} version must be an integer, got {version!r}")
    if not 1 <= version <= SPEC_FORMAT_VERSION:
        raise ConfigurationError(
            f"{what} format version {version} is not supported by this "
            f"build (understands versions 1..{SPEC_FORMAT_VERSION}); "
            f"re-export the spec or upgrade")
    return doc


def _checked_kwargs(cls, doc: dict, what: str) -> dict:
    """Reject unknown keys with a ConfigurationError naming them."""
    if not isinstance(doc, dict):
        raise ConfigurationError(f"{what} must be a JSON object, "
                                 f"got {type(doc).__name__}")
    known = {f.name for f in fields(cls)}
    unknown = sorted(set(doc) - known)
    if unknown:
        raise ConfigurationError(
            f"unknown {what} field(s) {', '.join(unknown)}; valid "
            f"fields: {', '.join(sorted(known))}")
    return dict(doc)
