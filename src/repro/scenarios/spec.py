"""The declarative scenario specification.

A :class:`ScenarioSpec` is the one currency every experiment surface
consumes: the CLI (``repro scenarios …``), the cell executors, the
benchmark suite, the examples and user-authored JSON files all
describe a run as one frozen, validated, round-trippable value.
Adding a scenario is a data change, not a code change.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Tuple

from repro.admission.spec import AdmissionSpec, SloSpec
from repro.config import ServerConfig, default_gateways, paper_server_config
from repro.errors import ConfigurationError
from repro.optimizer.spec import OptimizerSpec
from repro.specdoc import SpecDocument, sorted_pairs
from repro.traffic.spec import TrafficSpec

#: the newest JSON spec-format version this build reads.  Documents
#: are stamped with the oldest version able to read them: the largest
#: ``since`` among the fields they write (see ``repro.specdoc``), 2 if
#: none, so a document that uses no newer field keeps its bytes across
#: format bumps and stays readable by older builds.  A missing version
#: means version 1 (predating versioning); newer versions are rejected
#: so an old build never silently misreads a newer spec file.
#: History: 1 = the first, unversioned format; 2 = cross-variant expectations
#: (``than_variant``, ``value`` optional); 3 = the open-loop
#: ``traffic`` axis; 4 = the ``kernel`` knob (a choice of simulation
#: scheduler core), since removed: no field has ``since=4``, and a
#: version-4 document's ``kernel`` key is dropped on read; 5 = the
#: ``admission`` / ``slo`` axes (policy-driven admission control and
#: latency objectives); 6 = the ``optimizer`` axis (pipeline stage
#: strategies).
SPEC_FORMAT_VERSION = 6

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
class Expectation(SpecDocument, what="expectation"):
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


@dataclass(frozen=True)
class ConfigOverrides(SpecDocument, what="overrides"):
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


@dataclass(frozen=True)
class VariantSpec(SpecDocument, what="variant",
                  since={"admission": 5, "optimizer": 6}):
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


@dataclass(frozen=True)
class ScenarioSpec(SpecDocument, what="scenario",
                   format_version=SPEC_FORMAT_VERSION,
                   always=("kind", "workload", "workload_params", "clients",
                           "preset", "seed", "think_time", "variants",
                           "expect", "render", "description"),
                   since={"traffic": 3, "admission": 5, "slo": 5,
                          "optimizer": 6}):
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
        object.__setattr__(self, "workload_params",
                           sorted_pairs(self.workload_params))
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


def _check_think_time(value, what: str) -> None:
    """A think time is the mean of an exponential draw and the bound of
    a uniform one, so only a finite number above zero runs.  Checked at
    construction because ``json`` parses ``NaN`` and ``Infinity``, and
    the load generator would otherwise fail mid-run."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not math.isfinite(value) or value <= 0:
        raise ConfigurationError(
            f"{what} must be a finite number > 0, got {value!r}")
