"""The programmatic scenario facade.

``run_scenario(spec, workers=N)`` is the one entry point the CLI, the
benchmarks, the examples and the tests all route through: it lowers a
:class:`ScenarioSpec` to **cell tasks**, submits them through a
:class:`~repro.experiments.executors.CellExecutor` (inline, or a
streamed pool of worker processes — the caller's choice, results
identical by contract), extracts a uniform metric namespace, evaluates
the spec's expectations and renders the scenario's artifact text.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.config import paper_server_config
from repro.errors import ConfigurationError
from repro.experiments.runner import (
    ExperimentConfig,
    ExperimentResult,
    summarize_result,
    write_bench_document,
)
from repro.metrics.report import render_table
from repro.scenarios.spec import Expectation, ScenarioSpec


# ------------------------------------------------------------ lowering
@dataclass(frozen=True)
class ExperimentJob:
    """One variant of an experiment scenario, lowered to its config."""

    name: str
    config: ExperimentConfig


def jobs_for_scenario(spec: ScenarioSpec) -> List[ExperimentJob]:
    """One job per variant of an experiment scenario, each carrying
    its overrides applied to the paper's server config."""
    if spec.kind != "experiment":
        raise ConfigurationError(
            f"scenario {spec.scenario_id!r} is a {spec.kind!r} scenario; "
            f"only experiment scenarios lower to jobs")
    jobs = []
    for variant in spec.variants:
        server = variant.overrides.apply(paper_server_config())
        jobs.append(ExperimentJob(
            name=variant.name,
            config=ExperimentConfig(
                workload=spec.workload,
                workload_params=spec.workload_params,
                traffic=spec.traffic,
                admission=(variant.admission
                           if variant.admission is not None
                           else spec.admission),
                slo=spec.slo,
                optimizer=(variant.optimizer
                           if variant.optimizer is not None
                           else spec.optimizer),
                clients=(variant.clients if variant.clients is not None
                         else spec.clients),
                throttling=server.throttle.enabled,
                preset=spec.preset,
                seed=spec.seed,
                think_time=(variant.think_time
                            if variant.think_time is not None
                            else spec.think_time),
                server_overrides=server)))
    return jobs


# ------------------------------------------------------------- results
@dataclass
class BatchResult:
    """The runs of one experiment scenario, rebuilt from its cells.

    ``results`` maps variant name -> result for variants that finished;
    ``errors`` maps variant name -> formatted exception for those that
    did not.
    """

    results: Dict[str, ExperimentResult] = field(default_factory=dict)
    errors: Dict[str, str] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """True when every variant finished without error."""
        return not self.errors


@dataclass
class CheckOutcome:
    """One evaluated expectation.

    ``reference`` is only meaningful for cross-variant expectations:
    the ``than_variant``'s value of the same metric.
    """

    expectation: Expectation
    actual: Optional[float]
    passed: bool
    reference: Optional[float] = None

    def describe(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        actual = ("n/a" if self.actual is None
                  else f"{self.actual:g}")
        if self.expectation.than_variant is not None:
            reference = ("n/a" if self.reference is None
                         else f"{self.reference:g}")
            return (f"check {status}: {self.expectation.describe()} "
                    f"(actual {actual} vs {reference})")
        return (f"check {status}: {self.expectation.describe()} "
                f"(actual {actual})")


@dataclass
class ScenarioResult:
    """Everything one scenario run produced."""

    spec: ScenarioSpec
    #: the variants' runs (experiment scenarios only), rebuilt from the
    #: cell summaries, so the batch is equivalent no matter which
    #: executor ran the cells
    batch: Optional[BatchResult]
    #: variant name -> metric name -> value
    variant_metrics: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: scenario-level aggregates (total_completed, improvement, ...)
    scenario_metrics: Dict[str, float] = field(default_factory=dict)
    checks: List[CheckOutcome] = field(default_factory=list)
    #: the scenario's rendered artifact (figure text, table, ladder)
    body: str = ""
    wall_seconds: float = 0.0
    #: variant name -> JSON summary exactly as the executor delivered
    #: it (experiment scenarios; written to artifacts verbatim so all
    #: executors produce identical bytes)
    variant_summaries: Dict[str, dict] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """True when every run and every expectation passed."""
        if self.batch is not None and self.batch.errors:
            return False
        return all(check.passed for check in self.checks)

    def render(self) -> str:
        spec = self.spec
        lines = [
            f"== scenario {spec.scenario_id} — {spec.title}",
            f"   family={spec.family} kind={spec.kind} "
            f"workload={spec.workload} preset={spec.preset} "
            f"seed={spec.seed}",
        ]
        if self.body:
            lines.append(self.body)
        if self.batch is not None:
            for name, error in sorted(self.batch.errors.items()):
                lines.append(f"FAILED {name}: {error}")
        for check in self.checks:
            lines.append(check.describe())
        return "\n".join(lines)


# ------------------------------------------------------------- metrics
def result_metrics(result: ExperimentResult) -> Dict[str, float]:
    """The per-variant metric namespace expectations can reference.

    Defined as the summary round trip so a live result and one replayed
    from a journal can never drift: a metric exists here exactly when
    it can be rebuilt from an artifact by :func:`metrics_from_summary`.
    """
    return metrics_from_summary(summarize_result(result))


def metrics_from_summary(summary: Dict) -> Dict[str, float]:
    """Rebuild the per-variant metric namespace from an artifact summary.

    The inverse of :func:`~repro.experiments.runner.summarize_result`
    for expectation purposes: feeding a run's JSON summary through here
    yields exactly ``result_metrics(result)`` of the result it
    summarized (JSON round-trips floats losslessly), which is what lets
    a resumed run re-evaluate expectations on the same numbers the run
    that journaled them saw.
    """
    metrics: Dict[str, float] = {
        "completed": float(summary["completed"]),
        "failed": float(summary["failed"]),
        "degraded": float(summary["degraded"]),
        "retries": float(summary["retries"]),
        "mean_per_bucket": summary["mean_per_bucket"],
        "mean_compile_time": summary["mean_compile_time"],
        "mean_execution_time": summary["mean_execution_time"],
        "search_replays": float(summary["search_replays"]),
        "soft_denials": float(summary["soft_denials"]),
        "wall_seconds": summary["wall_seconds"],
    }
    for kind, count in summary["error_counts"].items():
        metrics[f"errors.{kind}"] = float(count)
    # open-loop admission facts surface as `openloop.<fact>` metrics
    # (offered, admitted, dropped, queue_wait_p90, ...) so burst
    # scenarios can put expectations on them
    for name, value in summary.get("open_loop", {}).items():
        metrics[f"openloop.{name}"] = float(value)
    # SLO verdicts surface as `slo.<target>.observed/.target/.ok` plus
    # the aggregate `slo.ok`/`slo.violations`, so expectations (and
    # cross-variant checks) can reference objective attainment directly
    for name, value in summary.get("slo", {}).items():
        metrics[f"slo.{name}"] = float(value)
    return metrics


def result_from_summary(summary: Dict) -> ExperimentResult:
    """Rebuild an :class:`ExperimentResult` from its JSON summary.

    The structural inverse of
    :func:`~repro.experiments.runner.summarize_result`: feeding the
    rebuilt result back through ``summarize_result`` reproduces the
    summary exactly (JSON round-trips floats losslessly and
    ``mean_per_bucket`` is recomputed from the identical series).
    This is what lets executor-delivered summaries — possibly produced
    in another process or on another machine — stand in for live
    results when rendering figures and tables.
    """
    from repro.admission.spec import AdmissionSpec, SloSpec
    from repro.optimizer.spec import OptimizerSpec
    from repro.traffic.spec import TrafficSpec

    config_doc = summary["config"]
    config = ExperimentConfig(
        workload=config_doc["workload"],
        workload_params=tuple(sorted(
            (str(k), v) for k, v in config_doc["workload_params"].items())),
        traffic=(TrafficSpec.from_dict(config_doc["traffic"])
                 if "traffic" in config_doc else None),
        admission=(AdmissionSpec.from_dict(config_doc["admission"])
                   if "admission" in config_doc else None),
        slo=(SloSpec.from_dict(config_doc["slo"])
             if "slo" in config_doc else None),
        optimizer=(OptimizerSpec.from_dict(config_doc["optimizer"])
                   if "optimizer" in config_doc else None),
        clients=config_doc["clients"],
        throttling=config_doc["throttling"],
        preset=config_doc["preset"],
        seed=config_doc["seed"],
        think_time=config_doc["think_time"])
    return ExperimentResult(
        config=config,
        throughput=[(t, c) for t, c in summary["throughput"]],
        completed=summary["completed"],
        failed=summary["failed"],
        error_counts=dict(summary["error_counts"]),
        degraded=summary["degraded"],
        retries=summary["retries"],
        mean_compile_time=summary["mean_compile_time"],
        mean_execution_time=summary["mean_execution_time"],
        memory_by_clerk=dict(summary["memory_by_clerk"]),
        gateway_stats=[tuple(row) for row in summary["gateway_stats"]],
        wall_seconds=summary["wall_seconds"],
        search_replays=summary["search_replays"],
        soft_denials=summary["soft_denials"],
        open_loop=summary.get("open_loop"),
        slo=summary.get("slo"),
        snapshot=summary.get("snapshot"))


def _aggregate_metrics(spec: ScenarioSpec,
                       variant_metrics: Dict[str, Dict[str, float]]
                       ) -> Dict[str, float]:
    aggregate = {
        "total_completed": sum(m.get("completed", 0.0)
                               for m in variant_metrics.values()),
        "total_failed": sum(m.get("failed", 0.0)
                            for m in variant_metrics.values()),
        "total_degraded": sum(m.get("degraded", 0.0)
                              for m in variant_metrics.values()),
        "variants_ok": float(len(variant_metrics)),
    }
    # scenario-level errors.<kind> = the sum across variants, so the
    # errors.* zero-default means "never occurred anywhere"
    for metrics in variant_metrics.values():
        for name, value in metrics.items():
            if name.startswith("errors."):
                aggregate[name] = aggregate.get(name, 0.0) + value
    throttled = variant_metrics.get("throttled")
    unthrottled = variant_metrics.get("unthrottled")
    if throttled is not None and unthrottled is not None:
        base = unthrottled.get("completed", 0.0)
        if base > 0:
            aggregate["improvement"] = \
                throttled.get("completed", 0.0) / base - 1.0
        else:
            aggregate["improvement"] = (
                math.inf if throttled.get("completed", 0.0) else 0.0)
    return aggregate


def _metric_from(source: Optional[Dict[str, float]],
                 metric: str) -> Optional[float]:
    if source is None:
        return None
    value = source.get(metric)
    if value is None and metric.startswith("errors."):
        # an error kind that never occurred counts as zero
        value = 0.0
    return value


def _lookup_metric(expectation: Expectation,
                   variant_metrics: Dict[str, Dict[str, float]],
                   scenario_metrics: Dict[str, float]
                   ) -> Optional[float]:
    if expectation.variant is None:
        source: Optional[Dict[str, float]] = scenario_metrics
    else:
        source = variant_metrics.get(expectation.variant)
    return _metric_from(source, expectation.metric)


def evaluate_expectations(spec: ScenarioSpec,
                          variant_metrics: Dict[str, Dict[str, float]],
                          scenario_metrics: Dict[str, float]
                          ) -> List[CheckOutcome]:
    """Evaluate every expectation of ``spec`` against the metrics.

    A metric that cannot be resolved (missing variant, unknown name)
    fails its check with ``actual=None`` rather than raising — a
    scenario whose runs errored still reports all its checks.
    Cross-variant expectations (``than_variant``) read the same metric
    from both variants and compare them to each other.
    """
    checks = []
    for expectation in spec.expect:
        actual = _lookup_metric(expectation, variant_metrics,
                                scenario_metrics)
        reference = None
        if expectation.than_variant is not None:
            reference = _metric_from(
                variant_metrics.get(expectation.than_variant),
                expectation.metric)
            passed = actual is not None and reference is not None \
                and expectation.holds(actual, reference)
        else:
            passed = actual is not None and expectation.holds(actual)
        checks.append(CheckOutcome(expectation=expectation,
                                   actual=actual, passed=passed,
                                   reference=reference))
    return checks


# ----------------------------------------------------------- rendering
def _render_experiment(spec: ScenarioSpec, batch: BatchResult) -> str:
    if spec.render == "comparison" \
            and {"throttled", "unthrottled"} <= set(batch.results):
        from repro.experiments.figures import ThroughputComparison

        comparison = ThroughputComparison(
            clients=spec.clients,
            throttled=batch.results["throttled"],
            unthrottled=batch.results["unthrottled"])
        return comparison.render()
    # no wall-clock column: identical runs must render identical bytes
    rows = [(name, result.completed, result.failed, result.degraded)
            for name, result in batch.results.items()]
    return render_table(
        ("variant", "completed", "errors", "degraded"), rows)


# ------------------------------------------------------------- running
def run_scenario(spec: ScenarioSpec, workers: int = 1,
                 progress: Optional[Callable[[str], None]] = None,
                 executor=None, snapshot: bool = False,
                 capture: Optional[str] = None) -> ScenarioResult:
    """Run one scenario and evaluate its expectations.

    ``executor`` is any :class:`~repro.experiments.executors.
    CellExecutor`; by default ``workers`` picks the inline executor
    (``workers == 1``) or a stream executor that forks ``workers``
    worker processes.  A passed-in executor is not closed (the
    caller owns its lifecycle).  ``snapshot`` asks every
    experiment cell to capture an end-of-run DMV snapshot into its
    result summary.  ``capture`` is a directory: every experiment cell
    writes a replayable JSONL admission trace there (execution
    metadata — capturing never changes any simulated number).
    """
    return run_scenarios([spec], workers=workers, progress=progress,
                         executor=executor, snapshot=snapshot,
                         capture=capture)[0]


def run_scenarios(specs: List[ScenarioSpec], workers: int = 1,
                  progress: Optional[Callable[[str], None]] = None,
                  executor=None, snapshot: bool = False,
                  capture: Optional[str] = None,
                  on_result: Optional[Callable[["ScenarioResult"], None]]
                  = None) -> List[ScenarioResult]:
    """Run a whole selection through one executor submission.

    All cells of all specs go down in a single ``submit`` call, so a
    stream executor's workers overlap cells of different scenarios and
    drain one queue — exactly the scheduling freedom the determinism
    contract allows, since results are re-grouped by spec afterwards.

    ``on_result`` is invoked once per scenario, in selection order, as
    soon as that scenario's result can be finalized — so a long
    selection renders output and persists artifacts incrementally
    instead of losing everything when a late scenario (or the process)
    dies.
    """
    from repro.experiments.executors import make_executor, tasks_for_specs

    started = time.time()
    owns_executor = executor is None
    if executor is None:
        executor = make_executor(workers=workers)
    tasks = tasks_for_specs(specs, snapshot=snapshot, capture=capture)
    outstanding = {spec.scenario_id: len(spec.variant_names())
                   for spec in specs}
    collected: Dict[str, list] = {spec.scenario_id: [] for spec in specs}
    finalized: Dict[str, ScenarioResult] = {}
    emit_order = list(specs)
    emitted = 0
    results: List[ScenarioResult] = []

    def finalize(spec: ScenarioSpec) -> ScenarioResult:
        cells = collected[spec.scenario_id]
        result = scenario_result_from_cells(spec, cells)
        # one submission, one clock: per-scenario wall attribution is
        # execution-dependent anyway (a canonically volatile field)
        result.wall_seconds = (sum(c.wall_seconds for c in cells)
                               or (time.time() - started)
                               / max(1, len(specs)))
        return result

    try:
        for cell in executor.submit(tasks, progress=progress):
            scenario_id = cell.cell.scenario_id
            collected[scenario_id].append(cell)
            outstanding[scenario_id] -= 1
            if outstanding[scenario_id] > 0:
                continue
            spec = next(s for s in specs
                        if s.scenario_id == scenario_id)
            finalized[scenario_id] = finalize(spec)
            # emit in selection order, as soon as the next-in-line
            # scenario is complete
            while emitted < len(emit_order) \
                    and emit_order[emitted].scenario_id in finalized:
                result = finalized[emit_order[emitted].scenario_id]
                results.append(result)
                emitted += 1
                if on_result is not None:
                    on_result(result)
    finally:
        if owns_executor:
            executor.close()
    # a cancelled or short-yielding executor leaves scenarios
    # unfinalized; finalize them from whatever cells arrived (missing
    # experiment cells surface as "never executed" errors)
    for spec in emit_order[emitted:]:
        result = finalized.get(spec.scenario_id)
        if result is None:
            result = finalize(spec)
        results.append(result)
        if on_result is not None:
            on_result(result)
    return results


def scenario_result_from_cells(spec: ScenarioSpec,
                               cells: List) -> ScenarioResult:
    """Assemble one scenario's result from its executed cells.

    The executor-independent half of a scenario run: cells may arrive
    in any order from any executor; metrics, aggregates, checks and
    the rendered body are derived here in spec variant order, which is
    what makes artifacts byte-identical across executors.
    """
    by_variant = {cell.cell.variant: cell for cell in cells}
    if spec.kind != "experiment":
        cell = by_variant.get(spec.variants[0].name)
        if cell is None:
            # a cancelled/short-yielding executor: surface the missing
            # cell as a failed run, mirroring the experiment path
            batch = BatchResult(errors={
                spec.variants[0].name: "cell was never executed"})
            return ScenarioResult(
                spec=spec, batch=batch,
                checks=evaluate_expectations(spec, {}, {}))
        if cell.error is not None:
            # a monitors/trace renderer failure is a bug, not a result
            raise RuntimeError(
                f"scenario {spec.scenario_id!r} cell failed: {cell.error}")
        metrics = {name: float(value) if isinstance(value, str) else value
                   for name, value in (cell.scenario_metrics or {}).items()}
        checks = evaluate_expectations(spec, {}, metrics)
        return ScenarioResult(spec=spec, batch=None,
                              scenario_metrics=metrics, checks=checks,
                              body=cell.body or "")

    errors: Dict[str, str] = {}
    summaries: Dict[str, dict] = {}
    for name in spec.variant_names():
        cell = by_variant.get(name)
        if cell is None:
            errors[name] = "cell was never executed"
        elif cell.error is not None:
            errors[name] = cell.error
        else:
            summaries[name] = cell.summary
    variant_metrics = {name: metrics_from_summary(summary)
                       for name, summary in summaries.items()}
    scenario_metrics = _aggregate_metrics(spec, variant_metrics)
    checks = evaluate_expectations(spec, variant_metrics,
                                   scenario_metrics)
    rebuilt = {name: result_from_summary(summary)
               for name, summary in summaries.items()}
    batch = BatchResult(results=rebuilt, errors=errors)
    return ScenarioResult(
        spec=spec, batch=batch,
        variant_metrics=variant_metrics,
        scenario_metrics=scenario_metrics,
        checks=checks,
        body=_render_experiment(spec, batch),
        variant_summaries=summaries)


def run_cell_scenario(spec: ScenarioSpec) -> ScenarioResult:
    """Run a single-cell (monitors/trace) scenario in-process.

    The primitive :func:`~repro.experiments.executors.execute_cell`
    calls for non-experiment cells — deliberately *not* routed back
    through an executor.
    """
    if spec.kind == "monitors":
        return _run_monitors(spec)
    if spec.kind == "trace":
        return _run_trace(spec)
    raise ConfigurationError(
        f"scenario {spec.scenario_id!r} is an experiment scenario; "
        f"its cells run through run_experiment, not the figure "
        f"renderers")


def _run_monitors(spec: ScenarioSpec) -> ScenarioResult:
    from repro.experiments.figures import figure1_monitors

    params = dict(spec.workload_params)
    body = figure1_monitors(bool(params.get("throttling", True)))
    # monitors scenarios have no metrics, but their expectations must
    # still be evaluated (to failure), as scenario_result_from_cells
    # re-evaluates them for a cell replayed from a journal
    checks = evaluate_expectations(spec, {}, {})
    return ScenarioResult(spec=spec, batch=None, checks=checks, body=body)


def _run_trace(spec: ScenarioSpec) -> ScenarioResult:
    from repro.experiments.figures import figure2_trace

    params = dict(spec.workload_params)
    trace = figure2_trace(
        seed=spec.seed,
        fast_factor=float(params.get("fast_factor", 4.0)),
        background=int(params.get("background", 24)))
    scenario_metrics = {
        "traced_queries": float(len(trace.curves)),
        "plateau_total": float(sum(trace.plateau_count(label)
                                   for label in trace.curves)),
    }
    checks = evaluate_expectations(spec, {}, scenario_metrics)
    return ScenarioResult(spec=spec, batch=None,
                          scenario_metrics=scenario_metrics,
                          checks=checks, body=trace.chart())


# ---------------------------------------------------------- spec files
def load_scenario_file(path: str) -> ScenarioSpec:
    """Parse a user-authored JSON spec file into a validated spec.

    A relative ``traffic.trace`` path resolves against the spec file's
    directory, so a spec can ship next to its trace (the ``examples/``
    pair) and run from any working directory.
    """
    import os
    from dataclasses import replace as _replace

    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigurationError(
            f"cannot read scenario file {path!r}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigurationError(
            f"scenario file {path!r} is not valid JSON: {exc}") from None
    spec = ScenarioSpec.from_dict(doc)
    traffic = spec.traffic
    if traffic is not None and traffic.trace is not None \
            and not os.path.isabs(traffic.trace):
        resolved = os.path.join(os.path.dirname(os.path.abspath(path)),
                                traffic.trace)
        spec = _replace(spec, traffic=_replace(traffic, trace=resolved))
    return spec


# ----------------------------------------------------------- artifacts
def _json_safe(value):
    """Non-finite floats are invalid strict JSON; ship them as strings."""
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)
    return value


def scenario_payload(spec: ScenarioSpec, *, ok: bool,
                     wall_seconds: float,
                     scenario_metrics: Dict[str, float],
                     checks: List[CheckOutcome],
                     errors: Optional[Dict[str, str]] = None,
                     results: Optional[Dict[str, dict]] = None) -> dict:
    """The canonical ``BENCH_scenario_*`` payload (stable key order).

    ``errors``/``results`` are only present for experiment scenarios
    (pass ``None`` to omit them, matching a batch-less monitors/trace
    run).
    """
    check_docs = []
    for check in checks:
        doc = {
            "expectation": check.expectation.to_dict(),
            "actual": _json_safe(check.actual),
            "passed": check.passed,
        }
        if check.expectation.than_variant is not None:
            doc["reference"] = _json_safe(check.reference)
        check_docs.append(doc)
    payload = {
        "spec": spec.to_dict(),
        "ok": ok,
        "wall_seconds": wall_seconds,
        "scenario_metrics": {name: _json_safe(value) for name, value
                             in sorted(scenario_metrics.items())},
        "checks": check_docs,
    }
    if errors is not None:
        payload["errors"] = dict(sorted(errors.items()))
    if results is not None:
        payload["results"] = dict(results)
    return payload


def scenario_artifact_name(spec: ScenarioSpec) -> str:
    """The document name of one scenario's artifact (no extension)."""
    return "scenario_" + spec.scenario_id.replace("/", "_")


def write_scenario_artifact(out_dir: str,
                            result: ScenarioResult) -> str:
    """Write one scenario's ``BENCH_scenario_<id>.json``.

    Experiment results carry the summaries exactly as the executor
    delivered them (``variant_summaries``), so the written bytes never
    depend on which executor ran the cells.
    """
    errors = results = None
    if result.batch is not None:
        errors = result.batch.errors
        results = result.variant_summaries or \
            {name: summarize_result(res)
             for name, res in result.batch.results.items()}
    payload = scenario_payload(
        result.spec, ok=result.ok, wall_seconds=result.wall_seconds,
        scenario_metrics=result.scenario_metrics, checks=result.checks,
        errors=errors, results=results)
    return write_bench_document(
        out_dir, scenario_artifact_name(result.spec), payload)
