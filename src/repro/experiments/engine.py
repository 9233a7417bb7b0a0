"""The parallel experiment engine.

One :class:`ExperimentJob` names one :class:`ExperimentConfig`; the
engine fans a batch of jobs out across worker processes, aggregates
their :class:`ExperimentResult`\\ s deterministically (by job order —
each job carries its own seed, so the output is reproducible regardless
of scheduling), accounts for per-job failures without killing the
batch, and writes ``BENCH_*.json`` artifacts that CI uploads and the
bench trajectory consumes.

Workers rebuild their workload from the config by name, so nothing but
plain dataclasses crosses the process boundary.  ``workers <= 1`` runs
the batch serially in-process, which is also the fallback when
multiprocessing is unavailable (restricted environments).
"""

from __future__ import annotations

import json
import multiprocessing
import os
import platform
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.experiments.runner import (
    ExperimentConfig,
    ExperimentResult,
    run_experiment,
)

#: artifact schema version — bump when the JSON layout changes
#: (2: workload_params in configs, search_replays/soft_denials counters;
#: 3: versioned scenario specs, shard artifacts with shard/selection
#: metadata and mergeable per-variant results;
#: 4: optional per-run DMV ``snapshot`` behind ``--snapshot``,
#: cross-variant expectation checks carrying a ``reference`` value.
#: Amendment under 4 (backward compatible, no bump): open-loop runs add
#: a ``traffic`` key to their config doc and an ``open_loop`` fact
#: block to their summary; both appear only when a run carries a
#: traffic spec, so closed-loop artifacts are byte-identical.
#: Second amendment under 4, since withdrawn: runs on a non-default
#: scheduler core added a ``kernel`` key to their config doc.  Configs
#: no longer choose a core, so no run writes it; readers ignore it in
#: old artifacts.
#: Third amendment under 4: runs with an admission policy and/or SLO
#: objectives add ``admission``/``slo`` keys to their config doc and an
#: ``slo`` fact block to their summary — all three appear only when the
#: config carries them, so policy-free artifacts keep their exact bytes.
#: Fourth amendment under 4: runs with an explicit optimizer pipeline
#: spec add an ``optimizer`` key to their config doc — only when the
#: config carries one, so spec-free artifacts keep their exact bytes)
ARTIFACT_SCHEMA = 4


@dataclass(frozen=True)
class ExperimentJob:
    """One named unit of work for the engine."""

    name: str
    config: ExperimentConfig


@dataclass
class BatchResult:
    """Everything one engine run produced.

    ``results`` maps job name -> result for jobs that finished;
    ``errors`` maps job name -> formatted exception for jobs that did
    not.  ``ordered`` preserves submission order (with ``None`` holes
    for failed jobs) so positional consumers stay deterministic.
    """

    results: Dict[str, ExperimentResult] = field(default_factory=dict)
    errors: Dict[str, str] = field(default_factory=dict)
    ordered: List[Optional[ExperimentResult]] = field(default_factory=list)
    workers: int = 1
    wall_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        """True when every job of the batch finished without error."""
        return not self.errors


def _run_job(payload: Tuple[int, str, ExperimentConfig]):
    """Run one experiment, never raise (worker and serial entry point)."""
    index, name, config = payload
    try:
        result = run_experiment(config)
    except Exception as exc:  # noqa: BLE001 - error accounting, not control flow
        return index, name, None, f"{type(exc).__name__}: {exc}"
    return index, name, result, None


class ExperimentEngine:
    """Runs experiment batches, serially or across processes.

    Each job builds, runs and tears down its own server, so nothing
    one job leaves behind reaches another: a job's result is a
    function of its config alone, whichever worker ran it and
    whatever ran there before.
    """

    def __init__(self, workers: int = 1):
        self.workers = max(1, int(workers))

    def run(self, jobs: Sequence[ExperimentJob],
            progress: Optional[Callable[[str], None]] = None) -> BatchResult:
        """Execute ``jobs``; aggregation order == submission order."""
        started = time.time()
        outcomes = list(self.run_iter(jobs, progress=progress))
        workers = min(self.workers, len(jobs)) or 1

        batch = BatchResult(workers=workers)
        batch.ordered = [None] * len(jobs)
        # sort by submission index: with per-job seeds this makes the
        # aggregate independent of worker scheduling
        for index, name, result, error in sorted(
                outcomes, key=lambda outcome: outcome[0]):
            if error is not None:
                batch.errors[name] = error
            else:
                batch.results[name] = result
                batch.ordered[index] = result
        batch.wall_seconds = time.time() - started
        return batch

    def run_iter(self, jobs: Sequence[ExperimentJob],
                 progress: Optional[Callable[[str], None]] = None):
        """Execute ``jobs``, yielding ``(index, name, result, error)``
        outcomes in completion order.

        The streaming sibling of :meth:`run`: consumers that persist
        per-job (the pool cell executor) see each outcome as soon as
        its job finishes instead of after the whole batch.
        """
        names = [job.name for job in jobs]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate job names in batch: {names}")
        payloads = [(i, job.name, job.config)
                    for i, job in enumerate(jobs)]
        workers = min(self.workers, len(payloads)) or 1
        if workers > 1:
            yield from self._iter_pool(payloads, workers, progress)
        else:
            yield from self._iter_serial(payloads, progress)

    def _iter_serial(self, payloads, progress):
        for payload in payloads:
            outcome = _run_job(payload)
            self._note(progress, outcome)
            yield outcome

    def _iter_pool(self, payloads, workers: int, progress):
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX fallback
            ctx = multiprocessing.get_context("spawn")
        done = set()
        try:
            with ctx.Pool(processes=workers) as pool:
                for outcome in pool.imap_unordered(_run_job, payloads):
                    self._note(progress, outcome)
                    done.add(outcome[0])
                    yield outcome
        except (OSError, PermissionError):  # pragma: no cover - sandboxed
            # no process spawning allowed: degrade to the serial path
            for payload in payloads:
                if payload[0] not in done:
                    outcome = _run_job(payload)
                    self._note(progress, outcome)
                    yield outcome

    @staticmethod
    def _note(progress, outcome) -> None:
        if progress is None:
            return
        _, name, result, error = outcome
        if error is not None:
            progress(f"{name}: FAILED ({error})")
        else:
            progress(f"{name}: completed={result.completed} "
                     f"failed={result.failed} "
                     f"wall={result.wall_seconds:.1f}s")


def run_jobs(jobs: Sequence[ExperimentJob], workers: int = 1,
             progress: Optional[Callable[[str], None]] = None
             ) -> BatchResult:
    """Convenience wrapper: one engine, one batch."""
    return ExperimentEngine(workers=workers).run(jobs, progress=progress)


# ------------------------------------------------------------- artifacts
def summarize_result(result: ExperimentResult) -> dict:
    """The JSON-ready summary of one run (stable key order).

    The optional trailing ``snapshot`` key (the end-of-run DMV dump,
    present only when the run was configured with
    ``capture_snapshot``) is execution metadata: it is zeroed by
    :func:`~repro.experiments.shards.canonical_document` and never
    feeds back into metrics.
    """
    config = result.config
    config_doc = {
        "workload": config.workload,
        "workload_params": dict(config.workload_params),
        "clients": config.clients,
        "throttling": config.throttling,
        "preset": config.preset,
        "seed": config.seed,
        "think_time": config.think_time,
    }
    if config.traffic is not None:
        config_doc["traffic"] = config.traffic.to_dict()
    if config.admission is not None:
        config_doc["admission"] = config.admission.to_dict()
    if config.slo is not None:
        config_doc["slo"] = config.slo.to_dict()
    if config.optimizer is not None:
        config_doc["optimizer"] = config.optimizer.to_dict()
    summary = {
        "config": config_doc,
        "completed": result.completed,
        "failed": result.failed,
        "error_counts": dict(sorted(result.error_counts.items())),
        "degraded": result.degraded,
        "retries": result.retries,
        "search_replays": result.search_replays,
        "soft_denials": result.soft_denials,
        "mean_per_bucket": result.mean_per_bucket,
        "mean_compile_time": result.mean_compile_time,
        "mean_execution_time": result.mean_execution_time,
        "memory_by_clerk": dict(sorted(result.memory_by_clerk.items())),
        "gateway_stats": [list(row) for row in result.gateway_stats],
        "throughput": [[t, c] for t, c in result.throughput],
        "wall_seconds": result.wall_seconds,
    }
    if result.open_loop is not None:
        # deterministic simulated admission facts — pinned, unlike the
        # wall-clock fields above
        summary["open_loop"] = dict(sorted(result.open_loop.items()))
    if result.slo is not None:
        # SLO verdicts over the open-loop facts — pinned as well
        summary["slo"] = dict(sorted(result.slo.items()))
    if result.snapshot is not None:
        summary["snapshot"] = result.snapshot
    return summary


def write_bench_document(out_dir: str, name: str, payload: dict) -> str:
    """Write ``BENCH_<name>.json`` with the standard envelope.

    Every artifact (engine batches, the benchmark session summary)
    goes through here so the schema version, filename convention and
    serialization stay uniform for CI consumers.
    """
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"BENCH_{name}.json")
    doc = {
        "schema": ARTIFACT_SCHEMA,
        "name": name,
        "python": platform.python_version(),
    }
    doc.update(payload)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=False)
        fh.write("\n")
    return path


def write_artifact(out_dir: str, name: str, batch: BatchResult) -> str:
    """Write one batch's ``BENCH_<name>.json``; returns the path.

    The artifact is deterministic apart from the wall-clock fields, so
    diffs between CI runs surface real behaviour changes.
    """
    return write_bench_document(out_dir, name, {
        "workers": batch.workers,
        "wall_seconds": batch.wall_seconds,
        "errors": dict(sorted(batch.errors.items())),
        "results": {job_name: summarize_result(result)
                    for job_name, result in batch.results.items()},
    })


# ------------------------------------------------------------- suites
def figure_suite_jobs(preset: str = "smoke", seed: int = 3,
                      workload: str = "sales") -> List[ExperimentJob]:
    """The six runs behind Figures 3/4/5 (30/35/40 clients, throttled
    and un-throttled), derived from the registered figure scenarios."""
    from repro.scenarios import jobs_for_scenario, throughput_scenario

    jobs = []
    for clients in (30, 35, 40):
        spec = throughput_scenario(clients, preset=preset, seed=seed,
                                   workload=workload)
        jobs.extend(jobs_for_scenario(spec, prefix=f"fig_{clients}c_"))
    return jobs


def saturation_suite_jobs(preset: str = "smoke", seed: int = 3,
                          clients: Sequence[int] = (5, 15, 30, 40),
                          workload: str = "sales") -> List[ExperimentJob]:
    """The CLAIM-SAT client sweep, derived from the scenario spec."""
    from repro.scenarios import jobs_for_scenario, saturation_scenario

    spec = saturation_scenario(clients, preset=preset, seed=seed,
                               workload=workload)
    return jobs_for_scenario(spec)
