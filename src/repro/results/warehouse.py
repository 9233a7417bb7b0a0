"""The results warehouse: a cross-run star schema over BENCH data.

Every execution surface writes write-once artifacts (``BENCH_*.json``
dirs, cell journals); nothing aggregated across runs.  This module is
the trajectory store those surfaces feed: a small sqlite star schema —
``runs`` and ``cells`` dimensions, a ``metrics`` fact table — bulk-
loaded from artifact directories and journals (the classic
dimension/fact split, loaded ``executemany`` in one transaction per
run, after pygrametl's ``tables.py``/``parallel.py`` idiom).

Identity and idempotence
------------------------
A loaded run's **fingerprint** hashes three things: the selection
fingerprint the journal module already defines (cells + specs +
snapshot flag, order-insensitive), the code identity (git sha) and the
host — plus a digest of the ingested document bytes, so two *distinct*
executions of the same selection on the same commit and machine stay
two runs (their wall clocks differ), while re-``load``-ing the same
artifact directory is a no-op that returns the existing run.

Metrics contract
----------------
Each fact row carries a ``volatile`` flag taken from
:data:`~repro.experiments.shards.VOLATILE_FIELDS` — the same frozen
set :func:`~repro.experiments.shards.canonical_document` zeroes.
``diff`` compares two runs cell-by-cell and reports non-volatile
deltas as regressions-in-waiting; ``trend`` digests per-scenario
``wall_seconds`` into nearest-rank percentiles.  See ``docs/results.md`` for the full contract.
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
import platform
import sqlite3
import subprocess
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.experiments.runner import ARTIFACT_SCHEMA
from repro.experiments.shards import (
    VOLATILE_FIELDS,
    load_bench_document,
    wall_seconds_percentiles,
)

#: version of the warehouse's own sqlite schema, recorded in ``meta``;
#: a warehouse file of another version refuses to open (re-``load``
#: from the artifacts, which remain the system of record)
WAREHOUSE_SCHEMA = 1

#: oldest artifact schema ``load`` ingests.  Schema-1 artifacts
#: predate per-variant summaries — they carry no per-cell facts to
#: warehouse (see the schema history appendix in docs/results.md)
MIN_ARTIFACT_SCHEMA = 2

#: the error pseudo-metric: a cell that produced an error instead of a
#: summary contributes exactly this fact.  Deterministic failures fail
#: identically on re-run, so it is a *pinned* metric: an error
#: appearing or disappearing between two runs is a real delta
ERROR_METRIC = "cell_error"

#: fact rows per ``executemany`` batch during a bulk load
_LOAD_BATCH = 500

_DDL = """
CREATE TABLE meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE runs (
    run_id          INTEGER PRIMARY KEY AUTOINCREMENT,
    fingerprint     TEXT NOT NULL UNIQUE,
    label           TEXT NOT NULL,
    source          TEXT NOT NULL,
    git_sha         TEXT NOT NULL,
    host            TEXT NOT NULL,
    loaded_at       TEXT NOT NULL,
    artifact_schema INTEGER NOT NULL,
    cells           INTEGER NOT NULL
);
CREATE TABLE cells (
    cell_id     INTEGER PRIMARY KEY AUTOINCREMENT,
    scenario_id TEXT NOT NULL,
    variant     TEXT NOT NULL,
    seed        INTEGER NOT NULL,
    kind        TEXT NOT NULL,
    UNIQUE (scenario_id, variant, seed)
);
CREATE TABLE metrics (
    run_id   INTEGER NOT NULL REFERENCES runs (run_id),
    cell_id  INTEGER NOT NULL REFERENCES cells (cell_id),
    metric   TEXT NOT NULL,
    value    REAL NOT NULL,
    volatile INTEGER NOT NULL,
    PRIMARY KEY (run_id, cell_id, metric)
);
CREATE INDEX metrics_by_metric ON metrics (metric, run_id);
"""


def cell_key(scenario_id: str, variant: str, seed) -> str:
    """The ``scenario/variant#seed`` label every surface shares (the
    :meth:`~repro.experiments.executors.CellTask.key` shape)."""
    return f"{scenario_id}/{variant}#{seed}"


def detect_git_sha() -> str:
    """The current commit, or ``"unknown"`` outside a git checkout."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    sha = proc.stdout.strip()
    return sha if proc.returncode == 0 and sha else "unknown"


def run_fingerprint(selection: dict, git_sha: str, host: str,
                    content_digest: str) -> str:
    """The identity of one loaded run (see the module docstring)."""
    doc = {"selection": selection, "git_sha": git_sha, "host": host,
           "content": content_digest}
    return hashlib.sha256(
        json.dumps(doc, sort_keys=True,
                   separators=(",", ":")).encode("utf-8")).hexdigest()


# ----------------------------------------------------------- extraction
@dataclass
class RunExtract:
    """Everything one ingestible source (artifact dir / journal) says.

    ``facts`` maps ``(scenario_id, variant, seed)`` to that cell's
    metric namespace; ``kinds`` records each cell's scenario kind for
    the dimension row; ``skipped`` names documents that carry no
    per-cell facts (batch summaries and the like) — they
    are reported, never silently dropped *or* silently fatal.
    """

    source: str
    artifact_schema: int
    selection: dict
    facts: Dict[Tuple[str, str, int], Dict[str, float]]
    kinds: Dict[Tuple[str, str, int], str]
    content_digest: str
    skipped: List[str] = field(default_factory=list)


def _check_artifact_schema(schema, origin: str) -> int:
    if not isinstance(schema, int):
        raise ConfigurationError(
            f"{origin} carries no artifact schema; refusing to guess "
            f"its shape")
    if schema > ARTIFACT_SCHEMA:
        raise ConfigurationError(
            f"{origin} has artifact schema {schema}; this build loads "
            f"schemas {MIN_ARTIFACT_SCHEMA}..{ARTIFACT_SCHEMA}")
    if schema < MIN_ARTIFACT_SCHEMA:
        raise ConfigurationError(
            f"{origin} has pre-summary artifact schema {schema}; "
            f"schema {MIN_ARTIFACT_SCHEMA} is the oldest with per-cell "
            f"facts to warehouse")
    return schema


def _float_metrics(metrics: dict) -> Dict[str, float]:
    """Coerce a metric namespace to floats (non-finite values travel
    as their ``repr`` strings in artifacts, see ``execute_cell``)."""
    return {name: float(value) for name, value in metrics.items()}


def _record_cell(extract_facts: dict, kinds: dict, cell: tuple,
                 kind: str, metrics: Dict[str, float]) -> None:
    if cell in extract_facts:
        raise ConfigurationError(
            f"cell {cell_key(*cell)} appears in more than one "
            f"document; one load ingests one run")
    extract_facts[cell] = metrics
    kinds[cell] = kind


def _extract_entry(scenario_id: str, entry: dict, specs: dict,
                   facts: dict, kinds: dict, state: dict) -> None:
    """Fold one scenario artifact into the extract's facts, keeping
    the whole metric namespace."""
    from repro.scenarios.facade import metrics_from_summary

    spec_doc = entry.get("spec")
    if not isinstance(spec_doc, dict):
        raise ConfigurationError(
            f"scenario {scenario_id!r} entry carries no spec")
    known = specs.get(scenario_id)
    if known is not None and known != spec_doc:
        raise ConfigurationError(
            f"documents disagree about the spec of scenario "
            f"{scenario_id!r}; load one selection's artifacts at a "
            f"time")
    specs[scenario_id] = spec_doc
    kind = spec_doc.get("kind", "experiment")
    try:
        if "results" in entry or kind == "experiment":
            for variant, summary in (entry.get("results") or {}).items():
                seed = summary.get("config", {}).get(
                    "seed", spec_doc.get("seed"))
                if "snapshot" in summary:
                    state["snapshot"] = True
                _record_cell(facts, kinds,
                             (scenario_id, variant, int(seed)), kind,
                             _float_metrics(metrics_from_summary(summary)))
            for variant, _error in (entry.get("errors") or {}).items():
                _record_cell(facts, kinds,
                             (scenario_id, variant,
                              int(spec_doc.get("seed", 0))), kind,
                             {ERROR_METRIC: 1.0})
        else:
            # monitors/trace: one render cell, named after the spec's
            # first variant (or "run")
            variants = spec_doc.get("variants") or []
            name = variants[0].get("name", "run") \
                if variants and isinstance(variants[0], dict) else "run"
            metrics = _float_metrics(entry.get("scenario_metrics") or {})
            metrics["wall_seconds"] = float(entry.get("wall_seconds", 0.0))
            _record_cell(facts, kinds,
                         (scenario_id, name,
                          int(spec_doc.get("seed", 0))), kind, metrics)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigurationError(
            f"scenario {scenario_id!r} entry is malformed: "
            f"{type(exc).__name__}: {exc}") from None


def _selection_doc(specs: Dict[str, dict], facts: dict,
                   snapshot: bool) -> dict:
    """The journal-shaped selection fingerprint of an extract (cells
    sorted, specs keyed by scenario id — see
    :func:`repro.experiments.journal.selection_fingerprint`)."""
    return {
        "cells": sorted([sid, variant, seed]
                        for sid, variant, seed in facts),
        "specs": [specs[sid] for sid in sorted(specs)],
        "snapshot": snapshot,
    }


def extract_artifact_dir(directory: str) -> RunExtract:
    """One run's facts from a ``BENCH_*.json`` artifact directory.

    Ingests scenario artifacts (artifact schemas
    ``MIN_ARTIFACT_SCHEMA..ARTIFACT_SCHEMA``); any other document —
    the benchmark session's batch summary, a summary of a removed
    command — carries no per-cell facts and is skipped with a note.
    Malformed documents and future schemas are hard errors.
    """
    paths = sorted(glob.glob(os.path.join(directory, "BENCH_*.json")))
    if not paths:
        raise ConfigurationError(
            f"no BENCH_*.json artifacts in directory {directory!r}")
    digest = hashlib.sha256()
    specs: Dict[str, dict] = {}
    facts: Dict[Tuple[str, str, int], Dict[str, float]] = {}
    kinds: Dict[Tuple[str, str, int], str] = {}
    skipped: List[str] = []
    state = {"snapshot": False}
    schema_seen = MIN_ARTIFACT_SCHEMA
    for path in paths:
        doc = load_bench_document(path)
        name = os.path.basename(path)
        schema = _check_artifact_schema(doc.get("schema"),
                                        f"artifact {name!r}")
        if isinstance(doc.get("spec"), dict):
            entries = {doc["spec"].get("scenario_id"): doc}
        else:
            skipped.append(
                f"{name}: {doc.get('kind') or 'batch'} summary "
                f"(no per-cell facts)")
            continue
        schema_seen = max(schema_seen, schema)
        with open(path, "rb") as fh:
            digest.update(fh.read())
        for scenario_id, entry in entries.items():
            if not scenario_id or not isinstance(entry, dict):
                raise ConfigurationError(
                    f"artifact {name!r} carries a malformed scenario "
                    f"entry")
            _extract_entry(scenario_id, entry, specs, facts, kinds,
                           state)
    if not facts:
        raise ConfigurationError(
            f"directory {directory!r} holds no per-cell facts "
            f"(only: {'; '.join(skipped)})")
    return RunExtract(source=directory, artifact_schema=schema_seen,
                      selection=_selection_doc(specs, facts,
                                               state["snapshot"]),
                      facts=facts, kinds=kinds,
                      content_digest=digest.hexdigest(), skipped=skipped)


def extract_journal(path: str) -> RunExtract:
    """One run's facts from a cell journal.

    The journal's ``open`` record already carries the selection
    fingerprint; each ``result`` record carries the exact summary an
    artifact would, so a journal-loaded run diffs clean — including
    wall clocks — against the artifacts of the same execution.
    """
    from repro.experiments.journal import load_journal

    state = load_journal(path)
    if state.selection is None:
        raise ConfigurationError(
            f"journal {path!r} has no run header; nothing to load")
    _check_artifact_schema(state.schema, f"journal {path!r}")
    specs = {spec.get("scenario_id"): spec
             for spec in state.selection.get("specs", [])
             if isinstance(spec, dict)}
    facts: Dict[Tuple[str, str, int], Dict[str, float]] = {}
    kinds: Dict[Tuple[str, str, int], str] = {}
    from repro.scenarios.facade import metrics_from_summary

    for cell, result in state.results.items():
        spec_doc = specs.get(cell.scenario_id, {})
        kind = spec_doc.get("kind", "experiment")
        key = (cell.scenario_id, cell.variant, cell.seed)
        try:
            if result.summary is not None:
                metrics = _float_metrics(
                    metrics_from_summary(result.summary))
            elif result.error is not None:
                metrics = {ERROR_METRIC: 1.0}
            else:
                metrics = _float_metrics(result.scenario_metrics or {})
                metrics["wall_seconds"] = float(result.wall_seconds)
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(
                f"journal {path!r} result for {cell.describe()} is "
                f"malformed: {type(exc).__name__}: {exc}") from None
        _record_cell(facts, kinds, key, kind, metrics)
    if not facts:
        raise ConfigurationError(
            f"journal {path!r} records no completed cells")
    with open(path, "rb") as fh:
        content = hashlib.sha256(fh.read()).hexdigest()
    return RunExtract(source=path, artifact_schema=state.schema,
                      selection=state.selection, facts=facts,
                      kinds=kinds, content_digest=content)


def extract_source(source: str) -> RunExtract:
    """Dispatch on the source's shape: directory → artifacts, file →
    journal (pointing ``load`` at a single ``BENCH_*.json`` gets a
    hint instead of a journal parse error)."""
    if os.path.isdir(source):
        return extract_artifact_dir(source)
    if not os.path.exists(source):
        raise ConfigurationError(
            f"cannot load {source!r}: no such artifact directory or "
            f"journal file")
    if os.path.basename(source).startswith("BENCH_"):
        raise ConfigurationError(
            f"{source!r} is a single artifact; point `repro results "
            f"load` at its directory")
    return extract_journal(source)


# ------------------------------------------------------------ row types
@dataclass(frozen=True)
class RunRow:
    """One ``runs`` dimension row."""

    run_id: int
    fingerprint: str
    label: str
    source: str
    git_sha: str
    host: str
    loaded_at: str
    artifact_schema: int
    cells: int

    def describe(self) -> str:
        return f"run {self.run_id} ({self.label})"


@dataclass(frozen=True)
class LoadReport:
    """What one ``load`` did (or found already done)."""

    run: RunRow
    created: bool
    metrics: int
    skipped: Tuple[str, ...] = ()


@dataclass(frozen=True)
class DiffDelta:
    """One metric that differs between two runs of a cell."""

    cell: str
    metric: str
    baseline: Optional[float]
    candidate: Optional[float]
    volatile: bool


@dataclass
class DiffReport:
    """A cell-by-cell comparison of two runs."""

    baseline: RunRow
    candidate: RunRow
    shared_cells: int
    deltas: List[DiffDelta]
    #: cells present in only one of the two runs
    missing: List[str]

    @property
    def pinned_deltas(self) -> List[DiffDelta]:
        """Deltas in non-volatile metrics — real behaviour changes."""
        return [d for d in self.deltas if not d.volatile]

    @property
    def volatile_deltas(self) -> List[DiffDelta]:
        return [d for d in self.deltas if d.volatile]

    @property
    def ok(self) -> bool:
        """True when the runs agree on every pinned metric of every
        shared cell and cover the same cells."""
        return not self.pinned_deltas and not self.missing


# ------------------------------------------------------------ warehouse
class Warehouse:
    """The sqlite star schema, with the load/query/diff/trend verbs.

    ``create=True`` (the ``load`` path) initialises a missing file;
    read verbs refuse to conjure an empty warehouse out of a typo'd
    path.  Usable as a context manager; one connection per instance.
    """

    def __init__(self, path: str, create: bool = False):
        if not create and not os.path.exists(path):
            raise ConfigurationError(
                f"no results warehouse at {path!r}; build one with "
                f"`repro results load <artifact-dir> --db {path}`")
        if create:
            parent = os.path.dirname(os.path.abspath(path))
            os.makedirs(parent, exist_ok=True)
        self.path = path
        try:
            self._conn = sqlite3.connect(path)
        except sqlite3.Error as exc:
            raise ConfigurationError(
                f"cannot open warehouse {path!r}: {exc}") from None
        self._init_schema(create)

    def _init_schema(self, create: bool) -> None:
        try:
            row = self._conn.execute(
                "SELECT value FROM meta WHERE key = 'warehouse_schema'"
            ).fetchone()
        except sqlite3.Error:
            row = None
        if row is not None:
            if int(row[0]) != WAREHOUSE_SCHEMA:
                raise ConfigurationError(
                    f"warehouse {self.path!r} has schema {row[0]}; this "
                    f"build speaks warehouse schema {WAREHOUSE_SCHEMA} "
                    f"— re-load from the artifacts (the system of "
                    f"record)")
            return
        if not create:
            raise ConfigurationError(
                f"{self.path!r} is not a results warehouse")
        with self._conn:
            self._conn.executescript(_DDL)
            self._conn.execute(
                "INSERT INTO meta (key, value) VALUES (?, ?)",
                ("warehouse_schema", str(WAREHOUSE_SCHEMA)))

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "Warehouse":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------ load
    def load(self, source: str, label: Optional[str] = None,
             git_sha: Optional[str] = None,
             host: Optional[str] = None) -> LoadReport:
        """Ingest one source as one run; idempotent on re-load.

        Dimension rows are upserted, fact rows bulk-inserted in
        batches inside a single transaction — a failed load leaves no
        partial run behind.
        """
        extract = extract_source(source)
        git_sha = git_sha or detect_git_sha()
        host = host or platform.node() or "unknown"
        fingerprint = run_fingerprint(extract.selection, git_sha, host,
                                      extract.content_digest)
        existing = self._conn.execute(
            "SELECT run_id FROM runs WHERE fingerprint = ?",
            (fingerprint,)).fetchone()
        if existing is not None:
            run = self._run_row(existing[0])
            facts = self._conn.execute(
                "SELECT COUNT(*) FROM metrics WHERE run_id = ?",
                (run.run_id,)).fetchone()[0]
            return LoadReport(run=run, created=False, metrics=facts,
                              skipped=tuple(extract.skipped))
        loaded_at = datetime.now(timezone.utc).isoformat(
            timespec="seconds")
        with self._conn:
            cursor = self._conn.execute(
                "INSERT INTO runs (fingerprint, label, source, git_sha,"
                " host, loaded_at, artifact_schema, cells)"
                " VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                (fingerprint, label or str(source), str(source),
                 git_sha, host, loaded_at, extract.artifact_schema,
                 len(extract.facts)))
            run_id = cursor.lastrowid
            ordered = sorted(extract.facts)
            self._conn.executemany(
                "INSERT OR IGNORE INTO cells (scenario_id, variant,"
                " seed, kind) VALUES (?, ?, ?, ?)",
                [(sid, variant, seed, extract.kinds[(sid, variant, seed)])
                 for sid, variant, seed in ordered])
            cell_ids = {
                (sid, variant, seed): cid
                for cid, sid, variant, seed in self._conn.execute(
                    "SELECT cell_id, scenario_id, variant, seed"
                    " FROM cells")}
            rows = [(run_id, cell_ids[cell], metric, float(value),
                     int(metric in VOLATILE_FIELDS))
                    for cell in ordered
                    for metric, value in
                    sorted(extract.facts[cell].items())]
            for start in range(0, len(rows), _LOAD_BATCH):
                self._conn.executemany(
                    "INSERT INTO metrics (run_id, cell_id, metric,"
                    " value, volatile) VALUES (?, ?, ?, ?, ?)",
                    rows[start:start + _LOAD_BATCH])
        return LoadReport(run=self._run_row(run_id), created=True,
                          metrics=len(rows),
                          skipped=tuple(extract.skipped))

    # ------------------------------------------------------ run lookup
    def _run_row(self, run_id: int) -> RunRow:
        row = self._conn.execute(
            "SELECT run_id, fingerprint, label, source, git_sha, host,"
            " loaded_at, artifact_schema, cells FROM runs"
            " WHERE run_id = ?", (run_id,)).fetchone()
        if row is None:
            raise ConfigurationError(
                f"no run {run_id} in warehouse {self.path!r}")
        return RunRow(*row)

    def runs(self) -> List[RunRow]:
        """Every loaded run, oldest first."""
        return [RunRow(*row) for row in self._conn.execute(
            "SELECT run_id, fingerprint, label, source, git_sha, host,"
            " loaded_at, artifact_schema, cells FROM runs"
            " ORDER BY run_id")]

    def resolve(self, ref) -> RunRow:
        """A run from any human handle: integer id, ``latest`` /
        ``prev``, an exact label, or a fingerprint prefix."""
        runs = self.runs()
        if not runs:
            raise ConfigurationError(
                f"warehouse {self.path!r} holds no runs; "
                f"`repro results load` some first")
        ref = str(ref)
        if ref == "latest":
            return runs[-1]
        if ref in ("prev", "previous"):
            if len(runs) < 2:
                raise ConfigurationError(
                    f"warehouse {self.path!r} holds only one run; "
                    f"there is no previous run yet")
            return runs[-2]
        if ref.isdigit():
            for run in runs:
                if run.run_id == int(ref):
                    return run
        labelled = [run for run in runs if run.label == ref]
        if len(labelled) == 1:
            return labelled[0]
        if len(labelled) > 1:
            raise ConfigurationError(
                f"label {ref!r} names {len(labelled)} runs; use the "
                f"run id")
        prefixed = [run for run in runs
                    if run.fingerprint.startswith(ref)]
        if len(prefixed) == 1:
            return prefixed[0]
        if ref.isdigit():
            # a fingerprint prefix may be all digits, so a number that
            # names no run id is tried as a label and prefix first
            raise ConfigurationError(
                f"no run {ref} in warehouse {self.path!r} (runs "
                f"{runs[0].run_id}..{runs[-1].run_id})")
        raise ConfigurationError(
            f"no run named {ref!r} in warehouse {self.path!r}; refs "
            f"are a run id, 'latest', 'prev', a label or a "
            f"fingerprint prefix")

    # ----------------------------------------------------------- query
    def query(self, run=None, scenario: Optional[str] = None,
              variant: Optional[str] = None,
              metric: Optional[str] = None) -> List[tuple]:
        """Fact rows ``(run_id, scenario, variant, seed, metric,
        value, volatile)``, filtered and deterministically ordered."""
        sql = ("SELECT m.run_id, c.scenario_id, c.variant, c.seed,"
               " m.metric, m.value, m.volatile"
               " FROM metrics m JOIN cells c ON c.cell_id = m.cell_id")
        clauses, params = [], []
        if run is not None:
            clauses.append("m.run_id = ?")
            params.append(self.resolve(run).run_id)
        for clause, value in (("c.scenario_id = ?", scenario),
                              ("c.variant = ?", variant),
                              ("m.metric = ?", metric)):
            if value is not None:
                clauses.append(clause)
                params.append(value)
        if clauses:
            sql += " WHERE " + " AND ".join(clauses)
        sql += (" ORDER BY m.run_id, c.scenario_id, c.variant, c.seed,"
                " m.metric")
        return list(self._conn.execute(sql, params))

    def _metric_map(self, run_id: int) -> Dict[str, dict]:
        out: Dict[str, dict] = {}
        for row in self._conn.execute(
                "SELECT c.scenario_id, c.variant, c.seed, m.metric,"
                " m.value, m.volatile FROM metrics m"
                " JOIN cells c ON c.cell_id = m.cell_id"
                " WHERE m.run_id = ?", (run_id,)):
            sid, variant, seed, metric, value, volatile = row
            out.setdefault(cell_key(sid, variant, seed), {})[metric] = \
                (value, bool(volatile))
        return out

    # ------------------------------------------------------------ diff
    def diff(self, baseline_ref, candidate_ref) -> DiffReport:
        """Compare two runs cell-by-cell (see :class:`DiffReport`).

        Diffing a run against itself is legal and reports zero deltas
        — the degenerate case of "byte-identical runs dedupe to one
        fingerprint".
        """
        baseline = self.resolve(baseline_ref)
        candidate = self.resolve(candidate_ref)
        base = self._metric_map(baseline.run_id)
        cand = self._metric_map(candidate.run_id)
        missing = [f"{key} only in {baseline.describe()}"
                   for key in sorted(set(base) - set(cand))]
        missing += [f"{key} only in {candidate.describe()}"
                    for key in sorted(set(cand) - set(base))]
        deltas: List[DiffDelta] = []
        shared = sorted(set(base) & set(cand))
        for key in shared:
            metrics_a, metrics_b = base[key], cand[key]
            for metric in sorted(set(metrics_a) | set(metrics_b)):
                in_a, in_b = metrics_a.get(metric), metrics_b.get(metric)
                volatile = (in_a or in_b)[1]
                value_a = in_a[0] if in_a else None
                value_b = in_b[0] if in_b else None
                if value_a != value_b:
                    deltas.append(DiffDelta(
                        cell=key, metric=metric, baseline=value_a,
                        candidate=value_b, volatile=volatile))
        return DiffReport(baseline=baseline, candidate=candidate,
                          shared_cells=len(shared), deltas=deltas,
                          missing=missing)

    # ----------------------------------------------------------- trend
    def scenario_percentiles(self, run_ref,
                             metric: str = "wall_seconds"
                             ) -> Dict[str, dict]:
        """Per-scenario nearest-rank percentile digest of one run's
        per-cell ``metric`` values (see
        :func:`~repro.experiments.shards.wall_seconds_percentiles`)."""
        run = self.resolve(run_ref)
        values: Dict[str, List[float]] = {}
        for sid, value in self._conn.execute(
                "SELECT c.scenario_id, m.value FROM metrics m"
                " JOIN cells c ON c.cell_id = m.cell_id"
                " WHERE m.run_id = ? AND m.metric = ? AND m.value > 0",
                (run.run_id, metric)):
            values.setdefault(sid, []).append(value)
        return {sid: wall_seconds_percentiles(walls)
                for sid, walls in sorted(values.items())}

    def trend(self, metric: str = "wall_seconds",
              scenario: Optional[str] = None
              ) -> Dict[str, List[Tuple[RunRow, dict]]]:
        """The ``wall_seconds_percentiles`` series per scenario, run by
        run (oldest first) — the trajectory the regression radar
        watches.  ``scenario`` restricts the series to one id."""
        series: Dict[str, List[Tuple[RunRow, dict]]] = {}
        for run in self.runs():
            for sid, digest in self.scenario_percentiles(
                    run.run_id, metric=metric).items():
                if scenario is not None and sid != scenario:
                    continue
                series.setdefault(sid, []).append((run, digest))
        if scenario is not None and not series:
            raise ConfigurationError(
                f"no {metric!r} facts for scenario {scenario!r} in "
                f"warehouse {self.path!r}")
        return series
