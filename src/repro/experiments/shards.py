"""Sharded scenario execution: partition, run anywhere, merge.

One machine saturates at its core count; this module is the step
past it.  A :class:`ShardPlan` partitions any scenario selection
into ``N`` independent shards at **cell** granularity (one cell = one
scenario × variant × seed), ``repro shards run --shard k/N`` executes
one shard in its own process — shards share nothing but the spec JSON,
so the N processes can live on N machines — and ``repro shards merge``
combines the per-shard ``BENCH_shard_*.json`` artifacts back into the
same per-scenario ``BENCH_scenario_*.json`` artifacts a single-machine
``repro scenarios run`` writes.

Determinism contract
--------------------
Every simulated number (completions, errors, degradations, throughput
series, gateway stats, ``soft_denials``) depends only on the cell's
config and seed, never on which shard or machine ran it, so a merge is
byte-identical to the single-machine artifact apart from two fields:
``wall_seconds`` (real time) and ``search_replays`` (compiles the
cell's own server served from its recorded searches — replays are
charge-identical, see ``repro.compilation.pipeline``).
:func:`canonical_document` zeroes exactly those fields; tests pin
byte-equality of the canonical forms.

Merge safety
------------
Shard documents carry the full selection (every cell of the plan), so
the merge can verify that the shards it was handed belong to one plan,
cover every cell exactly once (missing shards and overlapping cells are
hard errors naming the cells), and agree on every spec.  Pre-shard
schema-2 ``BENCH_scenario_*.json`` artifacts are accepted alongside
shard documents: each one is a complete scenario and merges as-is.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.experiments.runner import (
    ARTIFACT_SCHEMA,
    write_bench_document,
)
from repro.scenarios.facade import (
    rebuild_scenario_payload,
    scenario_artifact_name,
)
from repro.scenarios.spec import ScenarioSpec

#: volatile artifact fields zeroed by :func:`canonical_document` —
#: wall clock, the replay counter and the opt-in DMV ``snapshot``
#: (whose summary embeds ``search_replays``); everything else is
#: pinned.  No cache outlives its cell, so ``search_replays`` is a
#: function of the cell alone; it stays here only so that canonical
#: bytes, goldens and the benchmark's ``sim_digest`` do not move.
#: Corollary: an *expectation* referencing ``wall_seconds`` asserts on
#: the executing host and is outside the determinism contract (see
#: docs/sharding.md).
#: ``wall_seconds_percentiles`` (the merge summary's per-cell timing
#: digest) is derived purely from wall clocks and volatile with them.
VOLATILE_FIELDS = frozenset({"wall_seconds", "search_replays", "python",
                             "snapshot", "wall_seconds_percentiles"})

#: sanity ceiling on shard counts — far above any real deployment,
#: low enough that a typo'd `--shard 1/2000000000` fails instantly
MAX_SHARD_COUNT = 4096


# ---------------------------------------------------------------- plan
@dataclass(frozen=True)
class ShardCell:
    """One atomic unit of sharded work: scenario × variant × seed."""

    scenario_id: str
    variant: str
    seed: int

    def as_doc(self) -> list:
        """The JSON form (a 3-element list) used in shard documents."""
        return [self.scenario_id, self.variant, self.seed]

    @classmethod
    def from_doc(cls, doc: Sequence) -> "ShardCell":
        """Parse the JSON form back into a cell.

        Malformed documents (hand-edited or truncated artifacts) raise
        :class:`ConfigurationError` naming the offending value, never a
        bare ``TypeError``/``ValueError``.
        """
        try:
            if isinstance(doc, (str, bytes)) or len(doc) != 3:
                raise ValueError
            return cls(str(doc[0]), str(doc[1]), int(doc[2]))
        except (TypeError, ValueError):
            raise ConfigurationError(
                f"shard cell must be [scenario, variant, seed], "
                f"got {doc!r}") from None

    def describe(self) -> str:
        """Human-readable ``scenario/variant (seed N)`` label."""
        return f"{self.scenario_id}/{self.variant} (seed {self.seed})"


def parse_shard_selector(text: str) -> Tuple[int, int]:
    """Parse a ``k/N`` shard selector into ``(index, count)``.

    ``index`` is 1-based (``--shard 1/4`` … ``--shard 4/4``), matching
    CI matrix conventions.
    """
    head, sep, tail = text.partition("/")
    try:
        if not sep:
            raise ValueError
        index, count = int(head), int(tail)
    except ValueError:
        raise ConfigurationError(
            f"shard selector must look like k/N (e.g. 2/4), "
            f"got {text!r}") from None
    _check_shard_count(count)
    if not 1 <= index <= count:
        raise ConfigurationError(
            f"shard index {index} out of range 1..{count}")
    return index, count


def _check_shard_count(count: int) -> None:
    if count < 1:
        raise ConfigurationError(f"shard count must be >= 1, got {count}")
    if count > MAX_SHARD_COUNT:
        raise ConfigurationError(
            f"shard count {count} exceeds the ceiling of "
            f"{MAX_SHARD_COUNT}")


@dataclass(frozen=True)
class ShardPlan:
    """A deterministic partition of a scenario selection into shards.

    Cells are assigned round-robin in selection order, so shards stay
    balanced and every invocation of every shard derives the identical
    plan from the identical selection — the only coordination sharded
    execution needs.
    """

    count: int
    specs: Tuple[ScenarioSpec, ...]
    #: assignments[i] = cells shard ``i + 1`` owns
    assignments: Tuple[Tuple[ShardCell, ...], ...]

    @classmethod
    def partition(cls, specs: Sequence[ScenarioSpec],
                  count: int) -> "ShardPlan":
        """Partition ``specs`` into ``count`` shards, cell-round-robin.

        ``count`` may exceed the number of cells; the surplus shards
        are simply empty (they run and merge as no-ops).
        """
        _check_shard_count(count)
        specs = tuple(specs)
        ids = [spec.scenario_id for spec in specs]
        if len(set(ids)) != len(ids):
            raise ConfigurationError(
                f"duplicate scenario ids in selection: {ids}")
        cells = [ShardCell(spec.scenario_id, variant, spec.seed)
                 for spec in specs for variant in spec.variant_names()]
        assignments: List[List[ShardCell]] = [[] for _ in range(count)]
        for position, cell in enumerate(cells):
            assignments[position % count].append(cell)
        return cls(count=count, specs=specs,
                   assignments=tuple(tuple(a) for a in assignments))

    def all_cells(self) -> Tuple[ShardCell, ...]:
        """Every cell of the plan, in selection order."""
        return tuple(ShardCell(spec.scenario_id, variant, spec.seed)
                     for spec in self.specs
                     for variant in spec.variant_names())

    def cells_for(self, index: int) -> Tuple[ShardCell, ...]:
        """The cells shard ``index`` (1-based) owns."""
        if not 1 <= index <= self.count:
            raise ConfigurationError(
                f"shard index {index} out of range 1..{self.count}")
        return self.assignments[index - 1]

    def spec_for(self, scenario_id: str) -> ScenarioSpec:
        """The selection's spec for ``scenario_id``."""
        for spec in self.specs:
            if spec.scenario_id == scenario_id:
                return spec
        raise ConfigurationError(
            f"scenario {scenario_id!r} is not part of this plan")

    def selection_doc(self) -> dict:
        """The JSON selection fingerprint embedded in every shard doc.

        Carrying the *full* cell list (not just this shard's) lets the
        merge verify coverage and detect overlap without re-deriving
        the plan; carrying every spec document makes the fingerprint
        sensitive to *all* configuration (preset, clients, overrides…),
        so shards run with differing command lines never compare equal
        — even when no scenario happens to span two shards.
        """
        return {
            "shard_count": self.count,
            "cells": [cell.as_doc() for cell in self.all_cells()],
            "specs": [spec.to_dict() for spec in self.specs],
        }


# ----------------------------------------------------------- execution
def run_shard(plan: ShardPlan, index: int, workers: int = 1,
              progress: Optional[Callable[[str], None]] = None,
              executor=None, snapshot: bool = False,
              capture: Optional[str] = None) -> dict:
    """Execute one shard of ``plan``; returns the shard document payload.

    All owned cells go through one :class:`~repro.experiments.
    executors.CellExecutor` submission (``executor=None`` picks inline
    or the process pool from ``workers``, like every other surface),
    then re-group into per-scenario entries in selection order.
    ``capture`` is a directory each owned cell writes its replayable
    JSONL admission trace into (per-cell filenames, so shards of one
    plan can share a directory without collisions).  The
    payload carries everything the merge needs: the owned cells, each
    touched scenario's spec, per-variant result summaries and errors.
    """
    from repro.experiments.executors import CellTask, make_executor

    owned = plan.cells_for(index)
    owns_executor = executor is None
    if executor is None:
        executor = make_executor(workers=workers)
    tasks = [CellTask(cell=cell, spec=plan.spec_for(cell.scenario_id),
                      snapshot=snapshot, capture=capture)
             for cell in owned]
    try:
        cell_results = list(executor.submit(tasks, progress=progress))
    finally:
        if owns_executor:
            executor.close()
    by_scenario: Dict[str, list] = {}
    for result in cell_results:
        by_scenario.setdefault(result.cell.scenario_id, []).append(result)
    scenarios: Dict[str, dict] = {}
    for spec in plan.specs:
        cells = by_scenario.get(spec.scenario_id)
        if not cells:
            continue
        entry: dict = {"spec": spec.to_dict()}
        if spec.kind == "experiment":
            by_variant = {c.cell.variant: c for c in cells}
            entry["wall_seconds"] = sum(c.wall_seconds for c in cells)
            entry["errors"] = dict(sorted(
                (name, c.error) for name, c in by_variant.items()
                if c.error is not None))
            # spec variant order, matching run_scenario's deterministic
            # aggregation
            entry["results"] = {
                name: by_variant[name].summary
                for name in spec.variant_names()
                if name in by_variant and by_variant[name].ok}
        else:
            cell = cells[0]
            if cell.error is not None:
                # a monitors/trace renderer failure is a bug, not data
                raise RuntimeError(
                    f"scenario {spec.scenario_id!r} cell failed: "
                    f"{cell.error}")
            entry["wall_seconds"] = cell.wall_seconds
            # already JSON-safe and sorted (see executors.execute_cell)
            entry["scenario_metrics"] = dict(cell.scenario_metrics or {})
        scenarios[spec.scenario_id] = entry
    return {
        "kind": "shard",
        "shard": {"index": index, "count": plan.count},
        "selection": plan.selection_doc(),
        "cells": [cell.as_doc() for cell in owned],
        "scenarios": scenarios,
    }


def shard_artifact_name(index: int, count: int) -> str:
    """The document name of one shard's artifact (no extension)."""
    return f"shard_{index}of{count}"


def write_shard_artifact(out_dir: str, payload: dict) -> str:
    """Write one shard's ``BENCH_shard_<k>of<N>.json``; returns the path."""
    shard = payload["shard"]
    return write_bench_document(
        out_dir, shard_artifact_name(shard["index"], shard["count"]),
        payload)


# --------------------------------------------------------------- merge
def load_bench_document(path: str) -> dict:
    """Read one ``BENCH_*.json`` document with useful errors."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigurationError(
            f"cannot read artifact {path!r}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigurationError(
            f"artifact {path!r} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigurationError(
            f"artifact {path!r} is not a JSON object")
    return doc


def wall_seconds_percentiles(values: Iterable[float]) -> dict:
    """The per-cell wall-clock digest merge summaries carry.

    Nearest-rank percentiles (deterministic, no interpolation) of the
    observed per-cell ``wall_seconds``; ``repro results trend`` and
    the regression radar read the same digest.  Derived entirely from
    wall clocks, so the whole digest is canonically volatile (see
    :data:`VOLATILE_FIELDS`).
    """
    values = sorted(float(v) for v in values
                    if isinstance(v, (int, float)))
    if not values:
        return {"cells": 0, "p50": 0.0, "p90": 0.0, "max": 0.0}

    def rank(quantile: float) -> float:
        position = math.ceil(quantile * len(values)) - 1
        return values[min(len(values) - 1, max(0, position))]

    return {"cells": len(values), "p50": rank(0.5), "p90": rank(0.9),
            "max": values[-1]}


def _entry_cell_walls(entry: dict) -> List[float]:
    """Per-cell wall seconds one shard entry / scenario doc carries.

    Experiment entries time each variant cell in its summary;
    monitors/trace entries time their single render cell at the
    scenario level.  Untimed cells — errored variants, missing or
    zero ``wall_seconds`` — contribute nothing: a phantom ``0.0``
    would inflate the digest's cell count and drag its percentiles
    toward zero.
    """
    if "results" in entry:
        # an experiment entry — even all-errored ones (results == {}),
        # whose scenario-level wall clock covers failed cells and must
        # not masquerade as one timed render cell
        results = entry.get("results")
        walls = [summary.get("wall_seconds")
                 for summary in results.values()
                 if isinstance(summary, dict)] \
            if isinstance(results, dict) else []
    else:
        walls = [entry.get("wall_seconds")]
    return [float(wall) for wall in walls
            if isinstance(wall, (int, float)) and wall > 0]


@dataclass
class MergeResult:
    """Everything one merge produced.

    ``scenarios`` maps scenario id to its rebuilt per-scenario artifact
    payload (plan order, then standalone artifacts in input order);
    ``shard_count``/``cells_total`` describe the merged plan (0 when
    only pre-shard standalone artifacts were merged);
    ``cell_wall_seconds`` are the observed per-cell wall clocks the
    summary digests (see :func:`wall_seconds_percentiles`).
    """

    scenarios: Dict[str, dict]
    shard_count: int = 0
    cells_total: int = 0
    sources: int = 0
    cell_wall_seconds: List[float] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when every merged scenario's checks and runs passed."""
        return all(payload["ok"] for payload in self.scenarios.values())

    def summary_payload(self) -> dict:
        """The JSON payload of the merge-summary artifact."""
        return {
            "kind": "shard_merge",
            "shard_count": self.shard_count,
            "cells_total": self.cells_total,
            "sources": self.sources,
            "ok": self.ok,
            "wall_seconds_percentiles":
                wall_seconds_percentiles(self.cell_wall_seconds),
            "scenarios": {scenario_id: payload["ok"]
                          for scenario_id, payload in
                          self.scenarios.items()},
        }


def _check_shard_schema(doc: dict) -> None:
    schema = doc.get("schema")
    if schema != ARTIFACT_SCHEMA:
        raise ConfigurationError(
            f"shard artifact {doc.get('name', '?')!r} has schema "
            f"{schema!r}; this build merges shard schema "
            f"{ARTIFACT_SCHEMA} (pre-shard scenario artifacts of "
            f"older schemas are accepted, shard documents are not)")


def _validate_shard_coverage(shard_docs: List[dict]) -> Tuple[int, int]:
    """Check the shard docs form one complete, overlap-free plan.

    Returns ``(shard_count, cells_total)``.
    """
    selection = shard_docs[0].get("selection")
    for doc in shard_docs[1:]:
        if doc.get("selection") != selection:
            raise ConfigurationError(
                "shard artifacts come from different plans (their "
                "selections disagree); merge shards of one "
                "`repro shards run` selection at a time")
    if not isinstance(selection, dict) or "cells" not in selection:
        raise ConfigurationError("shard artifact carries no selection")
    count = int(selection.get("shard_count", 0))
    expected = [ShardCell.from_doc(c) for c in selection["cells"]]
    seen_indices: Dict[int, str] = {}
    owner: Dict[ShardCell, int] = {}
    overlapping: List[str] = []
    for doc in shard_docs:
        index = int(doc.get("shard", {}).get("index", 0))
        name = doc.get("name", "?")
        if not 1 <= index <= count:
            raise ConfigurationError(
                f"shard artifact {name!r} claims index {index} outside "
                f"the plan's 1..{count}")
        if index in seen_indices:
            raise ConfigurationError(
                f"shard {index}/{count} provided twice "
                f"({seen_indices[index]!r} and {name!r})")
        seen_indices[index] = name
        for cell_doc in doc.get("cells", ()):
            cell = ShardCell.from_doc(cell_doc)
            if cell in owner:
                overlapping.append(
                    f"{cell.describe()} claimed by shards "
                    f"{owner[cell]} and {index}")
            else:
                owner[cell] = index
    # every coverage defect is collected and reported in one error, so
    # one merge attempt diagnoses the whole artifact set instead of
    # revealing problems one re-run at a time
    problems: List[str] = []
    if overlapping:
        problems.append("overlapping shard cell(s): "
                        + "; ".join(overlapping))
    missing_cells = [cell for cell in expected if cell not in owner]
    if missing_cells:
        missing_shards = sorted(set(range(1, count + 1))
                                - set(seen_indices))
        problems.append(
            "missing cell(s) "
            + ", ".join(cell.describe() for cell in missing_cells)
            + (f" (shard(s) {missing_shards} not provided)"
               if missing_shards else ""))
    expected_set = set(expected)
    stray = [cell for cell in owner if cell not in expected_set]
    if stray:
        problems.append(
            "cell(s) outside their selection: "
            + ", ".join(cell.describe() for cell in stray))
    if problems:
        raise ConfigurationError(
            "incomplete shard set: " + "; ".join(problems))
    return count, len(expected)


def _check_claimed_cells_have_data(doc: dict) -> None:
    """A claimed cell must come with a result or an error.

    Coverage validation proves every cell was *claimed*; this proves
    the claiming shard actually carries data for it, so a partially
    written artifact can never merge into silently-wrong aggregates.
    """
    name = doc.get("name", "?")
    for cell_doc in doc.get("cells", ()):
        cell = ShardCell.from_doc(cell_doc)
        entry = doc.get("scenarios", {}).get(cell.scenario_id)
        if not isinstance(entry, dict):
            raise ConfigurationError(
                f"shard artifact {name!r} claims cell {cell.describe()} "
                f"but carries no data for scenario "
                f"{cell.scenario_id!r}")
        kind = entry.get("spec", {}).get("kind", "experiment")
        if kind == "experiment" \
                and cell.variant not in entry.get("results", {}) \
                and cell.variant not in entry.get("errors", {}):
            raise ConfigurationError(
                f"shard artifact {name!r} claims cell {cell.describe()} "
                f"but carries neither a result nor an error for it")


def merge_documents(docs: Sequence[dict]) -> MergeResult:
    """Combine shard and/or scenario artifacts into per-scenario payloads.

    Accepts any mix of schema-3 shard documents (which must form one
    complete plan: same selection, every cell covered exactly once) and
    standalone pre-shard ``BENCH_scenario_*.json`` documents (schema 2
    or 3 — each is one complete scenario).  A scenario id appearing in
    more than one place is a conflict.  Raises
    :class:`ConfigurationError` on any inconsistency; returns a
    :class:`MergeResult` whose payloads are byte-compatible with
    single-machine artifacts (see :func:`canonical_document`).
    """
    if not docs:
        raise ConfigurationError("nothing to merge: no artifacts given")
    shard_docs: List[dict] = []
    scenario_docs: List[dict] = []
    for doc in docs:
        if doc.get("kind") == "shard":
            _check_shard_schema(doc)
            shard_docs.append(doc)
        elif "spec" in doc:
            scenario_docs.append(doc)
        else:
            raise ConfigurationError(
                f"artifact {doc.get('name', '?')!r} is neither a shard "
                f"document nor a scenario artifact")

    shard_count = cells_total = 0
    merged: Dict[str, dict] = {}
    spec_docs: Dict[str, dict] = {}
    cell_walls: List[float] = []
    if shard_docs:
        shard_count, cells_total = _validate_shard_coverage(shard_docs)
        shard_docs.sort(key=lambda doc: doc["shard"]["index"])
        for doc in shard_docs:
            for scenario_id, entry in doc.get("scenarios", {}).items():
                spec_doc = entry.get("spec") if isinstance(entry, dict) \
                    else None
                if spec_doc is None:
                    raise ConfigurationError(
                        f"shard artifact {doc.get('name', '?')!r} "
                        f"carries no spec for scenario {scenario_id!r}")
                known = spec_docs.get(scenario_id)
                if known is not None and known != spec_doc:
                    raise ConfigurationError(
                        f"shards disagree about the spec of scenario "
                        f"{scenario_id!r}; they were produced from "
                        f"different selections")
                spec_docs.setdefault(scenario_id, spec_doc)
                slot = merged.setdefault(scenario_id, {
                    "wall_seconds": 0.0, "errors": {}, "results": {}})
                slot["wall_seconds"] += entry.get("wall_seconds", 0.0)
                slot["errors"].update(entry.get("errors", {}))
                slot["results"].update(entry.get("results", {}))
                if "scenario_metrics" in entry:
                    slot["scenario_metrics"] = entry["scenario_metrics"]
                cell_walls.extend(_entry_cell_walls(entry))
            _check_claimed_cells_have_data(doc)
        # plan order, not shard-arrival order
        order = []
        for cell_doc in shard_docs[0]["selection"]["cells"]:
            scenario_id = ShardCell.from_doc(cell_doc).scenario_id
            if scenario_id not in order:
                order.append(scenario_id)
        merged = {scenario_id: merged[scenario_id]
                  for scenario_id in order if scenario_id in merged}

    for doc in scenario_docs:
        spec_doc = doc["spec"]
        scenario_id = spec_doc.get("scenario_id")
        if scenario_id in merged:
            raise ConfigurationError(
                f"scenario {scenario_id!r} appears in more than one "
                f"artifact; refusing to guess which run wins")
        spec_docs[scenario_id] = spec_doc
        merged[scenario_id] = {
            "wall_seconds": doc.get("wall_seconds", 0.0),
            "errors": doc.get("errors", {}),
            "results": doc.get("results", {}),
            "scenario_metrics": doc.get("scenario_metrics", {}),
        }
        cell_walls.extend(_entry_cell_walls(doc))

    scenarios: Dict[str, dict] = {}
    for scenario_id, slot in merged.items():
        try:
            spec = ScenarioSpec.from_dict(spec_docs[scenario_id])
            if spec.kind == "experiment":
                payload = rebuild_scenario_payload(
                    spec, wall_seconds=slot["wall_seconds"],
                    errors=slot["errors"], results=slot["results"])
            else:
                payload = rebuild_scenario_payload(
                    spec, wall_seconds=slot["wall_seconds"],
                    scenario_metrics=slot.get("scenario_metrics", {}))
        except (KeyError, TypeError, ValueError) as exc:
            # malformed hand-edited/truncated artifacts surface as the
            # module's promised ConfigurationError, not a traceback
            raise ConfigurationError(
                f"artifact data for scenario {scenario_id!r} is "
                f"malformed: {type(exc).__name__}: {exc}") from None
        scenarios[scenario_id] = payload
    return MergeResult(scenarios=scenarios, shard_count=shard_count,
                       cells_total=cells_total, sources=len(docs),
                       cell_wall_seconds=cell_walls)


def merge_artifact_files(paths: Iterable[str]) -> MergeResult:
    """Load and merge artifact files (see :func:`merge_documents`)."""
    return merge_documents([load_bench_document(path) for path in paths])


def write_merged_artifacts(out_dir: str, merge: MergeResult) -> List[str]:
    """Write per-scenario artifacts plus the merge summary; returns paths.

    The per-scenario files reproduce the single-machine nightly lane's
    ``BENCH_scenario_*.json`` set; ``BENCH_shard_merge.json`` records
    what was merged for the verify step.
    """
    paths = []
    for payload in merge.scenarios.values():
        spec = ScenarioSpec.from_dict(payload["spec"])
        paths.append(write_bench_document(
            out_dir, scenario_artifact_name(spec), payload))
    paths.append(write_bench_document(out_dir, "shard_merge",
                                      merge.summary_payload()))
    return paths


# ------------------------------------------------------ canonical form
def canonical_document(doc):
    """``doc`` with execution-dependent fields zeroed, recursively.

    Wall-clock fields and cache-locality counters (see
    :data:`VOLATILE_FIELDS`) legitimately differ between two runs of
    the same cells; everything else in an artifact is simulated and
    must not.  Tests and CI diff artifacts in this canonical form —
    ``canonical_document(single_machine) ==
    canonical_document(merged_shards)`` is the sharding correctness
    contract.
    """
    if isinstance(doc, dict):
        return {key: 0 if key in VOLATILE_FIELDS
                else canonical_document(value)
                for key, value in doc.items()}
    if isinstance(doc, list):
        return [canonical_document(item) for item in doc]
    return doc
