"""Cells, shard selectors and the canonical artifact form.

A **cell** (:class:`ShardCell`: one scenario × variant × seed) is the
unit every executor, journal and artifact counts in.  A static shard
is nothing but a filter over a selection's cells: ``repro scenarios
run --shard k/N --journal PATH`` lowers the whole selection, runs
every ``N``-th cell starting at the ``k``-th (round-robin in selection
order) and records them in its run journal, whose header fingerprints
the *full* selection.  The shard journals of one selection therefore
share one header, so joining them with ``cat`` gives one journal, and
``--resume --out DIR`` over it replays every cell and writes the same
``BENCH_scenario_*.json`` artifacts a single-machine run writes (see
:mod:`repro.experiments.journal` and ``docs/sharding.md``).

Determinism contract
--------------------
Every simulated number (completions, errors, degradations, throughput
series, gateway stats, ``soft_denials``) depends only on the cell's
config and seed, never on which shard, executor or machine ran it, so
artifacts are byte-identical across all of them apart from the fields
in :data:`VOLATILE_FIELDS`.  :func:`canonical_document` zeroes exactly
those fields; tests pin byte-equality of the canonical forms.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence, Tuple

from repro.errors import ConfigurationError

#: volatile artifact fields zeroed by :func:`canonical_document` —
#: wall clock, the replay counter and the opt-in DMV ``snapshot``
#: (whose summary embeds ``search_replays``); everything else is
#: pinned.  No cache outlives its cell, so ``search_replays`` is a
#: function of the cell alone; it stays here only so that canonical
#: bytes, goldens and the benchmark's ``sim_digest`` do not move.
#: Corollary: an *expectation* referencing ``wall_seconds`` asserts on
#: the executing host and is outside the determinism contract (see
#: docs/sharding.md).
#: ``wall_seconds_percentiles`` is a wall-clock digest that older
#: artifacts carry; it stays here so that they keep their canonical
#: bytes.
VOLATILE_FIELDS = frozenset({"wall_seconds", "search_replays", "python",
                             "snapshot", "wall_seconds_percentiles"})

#: sanity ceiling on shard counts — far above any real deployment,
#: low enough that a typo'd `--shard 1/2000000000` fails instantly
MAX_SHARD_COUNT = 4096


# --------------------------------------------------------------- cells
@dataclass(frozen=True)
class ShardCell:
    """One atomic unit of work: scenario × variant × seed."""

    scenario_id: str
    variant: str
    seed: int

    def as_doc(self) -> list:
        """The JSON form (a 3-element list) used on the wire and in
        journals."""
        return [self.scenario_id, self.variant, self.seed]

    @classmethod
    def from_doc(cls, doc: Sequence) -> "ShardCell":
        """Parse the JSON form back into a cell.

        Malformed documents (hand-edited or truncated journals) raise
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
    if count < 1:
        raise ConfigurationError(f"shard count must be >= 1, got {count}")
    if count > MAX_SHARD_COUNT:
        raise ConfigurationError(
            f"shard count {count} exceeds the ceiling of "
            f"{MAX_SHARD_COUNT}")
    if not 1 <= index <= count:
        raise ConfigurationError(
            f"shard index {index} out of range 1..{count}")
    return index, count


# ----------------------------------------------------------- artifacts
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


# ------------------------------------------------------ canonical form
def canonical_document(doc):
    """``doc`` with execution-dependent fields zeroed, recursively.

    Wall-clock fields and cache-locality counters (see
    :data:`VOLATILE_FIELDS`) legitimately differ between two runs of
    the same cells; everything else in an artifact is simulated and
    must not.  Tests and CI diff artifacts in this canonical form —
    ``canonical_document(single_machine) ==
    canonical_document(resumed_shard_journals)`` is the sharding
    correctness contract.
    """
    if isinstance(doc, dict):
        return {key: 0 if key in VOLATILE_FIELDS
                else canonical_document(value)
                for key, value in doc.items()}
    if isinstance(doc, list):
        return [canonical_document(item) for item in doc]
    return doc
