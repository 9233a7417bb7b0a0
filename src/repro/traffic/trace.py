"""Streaming trace replay: timestamped query logs as arrival streams.

A trace is a timestamped query log — one event per line, JSONL
(``.jsonl``/``.ndjson``) or CSV (``.csv``) — replayed through the
open-loop admission path.  Readers **stream**: a multi-gigabyte log is
consumed line by line through a chain of composable generator
transforms (time-window slice, tenant filter, rate rescale, template
remap), never slurped.

The format contract is strict and errors name their line:

* every event needs a finite, non-negative numeric ``t`` (paper
  seconds); ``template`` and ``tenant`` are optional strings
* unknown and duplicated fields are a :class:`ConfigurationError`
  naming the line
* timestamps must be non-decreasing (a sorted log is what makes
  streaming replay possible)
* a malformed line raises — except that a *truncated trailing line*
  (the classic torn tail of a killed log writer) may be skipped with
  ``tolerate_tail=True``, mirroring the cell journal's tail repair

``synthesize_trace`` writes a log from any
:class:`~repro.traffic.arrivals.ArrivalProcess`, which is how the
``repro traces synth`` CLI builds fixtures and how the example trace in
``examples/`` was produced.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, Optional, Tuple

from repro.errors import ConfigurationError
from repro.traffic.arrivals import Arrival, ArrivalProcess

#: the complete field set a trace event may carry; ``outcome`` is
#: written by trace capture (what admission decided) and is pure
#: documentation on replay — it never influences arrivals
TRACE_FIELDS = ("t", "template", "tenant", "outcome")

#: valid ``outcome`` strings (the capture writer's vocabulary)
TRACE_OUTCOMES = ("queued", "admitted", "dropped_queue",
                  "dropped_timeout", "succeeded", "failed")


@dataclass(frozen=True)
class TraceEvent:
    """One parsed trace line (``line`` is 1-based, for diagnostics)."""

    at: float
    template: Optional[str] = None
    tenant: str = "default"
    outcome: Optional[str] = None
    line: int = 0


def _bad_line(path: str, line: int, why: str) -> ConfigurationError:
    return ConfigurationError(f"trace {path}: line {line}: {why}")


def _checked_time(raw, path: str, line: int,
                  previous: float) -> float:
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise _bad_line(path, line,
                        f"'t' must be a number, got {raw!r}")
    at = float(raw)
    if not math.isfinite(at):
        raise _bad_line(path, line, f"'t' must be finite, got {at!r}")
    if at < 0:
        raise _bad_line(path, line, f"'t' must be >= 0, got {at!r}")
    if at < previous:
        raise _bad_line(
            path, line,
            f"out-of-order timestamp {at!r} (previous event was at "
            f"{previous!r}); traces must be sorted by 't'")
    return at


def _event_from_doc(doc: dict, path: str, line: int,
                    previous: float) -> TraceEvent:
    unknown = sorted(set(doc) - set(TRACE_FIELDS))
    if unknown:
        raise _bad_line(
            path, line,
            f"unknown field(s) {', '.join(unknown)}; valid fields: "
            f"{', '.join(TRACE_FIELDS)}")
    if "t" not in doc:
        raise _bad_line(path, line, "missing required field 't'")
    at = _checked_time(doc["t"], path, line, previous)
    template = doc.get("template")
    if template is not None and not isinstance(template, str):
        raise _bad_line(path, line,
                        f"'template' must be a string, got {template!r}")
    tenant = doc.get("tenant", "default")
    if not isinstance(tenant, str) or not tenant:
        raise _bad_line(path, line,
                        f"'tenant' must be a non-empty string, got "
                        f"{tenant!r}")
    outcome = doc.get("outcome")
    if outcome is not None and outcome not in TRACE_OUTCOMES:
        raise _bad_line(path, line,
                        f"unknown 'outcome' {outcome!r}; valid "
                        f"outcomes: {', '.join(TRACE_OUTCOMES)}")
    return TraceEvent(at=at, template=template or None, tenant=tenant,
                      outcome=outcome, line=line)


class _DuplicateField(Exception):
    """A JSON object names one field twice (not a ``ValueError``, so it
    is never mistaken for a torn line)."""


def _unique_fields(pairs) -> dict:
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise _DuplicateField(key)
        doc[key] = value
    return doc


def _read_jsonl(path: str, tolerate_tail: bool) -> Iterator[TraceEvent]:
    previous = 0.0
    pending: Optional[Tuple[int, str]] = None
    with open(path, encoding="utf-8", errors="replace") as fh:
        for number, raw in enumerate(fh, start=1):
            text = raw.strip()
            if not text:
                continue
            if pending is not None:
                # the malformed line was not the tail after all
                raise _bad_line(path, pending[0], pending[1])
            try:
                doc = json.loads(text, object_pairs_hook=_unique_fields)
            except _DuplicateField as exc:
                raise _bad_line(path, number,
                                f"duplicate field {exc.args[0]!r}") from None
            except ValueError:
                # hold the error: a torn *final* line may be tolerated
                pending = (number, "not valid JSON (truncated line?)")
                continue
            if not isinstance(doc, dict):
                raise _bad_line(path, number,
                                f"event must be a JSON object, got "
                                f"{type(doc).__name__}")
            event = _event_from_doc(doc, path, number, previous)
            previous = event.at
            yield event
    if pending is not None and not tolerate_tail:
        raise _bad_line(path, pending[0],
                        pending[1] + "; a truncated trailing line can "
                        "be skipped with tolerate_tail")


def _read_csv(path: str, tolerate_tail: bool) -> Iterator[TraceEvent]:
    previous = 0.0
    with open(path, encoding="utf-8", errors="replace", newline="") as fh:
        reader = csv.reader(fh)
        header: Optional[list] = None
        rows = ((reader.line_num, row) for row in reader)
        pending: Optional[Tuple[int, str]] = None
        for number, row in rows:
            if not row:
                continue
            if header is None:
                header = [cell.strip() for cell in row]
                for index, key in enumerate(header):
                    if key in header[:index]:
                        raise _bad_line(path, number,
                                        f"duplicate column {key!r}")
                unknown = sorted(set(header) - set(TRACE_FIELDS))
                if unknown:
                    raise _bad_line(
                        path, number,
                        f"unknown column(s) {', '.join(unknown)}; "
                        f"valid columns: {', '.join(TRACE_FIELDS)}")
                if "t" not in header:
                    raise _bad_line(path, number,
                                    "header must include a 't' column")
                continue
            if pending is not None:
                raise _bad_line(path, pending[0], pending[1])
            if len(row) != len(header):
                pending = (number,
                           f"expected {len(header)} column(s), got "
                           f"{len(row)} (truncated line?)")
                continue
            doc: Dict[str, object] = {}
            for key, cell in zip(header, row):
                cell = cell.strip()
                if key == "t":
                    try:
                        doc["t"] = float(cell)
                    except ValueError:
                        pending = (number,
                                   f"'t' must be a number, got {cell!r} "
                                   f"(truncated line?)")
                        break
                elif cell:
                    doc[key] = cell
            if pending is not None:
                continue
            event = _event_from_doc(doc, path, number, previous)
            previous = event.at
            yield event
        if header is None:
            raise ConfigurationError(f"trace {path}: empty trace (no "
                                     f"header row)")
        if pending is not None and not tolerate_tail:
            raise _bad_line(path, pending[0],
                            pending[1] + "; a truncated trailing line "
                            "can be skipped with tolerate_tail")


def read_trace(path: str,
               tolerate_tail: bool = False) -> Iterator[TraceEvent]:
    """Stream a trace file's events, validating as they are read.

    The reader is picked by extension (``.jsonl``/``.ndjson`` or
    ``.csv``).  Malformed content raises :class:`ConfigurationError`
    naming the offending line; ``tolerate_tail`` skips a truncated
    *final* line instead (torn tails only — a malformed line followed
    by more data always raises).
    """
    lowered = path.lower()
    if lowered.endswith((".jsonl", ".ndjson")):
        reader = _read_jsonl
    elif lowered.endswith(".csv"):
        reader = _read_csv
    else:
        raise ConfigurationError(
            f"trace {path!r} has an unsupported extension; expected "
            f".jsonl, .ndjson or .csv")
    try:
        yield from reader(path, tolerate_tail)
    except OSError as exc:
        raise ConfigurationError(f"cannot read trace {path!r}: "
                                 f"{exc}") from None


# --------------------------------------------------------- transforms
def time_window(events: Iterable[TraceEvent], start: float,
                end: float) -> Iterator[TraceEvent]:
    """Keep events with ``start <= t < end``, rebased to start at 0."""
    for event in events:
        if event.at >= end:
            return  # sorted input: nothing later can match
        if event.at >= start:
            yield TraceEvent(at=event.at - start, template=event.template,
                             tenant=event.tenant, outcome=event.outcome,
                             line=event.line)


def tenant_filter(events: Iterable[TraceEvent],
                  tenants: Iterable[str]) -> Iterator[TraceEvent]:
    """Keep only events from the named tenants."""
    keep = frozenset(tenants)
    return (event for event in events if event.tenant in keep)


def rate_rescale(events: Iterable[TraceEvent],
                 factor: float) -> Iterator[TraceEvent]:
    """Compress (>1) or stretch (<1) the schedule by ``factor``."""
    if factor <= 0:
        raise ConfigurationError(f"rate_rescale factor must be "
                                 f"positive, got {factor!r}")
    for event in events:
        yield TraceEvent(at=event.at / factor, template=event.template,
                         tenant=event.tenant, outcome=event.outcome,
                         line=event.line)


def template_remap(events: Iterable[TraceEvent],
                   mapping: Dict[str, str]) -> Iterator[TraceEvent]:
    """Rename templates (unmapped names pass through untouched)."""
    for event in events:
        template = mapping.get(event.template, event.template) \
            if event.template is not None else None
        yield TraceEvent(at=event.at, template=template,
                         tenant=event.tenant, outcome=event.outcome,
                         line=event.line)


def trace_arrivals(spec, base: Optional[str] = None) -> Iterator[Arrival]:
    """A :class:`TrafficSpec`'s trace as a transformed arrival stream.

    Applies the spec's transforms in a fixed order — window slice,
    tenant filter, template remap, rate rescale — and yields plain
    :class:`~repro.traffic.arrivals.Arrival` values the open-loop
    generator consumes.  ``base`` resolves a relative trace path (the
    scenario loader passes the spec file's directory).
    """
    import os

    path = spec.trace
    if base is not None and not os.path.isabs(path):
        path = os.path.join(base, path)
    events: Iterable[TraceEvent] = read_trace(
        path, tolerate_tail=spec.tolerate_tail)
    if spec.window is not None:
        events = time_window(events, spec.window[0], spec.window[1])
    if spec.tenants is not None:
        events = tenant_filter(events, spec.tenants)
    if spec.remap:
        events = template_remap(events, dict(spec.remap))
    if spec.rate_scale != 1.0:
        events = rate_rescale(events, spec.rate_scale)
    for event in events:
        yield Arrival(at=event.at, tenant=event.tenant,
                      template=event.template)


# ---------------------------------------------------------- utilities
def summarize_trace(path: str, tolerate_tail: bool = False) -> dict:
    """One streaming pass over a trace: counts, span, mean rate."""
    events = 0
    first = last = None
    tenants: Dict[str, int] = {}
    templates: Dict[str, int] = {}
    outcomes: Dict[str, Dict[str, int]] = {}
    admitted = frozenset(("admitted", "succeeded", "failed"))
    dropped = frozenset(("dropped_queue", "dropped_timeout"))
    for event in read_trace(path, tolerate_tail=tolerate_tail):
        events += 1
        if first is None:
            first = event.at
        last = event.at
        tenants[event.tenant] = tenants.get(event.tenant, 0) + 1
        if event.template is not None:
            templates[event.template] = \
                templates.get(event.template, 0) + 1
        if event.outcome is not None:
            row = outcomes.setdefault(
                event.tenant, {"offered": 0, "admitted": 0, "dropped": 0})
            row["offered"] += 1
            if event.outcome in admitted:
                row["admitted"] += 1
            elif event.outcome in dropped:
                row["dropped"] += 1
    span = (last - first) if events else 0.0
    return {
        "events": events,
        "t_first": first,
        "t_last": last,
        "span_seconds": span,
        "mean_rate": (events / span) if span > 0 else None,
        "tenants": dict(sorted(tenants.items())),
        "templates": dict(sorted(templates.items())),
        # per-tenant admission breakdown of captured traces; empty
        # when no event carries an 'outcome'
        "tenant_outcomes": dict(sorted(outcomes.items())),
    }


def synthesize_trace(path: str, process: ArrivalProcess, duration: float,
                     seed: int = 3, workload=None,
                     tenant: str = "default") -> int:
    """Write a JSONL trace from an arrival process; returns the count.

    With a ``workload`` (anything exposing ``template_names()``) each
    event is stamped with a deterministically chosen template, so the
    replay exercises the workload's real query mix; without one the
    events carry no template and replay draws fresh queries.
    """
    if not path.lower().endswith((".jsonl", ".ndjson")):
        raise ConfigurationError(
            f"synthesized traces are JSONL; {path!r} should end in "
            f".jsonl or .ndjson")
    names = list(workload.template_names()) if workload is not None else []
    schedule_rng = random.Random(f"{seed}/synth/arrivals")
    template_rng = random.Random(f"{seed}/synth/templates")
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        for arrival in process.arrivals(schedule_rng, duration):
            doc: Dict[str, object] = {"t": round(arrival.at, 6)}
            template = arrival.template
            if template is None and names:
                template = template_rng.choice(names)
            if template is not None:
                doc["template"] = template
            doc["tenant"] = arrival.tenant if arrival.tenant != "default" \
                else tenant
            if doc["tenant"] == "default":
                del doc["tenant"]
            fh.write(json.dumps(doc, sort_keys=True) + "\n")
            count += 1
    return count
