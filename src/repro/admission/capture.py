"""Trace capture: write what a run offered, replayably.

A captured trace is an ordinary :mod:`trace <repro.traffic.trace>`
JSONL file — ``t`` / ``template`` / ``tenant`` per line — plus the
optional ``outcome`` field recording what admission decided
(``read_trace`` validates it; replay ignores it, so outcomes are
documentation, not inputs).

The byte-identity contract: times are written at **full float
precision** (unlike :func:`~repro.traffic.trace.synthesize_trace`,
which rounds for readability), templates are recorded only when the
*arrival* carried one — a synthetic arrival stays template-free so a
replayed session re-draws the identical query from its per-index
RNG — and events appear in offered order, which is arrival-time order
with cohort order on ties.  Replaying the capture through a
trace-mode :class:`~repro.traffic.spec.TrafficSpec` (same
``max_sessions`` / ``queue_limit`` / ``queue_timeout`` / admission
policy, ``rate_scale`` left at 1.0 because the recorded times are
already rescaled) therefore reproduces the originating run's
admission sequence — and its canonical artifact — byte for byte.
"""

from __future__ import annotations

import json
import os
from typing import Iterable, Optional

#: the ``outcome`` strings meaning the session got a slot
ADMITTED_OUTCOMES = frozenset(("admitted", "succeeded", "failed"))

#: the ``outcome`` strings meaning admission refused the session
DROPPED_OUTCOMES = frozenset(("dropped_queue", "dropped_timeout"))


def capture_event(at: float, tenant: str = "default",
                  template: Optional[str] = None,
                  outcome: Optional[str] = None) -> dict:
    """One capture line as a trace document (defaults omitted)."""
    doc: dict = {"t": at}
    if template is not None:
        doc["template"] = template
    if tenant != "default":
        doc["tenant"] = tenant
    if outcome is not None:
        doc["outcome"] = outcome
    return doc


def write_capture(path: str, events: Iterable[dict]) -> int:
    """Write capture events as JSONL; returns the event count."""
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        for doc in events:
            handle.write(json.dumps(doc, sort_keys=True) + "\n")
            count += 1
    return count
