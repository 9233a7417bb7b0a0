"""Policy-driven admission control, latency SLOs, and trace capture.

The admission subsystem makes *who gets in and when* a first-class,
declarative axis of an experiment:

* :mod:`repro.admission.spec` — the frozen, JSON-round-trippable
  :class:`AdmissionSpec` (policy + parameters) and :class:`SloSpec`
  (latency objectives), riding on scenarios as their ``admission`` /
  ``slo`` axes
* :mod:`repro.admission.policies` — the pluggable
  ``would_drop`` / ``request`` / ``cancel`` / ``release`` arbiters:
  ``fifo`` (pinned byte-identical to the pre-policy inline code),
  and ``weighted_fair``
* :mod:`repro.admission.slo` — objective evaluation over the
  ``open_loop`` fact block into pinned ``slo.*`` facts
* :mod:`repro.admission.capture` — replayable JSONL trace capture of
  what a run offered, with admission outcomes on record

See ``docs/admission.md`` for policy semantics, the SLO contract and
the capture→replay recipe.
"""

from repro.admission.capture import (
    ADMITTED_OUTCOMES,
    DROPPED_OUTCOMES,
    capture_event,
    write_capture,
)
from repro.admission.policies import (
    Claim,
    FifoPolicy,
    WeightedFairPolicy,
    make_policy,
)
from repro.admission.slo import evaluate_slo
from repro.admission.spec import (
    POLICY_NAMES,
    SLO_METRICS,
    SLO_PERCENTILES,
    AdmissionSpec,
    SloSpec,
    SloTarget,
)

__all__ = [
    "ADMITTED_OUTCOMES",
    "AdmissionSpec",
    "Claim",
    "DROPPED_OUTCOMES",
    "FifoPolicy",
    "POLICY_NAMES",
    "SLO_METRICS",
    "SLO_PERCENTILES",
    "SloSpec",
    "SloTarget",
    "WeightedFairPolicy",
    "capture_event",
    "evaluate_slo",
    "make_policy",
    "write_capture",
]
