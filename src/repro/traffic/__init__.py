"""Open-loop traffic: arrival processes, trace replay, open admission.

The traffic subsystem decouples *when sessions arrive* from the
workload's *what they run*:

* :mod:`repro.traffic.arrivals` — seeded, deterministic arrival
  processes (Poisson, flash-crowd spikes, multi-tenant noisy-neighbor
  mixes)
* :mod:`repro.traffic.trace` — streaming CSV/JSONL query-log replay
  through composable transforms (window / tenant filter / rate rescale
  / template remap), with strict line-numbered validation
* :mod:`repro.traffic.spec` — the frozen, round-trippable
  :class:`TrafficSpec` that puts either on a scenario as its
  ``traffic`` axis
* :mod:`repro.traffic.openloop` — the :class:`OpenLoopGenerator`
  driving open-loop session admission with explicit drop/queue
  accounting

See ``docs/traffic.md`` for the full model and the open-loop vs
closed-loop decision guide.
"""

from repro.traffic.arrivals import (
    ARRIVAL_FACTORIES,
    Arrival,
    ArrivalProcess,
    FlashCrowdArrivals,
    PoissonArrivals,
    TenantMixArrivals,
    make_arrival_process,
)
from repro.traffic.openloop import (
    OpenLoopGenerator,
    OpenLoopStats,
)
from repro.traffic.spec import TrafficSpec
from repro.traffic.trace import (
    TRACE_FIELDS,
    TRACE_OUTCOMES,
    TraceEvent,
    rate_rescale,
    read_trace,
    summarize_trace,
    synthesize_trace,
    template_remap,
    tenant_filter,
    time_window,
    trace_arrivals,
)

__all__ = [
    "ARRIVAL_FACTORIES",
    "Arrival",
    "ArrivalProcess",
    "FlashCrowdArrivals",
    "OpenLoopGenerator",
    "OpenLoopStats",
    "PoissonArrivals",
    "TRACE_FIELDS",
    "TRACE_OUTCOMES",
    "TenantMixArrivals",
    "TraceEvent",
    "TrafficSpec",
    "make_arrival_process",
    "rate_rescale",
    "read_trace",
    "summarize_trace",
    "synthesize_trace",
    "template_remap",
    "tenant_filter",
    "time_window",
    "trace_arrivals",
]
