"""Open-loop session admission: arrivals on a schedule, drops on record.

The closed-loop :class:`~repro.workload.loadgen.LoadGenerator` models N
patient users: when the server slows down, they wait, so offered load
self-limits at exactly the service rate.  The
:class:`OpenLoopGenerator` here removes that feedback: sessions arrive
whenever the :class:`~repro.traffic.arrivals.ArrivalProcess` (or a
replayed trace) says they do.  Each arrival asks for one of
``max_sessions`` admission slots; if the admission queue is already
``queue_limit`` deep it is **dropped on arrival**, and a queued session
that waits longer than ``queue_timeout`` is **dropped on timeout**.
Admitted sessions run exactly one query — an open-loop user does not
retry; the next arrival is already on its way.

Who wins a contended slot is delegated to a pluggable
:mod:`admission policy <repro.admission.policies>`; the default
(``fifo``, also used when no :class:`~repro.admission.spec.
AdmissionSpec` is given) is pinned byte-identical to the original
inline FIFO ``Resource`` grab.  With ``capture=True`` the generator
additionally records every offered arrival for
:mod:`replayable trace capture <repro.admission.capture>`.

That makes overload *visible*: offered vs admitted load, drop counts
and queue-wait percentiles are first-class facts
(:meth:`OpenLoopGenerator.facts`), summarized into artifacts as the
``open_loop`` block.  Every fact is a deterministic simulated number —
pinned, never volatile.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.admission.capture import capture_event
from repro.admission.policies import make_policy
from repro.admission.spec import AdmissionSpec
from repro.metrics.collector import MetricsCollector, QueryRecord
from repro.server.server import DatabaseServer
from repro.traffic.spec import TrafficSpec
from repro.workload.base import Workload, WorkloadQuery


@dataclass
class OpenLoopStats:
    """Offered/admitted/drop accounting of one open-loop run.

    :class:`OpenLoopGenerator` counts into one of these in place as
    arrivals flow through admission.
    """

    offered: int = 0
    admitted: int = 0
    succeeded: int = 0
    failed: int = 0
    #: dropped on arrival: the admission queue was already full
    dropped_queue: int = 0
    #: dropped after queueing: no slot granted within queue_timeout
    dropped_timeout: int = 0
    #: sim-seconds each admitted session waited for its slot
    queue_waits: List[float] = field(default_factory=list)
    #: tenant -> offered count (only interesting for multi-tenant mixes)
    offered_by_tenant: Dict[str, int] = field(default_factory=dict)
    #: tenant -> dropped count (both drop kinds)
    dropped_by_tenant: Dict[str, int] = field(default_factory=dict)

    @property
    def dropped(self) -> int:
        return self.dropped_queue + self.dropped_timeout


def _percentile(values: List[float], fraction: float) -> float:
    """Nearest-rank percentile of already-sorted ``values``."""
    if not values:
        return 0.0
    rank = max(1, int(round(fraction * len(values) + 0.5)))
    return values[min(rank, len(values)) - 1]


class OpenLoopGenerator:
    """Drives one server with open-loop, schedule-driven sessions.

    A drop-in sibling of the closed-loop ``LoadGenerator``: same
    constructor shape (server, workload, duration, metrics, seed), same
    ``run()``/``totals()`` surface, but sessions come from
    ``traffic`` — a :class:`~repro.traffic.spec.TrafficSpec` naming an
    arrival process or a trace — instead of think-time loops.
    ``clients`` only serves as the admission-cap default when the spec
    leaves ``max_sessions`` unset.

    Determinism: the arrival schedule streams from one dedicated RNG
    and every session derives its own RNG from its arrival index, so
    results never depend on event interleaving.

    Accounting: ``stats`` is an :class:`OpenLoopStats` counted in
    place, ``outcomes`` holds one ``TRACE_OUTCOMES`` string per arrival
    index (what trace capture records), and per-tenant admission waits
    and per-session sojourns are plain lists read by :meth:`facts`.
    """

    def __init__(self, server: DatabaseServer, workload: Workload,
                 traffic: TrafficSpec, duration: float,
                 metrics: Optional[MetricsCollector] = None,
                 seed: int = 1, clients: int = 30,
                 trace_base: Optional[str] = None,
                 admission: Optional[AdmissionSpec] = None,
                 capture: bool = False):
        self.server = server
        self.workload = workload
        self.traffic = traffic
        self.duration = duration
        self.metrics = metrics or server.metrics
        self.seed = seed
        self.trace_base = trace_base
        self.admission = admission
        self.max_sessions = (traffic.max_sessions
                             if traffic.max_sessions is not None
                             else clients)
        self.stats = OpenLoopStats()
        #: the ``TRACE_OUTCOMES`` string of each arrival, by index
        self.outcomes: List[str] = []
        #: tenant -> sim-seconds each admitted session waited
        self._tenant_waits: Dict[str, List[float]] = {}
        #: queued-to-finished sim-seconds of every completed session
        self._sojourns: List[float] = []
        self._policy = make_policy(
            admission, server.env, capacity=self.max_sessions,
            queue_limit=traffic.queue_limit)
        #: offered arrivals on record for trace capture, by index
        self._capture: Optional[list] = [] if capture else None

    # ------------------------------------------------------- lifecycle
    def _arrival_stream(self):
        if self.traffic.trace is not None:
            from repro.traffic.trace import trace_arrivals

            return trace_arrivals(self.traffic, base=self.trace_base)
        process = self.traffic.build_arrivals()
        rng = random.Random(f"{self.seed}/arrivals")
        # generate up to the raw horizon whose rescaled times still
        # land inside the run
        horizon = self.duration * self.traffic.rate_scale
        arrivals = process.arrivals(rng, horizon)
        if self.traffic.rate_scale != 1.0:
            factor = self.traffic.rate_scale
            from repro.traffic.arrivals import Arrival

            arrivals = (Arrival(at=a.at / factor, tenant=a.tenant,
                                template=a.template) for a in arrivals)
        return arrivals

    def start(self) -> None:
        """Spawn the admission driver (call before ``env.run``)."""
        self.server.start()
        self.server.env.process(self._admit())

    def run(self) -> None:
        """Start the driver and run the simulation to ``duration``."""
        self.start()
        self.server.env.run(until=self.duration)

    # ------------------------------------------------------- processes
    def _admit(self):
        """The admission driver: one wakeup per distinct arrival time.

        Arrivals landing at the same instant (trace replays and burst
        scenarios produce these by the thousand) admit as one cohort
        from a single timer event, a tight loop over preassigned
        indices — instead of re-entering the scheduler per session.
        Cohort members were already processed back-to-back in the same
        callback chain before (an arrival at ``now`` never yielded), so
        batching cannot reorder a single event.
        """
        env = self.server.env
        stats = self.stats
        policy = self._policy
        index = 0
        stream = iter(self._arrival_stream())
        pending = next(stream, None)
        while pending is not None:
            at = pending.at
            if at >= self.duration:
                break
            cohort = [pending]
            pending = next(stream, None)
            while pending is not None and pending.at == at:
                cohort.append(pending)
                pending = next(stream, None)
            if at > env.now:
                yield env.timeout(at - env.now)
            for arrival in cohort:
                tenant = arrival.tenant
                stats.offered += 1
                stats.offered_by_tenant[tenant] = \
                    stats.offered_by_tenant.get(tenant, 0) + 1
                self.outcomes.append("queued")
                if self._capture is not None:
                    self._capture.append(arrival)
                if policy.would_drop(tenant):
                    stats.dropped_queue += 1
                    self._dropped(index, tenant, "dropped_queue")
                else:
                    rng = random.Random(f"{self.seed}/open/{index}")
                    env.process(self._session(index, arrival, rng))
                index += 1

    def _session(self, index: int, arrival, rng: random.Random):
        env = self.server.env
        stats = self.stats
        queued_at = env.now
        request = self._policy.request(arrival.tenant)
        timeout = env.timeout(self.traffic.queue_timeout)
        try:
            yield env.any_of([request, timeout])
        except BaseException:
            # unwound mid-wait (the run was closed): leave the queue, or
            # give back a slot granted while the run was torn down
            self._policy.release(request)
            raise
        if not request.granted:
            self._policy.cancel(request)
            stats.dropped_timeout += 1
            self._dropped(index, arrival.tenant, "dropped_timeout")
            return
        wait = env.now - queued_at
        stats.admitted += 1
        stats.queue_waits.append(wait)
        self._tenant_waits.setdefault(arrival.tenant, []).append(wait)
        self.outcomes[index] = "admitted"
        try:
            query = self._query_for(arrival, rng)
            submitted = env.now
            label = f"{arrival.tenant}/{query.template}"
            outcome = yield from self.server.run_query(query.text, label)
            self.metrics.record_query(QueryRecord(
                client=index,
                template=query.template,
                submitted=submitted,
                finished=env.now,
                ok=outcome.ok,
                error_kind=outcome.error_kind,
                cached_plan=outcome.cached_plan,
                degraded_plan=outcome.degraded_plan,
                compile_time=outcome.compile_time,
                gateway_wait=outcome.gateway_wait,
                grant_wait=outcome.grant_wait,
                execution_time=outcome.execution_time,
                compile_peak_bytes=outcome.compile_peak_bytes,
                spilled=outcome.spilled,
            ))
            if outcome.ok:
                stats.succeeded += 1
                self.outcomes[index] = "succeeded"
            else:
                stats.failed += 1
                self.outcomes[index] = "failed"
            self._sojourns.append(env.now - queued_at)
        finally:
            self._policy.release(request)

    def _dropped(self, index: int, tenant: str, outcome: str) -> None:
        self.stats.dropped_by_tenant[tenant] = \
            self.stats.dropped_by_tenant.get(tenant, 0) + 1
        self.outcomes[index] = outcome

    def _query_for(self, arrival, rng: random.Random) -> WorkloadQuery:
        if arrival.template is not None:
            query = self.workload.generate_named(arrival.template, rng)
            if query is not None:
                return query
        return self.workload.generate(rng)

    # ------------------------------------------------------ summaries
    def totals(self):
        """Closed-loop-compatible totals (an open-loop run never
        retries, so ``retries`` is always 0)."""
        from repro.workload.loadgen import ClientStats

        return ClientStats(submitted=self.stats.admitted,
                           succeeded=self.stats.succeeded,
                           failed=self.stats.failed, retries=0)

    def facts(self) -> Dict[str, float]:
        """The ``open_loop`` fact block (waits in paper seconds).

        Every value is a deterministic function of (spec, seed) —
        pinned in artifacts, deliberately *not* volatile.
        """
        stats = self.stats
        waits = sorted(stats.queue_waits)
        sojourns = sorted(self._sojourns)
        facts: Dict[str, float] = {
            "offered": float(stats.offered),
            "admitted": float(stats.admitted),
            "dropped": float(stats.dropped),
            "dropped_queue": float(stats.dropped_queue),
            "dropped_timeout": float(stats.dropped_timeout),
            "max_sessions": float(self.max_sessions),
            "queue_wait_p50": _percentile(waits, 0.50),
            "queue_wait_p90": _percentile(waits, 0.90),
            "queue_wait_p99": _percentile(waits, 0.99),
            "queue_wait_max": waits[-1] if waits else 0.0,
            "sojourn_p50": _percentile(sojourns, 0.50),
            "sojourn_p90": _percentile(sojourns, 0.90),
            "sojourn_p99": _percentile(sojourns, 0.99),
            "sojourn_max": sojourns[-1] if sojourns else 0.0,
        }
        if len(stats.offered_by_tenant) > 1:
            tenant_waits = self._tenant_waits
            for tenant in sorted(stats.offered_by_tenant):
                facts[f"tenant.{tenant}.offered"] = \
                    float(stats.offered_by_tenant[tenant])
                facts[f"tenant.{tenant}.dropped"] = \
                    float(stats.dropped_by_tenant.get(tenant, 0))
                per_tenant = sorted(tenant_waits.get(tenant, []))
                for point, fraction in (("p50", 0.50), ("p90", 0.90),
                                        ("p99", 0.99)):
                    facts[f"tenant.{tenant}.queue_wait_{point}"] = \
                        _percentile(per_tenant, fraction)
        return facts

    def captured_events(self):
        """The capture-trace documents of every offered arrival, in
        offered order, with their admission outcomes (requires
        ``capture=True`` at construction)."""
        if self._capture is None:
            raise RuntimeError("trace capture was not enabled on this "
                               "generator")
        for arrival, outcome in zip(self._capture, self.outcomes):
            yield capture_event(arrival.at, tenant=arrival.tenant,
                                template=arrival.template,
                                outcome=outcome)
