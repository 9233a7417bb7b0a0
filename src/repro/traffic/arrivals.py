"""Seeded arrival processes for open-loop traffic.

An :class:`ArrivalProcess` turns a seeded RNG into a monotone stream of
:class:`Arrival` events — *when* sessions show up, decoupled from *what*
they run (the workload's query templates) and from *how fast* the server
drains them.  That decoupling is the whole point of open-loop load: a
closed-loop client politely waits out a slow server, so saturation
self-limits; an open-loop schedule keeps arriving and the overload has
to go somewhere (the admission queue, then the drop counters).

Every generator draws from the one ``random.Random`` it is handed and
yields arrivals in non-decreasing time order, so a (seed, process,
duration) triple fully determines the schedule — the determinism
contract the executor equivalence tests pin.
"""

from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass
from typing import Dict, Iterator, Optional

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class Arrival:
    """One scheduled session: when it arrives, who sent it, what it runs.

    ``template`` is optional: ``None`` lets the session draw a fresh
    query from the workload generator; a name replays that specific
    template (trace replay).  Times are in paper seconds from the start
    of the run.
    """

    at: float
    tenant: str = "default"
    template: Optional[str] = None


class ArrivalProcess:
    """Protocol: a named, seeded generator of arrival schedules.

    Subclasses validate their parameters in ``__init__`` (raising
    :class:`ConfigurationError`, so a bad scenario fails at definition
    time, not mid-run) and implement :meth:`arrivals`.
    """

    name = "arrivals"

    def arrivals(self, rng: random.Random,
                 duration: float) -> Iterator[Arrival]:
        """Yield arrivals with ``0 <= at < duration``, time-ordered."""
        raise NotImplementedError


def _positive(value: float, what: str) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool) \
            or not math.isfinite(value) or value <= 0:
        raise ConfigurationError(f"{what} must be a positive number, "
                                 f"got {value!r}")
    return float(value)


def _non_negative(value: float, what: str) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool) \
            or not math.isfinite(value) or value < 0:
        raise ConfigurationError(f"{what} must be a non-negative number, "
                                 f"got {value!r}")
    return float(value)


class PoissonArrivals(ArrivalProcess):
    """Memoryless arrivals at ``rate`` sessions per paper second."""

    name = "poisson"

    def __init__(self, rate: float = 0.01):
        self.rate = _positive(rate, "poisson rate")

    def arrivals(self, rng, duration):
        at = rng.expovariate(self.rate)
        while at < duration:
            yield Arrival(at=at)
            at += rng.expovariate(self.rate)


class FlashCrowdArrivals(ArrivalProcess):
    """A steady trickle with one sudden spike (the flash crowd).

    ``base_rate`` sessions/s outside the spike (0 = quiet), jumping to
    ``spike_rate`` for ``spike_duration`` seconds starting at
    ``spike_at``.  Thinning against the piecewise-constant rate keeps
    the spike edges exact.
    """

    name = "flash_crowd"

    def __init__(self, base_rate: float = 0.005, spike_rate: float = 0.1,
                 spike_at: float = 600.0, spike_duration: float = 300.0):
        self.base_rate = _non_negative(base_rate, "flash_crowd base_rate")
        self.spike_rate = _positive(spike_rate, "flash_crowd spike_rate")
        self.spike_at = _non_negative(spike_at, "flash_crowd spike_at")
        self.spike_duration = _positive(spike_duration,
                                        "flash_crowd spike_duration")
        if self.spike_rate < self.base_rate:
            raise ConfigurationError(
                f"flash_crowd spike_rate ({self.spike_rate!r}) must be "
                f">= base_rate ({self.base_rate!r})")

    def rate_at(self, at: float) -> float:
        in_spike = self.spike_at <= at < self.spike_at + self.spike_duration
        return self.spike_rate if in_spike else self.base_rate

    def arrivals(self, rng, duration):
        at = 0.0
        while True:
            at += rng.expovariate(self.spike_rate)
            if at >= duration:
                return
            if rng.random() * self.spike_rate <= self.rate_at(at):
                yield Arrival(at=at)


class TenantMixArrivals(ArrivalProcess):
    """A noisy-neighbor mix: one named sub-process per tenant.

    ``tenants`` maps tenant name to a sub-process document (``process``
    naming the factory plus its parameters), e.g. a steady ``poisson``
    tenant sharing the server with a ``flash_crowd`` one.  Each tenant
    streams from its own derived RNG, so adding a tenant never perturbs
    another tenant's schedule; the merged stream is time-ordered with
    ties broken by tenant name.
    """

    name = "tenant_mix"

    def __init__(self, tenants: Optional[Dict[str, dict]] = None):
        if not isinstance(tenants, dict) or not tenants:
            raise ConfigurationError(
                "tenant_mix needs a non-empty 'tenants' mapping of "
                "tenant name -> {process, ...params}")
        self.tenants: Dict[str, ArrivalProcess] = {}
        for tenant in sorted(tenants):
            doc = tenants[tenant]
            if not isinstance(doc, dict) or "process" not in doc:
                raise ConfigurationError(
                    f"tenant {tenant!r} needs a 'process' key naming "
                    f"its arrival process")
            params = {key: value for key, value in doc.items()
                      if key != "process"}
            process = make_arrival_process(doc["process"], **params)
            if isinstance(process, TenantMixArrivals):
                raise ConfigurationError(
                    f"tenant {tenant!r} cannot nest another tenant_mix")
            self.tenants[tenant] = process

    @staticmethod
    def _labeled(process, tenant, child, duration):
        for a in process.arrivals(child, duration):
            yield Arrival(at=a.at, tenant=tenant, template=a.template)

    def arrivals(self, rng, duration):
        streams = []
        # one base draw, then a per-tenant child keyed by name — so a
        # tenant's schedule depends only on (seed, its own name), never
        # on which other tenants share the mix
        base = rng.random()
        for tenant in sorted(self.tenants):
            child = random.Random(f"{base}/{tenant}")
            streams.append(self._labeled(self.tenants[tenant], tenant,
                                         child, duration))
        merged = heapq.merge(*streams,
                             key=lambda a: (a.at, a.tenant))
        yield from merged


#: arrival-process factories by name (TrafficSpec validation and the
#: `repro traces synth` CLI use the key set as the list of valid names)
ARRIVAL_FACTORIES = {
    "poisson": PoissonArrivals,
    "flash_crowd": FlashCrowdArrivals,
    "tenant_mix": TenantMixArrivals,
}


def make_arrival_process(name: str, **params) -> ArrivalProcess:
    """Instantiate an arrival process by name."""
    try:
        factory = ARRIVAL_FACTORIES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown arrival process {name!r}; valid processes: "
            f"{', '.join(sorted(ARRIVAL_FACTORIES))}") from None
    try:
        return factory(**params)
    except TypeError as exc:
        raise ConfigurationError(
            f"bad parameters for arrival process {name!r}: {exc}") \
            from None
