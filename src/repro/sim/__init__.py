"""Discrete-event simulation kernel.

A small, dependency-free kernel in the style of SimPy: an
:class:`~repro.sim.environment.Environment` owns a time-ordered event
heap, and concurrent activities are written as generator *processes*
that ``yield`` events (timeouts, resource requests, other processes).

The whole repro DBMS — CPU scheduler, disk, memory broker, compilation
gateways, client load generator — is built as processes on this kernel,
which is what lets us replay hours of simulated server time in seconds
and still get deterministic, reproducible interleavings.

The schedule is one binary heap ordered by ``(time, eid)``, so events
due at the same instant run in the order they were scheduled — see
``docs/kernel.md``.
"""

from repro.sim.events import AllOf, AnyOf, Event, Interrupt, Timeout
from repro.sim.environment import Environment
from repro.sim.process import Process
from repro.sim.resources import Request, Resource, Store

__all__ = [
    "AllOf",
    "AnyOf",
    "Environment",
    "Event",
    "Interrupt",
    "Process",
    "Request",
    "Resource",
    "Store",
    "Timeout",
]
