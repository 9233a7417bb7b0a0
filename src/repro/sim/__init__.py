"""Discrete-event simulation kernel.

A small, dependency-free kernel in the style of SimPy: an
:class:`~repro.sim.environment.Environment` owns a time-ordered event
heap, and concurrent activities are written as generator *processes*
that ``yield`` events (timeouts, resource requests, other processes).

The whole repro DBMS — CPU scheduler, disk, memory broker, compilation
gateways, client load generator — is built as processes on this kernel,
which is what lets us replay hours of simulated server time in seconds
and still get deterministic, reproducible interleavings.

Every run uses the ``legacy`` binary heap.  The ``wheel`` calendar
queue (:mod:`repro.sim.wheel`) pops events in the identical
``(time, eid)`` order and is reachable only as
``Environment(kernel="wheel")``, where the kernel tests play it
against the heap; no spec, config or CLI flag selects it, and it is
due for removal — see ``docs/kernel.md``.
"""

from repro.sim.events import AllOf, AnyOf, Event, Interrupt, Timeout
from repro.sim.environment import Environment, KERNEL_NAMES
from repro.sim.process import Process
from repro.sim.resources import Request, Resource, Store
from repro.sim.state import GatewayTable, SessionTable
from repro.sim.wheel import EventWheel

__all__ = [
    "AllOf",
    "AnyOf",
    "Environment",
    "Event",
    "EventWheel",
    "GatewayTable",
    "Interrupt",
    "KERNEL_NAMES",
    "Process",
    "Request",
    "Resource",
    "SessionTable",
    "Store",
    "Timeout",
]
