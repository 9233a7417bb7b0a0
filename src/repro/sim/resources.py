"""Shared resources for processes: counted semaphores and stores.

:class:`Resource` is a FIFO counted semaphore — the building block for
CPUs, disk channels, memory-grant queues and the paper's compilation
gateways.  A request is itself an event; processes ``yield`` it and are
resumed when a slot is granted — or, for a *hold request*, ``hold``
seconds after the grant, still holding the slot.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, List, Optional

from repro.errors import SimulationError
from repro.sim.events import Event, _PENDING


class Request(Event):
    """A pending claim on one slot of a :class:`Resource`.

    The event fires ``hold`` seconds after the slot is granted (at the
    grant when ``hold`` is 0); the slot stays held until released.
    """

    __slots__ = ("resource", "granted", "hold", "granted_at")

    def __init__(self, resource: "Resource", hold: float = 0.0):
        if hold < 0:
            raise SimulationError(f"negative hold {hold!r}")
        # the Event fields, set here and not through Event.__init__: a
        # request is built for every CPU quantum and disk transfer
        self.env = resource.env
        self.callbacks = []
        self._value = _PENDING
        self._ok = None
        self._defused = False
        self.resource = resource
        #: set True once the slot has been granted
        self.granted = False
        #: seconds between the grant and the event firing
        self.hold = hold
        #: simulated time of the grant (None while queued)
        self.granted_at: Optional[float] = None

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, *exc) -> None:
        self.resource.release(self)


class Resource:
    """A counted FIFO resource with ``capacity`` slots.

    Usage from a process::

        req = resource.request()
        yield req
        ...           # critical section
        resource.release(req)

    ``request(hold)`` folds a fixed-length critical section into the
    request: the process resumes ``hold`` seconds after the grant,
    still holding the slot, and ``req.granted_at`` tells when the
    grant came.

    ``cancel`` withdraws a queued request (used to implement timeouts:
    wait on ``AnyOf([req, env.timeout(t)])`` and cancel on timeout).
    """

    def __init__(self, env, capacity: int = 1):
        if capacity < 0:
            raise SimulationError(f"negative capacity {capacity}")
        self.env = env
        self._capacity = capacity
        self.users: List[Request] = []
        self.queue: Deque[Request] = deque()

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def count(self) -> int:
        """Number of slots currently in use."""
        return len(self.users)

    @property
    def queued(self) -> int:
        """Number of requests waiting for a slot."""
        return len(self.queue)

    def set_capacity(self, capacity: int) -> None:
        """Resize the resource.

        Growing wakes queued waiters; shrinking never evicts current
        users — the resource simply stops granting until usage drops
        below the new capacity.  (This is exactly the behaviour the
        paper's dynamic gateway thresholds need.)
        """
        if capacity < 0:
            raise SimulationError(f"negative capacity {capacity}")
        self._capacity = capacity
        self._grant()

    def request(self, hold: float = 0.0) -> Request:
        """Ask for one slot; returns an event that fires ``hold`` seconds
        after the slot is granted (at the grant by default)."""
        req = Request(self, hold)
        self.queue.append(req)
        if len(self.users) < self._capacity:
            self._grant()
        return req

    def release(self, request: Request) -> None:
        """Return a granted slot (or withdraw a queued request)."""
        if request.granted:
            self.users.remove(request)
            request.granted = False
            if self.queue:
                self._grant()
        else:
            self.cancel(request)

    def cancel(self, request: Request) -> None:
        """Withdraw a request that has not been granted yet (no-op if
        already granted or not queued)."""
        try:
            self.queue.remove(request)
        except ValueError:
            pass

    def _grant(self) -> None:
        # request() and release() call this only when its loop can run:
        # a slot is free, or someone waits.
        #
        # A hold request replaces "yield the grant, then yield
        # timeout(hold)" exactly: the slot is still allocated here,
        # synchronously in request()/release(), and the event fires at
        # the same float time now + hold the timeout got, because the
        # grant event fired at now.  Only its eid rank against other
        # events at that very instant can differ.
        env, queue, users = self.env, self.queue, self.users
        while queue and len(users) < self._capacity:
            req = queue.popleft()
            req.granted = True
            req.granted_at = env.now
            users.append(req)
            req._ok = True
            req._value = self
            env.schedule(req, req.hold)


class Store:
    """An unbounded FIFO buffer of items with blocking ``get``.

    Used for message passing between processes (e.g. broker
    notifications in tests).
    """

    def __init__(self, env):
        self.env = env
        self.items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    def put(self, item: Any) -> None:
        """Deposit an item, waking one waiting getter if any."""
        if self._getters:
            getter = self._getters.popleft()
            getter.succeed(item)
        else:
            self.items.append(item)

    def get(self) -> Event:
        """An event that fires with the next available item."""
        event = Event(self.env)
        if self.items:
            event.succeed(self.items.popleft())
        else:
            self._getters.append(event)
        return event

    def __len__(self) -> int:
        return len(self.items)
