"""Core event types for the simulation kernel.

An :class:`Event` moves through three states: *pending* (created, not yet
triggered), *triggered* (given a value/exception and placed on the event
heap), and *processed* (its callbacks have run).  Processes react to
events via callbacks registered by the kernel — user code simply
``yield``\\ s events.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, List, Optional

from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.environment import Environment

#: sentinel for "event has no value yet"
_PENDING = object()


class Interrupt(Exception):
    """Thrown into a process by :meth:`repro.sim.process.Process.interrupt`.

    ``cause`` carries the interrupter's reason (any object).
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A single occurrence that processes can wait on.

    Events succeed with a value or fail with an exception.  Failed
    events are re-raised inside every waiting process, so errors
    propagate along wait chains exactly like exceptions along call
    chains.
    """

    # events are allocated on every timeout/request/resume — __slots__
    # keeps them dict-free, which measurably cuts kernel overhead
    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._ok: Optional[bool] = None
        #: set True when a failure was delivered to at least one waiter
        self._defused = False

    # -- state predicates ------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has a value and is scheduled for processing."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only valid once triggered."""
        if self._ok is None:
            raise SimulationError("event value not yet available")
        return self._ok

    @property
    def value(self) -> Any:
        """The value (or exception) the event was triggered with."""
        if self._value is _PENDING:
            raise SimulationError("event value not yet available")
        return self._value

    # -- triggering ------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self.env.schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception to raise in waiters."""
        if not isinstance(exception, BaseException):
            raise SimulationError(f"fail() needs an exception, got {exception!r}")
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = False
        self._value = exception
        self.env.schedule(self)
        return self

    def trigger(self, event: "Event") -> None:
        """Copy the outcome of another event onto this one (callback form)."""
        if not event.triggered:
            # guard before touching _defused: marking a still-pending
            # event defused would silently swallow a later real failure
            raise SimulationError(
                f"cannot copy the outcome of pending {event!r}")
        if event._ok:
            self.succeed(event._value)
        else:
            event._defused = True
            self.fail(event._value)

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Run ``callback(event)`` when the event is processed."""
        if self.callbacks is None:
            raise SimulationError(f"{self!r} already processed")
        self.callbacks.append(callback)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "processed" if self.processed else (
            "triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires ``delay`` simulated seconds in the future."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay!r}")
        # the Event fields, set here and not through Event.__init__: a
        # timeout is built for nearly every wait of every process
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._defused = False
        self.delay = delay
        env.schedule(self, delay)


class Condition(Event):
    """Base for events composed of other events (``AnyOf`` / ``AllOf``)."""

    __slots__ = ("events", "_unprocessed")

    def __init__(self, env: "Environment", events: List[Event]):
        self.env = env
        self.callbacks = []
        self._value = _PENDING
        self._ok = None
        self._defused = False
        self.events = events = list(events)
        for event in events:
            if event.env is not env:
                raise SimulationError("events belong to different environments")
        self._unprocessed = len(events)
        if not events:
            self.succeed(self._collect())
            return
        check = self._check
        for event in events:
            if event.callbacks is None:  # already processed
                check(event)
            else:
                event.callbacks.append(check)

    def _collect(self) -> dict:
        """Gather the values of all already-processed successful children.

        ``processed`` (not merely ``triggered``) is the right test:
        Timeout events carry their value from creation, long before
        they fire.
        """
        return {
            event: event._value
            for event in self.events
            if event.callbacks is None and event._ok
        }

    def _satisfied(self) -> bool:
        raise NotImplementedError

    def _release(self) -> None:
        """Let go of the children: the outcome is settled (or nobody is
        left to want it).  A child that never gets processed — the
        request a timeout beat, a timer the run ended before — keeps
        ``_check`` in its callbacks; still holding it from here would
        close a reference cycle only the collector could free."""
        self.events = ()

    def _check(self, event: Event) -> None:
        if self._value is not _PENDING:
            # A sibling already resolved the condition; absorb failures so
            # they do not escape as unhandled.
            if event._value is not _PENDING and not event._ok:
                event._defused = True
            return
        self._unprocessed -= 1
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            self._release()
        elif self._satisfied():
            self.succeed(self._collect())
            self._release()


class AnyOf(Condition):
    """Fires as soon as *any* child event succeeds (or one fails)."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        return any(event.callbacks is None and event._ok
                   for event in self.events)


class AllOf(Condition):
    """Fires once *all* child events have succeeded (or one fails)."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        return self._unprocessed == 0
