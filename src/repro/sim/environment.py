"""The simulation environment: clock plus event schedule.

:class:`Environment` is the kernel's scheduler.  ``schedule`` places a
triggered event on the schedule; ``step`` pops the earliest event and
runs its callbacks; ``run`` steps until a deadline or until no events
remain.

Two interchangeable scheduler cores back the same facade — the
``kernel`` constructor knob picks one (see ``docs/kernel.md``):

* ``legacy`` (default) — one binary heap ordered by ``(time, eid)``.
  Every run uses it: no spec, config or CLI flag selects another.
* ``wheel`` — the calendar-queue :class:`~repro.sim.wheel.EventWheel`:
  O(1) bucket inserts for near-horizon timers with a heap spillover
  for far-future events.  Pops in exactly the legacy order (same
  timestamps, same FIFO tie-breaking); the kernel tests play it
  against the heap until it is removed.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Dict, Generator, List, Optional, Tuple

from repro.errors import SimulationError
from repro.sim.events import AllOf, AnyOf, Event, Timeout

#: the selectable scheduler cores
KERNEL_NAMES = ("legacy", "wheel")


class Environment:
    """A discrete-event simulation environment.

    Examples
    --------
    >>> env = Environment()
    >>> def hello(env):
    ...     yield env.timeout(10)
    ...     return env.now
    >>> p = env.process(hello(env))
    >>> env.run()
    >>> p.value
    10.0
    """

    __slots__ = ("now", "_queue", "_eid", "_wheel", "_processes",
                 "active_process", "__weakref__")

    def __init__(self, initial_time: float = 0.0, kernel: str = "legacy"):
        if kernel not in KERNEL_NAMES:
            raise SimulationError(
                f"unknown kernel {kernel!r}; valid kernels: "
                f"{', '.join(KERNEL_NAMES)}")
        #: current simulated time in seconds; only the kernel advances
        #: it (a plain attribute: every process reads it, often)
        self.now = float(initial_time)
        self._queue: List[Tuple[float, int, Event]] = []
        self._eid = 0
        if kernel == "wheel":
            from repro.sim.wheel import EventWheel

            self._wheel: Optional["EventWheel"] = \
                EventWheel(start=self.now)
        else:
            self._wheel = None
        #: every still-live process, in creation order (a dict, not a
        #: set: close() unwinds them in this order on every run)
        self._processes: Dict["Process", None] = {}
        #: the process currently being resumed (kernel internal)
        self.active_process = None

    @property
    def kernel(self) -> str:
        """Which scheduler core backs this environment."""
        return "legacy" if self._wheel is None else "wheel"

    # -- event factories --------------------------------------------------
    def event(self) -> Event:
        """Create a fresh, untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event that fires ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def any_of(self, events) -> AnyOf:
        """An event that fires when any of ``events`` fires."""
        return AnyOf(self, events)

    def all_of(self, events) -> AllOf:
        """An event that fires when all of ``events`` have fired."""
        return AllOf(self, events)

    def process(self, generator: Generator) -> "Process":
        """Start a new process running ``generator``."""
        from repro.sim.process import Process

        return Process(self, generator)

    # -- scheduling --------------------------------------------------------
    def schedule(self, event: Event, delay: float = 0.0) -> None:
        """Place a triggered event on the schedule, ``delay`` s from now."""
        eid = self._eid = self._eid + 1
        if self._wheel is None:
            heappush(self._queue, (self.now + delay, eid, event))
        else:
            self._wheel.push(self.now + delay, eid, event)

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        if self._wheel is not None:
            return self._wheel.peek()
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Process the single earliest event."""
        if self._wheel is None:
            if not self._queue:
                raise SimulationError("step() on an empty schedule")
            when, _, event = heappop(self._queue)
        else:
            if not self._wheel:
                raise SimulationError("step() on an empty schedule")
            when, _, event = self._wheel.pop()
        if when < self.now:
            raise SimulationError("event scheduled in the past")
        self.now = when
        callbacks, event.callbacks = event.callbacks, None
        for callback in callbacks:
            callback(event)
        if not event._ok and not event._defused:
            # A failed event nobody waited on: surface the error instead of
            # silently dropping it (Zen: errors should never pass silently).
            raise event._value

    def run(self, until: Optional[float] = None) -> None:
        """Run until the schedule drains or the clock reaches ``until``.

        When ``until`` is given the clock is advanced to exactly that
        time before returning, even if no event falls on it.
        """
        if until is not None:
            if until < self.now:
                raise SimulationError(
                    f"run(until={until}) is in the past (now={self.now})")
            limit = float(until)
        else:
            limit = float("inf")
        if self._wheel is not None:
            self._run_wheel(limit)
        else:
            # inlined step(): this loop dispatches every event of a run,
            # so the attribute lookups are hoisted out
            queue = self._queue
            pop = heappop
            while queue and queue[0][0] <= limit:
                when, _, event = pop(queue)
                if when < self.now:
                    raise SimulationError("event scheduled in the past")
                self.now = when
                callbacks, event.callbacks = event.callbacks, None
                for callback in callbacks:
                    callback(event)
                if not event._ok and not event._defused:
                    raise event._value
        if until is not None:
            self.now = limit

    # -- teardown ---------------------------------------------------------
    def close(self) -> None:
        """End the simulation: unwind every live process, drop the schedule.

        Each still-live process has its generator closed, in creation
        order, so every ``finally`` along its wait chain runs (held
        slots, grants and memory accounts are released); then whatever
        is left on the schedule — including events those releases
        triggered — is dropped unprocessed.  Nothing is resumed.  What
        remains is an empty environment at the current time, so calling
        ``close`` again is a no-op.

        A process that yields again while being closed is a model bug
        and surfaces as :class:`~repro.errors.SimulationError` once
        every other process has been unwound.
        """
        processes, self._processes = self._processes, {}
        stubborn = None
        for process in processes:
            try:
                process._close()
            except RuntimeError as exc:  # generator ignored GeneratorExit
                stubborn = stubborn or (process, exc)
        if self._wheel is None:
            self._queue.clear()
        else:
            self._wheel.clear()
        if stubborn is not None:
            process, exc = stubborn
            raise SimulationError(
                f"{process!r} yielded while being closed: {exc}") from exc

    def _run_wheel(self, limit: float) -> None:
        """The dispatch loop over the calendar-queue core."""
        pop_due = self._wheel.pop_due
        while True:
            entry = pop_due(limit)
            if entry is None:
                break
            when, event = entry[0], entry[2]
            if when < self.now:
                raise SimulationError("event scheduled in the past")
            self.now = when
            callbacks, event.callbacks = event.callbacks, None
            for callback in callbacks:
                callback(event)
            if not event._ok and not event._defused:
                raise event._value
