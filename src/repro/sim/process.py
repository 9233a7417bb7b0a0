"""Generator-based processes.

A process is a Python generator that yields :class:`~repro.sim.events.Event`
objects.  The kernel resumes the generator with the event's value when it
fires, or throws the event's exception into the generator when it fails.
A process is itself an event that fires when the generator returns, so
processes can wait on each other.
"""

from __future__ import annotations

from typing import Any, Generator

from repro.errors import SimulationError
from repro.sim.events import Condition, Event, Interrupt, _PENDING


class Process(Event):
    """A running generator coroutine inside an environment."""

    __slots__ = ("_generator", "_target")

    def __init__(self, env, generator: Generator):
        if not hasattr(generator, "send"):
            raise SimulationError(f"process needs a generator, got {generator!r}")
        self.env = env
        self.callbacks = []
        self._value = _PENDING
        self._ok = None
        self._defused = False
        self._generator = generator
        #: the event this process is currently waiting on (None when running)
        self._target: Event | None = None
        # Kick off the process via an immediately-scheduled initialization
        # event so creation order does not perturb event ordering.
        init = Event(env)
        init._ok = True
        init._value = None
        env.schedule(init)
        init.callbacks.append(self._resume)
        env._processes[self] = None

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return self._value is _PENDING

    @property
    def target(self) -> Event | None:
        """The event the process is currently waiting for (diagnostics)."""
        return self._target

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its wait point.

        The process stops waiting on its current target; that target is
        left to fire on its own (its outcome is discarded for this
        process).
        """
        if not self.is_alive:
            raise SimulationError("cannot interrupt a finished process")
        if self.env.active_process is self:
            raise SimulationError("a process cannot interrupt itself")
        wakeup = Event(self.env)
        wakeup._ok = False
        wakeup._value = Interrupt(cause)
        wakeup._defused = True
        self.env.schedule(wakeup)
        wakeup.add_callback(self._resume)

    # -- kernel internals --------------------------------------------------
    def _finish(self) -> None:
        """The generator is done: stop waiting, leave the live registry."""
        self._target = None
        self.env._processes.pop(self, None)

    def _close(self) -> None:
        """Unwind a live process for :meth:`Environment.close`: stop
        waiting (the target may outlive the run in some queue and must
        not resume us), then run the generator's ``finally`` blocks."""
        target, self._target = self._target, None
        if target is not None and target.callbacks is not None:
            target.callbacks.remove(self._resume)
            if isinstance(target, Condition):
                target._release()
        self._generator.close()

    def _resume(self, event: Event) -> None:
        """Advance the generator with the outcome of ``event``.

        Every event of a run that wakes a process comes through here,
        so the checks are ordered for the common case: ``event`` is the
        target the process yielded, and it is neither an interrupt nor
        a stale wakeup.
        """
        if self._value is not _PENDING:
            # finished: e.g. an interrupt raced with normal completion
            return
        target = self._target
        if event is not target:
            if isinstance(event._value, Interrupt):
                # Detach from the pending target; its eventual outcome
                # must not resume us anymore.
                if target is not None and target.callbacks is not None:
                    try:
                        target.callbacks.remove(self._resume)
                    except ValueError:
                        pass
            elif target is not None:
                # Stale wakeup from an event we stopped waiting on.
                return
        env = self.env
        env.active_process = self
        try:
            if event._ok:
                next_event = self._generator.send(event._value)
            else:
                event._defused = True
                next_event = self._generator.throw(event._value)
        except StopIteration as stop:
            self._finish()
            self.succeed(stop.value)
            return
        except BaseException as exc:
            self._finish()
            # keep the model's frames for whoever re-raises this, but
            # not this kernel frame: its ``self`` would tie the process
            # and its own failure into a cycle only the collector frees
            self.fail(exc.with_traceback(exc.__traceback__.tb_next))
            return
        finally:
            env.active_process = None

        if not isinstance(next_event, Event):
            raise SimulationError(
                f"process yielded a non-event: {next_event!r}")
        callbacks = next_event.callbacks
        if callbacks is None:
            # Already processed: resume immediately via a zero-delay event.
            relay = Event(env)
            relay._ok = next_event._ok
            relay._value = next_event._value
            if not next_event._ok:
                next_event._defused = True
                relay._defused = True
            env.schedule(relay)
            self._target = relay
            relay.callbacks.append(self._resume)
        else:
            self._target = next_event
            callbacks.append(self._resume)
