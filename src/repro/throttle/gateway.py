"""One memory monitor of the throttling ladder."""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import GatewayTimeoutError
from repro.sim import Environment, Request, Resource


@dataclass
class GatewayStats:
    """Cumulative counters for one monitor, updated in place by its
    :class:`Gateway`."""

    acquires: int = 0
    timeouts: int = 0
    total_wait: float = 0.0
    peak_queue: int = 0

    def mean_wait(self) -> float:
        return self.total_wait / self.acquires if self.acquires else 0.0


class Gateway:
    """A counted monitor with FIFO admission and a wait timeout.

    ``capacity`` is the number of concurrent compilations admitted
    (4/CPU for the small gateway, 1/CPU medium, 1 big).  Each gateway
    keeps its own :class:`GatewayStats`.
    """

    def __init__(self, env: Environment, name: str, capacity: int,
                 timeout: float):
        self.env = env
        self.name = name
        self.timeout = timeout
        self._resource = Resource(env, capacity=capacity)
        self.stats = GatewayStats()

    @property
    def capacity(self) -> int:
        return self._resource.capacity

    @property
    def active(self) -> int:
        """Compilations currently holding this monitor."""
        return self._resource.count

    @property
    def waiting(self) -> int:
        return self._resource.queued

    def acquire(self):
        """Process generator: take one slot or raise GatewayTimeoutError.

        Returns the granted :class:`~repro.sim.resources.Request`,
        which must be passed back to :meth:`release`.
        """
        started = self.env.now
        req = self._resource.request()
        self.stats.peak_queue = max(self.stats.peak_queue,
                                    self._resource.queued)
        timeout = self.env.timeout(self.timeout)
        try:
            yield self.env.any_of([req, timeout])
        except BaseException:
            # unwound mid-wait (the run was closed): withdraw the claim,
            # or give back a slot granted while the run was torn down
            self._resource.release(req)
            raise
        if not req.granted:
            self._resource.cancel(req)
            self.stats.timeouts += 1
            raise GatewayTimeoutError(self.name, self.env.now - started)
        self.stats.acquires += 1
        self.stats.total_wait += self.env.now - started
        return req

    def release(self, request: Request) -> None:
        """Give a slot back, admitting the next queued compilation."""
        self._resource.release(request)
