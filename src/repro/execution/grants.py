"""The execution-workspace memory-grant queue.

Modeled on SQL Server's resource semaphore: a byte-counted FIFO queue.
A query computes its desired grant from compile-time estimates, waits
until that many bytes of workspace are free, holds them for the whole
execution and releases them at the end.  Grant bytes are charged to the
``workspace`` clerk, so taking a grant can force the buffer pool to
shrink — and a machine full of compilation memory makes grants slow or
impossible, which is the paper's contention loop.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Optional

from repro.errors import OutOfMemoryError, SimulationError
from repro.memory.clerk import MemoryClerk
from repro.sim import Environment, Event


class MemoryGrant(Event):
    """A pending or granted workspace reservation."""

    def __init__(self, semaphore: "ResourceSemaphore", nbytes: int):
        super().__init__(semaphore.env)
        self.semaphore = semaphore
        self.nbytes = nbytes
        self.granted = False
        self.requested_at = semaphore.env.now


@dataclass
class GrantStats:
    """Cumulative counters for the grant queue."""

    grants: int = 0
    timeouts: int = 0
    oom_failures: int = 0
    total_wait: float = 0.0
    peak_queue: int = 0

    def mean_wait(self) -> float:
        return self.total_wait / self.grants if self.grants else 0.0


class ResourceSemaphore:
    """FIFO byte-counted semaphore for execution workspace memory."""

    def __init__(self, env: Environment, clerk: MemoryClerk,
                 capacity_bytes: int):
        if capacity_bytes <= 0:
            raise SimulationError("workspace capacity must be positive")
        self.env = env
        self.clerk = clerk
        self.capacity_bytes = capacity_bytes
        self._queue: Deque[MemoryGrant] = deque()
        self._outstanding = 0
        self._pumping = False
        self._blocked_on_memory = False
        self.stats = GrantStats()
        # retry queued grants whenever any component frees memory
        clerk.manager.add_release_listener(self._on_memory_released)

    @property
    def outstanding_bytes(self) -> int:
        """Bytes currently granted."""
        return self._outstanding

    @property
    def available_bytes(self) -> int:
        return self.capacity_bytes - self._outstanding

    @property
    def queued(self) -> int:
        return len(self._queue)

    def request(self, nbytes: int) -> MemoryGrant:
        """Queue a grant request; the returned event fires when granted
        (or fails with :class:`OutOfMemoryError` if physical memory
        cannot back the grant even after cache reclamation)."""
        if nbytes <= 0:
            raise SimulationError(f"grant of {nbytes} bytes")
        nbytes = min(nbytes, self.capacity_bytes)
        grant = MemoryGrant(self, nbytes)
        self._queue.append(grant)
        self.stats.peak_queue = max(self.stats.peak_queue, len(self._queue))
        self._pump()
        return grant

    def release(self, grant: MemoryGrant) -> None:
        """Return a granted reservation (or withdraw a queued one)."""
        if grant.granted:
            self._outstanding -= grant.nbytes
            self.clerk.free(grant.nbytes)
            grant.granted = False
            self._pump()
        else:
            self.cancel(grant)

    def cancel(self, grant: MemoryGrant) -> None:
        """Withdraw a request that has not been granted."""
        try:
            self._queue.remove(grant)
        except ValueError:
            pass

    def _pump(self) -> None:
        """Grant from the head of the queue while capacity allows (FIFO:
        a big request at the head blocks smaller ones behind it, exactly
        like the real resource semaphore).

        If physical memory cannot back the head grant right now, the
        request stays queued and retried when any component frees
        memory — like the real semaphore, queries *wait* for memory and
        only fail via the grant timeout."""
        if self._pumping:
            return  # re-entrant call via a shrink-induced free
        self._pumping = True
        try:
            while self._queue:
                head = self._queue[0]
                if self._outstanding + head.nbytes > self.capacity_bytes:
                    return
                # physical backing: may force the buffer pool to give
                # pages up
                try:
                    self.clerk.allocate(head.nbytes)
                except OutOfMemoryError:
                    self.stats.oom_failures += 1
                    self._blocked_on_memory = True
                    return
                self._queue.popleft()
                head.granted = True
                self._outstanding += head.nbytes
                self.stats.grants += 1
                self.stats.total_wait += self.env.now - head.requested_at
                # fires with the byte count, not with itself: an event
                # holding itself is a cycle only the collector frees
                head.succeed(head.nbytes)
        finally:
            self._pumping = False

    def _on_memory_released(self) -> None:
        if self._blocked_on_memory and not self._pumping:
            self._blocked_on_memory = False
            self._pump()
