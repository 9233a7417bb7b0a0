"""The executor: runs one compiled plan as a simulation process.

Lifecycle: size the grant from compile-time estimates → wait in the
grant queue (timeout ⇒ :class:`~repro.errors.GrantTimeoutError`) →
perform the plan's scans through the buffer pool → burn the plan's CPU
through the scheduler → pay spill I/O if the grant was smaller than
desired → release everything.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.config import ExecutionConfig
from repro.errors import (
    ExecutionOutOfMemoryError,
    GrantTimeoutError,
    OutOfMemoryError,
)
from repro.execution.grants import MemoryGrant, ResourceSemaphore
from repro.execution.operators import ExecutionProfile
from repro.sim import Environment
from repro.storage.bufferpool import BufferPool
from repro.server.scheduler import CpuScheduler
from repro.units import MiB


@dataclass
class ExecutionOutcome:
    """Timing breakdown of one successful execution."""

    grant_wait: float = 0.0
    io_time: float = 0.0
    cpu_time: float = 0.0
    spill_time: float = 0.0
    granted_bytes: int = 0
    desired_bytes: int = 0
    spilled: bool = False
    buffer_hits: int = 0
    buffer_misses: int = 0

    @property
    def elapsed(self) -> float:
        return self.grant_wait + self.io_time + self.cpu_time + self.spill_time


class QueryExecutor:
    """Executes profiles against the shared server substrate."""

    #: grants below this are pointless; queries always ask for at least it
    MIN_GRANT = 4 * MiB

    def __init__(self, env: Environment, scheduler: CpuScheduler,
                 bufferpool: BufferPool, semaphore: ResourceSemaphore,
                 config: ExecutionConfig):
        self.env = env
        self.scheduler = scheduler
        self.bufferpool = bufferpool
        self.semaphore = semaphore
        self.config = config

    def desired_grant(self, profile: ExecutionProfile) -> int:
        """Clamp the plan's ideal workspace to the per-query maximum."""
        cap = int(self.semaphore.capacity_bytes
                  * self.config.max_grant_fraction)
        return max(self.MIN_GRANT, min(int(profile.desired_memory), cap))

    def execute(self, profile: ExecutionProfile, catalog):
        """Process generator: run one query; returns ExecutionOutcome.

        Raises :class:`GrantTimeoutError` if the workspace queue stalls
        and :class:`OutOfMemoryError` if physical memory cannot back
        the grant.
        """
        outcome = ExecutionOutcome()
        outcome.desired_bytes = int(profile.desired_memory)
        ask = self.desired_grant(profile)

        # -- memory grant ------------------------------------------------
        started = self.env.now
        grant = self.semaphore.request(ask)
        timeout = self.env.timeout(self.config.grant_timeout)
        try:
            yield self.env.any_of([grant, timeout])
        except OutOfMemoryError as exc:
            # the semaphore failed the grant: physical memory could not
            # back it even after cache reclamation
            raise ExecutionOutOfMemoryError(str(exc)) from exc
        except BaseException:
            # unwound mid-wait (the run was closed): withdraw the
            # request, or return a grant made during the teardown
            self.semaphore.release(grant)
            raise
        if not grant.granted:
            self.semaphore.cancel(grant)
            if grant.triggered and not grant.ok:
                raise ExecutionOutOfMemoryError(str(grant.value))
            raise GrantTimeoutError(ask, self.env.now - started)
        outcome.grant_wait = self.env.now - started
        outcome.granted_bytes = grant.nbytes

        try:
            # -- physical reads through the buffer pool --------------------
            io_started = self.env.now
            for scan in profile.scans:
                crange = catalog.chunk_range(scan.table)
                window = crange.slice(scan.offset_fraction,
                                      scan.length_fraction)
                result = yield from self.bufferpool.read_range(window)
                outcome.buffer_hits += result.hits
                outcome.buffer_misses += result.misses
            outcome.io_time = self.env.now - io_started

            # -- CPU work ---------------------------------------------------
            cpu_started = self.env.now
            yield from self.scheduler.consume(profile.cpu_seconds)
            outcome.cpu_time = self.env.now - cpu_started

            # -- spill penalty ---------------------------------------------
            spill = profile.spill_bytes(grant.nbytes)
            if spill:
                outcome.spilled = True
                spill_started = self.env.now
                yield from self.bufferpool.disk.read(spill)
                yield from self.scheduler.consume(
                    profile.spill_cpu(grant.nbytes))
                outcome.spill_time = self.env.now - spill_started
        finally:
            self.semaphore.release(grant)
        return outcome
