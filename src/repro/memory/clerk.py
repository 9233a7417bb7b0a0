"""Per-subcomponent allocation interface (a SQL Server "memory clerk").

Each DBMS subcomponent — buffer pool, compilation, execution workspace,
plan cache — allocates through its own clerk, so the manager and the
Memory Broker always know *who* owns every byte.
"""

from __future__ import annotations

from enum import Enum
from typing import TYPE_CHECKING, Callable, Optional

from repro.errors import ConfigurationError, OutOfMemoryError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.memory.manager import MemoryManager


class GrantOutcome(Enum):
    """Result of a negotiated (broker-advised) allocation request."""

    #: the bytes were allocated
    GRANTED = "granted"
    #: the broker declined the grant before any allocation was tried;
    #: nothing was allocated and no error was raised — the caller is
    #: expected to degrade gracefully (best-plan-so-far)
    DENIED_SOFT = "denied_soft"
    #: physical memory (after cache reclamation) could not cover the
    #: request; nothing was allocated
    DENIED_HARD = "denied_hard"


#: advisory callback consulted before a soft allocation: return False
#: to deny the grant without touching physical memory
GrantAdvisor = Callable[["MemoryClerk", int], bool]


class MemoryClerk:
    """A named window onto the machine-wide :class:`MemoryManager`."""

    def __init__(self, name: str, manager: "MemoryManager"):
        self.name = name
        self.manager = manager
        self._used = 0
        #: lifetime bytes allocated (diagnostics)
        self.total_allocated = 0
        #: high-water mark of concurrent usage
        self.peak = 0
        #: broker-installed advisor consulted by :meth:`request_grant`
        self.advisor: Optional[GrantAdvisor] = None
        #: grants the advisor declined (diagnostics)
        self.soft_denials = 0
        #: grants that hit physical OOM (diagnostics)
        self.hard_denials = 0
        #: the OutOfMemoryError behind the most recent hard denial, so
        #: callers of the no-raise grant path can still chain/report it
        #: (kept without its traceback, whose frames lead back to the
        #: requesting task and would pin it — and this clerk — in a
        #: reference cycle)
        self.last_oom: Optional[OutOfMemoryError] = None

    @property
    def used(self) -> int:
        """Bytes this clerk currently holds."""
        return self._used

    def allocate(self, nbytes: int) -> None:
        """Take ``nbytes`` from physical memory; may trigger cache
        reclamation; raises :class:`~repro.errors.OutOfMemoryError`."""
        self.manager._allocate(self, nbytes)
        self._used += nbytes
        self.total_allocated += nbytes
        if self._used > self.peak:
            self.peak = self._used

    def request_grant(self, nbytes: int, soft: bool = True) -> GrantOutcome:
        """Negotiated allocation: consult the broker, then allocate.

        With ``soft`` set, the clerk's advisor (the Memory Broker) is
        asked first; a denial returns :data:`GrantOutcome.DENIED_SOFT`
        without touching physical memory.  A request that passes the
        advisor but cannot be covered even after cache reclamation
        returns :data:`GrantOutcome.DENIED_HARD` instead of raising, so
        callers can fall back (e.g. to the best plan so far) without
        exception plumbing.
        """
        if soft and self.advisor is not None \
                and not self.advisor(self, nbytes):
            self.soft_denials += 1
            return GrantOutcome.DENIED_SOFT
        try:
            self.allocate(nbytes)
        except OutOfMemoryError as exc:
            self.hard_denials += 1
            self.last_oom = exc.with_traceback(None)
            return GrantOutcome.DENIED_HARD
        return GrantOutcome.GRANTED

    def try_allocate(self, nbytes: int) -> bool:
        """Take ``nbytes`` only if free memory covers it (no reclaim)."""
        ok = self.manager.try_allocate(self, nbytes)
        if ok:
            self.total_allocated += nbytes
            if self._used > self.peak:
                self.peak = self._used
        return ok

    def free(self, nbytes: int) -> None:
        """Return ``nbytes`` to physical memory."""
        self.manager._free(self, nbytes)
        self._used -= nbytes

    def free_all(self) -> int:
        """Return everything this clerk holds; returns the byte count."""
        released = self._used
        if released:
            self.free(released)
        return released

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<MemoryClerk {self.name!r} used={self._used}>"
