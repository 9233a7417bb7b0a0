"""The machine-wide memory budget.

Every byte any subcomponent uses comes out of one
:class:`MemoryManager`.  When an allocation does not fit, the manager
first asks *shrinkable* clerks (caches: buffer pool, plan cache) to give
memory back, largest consumer first; only if that fails does it raise
:class:`~repro.errors.OutOfMemoryError`.  This is the substrate on which
the paper's contention loop plays out.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.errors import ConfigurationError, OutOfMemoryError
from repro.memory.clerk import MemoryClerk

#: a shrink callback: given a byte goal, release what you can and
#: return the number of bytes actually released
ShrinkCallback = Callable[[int], int]


class MemoryManager:
    """Tracks physical memory and arbitrates allocations between clerks."""

    def __init__(self, physical_memory: int):
        if physical_memory <= 0:
            raise ConfigurationError("physical_memory must be positive")
        self.physical_memory = int(physical_memory)
        self._used = 0
        self._clerks: Dict[str, MemoryClerk] = {}
        self._shrinkers: Dict[str, ShrinkCallback] = {}
        #: callbacks invoked after memory is freed (grant queues use
        #: this to retry when physical memory becomes available)
        self._release_listeners: List[Callable[[], None]] = []
        #: cumulative OOM failures (for the metrics collector)
        self.oom_count = 0
        #: bytes recovered from caches under pressure (diagnostics)
        self.reclaimed_bytes = 0

    # -- clerk registry ----------------------------------------------------
    def clerk(self, name: str) -> MemoryClerk:
        """Get or create the named clerk."""
        existing = self._clerks.get(name)
        if existing is not None:
            return existing
        clerk = MemoryClerk(name, self)
        self._clerks[name] = clerk
        return clerk

    def clerks(self) -> List[MemoryClerk]:
        """All registered clerks."""
        return list(self._clerks.values())

    def register_shrinker(self, name: str, callback: ShrinkCallback) -> None:
        """Register a cache's shrink callback under its clerk name."""
        self._shrinkers[name] = callback

    def add_release_listener(self, callback: Callable[[], None]) -> None:
        """Invoke ``callback()`` whenever memory is freed."""
        self._release_listeners.append(callback)

    def close(self) -> None:
        """Forget the shrink callbacks and release listeners (server
        teardown: they are bound methods of the caches and grant queues
        drawing on this manager, which would otherwise form reference
        cycles with it).  Accounting keeps working."""
        self._shrinkers.clear()
        self._release_listeners.clear()

    # -- accounting --------------------------------------------------------
    @property
    def used(self) -> int:
        """Total bytes currently allocated across all clerks."""
        return self._used

    @property
    def available(self) -> int:
        """Bytes not currently allocated."""
        return self.physical_memory - self._used

    def usage_by_clerk(self) -> Dict[str, int]:
        """Snapshot of per-clerk usage (what the broker samples, every
        tick: read without the ``used`` property)."""
        return {name: clerk._used for name, clerk in self._clerks.items()}

    # -- allocation paths (called by MemoryClerk) ---------------------------
    def _allocate(self, clerk: MemoryClerk, nbytes: int) -> None:
        """Allocate, reclaiming from caches if needed; raises OOM."""
        if nbytes < 0:
            raise ConfigurationError(f"negative allocation {nbytes}")
        if nbytes > self.available:
            self._reclaim(nbytes - self.available, requester=clerk.name)
        if nbytes > self.available:
            self.oom_count += 1
            raise OutOfMemoryError(clerk.name, nbytes, self.available)
        self._used += nbytes

    def try_allocate(self, clerk: MemoryClerk, nbytes: int) -> bool:
        """Allocate only if it fits *without* reclaiming; True on success.

        Caches use this path so that cache growth never forces other
        caches to shrink.
        """
        if nbytes < 0:
            raise ConfigurationError(f"negative allocation {nbytes}")
        if nbytes > self.available:
            return False
        self._used += nbytes
        clerk._used += nbytes
        return True

    def _free(self, clerk: MemoryClerk, nbytes: int) -> None:
        if nbytes < 0:
            raise ConfigurationError(f"negative free {nbytes}")
        if nbytes > clerk.used:
            raise ConfigurationError(
                f"clerk {clerk.name!r} freeing {nbytes} > used {clerk.used}")
        self._used -= nbytes
        if nbytes:
            for listener in self._release_listeners:
                listener()

    def _reclaim(self, shortfall: int, requester: str) -> None:
        """Ask shrinkable clerks (largest first) to release ``shortfall``.

        A clerk never shrinks to satisfy its own request twice in the
        same pass; the requester's own shrinker *is* eligible (a cache
        may trade old entries for new ones).
        """
        remaining = shortfall
        donors = sorted(
            (name for name in self._shrinkers if name in self._clerks),
            key=lambda name: self._clerks[name].used,
            reverse=True,
        )
        for name in donors:
            if remaining <= 0:
                break
            released = self._shrinkers[name](remaining)
            if released > 0:
                self.reclaimed_bytes += released
                remaining -= released

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<MemoryManager used={self._used} "
                f"of {self.physical_memory} bytes>")
