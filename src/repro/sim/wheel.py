"""The calendar-queue event wheel: the million-session scheduler core.

The legacy kernel keeps every pending event on one binary heap, so a
cell with N concurrent sessions pays O(log N) per timer on a heap whose
memory locality degrades as N grows.  This module provides the
alternative: a **calendar queue** (Brown 1988) tuned for the dominant
timer class of this simulator — session think-time and admission
queue-timeout timers, which land within a bounded horizon of *now*.

Layout
------
Time is cut into fixed-width **buckets**; ``slots`` buckets form one
wheel rotation (the *span*).  An entry lands in one of three places:

* the **ready heap** — entries due inside the current drain window
  (one bucket wide).  Small: it holds one bucket's worth of events,
  not the whole queue, so its O(log) factor is over bucket occupancy.
* a **bucket** — an O(1) list append for anything due within the span.
* the **overflow heap** — the far-future spillover (run-duration
  deadlines, diurnal-cycle timers), refilled into the wheel as the
  drain window approaches them.

Ordering contract
-----------------
``pop`` returns entries in exactly the legacy heap's order: ascending
``(when, eid)`` where ``eid`` is the scheduling sequence number — i.e.
earliest deadline first with FIFO tie-breaking at equal timestamps.
The argument: an entry leaves a bucket for the ready heap only once
the drain window reaches its timestamp, every entry outside the ready
heap is provably due at-or-after the window's end, and the ready heap
itself orders by ``(when, eid)``.  The differential harness
(``tests/test_kernel_equivalence.py``) and the randomized model test
(``tests/test_sim_wheel.py``) both pin this.

``cancel`` exists for schedulers that revise timers (and for the
property tests); cancelled entries die lazily wherever they sit and
are dropped when they surface.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush
from typing import Any, Iterator, List, Optional, Tuple

#: entry field indices (entries are lists so cancellation can mutate
#: them in place; heap comparison only ever reaches (when, eid))
_WHEN, _EID, _PAYLOAD, _ALIVE, _IN_WHEEL = range(5)

#: default bucket width in sim-seconds: narrower than the ~15 s think
#: time and the 120-180 s queue timeouts that dominate, so a bucket
#: drain stays small even at heavy fan-in
DEFAULT_BUCKET_WIDTH = 0.5

#: default rotation length: 4096 buckets x 0.5 s = a 2048 s span, which
#: comfortably covers every near-horizon timer of a smoke/scaled run
DEFAULT_SLOTS = 4096


class EventWheel:
    """A calendar queue with an exact ``(when, eid)`` pop order.

    The payload is opaque (the kernel stores :class:`~repro.sim.events.
    Event` objects; the property tests store plain integers).
    """

    __slots__ = ("width", "slots", "_span", "_win", "_buckets", "_ready",
                 "_overflow", "_live", "_wheel_live", "_entries")

    def __init__(self, start: float = 0.0,
                 bucket_width: float = DEFAULT_BUCKET_WIDTH,
                 slots: int = DEFAULT_SLOTS):
        if bucket_width <= 0:
            raise ValueError(f"bucket_width must be positive, "
                             f"got {bucket_width!r}")
        if slots < 2:
            raise ValueError(f"slots must be >= 2, got {slots!r}")
        self.width = float(bucket_width)
        self.slots = int(slots)
        self._span = self.width * self.slots
        #: absolute index of the current drain window (monotone)
        self._win = math.floor(start / self.width)
        self._buckets: List[List[list]] = [[] for _ in range(self.slots)]
        self._ready: List[list] = []
        self._overflow: List[list] = []
        #: live (un-cancelled, un-popped) entries overall
        self._live = 0
        #: live entries in the wheel part (ready heap + buckets)
        self._wheel_live = 0
        #: eid -> live entry, for O(1) cancel
        self._entries: dict = {}

    # ------------------------------------------------------------ sizing
    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    # ------------------------------------------------------------- write
    def push(self, when: float, eid: int, payload: Any = None) -> None:
        """Schedule ``payload`` at ``when`` with sequence number ``eid``.

        ``eid`` must be unique and (for the FIFO-tie contract to mean
        anything) monotonically increasing across pushes.
        """
        entry = [when, eid, payload, True, True]
        self._entries[eid] = entry
        self._live += 1
        width = self.width
        if when < (self._win + 1) * width:
            # due inside the current drain window (or behind it, which
            # happens when peek() pre-advanced the window): straight to
            # the ready heap, which tolerates any timestamp
            self._wheel_live += 1
            heappush(self._ready, entry)
        elif when < self._win * width + self._span:
            self._wheel_live += 1
            self._buckets[int(when / width) % self.slots].append(entry)
        else:
            entry[_IN_WHEEL] = False
            heappush(self._overflow, entry)

    def cancel(self, eid: int) -> bool:
        """Remove a scheduled entry; True if it was still pending."""
        entry = self._entries.pop(eid, None)
        if entry is None:
            return False
        entry[_ALIVE] = False
        self._live -= 1
        if entry[_IN_WHEEL]:
            self._wheel_live -= 1
        return True

    def reschedule(self, eid: int, when: float) -> bool:
        """Move a pending entry to a new time, keeping its sequence
        number (and therefore its FIFO rank among equal timestamps);
        True if the entry was still pending."""
        entry = self._entries.get(eid)
        if entry is None:
            return False
        payload = entry[_PAYLOAD]
        self.cancel(eid)
        self.push(when, eid, payload)
        return True

    def clear(self) -> None:
        """Drop every pending entry; the drain window stays put, so the
        wheel keeps accepting pushes at or after the current time."""
        for bucket in self._buckets:
            bucket.clear()
        self._ready.clear()
        self._overflow.clear()
        self._entries.clear()
        self._live = self._wheel_live = 0

    # -------------------------------------------------------------- read
    def peek(self) -> float:
        """Timestamp of the earliest pending entry, ``inf`` if none."""
        if not self._ensure_ready():
            return math.inf
        return self._ready[0][_WHEN]

    def pop(self) -> Tuple[float, int, Any]:
        """Remove and return the earliest ``(when, eid, payload)``."""
        entry = self.pop_due(math.inf)
        if entry is None:
            raise IndexError("pop from an empty event wheel")
        return entry[_WHEN], entry[_EID], entry[_PAYLOAD]

    def pop_due(self, limit: float) -> Optional[list]:
        """Remove and return the earliest entry (``[when, eid,
        payload, ...]``) if it is due at or before ``limit``; None when
        the wheel is empty or its earliest entry is later.  One call in
        place of ``peek`` then ``pop`` for the kernel's dispatch loop."""
        if not self._ensure_ready():
            return None
        ready = self._ready
        if ready[0][_WHEN] > limit:
            return None
        entry = heappop(ready)
        self._live -= 1
        self._wheel_live -= 1
        del self._entries[entry[_EID]]
        return entry

    def drain(self) -> Iterator[Tuple[float, int, Any]]:
        """Pop everything, in order (test/diagnostic convenience)."""
        while self._live:
            yield self.pop()

    # --------------------------------------------------------- internals
    def _ensure_ready(self) -> bool:
        """Advance the drain window until the ready heap's top is the
        global minimum live entry; False when the wheel is empty."""
        ready = self._ready
        while True:
            # dead entries die lazily; drop them as they surface
            while ready and not ready[0][_ALIVE]:
                heappop(ready)
            if ready:
                return True
            if self._live == 0:
                return False
            if self._wheel_live == 0:
                # every live entry sits beyond the horizon: jump the
                # window straight to the earliest overflow entry
                # instead of stepping through empty rotations
                overflow = self._overflow
                while overflow and not overflow[0][_ALIVE]:
                    heappop(overflow)
                self._win = int(overflow[0][_WHEN] // self.width)
                self._refill()
                continue
            self._win += 1
            self._refill()
            bucket = self._buckets[self._win % self.slots]
            if bucket:
                window_end = (self._win + 1) * self.width
                keep = []
                for entry in bucket:
                    if not entry[_ALIVE]:
                        continue
                    if entry[_WHEN] < window_end:
                        heappush(ready, entry)
                    else:
                        # a later rotation's entry sharing the slot
                        keep.append(entry)
                bucket[:] = keep

    def _refill(self) -> None:
        """Move overflow entries the advancing horizon has reached."""
        overflow = self._overflow
        if not overflow:
            return
        horizon = self._win * self.width + self._span
        while overflow and overflow[0][_WHEN] < horizon:
            entry = heappop(overflow)
            if entry[_ALIVE]:
                self._wheel_live += 1
                self._place_wheel(entry)

    def _place_wheel(self, entry: list) -> None:
        """Place a refilled entry inside the wheel (never overflow)."""
        entry[_IN_WHEEL] = True
        if entry[_WHEN] < (self._win + 1) * self.width:
            heappush(self._ready, entry)
        else:
            self._buckets[int(entry[_WHEN] / self.width)
                          % self.slots].append(entry)
