"""The Memory Broker.

Every ``interval`` seconds (on the server's tick, which calls
:meth:`MemoryBroker.sweep`) the broker samples per-clerk usage, fits
trends, and projects total usage ``horizon`` seconds ahead.  While the
projection fits in physical memory (minus headroom) it does nothing —
"the system behaves as if the Memory Broker was not there" — and a
sweep whose projection provably fits skips the trend fits, or, when
it sees the same usage snapshot as the quiet sweep before it, even
the sampling.  Under
projected pressure it computes per-component targets and notifies
subscribers, which in this server are:

* the buffer pool — gets a size target and shrinks toward it,
* the plan cache — gets shrink requests,
* the compilation governor — gets the compilation-memory target that
  drives the dynamic gateway thresholds (extension (a)),
* compilation tasks — can consult :meth:`MemoryBroker.pressure` to
  trigger the best-plan-so-far cutoff (extension (b)).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from itertools import repeat
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.config import BrokerConfig
from repro.broker.trend import (BOUND_SLACK, WindowTerms, project,
                                spread_factor, window_terms)
from repro.memory.manager import MemoryManager
from repro.sim import Environment


class BrokerSignal(Enum):
    """What a component should do with its memory consumption."""

    GROW = "grow"       # may continue allocating freely
    STABLE = "stable"   # may allocate at its current rate, no faster
    SHRINK = "shrink"   # must release memory toward the target


@dataclass(slots=True, unsafe_hash=True)
class BrokerNotification:
    """One per-component notification (paper §3: each subcomponent gets
    its predicted and target numbers plus a directive).

    Read-only by contract.  Not a frozen dataclass because a sweep under
    pressure builds one per clerk, and a frozen ``__init__`` costs more
    than twice as much; equality, hashing and ``repr`` are the same.
    """

    clerk: str
    signal: BrokerSignal
    current: int
    predicted: int
    target: int
    at: float


#: subscriber callback type
NotificationHandler = Callable[[BrokerNotification], None]

#: ``(offsets, terms, spread factor)`` of one window length's sample times
XTerms = Tuple[Tuple[float, ...], WindowTerms, float]


class MemoryBroker:
    """Central accounting and arbitration for all memory clerks."""

    #: clerk names the broker treats as shrinkable caches
    CACHE_CLERKS = ("buffer_pool", "plan_cache")
    #: the compilation clerk name
    COMPILE_CLERK = "compilation"

    def __init__(self, env: Environment, manager: MemoryManager,
                 config: BrokerConfig):
        self.env = env
        self.manager = manager
        self.config = config
        #: times of the last ``window`` sweeps, shared by every clerk:
        #: clerks are never unregistered, so each one is sampled at
        #: every sweep since it first appeared and its window's times
        #: are the tail of this one
        self._times: Deque[float] = deque(maxlen=config.window)
        #: per-clerk usage windows, aligned with the tail of ``_times``
        self._values: Dict[str, Deque[float]] = {}
        #: by window length: the sample offsets last fitted over, their
        #: x terms and their spread factor (see :meth:`_x_terms`)
        self._x_memo: Dict[int, XTerms] = {}
        #: by window length: the sweep whose sample times its memo was
        #: last checked against (times change only when a sweep starts)
        self._x_checked: Dict[int, int] = {}
        self._handlers: Dict[str, List[NotificationHandler]] = {}
        #: most recent notifications by clerk (observability)
        self.last_notifications: Dict[str, BrokerNotification] = {}
        #: True while the projected total exceeds the pressure limit
        self.under_pressure = False
        #: sweeps performed (diagnostics)
        self.sweeps = 0
        #: clerks with a value window whose last notification is not
        #: GROW, or who have none yet: at 0 the grow loop has nothing
        #: to send
        self._not_grow = 0
        #: the snapshot of the last sweep that was quiet with every
        #: window full, and the full window's x terms it was bounded
        #: with; None once a sweep is not (see :meth:`sweep`)
        self._quiet_usage: Optional[Dict[str, int]] = None
        self._quiet_x: Optional[XTerms] = None
        #: sweeps since then that saw the same snapshot: their samples
        #: are not in the value windows yet (see :meth:`_catch_up`)
        self._pending = 0

    # -- wiring ------------------------------------------------------------
    def subscribe(self, clerk_name: str,
                  handler: NotificationHandler) -> None:
        """Register a component to receive notifications for a clerk."""
        self._handlers.setdefault(clerk_name, []).append(handler)

    def unsubscribe_all(self) -> None:
        """Drop every notification handler (server teardown: handlers
        are bound methods of the components the broker serves)."""
        self._handlers.clear()

    # -- policy ------------------------------------------------------------
    @property
    def pressure_limit(self) -> int:
        """Usable physical memory: total minus the headroom reserve."""
        return int(self.manager.physical_memory
                   * (1.0 - self.config.headroom_fraction))

    def compile_target(self) -> int:
        """Compilation memory offered under pressure (bytes)."""
        return int(self.pressure_limit * self.config.compile_target_fraction)

    def pressure(self) -> bool:
        """Cheap query for "will we run out of memory soon?" — used by
        compilations to decide a best-plan-so-far early cutoff."""
        return self.under_pressure

    def advise_compile_grant(self, clerk, nbytes: int) -> bool:
        """Soft-grant advisory installed on the compilation clerk.

        While the projection fits, every grant passes — the system
        behaves as if the broker was not there.  Under projected
        pressure, a grant that would push total usage past the usable
        limit (i.e. an imminent hard OOM) is declined *before* any
        physical allocation or cache reclamation happens, which is the
        handshake that lets the pipeline take its best plan so far
        instead of pushing the machine into a real out-of-memory error.
        Steering compilation toward its target share stays the job of
        the dynamic gateway thresholds, not of grant denial.
        """
        if not self.config.enabled or not self.under_pressure:
            return True
        return nbytes <= self.manager.available + self.reclaimable_bytes()

    def reclaimable_bytes(self) -> int:
        """Cache memory the manager could still take back: the plan
        cache entirely, the buffer pool down to its floor — rounded to
        whole eviction chunks, because :meth:`BufferPool.shrink` stops
        before an eviction would cross the floor."""
        from repro.storage.pagemap import CHUNK_SIZE

        usage = self.manager.usage_by_clerk()
        floor = int(self.manager.physical_memory
                    * self.config.buffer_pool_floor_fraction)
        out = 0
        for name in self.CACHE_CLERKS:
            used = usage.get(name, 0)
            if name == "buffer_pool":
                used = max(0, used - floor) // CHUNK_SIZE * CHUNK_SIZE
            out += used
        return out

    # -- the periodic sweep ---------------------------------------------------
    def sweep(self, usage: Optional[Dict[str, int]] = None) -> bool:
        """One accounting pass: sample, predict, notify.  The server's
        tick calls it every ``interval`` seconds with the tick's usage
        snapshot (read from the manager when omitted; the broker keeps
        it, so it must not be changed afterwards), and passes the
        previous snapshot object again when usage has not changed.
        Returns True when a notification went out, whose handlers may
        have changed usage.

        A sweep is *quiet* when every clerk's last notification is
        GROW and the projection provably fits: the sum of each clerk's
        projection bound (see :meth:`_fits`) is within the limit.  The
        fits would find no pressure, and the grow loop nobody to tell,
        so a quiet sweep samples and returns without fitting.

        A quiet sweep with every window full is followed by quiet
        sweeps for as long as the same snapshot object comes back and
        the full window's sample offsets repeat.  Appending a value
        that is already the last in a window cannot widen the window's
        range, and the bound's factor depends only on the offsets.
        Such a sweep records its time and counts one pending repeat;
        the value windows catch up before they are next read.
        """
        self.sweeps += 1
        now = self.env.now
        if usage is None:
            usage = self.manager.usage_by_clerk()
        times = self._times
        times.append(now)
        if usage is self._quiet_usage and (
                self._x_terms(times.maxlen) is self._quiet_x):
            self._pending += 1
            return False
        self._sample(usage)
        self._quiet_usage = None
        limit = self.pressure_limit
        if not self._not_grow and self._fits(usage, limit):
            self.under_pressure = False
            return False
        predicted = self._predict(usage)
        total_predicted = sum(predicted.values())
        self.under_pressure = total_predicted > limit
        if not self.under_pressure:
            # no action: the system behaves as if the broker was absent,
            # but notify anyone previously told to shrink that it may grow
            if not self._not_grow:
                return False  # every clerk is at GROW already
            return self._notify_all_grow(usage, predicted, now)

        targets = self._compute_targets(usage, predicted, limit)
        for name, used in usage.items():
            expected = predicted[name]
            target = targets.get(name, expected)
            signal = self._signal_for(used, expected, target)
            self._dispatch(BrokerNotification(
                name, signal, used, expected, target, now))
        return bool(usage)

    def _catch_up(self) -> None:
        """Append the pending repeats of the last quiet snapshot to its
        clerks' windows.  A window holds ``window`` samples, so more
        copies than that change nothing further."""
        if not self._pending:
            return
        copies = min(self._pending, self._times.maxlen)
        self._pending = 0
        windows = self._values
        for name in self._quiet_usage:
            values = windows[name]
            values.extend(repeat(values[-1], copies))

    def _sample(self, usage: Dict[str, int]) -> None:
        """Add this sweep's samples (its time is already in ``_times``),
        opening a window for each clerk seen for the first time."""
        self._catch_up()
        window = self._times.maxlen
        windows = self._values
        for name, used in usage.items():
            values = windows.get(name)
            if values is None:
                values = windows[name] = deque(maxlen=window)
                self._not_grow += 1  # not notified yet
            values.append(float(used))

    def _fits(self, usage: Dict[str, int], limit: int) -> bool:
        """True when no projection can take the total past ``limit``.

        A flat window projects its own value exactly (see
        :meth:`_predict`).  Any other window with values in
        ``[lo, hi]`` projects at most ``hi + K * (hi - lo)``, where
        ``K`` is the :func:`spread_factor` of its length's x terms;
        :data:`BOUND_SLACK` covers the float rounding of both, and the
        bound is floored because a prediction is the truncated
        projection.  Every term is then a whole number below the
        limit, so the total is exact.  When every window is full, the
        snapshot is remembered for the repeat rule of :meth:`sweep`.
        """
        window = self._times.maxlen
        windows = self._values
        total = 0.0
        full = True
        for name in usage:
            values = windows[name]
            hi = max(values)
            lo = min(values)
            n = len(values)
            if hi != lo:
                factor = self._x_terms(n)[2]
                hi = (hi + factor * (hi - lo)) * BOUND_SLACK
                if hi > limit:
                    return False
                hi = float(int(hi))
            total += hi
            if n < window:
                full = False
        if total > limit:
            return False
        if full:
            self._quiet_usage = usage
            self._quiet_x = self._x_terms(window)
        return True

    def _predict(self, usage: Dict[str, int]) -> Dict[str, int]:
        """Project each clerk ``horizon`` seconds ahead from the
        least-squares line through its window (sampled already)."""
        horizon = self.config.horizon
        windows = self._values
        predicted: Dict[str, int] = {}
        for name in usage:
            values = windows[name]
            value = values[-1]
            n = len(values)
            if values.count(value) == n:
                # a flat window predicts its value without a fit, exactly:
                # usage is an integer byte count and window * usage <
                # 2**53, so every partial sum is exact, mean_y == value,
                # sxy == 0.0 and the fitted level is value itself
                predicted[name] = int(value)
                continue
            predicted[name] = int(project(self._x_terms(n)[1], values,
                                          horizon))
        return predicted

    def _x_terms(self, n: int) -> XTerms:
        """The offsets, x terms and spread factor of the last ``n``
        sweep times.  They depend only on each time's offset from the
        newest, and sweeps one interval apart repeat the same offsets,
        so the entry last computed for ``n`` is reused (the same
        object) while the offsets match."""
        memo = self._x_memo.get(n)
        if memo is not None and self._x_checked[n] == self.sweeps:
            return memo
        self._x_checked[n] = self.sweeps
        times = self._times
        t_last = times[-1]
        offsets = tuple([t - t_last for t in times])
        if n < len(offsets):
            offsets = offsets[-n:]
        if memo is None or memo[0] != offsets:
            terms = window_terms(offsets)
            memo = self._x_memo[n] = (
                offsets, terms, spread_factor(terms, self.config.horizon))
        return memo

    def _compute_targets(self, usage: Dict[str, int],
                         predicted: Dict[str, int],
                         limit: int) -> Dict[str, int]:
        """Split the usable memory between components under pressure.

        Non-cache, non-compilation consumers (execution grants, system
        overhead) cannot be forcibly shrunk, so they keep their
        prediction; compilation is capped at its configured share of
        the limit; the caches split whatever remains, with the buffer
        pool guaranteed its floor.
        """
        targets: Dict[str, int] = {}
        compile_cap = self.compile_target()
        fixed = 0
        for name, value in predicted.items():
            if name == self.COMPILE_CLERK:
                targets[name] = min(value, compile_cap)
            elif name not in self.CACHE_CLERKS:
                targets[name] = value
                fixed += value
        remaining = max(0, limit - fixed
                        - targets.get(self.COMPILE_CLERK, 0))
        floor = int(self.manager.physical_memory
                    * self.config.buffer_pool_floor_fraction)
        cache_usage = sum(usage.get(c, 0) for c in self.CACHE_CLERKS)
        for name in self.CACHE_CLERKS:
            if name not in usage:
                continue
            share = (usage[name] / cache_usage) if cache_usage else 0.5
            target = int(remaining * share)
            if name == "buffer_pool":
                target = max(target, floor)
            targets[name] = target
        return targets

    @staticmethod
    def _signal_for(current: int, predicted: int,
                    target: int) -> BrokerSignal:
        if target < current:
            return BrokerSignal.SHRINK
        if target < predicted:
            return BrokerSignal.STABLE
        return BrokerSignal.GROW

    def _notify_all_grow(self, usage: Dict[str, int],
                         predicted: Dict[str, int], now: float) -> bool:
        """Tell every clerk not already at GROW that it may grow; True
        if anyone was told."""
        sent = False
        for name, used in usage.items():
            previous = self.last_notifications.get(name)
            if previous is not None and previous.signal is BrokerSignal.GROW:
                continue  # already unconstrained; stay quiet
            self._dispatch(BrokerNotification(
                name, BrokerSignal.GROW, used, predicted[name],
                self.manager.physical_memory, now))
            sent = True
        return sent

    def _dispatch(self, note: BrokerNotification) -> None:
        grow = note.signal is BrokerSignal.GROW
        previous = self.last_notifications.get(note.clerk)
        if (previous is not None
                and previous.signal is BrokerSignal.GROW) is not grow:
            self._not_grow += -1 if grow else 1
        self.last_notifications[note.clerk] = note
        for handler in self._handlers.get(note.clerk, ()):
            handler(note)
