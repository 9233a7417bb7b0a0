"""parse → bind → optimize as a throttled simulation process."""

from __future__ import annotations

from collections import OrderedDict
from typing import List

from repro.compilation.compiled import CompiledPlan
from repro.compilation.skeleton import SkeletonCache, mask
from repro.errors import CompileOutOfMemoryError
from repro.memory.account import MemoryAccount
from repro.memory.clerk import GrantOutcome, MemoryClerk
from repro.optimizer.optimizer import Optimizer
from repro.sim import Environment
from repro.server.scheduler import CpuScheduler
from repro.sql.binder import Binder
from repro.sql.parser import parse
from repro.throttle.governor import CompilationGovernor, ThrottleTicket

#: CPU seconds for parsing (fixed) and binding (per referenced table)
PARSE_CPU = 0.15
BIND_CPU_PER_TABLE = 0.05


class _SearchRecording:
    """The deterministic step trace of one optimizer search.

    The optimizer search for a given query text is a pure function of
    the catalog and optimizer configuration — only the *interleaving*
    of its memory/CPU charges with the rest of the server varies
    between compiles.  Recording the step sequence once lets retries of
    the same text replay it with identical simulated charges and none
    of the Python search cost.

    A compile that stops early (OOM abort, gateway timeout, best-plan
    cutoff) leaves a *partial* trace plus the suspended search; replays
    step through the recorded prefix by index and only advance the
    suspended search — pure Python, no simulation charges — when a
    consumer actually gets past what was recorded.  A retry that dies
    at the same point as the original never computes the tail at all.
    """

    __slots__ = ("table_count", "steps", "bests", "result",
                 "_task", "_iter", "_record_bests")

    def __init__(self, table_count: int, record_bests: bool):
        self.table_count = table_count
        self.steps: List = []
        #: best-plan-so-far snapshot *after* each step (extension (b))
        self.bests: List = []
        self.result = None
        self._task = None
        self._iter = None
        self._record_bests = record_bests

    def live_append(self, step, task) -> None:
        self.steps.append(step)
        self.bests.append(
            task.best_plan_so_far() if self._record_bests else None)

    def suspend(self, task, steps_iter) -> None:
        """Keep the in-flight search for on-demand continuation.

        A search that already ran to exhaustion is finalized right away
        so the cache does not pin its task.
        """
        if task.result is not None:
            self.result = task.result
            return
        self._task = task
        self._iter = steps_iter

    def usable(self) -> bool:
        return self.result is not None or self._iter is not None

    def advance(self) -> bool:
        """Record one more step of the suspended search; False at end."""
        it = self._iter
        if it is None:
            return False
        try:
            step = next(it)
        except StopIteration:
            self.result = self._task.result
            self._task = None
            self._iter = None
            return False
        except BaseException:
            # a search that crashed has no tail: forget it, and let the
            # error surface as it would have on the first sighting
            self._task = None
            self._iter = None
            raise
        self.live_append(step, self._task)
        return True


class _ReplayTask:
    """Duck-type of :class:`OptimizationTask` driven by a recording.

    Several consumers may stream the same recording concurrently; each
    keeps its own index, and whoever outruns the recorded prefix pulls
    the suspended search forward for everyone.
    """

    __slots__ = ("_rec", "_idx", "result")

    def __init__(self, recording: _SearchRecording):
        self._rec = recording
        self._idx = 0
        self.result = None

    def steps(self):
        rec = self._rec
        steps = rec.steps
        i = 0
        while True:
            if i >= len(steps) and not rec.advance():
                break
            step = steps[i]
            i += 1
            self._idx = i
            yield step
        self.result = rec.result

    def has_best_plan(self) -> bool:
        idx = self._idx
        return bool(idx) and self._rec.bests[idx - 1] is not None

    def best_plan_so_far(self):
        idx = self._idx
        return self._rec.bests[idx - 1] if idx else None


class CompilationPipeline:
    """Compiles query text into :class:`CompiledPlan` under throttling."""

    #: wait between retries of an *essential* allocation (one that has
    #: no fallback plan yet), in paper seconds
    OOM_RETRY_DELAY = 5.0
    #: retries before an essential allocation gives up; the combined
    #: wait budget is comparable to the small-monitor timeout, so a
    #: stalled stage-0 compilation fails no later than a throttled one
    OOM_RETRY_LIMIT = 60
    #: recorded searches kept per server (LRU); retried/evicted query
    #: texts replay their search instead of re-running it
    SEARCH_CACHE_SIZE = 512
    #: tighter bound on *suspended* recordings — each pins a live task,
    #: and through it its shape's memo and exploration frontier, in real
    #: memory until its tail is needed
    SUSPENDED_CACHE_SIZE = 128

    def __init__(self, env: Environment, scheduler: CpuScheduler,
                 governor: CompilationGovernor, optimizer: Optimizer,
                 binder: Binder, clerk: MemoryClerk,
                 broker=None, best_plan_so_far: bool = True,
                 time_scale: float = 1.0):
        self.env = env
        self.scheduler = scheduler
        self.governor = governor
        self.optimizer = optimizer
        self.binder = binder
        self.clerk = clerk
        self.broker = broker
        self.best_plan_so_far = best_plan_so_far
        self._time_scale = time_scale
        #: compilations currently in flight (used for fair-share cutoffs)
        self.active = 0
        #: label -> MemoryAccount of in-flight compilations (tracing:
        #: the Figure 2 reproduction samples these)
        self.live_accounts: dict = {}
        #: lifetime counters (metrics)
        self.compilations = 0
        self.degraded_plans = 0
        self.oom_failures = 0
        #: broker soft denials that triggered a degraded plan
        self.soft_denials = 0
        #: waits spent retrying essential allocations under OOM
        self.oom_waits = 0
        #: query text -> recorded search trace (LRU)
        self._search_cache: "OrderedDict[str, _SearchRecording]" = \
            OrderedDict()
        #: the suspended recordings among them, in cache order: exactly
        #: the entries whose search still has a tail to run (see
        #: _evict_suspended)
        self._suspended: "OrderedDict[str, _SearchRecording]" = \
            OrderedDict()
        #: texts compiled once already; a second compile of the same
        #: text (a retry, or a plan-cache eviction) starts recording —
        #: first-time compiles pay zero recording overhead
        self._search_seen: set = set()
        #: compiles served by replaying a recorded search
        self.search_replays = 0
        #: bound trees by statement shape: every other compile parses
        #: and binds only if its text's shape is new
        self.skeletons = SkeletonCache()

    def compile(self, text: str, label: str = ""):
        """Process generator: compile ``text``; returns CompiledPlan.

        Raises :class:`~repro.errors.GatewayTimeoutError` on monitor
        timeout and :class:`~repro.errors.CompileOutOfMemoryError` when
        memory runs out with no fallback plan available.
        """
        started = self.env.now
        account = MemoryAccount(self.clerk, label)
        ticket = ThrottleTicket(label)
        gateway_wait = 0.0
        self.active += 1
        self.live_accounts[label or id(account)] = account
        try:
            recording = None
            cached = self._search_cache.get(text)
            if cached is not None and not cached.usable():
                del self._search_cache[text]
                cached = None
            if cached is not None:
                self._search_cache.move_to_end(text)
                if text in self._suspended:
                    self._suspended.move_to_end(text)
                self.search_replays += 1
                table_count = cached.table_count
                task = _ReplayTask(cached)
            else:
                bound = self.front_end(text)
                table_count = bound.table_count
                task = self.optimizer.task(bound)
                # best-plan servers rarely fail a compile, so recording
                # only starts on a text's second sighting (a retry or a
                # plan-cache eviction); hard-OOM servers fail and retry
                # constantly and record cheaply (no best snapshots), so
                # they record every search up front
                if not self.best_plan_so_far or text in self._search_seen:
                    recording = _SearchRecording(
                        table_count, record_bests=self.best_plan_so_far)
                else:
                    if len(self._search_seen) > 100_000:
                        self._search_seen.clear()
                    self._search_seen.add(text)
            yield from self.scheduler.consume(
                PARSE_CPU + BIND_CPU_PER_TABLE * table_count)

            result = None
            degraded = False
            steps_iter = task.steps()
            try:
                for step in steps_iter:
                    if recording is not None:
                        recording.live_append(step, task)
                    if step.alloc_bytes:
                        result = yield from self._charge(
                            account, task, step.alloc_bytes)
                        if result is not None:
                            degraded = True
                            break
                    yield from self.scheduler.consume(step.cpu_seconds)
                    # broker-predicted OOM is checked *before* queueing at
                    # the next monitor: an outsized compilation under
                    # pressure takes its best plan so far instead of
                    # camping on a monitor slot while waiting to grow
                    if self._should_cut_short(task, account):
                        result = self._fallback(task)
                        if result is not None:
                            degraded = True
                            break
                    before_wait = self.env.now
                    yield from self.governor.ensure(ticket, account.used)
                    gateway_wait += self.env.now - before_wait
            finally:
                if recording is not None:
                    recording.suspend(task, steps_iter)
                    self._remember(text, recording)
                elif cached is not None and cached._iter is None \
                        and self._suspended.get(text) is cached:
                    # this replay ran the suspended tail to its end
                    # (no yield since, so the tracking never lags)
                    del self._suspended[text]
            if result is None:
                result = task.result
            if result is None:  # pragma: no cover - steps always yield one
                raise CompileOutOfMemoryError("optimization produced no plan")
            self.compilations += 1
            if degraded:
                self.degraded_plans += 1
            return CompiledPlan(
                plan=result.plan,
                estimated_cost=result.cost,
                peak_memory=account.peak,
                work_units=result.work_units,
                degraded=degraded,
                compile_time=self.env.now - started,
                gateway_wait=gateway_wait,
            )
        finally:
            self.active -= 1
            self.live_accounts.pop(label or id(account), None)
            self.governor.release(ticket)
            account.close()

    def front_end(self, text: str):
        """Query text to :class:`~repro.sql.binder.BoundQuery`: filled
        into its shape's skeleton, or — the first text of a shape, and
        any text the front end must reject — parsed and bound."""
        shape, literals = mask(text)
        bound = self.skeletons.bind(shape, literals)
        if bound is None:
            stmt = parse(text)
            bound = self.binder.bind(stmt)
            self.skeletons.learn(shape, bound)
        return bound

    # -- search replay housekeeping ----------------------------------------
    def _remember(self, text: str, recording: _SearchRecording) -> None:
        """Cache a finished compile's recording (LRU, both bounds)."""
        replaced = text in self._search_cache
        self._search_cache[text] = recording
        self._trim_search_cache()
        if recording._iter is None:
            self._suspended.pop(text, None)
            return
        if replaced and text not in self._suspended:
            # a concurrent compile of the same text cached a completed
            # recording first and this one took over its slot mid-cache:
            # the one case where appending would break the cache order
            self._suspended = OrderedDict(
                (t, rec) for t, rec in self._search_cache.items()
                if rec._iter is not None)
        else:
            self._suspended[text] = recording
        self._evict_suspended()

    def _trim_search_cache(self) -> None:
        while len(self._search_cache) > self.SEARCH_CACHE_SIZE:
            text, _ = self._search_cache.popitem(last=False)
            self._suspended.pop(text, None)

    def _evict_suspended(self) -> None:
        """Drop the oldest suspended recordings beyond the bound.

        Suspended recordings hold a live task each, and with it its
        shape's memo (real interpreter memory, invisible to the
        simulated accounting), so they get a tighter cap than completed
        traces.
        """
        while len(self._suspended) > self.SUSPENDED_CACHE_SIZE:
            text, _ = self._suspended.popitem(last=False)
            del self._search_cache[text]

    def close(self) -> None:
        """Forget every recorded search and statement skeleton of this
        server.

        Suspended recordings pin a live task each; no recording
        outlives its server.  ``live_accounts`` needs no clearing:
        every compile removes its own entry as it unwinds.
        """
        self._search_cache.clear()
        self._suspended.clear()
        self.skeletons.clear()

    # -- extension (b): best-plan-so-far cutoffs ---------------------------
    def _charge(self, account: MemoryAccount, task, nbytes: int):
        """Process generator: secure ``nbytes`` for an optimizer step.

        Returns ``None`` once the bytes are granted, or a degraded
        fallback :class:`OptimizationResult` when the grant was denied
        (by the broker's soft-grant advisory or by physical OOM) and a
        best plan so far exists.  A denial with no fallback plan yet is
        an *essential* allocation: the task waits for memory to be
        freed and retries, raising CompileOutOfMemoryError only when
        its wait budget runs out — or immediately when the
        best-plan-so-far extension is disabled (the paper's baseline).
        """
        waits = 0
        while True:
            # only consult the broker when a denial has somewhere to
            # land; essential allocations go straight to physical memory
            can_fall_back = self.best_plan_so_far and task.has_best_plan()
            outcome = account.request(nbytes, soft=can_fall_back)
            if outcome is GrantOutcome.GRANTED:
                return None
            if can_fall_back:
                if outcome is GrantOutcome.DENIED_SOFT:
                    self.soft_denials += 1
                return task.best_plan_so_far()
            if not self.best_plan_so_far or waits >= self.OOM_RETRY_LIMIT:
                self.oom_failures += 1
                cause = self.clerk.last_oom
                raise CompileOutOfMemoryError(
                    f"optimizer allocation of {nbytes} bytes failed with "
                    f"no fallback plan after {waits} waits: {cause}"
                ) from cause
            waits += 1
            self.oom_waits += 1
            yield self.env.timeout(self.OOM_RETRY_DELAY / self._time_scale)

    def _fallback(self, task):
        if not self.best_plan_so_far:
            return None
        return task.best_plan_so_far()

    def _should_cut_short(self, task, account: MemoryAccount) -> bool:
        """Broker-predicted OOM: stop exploring and take the best plan.

        Fires when the broker projects memory exhaustion and this task
        already uses more than twice its fair share of the compilation
        target — the paper's "the system will likely run out of memory
        before compilation completes."
        """
        if not self.best_plan_so_far or self.broker is None:
            return False
        if not self.broker.pressure():
            return False
        fair_share = self.broker.compile_target() / max(1, self.active)
        # only outsized compilations are cut short: beyond three times
        # their fair share and well past the big-monitor threshold
        cutoff = max(3.0 * fair_share,
                     1.25 * float(self.governor.static_thresholds[-1]))
        return account.used > cutoff
