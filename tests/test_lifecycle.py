"""Cell lifecycle: a run has an owner and an end.

``DatabaseServer.close()`` (which ``run_experiment`` calls before it
returns) closes the environment, so every in-flight query unwinds
through its ``finally`` blocks.  That makes two things checkable from
the outside:

* **conservation** — everything acquired is released: after a
  throttled, an un-throttled and an open-loop run the clerks, accounts,
  monitors, grant queue, CPUs, disk channels and admission slots all
  read zero, whatever the deadline interrupted;
* **no leak** — the finished cell is freed by reference counting alone:
  weak references to its server, environment, memos, optimization
  tasks, shape traces, statement skeletons, bound queries and
  predicate expressions are dead the moment ``run_experiment``
  returns, with the cyclic collector switched off, and a collection
  afterwards finds next to nothing.  No module-level cache may hold
  an expression past ``close()``.

The kernel half (``Environment.close`` on both scheduler cores) is
tested directly on toy processes.
"""

import gc
import re
import weakref
from dataclasses import dataclass, field, replace

import pytest

from tests.conftest import STAR_QUERY
from helpers import shrunk_spec

from repro.config import paper_server_config
from repro.errors import (
    CompileOutOfMemoryError,
    OutOfMemoryError,
    SimulationError,
)
from repro.experiments.runner import run_experiment
from repro.memory.account import MemoryAccount
from repro.compilation.skeleton import SkeletonCache
from repro.optimizer.enumeration import ShapeTrace
from repro.optimizer.memo import Memo
from repro.optimizer.optimizer import OptimizationTask
from repro.plans import expressions as ex
from repro.scenarios import get_scenario
from repro.scenarios.facade import jobs_for_scenario
from repro.server.server import DatabaseServer
from repro.sim import Environment, Resource
from repro.sql.binder import BoundQuery
from repro.traffic import openloop

RUN_KINDS = ("throttled", "unthrottled", "open_loop")


# ------------------------------------------------------ the kernel half
def test_close_unwinds_live_processes_in_creation_order(env):
    unwound = []

    def waiter(index):
        try:
            yield env.timeout(100.0 + index)
        finally:
            unwound.append(index)

    def finisher():
        yield env.timeout(1.0)

    # enough processes that a hash-ordered registry would scramble them
    for index in range(64):
        env.process(waiter(index))
        env.process(finisher())
    env.run(until=10.0)
    env.close()
    assert unwound == list(range(64))


def test_close_drops_the_schedule_and_is_idempotent(env):
    fired = []

    def sleeper():
        yield env.timeout(5.0)
        fired.append(env.now)

    env.process(sleeper())
    env.timeout(2000.0)          # far future: the wheel's overflow heap
    env.run(until=1.0)
    assert env.peek() == 5.0
    env.close()
    assert env.peek() == float("inf")
    env.close()
    env.run(until=10.0)
    assert fired == [] and env.now == 10.0
    # what is left is an empty, usable environment
    env.process(sleeper())
    env.run()
    assert fired == [15.0]


def test_closed_waiter_gives_its_claim_back(env):
    cpu = Resource(env, capacity=1)

    def user():
        req = cpu.request()
        try:
            yield req
            yield env.timeout(50.0)
        finally:
            cpu.release(req)

    env.process(user())
    env.process(user())
    env.run(until=1.0)
    assert (cpu.count, cpu.queued) == (1, 1)
    env.close()
    # the holder's release admitted the waiter while the run was being
    # torn down; the waiter's own unwinding handed the slot back
    assert (cpu.count, cpu.queued) == (0, 0)


def test_process_yielding_while_closed_is_an_error_not_swallowed(env):
    unwound = []

    def stubborn():
        try:
            yield env.timeout(10.0)
        finally:
            yield env.timeout(1.0)

    def polite():
        try:
            yield env.timeout(10.0)
        finally:
            unwound.append("polite")

    env.process(stubborn())
    env.process(polite())
    env.run(until=1.0)
    with pytest.raises(SimulationError, match="yielded while being closed"):
        env.close()
    # the others were still unwound, and nothing stays scheduled
    assert unwound == ["polite"]
    assert env.peek() == float("inf")


def test_failed_process_does_not_pin_itself(env):
    """A failure nobody keeps is freed with its process: the kernel's
    own frame is not part of the stored traceback."""

    class Local:
        pass

    locals_seen = []

    def failing():
        local = Local()
        locals_seen.append(weakref.ref(local))
        yield env.timeout(1.0)
        raise ValueError("boom")

    def parent():
        try:
            yield env.process(failing())
        except ValueError as exc:
            # the model's frame is still there for a debugger
            frames = []
            tb = exc.__traceback__
            while tb is not None:
                frames.append(tb.tb_frame.f_code.co_name)
                tb = tb.tb_next
            return frames

    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        process = env.process(parent())
        env.run()
        assert "failing" in process.value
        assert "_resume" not in process.value
        assert locals_seen[0]() is None
    finally:
        if enabled:
            gc.enable()


# ------------------------------------------------- one watched run each
def run_config(kind: str):
    """The engine config of a small run of ``kind``."""
    if kind == "open_loop":
        spec = shrunk_spec(get_scenario("scale-flood"), max_sessions=4)
        # offered far beyond four slots: the deadline finds admitted
        # sessions mid-query and waiters queued behind them
        spec = replace(spec, traffic=replace(spec.traffic,
                                             params={"rate": 0.04}))
        variant = "flood"
    else:
        # 12 clients is the smallest population whose un-throttled run
        # fails compiles for lack of memory (the _charge path)
        spec = shrunk_spec(get_scenario("fig3"), clients=12)
        variant = kind
    return next(job.config for job in jobs_for_scenario(spec)
                if job.name == variant)


def holdings(server: DatabaseServer, policies) -> dict:
    """Everything a run can hold, by name."""
    governor, semaphore = server.governor, server.grant_semaphore
    held = {
        "compilation clerk bytes": server.compile_clerk.used,
        "workspace clerk bytes": semaphore.clerk.used,
        "granted workspace bytes": semaphore.outstanding_bytes,
        "queued grants": semaphore.queued,
        "cpus busy": server.scheduler._cpus.count,
        "cpu waiters": server.scheduler.runnable,
        "disk channels busy": server.disk._channels.count,
        "disk waiters": server.disk.queue_depth,
        "live accounts": len(server.pipeline.live_accounts),
        "live processes": len(server.env._processes),
        "scheduled events": 0 if server.env.peek() == float("inf") else 1,
    }
    for gateway in governor.gateways:
        held[f"{gateway.name} monitor holders"] = gateway.active
        held[f"{gateway.name} monitor waiters"] = gateway.waiting
    for policy in policies:
        held["admission slots in use"] = policy.count
        held["admission waiters"] = policy.queued
    return held


@dataclass
class WatchedRun:
    """What one ``run_experiment`` call looked like from outside."""

    kind: str
    result: object = None
    #: holdings() at the deadline, after close(), after a second close()
    before: dict = None
    after: dict = None
    after_again: dict = None
    #: bytes still charged to any MemoryAccount of the run after close()
    account_bytes: int = -1
    accounts: int = 0
    #: pipeline._suspended vs a scan of the search cache, at the deadline
    suspended_tracked: list = None
    suspended_scanned: list = None
    #: class name -> objects created / still alive after the call,
    #: collector off
    created: dict = field(default_factory=dict)
    alive: dict = field(default_factory=dict)
    #: what a full collection found afterwards
    unreachable: int = -1


def watch(monkeypatch, cls, sink) -> None:
    """Weakly record every instance of ``cls`` created from now on."""
    original = cls.__init__

    def recording_init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        sink.append(weakref.ref(self))

    monkeypatch.setattr(cls, "__init__", recording_init)


@pytest.fixture(scope="module",
                params=RUN_KINDS,
                # the heap core every run uses; the suffix keeps the
                # ids from when a run could choose a second core
                ids=lambda kind: f"{kind}-legacy")
def watched(request) -> WatchedRun:
    """Run one cell through ``run_experiment`` with the collector off,
    spying on its teardown without keeping anything of it alive."""
    kind = request.param
    run = WatchedRun(kind=kind)
    policies, accounts = [], []
    # expression nodes stand for everything a front-end or optimizer
    # memo could pin: none may outlive the server that bound them
    tracked = {cls: [] for cls in (DatabaseServer, Environment, Memo,
                                   OptimizationTask, ShapeTrace,
                                   SkeletonCache, BoundQuery,
                                   ex.Comparison, ex.And)}

    with pytest.MonkeyPatch.context() as monkeypatch:
        for cls, sink in tracked.items():
            watch(monkeypatch, cls, sink)

        account_init = MemoryAccount.__init__

        def counting_init(self, *args, **kwargs):
            account_init(self, *args, **kwargs)
            accounts.append(self)

        monkeypatch.setattr(MemoryAccount, "__init__", counting_init)

        make_policy = openloop.make_policy

        def recording_make_policy(*args, **kwargs):
            policy = make_policy(*args, **kwargs)
            policies.append(policy)
            return policy

        monkeypatch.setattr(openloop, "make_policy", recording_make_policy)

        close = DatabaseServer.close

        def watched_close(server):
            pipeline = server.pipeline
            run.suspended_tracked = list(pipeline._suspended)
            run.suspended_scanned = [
                text for text, rec in pipeline._search_cache.items()
                if rec._iter is not None]
            run.before = holdings(server, policies)
            close(server)
            run.after = holdings(server, policies)
            run.accounts = len(accounts)
            run.account_bytes = sum(account.used for account in accounts)
            assert all(account.closed for account in accounts)
            close(server)
            run.after_again = holdings(server, policies)
            del accounts[:], policies[:]

        monkeypatch.setattr(DatabaseServer, "close", watched_close)

        gc.collect()
        enabled = gc.isenabled()
        gc.disable()
        try:
            run.result = run_experiment(run_config(kind))
            for cls, refs in tracked.items():
                run.created[cls.__name__] = len(refs)
                run.alive[cls.__name__] = sum(
                    ref() is not None for ref in refs)
            run.unreachable = gc.collect()
        finally:
            if enabled:
                gc.enable()
    return run


def test_everything_acquired_is_released(watched):
    # the deadline really did interrupt work in flight
    before = watched.before
    assert before["live processes"] > 0
    assert before["compilation clerk bytes"] > 0
    assert before["live accounts"] > 0
    assert before["cpus busy"] > 0
    if watched.kind != "unthrottled":
        assert before["big monitor holders"] > 0
        assert before["big monitor waiters"] > 0
    if watched.kind == "open_loop":
        assert before["admission slots in use"] > 0
        assert before["admission waiters"] > 0

    still_held = {name: value for name, value in watched.after.items()
                  if value}
    assert still_held == {}
    assert watched.accounts > 0 and watched.account_bytes == 0
    assert watched.after_again == watched.after


def test_finished_run_is_freed_by_reference_counting(watched):
    assert watched.result.completed > 0
    if watched.kind == "unthrottled":
        assert watched.result.error_counts.get("compile_oom", 0) > 0
    for name, count in watched.created.items():
        assert count > 0, f"no {name} was created"
    assert watched.alive == {name: 0 for name in watched.created}
    assert watched.unreachable < 20_000


def test_suspended_recordings_are_tracked_exactly(watched):
    assert watched.suspended_tracked == watched.suspended_scanned
    if watched.kind == "unthrottled":
        assert watched.suspended_tracked


# -------------------------------------------- the failed-compile memo
def test_failed_compile_leaves_its_task_to_reference_counting(
        star_catalog, monkeypatch):
    """``_charge`` chains the clerk's OutOfMemoryError; neither end of
    that chain may keep the frames (and so the task) alive."""
    tasks = []
    watch(monkeypatch, OptimizationTask, tasks)
    seen = {}

    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        with DatabaseServer(paper_server_config(throttling=False),
                            star_catalog) as server:
            # no memory left for the optimizer's first allocation, and
            # no best-plan fallback on an un-throttled server
            server.memory.clerk("hog").allocate(server.memory.available)

            def client():
                try:
                    yield from server.pipeline.compile(STAR_QUERY, "q")
                except CompileOutOfMemoryError as exc:
                    seen["message"] = str(exc)
                    seen["cause"] = exc.__cause__

            server.env.process(client())
            server.env.run()
            assert server.pipeline.oom_failures == 1
            assert server.compile_clerk.last_oom is seen["cause"]
            # the suspended recording of the failed search still owns
            # the task, until the server lets go of its search cache
            assert len(tasks) == 1 and tasks[0]() is not None
        assert tasks[0]() is None
    finally:
        if enabled:
            gc.enable()

    cause = seen["cause"]
    assert isinstance(cause, OutOfMemoryError)
    assert cause.clerk_name == "compilation" and cause.available == 0
    assert cause.__traceback__ is None
    match = re.fullmatch(
        r"optimizer allocation of (\d+) bytes failed with no fallback "
        r"plan after 0 waits: (.*)", seen["message"])
    assert match is not None, seen["message"]
    assert int(match.group(1)) == cause.requested
    assert match.group(2) == str(cause) == (
        f"out of memory: clerk 'compilation' requested {cause.requested} "
        f"bytes, only 0 available")
