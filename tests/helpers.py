"""Shared builders for executor/journal tests.

Kept out of conftest so the helpers are explicit imports, and named
(not ``test_*``) so pytest never collects it.
"""

import json
import socket
import threading

from repro.experiments.executors import InlineExecutor
from repro.experiments.shards import canonical_document
from repro.scenarios import ConfigOverrides, ScenarioSpec, VariantSpec


def attach_socketpair(executor):
    """Attach a new worker connection to a stream executor; returns
    the worker's end of the socketpair."""
    coordinator_end, worker_end = socket.socketpair()
    executor.attach(coordinator_end)
    return worker_end


def attach_thread_worker(executor) -> threading.Thread:
    """Start a well-behaved worker thread on a stream executor; it
    runs until the executor drains it at ``close()``."""
    from repro.experiments.wire import run_worker

    thread = threading.Thread(target=run_worker,
                              args=(attach_socketpair(executor),),
                              daemon=True)
    thread.start()
    return thread


class DiesAfter(InlineExecutor):
    """An executor that simulates coordinator death after N results."""

    def __init__(self, cells: int):
        super().__init__()
        self.cells = cells

    def submit(self, tasks, progress=None):
        for number, result in enumerate(
                super().submit(tasks, progress=progress), start=1):
            if number > self.cells:
                raise RuntimeError("simulated coordinator death")
            yield result


class CountingExecutor(InlineExecutor):
    """Counts how many cells it actually executed."""

    def __init__(self):
        super().__init__()
        self.executed = []

    def submit(self, tasks, progress=None):
        def counting():
            for task in tasks:
                self.executed.append(task.cell)
                yield task

        return super().submit(counting(), progress=progress)


def monitors_spec(scenario_id) -> ScenarioSpec:
    """A render-only scenario: one near-instant cell."""
    return ScenarioSpec(scenario_id=scenario_id, title="Monitors",
                        family="test", kind="monitors", workload="sales",
                        clients=1, render="monitors")


def experiment_spec(scenario_id, clients=2, **overrides) -> ScenarioSpec:
    """A tiny two-variant experiment scenario (smoke preset)."""
    defaults = dict(
        scenario_id=scenario_id,
        title="Tiny test scenario",
        family="test",
        workload="oltp",
        clients=clients,
        preset="smoke",
        seed=1,
        think_time=5.0,
        variants=(
            VariantSpec("throttled", ConfigOverrides(throttling=True)),
            VariantSpec("unthrottled", ConfigOverrides(throttling=False)),
        ),
    )
    defaults.update(overrides)
    return ScenarioSpec(**defaults)


def canonical_text(path) -> str:
    """One artifact's canonical form as a comparable string."""
    with open(path, encoding="utf-8") as fh:
        return json.dumps(canonical_document(json.load(fh)))


def shrunk_spec(spec: ScenarioSpec, clients: int = 2,
                max_sessions: int = 16) -> ScenarioSpec:
    """A test-sized copy of a registered scenario.

    Client counts are clamped the way the catalogue sweep always has;
    traffic-bearing scenarios additionally get their population capped
    (the ``scale`` family registers 10^4-10^5-session runs, which only
    the scale smoke CI lane executes at full size).  Arrival-rate
    params scale down with the population so the shrunken run keeps
    the original's contention shape.
    """
    from dataclasses import replace

    spec = spec.customized(preset="smoke", clients=clients) \
        if spec.kind == "experiment" else spec
    traffic = spec.traffic
    if traffic is None or traffic.max_sessions is None \
            or traffic.max_sessions <= max_sessions:
        return spec
    shrink = max_sessions / traffic.max_sessions
    params = dict(traffic.params)
    if "rate" in params:
        params["rate"] = params["rate"] * shrink
    return replace(spec, traffic=replace(
        traffic,
        params=params,
        max_sessions=max_sessions,
        queue_limit=min(traffic.queue_limit, 4 * max_sessions)))
