"""Isolated probes: one layer at a time, on inputs drawn from the
workload generators at the run's seed.

In a whole run some layers' self time is a residual (the event kernel
is whatever ``Environment.run`` spends outside every other seam), and a
front-end function called a few hundred times is timed to a few
milliseconds.  A probe calls the layer's public function in a loop on
its own and reports a rate, so a change to that layer has a number that
nothing else in the run can blur.  Probes run once per traced pass,
before the tracer is installed and while the heap is still small, with
the cyclic collector paused (as ``run_experiment`` pauses it), and
report the median of a few repeats.
"""

from __future__ import annotations

import gc
import os
import random
import statistics
from time import perf_counter
from typing import Callable, Dict, List

#: statements per front-end probe, queries per optimizer probe
FRONT_END_STATEMENTS = 200
OPTIMIZER_QUERIES = {"sales": 8, "oltp": 150}
#: timer firings measured per kernel probe
TIMER_FIRINGS = 100_000
JOURNAL_APPENDS = 2000
REPEATS = 3


def _rate(work: float, fn: Callable[[], None]) -> float:
    """Median rate of ``work`` units per call of ``fn`` over the repeats."""
    rates = []
    for _ in range(REPEATS):
        started = perf_counter()
        fn()
        rates.append(work / (perf_counter() - started))
    return statistics.median(rates)


def _texts(workload, seed: int, count: int) -> List[str]:
    rng = random.Random(f"{seed}/probe")
    return [workload.generate(rng).text for _ in range(count)]


def front_end(seed: int) -> Dict[str, float]:
    """Lexer, parser and binder rates on ad-hoc SALES statements."""
    from repro.sql.binder import Binder
    from repro.sql.lexer import tokenize
    from repro.sql.parser import parse
    from repro.workload.sales import SalesWorkload

    workload = SalesWorkload()
    texts = _texts(workload, seed, FRONT_END_STATEMENTS)
    binder = Binder(workload.build_catalog())
    tokens = sum(len(tokenize(text)) for text in texts)
    statements = [parse(text) for text in texts]
    return {
        "sql.probe_tokens_per_s": _rate(
            tokens, lambda: [tokenize(text) for text in texts]),
        "sql.probe_parse_stmts_per_s": _rate(
            len(texts), lambda: [parse(text) for text in texts]),
        "sql.probe_bind_stmts_per_s": _rate(
            len(statements),
            lambda: [binder.bind(stmt) for stmt in statements]),
    }


def optimizer(seed: int) -> Dict[str, float]:
    """``Optimizer.optimize`` rates at the smoke preset's effort."""
    from repro.experiments.runner import ExperimentConfig, make_workload
    from repro.optimizer.optimizer import Optimizer
    from repro.sql.binder import Binder
    from repro.sql.parser import parse

    config = ExperimentConfig(preset="smoke").build_server_config()
    out = {}
    for name, count in OPTIMIZER_QUERIES.items():
        workload = make_workload(name)
        catalog = workload.build_catalog()
        binder = Binder(catalog)
        bound = [binder.bind(parse(text))
                 for text in _texts(workload, seed, count)]
        engine = Optimizer(
            catalog, effort_multiplier=config.optimizer_effort,
            memory_multiplier=config.optimizer_memory_multiplier)
        out[f"optimizer.probe_{name}_queries_per_s"] = _rate(
            count, lambda: [engine.optimize(query) for query in bound])
    return out


def timers(seed: int) -> Dict[str, float]:
    """Timer events per second with 10^4 and 10^5 timers pending.

    Bare callbacks on the default kernel: no server, no processes.
    Every firing schedules its successor, so the pending count stays
    fixed for the whole run.
    """
    from repro.sim.environment import Environment

    out = {}
    for label, pending in (("1e4", 10_000), ("1e5", 100_000)):
        rng = random.Random(f"{seed}/timers/{pending}")
        delays = [rng.uniform(0.0, 1000.0) for _ in range(4096)]
        env = Environment()
        fired = [0]

        def rearm(_event, env=env, delays=delays, fired=fired):
            fired[0] += 1
            env.timeout(delays[fired[0] & 4095]).add_callback(rearm)

        for index in range(pending):
            env.timeout(delays[index & 4095]).add_callback(rearm)
        # mean delay 500 s, so `pending / 500` timers fire per sim second
        window = TIMER_FIRINGS / (pending / 500.0)
        rates = []
        for _ in range(REPEATS):
            before = fired[0]
            started = perf_counter()
            env.run(until=env.now + window)
            rates.append((fired[0] - before) / (perf_counter() - started))
        out[f"sim.probe_timer_events_per_s_{label}"] = \
            statistics.median(rates)
    return out


def journal(seed: int, work_dir: str) -> Dict[str, float]:
    """``CellJournal.append`` rate on result-sized records."""
    from repro.experiments.journal import CellJournal
    from repro.workload.oltp import OltpWorkload

    texts = _texts(OltpWorkload(), seed, 8)
    record = {"op": "result", "result": {
        "cell": ["probe", "run", seed], "wall_seconds": 0.25,
        "summary": {"texts": texts, "throughput": [[600.0 * i, i]
                                                   for i in range(30)]}}}
    path = os.path.join(work_dir, "probe.journal")
    log = CellJournal(path)
    try:
        rate = _rate(JOURNAL_APPENDS, lambda: [
            log.append(record) for _ in range(JOURNAL_APPENDS)])
    finally:
        log.close()
        os.remove(path)
    return {"experiments.probe_journal_appends_per_s": rate}


def run_all(seed: int, work_dir: str) -> Dict[str, float]:
    out: Dict[str, float] = {}
    gc.collect()
    gc.disable()
    try:
        out.update(front_end(seed))
        out.update(optimizer(seed))
        out.update(timers(seed))
        out.update(journal(seed, work_dir))
    finally:
        gc.enable()
        gc.collect()
    return out
