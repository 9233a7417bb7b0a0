"""Reproduction of each figure in the paper.

* Figure 1 — the memory-monitor ladder (configuration rendering).
* Figure 2 — a three-query compilation-throttling trace with blocking
  plateaus.
* Figures 3/4/5 — throttled vs un-throttled throughput at 30/35/40
  clients.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.config import paper_server_config
from repro.experiments.runner import ExperimentResult
from repro.metrics.report import ascii_chart, render_table
from repro.server.server import DatabaseServer
from repro.units import MiB, format_bytes
from repro.workload.sales import SalesWorkload


# --------------------------------------------------------------- Figure 1
def figure1_monitors(throttling: bool = True) -> str:
    """Render the monitor ladder of a freshly-booted paper server."""
    workload = SalesWorkload(scale=0.0001)
    with DatabaseServer(paper_server_config(throttling),
                        workload.build_catalog()) as server:
        return server.governor.describe()


# --------------------------------------------------------------- Figure 2
@dataclass
class ThrottleTrace:
    """Sampled compilation-memory curves for the traced queries."""

    #: label -> [(t, bytes)] including the release-to-zero tail
    curves: Dict[str, List[Tuple[float, int]]]

    def plateau_count(self, label: str, tolerance: int = 1024) -> int:
        """Number of flat stretches (≥ 3 samples of unchanged usage at
        a non-zero level) — Figure 2's visible blocking plateaus."""
        curve = self.curves[label]
        plateaus = 0
        run = 1
        for (_, prev), (_, cur) in zip(curve, curve[1:]):
            if cur > 0 and abs(cur - prev) <= tolerance:
                run += 1
            else:
                if run >= 3 and prev > 0:
                    plateaus += 1
                run = 1
        if run >= 3 and curve and curve[-1][1] > 0:
            plateaus += 1
        return plateaus

    def chart(self) -> str:
        series = {label: [(t, float(v)) for t, v in curve]
                  for label, curve in self.curves.items()}
        return ascii_chart(series, title="Figure 2: compilation memory "
                                         "vs time (bytes)")


def figure2_trace(seed: int = 11, fast_factor: float = 4.0,
                  background: int = 24) -> ThrottleTrace:
    """Reproduce Figure 2: three staggered compilations under pressure.

    ``background`` extra clients keep the monitors occupied so the
    traced queries visibly block (the paper: "other queries … were
    consuming enough resources to induce throttling").
    """
    workload = SalesWorkload()
    catalog = workload.build_catalog()
    config = paper_server_config(throttling=True).fast(fast_factor)
    server = DatabaseServer(config, catalog)
    server.start()
    env = server.env
    rng = random.Random(seed)

    def compile_only(label: str):
        query = workload.generate(rng)
        try:
            yield from server.pipeline.compile(query.text, label)
        except Exception:
            pass

    def background_client(index: int):
        local = random.Random(f"{seed}/{index}")
        yield env.timeout(local.uniform(0.0, 30.0))
        while env.now < 900.0:
            query = workload.generate(local)
            try:
                yield from server.pipeline.compile(query.text,
                                                   f"bg{index}")
            except Exception:
                yield env.timeout(5.0)

    for index in range(background):
        env.process(background_client(index))
    traced = ["Q1", "Q2", "Q3"]
    for offset, label in zip((60.0, 63.0, 80.0), traced):
        def tracked(label=label, offset=offset):
            yield env.timeout(offset)
            yield from compile_only(label)
        env.process(tracked())

    curves: Dict[str, List[Tuple[float, int]]] = {t: [] for t in traced}

    def sampler():
        while env.now < 900.0:
            for label in traced:
                account = server.pipeline.live_accounts.get(label)
                used = account.used if account is not None else 0
                curves[label].append((env.now, used))
            yield env.timeout(2.0)

    env.process(sampler())
    try:
        env.run(until=900.0)
    finally:
        server.close()
    return ThrottleTrace(curves=curves)


# ---------------------------------------------------------- Figures 3/4/5
@dataclass
class ThroughputComparison:
    """One throughput figure: throttled vs un-throttled at N clients."""

    clients: int
    throttled: ExperimentResult
    unthrottled: ExperimentResult

    @property
    def improvement(self) -> float:
        """Relative throughput gain of throttling (paper: ≈ +35 % at 30
        clients)."""
        base = self.unthrottled.completed
        if base == 0:
            return float("inf") if self.throttled.completed else 0.0
        return self.throttled.completed / base - 1.0

    def render(self) -> str:
        rows = []
        t_series = dict(self.throttled.throughput)
        u_series = dict(self.unthrottled.throughput)
        for t in sorted(set(t_series) | set(u_series)):
            rows.append((f"{t:.0f}", t_series.get(t, 0), u_series.get(t, 0)))
        table = render_table(
            ("time (s)", "throttled", "unthrottled"), rows)
        chart = ascii_chart(
            {"throttled": [(t, float(v)) for t, v in
                           self.throttled.throughput],
             "unthrottled": [(t, float(v)) for t, v in
                             self.unthrottled.throughput]},
            title=(f"Successful Queries/Time ({self.clients} clients) — "
                   f"completions per bucket"))
        summary = (
            f"completed: throttled={self.throttled.completed} "
            f"unthrottled={self.unthrottled.completed} "
            f"improvement={self.improvement * 100.0:+.1f}%\n"
            f"errors: throttled={self.throttled.error_counts} "
            f"unthrottled={self.unthrottled.error_counts}")
        return "\n".join((chart, "", table, "", summary))

