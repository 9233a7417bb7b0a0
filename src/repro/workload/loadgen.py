"""The client load generator.

Simulates N concurrent database users (paper §5.2): each client thinks
briefly, submits a freshly generated query, waits for the outcome, and
*resubmits on failure* — the paper's observation that "the cost of each
failure is also high (as the work will be retried)" is what makes
resource errors so expensive for un-throttled servers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.metrics.collector import MetricsCollector, QueryRecord
from repro.server.server import DatabaseServer
from repro.workload.base import Workload


@dataclass
class ClientStats:
    """Per-client counters."""

    submitted: int = 0
    succeeded: int = 0
    failed: int = 0
    retries: int = 0


class LoadGenerator:
    """Drives one server with ``clients`` concurrent simulated users."""

    def __init__(self, server: DatabaseServer, workload: Workload,
                 clients: int, duration: float,
                 metrics: Optional[MetricsCollector] = None,
                 seed: int = 1, think_time: float = 15.0,
                 retry_delay: float = 10.0, max_retries: int = 10,
                 capture: bool = False):
        self.server = server
        self.workload = workload
        self.clients = clients
        self.duration = duration
        self.metrics = metrics or server.metrics
        self.seed = seed
        self.think_time = think_time
        self.retry_delay = retry_delay
        self.max_retries = max_retries
        self.stats: List[ClientStats] = [ClientStats()
                                         for _ in range(clients)]
        #: submissions on record for trace capture (submission order,
        #: which is sim-time order; outcomes patched in on completion)
        self._capture: Optional[List[dict]] = [] if capture else None

    def start(self) -> None:
        """Spawn all client processes (call before ``env.run``)."""
        self.server.start()
        for client_id in range(self.clients):
            rng = random.Random(f"{self.seed}/{client_id}")
            self.server.env.process(self._client(client_id, rng))

    def run(self) -> None:
        """Start clients and run the simulation to ``duration``."""
        self.start()
        self.server.env.run(until=self.duration)

    # -- client behaviour ----------------------------------------------------
    def _client(self, client_id: int, rng: random.Random):
        env = self.server.env
        stats = self.stats[client_id]
        # stagger arrivals so 30 compiles do not start at t=0 exactly
        yield env.timeout(rng.uniform(0.0, self.think_time))
        while env.now < self.duration:
            think = rng.expovariate(1.0 / self.think_time)
            yield env.timeout(think)
            if env.now >= self.duration:
                break
            query = self.workload.generate(rng)
            attempts = 0
            while True:
                stats.submitted += 1
                submitted = env.now
                entry = None
                if self._capture is not None:
                    # record paper-second time at submission; the
                    # outcome is patched in when the query resolves
                    entry = {"t": submitted,
                             "template": query.template}
                    self._capture.append(entry)
                label = f"c{client_id}/{query.template}"
                outcome = yield from self.server.run_query(
                    query.text, label)
                if entry is not None:
                    entry["outcome"] = ("succeeded" if outcome.ok
                                        else "failed")
                self.metrics.record_query(QueryRecord(
                    client=client_id,
                    template=query.template,
                    submitted=submitted,
                    finished=env.now,
                    ok=outcome.ok,
                    error_kind=outcome.error_kind,
                    cached_plan=outcome.cached_plan,
                    degraded_plan=outcome.degraded_plan,
                    compile_time=outcome.compile_time,
                    gateway_wait=outcome.gateway_wait,
                    grant_wait=outcome.grant_wait,
                    execution_time=outcome.execution_time,
                    compile_peak_bytes=outcome.compile_peak_bytes,
                    spilled=outcome.spilled,
                ))
                if outcome.ok:
                    stats.succeeded += 1
                    break
                stats.failed += 1
                attempts += 1
                if attempts > self.max_retries or env.now >= self.duration:
                    break
                stats.retries += 1
                backoff = self.retry_delay * rng.uniform(0.5, 1.5)
                yield env.timeout(backoff)

    def captured_events(self):
        """The capture-trace documents of every submission, in
        submission order (requires ``capture=True`` at construction).

        A closed-loop capture is a *what-if* replay source — feed it to
        an open-loop ``traffic`` spec to re-offer the same schedule
        without the think-time feedback loop; unlike an open-loop
        capture it does not carry a byte-identity replay pin.
        """
        if self._capture is None:
            raise RuntimeError("trace capture was not enabled on this "
                               "generator")
        for entry in self._capture:
            yield dict(entry)

    # -- summaries ----------------------------------------------------------
    def totals(self) -> ClientStats:
        out = ClientStats()
        for s in self.stats:
            out.submitted += s.submitted
            out.succeeded += s.succeeded
            out.failed += s.failed
            out.retries += s.retries
        return out
