"""A cooperative CPU scheduler (SQLOS-style).

All CPU work — optimization steps, hash builds, probes — flows through
:meth:`CpuScheduler.consume`, which slices the work into quanta and
competes for one of the machine's CPUs per quantum.  Under overload the
runnable queue grows and every task progresses more slowly, which is
the paper's Figure 2 observation that a throttled thread "sometimes
receives less time for its work" without any explicit slowdown being
scripted.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import HardwareConfig
from repro.sim import Environment, Resource


@dataclass
class CpuStats:
    """Cumulative scheduler counters over completed quanta."""

    busy_time: float = 0.0
    quanta: int = 0
    queue_wait: float = 0.0


class CpuScheduler:
    """``cpus`` processors served FIFO in fixed quanta."""

    #: seconds of CPU work per scheduling quantum (simulated)
    QUANTUM = 1.0

    def __init__(self, env: Environment, hardware: HardwareConfig):
        self.env = env
        self.hardware = hardware
        self._cpus = Resource(env, capacity=hardware.cpus)
        self.stats = CpuStats()

    @property
    def runnable(self) -> int:
        """Tasks waiting for a CPU right now."""
        return self._cpus.queued

    def consume(self, cpu_seconds: float):
        """Process generator: burn ``cpu_seconds`` of CPU work.

        The work is divided by the hardware's speed multiplier and
        executed quantum by quantum, requeueing after each quantum so
        concurrent tasks interleave fairly.
        """
        # every quantum of every task runs this loop: look up once
        env, cpus, stats = self.env, self._cpus, self.stats
        full = self.QUANTUM
        remaining = cpu_seconds / self.hardware.cpu_speed
        while remaining > 1e-12:
            quantum = remaining if remaining < full else full
            started = env.now
            # one event per quantum: it fires when the quantum ends,
            # still holding the CPU (see Resource._grant)
            req = cpus.request(quantum)
            try:
                yield req
            finally:
                # also when unwound while still queued for a CPU
                cpus.release(req)
            stats.queue_wait += req.granted_at - started
            stats.busy_time += quantum
            stats.quanta += 1
            remaining -= quantum
