"""The per-run metrics collector."""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.metrics.timeseries import BucketSeries, GaugeSeries


@dataclass
class QueryRecord:
    """Everything measured about one query attempt."""

    client: int
    template: str
    submitted: float
    finished: float
    ok: bool
    error_kind: Optional[str] = None
    cached_plan: bool = False
    degraded_plan: bool = False
    compile_time: float = 0.0
    gateway_wait: float = 0.0
    grant_wait: float = 0.0
    execution_time: float = 0.0
    compile_peak_bytes: int = 0
    spilled: bool = False

    @property
    def elapsed(self) -> float:
        return self.finished - self.submitted


class MetricsCollector:
    """Aggregates query outcomes and memory traces for one run."""

    def __init__(self, bucket_width: float = 600.0):
        self.bucket_width = bucket_width
        self.completions = BucketSeries(bucket_width)
        self.failures = BucketSeries(bucket_width)
        self.records: List[QueryRecord] = []
        self.error_counts: Dict[str, int] = {}
        #: memory sample times, in order
        self.memory_times: List[float] = []
        #: the sampled usage snapshots as ``[snapshot, count]`` runs in
        #: time order: ``count`` consecutive samples of one snapshot
        self.memory_runs: List[list] = []

    # -- query outcomes ------------------------------------------------------
    def record_query(self, record: QueryRecord) -> None:
        self.records.append(record)
        if record.ok:
            self.completions.record(record.finished)
        else:
            self.failures.record(record.finished)
            kind = record.error_kind or "unknown"
            self.error_counts[kind] = self.error_counts.get(kind, 0) + 1

    # -- memory sampling --------------------------------------------------------
    def sample_memory(self, t: float, usage_by_clerk: Dict[str, int]) -> None:
        """Record one usage snapshot (clerk name -> bytes).  The
        collector keeps the snapshot, so it must not be changed
        afterwards; passing the previous sample's object again extends
        its run."""
        times = self.memory_times
        if times and t < times[-1]:
            raise ValueError("samples must be recorded in time order")
        times.append(t)
        runs = self.memory_runs
        if runs and runs[-1][0] is usage_by_clerk:
            runs[-1][1] += 1
        else:
            runs.append([usage_by_clerk, 1])

    def _traces(self) -> Tuple[Dict[str, GaugeSeries], GaugeSeries]:
        """The per-clerk and total traces, built from the runs."""
        times = self.memory_times
        memory: Dict[str, GaugeSeries] = {}
        total = GaugeSeries()
        end = 0
        for usage, count in self.memory_runs:
            start, end = end, end + count
            for clerk, used in usage.items():
                series = memory.get(clerk)
                if series is None:
                    series = memory[clerk] = GaugeSeries()
                for t in times[start:end]:
                    series.record(t, used)
            all_used = sum(usage.values())
            for t in times[start:end]:
                total.record(t, all_used)
        return memory, total

    @property
    def memory(self) -> Dict[str, GaugeSeries]:
        """Clerk name -> usage trace (a clerk's trace starts at the
        first sample that saw it), built on each read."""
        return self._traces()[0]

    @property
    def total_memory(self) -> GaugeSeries:
        """Total usage trace, built on each read."""
        return self._traces()[1]

    def memory_means(self, t_from: float, t_to: float) -> Dict[str, float]:
        """Each clerk's mean sampled usage over ``[t_from, t_to)``:
        ``memory[clerk].mean(t_from, t_to)``, without building the
        traces.  Each run adds ``bytes * samples`` to an integer sum.
        The trace's float sum is the same number: usage is a whole
        byte count and ``samples * bytes < 2**53``, so every partial
        sum is exact, and both divisions round the same quotient."""
        times = self.memory_times
        first = bisect_left(times, t_from)
        last = bisect_left(times, t_to)
        sums: Dict[str, int] = {}
        counts: Dict[str, int] = {}
        end = 0
        for usage, count in self.memory_runs:
            start, end = end, end + count
            inside = min(end, last) - max(start, first)
            for clerk, used in usage.items():
                if clerk not in sums:
                    sums[clerk] = counts[clerk] = 0
                if inside > 0:
                    sums[clerk] += used * inside
                    counts[clerk] += inside
        return {clerk: total / counts[clerk] if counts[clerk] else 0.0
                for clerk, total in sums.items()}

    # -- summaries ----------------------------------------------------------------
    def throughput_series(self, t_from: float, t_to: float):
        return self.completions.series(t_from, t_to)

    def successes(self, t_from: Optional[float] = None,
                  t_to: Optional[float] = None) -> int:
        return self.completions.total(t_from, t_to)

    def failure_total(self) -> int:
        return self.failures.total()

    def success_rate(self) -> float:
        ok = self.completions.total()
        bad = self.failures.total()
        return ok / (ok + bad) if (ok + bad) else 0.0

    def degraded_count(self) -> int:
        return sum(1 for r in self.records if r.ok and r.degraded_plan)

    def mean_compile_time(self) -> float:
        times = [r.compile_time for r in self.records
                 if r.ok and not r.cached_plan]
        return sum(times) / len(times) if times else 0.0

    def mean_execution_time(self) -> float:
        times = [r.execution_time for r in self.records if r.ok]
        return sum(times) / len(times) if times else 0.0
