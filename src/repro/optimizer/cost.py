"""The cost model.

Costs are in *estimated seconds on the paper's testbed* assuming a cold
buffer pool and no contention.  The executor re-derives actual elapsed
time from the same work parameters plus runtime effects (real hit rate,
disk queueing, CPU contention, spills), so estimated cost and actual
time agree in shape but diverge under pressure — as in a real system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.units import GiB, MiB


@dataclass(frozen=True)
class CostParameters:
    """Calibration constants (per 700 MHz Xeon of the paper testbed)."""

    #: seconds of CPU per processed row
    cpu_per_row: float = 0.4e-6
    #: seconds of CPU to hash-build one row
    build_per_row: float = 1.2e-6
    #: seconds of CPU to probe one row
    probe_per_row: float = 0.6e-6
    #: seconds of CPU per row per comparison in sorting (times log n)
    sort_per_row: float = 0.25e-6
    #: effective scan bandwidth of the array, bytes/second
    scan_bandwidth: float = 320 * MiB
    #: hash-table overhead per byte of build input
    hash_memory_factor: float = 1.6
    #: sort workspace per byte of input
    sort_memory_factor: float = 1.2


class CostModel:
    """Computes operator costs and workspace-memory needs."""

    def __init__(self, params: CostParameters | None = None):
        self.params = params or CostParameters()

    # -- leaf ------------------------------------------------------------------
    def scan_cost(self, table_bytes: float, scan_fraction: float,
                  output_rows: float) -> float:
        """Sequential scan: I/O on the scanned window + per-row CPU."""
        io = (table_bytes * scan_fraction) / self.params.scan_bandwidth
        cpu = output_rows * self.params.cpu_per_row
        return io + cpu

    # -- joins -----------------------------------------------------------------
    def hash_join_cost(self, build_rows: float, probe_rows: float,
                       output_rows: float) -> float:
        return (build_rows * self.params.build_per_row
                + probe_rows * self.params.probe_per_row
                + output_rows * self.params.cpu_per_row)

    def hash_join_memory(self, build_bytes: float) -> float:
        return build_bytes * self.params.hash_memory_factor

    def nl_join_cost(self, outer_rows: float, inner_rows: float,
                     output_rows: float) -> float:
        return (outer_rows * inner_rows * self.params.cpu_per_row
                + output_rows * self.params.cpu_per_row)

    def memory_pressure_cost(self, workspace_bytes: float) -> float:
        """Penalty for workspace appetite (spill risk / grant waits).

        Charged as the time to write+read the workspace once at scan
        bandwidth — a standard way to make the optimizer prefer small
        hash builds without hard memory limits.
        """
        return 2.0 * workspace_bytes / self.params.scan_bandwidth

    # -- aggregation -------------------------------------------------------------
    def hash_agg_cost(self, input_rows: float, groups: float) -> float:
        return (input_rows * self.params.build_per_row
                + groups * self.params.cpu_per_row)

    def hash_agg_memory(self, groups: float, row_width: float) -> float:
        return groups * row_width * self.params.hash_memory_factor

    def stream_agg_cost(self, input_rows: float) -> float:
        return input_rows * self.params.cpu_per_row

    # -- sort ---------------------------------------------------------------------
    def sort_cost(self, rows: float) -> float:
        n = max(rows, 2.0)
        return n * math.log2(n) * self.params.sort_per_row

    def sort_memory(self, input_bytes: float) -> float:
        return input_bytes * self.params.sort_memory_factor

    # -- trivial -----------------------------------------------------------------
    def project_cost(self, rows: float) -> float:
        return rows * self.params.cpu_per_row * 0.25

    def filter_cost(self, rows: float) -> float:
        return rows * self.params.cpu_per_row * 0.5
