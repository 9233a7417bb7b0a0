"""Configuration objects for the repro DBMS.

All tunables live here as frozen dataclasses so an experiment is fully
described by one :class:`ServerConfig` value.  Defaults reproduce the
paper's testbed: 8 CPUs, 4 GiB of RAM, an 8-disk RAID-0 array, and the
SQL Server 2005 gateway ladder (4/CPU small, 1/CPU medium, 1 big).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Optional, Tuple

from repro.errors import ConfigurationError
from repro.units import GiB, KiB, MiB

if TYPE_CHECKING:  # import would cycle through catalog/storage at runtime
    from repro.optimizer.spec import OptimizerSpec


@dataclass(frozen=True)
class HardwareConfig:
    """The machine the simulated server runs on (paper §5.2)."""

    #: number of CPUs (paper: 8x Intel Xeon 700 MHz)
    cpus: int = 8
    #: relative CPU speed multiplier (1.0 = paper's 700 MHz Xeon)
    cpu_speed: float = 1.0
    #: bytes of physical memory available to the DBMS (paper: 4 GB)
    physical_memory: int = 4 * GiB
    #: number of disks in the RAID-0 array (paper: 8x SCSI-II 72 GB)
    disks: int = 8
    #: sequential bandwidth of one disk, bytes/second (~40 MB/s Ultra3 era)
    disk_bandwidth: int = 40 * MiB
    #: average positioning latency per I/O request, seconds
    disk_seek_time: float = 0.008

    def __post_init__(self):
        if self.cpus <= 0:
            raise ConfigurationError("cpus must be positive")
        if self.physical_memory <= 0:
            raise ConfigurationError("physical_memory must be positive")
        if self.disks <= 0:
            raise ConfigurationError("disks must be positive")
        if self.cpu_speed <= 0:
            raise ConfigurationError("cpu_speed must be positive")

    @property
    def total_disk_bandwidth(self) -> int:
        """Aggregate sequential bandwidth of the RAID-0 array."""
        return self.disks * self.disk_bandwidth


@dataclass(frozen=True)
class GatewayConfig:
    """One memory monitor of the throttling ladder (paper Figure 1)."""

    #: human-readable monitor name ("small", "medium", "big")
    name: str = "small"
    #: a compilation must hold this monitor once its own memory exceeds
    #: this many bytes (the *static* threshold; may be overridden
    #: dynamically by the broker)
    threshold: int = 512 * KiB
    #: concurrent compilations admitted per CPU (None = absolute count)
    per_cpu: Optional[int] = 4
    #: absolute concurrent compilations admitted (used when per_cpu is None)
    absolute: Optional[int] = None
    #: seconds a compilation may wait at this monitor before a
    #: "timeout" error is returned to the client (paper: timeouts
    #: increase for later monitors)
    timeout: float = 360.0

    def capacity(self, cpus: int) -> int:
        """Admission limit for a machine with ``cpus`` processors."""
        if self.per_cpu is not None:
            return self.per_cpu * cpus
        if self.absolute is not None:
            return self.absolute
        raise ConfigurationError(f"gateway {self.name!r} has no capacity rule")


def default_gateways() -> Tuple[GatewayConfig, ...]:
    """The SQL Server 2005 ladder described in §4.1.

    Queries below the *small* threshold run unthrottled (that is what
    keeps diagnostic queries alive on an overloaded server); the small
    monitor admits 4 compiles per CPU, the medium monitor 1 per CPU and
    the big monitor exactly one compilation in the whole server.
    """
    return (
        GatewayConfig(name="small", threshold=512 * KiB,
                      per_cpu=4, absolute=None, timeout=360.0),
        GatewayConfig(name="medium", threshold=40 * MiB,
                      per_cpu=1, absolute=None, timeout=600.0),
        GatewayConfig(name="big", threshold=180 * MiB,
                      per_cpu=None, absolute=1, timeout=1200.0),
    )


@dataclass(frozen=True)
class ThrottleConfig:
    """Compilation-throttling policy (paper §4)."""

    #: master switch — False reproduces the paper's baseline server
    enabled: bool = True
    #: the monitor ladder, ordered by increasing threshold
    gateways: Tuple[GatewayConfig, ...] = field(default_factory=default_gateways)
    #: extension (a): derive medium/big thresholds from the broker's
    #: compilation target via  threshold = target * F / S
    dynamic_thresholds: bool = True
    #: F — fraction of the compilation target allotted to small compiles
    small_fraction: float = 0.45
    #: fraction of the target allotted to medium compiles
    medium_fraction: float = 0.35
    #: extension (b): return the best already-explored plan instead of
    #: failing when memory runs out mid-optimization
    best_plan_so_far: bool = True
    #: floor for dynamically computed thresholds, bytes
    min_dynamic_threshold: int = 512 * KiB

    def __post_init__(self):
        thresholds = [g.threshold for g in self.gateways]
        if thresholds != sorted(thresholds):
            raise ConfigurationError("gateway thresholds must be increasing")
        if not 0.0 < self.small_fraction < 1.0:
            raise ConfigurationError("small_fraction must be in (0, 1)")
        if not 0.0 < self.medium_fraction < 1.0:
            raise ConfigurationError("medium_fraction must be in (0, 1)")


@dataclass(frozen=True)
class BrokerConfig:
    """Memory Broker policy (paper §3)."""

    #: master switch (disabling also disables dynamic gateway thresholds)
    enabled: bool = True
    #: seconds between broker accounting sweeps
    interval: float = 1.0
    #: samples in the sliding window used for trend estimation
    window: int = 10
    #: how far ahead (seconds) the broker projects usage
    horizon: float = 5.0
    #: fraction of physical memory the broker tries to keep free as
    #: headroom against allocation bursts
    headroom_fraction: float = 0.05
    #: steady-state fraction of physical memory offered to compilation
    #: when the system is under pressure
    compile_target_fraction: float = 0.25
    #: floor on the buffer-pool target (fraction of physical memory) —
    #: the broker never asks the pool to shrink below this
    buffer_pool_floor_fraction: float = 0.15

    def __post_init__(self):
        if self.interval <= 0:
            raise ConfigurationError("broker interval must be positive")
        if self.window < 2:
            raise ConfigurationError(
                "trend window must hold at least 2 samples")
        if self.horizon < 0:
            raise ConfigurationError("broker horizon must be non-negative")
        for name in ("headroom_fraction", "compile_target_fraction",
                     "buffer_pool_floor_fraction"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ConfigurationError(f"{name} must be in [0, 1)")


@dataclass(frozen=True)
class ExecutionConfig:
    """Query-execution workspace (memory grant) policy."""

    #: fraction of physical memory usable as execution workspace
    workspace_fraction: float = 0.55
    #: largest single grant as a fraction of the workspace
    max_grant_fraction: float = 0.20
    #: smallest grant worth running with, as a fraction of the ideal
    #: grant; below this the query waits rather than thrash
    min_grant_fraction: float = 0.25
    #: seconds a query may wait for a grant before a timeout error
    grant_timeout: float = 600.0


@dataclass(frozen=True)
class PlanCacheConfig:
    """Compiled-plan cache policy."""

    #: cap on cache size, bytes (elastic below this; broker can shrink)
    max_bytes: int = 512 * MiB
    #: per-sweep fraction evicted when the broker demands shrinking
    shrink_step: float = 0.25


@dataclass(frozen=True)
class ServerConfig:
    """Everything needed to boot a :class:`repro.server.DatabaseServer`."""

    hardware: HardwareConfig = field(default_factory=HardwareConfig)
    throttle: ThrottleConfig = field(default_factory=ThrottleConfig)
    broker: BrokerConfig = field(default_factory=BrokerConfig)
    execution: ExecutionConfig = field(default_factory=ExecutionConfig)
    plan_cache: PlanCacheConfig = field(default_factory=PlanCacheConfig)
    #: master random seed for the server's internal randomness
    seed: int = 20070107  # CIDR'07 opening day
    #: optimizer search-effort multiplier (scales exploration budgets);
    #: CPU-per-unit scales inversely so simulated compile *times* hold
    optimizer_effort: float = 1.0
    #: scales simulated memo bytes; pairing effort=1/k with memory
    #: multiplier=k preserves the full-effort compile-memory profile
    #: while doing 1/k of the Python work (used by the benchmarks)
    optimizer_memory_multiplier: float = 1.0
    #: optimizer pipeline; None selects the default pipeline
    #: (basic/memo/cost/estimates), byte-identical to the pre-pipeline
    #: optimizer; only the enumerator has a second choice (``ues``)
    optimizer: Optional["OptimizerSpec"] = None

    def fast(self, factor: float = 4.0) -> "ServerConfig":
        """A cheaper-to-simulate copy with the same memory behaviour:
        optimizer effort divided by ``factor``, simulated memo bytes
        multiplied by it."""
        if factor <= 0:
            raise ConfigurationError("fast factor must be positive")
        return replace(
            self,
            optimizer_effort=self.optimizer_effort / factor,
            optimizer_memory_multiplier=(
                self.optimizer_memory_multiplier * factor),
        )

    def with_throttling(self, enabled: bool) -> "ServerConfig":
        """A copy with compilation throttling switched on or off."""
        return replace(self, throttle=replace(self.throttle, enabled=enabled))


def paper_server_config(throttling: bool = True) -> ServerConfig:
    """The configuration of the paper's testbed (§5.2)."""
    return ServerConfig().with_throttling(throttling)
