"""A queued disk-array model.

The array is a FIFO server with ``disks`` parallel channels (RAID-0):
each channel streams at one disk's bandwidth, and each request pays a
positioning latency.  When more I/Os are outstanding than channels, the
extra requests queue — which is how buffer-pool starvation translates
into longer query executions in this simulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.config import HardwareConfig
from repro.sim import Environment, Resource


@dataclass
class IoStats:
    """Cumulative physical-I/O counters for one disk array."""

    requests: int = 0
    bytes_read: int = 0
    busy_time: float = 0.0
    queue_wait: float = 0.0

    def mean_wait(self) -> float:
        """Mean queueing delay per request (0 when idle)."""
        return self.queue_wait / self.requests if self.requests else 0.0


class DiskModel:
    """The RAID-0 array of the paper's testbed (8x SCSI, 2 channels)."""

    def __init__(self, env: Environment, hardware: HardwareConfig):
        self.env = env
        self.hardware = hardware
        self._channels = Resource(env, capacity=hardware.disks)
        self.stats = IoStats()

    @property
    def queue_depth(self) -> int:
        """I/O requests currently waiting for a channel."""
        return self._channels.queued

    def service_time(self, nbytes: int) -> float:
        """Seconds one channel needs to transfer ``nbytes``."""
        return (self.hardware.disk_seek_time
                + nbytes / self.hardware.disk_bandwidth)

    def read(self, nbytes: int):
        """Process generator: perform a physical read of ``nbytes``.

        Yields until a channel is free and the transfer completes.
        Returns the total time spent (wait + service).
        """
        started = self.env.now
        service = self.service_time(nbytes)
        # one event per read: it fires when the transfer ends, still
        # holding the channel (see Resource._grant)
        req = self._channels.request(service)
        try:
            yield req
        finally:
            # also when unwound while still queued for a channel
            self._channels.release(req)
        self.stats.requests += 1
        self.stats.bytes_read += nbytes
        self.stats.busy_time += service
        self.stats.queue_wait += req.granted_at - started
        return self.env.now - started
