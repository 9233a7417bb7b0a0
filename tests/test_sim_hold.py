"""Differential test of hold requests.

``CpuScheduler.consume`` takes one hold request per quantum and
``DiskModel.read`` one per transfer: the request fires when the
quantum or transfer ends, still holding its slot.  The reference
models keep the older form, a plain request yielded for the grant and
then a separate :class:`~repro.sim.events.Timeout`.  Seeded random tasks
drive both on the same kernel, and everything either side can observe
must agree exactly, with float equality: finish times, ``read()``
return values, grant order, the slot counts at every simulated instant
and the stats.  The reference has more events per instant, so the
counts are compared once per instant, after its last event.

CPU stats cover completed quanta.  The reference also counted the wait
of a quantum that ``Environment.close()`` cut short, and it summed the
waits in grant order rather than in completion order.  On the dyadic
grid every wait and every partial sum is an exact float, so there the
difference is exactly the recorded waits of the cut quanta; off the
grid only that one sum is compared approximately.
"""

import random

import pytest

from repro.config import HardwareConfig
from repro.server.scheduler import CpuScheduler
from repro.sim import Environment
from repro.storage.disk import DiskModel
from repro.units import KiB, MiB


class ReferenceCpu(CpuScheduler):
    """``consume`` as a grant, then a timeout per quantum."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        #: the waits of quanta granted but not finished
        self.cut = {}

    def consume(self, cpu_seconds):
        remaining = cpu_seconds / self.hardware.cpu_speed
        while remaining > 1e-12:
            quantum = min(self.QUANTUM, remaining)
            started = self.env.now
            req = self._cpus.request()
            try:
                yield req
                self.stats.queue_wait += self.env.now - started
                self.cut[req] = self.env.now - started
                yield self.env.timeout(quantum / self._time_scale)
                del self.cut[req]
            finally:
                self._cpus.release(req)
            self.stats.busy_time += quantum
            self.stats.quanta += 1
            remaining -= quantum


class ReferenceDisk(DiskModel):
    """``read`` as a grant, then a timeout for the transfer."""

    def read(self, nbytes):
        started = self.env.now
        req = self._channels.request()
        try:
            yield req
            waited = self.env.now - started
            service = self.service_time(nbytes)
            yield self.env.timeout(service)
        finally:
            self._channels.release(req)
        self.stats.requests += 1
        self.stats.bytes_read += nbytes
        self.stats.busy_time += service
        self.stats.queue_wait += waited
        return self.env.now - started


class GrantLog(list):
    """A resource's ``users`` list that logs every grant."""

    def __init__(self, log):
        super().__init__()
        self.log = log

    def append(self, request):
        self.log.append(request)
        super().append(request)


def _case(seed, dyadic):
    """Hardware, time scale, tasks and close time for one seed.

    With ``dyadic`` every duration is a multiple of a power of two and
    small, so every sum the models form is an exact float.
    """
    rng = random.Random(seed)
    if dyadic:
        hardware = HardwareConfig(
            cpus=rng.randint(1, 4), cpu_speed=rng.choice((0.5, 1.0, 2.0)),
            disks=rng.randint(1, 4), disk_bandwidth=MiB,
            disk_seek_time=1 / 128)
        time_scale = rng.choice((0.5, 1.0, 2.0, 4.0))
        start = lambda: rng.randint(0, 40) / 4  # noqa: E731
        work = lambda: rng.randint(1, 40) / 8  # noqa: E731
        size = lambda: rng.randint(1, 64) * 16 * KiB  # noqa: E731
    else:
        hardware = HardwareConfig(
            cpus=rng.randint(1, 4), cpu_speed=rng.uniform(0.3, 3.0),
            disks=rng.randint(1, 4))
        time_scale = rng.uniform(0.5, 20.0)
        start = lambda: rng.choice((0.0, rng.uniform(0, 10)))  # noqa: E731
        work = lambda: rng.uniform(0.01, 5.0)  # noqa: E731
        size = lambda: rng.randint(1, 8 * MiB)  # noqa: E731
    tasks = []
    for _ in range(rng.randint(1, 8)):
        ops = [("cpu", work()) if rng.random() < 0.6 else ("disk", size())
               for _ in range(rng.randint(1, 4))]
        tasks.append((start(), ops))
    close_at = rng.choice((None, rng.uniform(0.0, 12.0)))
    return hardware, time_scale, tasks, close_at


def _drive(env, cpu_class, disk_class, case):
    """Run one case to completion or to its close time; returns what an
    observer sees, the models and their resources."""
    hardware, time_scale, tasks, close_at = case
    cpu = cpu_class(env, hardware, time_scale=time_scale)
    disk = disk_class(env, hardware, time_scale=time_scale)
    resources = (cpu._cpus, disk._channels)
    grants, owner = [], {}
    for resource in resources:
        resource.users = GrantLog(grants)
        request = resource.request

        def tagged(*args, _request=request):
            req = _request(*args)
            owner[req] = names[env.active_process]
            return req

        resource.request = tagged

    finished = {}

    def task(name, start, ops):
        yield env.timeout(start)
        for i, (kind, amount) in enumerate(ops):
            if kind == "cpu":
                yield from cpu.consume(amount)
                finished[name, i] = env.now
            else:
                elapsed = yield from disk.read(amount)
                finished[name, i] = (env.now, elapsed)

    names = {env.process(task(n, start, ops)): n
             for n, (start, ops) in enumerate(tasks)}
    limit = float("inf") if close_at is None else close_at
    slots = {}
    while env.peek() <= limit and env.peek() < float("inf"):
        env.step()
        slots[env.now] = tuple(
            (r.count, r.queued) for r in resources)
    env.close()
    seen = {"finished": finished, "slots": slots,
            "grants": [owner[req] for req in grants],
            "io": disk.stats}
    return seen, cpu, resources


@pytest.mark.parametrize("dyadic", [True, False], ids=["dyadic", "float"])
@pytest.mark.parametrize("seed", range(30))
def test_hold_requests_match_grant_then_timeout(env, seed, dyadic):
    case = _case(seed, dyadic)
    reference = Environment(kernel=env.kernel)
    want, ref_cpu, _ = _drive(reference, ReferenceCpu, ReferenceDisk, case)
    got, cpu, resources = _drive(env, CpuScheduler, DiskModel, case)
    assert got == want
    assert cpu.stats.busy_time == ref_cpu.stats.busy_time
    assert cpu.stats.quanta == ref_cpu.stats.quanta
    completed_wait = ref_cpu.stats.queue_wait - sum(ref_cpu.cut.values())
    if dyadic:
        assert cpu.stats.queue_wait == completed_wait
    else:
        assert cpu.stats.queue_wait == pytest.approx(completed_wait)
    # close() unwound every holder and waiter
    for resource in resources:
        assert resource.count == 0 and resource.queued == 0


def test_cases_cover_contention_and_close():
    """The seeded cases exercise what differs between the models:
    queued grants, quanta cut by close, and runs closed mid-way."""
    queued = cut = closed = 0
    for seed in range(30):
        for dyadic in (True, False):
            case = _case(seed, dyadic)
            seen, cpu, _ = _drive(Environment(), ReferenceCpu,
                                  ReferenceDisk, case)
            queued += any(q for state in seen["slots"].values()
                          for _, q in state)
            cut += bool(cpu.cut)
            closed += case[3] is not None
    assert queued > 10 and cut > 5 and closed > 10


class CountingEnvironment(Environment):
    """Counts every event placed on the schedule."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.scheduled = 0

    def schedule(self, event, delay=0.0):
        self.scheduled += 1
        super().schedule(event, delay)


def test_uncontended_consume_schedules_one_event_per_quantum(env):
    counting = CountingEnvironment(kernel=env.kernel)
    cpu = CpuScheduler(counting, HardwareConfig(cpus=1))
    events = []

    def task():
        before = counting.scheduled
        yield from cpu.consume(27.0)
        events.append(counting.scheduled - before)

    counting.process(task())
    counting.run()
    assert cpu.stats.quanta == 27
    assert events == [27]


def test_disk_read_schedules_one_event(env):
    counting = CountingEnvironment(kernel=env.kernel)
    disk = DiskModel(counting, HardwareConfig(disks=1))
    events = []

    def task():
        before = counting.scheduled
        yield from disk.read(MiB)
        events.append(counting.scheduled - before)

    counting.process(task())
    counting.run()
    assert events == [1]


def test_hold_request_fires_after_the_grant(env):
    from repro.sim import Resource

    resource = Resource(env, capacity=1)
    first = resource.request(2.5)
    second = resource.request(1.0)
    assert first.granted and first.granted_at == 0.0
    assert not second.granted and second.granted_at is None
    env.run(until=2.0)
    assert not first.processed
    env.run(until=2.5)
    assert first.processed and first.value is resource
    assert resource.count == 1  # the slot is held until released
    resource.release(first)
    assert second.granted and second.granted_at == 2.5
    env.run()
    assert env.now == 3.5


def test_negative_hold_is_rejected(env):
    from repro.errors import SimulationError
    from repro.sim import Resource

    with pytest.raises(SimulationError, match="negative hold"):
        Resource(env, capacity=1).request(-1.0)
