"""Differential test of the broker's shared-window sweep.

``MemoryBroker._predict`` keeps one sample-time window for all clerks,
computes the x terms once per window length (and keeps them while the
sample offsets repeat) and skips the fit for a window holding one
repeated value.  The reference model fits each clerk on its own: one
:class:`TrendEstimator` per clerk, refitted at every sweep.  On seeded
usage traces the two must agree exactly — predictions, pressure and
every notification — with float equality, never approximately.
"""

import random
from types import SimpleNamespace

import pytest

import repro.broker.broker as broker_module
from repro.broker import MemoryBroker, TrendEstimator
from repro.config import BrokerConfig
from repro.errors import ConfigurationError


class ReferenceBroker(MemoryBroker):
    """The broker with one :class:`TrendEstimator` per clerk."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._trends = {}

    def _predict(self, now, usage):
        predicted = {}
        for name, used in usage.items():
            trend = self._trends.get(name)
            if trend is None:
                trend = TrendEstimator(window=self.config.window)
                self._trends[name] = trend
            trend.add(now, used)
            predicted[name] = int(trend.predict(self.config.horizon))
        return predicted


class TraceManager:
    """Just enough of a MemoryManager for the sweep: usage is set
    directly, so a trace may exceed physical memory."""

    def __init__(self, physical_memory):
        self.physical_memory = physical_memory
        self.usage = {}

    def usage_by_clerk(self):
        return dict(self.usage)


def _segment(rng, length, top):
    """One stretch of a usage trace, in whole bytes."""
    kind = rng.choice(("constant", "ramp", "sawtooth", "zeros", "noise"))
    if kind == "constant":
        return [rng.randint(0, top)] * length
    if kind == "zeros":
        return [0] * length
    if kind == "ramp":
        start, end = rng.randint(0, top), rng.randint(0, top)
        return [start + (end - start) * i // length for i in range(length)]
    if kind == "sawtooth":
        period = rng.randint(2, 6)
        step = rng.randint(1, max(1, top // period))
        return [(i % period) * step for i in range(length)]
    return [rng.randint(0, top) for _ in range(length)]


def _trace(rng, sweeps, top):
    values = []
    while len(values) < sweeps:
        values.extend(_segment(rng, rng.randint(1, 15), top))
    return values[:sweeps]


def _case(seed):
    """A seeded scenario: config, clerk traces with their first sweep,
    sweep times and the machine size."""
    rng = random.Random(seed)
    sweeps = rng.randint(20, 60)
    top = 2 ** rng.randint(10, 40)
    clerks = {"buffer_pool": 0, "plan_cache": 0, "compilation": 0,
              "workspace": rng.randint(0, 3),
              "late": rng.randint(1, sweeps - 2),  # created mid-run
              "last": sweeps - 1}                  # a single sample
    traces = {name: (first, _trace(rng, sweeps - first, top))
              for name, first in clerks.items()}
    times, now = [], 0.0
    for _ in range(sweeps):
        if rng.random() > 0.1:  # sometimes two sweeps share a time
            now += rng.choice((1.0, 0.5, rng.uniform(0.01, 3.0)))
        times.append(now)
    config = BrokerConfig(window=rng.randint(2, 12),
                          horizon=rng.choice((5.0, 0.75)))
    physical = rng.randint(1, 6) * top
    return config, traces, times, physical


def _run(broker_cls, case):
    """Drive one broker through a case; returns ``(predicted,
    under_pressure)`` per sweep and every notification dispatched."""
    config, traces, times, physical = case
    env = SimpleNamespace(now=0.0)
    manager = TraceManager(physical)
    broker = broker_cls(env, manager, config)
    notes = []
    for name in traces:
        broker.subscribe(name, notes.append)
    predictions = []
    predict = broker._predict

    def recording(now, usage):
        predictions.append(predict(now, usage))
        return predictions[-1]

    broker._predict = recording
    records = []
    for index, now in enumerate(times):
        env.now = now
        for name, (first, values) in traces.items():
            if index >= first:
                manager.usage[name] = values[index - first]
        broker.sweep()
        records.append((predictions[-1], broker.under_pressure))
    return records, notes


@pytest.fixture
def fitted(monkeypatch):
    """Every value window the sweep fits a line through."""
    windows = []
    fit = broker_module.least_squares

    def spy(terms, ys):
        windows.append(list(ys))
        return fit(terms, ys)

    monkeypatch.setattr(broker_module, "least_squares", spy)
    return windows


@pytest.mark.parametrize("seed", range(40))
def test_sweep_matches_per_clerk_refit(seed, fitted):
    case = _case(seed)
    expected_records, expected_notes = _run(ReferenceBroker, case)
    records, notes = _run(MemoryBroker, case)
    assert records == expected_records
    assert notes == expected_notes
    assert all(len(set(ys)) > 1 for ys in fitted), \
        "a flat window was fitted"


def test_traces_cover_pressure_and_flat_windows(fitted):
    """The seeded cases exercise what the sweep distinguishes: sweeps
    with and without pressure, flat and fitted windows."""
    pressure, predictions = set(), 0
    for seed in range(40):
        records, _notes = _run(MemoryBroker, _case(seed))
        pressure.update(under for _predicted, under in records)
        predictions += sum(len(predicted) for predicted, _ in records)
    assert pressure == {True, False}
    assert 0 < len(fitted) < predictions


def test_window_below_two_is_rejected():
    with pytest.raises(ConfigurationError, match="at least 2"):
        BrokerConfig(window=1)
