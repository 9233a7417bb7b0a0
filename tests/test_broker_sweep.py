"""Differential test of the broker's sweep.

``MemoryBroker.sweep`` keeps one sample-time window for all clerks,
computes the x terms once per window length (and keeps them while the
sample offsets repeat), skips the fit for a window holding one repeated
value, skips the grow loop when every clerk is at GROW, skips every fit
when the projection provably fits (a *bounded* sweep), and skips the
sampling pass too when a bounded sweep's snapshot comes back (a
*repeat* sweep).  The reference model is the sweep without any of
that: one :class:`TrendEstimator` per clerk, refitted at every sweep,
and every sweep samples, predicts and walks the grow loop.  Both are
handed the previous snapshot object when usage has not changed, as the
server's tick does.  On seeded usage traces and on directed cases the
two must agree exactly after every sweep: pressure, every clerk's
window (times and values) and every notification, with float
equality, never approximately.
"""

import copy
import random
from collections import deque
from types import SimpleNamespace

import pytest

import repro.broker.broker as broker_module
from repro.broker import (BrokerNotification, BrokerSignal, MemoryBroker,
                          TrendEstimator)
from repro.config import BrokerConfig
from repro.errors import ConfigurationError


class ReferenceBroker(MemoryBroker):
    """The broker with one :class:`TrendEstimator` per clerk and a sweep
    that always samples, predicts and runs the grow loop."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._trends = {}

    def sweep(self, usage=None):
        self.sweeps += 1
        now = self.env.now
        usage = self.manager.usage_by_clerk()
        predicted = self._predict(now, usage)
        total_predicted = sum(predicted.values())
        limit = self.pressure_limit
        self.under_pressure = total_predicted > limit
        if not self.under_pressure:
            self._notify_all_grow(usage, predicted, now)
            return
        targets = self._compute_targets(usage, predicted, limit)
        for name in usage:
            target = targets.get(name, predicted[name])
            signal = self._signal_for(usage[name], predicted[name], target)
            note = BrokerNotification(
                clerk=name, signal=signal, current=usage[name],
                predicted=predicted[name], target=target, at=now)
            self._dispatch(note)

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

    def windows(self):
        return {name: ([t for t, _ in trend._samples],
                       [v for _, v in trend._samples])
                for name, trend in self._trends.items()}


def _windows(broker):
    """Every clerk's ``(times, values)`` window."""
    if isinstance(broker, ReferenceBroker):
        return broker.windows()
    # the repeats a quiet sweep has not appended yet, caught up on a
    # copy so that the broker under test keeps deferring them
    probe = copy.copy(broker)
    probe._values = {name: deque(values, maxlen=values.maxlen)
                     for name, values in broker._values.items()}
    probe._catch_up()
    broker = probe
    times = list(broker._times)
    return {name: (times[len(times) - len(values):], list(values))
            for name, values in broker._values.items()}


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


def _case(seed, regular=False):
    """A seeded scenario: config, clerk traces with their first sweep,
    sweep times and the machine size.  Some stretches hold every clerk
    still, so that sweeps go quiet.  ``regular`` sweeps one second
    apart, as the server's tick does, so that quiet sweeps repeat."""
    rng = random.Random(seed)
    sweeps = rng.randint(20, 60)
    top = 2 ** rng.randint(10, 40)
    clerks = {"buffer_pool": 0, "plan_cache": 0, "compilation": 0,
              "workspace": rng.randint(0, 3),
              "late": rng.randint(1, sweeps - 2),  # created mid-run
              "last": sweeps - 1}                  # a single sample
    traces = {name: (first, _trace(rng, sweeps - first, top))
              for name, first in clerks.items()}
    for _ in range(rng.randint(0, 2)):
        start = rng.randrange(sweeps)
        end = min(sweeps, start + rng.randint(2, 25))
        for first, values in traces.values():
            for index in range(max(start, first) + 1, end):
                values[index - first] = values[max(start, first) - first]
    times, now = [], 0.0
    for _ in range(sweeps):
        if regular:
            now += 1.0
        elif rng.random() > 0.1:  # sometimes two sweeps share a time
            now += rng.choice((1.0, 0.5, rng.uniform(0.01, 3.0)))
        times.append(now)
    config = BrokerConfig(window=rng.randint(2, 12),
                          horizon=rng.choice((5.0, 0.75)))
    physical = rng.randint(1, 6) * top
    return config, traces, times, physical


def _run(broker_cls, case):
    """Drive one broker through a case.

    Returns one record per sweep — ``(under_pressure, windows)`` — every
    notification dispatched, and per sweep its path (``"exact"``,
    ``"bounded"`` or ``"repeat"``) together with the signals
    outstanding when it began.
    """
    config, traces, times, physical = case
    env = SimpleNamespace(now=0.0)
    manager = TraceManager(physical)
    broker = broker_cls(env, manager, config)
    notes = []
    for name in traces:
        broker.subscribe(name, notes.append)
    calls = []
    for method in ("_sample", "_predict"):
        def counting(*args, _original=getattr(broker, method),
                     _name=method):
            calls.append(_name)
            return _original(*args)

        setattr(broker, method, counting)
    records, paths = [], []
    last = None
    for index, now in enumerate(times):
        env.now = now
        for name, (first, values) in traces.items():
            if index >= first:
                manager.usage[name] = values[index - first]
        outstanding = {name: broker.last_notifications[name].signal
                       if name in broker.last_notifications else None
                       for name in manager.usage}
        del calls[:]
        usage = manager.usage_by_clerk()
        if usage == last:
            usage = last
        broker.sweep(usage)
        last = usage
        path = ("exact" if "_predict" in calls
                else "bounded" if "_sample" in calls else "repeat")
        paths.append((path, outstanding))
        records.append((broker.under_pressure, _windows(broker)))
    assert broker.sweeps == len(times)
    return records, notes, paths


def _check(case):
    """Both brokers agree on the case; returns the optimised run's path
    log, checked against the notes outstanding at each sweep that did
    not fit."""
    expected_records, expected_notes, reference_paths = \
        _run(ReferenceBroker, case)
    records, notes, paths = _run(MemoryBroker, case)
    assert records == expected_records
    assert notes == expected_notes
    assert {path for path, _ in reference_paths} == {"exact"}
    for path, outstanding in paths:
        if path != "exact":
            assert set(outstanding.values()) == {BrokerSignal.GROW}
    return [path for path, _ in paths]


@pytest.fixture
def fitted(monkeypatch):
    """Every value window the sweep fits a line through."""
    windows = []
    fit = broker_module.project

    def spy(terms, ys, horizon):
        windows.append(list(ys))
        return fit(terms, ys, horizon)

    monkeypatch.setattr(broker_module, "project", spy)
    return windows


@pytest.mark.parametrize("seed", range(40))
def test_sweep_matches_per_clerk_refit(seed, fitted):
    _check(_case(seed))
    assert all(len(set(ys)) > 1 for ys in fitted), \
        "a flat window was fitted"


@pytest.mark.parametrize("seed", range(40))
def test_sweep_matches_per_clerk_refit_at_regular_times(seed, fitted):
    _check(_case(seed, regular=True))
    assert all(len(set(ys)) > 1 for ys in fitted), \
        "a flat window was fitted"


def test_traces_cover_pressure_and_flat_windows(fitted):
    """The seeded cases exercise what the sweep distinguishes: sweeps
    with and without pressure, flat and fitted windows, and every
    path."""
    pressure, paths = set(), []
    for seed in range(80):
        case = _case(seed // 2, regular=seed % 2 == 1)
        records, _notes, log = _run(MemoryBroker, case)
        pressure.update(under for under, _windows in records)
        paths += [path for path, _ in log]
    assert pressure == {True, False}
    assert fitted
    assert set(paths) == {"exact", "bounded", "repeat"}


def _directed(usages, physical, window=3, times=None):
    """A case from explicit per-sweep usage dicts."""
    names = sorted({name for usage in usages for name in usage})
    traces = {}
    for name in names:
        first = next(i for i, usage in enumerate(usages) if name in usage)
        traces[name] = (first, [usage[name] for usage in usages[first:]])
    times = times or [float(i + 1) for i in range(len(usages))]
    return (BrokerConfig(window=window, horizon=5.0), traces, times,
            physical)


GIB = 2 ** 30


def test_constant_stretch_after_pressure_waits_for_grow():
    """A steep ramp puts the broker under pressure; usage then holds
    still below the limit, and the ramp keeps the projection over it
    until the windows are flat.  That sweep finds the projection fits
    and sends GROW; only the sweep after it may skip the fits."""
    usages = [{"compilation": v * GIB // 8, "buffer_pool": GIB // 8}
              for v in (1, 3, 6, 6, 6, 6, 6, 6, 6, 6)]
    case = _directed(usages, physical=GIB)
    paths = _check(case)
    records, notes, _ = _run(MemoryBroker, case)
    pressured = [i for i, (under, _w) in enumerate(records) if under]
    assert pressured, "the ramp must cause pressure"
    grow_at = max(i for i, (_under, _w) in enumerate(records)
                  if any(n.signal is BrokerSignal.GROW
                         and n.at == case[2][i] for n in notes))
    assert grow_at > max(pressured)
    quiet_at = [i for i, path in enumerate(paths) if path != "exact"]
    assert quiet_at and min(quiet_at) == grow_at + 1


def test_clerk_appearing_mid_quiet():
    """A new clerk breaks the quiet streak: it is sampled and told
    GROW.  The next sweep is bounded again, though the new window is
    short; repeats resume once every window is full."""
    quiet = {"compilation": GIB // 8, "buffer_pool": GIB // 8}
    usages = [quiet] * 6 + [dict(quiet, workspace=GIB // 16)] * 8
    paths = _check(_directed(usages, physical=GIB))
    assert paths[:6] == ["exact", "bounded", "bounded",
                         "repeat", "repeat", "repeat"]
    assert paths[6:] == ["exact", "bounded", "bounded",
                         "repeat", "repeat", "repeat", "repeat", "repeat"]


def test_fitted_windows_can_be_quiet():
    """Windows that are not flat skip their fits while the bound is
    within the limit, and fit once it is not: a ramp far below the
    limit is bounded at every sweep after its first, and one ending
    near the limit is fitted."""
    def ramp(top):
        return [{"compilation": top * (i + 1) // 20} for i in range(20)]

    low = _check(_directed(ramp(GIB // 64), physical=GIB))
    assert low[1:] == ["bounded"] * 19
    high = _check(_directed(ramp(GIB * 9 // 10), physical=GIB))
    assert "exact" in high[1:]


def test_repeat_needs_the_same_offsets():
    """A repeated snapshot after a quiet sweep repeats only while the
    sample offsets do: a sweep after an irregular gap samples again."""
    usage = {"compilation": GIB // 8, "buffer_pool": GIB // 8}
    times = [1.0, 2.0, 3.0, 4.0, 5.0, 7.5, 8.5, 9.5, 10.5]
    paths = _check(_directed([usage] * len(times), physical=GIB,
                             times=times))
    assert paths == ["exact", "bounded", "bounded", "repeat", "repeat",
                     "bounded", "bounded", "bounded", "repeat"]


@pytest.mark.parametrize("over", [0, 1])
def test_total_at_the_limit(over):
    """A total exactly at the pressure limit is no pressure and may
    skip the fits; one byte more is pressure at every sweep."""
    config = BrokerConfig(window=3, horizon=5.0)
    limit = int(GIB * (1.0 - config.headroom_fraction))
    usage = {"compilation": limit // 4, "buffer_pool": limit - limit // 4
             + over}
    paths = _check(_directed([usage] * 10, physical=GIB))
    assert ("exact" not in paths[1:]) is (over == 0)
    assert ("repeat" in paths) is (over == 0)


def test_sweep_reports_whether_it_notified():
    env = SimpleNamespace(now=0.0)
    manager = TraceManager(GIB)
    broker = MemoryBroker(env, manager, BrokerConfig(window=2))
    manager.usage = {"compilation": GIB // 8}
    assert broker.sweep() is True       # first GROW
    env.now = 1.0
    assert broker.sweep() is False      # nothing to tell
    env.now = 2.0
    assert broker.sweep(manager.usage_by_clerk()) is False  # quiet
    manager.usage = {"compilation": GIB}
    env.now = 3.0
    assert broker.sweep() is True       # pressure: a note per clerk


def test_window_below_two_is_rejected():
    with pytest.raises(ConfigurationError, match="at least 2"):
        BrokerConfig(window=1)
