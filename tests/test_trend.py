"""Tests for trend estimation."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.broker.trend import (BOUND_SLACK, LinearTrend, TrendEstimator,
                                project, spread_factor, window_terms)


def test_empty_estimator_predicts_zero():
    trend = TrendEstimator()
    assert trend.predict(10) == 0.0
    assert trend.last_value == 0.0


def test_single_sample_is_flat():
    trend = TrendEstimator()
    trend.add(0.0, 500)
    assert trend.predict(100) == 500


def test_linear_series_recovered_exactly():
    trend = TrendEstimator(window=5)
    for t in range(5):
        trend.add(float(t), 100.0 + 20.0 * t)
    fit = trend.fit()
    assert fit.slope == pytest.approx(20.0)
    assert trend.predict(3.0) == pytest.approx(100.0 + 20.0 * 4 + 60.0)


def test_window_slides():
    trend = TrendEstimator(window=3)
    for t, v in ((0, 0), (1, 0), (2, 0), (3, 300), (4, 600), (5, 900)):
        trend.add(float(t), v)
    assert trend.fit().slope == pytest.approx(300.0)
    assert trend.sample_count == 3


def test_prediction_clamped_at_zero():
    trend = TrendEstimator()
    trend.add(0.0, 100)
    trend.add(1.0, 50)
    assert trend.predict(10.0) == 0.0


def test_constant_series_flat_slope():
    trend = TrendEstimator()
    for t in range(10):
        trend.add(float(t), 777.0)
    assert trend.fit().slope == pytest.approx(0.0, abs=1e-9)
    assert trend.predict(100) == pytest.approx(777.0)


def test_same_timestamp_samples_degenerate():
    trend = TrendEstimator()
    trend.add(5.0, 10)
    trend.add(5.0, 30)
    fit = trend.fit()
    assert fit.slope == 0.0
    assert fit.level == 30.0


def test_window_validation():
    with pytest.raises(ValueError):
        TrendEstimator(window=1)


def test_linear_trend_predict():
    assert LinearTrend(level=10, slope=2).predict(5) == 20
    assert LinearTrend(level=10, slope=-5).predict(100) == 0.0


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=0, max_value=1e9,
                          allow_nan=False, allow_infinity=False),
                min_size=1, max_size=20))
def test_prediction_never_negative(values):
    trend = TrendEstimator()
    for t, v in enumerate(values):
        trend.add(float(t), v)
    assert trend.predict(5.0) >= 0.0


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_projection_never_exceeds_the_spread_bound(data):
    """The broker's quiet rule: a window with values in ``[lo, hi]``
    never predicts above ``(hi + K * (hi - lo)) * BOUND_SLACK``, over
    integer usages, windows of 2..10 samples and jittered sample
    times (ties included)."""
    n = data.draw(st.integers(min_value=2, max_value=10))
    top = 2 ** data.draw(st.integers(min_value=0, max_value=42))
    ys = [float(y) for y in data.draw(st.lists(
        st.integers(min_value=0, max_value=top), min_size=n, max_size=n))]
    interval = data.draw(st.sampled_from((1.0, 0.5, 0.1, 1.0 / 3.0, 7.0)))
    jitter = st.floats(min_value=-0.5, max_value=0.5, allow_nan=False)
    t = data.draw(st.floats(min_value=0.0, max_value=1e6))
    times = []
    for _ in range(n):
        times.append(t)
        gap = data.draw(st.one_of(
            st.just(interval), st.just(0.0),
            jitter.map(lambda j: interval * (1.0 + j))))
        t = t + gap
    horizon = data.draw(st.sampled_from((5.0, 0.75, 0.0, 60.0)))
    terms = window_terms(times)
    lo, hi = min(ys), max(ys)
    bound = (hi + spread_factor(terms, horizon) * (hi - lo)) * BOUND_SLACK
    assert int(project(terms, ys, horizon)) <= int(bound)
    if lo == hi:
        assert int(project(terms, ys, horizon)) == hi

