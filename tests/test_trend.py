"""Tests for trend estimation."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.broker.trend import LinearTrend, TrendEstimator


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
