"""Tests for the level-shift (LS) outlier detector."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.oracle import LevelShiftDetector


def feed(detector, values, start_ts=0.0):
    alarms = []
    for index, value in enumerate(values):
        shift = detector.update(start_ts + index, value)
        if shift is not None:
            alarms.append(shift)
    return alarms


def steady(n, level=0.010, jitter=0.001, seed=1):
    rng = random.Random(seed)
    return [level + rng.uniform(-jitter, jitter) for _ in range(n)]


def test_no_alarm_on_steady_series():
    detector = LevelShiftDetector()
    assert feed(detector, steady(300)) == []


def test_detects_level_shift():
    detector = LevelShiftDetector()
    series = steady(60) + steady(40, level=0.060, seed=2)
    alarms = feed(detector, series)
    assert len(alarms) == 1
    alarm = alarms[0]
    assert alarm.observed > alarm.baseline
    assert alarm.magnitude == pytest.approx(0.050, abs=0.01)
    assert 60 <= alarm.index <= 66


def test_isolated_spike_does_not_alarm():
    detector = LevelShiftDetector(confirm=3)
    series = steady(50) + [0.500] + steady(50, seed=3)
    assert feed(detector, series) == []


def test_adapts_after_shift_no_realarm():
    detector = LevelShiftDetector()
    series = steady(60) + steady(100, level=0.060, seed=4)
    alarms = feed(detector, series)
    assert len(alarms) == 1  # the new level becomes the baseline


def test_second_shift_alarms_again():
    detector = LevelShiftDetector()
    series = (steady(60) + steady(60, level=0.060, seed=5)
              + steady(60, level=0.200, seed=6))
    alarms = feed(detector, series)
    assert len(alarms) == 2


def test_small_variation_below_min_delta_ignored():
    detector = LevelShiftDetector(min_delta=0.050)
    series = steady(60) + steady(60, level=0.020, seed=7)
    assert feed(detector, series) == []


def test_warmup_suppresses_early_alarms():
    detector = LevelShiftDetector(warmup=20)
    series = [0.010] * 5 + [0.500] * 4
    assert feed(detector, series) == []


def test_reset_clears_state():
    detector = LevelShiftDetector()
    feed(detector, steady(60) + steady(20, level=0.100))
    assert detector.alarms
    detector.reset()
    assert detector.alarms == []
    assert feed(detector, steady(50)) == []


def test_constructor_validation():
    with pytest.raises(ValueError):
        LevelShiftDetector(window=2)
    with pytest.raises(ValueError):
        LevelShiftDetector(confirm=0)


def test_threshold_above_baseline():
    detector = LevelShiftDetector()
    feed(detector, steady(50))
    assert detector.threshold() > detector.baseline


@given(st.floats(min_value=0.001, max_value=0.1),
       st.floats(min_value=3.0, max_value=20.0))
@settings(max_examples=30, deadline=None)
def test_large_shift_always_detected(level, factor):
    detector = LevelShiftDetector(min_delta=0.0001)
    series = steady(60, level=level, jitter=level * 0.05)
    series += steady(30, level=level * factor, jitter=level * 0.05, seed=9)
    alarms = feed(detector, series)
    assert len(alarms) >= 1


# ---------------------------------------------------------------------------
# StaticThresholdDetector (the pluggability contrast)
# ---------------------------------------------------------------------------

from repro.core.outliers import StaticThresholdDetector


def test_static_detects_crossing():
    detector = StaticThresholdDetector(threshold=0.05)
    alarms = feed(detector, steady(30) + steady(30, level=0.08, seed=11))
    assert len(alarms) >= 1


def test_static_misses_shift_below_threshold():
    detector = StaticThresholdDetector(threshold=0.5)
    alarms = feed(detector, steady(30) + steady(30, level=0.3, seed=12))
    assert alarms == []


def test_static_never_adapts_and_alarm_storms():
    """The LS selling point (§6): once organic load crosses a static
    threshold, the naive detector alarms forever; LS adapts once."""
    series = steady(30) + steady(300, level=0.08, jitter=0.002, seed=13)
    static = StaticThresholdDetector(threshold=0.05)
    static_alarms = feed(static, series)
    adaptive = LevelShiftDetector(min_delta=0.001)
    adaptive_alarms = feed(adaptive, series)
    assert len(static_alarms) > 10 * max(1, len(adaptive_alarms))


def test_static_validation():
    import pytest as _pytest

    with _pytest.raises(ValueError):
        StaticThresholdDetector(threshold=0.0)
    with _pytest.raises(ValueError):
        StaticThresholdDetector(threshold=1.0, confirm=0)


def test_static_reset():
    detector = StaticThresholdDetector(threshold=0.01, confirm=1)
    feed(detector, [0.5, 0.5])
    assert detector.alarms
    detector.reset()
    assert detector.alarms == []


def test_static_alarm_index_is_sample_index():
    """Regression: ``LevelShift.index`` is documented as "sample index
    at confirmation" — the static detector used to store the *alarm
    count* instead."""
    detector = StaticThresholdDetector(threshold=0.05, confirm=2)
    series = [0.01, 0.01, 0.08, 0.09, 0.01, 0.08, 0.09]
    alarms = feed(detector, series)
    assert [alarm.index for alarm in alarms] == [4, 7]


def test_static_streak_identity_stable_across_alarms():
    """The streak buffer is cleared in place (not rebound), so the
    detector keeps alarming on every confirmed crossing."""
    detector = StaticThresholdDetector(threshold=0.05, confirm=2)
    streak = detector._streak
    feed(detector, [0.08, 0.09, 0.01, 0.08, 0.09, 0.08, 0.09])
    assert detector._streak is streak
    assert len(detector.alarms) == 3
    detector.reset()
    assert detector._streak is streak


def test_reference_counts_threshold_recomputes():
    detector = LevelShiftDetector()
    feed(detector, steady(50))
    before = detector.threshold_recomputes
    assert before > 0
    detector.threshold()
    detector.threshold()
    # The reference recomputes on *every* call — the contrast the
    # streamstats cache counter is measured against.
    assert detector.threshold_recomputes == before + 2
