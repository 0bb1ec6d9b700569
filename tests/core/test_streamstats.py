"""Tests for the streaming robust-statistics LS engine."""

import random
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import GretelConfig
from repro.core.outliers import _median
from repro.core.streamstats import (
    IncrementalLevelShiftDetector,
    SortedWindow,
    detector_from_config,
)
from repro.oracle import (
    Divergence,
    LevelShiftDetector,
    reference_levelshift,
    verify_levelshift,
)


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


# ---------------------------------------------------------------------------
# SortedWindow: parity with deque(maxlen) + sorted()
# ---------------------------------------------------------------------------


def reference_mad(values):
    med = _median(values)
    return _median([abs(v - med) for v in values])


def test_window_validation():
    with pytest.raises(ValueError):
        SortedWindow(0)


def test_window_empty_statistics_raise():
    window = SortedWindow(8)
    with pytest.raises(ValueError):
        window.mad(0.0)
    with pytest.raises(ValueError):
        window.bounds()


def test_window_eviction_matches_deque():
    window = SortedWindow(4)
    mirror = deque(maxlen=4)
    for value in [5.0, 1.0, 3.0, 2.0, 4.0, 0.5]:
        window.append(value)
        mirror.append(value)
        assert list(window) == list(mirror)
    assert window.bounds() == (min(mirror), max(mirror))


def test_window_version_bumps_on_every_mutation():
    window = SortedWindow(4)
    v0 = window.version
    window.append(1.0)
    assert window.version == v0 + 1
    window.clear()
    assert window.version == v0 + 2


def test_window_median_and_mad_small_cases():
    window = SortedWindow(8)
    window.append(3.0)
    assert window.median() == 3.0
    assert window.mad(3.0) == 0.0
    window.append(1.0)
    assert window.median() == 2.0
    assert window.mad(2.0) == reference_mad([3.0, 1.0])


@given(
    st.integers(min_value=1, max_value=25),
    st.lists(
        st.floats(
            min_value=-1e6, max_value=1e6,
            allow_nan=False, allow_infinity=False,
        ),
        min_size=1, max_size=120,
    ),
)
@settings(max_examples=200, deadline=None)
def test_window_statistics_match_reference(maxlen, values):
    """Median, MAD and bounds are bit-identical to the sort-from-
    scratch reference at every step of an arbitrary rolling stream."""
    window = SortedWindow(maxlen)
    mirror = deque(maxlen=maxlen)
    for value in values:
        window.append(value)
        mirror.append(value)
        current = list(mirror)
        assert list(window) == current
        assert window.median() == _median(current)
        assert window.mad(window.median()) == reference_mad(current)
        assert window.bounds() == (min(current), max(current))


def test_window_mad_with_duplicates():
    window = SortedWindow(6)
    for value in [2.0, 2.0, 2.0, 5.0, 5.0, 5.0]:
        window.append(value)
    assert window.mad(window.median()) == reference_mad([2.0] * 3 + [5.0] * 3)


# ---------------------------------------------------------------------------
# IncrementalLevelShiftDetector: reference LS semantics
# ---------------------------------------------------------------------------


def test_incremental_constructor_validation():
    with pytest.raises(ValueError):
        IncrementalLevelShiftDetector(window=2)
    with pytest.raises(ValueError):
        IncrementalLevelShiftDetector(confirm=0)


def test_incremental_detects_level_shift():
    detector = IncrementalLevelShiftDetector()
    series = steady(60) + steady(40, level=0.060, seed=2)
    alarms = feed(detector, series)
    assert len(alarms) == 1
    alarm = alarms[0]
    assert alarm.observed > alarm.baseline
    assert 60 <= alarm.index <= 66


def test_pending_samples_do_not_poison_baseline():
    """A broken confirm streak folds its pending samples back into the
    window in arrival order — exactly as the reference does — so the
    baselines of both detectors stay element-for-element identical."""
    reference = LevelShiftDetector(confirm=3)
    incremental = IncrementalLevelShiftDetector(confirm=3)
    # Two above-threshold spikes, then a normal value: streak breaks.
    series = steady(40) + [0.300, 0.310, 0.010]
    for index, value in enumerate(series):
        assert reference.update(float(index), value) is None
        assert incremental.update(float(index), value) is None
    window = list(incremental._baseline)
    assert list(reference._baseline) == window
    # The broken streak's samples rejoined the window, in order,
    # before the breaking value.
    assert window[-3:] == [0.300, 0.310, 0.010]
    assert reference.threshold() == incremental.threshold()


def test_alarm_once_per_shift_under_cooldown():
    """One sustained shift raises exactly one alarm: the cooldown and
    the post-alarm re-seed suppress the alarm storm."""
    detector = IncrementalLevelShiftDetector(cooldown=10.0)
    series = steady(60) + steady(120, level=0.080, seed=4)
    alarms = feed(detector, series)
    assert len(alarms) == 1


def test_second_shift_alarms_again():
    detector = IncrementalLevelShiftDetector()
    series = (steady(60) + steady(60, level=0.060, seed=5)
              + steady(60, level=0.200, seed=6))
    assert len(feed(detector, series)) == 2


def test_reset_clears_state_and_cache():
    detector = IncrementalLevelShiftDetector()
    feed(detector, steady(60) + steady(20, level=0.100))
    assert detector.alarms
    detector.reset()
    assert detector.alarms == []
    assert detector.baseline == 0.0
    assert feed(detector, steady(50)) == []


def test_threshold_cache_counts_recomputes():
    detector = IncrementalLevelShiftDetector()
    feed(detector, steady(50))
    # The last update appended after its threshold check, so one read
    # re-primes the cache; every read after that is a hit.
    detector.threshold()
    recomputes = detector.threshold_recomputes
    for _ in range(10):
        detector.threshold()
    assert detector.threshold_recomputes == recomputes
    # A mutation invalidates exactly once: the update's own threshold
    # check hits the primed cache, its append invalidates, the next
    # read recomputes, and the read after that hits again.
    detector.update(100.0, 0.010)
    detector.threshold()
    detector.threshold()
    assert detector.threshold_recomputes == recomputes + 1


def test_incremental_threshold_matches_reference_when_underfilled():
    reference = LevelShiftDetector()
    incremental = IncrementalLevelShiftDetector()
    for index, value in enumerate([0.01, 0.02]):
        reference.update(float(index), value)
        incremental.update(float(index), value)
    assert reference.threshold() == incremental.threshold()
    assert reference.spread == incremental.spread == float("inf")


# ---------------------------------------------------------------------------
# Differential oracle
# ---------------------------------------------------------------------------


def shift_series(draw_seed, n=400):
    """A random stream with occasional regime changes."""
    rng = random.Random(draw_seed)
    samples = []
    ts = 0.0
    level = 0.05
    for _ in range(n):
        ts += rng.uniform(0.01, 0.5)
        if rng.random() < 0.02:
            level *= rng.uniform(1.2, 5.0)
        samples.append((ts, level * rng.uniform(0.8, 1.3)))
    return samples


@given(
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=4, max_value=48),
    st.integers(min_value=1, max_value=5),
    st.floats(min_value=0.0, max_value=20.0),
)
@settings(max_examples=60, deadline=None)
def test_incremental_equivalent_to_reference(seed, window, confirm, cooldown):
    """The tentpole property: over random streams *and* random ls_*
    configurations, the incremental detector is bit-identical to the
    reference — every alarm field, every baseline, every threshold."""
    config = GretelConfig(
        ls_window=window,
        ls_confirm=confirm,
        ls_cooldown=cooldown,
        ls_warmup=confirm + 1,
        ls_min_delta=0.001,
    )
    result = verify_levelshift(shift_series(seed), config=config)
    assert result.ok
    assert result.facts["samples"] == 400


def test_oracle_counts_alarms():
    result = verify_levelshift(shift_series(7))
    assert result.ok
    assert result.facts["alarms"] >= 1
    assert "EQUIVALENT" in result.summary()


def test_oracle_flags_divergence():
    """Negative test: the oracle must *fail* when handed detectors
    that genuinely disagree (mismatched windows)."""
    samples = shift_series(3)
    detectors = (
        LevelShiftDetector(window=24),
        IncrementalLevelShiftDetector(window=8),
    )
    result = verify_levelshift(
        samples, detectors=detectors, strict=False
    )
    assert not result.ok
    assert "DIVERGED" in result.summary()
    with pytest.raises(Divergence) as excinfo:
        verify_levelshift(
            shift_series(3),
            detectors=(
                LevelShiftDetector(window=24),
                IncrementalLevelShiftDetector(window=8),
            ),
        )
    # Step a fresh pair by hand to the first sample they disagree on.
    reference = LevelShiftDetector(window=24)
    incremental = IncrementalLevelShiftDetector(window=8)
    for index, (ts, value) in enumerate(samples):
        expected = (reference.update(ts, value), reference.threshold(),
                    reference.baseline)
        actual = (incremental.update(ts, value), incremental.threshold(),
                  incremental.baseline)
        if expected != actual:
            break
    assert excinfo.value.oracle == "levelshift"
    assert result.mismatches[0].key == ("series", index)
    assert excinfo.value.first[0][1:] == expected[1:]
    assert excinfo.value.first[1][1:] == actual[1:]


def test_detector_from_config_honors_flag():
    """Production always builds the incremental detector; the
    reference is an oracle-side constructor."""
    config = GretelConfig()
    assert isinstance(
        detector_from_config(config), IncrementalLevelShiftDetector
    )
    assert isinstance(reference_levelshift(config), LevelShiftDetector)


def test_detector_from_config_wires_ls_knobs():
    config = GretelConfig(
        ls_window=16, ls_sigmas=5.0, ls_min_delta=0.01,
        ls_confirm=2, ls_warmup=8, ls_rel_delta=0.3, ls_cooldown=7.0,
    )
    for build in (reference_levelshift, detector_from_config):
        detector = build(config)
        assert detector.window == 16
        assert detector.sigmas == 5.0
        assert detector.min_delta == 0.01
        assert detector.confirm == 2
        assert detector.warmup == 8
        assert detector.rel_delta == 0.3
        assert detector.cooldown == 7.0
