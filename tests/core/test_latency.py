"""Tests for per-API latency tracking."""

from collections import Counter

import pytest

from repro.openstack.apis import ApiKind
from repro.openstack.wire import WireEvent
from repro.core.config import GretelConfig
from repro.core.latency import LatencyTracker
from repro.core.state import StateFormatError
from repro.core.streamstats import IncrementalLevelShiftDetector
from repro.oracle import LevelShiftDetector, ReferenceTracker


def make_event(seq, api_key, latency, ts=None, status=200, noise=False):
    ts = ts if ts is not None else seq * 0.1
    return WireEvent(
        seq=seq, api_key=api_key, kind=ApiKind.REST, method="GET",
        name="/x", src_service="a", src_node="n1", src_ip="1",
        dst_service="b", dst_node="n2", dst_ip="2",
        ts_request=ts - latency, ts_response=ts, status=status,
        noise=noise,
    )


def test_separate_series_per_api():
    tracker = LatencyTracker()
    tracker.observe(make_event(1, "api-a", 0.01))
    tracker.observe(make_event(2, "api-b", 0.01))
    assert tracker.series_count() == 2


def test_anomaly_on_level_shift():
    config = GretelConfig(ls_warmup=12, ls_confirm=3, ls_min_delta=0.004)
    tracker = LatencyTracker(config)
    seen = []
    tracker.on_anomaly(seen.append)
    for seq in range(60):
        tracker.observe(make_event(seq, "api-a", 0.010 + (seq % 3) * 0.0005))
    for seq in range(60, 80):
        tracker.observe(make_event(seq, "api-a", 0.080))
    assert len(seen) == 1
    anomaly = seen[0]
    assert anomaly.api_key == "api-a"
    assert anomaly.magnitude > 0.05
    assert tracker.anomalies == seen


def test_no_anomaly_on_steady_series():
    tracker = LatencyTracker()
    for seq in range(200):
        tracker.observe(make_event(seq, "api-a", 0.010 + (seq % 5) * 0.0004))
    assert tracker.anomalies == []


def test_anomaly_carries_triggering_event():
    tracker = LatencyTracker()
    for seq in range(40):
        tracker.observe(make_event(seq, "a", 0.01))
    result = None
    for seq in range(40, 60):
        result = result or tracker.observe(make_event(seq, "a", 0.2))
    assert result is not None
    assert result.event.api_key == "a"


def test_incremental_engine_selected_by_config():
    """Production trackers always run the incremental engine; the
    oracle-side tracker feeds the reference detector."""
    config = GretelConfig(ls_window=16)
    production = LatencyTracker(config).detector_for("a")
    assert isinstance(production, IncrementalLevelShiftDetector)
    assert production.window == 16
    reference = ReferenceTracker(config).detector_for("a")
    assert isinstance(reference, LevelShiftDetector)
    assert reference.window == 16


def test_restore_refuses_reference_series_state():
    """A checkpointed series from the retired reference detector
    (``ls-reference/v1``) fails loudly instead of restoring."""
    tracker = LatencyTracker()
    tracker.observe(make_event(1, "a", 0.01))
    state = tracker.snapshot_state()
    state["detectors"]["a"]["fmt"] = "ls-reference/v1"
    with pytest.raises(StateFormatError, match="ls-reference"):
        LatencyTracker().restore_state(state)


def shift_stream(apis=3, steady=50, shifted=25):
    """Interleaved multi-API stream where every API level-shifts."""
    events = []
    seq = 0
    for step in range(steady + shifted):
        for api in range(apis):
            latency = 0.010 + (step % 3) * 0.0005
            if step >= steady:
                latency = 0.080 + (step % 3) * 0.0005
            events.append(make_event(seq, f"api-{api}", latency))
            seq += 1
    return events


def test_batch_equals_serial_anomalies():
    """The grouped batch path must see exactly the serial gate and the
    serial per-API sample order: same anomaly multiset, same counters,
    with noise and error events excluded by both."""
    events = shift_stream()
    # Interleave gated events that neither path may observe.
    gated = [
        make_event(10_000, "api-0", 5.0, status=500),
        make_event(10_001, "api-1", 5.0, noise=True),
    ]
    stream = events[:30] + gated + events[30:]

    for tracker_type in (LatencyTracker, ReferenceTracker):
        serial = tracker_type()
        for event in stream:
            if not event.noise and not event.error:
                serial.observe(event)
        batched = tracker_type()
        observed = 0
        for start in range(0, len(stream), 17):
            observed += batched.observe_batch(stream[start:start + 17])
        assert observed == len(events)
        assert batched.ls_samples_fed == serial.ls_samples_fed

        def key(anomaly):
            return (
                anomaly.api_key, anomaly.ts,
                anomaly.observed, anomaly.baseline,
            )

        assert Counter(map(key, batched.anomalies)) == \
            Counter(map(key, serial.anomalies))
        assert len(batched.anomalies) == 3


def test_batch_gate_skips_noise_and_errors():
    tracker = LatencyTracker()
    fed = tracker.observe_batch([
        make_event(1, "a", 0.01),
        make_event(2, "a", 0.01, status=404),
        make_event(3, "a", 0.01, noise=True),
        make_event(4, "a", 0.01, status=399),
    ])
    assert fed == 2
    assert tracker.ls_samples_fed == 2


def test_threshold_recompute_counter_aggregates_series():
    tracker = LatencyTracker()
    tracker.observe_batch(shift_stream(apis=2))
    incremental_recomputes = tracker.ls_threshold_recomputes
    assert 0 < incremental_recomputes

    reference = ReferenceTracker()
    reference.observe_batch(shift_stream(apis=2))
    # The incremental cache recomputes at most once per window
    # mutation; the reference recomputes on every threshold() call.
    assert incremental_recomputes <= reference.ls_threshold_recomputes
