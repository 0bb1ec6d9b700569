"""Tests for the bounded-queue tenant session."""

import json

import pytest

from repro.core.analyzer import GretelAnalyzer
from repro.core.state import StateError
from repro.monitoring.store import MetadataStore
from repro.service import TenantSession

from .conftest import CONFIG


def build_session(library, **kwargs):
    analyzer = GretelAnalyzer(
        library, store=MetadataStore(), config=CONFIG,
    )
    return TenantSession("acme", analyzer, **kwargs)


def test_constructor_validation(library):
    with pytest.raises(ValueError, match="queue_capacity"):
        build_session(library, queue_capacity=0)
    with pytest.raises(ValueError, match="policy"):
        build_session(library, policy="drop-newest")


def test_submit_queues_without_analyzing(library, stream_events):
    session = build_session(library, queue_capacity=100)
    for event in stream_events[:10]:
        assert session.submit(event)
    assert session.queued == 10
    assert session.events_ingested == 10
    assert session.events_analyzed == 0
    assert session.drain() == 10
    assert session.queued == 0
    assert session.events_analyzed == 10


def test_block_policy_drains_synchronously(library, stream_events):
    session = build_session(library, queue_capacity=8, policy="block")
    for event in stream_events[:20]:
        assert session.submit(event)
    # Capacity 8: submits 9 and 17 each forced a drain of 8.
    assert session.events_shed == 0
    assert session.events_analyzed == 16
    assert session.queued == 4


def test_shed_policy_drops_and_counts(library, stream_events):
    session = build_session(library, queue_capacity=8, policy="shed")
    accepted = [session.submit(e) for e in stream_events[:20]]
    assert accepted == [True] * 8 + [False] * 12
    assert session.events_shed == 12
    assert session.queued == 8
    assert session.events_ingested == 8
    # Draining frees capacity again.
    session.drain()
    assert session.submit(stream_events[20])


def test_reports_fan_out_with_tenant(library, stream_events):
    session = build_session(library)
    seen = []
    session.on_report(lambda tenant, report: seen.append(tenant))
    for event in stream_events:
        session.submit(event)
    session.flush()
    assert session.reports_emitted > 0
    assert seen == ["acme"] * session.reports_emitted


def test_retention_ring_is_bounded(library, stream_events):
    session = build_session(library, report_retention=2)
    for event in stream_events:
        session.submit(event)
    session.flush()
    assert session.reports_emitted > 2
    assert len(session.recent_reports) == 2
    # The pipeline-internal logs were handed off: bounded memory.
    assert not session.analyzer.reports
    assert not session.analyzer.pipeline.tracker.anomalies


def test_snapshot_round_trip_mid_stream(library, stream_events):
    cut = len(stream_events) // 2
    straight = build_session(library)
    straight_reports = []
    straight.on_report(lambda t, r: straight_reports.append(r))
    for event in stream_events:
        straight.submit(event)
    straight.flush()

    first = build_session(library)
    for event in stream_events[:cut]:
        first.submit(event)
    # No drain before the snapshot: the queue is part of the state.
    state = json.loads(json.dumps(first.snapshot_state()))
    assert state["queue"]

    resumed = build_session(library)
    resumed_reports = []
    resumed.on_report(lambda t, r: resumed_reports.append(r))
    resumed.restore_state(state)
    assert resumed.queued == first.queued
    for event in stream_events[cut:]:
        resumed.submit(event)
    resumed.flush()

    from repro.oracle import report_signature

    # The resumed session replays only the tail, so its own emit count
    # is the straight run's minus what the first half already emitted.
    assert (
        first.reports_emitted + len(resumed_reports)
        == len(straight_reports)
    )
    assert (
        [report_signature(r) for r in resumed_reports]
        == [report_signature(r)
            for r in straight_reports[first.reports_emitted:]]
    )
    assert resumed.events_ingested == straight.events_ingested
    assert resumed.events_analyzed == straight.events_analyzed


def test_restore_refuses_foreign_tenant(library):
    session = build_session(library)
    state = session.snapshot_state()
    analyzer = GretelAnalyzer(
        library, store=MetadataStore(), config=CONFIG,
    )
    other = TenantSession("umbrella", analyzer)
    with pytest.raises(StateError, match="acme"):
        other.restore_state(state)
