"""Tests for the multi-tenant streaming service front door."""

import pytest

from repro.oracle import report_signature
from repro.service import CheckpointStore, StreamingService
from repro.service.manager import DEFAULT_TENANT

from .conftest import CONFIG


def build_service(library, **kwargs):
    return StreamingService(library, config=CONFIG, **kwargs)


def test_routes_by_event_tenant(library, stream_events):
    service = build_service(library)
    service.pump(stream_events[:40])
    # The synthetic stream stamps per-operation tenant ids.
    assert len(service.sessions) > 1
    assert set(service.sessions) == {
        e.tenant for e in stream_events[:40]
    }
    stats = service.stats()
    assert stats.events_submitted == 40
    assert stats.tenants == len(service.sessions)


def test_explicit_tenant_overrides_event_tenant(library, stream_events):
    service = build_service(library)
    service.pump(stream_events[:10], tenant="override")
    assert list(service.sessions) == ["override"]


def test_untagged_events_land_in_default_session(library, stream_events):
    from dataclasses import replace

    service = build_service(library)
    service.submit(replace(stream_events[0], tenant=""))
    assert list(service.sessions) == [DEFAULT_TENANT]


def test_checkpoint_requires_store(library, stream_events):
    service = build_service(library)
    service.submit(stream_events[0])
    with pytest.raises(ValueError, match="no checkpoint store"):
        service.checkpoint_all()


def test_checkpoint_every_validation(library):
    with pytest.raises(ValueError, match="checkpoint_every"):
        build_service(library, checkpoint_every=-1)


def test_checkpoint_unknown_tenant_raises(
    library, stream_events, tmp_path
):
    """checkpoint() must not conjure an empty session for a typo'd
    tenant — unknown tenants are a KeyError, and the session table
    stays untouched."""
    store = CheckpointStore(tmp_path)
    service = build_service(library, checkpoint_store=store)
    service.submit(stream_events[0], tenant="acme")
    service.checkpoint("acme")
    with pytest.raises(KeyError, match="unknown tenant 'ghost'"):
        service.checkpoint("ghost")
    assert list(service.sessions) == ["acme"]
    assert store.tenants() == ["acme"]


def test_stats_split_submitted_vs_accepted(library, stream_events):
    """Offers and acceptances are separate counters; shed is exactly
    their difference."""
    service = build_service(
        library, queue_capacity=8, policy="shed",
    )
    for event in stream_events[:40]:
        service.submit(event, tenant="acme")
    stats = service.stats()
    assert stats.events_submitted == 40
    assert stats.events_accepted == 8
    assert stats.events_shed == 32
    assert service.events_submitted == 40
    assert service.events_accepted == 8
    document = stats.to_dict()
    assert document["events_submitted"] == 40
    assert document["events_accepted"] == 8


def test_periodic_checkpoints_fire_per_tenant(library, stream_events, tmp_path):
    store = CheckpointStore(tmp_path)
    service = build_service(
        library, checkpoint_store=store, checkpoint_every=10,
    )
    service.pump(stream_events[:60], tenant="acme")
    assert service.checkpoints_written == 6
    assert store.tenants() == ["acme"]


def test_close_flushes_then_checkpoints(library, stream_events, tmp_path):
    store = CheckpointStore(tmp_path)
    service = build_service(library, checkpoint_store=store)
    service.pump(stream_events, tenant="acme")
    service.close()
    session = service.sessions["acme"]
    assert session.queued == 0
    assert session.events_analyzed == len(stream_events)
    state = store.load("acme")
    assert state["events_analyzed"] == len(stream_events)


def test_report_sinks_cover_current_and_future_sessions(
    library, stream_events
):
    service = build_service(library)
    seen = []
    service.pump(stream_events[:5], tenant="early")
    service.on_report(lambda tenant, report: seen.append(tenant))
    service.pump(stream_events, tenant="late")
    service.flush()
    stats = service.stats()
    assert stats.reports > 0
    assert len(seen) == stats.reports
    assert "late" in seen


def test_kill_and_resume_equals_straight_run(library, stream_events, tmp_path):
    """The service-level restart invariant: checkpoint (no flush!),
    abandon the process, start a fresh service over the same store,
    finish the stream — reports match the uninterrupted run."""
    straight = build_service(library)
    straight_reports = []
    straight.on_report(lambda t, r: straight_reports.append((t, r)))
    straight.pump(stream_events)
    straight.flush()

    cut = len(stream_events) // 2
    store = CheckpointStore(tmp_path)
    first = build_service(library, checkpoint_store=store)
    first_reports = []
    first.on_report(lambda t, r: first_reports.append((t, r)))
    first.pump(stream_events[:cut])
    # Mid-stream durability point: checkpoint *without* flushing —
    # flush() is an end-of-stream operation that would freeze pending
    # snapshots early and diverge from the straight run.
    first.checkpoint_all()

    resumed = build_service(library, checkpoint_store=store)
    resumed_reports = []
    resumed.on_report(lambda t, r: resumed_reports.append((t, r)))
    # Up-front resurrection: tenants that never reappear in the tail
    # must still finish their pending analysis at the final flush.
    assert resumed.restore_all() == len(first.sessions)
    resumed.pump(stream_events[cut:])
    resumed.flush()

    # Compare as multisets: emit order follows session-creation order,
    # which legitimately differs between a straight run (tenants in
    # first-appearance order) and a resurrected one (sorted store
    # order).  Per (tenant, signature) the diagnosis must be identical.
    combined = first_reports + resumed_reports
    assert len(combined) == len(straight_reports)
    assert (
        sorted((t, report_signature(r)) for t, r in combined)
        == sorted((t, report_signature(r)) for t, r in straight_reports)
    )
    stats = resumed.stats()
    assert stats.events_analyzed == len(stream_events)


def test_restore_false_starts_fresh(library, stream_events, tmp_path):
    store = CheckpointStore(tmp_path)
    first = build_service(library, checkpoint_store=store)
    first.pump(stream_events[:100], tenant="acme")
    first.checkpoint_all()

    fresh = build_service(
        library, checkpoint_store=store, restore=False,
    )
    fresh.pump(stream_events[100:110], tenant="acme")
    assert fresh.sessions_restored == 0
    assert fresh.sessions["acme"].events_ingested == 10


# ---------------------------------------------------------------------------
# Sharded / process-backed session analyzers
# ---------------------------------------------------------------------------

def _published(service):
    reports = []
    service.on_report(lambda tenant, report: reports.append(
        (tenant, report_signature(report))
    ))
    return reports


def test_sharded_sessions_match_serial_sessions(library, stream_events):
    serial = build_service(library)
    serial_reports = _published(serial)
    serial.pump(stream_events)
    serial.flush()

    sharded = build_service(library, shards=2)
    sharded_reports = _published(sharded)
    sharded.pump(stream_events)
    sharded.flush()

    assert sorted(sharded_reports) == sorted(serial_reports)
    assert sharded.stats().events_analyzed == \
        serial.stats().events_analyzed


def test_process_backend_sessions_match_serial(library, stream_events):
    serial = build_service(library)
    serial_reports = _published(serial)
    serial.pump(stream_events)
    serial.flush()

    service = build_service(library, shards=2, backend="process")
    process_reports = _published(service)
    try:
        service.pump(stream_events)
        service.flush()
        assert sorted(process_reports) == sorted(serial_reports)
        assert len(process_reports) > 0
        assert service.stats().events_analyzed == len(stream_events)
    finally:
        service.shutdown()
    # Shutdown is terminal for the worker pools…
    for live in service.sessions.values():
        assert all(shard.closed for shard in live.analyzer.shards)
    # …and idempotent.
    service.shutdown()


def test_process_backend_checkpoint_and_resume(
    library, stream_events, tmp_path,
):
    cut = 500
    store = CheckpointStore(tmp_path)

    first = build_service(
        library, shards=2, backend="process", checkpoint_store=store,
    )
    first_reports = _published(first)
    first.pump(stream_events[:cut])
    first.drain()
    first.shutdown()  # checkpoints, then stops the worker pools

    second = build_service(
        library, shards=2, backend="process", checkpoint_store=store,
    )
    second_reports = _published(second)
    try:
        second.pump(stream_events[cut:])
        second.flush()
    finally:
        second.shutdown()

    straight = build_service(library, shards=2)
    straight_reports = _published(straight)
    straight.pump(stream_events)
    straight.flush()

    assert sorted(first_reports + second_reports) == \
        sorted(straight_reports)


def test_service_shard_validation(library):
    with pytest.raises(ValueError, match="shards"):
        build_service(library, shards=0)
