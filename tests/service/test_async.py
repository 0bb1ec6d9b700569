"""Concurrency tests for the async ingest router (pump mode).

The pump router's contract (``docs/service.md``): concurrent
producers lose nothing under ``"block"``, account for everything
under ``"shed"``, checkpointing races cleanly with live pumps,
shutdown with producers still running neither deadlocks nor leaks a
pump thread, and the whole thing is observably identical to the sync
router (:func:`repro.oracle.verify_async` — including a negative
test proving the oracle actually trips on a tampered pump).
"""

import threading

import pytest

from repro.oracle import Divergence, report_signature, verify_async
from repro.service import CheckpointStore, StreamingService, bucket_tenant
from repro.service.session import TenantSession

from .conftest import CONFIG

TENANTS = 3
PRODUCERS = 4


def build_service(library, **kwargs):
    kwargs.setdefault("async_ingest", True)
    return StreamingService(library, config=CONFIG, **kwargs)


def partition(events, tenants=TENANTS):
    buckets = {}
    for event in events:
        key = bucket_tenant(event.tenant, tenants)
        buckets.setdefault(key, []).append(event)
    return buckets


def run_producers(service, jobs):
    """Drive ``submit`` from one thread per (tenant, slice) job."""
    threads = [
        threading.Thread(
            target=lambda work=work, key=key: [
                service.submit(event, tenant=key) for event in work
            ],
        )
        for key, work in jobs
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


# ---------------------------------------------------------------------------
# Pump lifecycle
# ---------------------------------------------------------------------------

def test_pump_thread_starts_and_joins(library, stream_events):
    service = build_service(library)
    service.submit(stream_events[0], tenant="acme")
    session = service.sessions["acme"]
    assert session.async_ingest
    assert session.pump_alive
    service.shutdown()
    assert not session.pump_alive
    assert session.sealed
    # Terminal and idempotent.
    service.shutdown()
    assert service.submit(stream_events[1], tenant="acme") is False


def test_sync_session_has_no_pump(library, stream_events):
    service = build_service(library, async_ingest=False)
    service.submit(stream_events[0], tenant="acme")
    session = service.sessions["acme"]
    assert not session.pump_alive
    with pytest.raises(RuntimeError, match="no pump thread"):
        session.pause()


# ---------------------------------------------------------------------------
# N producers x M tenants, both policies
# ---------------------------------------------------------------------------

def test_block_policy_concurrent_producers_lose_nothing(
    library, stream_events
):
    # A tiny queue forces real backpressure: producers must park on
    # the not-full condition and be woken by the pump.
    service = build_service(library, queue_capacity=16)
    buckets = partition(stream_events)
    for key in buckets:
        service.session(key)
    # Each tenant's stream is split across several producers —
    # disjoint slices, so per-tenant counters stay deterministic
    # even though interleaving is not.
    jobs = [
        (key, stream[lane::PRODUCERS])
        for key, stream in buckets.items()
        for lane in range(PRODUCERS)
    ]
    run_producers(service, jobs)
    service.flush()
    for key, stream in buckets.items():
        session = service.sessions[key]
        assert session.events_ingested == len(stream)
        assert session.events_analyzed == len(stream)
        assert session.events_shed == 0
        assert session.queued == 0
    stats = service.stats()
    assert stats.events_submitted == len(stream_events)
    assert stats.events_accepted == len(stream_events)
    assert stats.events_analyzed == len(stream_events)
    service.shutdown()


def test_shed_policy_concurrent_producers_account_for_everything(
    library, stream_events
):
    # Capacity 1 makes shedding near-certain, but the invariant below
    # holds at any drop rate: every offer is either accepted (and
    # eventually analyzed) or counted shed — never lost, never
    # duplicated.
    service = build_service(
        library, queue_capacity=1, policy="shed",
    )
    buckets = partition(stream_events)
    for key in buckets:
        service.session(key)
    jobs = [
        (key, stream[lane::PRODUCERS])
        for key, stream in buckets.items()
        for lane in range(PRODUCERS)
    ]
    run_producers(service, jobs)
    service.flush()
    for key, stream in buckets.items():
        session = service.sessions[key]
        offered = len(stream)
        assert session.events_ingested + session.events_shed == offered
        assert session.events_analyzed == session.events_ingested
        assert session.queued == 0
    stats = service.stats()
    assert stats.events_submitted == len(stream_events)
    assert stats.events_accepted == stats.events_analyzed
    assert (
        stats.events_accepted + stats.events_shed
        == len(stream_events)
    )
    service.shutdown()


# ---------------------------------------------------------------------------
# Checkpoint-while-pumping race
# ---------------------------------------------------------------------------

def test_checkpoint_races_cleanly_with_live_pump(
    library, stream_events, tmp_path
):
    store = CheckpointStore(tmp_path)
    service = build_service(
        library, checkpoint_store=store, queue_capacity=32,
    )
    bucket = partition(stream_events)["tenant-0"]
    service.session("acme")

    producer = threading.Thread(
        target=lambda: [
            service.submit(event, tenant="acme") for event in bucket
        ],
    )
    producer.start()
    # Snapshot repeatedly while the pump is mid-stream.  Each call
    # must park the pump at an event boundary and persist a
    # monotonically growing watermark.
    watermarks = []
    for _ in range(5):
        service.checkpoint("acme")
        watermarks.append(store.load("acme")["events_analyzed"])
    producer.join()
    service.flush()
    service.checkpoint("acme")
    assert watermarks == sorted(watermarks)
    state = store.load("acme")
    assert state["events_analyzed"] == len(bucket)
    assert state["queue"] == []
    service.shutdown()


def test_async_checkpoint_resume_matches_straight_run(
    library, stream_events, tmp_path
):
    """Kill-and-resume through the pump router replays to the same
    per-tenant reports as one uninterrupted async run.  As in the
    sync invariant: checkpoint after a *quiesce*, never a flush —
    flush is an end-of-stream operation."""
    def sink(service):
        sigs = []
        service.on_report(
            lambda t, r: sigs.append((t, report_signature(r)))
        )
        return sigs

    straight = build_service(library)
    straight_sigs = sink(straight)
    for event in stream_events:
        straight.submit(
            event, tenant=bucket_tenant(event.tenant, TENANTS)
        )
    straight.flush()
    straight.shutdown()

    cut = len(stream_events) // 2
    store = CheckpointStore(tmp_path)
    first = build_service(library, checkpoint_store=store)
    first_sigs = sink(first)
    for event in stream_events[:cut]:
        first.submit(
            event, tenant=bucket_tenant(event.tenant, TENANTS)
        )
    # Quiesce (pumps finish what was accepted, nothing is frozen),
    # persist, then kill: close the pumps without ever flushing.
    first.drain()
    first.checkpoint_all()
    for live in first.sessions.values():
        live.close()

    second = build_service(library, checkpoint_store=store)
    second_sigs = sink(second)
    assert second.restore_all() == len(first.sessions)
    for event in stream_events[cut:]:
        second.submit(
            event, tenant=bucket_tenant(event.tenant, TENANTS)
        )
    second.flush()
    combined = first_sigs + second_sigs
    assert sorted(combined) == sorted(straight_sigs)
    assert second.stats().events_analyzed == len(stream_events)
    second.shutdown()


# ---------------------------------------------------------------------------
# Shutdown with producers still running
# ---------------------------------------------------------------------------

def test_shutdown_with_live_producers_neither_deadlocks_nor_leaks(
    library, stream_events
):
    service = build_service(library, queue_capacity=8)
    buckets = partition(stream_events)
    for key in buckets:
        service.session(key)
    release = threading.Event()

    def produce(key, stream):
        # Loop the slice until sealed: submit() returning False is
        # the producer's only stop signal.
        while True:
            for event in stream:
                if not service.submit(event, tenant=key):
                    return
            release.set()

    threads = [
        threading.Thread(target=produce, args=(key, stream))
        for key, stream in buckets.items()
    ]
    for thread in threads:
        thread.start()
    release.wait(timeout=60)  # let at least one full pass land
    service.shutdown()
    for thread in threads:
        thread.join(timeout=60)
        assert not thread.is_alive()
    for live in service.sessions.values():
        assert live.sealed
        assert not live.pump_alive
        assert live.queued == 0
        # Everything accepted before the seal was still analyzed.
        assert live.events_analyzed == live.events_ingested
    service.shutdown()  # idempotent


# ---------------------------------------------------------------------------
# The differential oracle
# ---------------------------------------------------------------------------

def test_verify_async_inline_backend(library, stream_events):
    result = verify_async(
        stream_events, library,
        tenants=TENANTS, producers=2, config=CONFIG,
        queue_capacity=64,
    )
    assert result.ok
    assert result.facts["sync_reports"] == result.facts["async_reports"] > 0
    assert result.missing == [] and result.extra == []
    assert result.to_dict()["counter_diff"] == {}
    assert result.to_dict()["ok"] is True
    assert "EQUIVALENT" in result.summary()


def test_verify_async_process_backend(library, stream_events):
    # Pump threads driving process-backed worker pools: the pipe
    # protocol must stay per-tenant FIFO (workers.ProcessShard._io).
    result = verify_async(
        stream_events[:400], library,
        tenants=2, producers=2, config=CONFIG,
        shards=2, backend="process",
    )
    assert result.ok


def test_tampered_pump_trips_the_oracle(
    library, stream_events, monkeypatch
):
    # Swallow every claimed chunk: the pumps count the events but
    # never analyze them, so the async half emits no reports.  The
    # sync half never touches _pump_step and is unaffected.
    monkeypatch.setattr(
        TenantSession, "_pump_step", lambda self, chunk: None,
    )
    with pytest.raises(Divergence, match="DIVERGED") as excinfo:
        verify_async(
            stream_events, library,
            tenants=TENANTS, producers=2, config=CONFIG,
        )
    # Every sync report is missing; the lowest one is named first.
    assert excinfo.value.oracle == "async"
    result = excinfo.value.result
    assert result.facts["async_reports"] == 0
    assert excinfo.value.first == (min(result.missing), None)


def test_verify_async_rejects_bad_arguments(library, stream_events):
    with pytest.raises(ValueError, match="tenants"):
        verify_async(stream_events, library, tenants=0, config=CONFIG)
    with pytest.raises(ValueError, match="producers"):
        verify_async(
            stream_events, library, producers=0, config=CONFIG,
        )


# ---------------------------------------------------------------------------
# Pump failure containment
# ---------------------------------------------------------------------------

def test_pump_death_seals_session_and_surfaces_on_flush(
    library, stream_events, monkeypatch
):
    def explode(self, chunk):
        raise RuntimeError("pipeline blew up")

    monkeypatch.setattr(TenantSession, "_pump_step", explode)
    service = build_service(library)
    service.submit(stream_events[0], tenant="acme")
    session = service.sessions["acme"]
    # The pump records the error, seals the door, and exits.
    session.quiesce()
    assert session.sealed
    assert service.submit(stream_events[1], tenant="acme") is False
    with pytest.raises(RuntimeError, match="pump thread died"):
        session.flush()
