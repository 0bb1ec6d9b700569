"""Streaming-service soak: one long-lived tenant session under load.

Replays the Fig. 8c synthetic stream (60K events at full scale) as
one *continuous* multi-pass feed — 10× the stream at full scale, with
timestamps and sequence numbers advancing across passes —
checkpointing to disk every pass, and asserts the three properties a
standing service must hold that a batch drain never exercises:

* **flat memory** — traced heap (``tracemalloc``) after the last pass
  stays within a small factor of the steady-state reference (taken
  after pass 2, once warmup caches and the retention ring have
  filled): the session's retention hand-off really does bound state
  by α + queue capacity + the retention ring, not by events ingested;
* **bounded state** — window ≤ α, queue empty post-flush, retention
  ring ≤ its cap, the pipeline's report log drained;
* **sustained throughput** — streaming-path events/s ≥ 90% of an
  in-run serial baseline draining the *same continuous multi-pass
  stream* (so both halves do steady-state work — warmed level-shift
  detectors cost more per event than a cold single pass), drift-gated
  against the committed full-scale baseline like every other
  benchmark.  Checkpoint writes are timed separately: a snapshot
  costs O(state), not O(events), so it amortizes with checkpoint
  interval instead of scaling with ingest.

Both halves run under tracemalloc — it slows allocation-heavy code
down several-fold, so timing one half outside it would skew the
ratio arbitrarily.

The second soak (``test_service_async_soak``) is the async ingest
router under the same discipline but multi-tenant and concurrent: N
producer threads × M tenant sessions on the **process backend** (the
production configuration — pump threads feeding per-tenant worker
pools), swept over tenant counts to show aggregate throughput
scaling with tenants, with the 4-tenant point gated at ≥3× the
committed sync-router baseline, the same flat-memory ceiling, and
both differential oracles (checkpoint and async, inline and process
backends) recorded as part of the committed artifact.

Artifacts: ``results/BENCH_service.json`` /
``results/BENCH_service_async.json`` (committed copies are
full-scale runs) and ``results/service_soak.txt`` /
``results/service_async_soak.txt``.
"""

import gc
import os
import threading
import time
import tracemalloc
from dataclasses import replace

from conftest import (
    assert_no_drift,
    full_scale,
    load_committed,
    save_committed,
)

from repro.core.analyzer import GretelAnalyzer
from repro.core.config import GretelConfig
from repro.monitoring.store import MetadataStore
from repro.oracle import verify_async, verify_checkpoint
from repro.service import CheckpointStore, StreamingService, TenantSession
from repro.workloads.traffic import SyntheticStream

FAULT_EVERY = 1000
ALPHA = 768          # the paper's testbed α, as in Fig. 8c
SEED = 5             # the Fig. 8c stream seed
QUEUE_CAPACITY = 4096
#: Small on purpose: the flat-memory assertion below measures the
#: session, and a roomy ring still filling up would read as growth.
RETENTION = 8

#: Acceptance floors (ISSUE 8): the long-lived session must sustain
#: ≥ this fraction of the serial drain's events/s, and the traced
#: heap after the final pass must stay within this factor of the
#: steady-state reference.
TARGET_THROUGHPUT_RATIO = 0.9
MEMORY_GROWTH_CEILING = 1.35

#: Acceptance floors (ISSUE 10): at 4 tenants the async router on the
#: process backend must sustain ≥ this multiple of the committed
#: sync-router service baseline, and aggregate throughput must scale
#: with tenant count — the 4-tenant point beats the 1-tenant point.
#: Like the speedup gate, the scaling gate is enforced at full scale
#: only: a smoke sweep times 2-3 passes per leg, which is scheduler
#: noise, not a slope (observed 0.79x-1.57x across identical smoke
#: runs).  The floor is also core-aware: on a single-core runner one
#: tenant's worker already saturates the CPU, so cross-tenant
#: parallelism cannot raise aggregate throughput and the gate
#: degrades to "no collapse" — adding tenants must not *lose*
#: throughput to contention.  The hard perf gate everywhere is the
#: speedup over the sync router, which comes from moving analysis
#: off the submitters' thread entirely.
TARGET_ASYNC_SPEEDUP = 3.0
TARGET_TENANT_SCALING = 1.1
SINGLE_CORE_COLLAPSE_FLOOR = 0.8

#: Tenant-count sweep for the async soak: (tenants, timed passes).
#: Every leg gets one extra untimed warmup pass (worker-pool spawn,
#: cold caches).  Full scale totals ~12.5M events across the sweep.
ASYNC_SWEEP_FULL = ((1, 10), (2, 20), (4, 38))
ASYNC_SWEEP_SMALL = ((1, 2), (2, 2), (4, 3))


def _committed_baseline():
    """The committed full-scale baseline payload, or None if absent."""
    return load_committed("BENCH_service.json")


def _pass_events(events, index, stride, count_stride):
    """Pass ``index`` of the continuous replay.

    Each pass advances timestamps and sequence numbers by one stream
    length — replaying identical timestamps would send time backwards
    at every pass boundary, which is a pathological stream (level-
    shift baselines invalidate, pending snapshots mis-order), not a
    soak.  Pass 0 is the original list, so the two halves below see
    byte-identical streams without holding ``passes`` copies alive.
    """
    if index == 0:
        return events
    dt = stride * index
    dseq = count_stride * index
    return [
        replace(
            event,
            seq=event.seq + dseq,
            ts_request=event.ts_request + dt,
            ts_response=event.ts_response + dt,
        )
        for event in events
    ]


def _drain_serial(library, events, config, passes, stride, count):
    """In-run baseline: one batch analyzer draining the same
    continuous multi-pass stream; returns (events/s, reports)."""
    analyzer = GretelAnalyzer(
        library, store=MetadataStore(), config=config,
    )
    on_event = analyzer.on_event
    started = time.perf_counter()
    for index in range(passes):
        for event in _pass_events(events, index, stride, count):
            on_event(event)
    elapsed = time.perf_counter() - started
    return (passes * count) / elapsed, len(analyzer.reports)


def _render(payload):
    lines = [
        "service soak — one tenant session, "
        f"{payload['passes']}x {payload['events_per_pass']} events "
        f"(scale: {payload['scale']})",
        "",
        f"{'serial drain':>22s} {payload['serial_events_per_s']:12,.0f}"
        " events/s",
        f"{'service session':>22s} {payload['service_events_per_s']:12,.0f}"
        " events/s"
        f"  (ratio {payload['throughput_ratio']:.2f})",
        "",
        f"{'steady-state heap':>22s} {payload['heap_steady_bytes']:12,d} B"
        "  (after pass 2)",
        f"{'heap after last pass':>22s} {payload['heap_last_bytes']:12,d} B"
        f"  (growth {payload['heap_growth']:.2f}x)",
        "",
        f"reports: {payload['reports']}, checkpoints: "
        f"{payload['checkpoints_written']} "
        f"({payload['checkpoint_seconds']:.2f}s), "
        f"{payload['events_shed']} events shed",
    ]
    return "\n".join(lines)


def test_service_soak(character, save_result, tmp_path):
    library = character.library
    passes = 10 if full_scale() else 3
    event_count = 60_000 if full_scale() else 12_000
    stream = SyntheticStream(
        library, library.symbols, fault_every=FAULT_EVERY, seed=SEED,
    )
    events = stream.events(event_count)
    config = GretelConfig(alpha=ALPHA)
    stride = (
        events[-1].ts_response - events[0].ts_request
        + 1.0 / stream.rate_pps
    )

    # Untimed warmup: the first drain pays one-off costs (lazy catalog
    # construction, symbol-encode caches) that would otherwise land
    # entirely on whichever half runs first.
    _drain_serial(library, events, config, 1, stride, event_count)

    gc.collect()
    tracemalloc.start()
    serial_eps, serial_reports = _drain_serial(
        library, events, config, passes, stride, event_count,
    )

    store = CheckpointStore(tmp_path / "soak-checkpoints")
    session = TenantSession(
        "soak",
        GretelAnalyzer(library, store=MetadataStore(), config=config),
        queue_capacity=QUEUE_CAPACITY,
        policy="block",
        report_retention=RETENTION,
    )
    sink_counts = {"reports": 0}

    def _count(tenant, report):
        # Count only — a sink that retains report objects (each holds
        # its matched-event list) would read as heap growth.
        sink_counts["reports"] += 1

    session.on_report(_count)

    heap_per_pass = []
    elapsed = 0.0
    checkpoint_seconds = 0.0
    for index in range(passes):
        # The streaming path is on the throughput clock — replay
        # construction mirrors the serial half, submit/drain is the
        # session.  The per-pass checkpoint is timed separately: its
        # cost is constant per snapshot (state size ~α + queue), not
        # per event, so it amortizes with pass length instead of
        # scaling with it.  The gc + heap probe is instrumentation.
        started = time.perf_counter()
        replay = _pass_events(events, index, stride, event_count)
        for event in replay:
            session.submit(event)
        session.drain()
        elapsed += time.perf_counter() - started
        started = time.perf_counter()
        store.save("soak", session.snapshot_state(),
                   seq=session.events_ingested)
        checkpoint_seconds += time.perf_counter() - started
        # Release this pass's replay copy before measuring, so the
        # heap series tracks the session, not the measurement loop.
        replay = None
        gc.collect()
        heap_per_pass.append(tracemalloc.get_traced_memory()[0])
    tracemalloc.stop()
    service_eps = (passes * event_count) / elapsed

    # Steady-state heap reference: after pass 2 the warmup caches are
    # built and the retention ring holds full-stream reports; from
    # there on the session must be flat.
    heap_steady = heap_per_pass[min(1, len(heap_per_pass) - 1)]
    growth = heap_per_pass[-1] / heap_steady
    ratio = service_eps / serial_eps

    payload = {
        "scale": "full" if full_scale() else "small",
        "passes": passes,
        "events_per_pass": event_count,
        "alpha": ALPHA,
        "queue_capacity": QUEUE_CAPACITY,
        "report_retention": RETENTION,
        "serial_events_per_s": round(serial_eps, 1),
        "service_events_per_s": round(service_eps, 1),
        "throughput_ratio": round(ratio, 4),
        "heap_steady_bytes": heap_steady,
        "heap_last_bytes": heap_per_pass[-1],
        "heap_growth": round(growth, 4),
        "reports": session.reports_emitted,
        "events_shed": session.events_shed,
        "checkpoints_written": store.writes,
        "checkpoint_seconds": round(checkpoint_seconds, 3),
        "acceptance": {
            "target_throughput_ratio": TARGET_THROUGHPUT_RATIO,
            "achieved_throughput_ratio": round(ratio, 4),
            "memory_growth_ceiling": MEMORY_GROWTH_CEILING,
            "achieved_memory_growth": round(growth, 4),
        },
    }
    committed = _committed_baseline()
    # The committed JSON is a full-scale run; the small smoke scale
    # must not clobber it with reduced-stream numbers.
    if full_scale():
        save_committed("BENCH_service.json", payload)
        save_result("service_soak", _render(payload))
    else:
        print()
        print(_render(payload))

    # Correctness first: the session consumed the identical continuous
    # stream the serial baseline did, so its published reports must
    # match exactly — the queue changes *when* events are analyzed,
    # never *what* is diagnosed.
    assert session.events_analyzed == passes * event_count
    assert session.events_shed == 0
    assert session.reports_emitted == serial_reports
    assert sink_counts["reports"] == session.reports_emitted

    # Bounded state: a long-lived session must not grow with ingest.
    session.flush()
    assert session.queued == 0
    assert len(session.analyzer.window) <= ALPHA
    assert len(session.recent_reports) <= RETENTION
    assert not session.analyzer.reports, (
        "pipeline report log not drained — session memory would grow "
        "with every fault"
    )

    # Flat memory: heap after the last pass vs the steady state.
    assert growth <= MEMORY_GROWTH_CEILING, (
        f"traced heap grew {growth:.2f}x across {passes} passes "
        f"({heap_steady:,d} -> {heap_per_pass[-1]:,d} bytes); "
        f"ceiling {MEMORY_GROWTH_CEILING}x"
    )

    # Sustained throughput: the queue hand-off must stay in the noise
    # next to the pipeline itself.
    assert ratio >= TARGET_THROUGHPUT_RATIO, (
        f"service session sustained only {ratio:.2f}x the serial "
        f"drain ({service_eps:,.0f} vs {serial_eps:,.0f} events/s); "
        f"floor {TARGET_THROUGHPUT_RATIO}x"
    )
    # Drift gate: service-layer refactors must not erode the ratio.
    if full_scale() and committed is not None:
        assert_no_drift(
            "service/serial throughput ratio",
            ratio,
            committed["acceptance"]["achieved_throughput_ratio"],
        )


# ---------------------------------------------------------------------------
# The async ingest router: N producers x M tenants, process backend
# ---------------------------------------------------------------------------

def _async_leg(
    library, events, config, tenants, passes, stride, count,
    checkpoint_dir, heap_series=None,
):
    """One sweep point: ``tenants`` pump sessions on the process
    backend, one producer thread per tenant (a single producer per
    tenant preserves per-tenant stream order, so every tenant must
    emit an identical report log — asserted below).

    Pass structure mirrors the sync soak: per pass the producers
    submit concurrently, the service drains (a quiesce barrier), and
    the per-pass checkpoint is timed separately.  Pass 0 is an
    untimed warmup (worker-pool spawn, cold caches).  Returns the
    leg's payload fragment.
    """
    store = CheckpointStore(checkpoint_dir)
    service = StreamingService(
        library,
        config=config,
        queue_capacity=QUEUE_CAPACITY,
        policy="block",
        report_retention=RETENTION,
        checkpoint_store=store,
        shards=1,
        backend="process",
        async_ingest=True,
    )
    sink_counts = {"reports": 0}

    def _count(tenant, report):
        # Count only — retaining report objects would read as heap
        # growth (each holds its matched-event list).  Fires on pump
        # threads; the single shared counter update is GIL-atomic
        # enough for a tally that is only read after the final join.
        sink_counts["reports"] += 1

    service.on_report(_count)
    # Sessions (and their worker processes) exist before any producer
    # thread starts: fork from a quiet parent (docs/service.md).
    keys = [f"soak-{index}" for index in range(tenants)]
    for key in keys:
        service.session(key)

    elapsed = 0.0
    checkpoint_seconds = 0.0
    try:
        for index in range(passes + 1):
            replay = _pass_events(events, index, stride, count)
            timed = index > 0
            started = time.perf_counter()
            producers = [
                threading.Thread(
                    target=lambda key=key: [
                        service.submit(event, tenant=key)
                        for event in replay
                    ],
                    name=f"soak-producer-{key}",
                )
                for key in keys
            ]
            for producer in producers:
                producer.start()
            for producer in producers:
                producer.join()
            service.drain()
            if timed:
                elapsed += time.perf_counter() - started
            started = time.perf_counter()
            service.checkpoint_all()
            if timed:
                checkpoint_seconds += time.perf_counter() - started
            replay = None
            if heap_series is not None and timed:
                gc.collect()
                heap_series.append(tracemalloc.get_traced_memory()[0])

        service.flush()
        total = tenants * (passes + 1) * count
        stats = service.stats()
        per_tenant_reports = sorted(
            live.reports_emitted for live in service.sessions.values()
        )
        # No loss, no duplication, nothing left behind: every offer
        # was accepted (block policy), analyzed, and — because each
        # tenant consumed the identical stream in the identical order
        # — diagnosed identically.
        assert stats.events_submitted == total
        assert stats.events_accepted == total
        assert stats.events_analyzed == total
        assert stats.events_shed == 0
        assert stats.queued == 0
        assert stats.reports == sink_counts["reports"]
        assert per_tenant_reports[0] == per_tenant_reports[-1], (
            f"tenants diverged: per-tenant report counts "
            f"{per_tenant_reports}"
        )
        for live in service.sessions.values():
            assert len(live.recent_reports) <= RETENTION
    finally:
        service.shutdown()
    for live in service.sessions.values():
        assert not live.pump_alive

    eps = (tenants * passes * count) / elapsed
    return {
        "tenants": tenants,
        "producers": tenants,
        "passes": passes,
        "events": total,
        "events_per_s": round(eps, 1),
        "events_accepted": stats.events_accepted,
        "reports_per_tenant": per_tenant_reports[0],
        "checkpoints_written": stats.checkpoints_written,
        "checkpoint_seconds": round(checkpoint_seconds, 3),
    }


def _run_oracles(library, events, config):
    """The committed artifact carries its own correctness record:
    checkpoint oracle (sync router) plus the async oracle on both
    analyzer backends."""
    checkpoint = verify_checkpoint(
        events, library, cuts=2, config=config, strict=True,
    )
    async_inline = verify_async(
        events, library, tenants=4, producers=4, config=config,
        strict=True,
    )
    async_process = verify_async(
        events, library, tenants=4, producers=4, config=config,
        shards=1, backend="process", strict=True,
    )
    return {
        "verify_checkpoint": {
            "ok": checkpoint.ok,
            "events": len(events),
            "cuts": len(checkpoint.facts["cuts"]),
        },
        "verify_async_inline": {
            "ok": async_inline.ok,
            "events": async_inline.facts["events"],
            "reports": async_inline.facts["async_reports"],
        },
        "verify_async_process": {
            "ok": async_process.ok,
            "events": async_process.facts["events"],
            "reports": async_process.facts["async_reports"],
        },
    }


def _render_async(payload):
    lines = [
        "service async soak — pump router, process backend "
        f"(scale: {payload['scale']})",
        "",
    ]
    for leg in payload["sweep"]:
        lines.append(
            f"{leg['tenants']:>8d} tenant(s) "
            f"{leg['events_per_s']:12,.0f} events/s"
            f"  ({leg['passes']}x{payload['events_per_pass']} "
            f"events each, {leg['reports_per_tenant']} reports/tenant)"
        )
    speedup = payload["speedup_vs_sync"]
    lines += [
        "",
        f"{'sync-router baseline':>22s} "
        f"{payload['sync_baseline_events_per_s'] or 0:12,.0f} events/s"
        "  (committed BENCH_service.json)",
        f"{'4-tenant speedup':>22s} "
        + (f"{speedup:11.2f}x" if speedup else "        n/a")
        + f"  (scaling 1->4: {payload['tenant_scaling']:.2f}x)",
        "",
        f"{'steady-state heap':>22s} "
        f"{payload['heap_steady_bytes']:12,d} B",
        f"{'heap after last pass':>22s} "
        f"{payload['heap_last_bytes']:12,d} B"
        f"  (growth {payload['heap_growth']:.2f}x)",
        "",
        "oracles: " + ", ".join(
            f"{name} {'PASS' if record['ok'] else 'FAIL'}"
            for name, record in payload["oracles"].items()
        ),
    ]
    return "\n".join(lines)


def test_service_async_soak(character, save_result, tmp_path):
    library = character.library
    sweep = ASYNC_SWEEP_FULL if full_scale() else ASYNC_SWEEP_SMALL
    event_count = 60_000 if full_scale() else 12_000
    oracle_count = 20_000 if full_scale() else 6_000
    stream = SyntheticStream(
        library, library.symbols, fault_every=FAULT_EVERY, seed=SEED,
    )
    events = stream.events(event_count)
    config = GretelConfig(alpha=ALPHA)
    stride = (
        events[-1].ts_response - events[0].ts_request
        + 1.0 / stream.rate_pps
    )

    # The whole sweep runs under tracemalloc, like the sync soak it
    # is compared against (the committed BENCH_service.json numbers
    # were measured with it on).
    gc.collect()
    tracemalloc.start()
    heap_series = []
    legs = []
    for tenants, passes in sweep:
        legs.append(_async_leg(
            library, events, config, tenants, passes, stride,
            event_count, tmp_path / f"async-ckpt-{tenants}",
            # The memory series tracks the biggest leg — the one the
            # flat-memory claim is about.
            heap_series=heap_series if tenants == 4 else None,
        ))
    tracemalloc.stop()

    by_tenants = {leg["tenants"]: leg for leg in legs}
    scaling = (
        by_tenants[4]["events_per_s"] / by_tenants[1]["events_per_s"]
    )
    heap_steady = heap_series[min(1, len(heap_series) - 1)]
    growth = heap_series[-1] / heap_steady

    # The speedup target compares full-scale numbers only: the
    # committed sync baseline is a full-scale run, and a reduced
    # smoke stream would flatter (cold detectors) or slander (warmup
    # amortized over fewer events) the ratio arbitrarily.
    sync_committed = _committed_baseline()
    sync_eps = (
        sync_committed["service_events_per_s"]
        if full_scale() and sync_committed is not None else None
    )
    speedup = (
        round(by_tenants[4]["events_per_s"] / sync_eps, 4)
        if sync_eps else None
    )

    oracles = _run_oracles(library, events[:oracle_count], config)

    cores = os.cpu_count() or 1
    scaling_floor = (
        TARGET_TENANT_SCALING
        if cores > 1
        else SINGLE_CORE_COLLAPSE_FLOOR
    )

    payload = {
        "scale": "full" if full_scale() else "small",
        "events_per_pass": event_count,
        "alpha": ALPHA,
        "queue_capacity": QUEUE_CAPACITY,
        "report_retention": RETENTION,
        "policy": "block",
        "backend": "process",
        "shards_per_tenant": 1,
        "sweep": legs,
        "sync_baseline_events_per_s": sync_eps,
        "speedup_vs_sync": speedup,
        "tenant_scaling": round(scaling, 4),
        "heap_steady_bytes": heap_steady,
        "heap_last_bytes": heap_series[-1],
        "heap_growth": round(growth, 4),
        "oracles": oracles,
        "acceptance": {
            "target_speedup_vs_sync": TARGET_ASYNC_SPEEDUP,
            "achieved_speedup_vs_sync": speedup,
            "target_tenant_scaling": TARGET_TENANT_SCALING,
            "tenant_scaling_floor_applied": scaling_floor,
            "runner_cpu_count": cores,
            "achieved_tenant_scaling": round(scaling, 4),
            "memory_growth_ceiling": MEMORY_GROWTH_CEILING,
            "achieved_memory_growth": round(growth, 4),
        },
    }
    committed = load_committed("BENCH_service_async.json")
    if full_scale():
        save_committed("BENCH_service_async.json", payload)
        save_result("service_async_soak", _render_async(payload))
    else:
        print()
        print(_render_async(payload))

    # Correctness: both differential oracles must hold on the very
    # stream the numbers were measured on.
    assert all(record["ok"] for record in oracles.values()), oracles

    # Flat memory under concurrent multi-tenant ingest.
    assert growth <= MEMORY_GROWTH_CEILING, (
        f"traced heap grew {growth:.2f}x across the 4-tenant soak "
        f"({heap_steady:,d} -> {heap_series[-1]:,d} bytes); "
        f"ceiling {MEMORY_GROWTH_CEILING}x"
    )

    # Aggregate throughput must scale with tenant count: the front
    # door is no longer one thread.  Full scale only — a smoke
    # sweep's slope is noise — and core-aware (see the constants
    # block).
    if full_scale():
        assert scaling >= scaling_floor, (
            f"4-tenant aggregate only {scaling:.2f}x the 1-tenant "
            f"aggregate; floor {scaling_floor}x ({cores} core(s))"
        )

    # The headline gate (full scale): 4-tenant async ingest vs the
    # committed sync-router service baseline.
    if speedup is not None:
        assert speedup >= TARGET_ASYNC_SPEEDUP, (
            f"4-tenant async router sustained only {speedup:.2f}x "
            f"the committed sync-router baseline "
            f"({by_tenants[4]['events_per_s']:,.0f} vs "
            f"{sync_eps:,.0f} events/s); floor "
            f"{TARGET_ASYNC_SPEEDUP}x"
        )
    # Drift gate: later refactors must not erode the speedup.
    if full_scale() and committed is not None:
        assert_no_drift(
            "async/sync 4-tenant speedup",
            speedup,
            committed["acceptance"]["achieved_speedup_vs_sync"],
        )
