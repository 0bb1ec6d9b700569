"""The six differential oracles, all reporting through the harness.

==============  ===========================  ========================
oracle          reference half               candidate half
==============  ===========================  ========================
``shards``      serial analyzer              sharded analyzer
``detection``   full scan + from-scratch     compiled index +
                scorer                       incremental scorer
``selection``   full candidate scan          compiled index
``levelshift``  re-sorting LS detector       incremental LS detector
``checkpoint``  one uninterrupted replay     replay killed and
                                             restored at K cuts
``async``       sync service router          pump-thread router
==============  ===========================  ========================

Each oracle keeps its own signature function — what "the same
output" means differs per layer — and returns an
:class:`~repro.oracle.harness.OracleResult`; with ``strict`` (the
default) a divergence raises :class:`~repro.oracle.harness.
Divergence` instead.  See ``docs/architecture.md`` ("Oracles").
"""

from __future__ import annotations

import json
import threading
from dataclasses import asdict, astuple
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.analyzer import GretelAnalyzer
from repro.core.config import GretelConfig
from repro.core.detector import (
    DetectionResult,
    OperationDetector,
    _Candidate,
)
from repro.core.fingerprint import FingerprintLibrary
from repro.core.parallel import (
    DEFAULT_BATCH_SIZE,
    ShardedAnalyzer,
    source_node_key,
)
from repro.core.reports import FaultReport
from repro.core.streamstats.detector import detector_from_config
from repro.core.symbols import SymbolTable
from repro.core.window import Snapshot
from repro.monitoring.store import MetadataStore
from repro.openstack.catalog import ApiCatalog, default_catalog
from repro.openstack.wire import WireEvent
from repro.oracle.harness import (
    Mismatch,
    OracleResult,
    compare_multisets,
    compare_sequences,
)
from repro.oracle.reference import ReferenceDetector, reference_levelshift
from repro.service.manager import StreamingService, bucket_tenant

if TYPE_CHECKING:  # the detector compiles its index lazily, too
    from repro.analysis.compile import CompiledIndex

# ---------------------------------------------------------------------------
# Signatures
# ---------------------------------------------------------------------------

#: Report signature: (kind, fault seq, matched operations, θ, causes).
ReportSignature = Tuple[str, int, Tuple[str, ...], float,
                        Tuple[Tuple[str, str, str], ...]]

#: (fault seq, operations, θ, β_used, iterations, candidates,
#:  window span, per-operation coverages, matched event seqs).
DetectionSignature = Tuple[
    int, Tuple[str, ...], float, int, int, int,
    Tuple[float, float],
    Tuple[Tuple[str, float], ...],
    Tuple[int, ...],
]

#: Complete comparable identity of one prepared candidate.
CandidateSignature = Tuple[str, str, Tuple[int, ...], str, bool]

#: Per LS sample: (alarm fields or None, threshold, baseline).
SampleSignature = Tuple[Optional[Tuple[Any, ...]], float, float]


def report_signature(report: FaultReport) -> ReportSignature:
    """Order-independent identity of one report, for set comparison.

    Captures everything an operator acts on — fault kind and wire
    event, the matched operation set, the detection precision θ and
    the root-cause findings — while ignoring wall-clock measurement
    fields (``analysis_seconds``) that legitimately differ between
    runs.
    """
    return (
        report.kind,
        report.fault_event.seq,
        tuple(report.detection.operations),
        report.detection.theta,
        tuple(sorted((c.node, c.kind, c.subject)
                     for c in report.root_causes)),
    )


def detection_signature(result: DetectionResult) -> DetectionSignature:
    """Complete comparable identity of one detection outcome.

    Coverages are compared exactly (no rounding): the engine's claim
    is bit-identical floats, and the oracle holds it to that.
    """
    return (
        result.fault.seq,
        tuple(result.operations),
        result.theta,
        result.beta_used,
        result.iterations,
        result.candidates,
        result.window_span,
        tuple(sorted(result.coverages.items())),
        tuple(event.seq for event in result.matched_events),
    )


def candidate_signature(candidate: _Candidate) -> CandidateSignature:
    """(operation, required symbols, cuts, full symbols, pure_read) —
    preparation *content* must match, not just membership."""
    return (
        candidate.original.operation,
        candidate.sc_symbols,
        tuple(candidate.cut_lengths),
        candidate.full_symbols,
        candidate.pure_read,
    )


# ---------------------------------------------------------------------------
# shards: serial vs sharded
# ---------------------------------------------------------------------------

def verify_equivalence(
    events: Sequence[WireEvent],
    library: FingerprintLibrary,
    shards: int = 4,
    *,
    key: Callable[[WireEvent], str] = source_node_key,
    batch_size: int = DEFAULT_BATCH_SIZE,
    config: Optional[GretelConfig] = None,
    catalog: Optional[ApiCatalog] = None,
    store: Optional[MetadataStore] = None,
    track_latency: bool = True,
    defer_detection: bool = False,
    strict: bool = True,
    backend: str = "inline",
) -> OracleResult:
    """Replay ``events`` serially and sharded; compare report multisets.

    Both analyzers run the same configuration, the stream is flushed,
    and — when detection is deferred — both backlogs are drained.
    By default each half gets a fresh (empty) metadata store; passing
    ``store`` (e.g. the populated store of a captured live run) makes
    both halves consult the same read-only metadata, so root-cause
    findings are part of the comparison too.  ``backend`` selects the
    sharded half's execution backend, so the same oracle also proves
    the process pool faithful: a worker that drops, duplicates or
    corrupts a report diverges here.
    """
    events = list(events)
    config = config or GretelConfig()

    serial = GretelAnalyzer(
        library, catalog=catalog, store=store or MetadataStore(),
        config=config,
        track_latency=track_latency, defer_detection=defer_detection,
    )
    serial.feed(events)
    serial.flush()

    sharded = ShardedAnalyzer(
        library, shards, key=key, batch_size=batch_size, catalog=catalog,
        store=store or MetadataStore(), config=config,
        track_latency=track_latency,
        defer_detection=defer_detection,
        backend=backend,
    )
    try:
        sharded.feed(events)
        sharded.flush()
        if defer_detection:
            serial.process_deferred()
            sharded.process_deferred()
        result = OracleResult(
            "shards", f"serial vs {shards}-shard on {len(events)} events",
            facts={
                "events": len(events),
                "shards": shards,
                "serial_reports": len(serial.reports),
                "sharded_reports": len(sharded.reports),
            },
            mismatches=compare_multisets(
                map(report_signature, serial.reports),
                map(report_signature, sharded.reports),
            ),
        )
    finally:
        sharded.close()
    return result.check(strict)


# ---------------------------------------------------------------------------
# detection and selection: reference vs production Algorithm 2
# ---------------------------------------------------------------------------

def _compare_detections(
    reference: OperationDetector,
    candidate: OperationDetector,
    snapshots: Sequence[Snapshot],
    performance_fault: bool = False,
) -> List[Mismatch]:
    rows: List[Tuple[int, DetectionSignature, DetectionSignature]] = []
    for snapshot in snapshots:
        expected = detection_signature(
            reference.detect(snapshot, performance_fault=performance_fault)
        )
        actual = detection_signature(
            candidate.detect(snapshot, performance_fault=performance_fault)
        )
        rows.append((expected[0], expected, actual))
    return compare_sequences("detections", rows)


def verify_detection(
    snapshots: Sequence[Snapshot],
    library: FingerprintLibrary,
    *,
    symbols: Optional[SymbolTable] = None,
    catalog: Optional[ApiCatalog] = None,
    config: Optional[GretelConfig] = None,
    performance_fault: bool = False,
    strict: bool = True,
) -> OracleResult:
    """Replay ``snapshots`` through the reference and production
    detectors; every field an operator acts on — matched operations,
    θ, β_used, iterations, per-operation coverages, matched events
    and the context-buffer span — must be identical, not merely
    close."""
    symbols = symbols or library.symbols
    catalog = catalog or default_catalog()
    config = config or GretelConfig()
    result = OracleResult(
        "detection", "production vs reference detection",
        sections=("detections",),
        facts={"snapshots": len(snapshots)},
        mismatches=_compare_detections(
            ReferenceDetector(library, symbols, catalog, config),
            OperationDetector(library, symbols, catalog, config),
            snapshots, performance_fault,
        ),
    )
    return result.check(strict)


def verify_selection(
    library: FingerprintLibrary,
    *,
    symbols: Optional[SymbolTable] = None,
    catalog: Optional[ApiCatalog] = None,
    config: Optional[GretelConfig] = None,
    api_keys: Optional[Sequence[str]] = None,
    snapshots: Sequence[Snapshot] = (),
    index: Optional["CompiledIndex"] = None,
    strict: bool = True,
) -> OracleResult:
    """Prove compiled-index selection equivalent to the full scan.

    The production detector may be handed a pre-built — possibly
    corrupted — ``index`` (by default it compiles its own).  Per
    ``api_key`` (default: every key some fingerprint contains) × both
    truncation modes, the prepared candidate lists must match
    signature for signature, order included; per frozen snapshot, the
    end-to-end detection must match too.
    """
    symbols = symbols or library.symbols
    catalog = catalog or default_catalog()
    config = config or GretelConfig()
    reference = ReferenceDetector(library, symbols, catalog, config)
    indexed = OperationDetector(
        library, symbols, catalog, config, compiled_index=index,
    )
    if api_keys is None:
        api_keys = sorted(
            symbols.api_key(symbol) for symbol in library.postings()
        )

    def selected(
        detector: OperationDetector, api_key: str, truncate: bool
    ) -> Tuple[CandidateSignature, ...]:
        return tuple(
            candidate_signature(c)
            for c in detector.candidates_for(api_key, truncate=truncate)
        )

    mismatches = compare_sequences("candidates", (
        ((api_key, truncate),
         selected(reference, api_key, truncate),
         selected(indexed, api_key, truncate))
        for api_key in api_keys for truncate in (True, False)
    ))
    mismatches += _compare_detections(reference, indexed, snapshots)
    result = OracleResult(
        "selection", "indexed vs full-scan selection",
        sections=("candidates", "detections"),
        facts={"api_keys": len(api_keys), "snapshots": len(snapshots)},
        mismatches=mismatches,
    )
    return result.check(strict)


# ---------------------------------------------------------------------------
# levelshift: reference vs incremental LS
# ---------------------------------------------------------------------------

def _sample_signature(
    detector: Any, shift: Optional[Any]
) -> SampleSignature:
    return (
        None if shift is None else astuple(shift),
        detector.threshold(),
        detector.baseline,
    )


def verify_levelshift(
    samples: Sequence[Tuple[float, float]],
    *,
    config: Optional[GretelConfig] = None,
    detectors: Optional[Tuple[Any, Any]] = None,
    label: str = "series",
    strict: bool = True,
) -> OracleResult:
    """Replay one (ts, value) stream through both LS detectors.

    After every sample the update result (``None`` or the full
    :class:`~repro.core.outliers.LevelShift`), the threshold and the
    baseline must be identical.  ``detectors`` overrides the
    (reference, candidate) pair — the negative tests inject a
    mismatched one.
    """
    config = config or GretelConfig()
    if detectors is None:
        detectors = (
            reference_levelshift(config), detector_from_config(config),
        )
    reference, candidate = detectors
    rows: List[Tuple[Tuple[str, int], SampleSignature, SampleSignature]] = []
    alarms = 0
    for index, (ts, value) in enumerate(samples):
        expected = _sample_signature(reference, reference.update(ts, value))
        actual = _sample_signature(candidate, candidate.update(ts, value))
        if expected[0] is not None:
            alarms += 1
        rows.append(((label, index), expected, actual))
    result = OracleResult(
        "levelshift", "incremental vs reference level-shift",
        sections=("updates",),
        facts={"series": 1, "samples": len(samples), "alarms": alarms},
        mismatches=compare_sequences("updates", rows),
    )
    return result.check(strict)


def verify_levelshift_stream(
    events: Sequence[WireEvent],
    *,
    config: Optional[GretelConfig] = None,
    strict: bool = True,
) -> OracleResult:
    """Replay a wire-event stream's per-API latency series.

    Applies the serial latency gate (``not event.noise and not
    event.error``) and buckets by ``api_key`` exactly as
    :class:`~repro.core.latency.LatencyTracker` does, so the oracle
    covers precisely the samples the production LS path sees.
    """
    series: Dict[str, List[Tuple[float, float]]] = {}
    for event in events:
        if event.noise or event.error:
            continue
        series.setdefault(event.api_key, []).append(
            (event.ts_response, event.latency)
        )
    total = OracleResult(
        "levelshift", "incremental vs reference level-shift",
        sections=("updates",),
        facts={"series": 0, "samples": 0, "alarms": 0},
    )
    for api_key, samples in series.items():
        total.merge(verify_levelshift(
            samples, config=config, label=api_key, strict=False,
        ))
    return total.check(strict)


# ---------------------------------------------------------------------------
# checkpoint: straight vs killed-and-restored
# ---------------------------------------------------------------------------

StateMutator = Callable[[Dict[str, Any]], Dict[str, Any]]


def _cut_points(total: int, cuts: int) -> Tuple[int, ...]:
    """``cuts`` evenly spaced interior indices of a ``total``-event
    stream (never 0 or ``total`` — those are degenerate)."""
    if total < 2 or cuts < 1:
        return ()
    step = total / (cuts + 1)
    return tuple(sorted(
        {min(total - 1, max(1, round(step * (i + 1))))
         for i in range(cuts)}
    ))


def verify_checkpoint(
    events: Sequence[WireEvent],
    library: FingerprintLibrary,
    cuts: int = 3,
    *,
    config: Optional[GretelConfig] = None,
    catalog: Optional[ApiCatalog] = None,
    store: Optional[MetadataStore] = None,
    track_latency: bool = True,
    defer_detection: bool = False,
    mutate: Optional[StateMutator] = None,
    strict: bool = True,
) -> OracleResult:
    """Prove checkpoint/kill/restore is invisible on ``events``.

    The restored half kills and rehydrates the analyzer at ``cuts``
    evenly spaced points; each checkpoint crosses a real
    ``json.dumps``/``json.loads`` round trip.  Both halves share one
    metadata store, must publish the identical report multiset and
    end with identical pipeline counters (every one except wall-clock
    ``analysis_seconds``).  ``mutate`` edits each decoded state dict
    before restore — the negative-test hook.
    """
    store = store if store is not None else MetadataStore()

    def build(sink: List[FaultReport]) -> GretelAnalyzer:
        analyzer = GretelAnalyzer(
            library, catalog=catalog, store=store, config=config,
            track_latency=track_latency,
            defer_detection=defer_detection,
        )
        analyzer.on_report(sink.append)
        return analyzer

    def finish(analyzer: GretelAnalyzer) -> Dict[str, Any]:
        analyzer.flush()
        if defer_detection:
            analyzer.process_deferred()
        stats = asdict(analyzer.stats())
        del stats["analysis_seconds"]  # wall clock differs between runs
        return stats

    straight_reports: List[FaultReport] = []
    straight = build(straight_reports)
    for event in events:
        straight.on_event(event)
    straight_stats = finish(straight)

    points = _cut_points(len(events), cuts)
    restored_reports: List[FaultReport] = []
    restored = build(restored_reports)
    position = 0
    for cut in points:
        for event in events[position:cut]:
            restored.on_event(event)
        position = cut
        state = json.loads(json.dumps(restored.snapshot_state()))
        if mutate is not None:
            state = mutate(state)
        restored = build(restored_reports)
        restored.restore_state(state)
    for event in events[position:]:
        restored.on_event(event)
    restored_stats = finish(restored)

    result = OracleResult(
        "checkpoint", "straight vs killed-and-restored replay",
        sections=("missing", "extra", "stats_diff"),
        facts={
            "events": len(events),
            "cuts": list(points),
            "straight_reports": len(straight_reports),
            "restored_reports": len(restored_reports),
        },
        mismatches=compare_multisets(
            map(report_signature, straight_reports),
            map(report_signature, restored_reports),
        ) + compare_sequences("stats_diff", (
            (name, value, restored_stats.get(name))
            for name, value in straight_stats.items()
        )),
    )
    return result.check(strict)


# ---------------------------------------------------------------------------
# async: sync router vs pump router
# ---------------------------------------------------------------------------

#: Per-session counters compared between the two halves.
COUNTER_FIELDS = (
    "events_ingested",
    "events_analyzed",
    "events_shed",
    "reports_emitted",
)


def _counters(service: StreamingService) -> Dict[str, Dict[str, int]]:
    return {
        live.tenant: {
            name: getattr(live, name) for name in COUNTER_FIELDS
        }
        for live in service.sessions.values()
    }


def verify_async(
    events: Sequence[WireEvent],
    library: FingerprintLibrary,
    *,
    tenants: int = 4,
    producers: int = 2,
    config: Optional[GretelConfig] = None,
    catalog: Optional[ApiCatalog] = None,
    store: Optional[MetadataStore] = None,
    track_latency: bool = True,
    shards: int = 1,
    backend: str = "inline",
    queue_capacity: int = 1024,
    strict: bool = True,
) -> OracleResult:
    """Prove the pump router is observably the sync router.

    Each tenant keeps exactly one consumer thread and producers
    deliver each tenant's events in order, so per-tenant report
    multisets and ingest counters must be *identical*.  The sync half
    consumes the stream single-threaded, bucketed into ``tenants``
    sessions; the async half consumes it from ``producers``
    concurrent threads (each owning a disjoint set of buckets), is
    flushed through the quiesce barrier, and shut down.  Runs under
    the ``"block"`` policy: shedding is timing-dependent by design.
    ``shards``/``backend`` configure the per-session analyzer, so the
    oracle also covers pumps driving process-backed worker pools.
    The negative tests patch :meth:`TenantSession._pump_step` (the
    documented tamper seam).
    """
    if tenants < 1:
        raise ValueError("tenants must be at least 1")
    if producers < 1:
        raise ValueError("producers must be at least 1")
    events = list(events)
    buckets: Dict[str, List[WireEvent]] = {}
    for event in events:
        buckets.setdefault(
            bucket_tenant(event.tenant, tenants), []
        ).append(event)

    def build(
        async_ingest: bool,
    ) -> Tuple[StreamingService, List[Tuple[str, ReportSignature]]]:
        service = StreamingService(
            library, catalog=catalog, store=store,
            config=config or GretelConfig(),
            track_latency=track_latency,
            queue_capacity=queue_capacity, policy="block",
            shards=shards, backend=backend, async_ingest=async_ingest,
        )
        signatures: List[Tuple[str, ReportSignature]] = []
        service.on_report(
            lambda tenant, report: signatures.append(
                (tenant, report_signature(report))
            )
        )
        return service, signatures

    # Sync half: single-threaded, bucket by bucket in stream order.
    sync_service, sync_sigs = build(async_ingest=False)
    try:
        for tenant, stream in buckets.items():
            for event in stream:
                sync_service.submit(event, tenant=tenant)
        sync_service.flush()
        sync_counters = _counters(sync_service)
    finally:
        sync_service.shutdown()

    # Async half: pre-create the sessions *before* the producer
    # threads start — process-backed pools fork workers, and forking
    # from a quiet parent is the safe order (docs/service.md).
    async_service, async_sigs = build(async_ingest=True)
    try:
        owned: List[List[Tuple[str, List[WireEvent]]]] = [
            [] for _ in range(producers)
        ]
        for index, (tenant, stream) in enumerate(buckets.items()):
            async_service.session(tenant)
            owned[index % producers].append((tenant, stream))

        def produce(work: List[Tuple[str, List[WireEvent]]]) -> None:
            for tenant, stream in work:
                for event in stream:
                    async_service.submit(event, tenant=tenant)

        threads = [
            threading.Thread(
                target=produce, args=(work,),
                name=f"gretel-producer-{index}",
            )
            for index, work in enumerate(owned) if work
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        async_service.flush()
        async_counters = _counters(async_service)
    finally:
        async_service.shutdown()

    result = OracleResult(
        "async", "sync vs pump router",
        sections=("missing", "extra", "counter_diff"),
        facts={
            "events": len(events),
            "tenants": tenants,
            "producers": producers,
            "sync_reports": len(sync_sigs),
            "async_reports": len(async_sigs),
        },
        mismatches=compare_multisets(sync_sigs, async_sigs)
        + compare_sequences("counter_diff", (
            ((tenant, name),
             sync_counters.get(tenant, {}).get(name, -1),
             async_counters.get(tenant, {}).get(name, -1))
            for tenant in sorted(set(sync_counters) | set(async_counters))
            for name in COUNTER_FIELDS
        )),
    )
    return result.check(strict)
