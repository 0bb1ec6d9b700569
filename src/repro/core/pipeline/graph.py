"""The assembled stage graph: one pipeline, many execution engines.

:class:`AnalysisPipeline` owns the control flow of the paper's chain
(§5, Fig. 1) over the stage instances built by
:class:`repro.core.pipeline.builder.PipelineBuilder`.  Engines differ
only in *how* they feed it: the serial analyzer calls
:meth:`AnalysisPipeline.process_event` per wire event, shard workers
call :meth:`AnalysisPipeline.process_chunk` per batch, and both share
:meth:`AnalysisPipeline.process_anomaly` for the performance path.

Performance note: the per-event path is the §7.4 receiver hot loop
(~0.7 µs/event at the committed baseline), so ``process_event`` fuses
the stage work inline — the stages still own every counter and all
state — and only falls back to instrumented stage dispatch when
middleware observers are attached.  The chunked path always runs
instrumented; its per-chunk overhead is amortized over ~1024 events.
"""

from __future__ import annotations

import time
from dataclasses import asdict
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.config import GretelConfig
from repro.core.detector import DetectionResult, OperationDetector
from repro.core.fingerprint import FingerprintLibrary
from repro.core.latency import LatencyTracker, PerformanceAnomaly
from repro.core.opfaults import is_operational_fault
from repro.core.pipeline.middleware import StageObserver
from repro.core.pipeline.stages import (
    DetectionStage,
    FaultScanStage,
    IngestStage,
    LatencyStage,
    PerfContext,
    PipelineStats,
    PublishStage,
    RootCauseStage,
    WindowStage,
)
from repro.core.reports import FaultReport
from repro.core.rootcause import RootCauseEngine
from repro.core.state import StateError, require_state
from repro.core.symbols import SymbolTable
from repro.core.window import SlidingWindow, Snapshot
from repro.monitoring.store import MetadataStore
from repro.openstack.apis import ApiKind
from repro.openstack.catalog import ApiCatalog
from repro.openstack.wire import WireEvent


class AnalysisPipeline:
    """One wired instance of the GRETEL stage graph.

    Construct via :class:`~repro.core.pipeline.builder.PipelineBuilder`
    — the keyword-only constructor exists for tests and for engines
    that need to swap a single stage.
    """

    def __init__(
        self,
        *,
        library: FingerprintLibrary,
        symbols: SymbolTable,
        catalog: ApiCatalog,
        store: MetadataStore,
        config: GretelConfig,
        ingest: IngestStage,
        faults: FaultScanStage,
        windowing: WindowStage,
        latency: LatencyStage,
        detection: DetectionStage,
        rootcause: RootCauseStage,
        publish: PublishStage,
        perf_context: PerfContext,
        defer_detection: bool = False,
        observers: Sequence[StageObserver] = (),
    ) -> None:
        self.library = library
        self.symbols = symbols
        self.catalog = catalog
        self.store = store
        self.config = config
        self.ingest = ingest
        self.faults = faults
        self.windowing = windowing
        self.latency = latency
        self.detection = detection
        self.rootcause = rootcause
        self.publish = publish
        self.perf_context = perf_context
        self.defer_detection = defer_detection
        self._observers: Tuple[StageObserver, ...] = tuple(observers)
        self._deferred: List[Snapshot] = []
        self._last_perf_analysis: Dict[str, float] = {}
        # Hot-path bindings: the graph is immutable once wired, so the
        # per-event path can pre-resolve its attribute chains.
        self._append = windowing.window.append
        self._mark = windowing.window.mark_fault
        self._observe = latency.tracker.observe
        self._latency_enabled = latency.enabled
        self._track: Optional[Callable[[Sequence[WireEvent]], None]] = (
            perf_context.track if perf_context.needs_history else None
        )
        latency.on_anomaly(self.process_anomaly)

    # ------------------------------------------------------------------
    # Convenience views over the wired stages.
    @property
    def window(self) -> SlidingWindow:
        return self.windowing.window

    @property
    def detector(self) -> OperationDetector:
        return self.detection.detector

    @property
    def tracker(self) -> LatencyTracker:
        return self.latency.tracker

    @property
    def engine(self) -> RootCauseEngine:
        return self.rootcause.engine

    @property
    def alpha(self) -> int:
        return self.windowing.window.alpha

    @property
    def reports(self) -> List[FaultReport]:
        return self.publish.reports

    def stats(self) -> PipelineStats:
        detector = self.detection.detector
        matching = detector.matching.stats
        tracker = self.latency.tracker
        return PipelineStats(
            events_processed=self.ingest.events_processed,
            bytes_processed=self.ingest.bytes_processed,
            operational_faults_seen=self.faults.operational_faults_seen,
            snapshots_taken=self.windowing.window.snapshots_taken,
            analysis_seconds=self.publish.analysis_seconds,
            candidates_gated=matching.candidates_gated,
            lcs_row_extensions=matching.lcs_row_extensions,
            lcs_symbols_fed=matching.lcs_symbols_fed,
            postings_scanned=detector.postings_scanned,
            candidates_indexed=detector.candidates_indexed,
            ls_samples_fed=tracker.ls_samples_fed,
            ls_threshold_recomputes=tracker.ls_threshold_recomputes,
        )

    # ------------------------------------------------------------------
    # State lifecycle (see repro.core.state).

    STATE_FMT = "analysis-pipeline/v1"

    def snapshot_state(self) -> Dict[str, Any]:
        """Freeze the whole stage graph mid-stream, JSON-serializably.

        Collaborators (library, symbols, catalog, store) are
        construction-time inputs and are *not* serialized; the config
        rendering rides along purely as a rehydration guard.
        ``repro.oracle.verify_checkpoint`` proves a restored
        pipeline finishes the stream bit-identically.
        """
        return {
            "fmt": self.STATE_FMT,
            "config": asdict(self.config),
            "defer_detection": self.defer_detection,
            "latency_enabled": self.latency.enabled,
            "ingest": self.ingest.snapshot_state(),
            "faults": self.faults.snapshot_state(),
            "window": self.window.snapshot_state(),
            "tracker": self.tracker.snapshot_state(),
            "detector": self.detector.snapshot_state(),
            "rootcause": self.rootcause.snapshot_state(),
            "publish": self.publish.snapshot_state(),
            "perf_context": self.perf_context.snapshot_state(),
            "deferred": [s.to_dict() for s in self._deferred],
            "last_perf_analysis": dict(self._last_perf_analysis),
        }

    def restore_state(self, state: Mapping[str, Any]) -> None:
        """Rehydrate a freshly built, identically configured pipeline.

        Stages are restored *in place* (the hot-path bound methods
        keep pointing at the same objects); a config, latency-mode or
        defer-mode mismatch refuses loudly instead of replaying the
        stream under different semantics.
        """
        require_state(state, self.STATE_FMT)
        if state["config"] != asdict(self.config):
            raise StateError(
                "pipeline state was captured under a different config"
            )
        if state["defer_detection"] != self.defer_detection:
            raise StateError(
                "pipeline state defer_detection="
                f"{state['defer_detection']} does not match this "
                f"pipeline's {self.defer_detection}"
            )
        if state["latency_enabled"] != self.latency.enabled:
            raise StateError(
                f"pipeline state latency_enabled="
                f"{state['latency_enabled']} does not match this "
                f"pipeline's {self.latency.enabled}"
            )
        self.ingest.restore_state(state["ingest"])
        self.faults.restore_state(state["faults"])
        self.window.restore_state(state["window"])
        self.tracker.restore_state(state["tracker"])
        self.detector.restore_state(state["detector"])
        self.rootcause.restore_state(state["rootcause"])
        self.publish.restore_state(state["publish"])
        self.perf_context.restore_state(state["perf_context"])
        self._deferred = [
            Snapshot.from_dict(s) for s in state["deferred"]
        ]
        self._last_perf_analysis = {
            api_key: ts
            for api_key, ts in state["last_perf_analysis"].items()
        }

    # ------------------------------------------------------------------
    # Middleware plumbing.
    def _call(
        self,
        stage: str,
        items: int,
        func: Callable[..., Any],
        *args: Any,
    ) -> Any:
        observers = self._observers
        if not observers:
            return func(*args)
        started = time.perf_counter()
        result = func(*args)
        elapsed = time.perf_counter() - started
        for observer in observers:
            observer.observe(stage, elapsed, items)
        return result

    # ------------------------------------------------------------------
    # Per-event entry (serial engines).
    def process_event(self, event: WireEvent) -> None:
        """Run one wire event through the graph in stream order."""
        if self._observers:
            self._process_event_observed(event)
            return
        # Fused fast path: identical stage semantics, no dispatch.
        ingest = self.ingest
        ingest.events_processed += 1
        ingest.bytes_processed += event.size_bytes
        completed = self._append(event)
        if completed:
            for snapshot in completed:
                self._dispatch(snapshot)
        if event.kind is ApiKind.REST and event.status >= 400:
            # is_rest_fault(event), inlined (§5.3.1: REST errors
            # freeze the window).
            self.faults.operational_faults_seen += 1
            self._mark(event)
        elif is_operational_fault(event):
            self.faults.operational_faults_seen += 1
        if self._track is not None:
            self._track((event,))
        if self._latency_enabled and not event.noise and not event.error:
            self._observe(event)

    def _process_event_observed(self, event: WireEvent) -> None:
        self._call("ingest", 1, self.ingest.count_one, event)
        completed = self._call("window", 1, self.windowing.push, event)
        for snapshot in completed:
            self._dispatch(snapshot)
        if self._call("fault-scan", 1, self.faults.scan_one, event):
            self.windowing.mark(event)
        if self._track is not None:
            self._track((event,))
        self._call("latency", 1, self.latency.observe_one, event)

    # ------------------------------------------------------------------
    # Chunked entry (batched/sharded engines).
    def process_chunk(self, chunk: Sequence[WireEvent]) -> None:
        """Run a chunk of stream-ordered events through the graph."""
        total = len(chunk)
        if not total:
            return
        self._call("ingest", total, self.ingest.count, chunk)
        if self._track is not None:
            self._track(chunk)
        cuts = self._call("fault-scan", total, self.faults.scan, chunk)
        completed = self._call(
            "window", total, self.windowing.push_runs, chunk, cuts
        )
        for snapshot in completed:
            self._dispatch(snapshot)
        self._call("latency", total, self.latency.observe_chunk, chunk)

    # ------------------------------------------------------------------
    # Draining.
    def flush(self) -> None:
        """Freeze and analyze any pending (partial) snapshots."""
        for snapshot in self.windowing.flush():
            self._dispatch(snapshot)

    def deferred_snapshots(self) -> List[Snapshot]:
        """Snapshots parked by ``defer_detection``, in freeze order
        (read-only view; :meth:`process_deferred` drains them).  The
        differential oracles (``repro analyze --verify selection``)
        replay these through paired detectors."""
        return list(self._deferred)

    def process_deferred(self) -> int:
        """Analyze snapshots parked by ``defer_detection``; return the
        number drained."""
        drained = self._deferred
        self._deferred = []
        for snapshot in drained:
            self._analyze_operational(snapshot)
        return len(drained)

    # ------------------------------------------------------------------
    # Operational path (Alg. 2 + Alg. 3 over a frozen snapshot).
    def _dispatch(self, snapshot: Snapshot) -> None:
        if self.defer_detection:
            self._deferred.append(snapshot)
        else:
            self._analyze_operational(snapshot)

    def _analyze_operational(self, snapshot: Snapshot) -> None:
        started = time.perf_counter()
        detection = self._call(
            "detect", 1, self.detection.detect, snapshot
        )
        error_events = [
            e for e in snapshot.events if is_operational_fault(e)
        ]
        root_causes = self._call(
            "rootcause", 1, self.rootcause.analyze, detection,
            error_events,
        )
        elapsed = time.perf_counter() - started
        delay = 0.0
        if snapshot.events:
            delay = (
                snapshot.events[-1].ts_response
                - snapshot.fault.ts_response
            )
        report = FaultReport(
            ts=snapshot.fault.ts_response,
            kind="operational",
            fault_event=snapshot.fault,
            detection=detection,
            root_causes=root_causes,
            analysis_seconds=elapsed,
            report_delay=delay,
        )
        self._call("publish", 1, self.publish.emit, report)

    # ------------------------------------------------------------------
    # Performance path (§5.3.2 level-shift anomaly → Alg. 2/3).
    def _detect_performance(self, snapshot: Snapshot) -> DetectionResult:
        return self.detection.detect(snapshot, performance_fault=True)

    def process_anomaly(self, anomaly: PerformanceAnomaly) -> None:
        """Debounce per API identity, reconstruct the α-event context
        around the anomaly, and run detection + root cause."""
        last = self._last_perf_analysis.get(anomaly.api_key)
        debounce = self.config.perf_debounce
        if last is not None and anomaly.ts - last < debounce:
            return
        self._last_perf_analysis[anomaly.api_key] = anomaly.ts

        started = time.perf_counter()
        events = self.perf_context.context(anomaly)
        fault_index = -1
        seq = anomaly.event.seq
        for index, candidate in enumerate(events):
            if candidate.seq == seq:
                fault_index = index
                break
        if fault_index < 0:
            events.append(anomaly.event)
            fault_index = len(events) - 1
        cap = max(2, self.config.perf_buffer_cap)
        if len(events) > cap:
            lo = max(0, fault_index - cap // 2)
            hi = min(len(events), lo + cap)
            lo = max(0, hi - cap)
            events = events[lo:hi]
            fault_index -= lo
        snapshot = Snapshot(
            fault=anomaly.event, events=events, fault_index=fault_index
        )
        detection = self._call(
            "detect", 1, self._detect_performance, snapshot
        )
        root_causes = self._call(
            "rootcause", 1, self.rootcause.analyze, detection
        )
        elapsed = time.perf_counter() - started
        report = FaultReport(
            ts=anomaly.ts,
            kind="performance",
            fault_event=anomaly.event,
            detection=detection,
            root_causes=root_causes,
            performance=anomaly,
            analysis_seconds=elapsed,
            report_delay=0.0,
        )
        self._call("publish", 1, self.publish.emit, report)
