"""Builder that wires the stage graph once and hands it to engines.

One configured :class:`PipelineBuilder` can build any engine shape:

* :meth:`PipelineBuilder.build` — a bare
  :class:`~repro.core.pipeline.graph.AnalysisPipeline` (per-event,
  window-backed performance context);
* :meth:`PipelineBuilder.build_batched` — a pipeline for chunked
  ingest (pre-encoding window, recent-history performance context);
* :meth:`PipelineBuilder.build_serial` /
  :meth:`PipelineBuilder.build_sharded` — ready-to-run analyzers.

Middleware observers and report listeners registered on the builder
are attached to every pipeline it builds, so a sharded analyzer's
shards share one set of observers and report aggregated stage stats.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, Optional

from repro.core.config import GretelConfig
from repro.core.detector import OperationDetector, batch_encoder
from repro.core.fingerprint import FingerprintLibrary
from repro.core.latency import LatencyTracker
from repro.core.pipeline.graph import AnalysisPipeline
from repro.core.pipeline.middleware import StageObserver
from repro.core.pipeline.stages import (
    DetectionStage,
    FaultScanStage,
    IngestStage,
    LatencyStage,
    PerfContext,
    PublishStage,
    RecentHistoryPerfContext,
    RootCauseStage,
    WindowPerfContext,
    WindowStage,
)
from repro.core.reports import FaultReport
from repro.core.rootcause import RootCauseEngine
from repro.core.symbols import SymbolTable
from repro.core.window import BatchEncoder, SlidingWindow
from repro.monitoring.store import MetadataStore
from repro.openstack.catalog import ApiCatalog, default_catalog
from repro.openstack.wire import WireEvent

if TYPE_CHECKING:  # engine imports would be circular at runtime
    from repro.core.analyzer import GretelAnalyzer
    from repro.core.parallel import ShardedAnalyzer


class PipelineBuilder:
    """Fluent wiring of one analysis stage graph.

    All ``with_*`` setters are ``None``-tolerant (a ``None`` keeps the
    default), so call sites can forward optional arguments verbatim.
    """

    def __init__(self, library: FingerprintLibrary) -> None:
        self._library = library
        self._symbols: Optional[SymbolTable] = None
        self._catalog: Optional[ApiCatalog] = None
        self._store: Optional[MetadataStore] = None
        self._config: Optional[GretelConfig] = None
        self._track_latency = True
        self._defer_detection = False
        self._middleware: List[StageObserver] = []
        self._listeners: List[Callable[[FaultReport], None]] = []

    # -- configuration ----------------------------------------------------

    def with_symbols(
        self, symbols: Optional[SymbolTable]
    ) -> "PipelineBuilder":
        if symbols is not None:
            self._symbols = symbols
        return self

    def with_catalog(
        self, catalog: Optional[ApiCatalog]
    ) -> "PipelineBuilder":
        if catalog is not None:
            self._catalog = catalog
        return self

    def with_store(
        self, store: Optional[MetadataStore]
    ) -> "PipelineBuilder":
        if store is not None:
            self._store = store
        return self

    def with_config(
        self, config: Optional[GretelConfig]
    ) -> "PipelineBuilder":
        if config is not None:
            self._config = config
        return self

    def track_latency(self, enabled: bool = True) -> "PipelineBuilder":
        self._track_latency = enabled
        return self

    def defer_detection(self, enabled: bool = True) -> "PipelineBuilder":
        self._defer_detection = enabled
        return self

    def with_middleware(
        self, observer: StageObserver
    ) -> "PipelineBuilder":
        """Attach a per-stage observer to every pipeline built."""
        self._middleware.append(observer)
        return self

    def on_report(
        self, callback: Callable[[FaultReport], None]
    ) -> "PipelineBuilder":
        """Subscribe a report listener on every pipeline built."""
        self._listeners.append(callback)
        return self

    # -- wiring -----------------------------------------------------------

    # Component seams: ``repro.oracle.ReferenceBuilder`` overrides
    # these two to build pipelines on the reference halves.
    def _detector(
        self,
        library: FingerprintLibrary,
        symbols: SymbolTable,
        catalog: ApiCatalog,
        config: GretelConfig,
    ) -> OperationDetector:
        return OperationDetector(library, symbols, catalog, config)

    def _tracker(self, config: GretelConfig) -> LatencyTracker:
        return LatencyTracker(config)

    def _build(
        self,
        *,
        batch_size: Optional[int],
        encode_batch: Optional[BatchEncoder],
    ) -> AnalysisPipeline:
        library = self._library
        symbols = self._symbols or library.symbols
        catalog = self._catalog or default_catalog()
        store = self._store or MetadataStore()
        config = self._config or GretelConfig()

        alpha = config.sliding_window_size(max(library.fp_max, 2))
        encode = encode_batch
        if batch_size is not None and encode is None:
            # Chunked engines pre-encode symbols once per chunk so
            # snapshot matching slices instead of re-encoding.
            encode = batch_encoder(symbols, config)
        window = SlidingWindow(alpha, encode_batch=encode)

        perf_context: PerfContext
        if batch_size is not None and self._track_latency:
            perf_context = RecentHistoryPerfContext(
                alpha, alpha + max(1, batch_size)
            )
        else:
            perf_context = WindowPerfContext(window)

        publish = PublishStage()
        for callback in self._listeners:
            publish.subscribe(callback)

        return AnalysisPipeline(
            library=library,
            symbols=symbols,
            catalog=catalog,
            store=store,
            config=config,
            ingest=IngestStage(),
            faults=FaultScanStage(),
            windowing=WindowStage(window),
            latency=LatencyStage(
                self._tracker(config), enabled=self._track_latency
            ),
            detection=DetectionStage(
                self._detector(library, symbols, catalog, config)
            ),
            rootcause=RootCauseStage(RootCauseEngine(store, config)),
            publish=publish,
            perf_context=perf_context,
            defer_detection=self._defer_detection,
            observers=tuple(self._middleware),
        )

    def build(
        self, *, encode_batch: Optional[BatchEncoder] = None
    ) -> AnalysisPipeline:
        """Wire a pipeline for per-event (serial) ingest."""
        return self._build(batch_size=None, encode_batch=encode_batch)

    def build_batched(self, batch_size: int) -> AnalysisPipeline:
        """Wire a pipeline for chunked ingest of ``batch_size`` runs."""
        return self._build(
            batch_size=max(1, batch_size), encode_batch=None
        )

    # -- ready-to-run engines --------------------------------------------

    def build_serial(self) -> "GretelAnalyzer":
        """A serial analyzer composed over a freshly wired pipeline."""
        from repro.core.analyzer import GretelAnalyzer

        return GretelAnalyzer(self._library, pipeline=self.build())

    def build_sharded(
        self,
        shards: int = 4,
        *,
        key: Optional[Callable[[WireEvent], str]] = None,
        batch_size: Optional[int] = None,
        backend: str = "inline",
    ) -> "ShardedAnalyzer":
        """A sharded analyzer whose shards share this wiring.

        ``backend="process"`` runs each shard in a long-lived worker
        process (see ``docs/parallelism.md``); note stage middleware
        cannot cross the process boundary, so combining the two is
        rejected by the analyzer.
        """
        from repro.core.parallel import (
            DEFAULT_BATCH_SIZE,
            ShardedAnalyzer,
            source_node_key,
        )

        return ShardedAnalyzer(
            self._library,
            shards,
            key=key or source_node_key,
            batch_size=batch_size or DEFAULT_BATCH_SIZE,
            symbols=self._symbols,
            catalog=self._catalog,
            store=self._store,
            config=self._config,
            track_latency=self._track_latency,
            defer_detection=self._defer_detection,
            middleware=tuple(self._middleware),
            report_listeners=tuple(self._listeners),
            backend=backend,
        )
