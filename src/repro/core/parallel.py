"""Sharded online analysis: partitioned GRETEL with a correctness oracle.

The serial :class:`~repro.core.analyzer.GretelAnalyzer` is one
synchronous object: every wire event pays a chain of Python calls
(receiver → window append → fault scan → latency observe).  GRETEL's
own architecture implies a cheaper shape — the paper deploys one
capture agent per node and guarantees ordering only *per agent*
(§5.2), so the event stream is naturally partitioned by source node
and nothing in the pipeline requires a total order across nodes.

:class:`ShardedAnalyzer` exploits exactly that partitioning:

* events are routed to one of N :class:`AnalyzerShard` workers by a
  deterministic partition key (source node by default, first-seen
  round-robin assignment);
* each shard composes its own
  :class:`~repro.core.pipeline.graph.AnalysisPipeline` — the same
  stage graph as the serial engine, wired by one shared
  :class:`~repro.core.pipeline.builder.PipelineBuilder` — so shards
  share no mutable state and a step never crosses shard boundaries;
* a shard step ingests a *chunk* of events via the pipeline's chunked
  entry: one cheap scan finds the (rare) faults, fault-free runs land
  in the window via C-level ``deque.extend``, symbols are encoded once
  per chunk (:func:`repro.core.detector.batch_encoder`) instead of per
  event per match iteration, and latencies are observed per chunk;
* the merge stage orders every shard's
  :class:`~repro.core.reports.FaultReport` deterministically by
  (fault event sequence, fault kind, report timestamp), so two runs
  over the same stream produce byte-identical report streams
  regardless of shard count or chunking.

Correctness is not argued, it is *checked*:
:func:`repro.oracle.verify_equivalence` replays a stream through the
serial analyzer and a sharded one and compares canonical report
signatures.  Partitioning is semantics preserving whenever fault
contexts are partition-local (trivially so for single-source streams
such as the Fig. 8c replay harness, and for any per-node capture
deployment analyzed per agent); the oracle turns that property from
an assumption into an assertion, and is wired into both the test
suite and ``repro analyze --verify shards``.  See
``docs/parallelism.md`` and ``docs/architecture.md``.
"""

from __future__ import annotations

from typing import (
    Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple,
)

from repro.openstack.catalog import ApiCatalog
from repro.openstack.wire import WireEvent
from repro.core.config import GretelConfig
from repro.core.fingerprint import FingerprintLibrary
from repro.core.pipeline.builder import PipelineBuilder
from repro.core.pipeline.facade import PipelineAnalyzer
from repro.core.pipeline.graph import AnalysisPipeline
from repro.core.pipeline.middleware import StageObserver
from repro.core.pipeline.stages import STAT_FIELDS, PipelineStats
from repro.core.reports import FaultReport
from repro.core.state import StateError, require_state
from repro.core.symbols import SymbolTable
from repro.monitoring.store import MetadataStore

#: Default number of events per shard step.
DEFAULT_BATCH_SIZE = 1024

#: Execution backends for :class:`ShardedAnalyzer`: ``"inline"`` runs
#: every shard in the calling thread (the differential-oracle half),
#: ``"process"`` gives each shard a long-lived worker process
#: (``repro.core.workers``) for real multi-core drain.
BACKENDS = ("inline", "process")


class ShardWorkerError(RuntimeError):
    """A shard worker process died, wedged, or reported a failure.

    Raised by the ``"process"`` backend instead of hanging; by the
    time it propagates the whole pool has been torn down (workers
    stopped or terminated), so the analyzer is safe to abandon.
    """

def source_node_key(event: WireEvent) -> str:
    """The default partition key: the capturing agent's node (§5.2)."""
    return event.src_node


def report_order_key(report: FaultReport) -> Tuple[int, int, float]:
    """Deterministic merge order: (event sequence, fault id).

    The fault id breaks ties between an operational and a performance
    report anchored on the same wire event: operational first, then by
    report timestamp.
    """
    return (report.fault_event.seq,
            0 if report.kind == "operational" else 1,
            report.ts)


class AnalyzerShard(PipelineAnalyzer):
    """One worker shard: the stage graph with a batched event loop.

    Composes the same :class:`AnalysisPipeline` as the serial engine
    (snapshot analysis, performance path, deferred-detection queue)
    and replaces the per-event receiver with :meth:`ingest_batch`.
    The shard's pipeline is wired for chunked ingest: its window
    pre-encodes symbols per chunk (so snapshots carry the context
    buffer in symbol form and detection slices instead of
    re-encoding), and its performance context keeps a recent-history
    ring because latencies are observed once per chunk, after the
    window has already advanced past the anomalous event.
    """

    def __init__(self, shard_id: int, library: FingerprintLibrary,
                 *, batch_size: int = DEFAULT_BATCH_SIZE,
                 pipeline: Optional[AnalysisPipeline] = None, **kwargs):
        self.shard_id = shard_id
        self.batch_size = max(1, batch_size)
        if pipeline is None:
            pipeline = (
                PipelineBuilder(library)
                .with_symbols(kwargs.get("symbols"))
                .with_catalog(kwargs.get("catalog"))
                .with_store(kwargs.get("store"))
                .with_config(kwargs.get("config"))
                .track_latency(kwargs.get("track_latency", True))
                .defer_detection(kwargs.get("defer_detection", False))
                .build_batched(self.batch_size)
            )
        super().__init__(pipeline)

    def ingest_batch(self, chunk: Sequence[WireEvent]) -> None:
        """Process a FIFO run of this shard's events in batched steps.

        Byte-equivalent to calling the serial engine's ``on_event``
        per event: faults mark the window at their exact positions,
        snapshots freeze after their own α/2 successors, and latencies
        are observed in arrival order.
        """
        total = len(chunk)
        if not total:
            return
        process = self.pipeline.process_chunk
        if total > self.batch_size:
            for start in range(0, total, self.batch_size):
                process(chunk[start:start + self.batch_size])
            return
        process(chunk)


class ShardedAnalyzer:
    """N-way partitioned GRETEL analyzer with deterministic merging.

    Public surface mirrors :class:`GretelAnalyzer` (``on_event`` /
    ``feed`` / ``flush`` / ``process_deferred`` / ``reports`` /
    counters) so callers can swap it in; events are routed to shards
    by ``key`` and buffered into chunks of ``batch_size`` per shard.
    Aggregate counters come from merging the shards'
    :class:`~repro.core.pipeline.stages.PipelineStats` instead of a
    hand-written property per counter.

    ``backend`` selects how shards execute: ``"inline"`` (default)
    runs them in the calling thread — GIL-bound, but zero IPC and the
    reference half of every differential oracle — while ``"process"``
    places each shard in a long-lived worker process
    (:mod:`repro.core.workers`), seeded once with the pickled library
    and config, fed pre-chunked event batches with bounded in-flight
    backpressure, and streaming report batches back to the parent.
    Both backends produce identical merged reports and counters
    (``verify_equivalence`` checks it).  A process-backed analyzer
    owns OS resources: call :meth:`close` (or use the analyzer as a
    context manager) when done; on worker death every entry point
    raises :class:`ShardWorkerError` after tearing the pool down.
    """

    STATE_FMT = "sharded-analyzer/v1"

    def __init__(
        self,
        library: FingerprintLibrary,
        shards: int = 4,
        *,
        key: Callable[[WireEvent], str] = source_node_key,
        batch_size: int = DEFAULT_BATCH_SIZE,
        symbols: Optional[SymbolTable] = None,
        catalog: Optional[ApiCatalog] = None,
        store: Optional[MetadataStore] = None,
        config: Optional[GretelConfig] = None,
        track_latency: bool = True,
        defer_detection: bool = False,
        middleware: Sequence[StageObserver] = (),
        report_listeners: Sequence[
            Callable[[FaultReport], None]
        ] = (),
        backend: str = "inline",
        max_inflight: Optional[int] = None,
    ):
        if shards < 1:
            raise ValueError("shards must be at least 1")
        if backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r} (expected one of "
                f"{BACKENDS})"
            )
        if backend == "process" and middleware:
            raise ValueError(
                "stage middleware cannot observe shards across the "
                "process boundary; use backend='inline' for "
                "StageTimer/StageCounters, or read per-shard "
                "PipelineStats (ShardedAnalyzer.stats) instead"
            )
        self.library = library
        self.key = key
        self.backend = backend
        self.batch_size = max(1, batch_size)
        self.store = store or MetadataStore()
        self.config = config or GretelConfig()
        if backend == "process":
            # Imported lazily: workers builds AnalyzerShards, so the
            # module import is parallel -> workers one-way only here.
            from repro.core.workers import (
                DEFAULT_MAX_INFLIGHT,
                ProcessShard,
                WorkerSeed,
            )

            self.shards = []
            for index in range(shards):
                seed = WorkerSeed(
                    shard_id=index,
                    library=library,
                    config=self.config,
                    catalog=catalog,
                    store=self.store,
                    batch_size=self.batch_size,
                    track_latency=track_latency,
                    defer_detection=defer_detection,
                )
                client = ProcessShard(
                    seed,
                    max_inflight=max_inflight or DEFAULT_MAX_INFLIGHT,
                )
                for callback in report_listeners:
                    client.on_report(callback)
                self.shards.append(client)
        else:
            builder = (
                PipelineBuilder(library)
                .with_symbols(symbols)
                .with_catalog(catalog)
                .with_store(self.store)
                .with_config(self.config)
                .track_latency(track_latency)
                .defer_detection(defer_detection)
            )
            for observer in middleware:
                builder.with_middleware(observer)
            for callback in report_listeners:
                builder.on_report(callback)
            self.shards = [
                AnalyzerShard(
                    index, library, batch_size=self.batch_size,
                    pipeline=builder.build_batched(self.batch_size),
                )
                for index in range(shards)
            ]
        #: partition key → shard index, assigned first-seen round-robin
        #: (deterministic for a given stream, maximally balanced across
        #: distinct keys — a stable hash can pile few nodes onto one
        #: shard).
        self._assignment: Dict[str, int] = {}
        self._buffers: List[List[WireEvent]] = [[] for _ in range(shards)]

    # -- routing -----------------------------------------------------------

    @property
    def n_shards(self) -> int:
        """Number of worker shards."""
        return len(self.shards)

    def shard_index(self, partition_key: str) -> int:
        """The shard owning a partition key (assigning it if new)."""
        index = self._assignment.get(partition_key)
        if index is None:
            index = len(self._assignment) % len(self.shards)
            self._assignment[partition_key] = index
        return index

    @property
    def assignment(self) -> Dict[str, int]:
        """A copy of the partition-key → shard map seen so far."""
        return dict(self._assignment)

    def on_report(self, callback: Callable[[FaultReport], None]) -> None:
        """Register a fault-report consumer on every shard."""
        for shard in self.shards:
            shard.on_report(callback)

    # -- event intake ------------------------------------------------------

    def _step(self, index: int, chunk: Sequence[WireEvent]) -> None:
        """Run one shard step; on worker death, tear the pool down."""
        try:
            self.shards[index].ingest_batch(chunk)
        except ShardWorkerError:
            self.close()
            raise

    def _fanout(self, op: str) -> List:
        """Post ``op`` to every process shard, then collect replies.

        Posting first and collecting second keeps all workers busy
        simultaneously — a sequential call/reply loop would serialize
        the pool on one core at a time.
        """
        try:
            for shard in self.shards:
                shard.post(op)
            return [shard.wait(op) for shard in self.shards]
        except ShardWorkerError:
            self.close()
            raise

    def on_event(self, event: WireEvent) -> None:
        """Streaming entry point: buffer per shard, step when full."""
        index = self.shard_index(self.key(event))
        buffer = self._buffers[index]
        buffer.append(event)
        if len(buffer) >= self.batch_size:
            self._step(index, buffer)
            self._buffers[index] = []

    def ingest(self, events: Sequence[WireEvent]) -> int:
        """Partition one batch of events and run each shard's step.

        Bypasses the streaming buffers: the whole batch is scattered in
        one pass and each shard ingests its bucket immediately.
        """
        shards = self.shards
        if len(shards) == 1:
            self._step(0, events)
            return len(events)
        buckets: List[List[WireEvent]] = [[] for _ in shards]
        key = self.key
        lookup = self._assignment.get
        route = self.shard_index
        for event in events:
            partition = key(event)
            index = lookup(partition)
            if index is None:
                index = route(partition)
            buckets[index].append(event)
        for index, bucket in enumerate(buckets):
            if bucket:
                self._step(index, bucket)
        return len(events)

    def feed(self, events: Iterable[WireEvent]) -> int:
        """Pump a stream in ``batch_size`` chunks; returns the count."""
        total = 0
        batch: List[WireEvent] = []
        for event in events:
            batch.append(event)
            if len(batch) >= self.batch_size:
                total += self.ingest(batch)
                batch = []
        if batch:
            total += self.ingest(batch)
        return total

    def flush(self) -> None:
        """Drain stream buffers and freeze all pending snapshots."""
        for index, buffer in enumerate(self._buffers):
            if buffer:
                self._step(index, buffer)
                self._buffers[index] = []
        if self.backend == "process":
            self._fanout("flush")
            return
        for shard in self.shards:
            shard.flush()

    def process_deferred(self) -> int:
        """Analyze every shard's queued snapshots; returns the total."""
        if self.backend == "process":
            return sum(int(n) for n in self._fanout("deferred"))
        return sum(shard.process_deferred() for shard in self.shards)

    # -- merge stage -------------------------------------------------------

    @property
    def reports(self) -> List[FaultReport]:
        """All shards' reports in deterministic merged order."""
        merged = [r for shard in self.shards for r in shard.reports]
        merged.sort(key=report_order_key)
        return merged

    @property
    def operational_reports(self) -> List[FaultReport]:
        """Merged reports for operational faults."""
        return [r for r in self.reports if r.kind == "operational"]

    @property
    def performance_reports(self) -> List[FaultReport]:
        """Merged reports for performance faults."""
        return [r for r in self.reports if r.kind == "performance"]

    def shed_logs(self) -> None:
        """Discard accumulated report logs on every shard.

        For long-lived callers (the streaming service) that have
        already fanned reports out to listeners: keeps analyzer memory
        bounded by the windows, not by reports published.
        """
        for shard in self.shards:
            shard.shed_logs()

    # -- aggregate stats ---------------------------------------------------

    def stats(self) -> PipelineStats:
        """Counters merged across all shards."""
        if self.backend == "process":
            return PipelineStats.merged(self._fanout("stats"))
        return PipelineStats.merged(s.stats() for s in self.shards)

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Release shard resources; stops process-backend workers.

        Idempotent and safe on a partially dead pool.  Inline shards
        hold no OS resources, so closing is a no-op there — callers
        can treat both backends uniformly.
        """
        for shard in self.shards:
            shard.close()

    def __enter__(self) -> "ShardedAnalyzer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- checkpoint state --------------------------------------------------

    def snapshot_state(self) -> Dict[str, object]:
        """Serializable mid-stream state: routing + shard pipelines.

        Reports are excluded per the state protocol
        (:mod:`repro.core.state`); the process backend snapshots each
        worker's pipeline over the wire, so a process-backed session
        checkpoints exactly like an inline one.
        """
        if self.backend == "process":
            pipelines = self._fanout("snapshot")
        else:
            pipelines = [shard.snapshot_state() for shard in self.shards]
        return {
            "fmt": self.STATE_FMT,
            "backend": self.backend,
            "shards": self.n_shards,
            "batch_size": self.batch_size,
            "assignment": dict(self._assignment),
            "buffers": [
                [event.to_dict() for event in buffer]
                for buffer in self._buffers
            ],
            "pipelines": pipelines,
        }

    def restore_state(self, state: Mapping[str, object]) -> None:
        """Rehydrate a fresh, identically sharded analyzer.

        The backend need not match the one that took the snapshot —
        pipeline states are backend-agnostic — but the shard count
        must, because the round-robin assignment map is keyed by it.
        """
        require_state(state, self.STATE_FMT)
        if int(state["shards"]) != self.n_shards:
            raise StateError(
                f"state has {state['shards']} shards, analyzer has "
                f"{self.n_shards}"
            )
        pipelines = state["pipelines"]
        if len(pipelines) != self.n_shards:
            raise StateError(
                f"state has {len(pipelines)} pipeline states for "
                f"{state['shards']} shards"
            )
        self._assignment = {
            str(k): int(v) for k, v in state["assignment"].items()
        }
        self._buffers = [
            [WireEvent.from_dict(e) for e in buffer]
            for buffer in state["buffers"]
        ]
        if len(self._buffers) != self.n_shards:
            raise StateError(
                f"state has {len(self._buffers)} buffers for "
                f"{state['shards']} shards"
            )
        if self.backend == "process":
            try:
                for shard, pipeline in zip(self.shards, pipelines):
                    shard.restore_state(pipeline)
            except ShardWorkerError:
                self.close()
                raise
        else:
            for shard, pipeline in zip(self.shards, pipelines):
                shard.restore_state(pipeline)

    def __getattr__(self, name: str):
        # Aggregate counters (events_processed, bytes_processed,
        # operational_faults_seen, snapshots_taken, analysis_seconds)
        # resolve against the merged per-shard stats — one merge rule
        # instead of a hand-written delegating property per counter.
        if name in STAT_FIELDS:
            return getattr(self.stats(), name)
        raise AttributeError(
            f"{type(self).__name__!s} has no attribute {name!r}"
        )
