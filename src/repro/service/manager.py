"""The multi-tenant streaming service: sessions keyed by tenant.

:class:`StreamingService` owns one
:class:`~repro.service.session.TenantSession` per tenant id, building
each session's analyzer from one shared
:class:`~repro.core.pipeline.builder.PipelineBuilder` configuration
(same library, config, and latency/defer switches for every tenant —
tenants differ only in their stream, exactly as one GRETEL deployment
watches many clouds).

The service runs in one of two router modes (``docs/service.md``):

* **sync** (default) — ``submit()`` routes and, under ``"block"``
  backpressure, analyzes inline on the submitter's thread.  The
  deterministic differential-oracle half.
* **async** (``async_ingest=True``) — every session gets a dedicated
  pump thread; ``submit()`` only routes and enqueues, so N producer
  threads ingest concurrently and tenants drain in parallel.  Session
  creation, checkpoint triggering and the stats rollup are
  thread-safe; :meth:`flush` is a barrier that quiesces every pump.

Durability is opt-in: hand the service a
:class:`~repro.service.checkpoint.CheckpointStore` and it (a)
rehydrates any tenant that has a persisted checkpoint the first time
that tenant appears (unless built with ``restore=False``; see also
:meth:`StreamingService.restore_all`), and (b) re-checkpoints a
session every ``checkpoint_every`` accepted events (0 disables the
periodic trigger; explicit :meth:`StreamingService.checkpoint_all`
still works).  Because a session's state includes its ingest queue —
and, in async mode, a checkpoint pauses the tenant's pump at an event
boundary — a checkpoint never needs to force a drain first.
"""

from __future__ import annotations

import threading
from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Optional

from repro.core.config import GretelConfig
from repro.core.fingerprint import FingerprintLibrary
from repro.core.pipeline.builder import PipelineBuilder
from repro.core.symbols import SymbolTable
from repro.monitoring.store import MetadataStore
from repro.openstack.catalog import ApiCatalog
from repro.openstack.wire import WireEvent
from repro.service.checkpoint import CheckpointStore
from repro.service.session import (
    ReportSink, SessionAnalyzer, TenantSession,
)

#: Tenant bucket used when an event carries no tenant id.
DEFAULT_TENANT = "default"


def bucket_tenant(tenant: str, buckets: int) -> str:
    """Deterministically re-key a raw tenant id into ``buckets``
    service sessions (id-stable; replay tools re-bucket streams this
    way — the ``repro serve`` CLI uses the same function)."""
    raw = tenant.rsplit("-", 1)[-1]
    index = int(raw) if raw.isdigit() else 0
    return f"tenant-{index % buckets}"


@dataclass
class ServiceStats:
    """Aggregated counters across every live session.

    ``events_submitted`` counts every front-door offer;
    ``events_accepted`` only those that entered a queue.  The shed
    rate is their difference (``events_shed``) — no cross-referencing
    of per-session stats required.
    """

    tenants: int = 0
    events_submitted: int = 0
    events_accepted: int = 0
    events_analyzed: int = 0
    events_shed: int = 0
    queued: int = 0
    reports: int = 0
    checkpoints_written: int = 0
    sessions_restored: int = 0

    def to_dict(self) -> Dict[str, int]:
        return asdict(self)


class StreamingService:
    """Per-tenant analyzer sessions behind one submit() front door."""

    def __init__(
        self,
        library: FingerprintLibrary,
        *,
        symbols: Optional[SymbolTable] = None,
        catalog: Optional[ApiCatalog] = None,
        store: Optional[MetadataStore] = None,
        config: Optional[GretelConfig] = None,
        track_latency: bool = True,
        defer_detection: bool = False,
        queue_capacity: int = 4096,
        policy: str = "block",
        report_retention: int = 64,
        checkpoint_store: Optional[CheckpointStore] = None,
        checkpoint_every: int = 0,
        restore: bool = True,
        shards: int = 1,
        backend: str = "inline",
        async_ingest: bool = False,
    ) -> None:
        if checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0")
        if shards < 1:
            raise ValueError("shards must be at least 1")
        self.shards = shards
        self.backend = backend
        self.async_ingest = async_ingest
        self.library = library
        self._symbols = symbols
        self._catalog = catalog
        self._store = store
        self._config = config
        self._track_latency = track_latency
        self._defer_detection = defer_detection
        self.queue_capacity = queue_capacity
        self.policy = policy
        self.report_retention = report_retention
        self.checkpoints = checkpoint_store
        self.checkpoint_every = checkpoint_every
        self.restore_on_start = restore
        self.sessions: Dict[str, TenantSession] = {}
        self.checkpoints_written = 0
        self.sessions_restored = 0
        #: Per-tenant ``events_ingested`` high-water mark at the last
        #: checkpoint; the periodic trigger fires on the delta.
        self._checkpoint_seq: Dict[str, int] = {}
        self._sinks: List[ReportSink] = []
        self._shut_down = False
        #: Serializes lazy session creation (async producers race on
        #: first submit for a new tenant).
        self._session_lock = threading.Lock()
        #: Serializes checkpoint writes and the periodic trigger's
        #: check-then-write (reentrant: the trigger calls checkpoint).
        self._ckpt_lock = threading.RLock()

    # -- session lifecycle ----------------------------------------------

    def _build_analyzer(self) -> SessionAnalyzer:
        builder = (
            PipelineBuilder(self.library)
            .with_symbols(self._symbols)
            .with_catalog(self._catalog)
            .with_store(self._store)
            .with_config(self._config)
            .track_latency(self._track_latency)
            .defer_detection(self._defer_detection)
        )
        if self.shards > 1 or self.backend != "inline":
            # A per-tenant sharded engine: sessions drain on their own
            # worker pool (backend="process"), so tenants genuinely
            # analyze on separate cores.
            return builder.build_sharded(
                self.shards, backend=self.backend
            )
        return builder.build_serial()

    def session(self, tenant: str) -> TenantSession:
        """The live session for ``tenant``, created (and restored from
        its checkpoint, if one is persisted) on first use.  Creation
        is serialized, so racing producers agree on one session."""
        live = self.sessions.get(tenant)
        if live is not None:
            return live
        with self._session_lock:
            live = self.sessions.get(tenant)
            if live is not None:
                return live
            live = TenantSession(
                tenant,
                self._build_analyzer(),
                queue_capacity=self.queue_capacity,
                policy=self.policy,
                report_retention=self.report_retention,
                async_ingest=self.async_ingest,
            )
            for sink in self._sinks:
                live.on_report(sink)
            if self.checkpoints is not None and self.restore_on_start:
                state = self.checkpoints.load(tenant)
                if state is not None:
                    live.restore_state(state)
                    self.sessions_restored += 1
            self._checkpoint_seq[tenant] = live.events_ingested
            self.sessions[tenant] = live
        return live

    def _live_sessions(self) -> List[TenantSession]:
        """A stable view of the sessions (async producers may be
        creating more while we iterate)."""
        with self._session_lock:
            return list(self.sessions.values())

    def on_report(self, sink: ReportSink) -> None:
        """Register a ``(tenant, report)`` consumer on every session —
        current and future.  Async-mode sinks fire on pump threads."""
        self._sinks.append(sink)
        for live in self._live_sessions():
            live.on_report(sink)

    # -- ingest ----------------------------------------------------------

    def submit(
        self, event: WireEvent, *, tenant: Optional[str] = None
    ) -> bool:
        """Route one event to its tenant's session; False iff shed.

        The explicit ``tenant`` overrides the event's own tenant id
        (replay tools re-bucket streams this way); events with neither
        land in the ``"default"`` session.  A shut-down service sheds
        everything (and creates no sessions).
        """
        if self._shut_down:
            return False
        key = tenant or event.tenant or DEFAULT_TENANT
        live = self.session(key)
        accepted = live.submit(event)
        if accepted and self.checkpoint_every:
            self._maybe_checkpoint(key, live)
        return accepted

    def pump(self, events: Any, *, tenant: Optional[str] = None) -> int:
        """Submit an iterable of events; returns the accepted count."""
        accepted = 0
        for event in events:
            if self.submit(event, tenant=tenant):
                accepted += 1
        return accepted

    # -- durability -------------------------------------------------------

    def _maybe_checkpoint(self, key: str, live: TenantSession) -> None:
        """Fire the periodic checkpoint when a tenant's accepted-event
        delta crosses ``checkpoint_every``.  The unlocked pre-check
        keeps the hot path cheap; the locked re-check makes racing
        producers write one checkpoint, not several."""
        due = (
            live.events_ingested
            - self._checkpoint_seq.get(key, 0)
        )
        if due < self.checkpoint_every:
            return
        with self._ckpt_lock:
            due = (
                live.events_ingested
                - self._checkpoint_seq.get(key, 0)
            )
            if due >= self.checkpoint_every:
                self.checkpoint(key)

    def checkpoint(self, tenant: str) -> None:
        """Persist one tenant's session state now.

        Only a tenant that actually has a live session can be
        checkpointed; an unknown tenant raises ``KeyError`` instead of
        silently creating (and checkpoint-restoring) an empty session.
        """
        if self.checkpoints is None:
            raise ValueError("service has no checkpoint store")
        try:
            live = self.sessions[tenant]
        except KeyError:
            raise KeyError(
                f"unknown tenant {tenant!r}: no live session to "
                "checkpoint (submit to it first)"
            ) from None
        with self._ckpt_lock:
            self.checkpoints.save(
                tenant, live.snapshot_state(), seq=live.events_ingested
            )
            self.checkpoints_written += 1
            self._checkpoint_seq[tenant] = live.events_ingested

    def restore_all(self) -> int:
        """Resurrect every tenant with a persisted checkpoint now.

        Session restore is otherwise lazy (first ``submit`` for the
        tenant); a restarting replay calls this up front so tenants
        that never reappear in the remaining stream still get their
        pending analysis finished by the final :meth:`flush`.  Returns
        how many sessions were restored.
        """
        if self.checkpoints is None:
            raise ValueError("service has no checkpoint store")
        before = self.sessions_restored
        for tenant in self.checkpoints.tenants():
            self.session(tenant)
        return self.sessions_restored - before

    def checkpoint_all(self) -> int:
        """Persist every live session; returns how many were written."""
        live = self._live_sessions()
        for session in sorted(live, key=lambda s: s.tenant):
            self.checkpoint(session.tenant)
        return len(live)

    # -- draining ---------------------------------------------------------

    def drain(self) -> int:
        """Drain every session's queue; returns events analyzed.

        Async mode: blocks until every pump has emptied its queue
        (the count is what the pumps analyzed while waiting).
        """
        return sum(
            live.drain() for live in self._live_sessions()
        )

    def flush(self) -> None:
        """Drain and flush every session (end of replay).

        Async mode: a barrier — quiesces every pump, then flushes
        each analyzer with its pump parked.
        """
        for live in self._live_sessions():
            live.flush()

    def close(self) -> None:
        """Flush everything, then checkpoint if a store is attached."""
        self.flush()
        if self.checkpoints is not None:
            self.checkpoint_all()

    def shutdown(self) -> None:
        """Close the service, then release every session's analyzer.

        :meth:`close` keeps sessions usable (a drained service can
        keep ingesting); ``shutdown`` is terminal and idempotent — it
        additionally stops pump threads and per-session worker pools
        (sharded ``backend="process"`` sessions).  The order matters
        with live producers: **seal first** (so queues stop growing
        and blocked producers wake), then flush/quiesce, then
        checkpoint, then stop pumps and workers.  Checkpoints are
        written before workers stop, so a restarted service restores
        cleanly.
        """
        if self._shut_down:
            return
        self._shut_down = True
        sessions = self._live_sessions()
        for live in sessions:
            live.seal()
        self.close()
        for live in sessions:
            live.close()

    # -- observability ----------------------------------------------------

    @property
    def events_submitted(self) -> int:
        """Every front-door offer, accepted or shed (all sessions)."""
        return sum(
            live.events_ingested + live.events_shed
            for live in self._live_sessions()
        )

    @property
    def events_accepted(self) -> int:
        """Offers that actually entered a session queue."""
        return sum(
            live.events_ingested for live in self._live_sessions()
        )

    def stats(self) -> ServiceStats:
        stats = ServiceStats(
            checkpoints_written=self.checkpoints_written,
            sessions_restored=self.sessions_restored,
        )
        for live in self._live_sessions():
            stats.tenants += 1
            stats.events_accepted += live.events_ingested
            stats.events_analyzed += live.events_analyzed
            stats.events_shed += live.events_shed
            stats.queued += live.queued
            stats.reports += live.reports_emitted
        stats.events_submitted = (
            stats.events_accepted + stats.events_shed
        )
        return stats
