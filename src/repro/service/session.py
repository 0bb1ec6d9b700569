"""One tenant's long-lived analyzer session.

A :class:`TenantSession` wraps a serial
:class:`~repro.core.analyzer.GretelAnalyzer` (or a sharded engine)
with the three things a standing service needs that a batch drain
does not: a **bounded ingest queue**, an **explicit backpressure
policy** (``"block"`` / ``"shed"``), and **bounded retention** (after
every drain the pipeline's report log and the latency tracker's
anomaly log are handed off, so session memory is bounded by α + queue
capacity + the retention ring, not by events ingested).

The session runs in one of two router modes (``docs/service.md``):

* **sync** (default) — the seed design: ``submit()`` appends to a
  plain deque and, under ``"block"`` with a full queue, drains the
  whole backlog *inline on the submitter's thread*.  Single-threaded,
  deterministic, zero moving parts: the differential-oracle half.
* **pump** (``async_ingest=True``) — the production half: a dedicated
  daemon *pump thread* drains a thread-safe bounded queue in
  ``pump_chunk``-event claims.  ``"block"`` producers wait on a
  condition variable until the pump frees space (real backpressure —
  the producer sleeps instead of analyzing someone else's backlog);
  ``"shed"`` rejections are counted lock-free (one GIL-atomic
  C-level increment, no lock acquired on the reject path).  Because
  each tenant keeps exactly one consumer thread, per-tenant event
  order — and therefore the per-tenant report multiset — is exactly
  the sync router's (:func:`repro.oracle.verify_async` asserts it).

Pump-mode control protocol (every verb serialized by a per-session
state lock): :meth:`pause` parks the pump at an event boundary — no
event is ever half-analyzed — and blocks until it is parked;
:meth:`resume` releases it; :meth:`quiesce` waits until the queue is
empty and the pump idle; :meth:`seal` closes the front door (further
submits are counted shed, and blocked producers wake and return
``False``); :meth:`close` seals, lets the pump drain what was already
accepted, joins it, and releases the analyzer.  ``snapshot_state`` /
``restore_state`` pause around the state transfer, so checkpointing
a live tenant is race-free and the persisted format is identical to
the sync router's.

Reports still reach every registered sink at emit time — in pump
mode on the *pump thread*, so sinks shared across tenants must be
thread-safe (``list.append`` is).  The session additionally keeps
the last ``report_retention`` reports for inspection (``repro
serve`` prints them).
"""

from __future__ import annotations

import itertools
import threading
from collections import deque
from typing import (
    Any, Callable, Deque, Dict, List, Mapping, Optional, Protocol,
    Tuple, cast,
)

from repro.core.reports import FaultReport
from repro.core.state import StateError, require_state
from repro.openstack.wire import WireEvent

#: Accepted backpressure policies.
POLICIES = ("block", "shed")

#: Events the pump claims per lock acquisition.  Also the pause
#: latency bound: a pause request waits at most one chunk.
DEFAULT_PUMP_CHUNK = 512

#: Seconds between defensive re-checks while parked on a condition.
#: Every state change notifies its waiters; the timeout only bounds
#: the damage of a hypothetically missed wakeup.
_WAIT_TICK = 0.5

#: Seconds to wait for the pump thread to finish at close before
#: giving up (it is a daemon thread either way).
PUMP_JOIN_TIMEOUT = 120.0

ReportSink = Callable[[str, FaultReport], None]


class _AtomicCounter:
    """A GIL-atomic increment-only counter (the lock-free shed path).

    ``itertools.count.__next__`` is a single C call — two racing
    :meth:`bump` calls cannot interleave under CPython's GIL — and
    ``__reduce__`` exposes the pending value without consuming it.
    No lock is ever acquired.
    """

    __slots__ = ("_count",)

    def __init__(self, start: int = 0) -> None:
        self._count = itertools.count(start)

    def bump(self) -> None:
        next(self._count)

    @property
    def value(self) -> int:
        reduced = cast(
            Tuple[Any, Tuple[int, ...]], self._count.__reduce__()
        )
        return reduced[1][0]


class SessionAnalyzer(Protocol):
    """Structural type of any engine a session can wrap.

    Satisfied by the serial :class:`~repro.core.analyzer.GretelAnalyzer`
    and by :class:`~repro.core.parallel.ShardedAnalyzer` (either
    backend), so a tenant session can drain on a process pool without
    knowing it.
    """

    def on_event(self, event: WireEvent) -> None: ...

    def on_report(
        self, callback: Callable[[FaultReport], None]
    ) -> None: ...

    def flush(self) -> None: ...

    def shed_logs(self) -> None: ...

    def close(self) -> None: ...

    def snapshot_state(self) -> Dict[str, Any]: ...

    def restore_state(self, state: Mapping[str, Any]) -> None: ...


class TenantSession:
    """Bounded-queue streaming session for one tenant (one cloud)."""

    STATE_FMT = "tenant-session/v1"

    def __init__(
        self,
        tenant: str,
        analyzer: SessionAnalyzer,
        *,
        queue_capacity: int = 4096,
        policy: str = "block",
        report_retention: int = 64,
        async_ingest: bool = False,
        pump_chunk: int = DEFAULT_PUMP_CHUNK,
    ) -> None:
        if queue_capacity < 1:
            raise ValueError("queue_capacity must be at least 1")
        if pump_chunk < 1:
            raise ValueError("pump_chunk must be at least 1")
        if policy not in POLICIES:
            raise ValueError(
                f"unknown backpressure policy {policy!r} "
                f"(expected one of {POLICIES})"
            )
        self.tenant = tenant
        self.analyzer = analyzer
        self.queue_capacity = queue_capacity
        self.policy = policy
        self.async_ingest = async_ingest
        self.pump_chunk = min(pump_chunk, queue_capacity)
        self.queue: Deque[WireEvent] = deque()
        self.events_ingested = 0
        self.events_analyzed = 0
        self._shed = _AtomicCounter()
        self.reports_emitted = 0
        self.recent_reports: Deque[FaultReport] = deque(
            maxlen=report_retention
        )
        self._sinks: List[ReportSink] = []
        self._sealed = False
        analyzer.on_report(self._on_report)
        # Pump-mode machinery.  One mutex guards the queue and the
        # ingest/analyzed counters; three conditions on it separate
        # the wakeup channels (producers waiting for space, the pump
        # waiting for work, control threads waiting for idle/parked).
        self._lock = threading.Lock()
        self._not_full = threading.Condition(self._lock)
        self._wake = threading.Condition(self._lock)
        self._idle = threading.Condition(self._lock)
        #: Serializes the control verbs (pause/snapshot/restore/
        #: flush/close) against each other across threads.
        self._state_lock = threading.RLock()
        self._pump: Optional[threading.Thread] = None
        self._pump_busy = False
        self._pause_requests = 0
        self._paused = False
        self._stopping = False
        self._pump_error: Optional[BaseException] = None
        if async_ingest:
            self._pump = threading.Thread(
                target=self._pump_loop,
                daemon=True,
                name=f"gretel-pump-{tenant}",
            )
            self._pump.start()

    # -- report fan-out -------------------------------------------------

    def on_report(self, sink: ReportSink) -> None:
        """Register a ``(tenant, report)`` consumer.

        Pump-mode sinks fire on the pump thread; a sink shared across
        tenants must be thread-safe.
        """
        self._sinks.append(sink)

    def _on_report(self, report: FaultReport) -> None:
        self.reports_emitted += 1
        self.recent_reports.append(report)
        for sink in self._sinks:
            sink(self.tenant, report)

    # -- ingest ---------------------------------------------------------

    def submit(self, event: WireEvent) -> bool:
        """Offer one event; returns False iff it was shed (or sealed).

        Sync router: with ``"block"`` a full queue drains inline on
        this thread before the event is accepted — the producer's call
        stalls for the duration, which *is* the backpressure; with
        ``"shed"`` the event is dropped and counted.

        Pump router: ``"block"`` waits on a condition variable until
        the pump frees space; ``"shed"`` rejects a full queue without
        touching the lock (one GIL-atomic counter bump).  A sealed or
        pump-dead session sheds everything.
        """
        if not self.async_ingest:
            if self._sealed:
                self._shed.bump()
                return False
            if len(self.queue) >= self.queue_capacity:
                if self.policy == "shed":
                    self._shed.bump()
                    return False
                self.drain()
            self.queue.append(event)
            self.events_ingested += 1
            return True
        if self._sealed:
            self._shed.bump()
            return False
        if self.policy == "shed":
            # Lock-free reject path: reading a deque's length and
            # bumping the shed counter are both single C calls.
            if len(self.queue) >= self.queue_capacity:
                self._shed.bump()
                return False
            with self._lock:
                if (
                    self._sealed
                    or len(self.queue) >= self.queue_capacity
                ):
                    self._shed.bump()
                    return False
                self.queue.append(event)
                self.events_ingested += 1
                self._wake.notify()
            return True
        with self._not_full:
            while (
                len(self.queue) >= self.queue_capacity
                and not self._sealed
            ):
                self._not_full.wait(_WAIT_TICK)
            if self._sealed:
                self._shed.bump()
                return False
            self.queue.append(event)
            self.events_ingested += 1
            self._wake.notify()
        return True

    # -- the sync router's inline drain ---------------------------------

    def drain(self) -> int:
        """Run queued events through the pipeline; returns the count.

        Sync router: drains inline on the calling thread.  Pump
        router: the pump owns the pipeline, so draining means
        :meth:`quiesce` — block until the pump has emptied the queue —
        and the count is the number analyzed while waiting.
        """
        if self.async_ingest:
            before = self.events_analyzed
            self.quiesce()
            return self.events_analyzed - before
        queue = self.queue
        if not queue:
            return 0
        on_event = self.analyzer.on_event
        drained = len(queue)
        while queue:
            on_event(queue.popleft())
        self.events_analyzed += drained
        self._shed_logs()
        return drained

    def flush(self) -> None:
        """Drain the queue, then freeze pending pipeline snapshots.

        Pump router: quiesces the pump, parks it, flushes the
        analyzer on the calling thread, and resumes — so a flush
        never interleaves with in-flight analysis.
        """
        if not self.async_ingest:
            self.drain()
            self.analyzer.flush()
            self._shed_logs()
            return
        with self._state_lock:
            self.quiesce()
            self._check_pump()
            self.pause()
            try:
                self.analyzer.flush()
                self._shed_logs()
            finally:
                self.resume()

    def _shed_logs(self) -> None:
        """Hand off pipeline-internal logs (already fanned out)."""
        self.analyzer.shed_logs()

    # -- pump machinery --------------------------------------------------

    def _pump_loop(self) -> None:
        """The per-tenant consumer: claim a chunk, analyze, repeat.

        The single consumer thread is what preserves per-tenant event
        order; a claimed chunk is always analyzed to completion, so
        every park point is an event boundary.
        """
        queue = self.queue
        while True:
            with self._lock:
                self._pump_busy = False
                self._idle.notify_all()
                while True:
                    if self._pause_requests and not self._stopping:
                        self._paused = True
                        self._idle.notify_all()
                        self._wake.wait(_WAIT_TICK)
                        continue
                    self._paused = False
                    if queue or self._stopping:
                        break
                    self._wake.wait(_WAIT_TICK)
                if not queue and self._stopping:
                    self._idle.notify_all()
                    return
                claim = min(len(queue), self.pump_chunk)
                chunk = [queue.popleft() for _ in range(claim)]
                self._pump_busy = True
                self._not_full.notify_all()
            try:
                self._pump_step(chunk)
            except BaseException as error:  # noqa: B036 - no silent death
                with self._lock:
                    self._pump_error = error
                    self._sealed = True
                    self._stopping = True
                    self._pump_busy = False
                    self._paused = False
                    self._not_full.notify_all()
                    self._idle.notify_all()
                return
            with self._lock:
                self.events_analyzed += len(chunk)

    def _pump_step(self, chunk: List[WireEvent]) -> None:
        """Analyze one claimed chunk on the pump thread.

        The documented tamper seam: the ``verify_async`` negative
        tests patch this to drop or duplicate an event and assert the
        oracle trips.
        """
        on_event = self.analyzer.on_event
        for event in chunk:
            on_event(event)
        self.analyzer.shed_logs()

    def _check_pump(self) -> None:
        """Re-raise a pump-thread failure on the calling thread."""
        error = self._pump_error
        if error is not None:
            raise RuntimeError(
                f"tenant {self.tenant!r} pump thread died"
            ) from error

    def _require_pump(self) -> None:
        if not self.async_ingest:
            raise RuntimeError(
                f"tenant {self.tenant!r} session has no pump thread "
                "(built with async_ingest=False)"
            )

    def pause(self) -> None:
        """Park the pump at an event boundary; blocks until parked.

        Nestable (a pause inside a pause is fine) and serialized with
        the other control verbs by the per-session state lock.  While
        paused, producers may still enqueue (and block on a full
        queue); the pump claims nothing.
        """
        self._require_pump()
        with self._state_lock:
            with self._lock:
                self._pause_requests += 1
                self._wake.notify_all()
                while not (
                    (self._paused or self._stopping)
                    and not self._pump_busy
                ):
                    self._idle.wait(_WAIT_TICK)
            self._check_pump()

    def resume(self) -> None:
        """Release one :meth:`pause`; the pump continues draining."""
        self._require_pump()
        with self._state_lock:
            with self._lock:
                if self._pause_requests <= 0:
                    raise RuntimeError(
                        f"tenant {self.tenant!r} pump is not paused"
                    )
                self._pause_requests -= 1
                if not self._pause_requests:
                    self._wake.notify_all()

    def quiesce(self) -> None:
        """Block until the queue is empty and the pump is idle.

        The per-tenant half of the service-wide ``flush()`` barrier.
        A sealed-and-stopped (or dead) pump counts as quiesced — the
        error, if any, surfaces via :meth:`flush`/:meth:`close`.
        """
        self._require_pump()
        with self._lock:
            while (self.queue or self._pump_busy) and not (
                self._stopping and self._pump_error is not None
            ):
                if self._stopping and self._pump is not None \
                        and not self._pump.is_alive() \
                        and not self._pump_busy:
                    break
                self._idle.wait(_WAIT_TICK)

    def seal(self) -> None:
        """Close the front door: every later submit is counted shed.

        Blocked producers wake and return ``False``.  Events already
        accepted stay queued and will still be analyzed.  Idempotent;
        works in both router modes.
        """
        with self._lock:
            self._sealed = True
            self._not_full.notify_all()

    @property
    def sealed(self) -> bool:
        return self._sealed

    @property
    def pump_alive(self) -> bool:
        """Whether the pump thread exists and is running."""
        return self._pump is not None and self._pump.is_alive()

    def close(self) -> None:
        """Seal, drain what was accepted, stop the pump, release the
        analyzer.  Checkpoint before closing: a process-backed
        analyzer cannot snapshot after its workers have stopped.
        Idempotent."""
        with self._state_lock:
            with self._lock:
                self._sealed = True
                self._stopping = True
                self._wake.notify_all()
                self._not_full.notify_all()
            if self._pump is not None:
                self._pump.join(PUMP_JOIN_TIMEOUT)
            self.analyzer.close()

    @property
    def events_shed(self) -> int:
        """Events dropped (shed policy, sealed, or pump-dead)."""
        return self._shed.value

    @property
    def queued(self) -> int:
        """Events accepted but not yet analyzed."""
        return len(self.queue)

    # -- state lifecycle (see repro.core.state) -------------------------

    def snapshot_state(self) -> Dict[str, Any]:
        """Freeze the session — queue included — JSON-serializably.

        Pump mode pauses the pump around the snapshot (an event
        boundary), so the persisted format is byte-identical to the
        sync router's and ``verify_checkpoint`` needs no changes.
        The retention ring is *not* serialized (reports are outputs,
        not in-flight state); the analyzer state carries everything
        needed to finish the stream bit-identically.
        """
        if not self.async_ingest:
            return self._state_dict()
        with self._state_lock:
            self.pause()
            try:
                return self._state_dict()
            finally:
                self.resume()

    def _state_dict(self) -> Dict[str, Any]:
        with self._lock:
            queue = [event.to_dict() for event in self.queue]
            ingested = self.events_ingested
            analyzed = self.events_analyzed
        return {
            "fmt": self.STATE_FMT,
            "tenant": self.tenant,
            "policy": self.policy,
            "queue_capacity": self.queue_capacity,
            "queue": queue,
            "events_ingested": ingested,
            "events_analyzed": analyzed,
            "events_shed": self.events_shed,
            "reports_emitted": self.reports_emitted,
            "analyzer": self.analyzer.snapshot_state(),
        }

    def restore_state(self, state: Mapping[str, Any]) -> None:
        """Rehydrate a freshly built session for the same tenant."""
        require_state(state, self.STATE_FMT)
        if state["tenant"] != self.tenant:
            raise StateError(
                f"session state is for tenant {state['tenant']!r}, "
                f"this session is {self.tenant!r}"
            )
        if not self.async_ingest:
            self._restore_dict(state)
            return
        with self._state_lock:
            self.pause()
            try:
                self._restore_dict(state)
            finally:
                self.resume()

    def _restore_dict(self, state: Mapping[str, Any]) -> None:
        self.analyzer.restore_state(state["analyzer"])
        with self._lock:
            self.queue.clear()
            self.queue.extend(
                WireEvent.from_dict(e) for e in state["queue"]
            )
            self.events_ingested = state["events_ingested"]
            self.events_analyzed = state["events_analyzed"]
            self._shed = _AtomicCounter(state["events_shed"])
            self.reports_emitted = state["reports_emitted"]
            self._wake.notify_all()
