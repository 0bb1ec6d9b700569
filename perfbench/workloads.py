"""The benchmark's workloads: seeded inputs and the system each drives.

Every workload builds its inputs from ``--seed`` before timing starts,
then replays them, one pass at a time, through a freshly built system
in the program's default configuration (serial inline pipeline, sync
router).  A *pass* is one complete replay of a stream followed by the
end-of-stream flush.

The synthetic workloads inject their faults at a different *phase* in
each pass: the same events, with the fault slots shifted, as if the
generator's slot counter had started elsewhere.  A run therefore
measures many distinct faults without holding many streams in memory,
and the same (seed, phase) always gives the same stream.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import os
import shutil
import time
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.config import GretelConfig
from repro.core.pipeline import PipelineBuilder
from repro.core.pipeline.stages import PipelineStats
from repro.core.reports import FaultReport
from repro.evaluation.common import default_characterization
from repro.monitoring.store import MetadataStore
from repro.openstack.wire import WireEvent
from repro.service import CheckpointStore, StreamingService
from repro.workloads.traffic import SyntheticStream

import host
from tracing import SpanRecorder

#: One report as the benchmark sees it: (tenant, report); the tenant
#: is "" outside the service.
Emitted = Tuple[str, FaultReport]

#: Events a synthetic source must produce under one timing, and the
#: chunk of them timed between two host probes; the simulated cloud
#: captures ~10K events a second, so its chunk is smaller.
SOURCE_MIN_EVENTS = 300_000
SOURCE_CHUNK = 25_000
CAPTURE_CHUNK = 10_000

#: Phase k shifts the fault slots by frac(k·φ) of the fault period, so
#: successive phases stay well apart.
_GOLDEN = 0.6180339887498949


@dataclass
class Inputs:
    """One workload's seeded inputs, built before timing starts."""

    events: List[WireEvent]
    #: Faults injected into the stream as generated (phase 0).
    injected: int
    #: Wall seconds the source (generator or simulated cloud) took to
    #: produce the stream, and the same rescaled to the reference host
    #: speed (see ``host.py``).
    source_s: float
    source_ref_s: float
    #: Simulated seconds the stream spans.
    simulated_s: float
    #: Identity of the stream, for the same-seed-same-inputs check.
    digest: str
    #: Workload-private context (op-id -> operation, scenario capture).
    context: Any = None
    #: False if ``source_ref_s`` had to fall back to the wall time
    #: (see ``host.Meter``).
    rescaled: bool = True


@dataclass
class Stream:
    """The events of one pass and the faults injected into them."""

    events: List[WireEvent]
    #: Faults injected into the pass.
    injected: int
    #: Fault-event sequence number -> the operation the fault was
    #: injected into (synthetic streams, whose generator knows it).
    faults: Dict[int, str] = dataclasses.field(default_factory=dict)


class System:
    """One freshly built analyzer or service, driven for one pass.

    ``submit`` takes one event; ``finish`` ends the stream; ``stats``
    sums the pipeline counters.  Reports land in ``reports`` and, for
    each, ``latencies_s`` gets the wall time of the analyzer
    ``on_event`` call that emitted it (reports emitted by the final
    flush have none).
    """

    def __init__(self) -> None:
        self.reports: List[Emitted] = []
        self.latencies_s: List[float] = []
        self.submit: Callable[[WireEvent], Optional[bool]]
        self.finish: Callable[[], None]
        self.stats: Callable[[], PipelineStats]

    def timed(self, on_event: Callable[[WireEvent], None]) -> Callable[
            [WireEvent], None]:
        """``on_event`` that records the report latencies of its calls."""
        reports = self.reports
        latencies = self.latencies_s
        clock = time.perf_counter

        def call(event: WireEvent) -> None:
            before = len(reports)
            sent = clock()
            on_event(event)
            done = clock()
            emitted = len(reports) - before
            if emitted:
                latencies.extend([done - sent] * emitted)

        return call


def stream_digest(events: List[WireEvent]) -> str:
    """Order-sensitive hash of what the analyzer reads from a stream."""
    digest = hashlib.sha256()
    for event in events:
        digest.update(
            f"{event.seq}|{event.api_key}|{event.status}|"
            f"{event.src_node}|{event.dst_node}|"
            f"{event.ts_response:.9f}\n".encode("utf-8")
        )
    return digest.hexdigest()


def report_signature(tenant: str, report: FaultReport) -> List[Any]:
    """What an operator acts on: kind, fault, matched ops, θ, causes."""
    return [
        tenant,
        report.kind,
        report.fault_event.seq,
        sorted(report.detection.operations),
        round(report.detection.theta, 12),
        sorted([c.node, c.kind, c.subject] for c in report.root_causes),
    ]


def reports_digest(reports: List[Emitted]) -> str:
    """Order-independent hash of a pass's report signatures."""
    signatures = sorted(
        json.dumps(report_signature(tenant, report))
        for tenant, report in reports
    )
    return hashlib.sha256("\n".join(signatures).encode("utf-8")).hexdigest()


def tenant_bucket(tenant: str, buckets: int) -> str:
    """Stable tenant split: the id's numeric suffix, else its CRC-32.

    Never ``hash()``: under hash randomization that would change the
    per-tenant split, and with it the checkpoint sizes, per process.
    """
    suffix = tenant.rsplit("-", 1)[-1]
    index = int(suffix) if suffix.isdigit() else zlib.crc32(
        tenant.encode("utf-8")
    )
    return f"tenant-{index % buckets}"


def _analyzer_system(
    builder: PipelineBuilder, recorder: Optional[SpanRecorder]
) -> System:
    system = System()
    if recorder is None:
        analyzer = builder.build_serial()
        system.submit = system.timed(analyzer.on_event)
        system.finish = analyzer.flush
    else:
        analyzer = builder.with_middleware(recorder).build_serial()
        recorder.instrument_detector(analyzer.detector)
        system.submit = recorder.wrap(
            "receive", analyzer.on_event, outermost=True
        )
        system.finish = recorder.wrap("finish", analyzer.flush, outermost=True)
    system.stats = analyzer.stats
    analyzer.on_report(lambda report: system.reports.append(("", report)))
    return system


class Workload:
    """Base: the fingerprint library, loaded from the on-disk cache."""

    name = ""

    def __init__(self, build_dir: Path) -> None:
        self.build_dir = build_dir
        self.character = default_characterization()
        self.library = self.character.library

    def generate(self, seed: int) -> Inputs:
        raise NotImplementedError

    def stream(self, inputs: Inputs, phase: int) -> Stream:
        """The stream of one pass (``phase`` 0 is the generated one)."""
        raise NotImplementedError

    def warm(self, inputs: Inputs) -> None:
        """Finish lazy set-up the warm-up pass may not have reached."""

    def build(
        self, inputs: Optional[Inputs],
        recorder: Optional[SpanRecorder] = None,
    ) -> System:
        """A fresh system; ``inputs`` is None for the set-up probe."""
        raise NotImplementedError

    def judge(
        self, inputs: Inputs, stream: Stream, reports: List[Emitted]
    ) -> Tuple[int, int, List[str]]:
        """(faults reported, faults localized, failed checks) of a pass."""
        by_seq: Dict[int, List[FaultReport]] = {}
        for _, report in reports:
            by_seq.setdefault(report.fault_event.seq, []).append(report)
        reported = localized = 0
        for seq, operation in stream.faults.items():
            hits = by_seq.get(seq, [])
            if hits:
                reported += 1
            if any(operation in r.detection.operations for r in hits):
                localized += 1
        return reported, localized, []

    def close(self) -> None:
        """Remove whatever the workload wrote to disk."""


class _TrackingStream(SyntheticStream):
    """A SyntheticStream that remembers which operation each op id runs,
    so the benchmark knows the operation behind every injected fault."""

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        self.operations: Dict[str, str] = {}
        super().__init__(*args, **kwargs)

    def _new_op(self, op_counter: int) -> dict:
        op = super()._new_op(op_counter)
        self.operations[op["op_id"]] = op["operation"]
        return op


class Synthetic(Workload):
    """The Fig. 8c stream: concurrency 50, α = 768, latency tracking on."""

    fault_every = 1000
    length = 100_000

    config = GretelConfig(alpha=768)

    def generate(self, seed: int) -> Inputs:
        """Generate the stream, timed in chunks between host probes.

        A short stream is generated again (the same seed gives the same
        stream) until the timing covers ``SOURCE_MIN_EVENTS`` events.
        """
        rounds = -(-SOURCE_MIN_EVENTS // self.length)
        meter = host.Meter()
        for _ in range(rounds):
            source = _TrackingStream(
                self.library, self.library.symbols,
                fault_every=self.fault_every, concurrency=50, seed=seed,
            )
            pending = source.generate(self.length)
            events: List[WireEvent] = []
            while len(events) < self.length:
                chunk, _, _ = meter.run(
                    lambda: list(itertools.islice(pending, SOURCE_CHUNK))
                )
                events.extend(chunk)
        return Inputs(
            events=events,
            injected=sum(1 for event in events if event.error),
            source_s=meter.wall_s / rounds,
            source_ref_s=meter.ref_s / rounds,
            simulated_s=events[-1].ts_response - events[0].ts_request,
            digest=stream_digest(events),
            context=source.operations,
            rescaled=meter.quiet,
        )

    def stream(self, inputs: Inputs, phase: int) -> Stream:
        """Move every fault ``phase`` slots' worth along the stream.

        SyntheticStream faults the REST event on every
        ``fault_every``-th position (500 plus an error body) and leaves
        every other event a clean 200; a shifted phase re-applies the
        same rule at shifted positions.
        """
        operations = inputs.context
        events = list(inputs.events)
        faulty = [i for i, event in enumerate(events) if event.error]
        offset = int(phase * _GOLDEN * self.fault_every) % self.fault_every
        if offset:
            template = events[faulty[0]]
            for i in faulty:
                events[i] = dataclasses.replace(events[i], status=200, body="")
            faulty = []
            for i in range(self.fault_every - 1 - offset, len(events),
                           self.fault_every):
                if events[i].is_rest:
                    events[i] = dataclasses.replace(
                        events[i], status=template.status, body=template.body
                    )
                    faulty.append(i)
        return Stream(
            events=events,
            injected=len(faulty),
            faults={
                events[i].seq: operations[events[i].op_id] for i in faulty
            },
        )

    def warm(self, inputs: Inputs) -> None:
        """Hydrate candidate lists for every REST API of the stream.

        The compiled index hydrates the list of an API on the first
        fault on it, and later phases fault APIs the warm-up pass did
        not; the lists are shared by every analyzer of the library.
        """
        detector = PipelineBuilder(self.library).with_config(
            self.config
        ).build_serial().detector
        for api_key in sorted({e.api_key for e in inputs.events if e.is_rest}):
            detector.candidates_for(api_key)

    def build(
        self, inputs: Optional[Inputs],
        recorder: Optional[SpanRecorder] = None,
    ) -> System:
        builder = PipelineBuilder(self.library).with_config(self.config)
        return _analyzer_system(builder, recorder)


class SparseFaults(Synthetic):
    name = "sparse_faults"
    fault_every = 10_000
    length = 150_000


class DenseFaults(Synthetic):
    name = "dense_faults"
    fault_every = 100
    length = 10_000


class BenchService(StreamingService):
    """The service with the benchmark's hooks on every session.

    Hooks the service's analyzer factory (the one place sessions get
    their pipelines).  Untraced, the service builds its analyzer as it
    would anyway and the benchmark only times its ``on_event`` for
    report latencies.  Traced, the stage middleware must go in before
    the pipeline is built, so the analyzer is built here from the
    service's own settings; that is only done for the serial pipeline
    the traced breakdown knows how to read, and refused otherwise.
    """

    def __init__(self, library: Any, *, system: System,
                 recorder: Optional[SpanRecorder], **kwargs: Any) -> None:
        self.system = system
        self.recorder = recorder
        #: Tenant -> its analyzer's counters when its session closed.
        self.final_stats: Dict[str, PipelineStats] = {}
        super().__init__(library, **kwargs)
        if recorder is not None and (
            self.shards > 1 or self.backend != "inline" or self.async_ingest
        ):
            raise RuntimeError(
                f"the traced run needs serial sessions, but the service "
                f"runs shards={self.shards} backend={self.backend!r} "
                f"async_ingest={self.async_ingest}"
            )

    def _build_analyzer(self) -> Any:
        recorder = self.recorder
        if recorder is None:
            analyzer = super()._build_analyzer()
            analyzer.on_event = self.system.timed(analyzer.on_event)
            return analyzer
        analyzer = (
            PipelineBuilder(self.library)
            .with_symbols(self._symbols)
            .with_catalog(self._catalog)
            .with_store(self._store)
            .with_config(self._config)
            .track_latency(self._track_latency)
            .defer_detection(self._defer_detection)
            .with_middleware(recorder)
            .build_serial()
        )
        recorder.instrument_detector(analyzer.detector)
        analyzer.on_event = recorder.wrap("service.analyze", analyzer.on_event)
        return analyzer

    def session(self, tenant: str) -> Any:
        fresh = tenant not in self.sessions
        live = super().session(tenant)
        if not fresh:
            return live
        close = live.close

        def close_after_stats() -> None:
            # A closed session's analyzer may no longer answer (a
            # process-backed one has stopped its workers).
            self.final_stats[tenant] = live.analyzer.stats()
            close()

        live.close = close_after_stats
        if self.recorder is not None:
            live.snapshot_state = self.recorder.wrap(
                "service.snapshot_state", live.snapshot_state
            )
        return live


class TenantsCheckpointed(Synthetic):
    """The 1-per-1,000 stream split into four tenants of one service."""

    name = "tenants_checkpointed"
    fault_every = 1000
    length = 100_000
    tenants = 4
    checkpoint_every = 5000

    def __init__(self, build_dir: Path) -> None:
        super().__init__(build_dir)
        self.passes = 0
        self.checkpoint_dir: Optional[Path] = None

    def close(self) -> None:
        if self.checkpoint_dir is not None:
            shutil.rmtree(self.checkpoint_dir, ignore_errors=True)

    def build(
        self, inputs: Optional[Inputs],
        recorder: Optional[SpanRecorder] = None,
    ) -> System:
        # Each pass checkpoints into an empty directory of its own (a
        # populated one would restore sessions); the last pass's files
        # are removed here, outside any timed pass.
        self.close()
        self.passes += 1
        self.checkpoint_dir = (
            self.build_dir / "checkpoints" / f"{os.getpid()}-{self.passes}"
        )
        store = CheckpointStore(self.checkpoint_dir)
        system = System()
        service = BenchService(
            self.library, system=system, recorder=recorder,
            config=self.config, checkpoint_store=store,
            checkpoint_every=self.checkpoint_every,
        )
        if recorder is not None:
            recorder.instrument_store(store)
        tenant_of = {} if inputs is None else {
            event.seq: tenant_bucket(event.tenant, self.tenants)
            for event in inputs.events
        }
        submit = service.submit

        def route(event: WireEvent) -> bool:
            return submit(event, tenant=tenant_of[event.seq])

        def stats() -> PipelineStats:
            total = PipelineStats()
            for counted in service.final_stats.values():
                total = total + counted
            return total

        system.submit, system.finish, system.stats = (
            route, service.shutdown, stats
        )
        if recorder is not None:
            system.submit = recorder.wrap(
                "service.route", route, outermost=True
            )
            system.finish = recorder.wrap(
                "finish", service.shutdown, outermost=True
            )
        service.on_report(
            lambda tenant, report: system.reports.append((tenant, report))
        )
        return system


class LevelShift(Workload):
    """The catalog's performance_level_shift scenario, captured live by
    the simulated cloud, then replayed serially."""

    name = "sim_level_shift"

    def __init__(self, build_dir: Path) -> None:
        super().__init__(build_dir)
        from repro.scenarios import registry

        self.scenario_class = registry.get("performance_level_shift")

    def generate(self, seed: int) -> Inputs:
        """Capture the scenario, timed in chunks of ``CAPTURE_CHUNK``
        captured events between host probes."""
        scenario = self.scenario_class(self.character, seed=seed)
        meter = host.Meter()
        open_capture = scenario._open_capture

        def open_probed_capture() -> Any:
            opened = open_capture()
            captured = opened[2]

            def count(event: WireEvent) -> None:
                if len(captured) % CAPTURE_CHUNK == 0:
                    meter.split()

            opened[1].subscribe_events(count)
            return opened

        scenario._open_capture = open_probed_capture
        captured, _, _ = meter.run(scenario.capture)
        return Inputs(
            events=captured.events, injected=captured.injected,
            source_s=meter.wall_s, source_ref_s=meter.ref_s,
            simulated_s=captured.duration,
            digest=stream_digest(captured.events),
            context=(scenario, captured, scenario.expectation(captured)),
            rescaled=meter.quiet,
        )

    def stream(self, inputs: Inputs, phase: int) -> Stream:
        """Every pass replays the one capture."""
        return Stream(events=inputs.events, injected=inputs.injected)

    def build(
        self, inputs: Optional[Inputs],
        recorder: Optional[SpanRecorder] = None,
    ) -> System:
        store = MetadataStore()
        config = self.scenario_class(self.character).analyzer_config()
        if inputs is not None:
            scenario, captured, _ = inputs.context
            store, config = captured.store, scenario.analyzer_config()
        builder = (
            PipelineBuilder(self.library)
            .with_store(store).with_config(config).track_latency(True)
        )
        return _analyzer_system(builder, recorder)

    def judge(
        self, inputs: Inputs, stream: Stream, reports: List[Emitted]
    ) -> Tuple[int, int, List[str]]:
        """The scenario's own Detection and Localization oracles decide."""
        from repro.scenarios.oracles import (
            PASS, DetectionOracle, GradingContext, LocalizationOracle,
            detection_counts,
        )

        scenario, captured, expectation = inputs.context
        ctx = GradingContext(
            scenario=scenario, captured=captured, expectation=expectation,
            reports=[report for _, report in reports], label="serial",
        )
        outcomes = [DetectionOracle().grade(ctx), LocalizationOracle().grade(ctx)]
        reported = detection_counts(ctx).detected_instances
        localized = reported if outcomes[1].grade == PASS else 0
        failed = [
            f"{outcome.oracle} oracle: {outcome.detail}"
            for outcome in outcomes if outcome.grade != PASS
        ]
        return reported, localized, failed


WORKLOADS = {
    cls.name: cls
    for cls in (SparseFaults, DenseFaults, TenantsCheckpointed, LevelShift)
}
