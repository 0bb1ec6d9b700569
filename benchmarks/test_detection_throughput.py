"""Detection-throughput baseline: reference vs incremental scoring.

Replays the Fig. 8c synthetic stream (60K events at full scale, 1 REST
fault per 1000) with detection deferred, then times the detection
drain — the Algorithm 2 adaptive-buffer loop over every frozen
snapshot — on the reference pipeline (``repro.oracle.ReferenceBuilder``:
the full candidate scan and the from-scratch scorer) and on the
production pipeline (compiled index + the ``repro.core.matching``
engine).  Three oracles guard the speedup:

* ``verify_detection`` replays every snapshot through both scorers and
  requires bit-identical ``DetectionResult``s (ops, θ, β, coverages,
  matched events);
* ``verify_equivalence`` proves the sharded analyzer (which also runs
  the engine) report-identical to the serial one at 1/2/4/8 shards;
* a drift gate holds the achieved speedup to ≥ 90% of the committed
  full-scale baseline's.

Artifacts: ``results/BENCH_detection.json`` (machine readable; the
committed copy is a full-scale run) and
``results/detection_throughput.txt`` (rendered report, referenced from
EXPERIMENTS.md).
"""

import time
from dataclasses import asdict

from conftest import (
    assert_no_drift,
    full_scale,
    load_committed,
    save_committed,
)

from repro.core.analyzer import GretelAnalyzer
from repro.core.config import GretelConfig
from repro.core.parallel import ShardedAnalyzer
from repro.core.pipeline import PipelineBuilder
from repro.monitoring.store import MetadataStore
from repro.oracle import (
    ReferenceBuilder,
    verify_detection,
    verify_equivalence,
)
from repro.workloads.traffic import SyntheticStream

SHARD_COUNTS = (1, 2, 4, 8)
FAULT_EVERY = 1000
ALPHA = 768          # the paper's testbed α, as in Fig. 8c
SEED = 5             # the Fig. 8c stream seed
REPEATS = 3          # timing is best-of-N; fresh analyzer each run

#: Acceptance floor (ISSUE 4): incremental detection must drain the
#: full-scale snapshot backlog ≥ this × faster than the *committed*
#: pre-engine serial baseline (``detect_seconds`` in
#: ``results/BENCH_parallel_throughput.json``, recorded before this
#: engine existed).  Only meaningful at full scale on a machine
#: comparable to the one that recorded the baseline, so it is asserted
#: there and reported everywhere.
TARGET_SPEEDUP_VS_COMMITTED = 3.0
#: Floor against the same-run reference scorer.  Lower than the
#: committed-baseline target because this PR also speeds the
#: *reference* path up (per-API fragment cache, Counter-tightened
#: gate, lazy regex compile) — the fair like-for-like denominator for
#: the committed 3× claim is the committed baseline above.
TARGET_SPEEDUP = 2.0
SMOKE_SPEEDUP = 1.2


def _committed_baseline():
    """The committed full-scale baseline payload, or None if absent."""
    return load_committed("BENCH_detection.json")


def _committed_serial_detect_seconds():
    """The pre-engine serial detection drain (the PR's "before"): the
    committed full-scale parallel-throughput baseline's serial
    ``detect_seconds``, recorded with the from-scratch scorer."""
    payload = load_committed("BENCH_parallel_throughput.json")
    if payload is None:
        return None
    return payload.get("serial", {}).get("detect_seconds")


def _config():
    return GretelConfig(alpha=ALPHA)


def _time_detection(library, events, reference):
    """Best-of-N detection-drain timing for one pipeline; returns the
    sample plus the engine counters of the best run."""
    best = None
    for _ in range(REPEATS):
        builder = (
            ReferenceBuilder(library) if reference
            else PipelineBuilder(library)
        )
        analyzer = (
            builder.with_store(MetadataStore()).with_config(_config())
            .track_latency(False).defer_detection(True).build_serial()
        )
        analyzer.feed(events)
        analyzer.flush()
        started = time.perf_counter()
        snapshots = analyzer.process_deferred()
        detect = time.perf_counter() - started
        sample = {
            "detect_seconds": detect,
            "snapshots": snapshots,
            "reports": len(analyzer.reports),
            "engine": asdict(analyzer.pipeline.detector.matching_stats),
        }
        if best is None or detect < best["detect_seconds"]:
            best = sample
    return best


def _time_sharded_detection(library, events, shards, backend="inline"):
    best = None
    for _ in range(REPEATS):
        analyzer = ShardedAnalyzer(
            library, shards, store=MetadataStore(), config=_config(),
            track_latency=False, defer_detection=True,
            backend=backend,
        )
        try:
            analyzer.ingest(events)
            analyzer.flush()
            started = time.perf_counter()
            snapshots = analyzer.process_deferred()
            detect = time.perf_counter() - started
            sample = {"detect_seconds": detect, "snapshots": snapshots,
                      "reports": len(analyzer.reports)}
        finally:
            analyzer.close()
        if best is None or detect < best["detect_seconds"]:
            best = sample
    return best


def _frozen_snapshots(library, events):
    """The stream's snapshots, frozen but not yet analyzed."""
    analyzer = GretelAnalyzer(
        library, store=MetadataStore(), config=_config(),
        track_latency=False, defer_detection=True,
    )
    analyzer.feed(events)
    analyzer.flush()
    return analyzer.pipeline.deferred_snapshots()


def _render(payload):
    reference = payload["reference"]
    incremental = payload["incremental"]
    engine = incremental["engine"]
    lines = [
        "Detection-throughput baseline (Fig. 8c stream)",
        f"{payload['stream']['events']} events, 1 fault per "
        f"{payload['stream']['fault_every']}, alpha={ALPHA}, "
        f"scale={payload['scale']}, "
        f"{reference['snapshots']} snapshots",
        f"{'scorer':>12s} {'detect':>10s} {'per-snap':>10s} "
        f"{'speedup':>9s} {'oracle':>8s}",
        f"{'reference':>12s} {reference['detect_seconds']:8.3f}s "
        f"{reference['detect_seconds'] / reference['snapshots'] * 1e3:7.2f}ms"
        f" {'1.00x':>9s} {'--':>8s}",
        f"{'incremental':>12s} {incremental['detect_seconds']:8.3f}s "
        f"{incremental['detect_seconds'] / incremental['snapshots'] * 1e3:7.2f}"
        f"ms {payload['acceptance']['achieved_speedup_detect']:8.2f}x "
        f"{'PASS' if payload['equivalent_serial'] else 'FAIL':>8s}",
    ]
    versus = payload["acceptance"]["achieved_speedup_vs_committed_serial"]
    if versus is not None:
        lines.append(
            f"  vs committed pre-engine serial drain "
            f"({payload['acceptance']['committed_serial_detect_seconds']:.3f}"
            f"s): {versus:.2f}x"
        )
    lines += [
        "  engine: "
        f"{engine['candidates_gated']} gated, "
        f"{engine['blocks_built']} blocks, "
        f"{engine['lcs_row_extensions']} DP passes "
        f"({engine['rescore_hits']} span-cache hits), "
        f"{engine['lcs_symbols_fed']} symbols fed",
    ]
    for sample in payload["sharded"]:
        lines.append(
            f"{sample['shards']:10d}sh {sample['detect_seconds']:8.3f}s "
            f"{'':>10s} {'':>9s} "
            f"{'PASS' if sample['equivalent'] else 'FAIL':>8s}"
        )
    process = payload.get("process")
    if process is not None:
        lines.append(
            f"{'4sh-proc':>12s} {process['detect_seconds']:8.3f}s "
            f"{'':>10s} {'':>9s} "
            f"{'PASS' if process['equivalent'] else 'FAIL':>8s}"
        )
    return "\n".join(lines)


def test_detection_throughput_baseline(character, save_result):
    library = character.library
    event_count = 60_000 if full_scale() else 12_000
    stream = SyntheticStream(
        library, library.symbols, fault_every=FAULT_EVERY, seed=SEED,
    )
    events = stream.events(event_count)

    reference = _time_detection(library, events, reference=True)
    incremental = _time_detection(library, events, reference=False)
    speedup = (
        reference["detect_seconds"] / incremental["detect_seconds"]
    )

    # Oracle 1: per-snapshot bit-identical DetectionResults.
    snapshots = _frozen_snapshots(library, events)
    serial_oracle = verify_detection(
        snapshots, library, config=_config(), strict=False,
    )

    # Oracle 2: the sharded engines (which run the same incremental
    # scorer) stay report-identical to the serial analyzer.
    sharded = []
    for shards in SHARD_COUNTS:
        sample = _time_sharded_detection(library, events, shards)
        oracle = verify_equivalence(
            events, library, shards, config=_config(),
            track_latency=False, defer_detection=True, strict=False,
        )
        sample.update({"shards": shards, "equivalent": oracle.ok})
        sharded.append(sample)

    # Process-backend column at 4 shards: the same drain on a worker
    # pool.  Its wall-clock gate lives in test_parallel_process.py;
    # here it rides along with the cross-backend oracle.
    process = _time_sharded_detection(library, events, 4,
                                      backend="process")
    process_oracle = verify_equivalence(
        events, library, 4, config=_config(), track_latency=False,
        defer_detection=True, strict=False, backend="process",
    )
    process.update({"shards": 4, "backend": "process",
                    "equivalent": process_oracle.ok})

    committed = _committed_baseline()
    committed_serial = _committed_serial_detect_seconds()
    speedup_vs_committed = (
        committed_serial / incremental["detect_seconds"]
        if committed_serial else None
    )

    payload = {
        "benchmark": "detection_throughput",
        "scale": "full" if full_scale() else "small",
        "stream": {
            "events": event_count,
            "fault_every": FAULT_EVERY,
            "alpha": ALPHA,
            "seed": SEED,
        },
        "reference": reference,
        "incremental": incremental,
        "equivalent_serial": serial_oracle.ok,
        "oracle_snapshots": serial_oracle.facts["snapshots"],
        "sharded": sharded,
        "process": process,
        "acceptance": {
            "target_speedup_detect": TARGET_SPEEDUP,
            "achieved_speedup_detect": speedup,
            "target_speedup_vs_committed_serial":
                TARGET_SPEEDUP_VS_COMMITTED,
            "committed_serial_detect_seconds": committed_serial,
            "achieved_speedup_vs_committed_serial": speedup_vs_committed,
        },
    }
    # The committed JSON is a full-scale run; the small smoke scale
    # must not clobber it with reduced-stream numbers.
    if full_scale():
        save_committed("BENCH_detection.json", payload)
        save_result("detection_throughput", _render(payload))
    else:
        print()
        print(_render(payload))

    # A speedup that changes any diagnosis is not a speedup.
    assert serial_oracle.ok, serial_oracle.summary()
    assert incremental["reports"] == reference["reports"]
    for sample in sharded:
        assert sample["equivalent"], (
            f"sharded run diverged from serial at {sample['shards']} shards"
        )
    assert process["equivalent"], (
        "process-backend run diverged from serial at 4 shards"
    )
    floor = TARGET_SPEEDUP if full_scale() else SMOKE_SPEEDUP
    assert speedup >= floor, (
        f"incremental detection speedup {speedup:.2f}x below the "
        f"{floor}x floor"
    )
    # The ISSUE acceptance bar: ≥3× over the committed pre-engine
    # serial drain (the like-for-like "before" — the same-run
    # reference above also benefits from this PR's gate/cache work).
    if full_scale() and speedup_vs_committed is not None:
        assert speedup_vs_committed >= TARGET_SPEEDUP_VS_COMMITTED, (
            f"detection drain {incremental['detect_seconds']:.3f}s is "
            f"only {speedup_vs_committed:.2f}x the committed serial "
            f"baseline's {committed_serial:.3f}s "
            f"(target {TARGET_SPEEDUP_VS_COMMITTED}x)"
        )
    # Drift gate: engine refactors must not erode the advantage.
    if full_scale() and committed is not None:
        assert_no_drift(
            "detection speedup",
            speedup,
            committed["acceptance"]["achieved_speedup_detect"],
        )
