"""Latency-path throughput baseline: reference vs incremental LS.

Two measurements, one differential oracle (ISSUE 5):

* **LS micro** — a per-API latency series (window = 24, the
  production ``ls_window``) fed sample-by-sample through the reference
  :class:`~repro.oracle.LevelShiftDetector` (three O(w·log w)
  sorts per sample) and through the streaming
  :class:`~repro.core.streamstats.IncrementalLevelShiftDetector`
  (sorted rolling window + version-cached threshold).
* **Fig. 8c ingest** — the synthetic stream replayed through the
  serial analyzer with latency tracking *on* (detection deferred), on
  a pipeline whose tracker feeds reference LS detectors
  (``repro.oracle.ReferenceBuilder``) and on the production one, so
  the delta isolates what the LS engine saves on the §7.4.1 receiver
  path.

``verify_levelshift_stream`` replays every per-API series through
both detectors and requires bit-identical alarms, baselines and
thresholds — serially over the whole stream and per shard bucket at
{1, 2, 4, 8} shards (the sub-streams the sharded analyzer would feed)
— and ``verify_equivalence`` proves the sharded analyzer
report-identical to the serial one with latency tracking enabled.

Artifacts: ``results/BENCH_latency.json`` (machine readable; the
committed copy is a full-scale run) and
``results/latency_throughput.txt`` (rendered report, referenced from
EXPERIMENTS.md).
"""

import random
import time

from conftest import (
    assert_no_drift,
    full_scale,
    load_committed,
    save_committed,
)

from repro.core.config import GretelConfig
from repro.core.parallel import ShardedAnalyzer, source_node_key
from repro.core.pipeline import PipelineBuilder
from repro.core.streamstats import detector_from_config
from repro.monitoring.store import MetadataStore
from repro.oracle import (
    ReferenceBuilder,
    reference_levelshift,
    verify_equivalence,
    verify_levelshift_stream,
)
from repro.workloads.traffic import SyntheticStream

SHARD_COUNTS = (1, 2, 4, 8)
FAULT_EVERY = 1000
ALPHA = 768          # the paper's testbed α, as in Fig. 8c
SEED = 5             # the Fig. 8c stream seed
REPEATS = 3          # timing is best-of-N; fresh detectors each run
WINDOW = 24          # the production ls_window

#: Acceptance floor (ISSUE 5): the incremental detector must process
#: the micro series ≥ this × faster than the reference at full scale.
TARGET_MICRO_SPEEDUP = 3.0
SMOKE_MICRO_SPEEDUP = 1.5
#: The latency-tracked Fig. 8c ingest must show a measurable win; the
#: LS path is one stage of the receiver loop, so the bar is modest.
TARGET_INGEST_SPEEDUP = 1.05


def _committed_baseline():
    """The committed full-scale baseline payload, or None if absent."""
    return load_committed("BENCH_latency.json")


def _config():
    return GretelConfig(alpha=ALPHA)


def _micro_series(samples):
    """One latency series with occasional level shifts, so the timing
    covers warmup, steady threshold checks, confirm streaks, alarms
    and post-alarm re-seeds."""
    rng = random.Random(SEED)
    series = []
    ts = 0.0
    level = 0.010
    for _ in range(samples):
        ts += rng.uniform(0.05, 0.15)
        if rng.random() < 0.002:
            level = 0.010 * rng.uniform(1.0, 8.0)
        series.append((ts, level * rng.uniform(0.9, 1.1)))
    return series


def _time_micro(series, reference):
    """Best-of-N timing of one detector over the micro series."""
    build = reference_levelshift if reference else detector_from_config
    best = None
    for _ in range(REPEATS):
        detector = build(GretelConfig(ls_window=WINDOW))
        update = detector.update
        started = time.perf_counter()
        for ts, value in series:
            update(ts, value)
        elapsed = time.perf_counter() - started
        sample = {
            "seconds": elapsed,
            "alarms": len(detector.alarms),
            "threshold_recomputes": detector.threshold_recomputes,
        }
        if best is None or elapsed < best["seconds"]:
            best = sample
    return best


def _time_ingest(library, events, reference):
    """Best-of-N latency-tracked serial ingest (detection deferred)."""
    best = None
    for _ in range(REPEATS):
        builder = (
            ReferenceBuilder(library) if reference
            else PipelineBuilder(library)
        )
        analyzer = (
            builder.with_store(MetadataStore()).with_config(_config())
            .track_latency(True).defer_detection(True).build_serial()
        )
        started = time.perf_counter()
        analyzer.feed(events)
        analyzer.flush()
        ingest = time.perf_counter() - started
        stats = analyzer.stats()
        sample = {
            "ingest_seconds": ingest,
            "ingest_eps": len(events) / ingest,
            "ls_samples_fed": stats.ls_samples_fed,
            "ls_threshold_recomputes": stats.ls_threshold_recomputes,
            "performance_reports": len(analyzer.performance_reports),
        }
        if best is None or ingest < best["ingest_seconds"]:
            best = sample
    return best


def _shard_buckets(events, shards):
    """Partition the stream exactly as ``ShardedAnalyzer`` routes it:
    first-seen round-robin on the source node."""
    assignment = {}
    buckets = [[] for _ in range(shards)]
    for event in events:
        key = source_node_key(event)
        index = assignment.get(key)
        if index is None:
            index = len(assignment) % shards
            assignment[key] = index
        buckets[index].append(event)
    return buckets


def _verify_shard_streams(events, shards):
    """The LS oracle over every shard's sub-stream, merged."""
    buckets = _shard_buckets(events, shards)
    total = verify_levelshift_stream(buckets[0], strict=False)
    for bucket in buckets[1:]:
        total.merge(verify_levelshift_stream(bucket, strict=False))
    return total


def _render(payload):
    micro = payload["micro"]
    ingest = payload["ingest"]
    lines = [
        "Latency-path throughput baseline (Fig. 8c stream)",
        f"{payload['stream']['events']} events, 1 fault per "
        f"{payload['stream']['fault_every']}, alpha={ALPHA}, "
        f"scale={payload['scale']}",
        f"LS micro: {micro['samples']} samples, window={WINDOW}",
        f"{'detector':>12s} {'seconds':>10s} {'per-sample':>11s} "
        f"{'recomputes':>11s} {'speedup':>9s}",
        f"{'reference':>12s} {micro['reference']['seconds']:9.3f}s "
        f"{micro['reference']['seconds'] / micro['samples'] * 1e6:8.2f}µs "
        f"{micro['reference']['threshold_recomputes']:11d} {'1.00x':>9s}",
        f"{'incremental':>12s} {micro['incremental']['seconds']:9.3f}s "
        f"{micro['incremental']['seconds'] / micro['samples'] * 1e6:8.2f}µs "
        f"{micro['incremental']['threshold_recomputes']:11d} "
        f"{micro['speedup']:8.2f}x",
        "Fig. 8c serial ingest, latency tracking on:",
        f"{'LS engine':>12s} {'ingest':>10s} {'events/s':>12s} "
        f"{'recomputes':>11s} {'speedup':>9s}",
        f"{'reference':>12s} {ingest['reference']['ingest_seconds']:9.3f}s "
        f"{ingest['reference']['ingest_eps']:10.0f}e/s "
        f"{ingest['reference']['ls_threshold_recomputes']:11d} "
        f"{'1.00x':>9s}",
        f"{'incremental':>12s} "
        f"{ingest['incremental']['ingest_seconds']:9.3f}s "
        f"{ingest['incremental']['ingest_eps']:10.0f}e/s "
        f"{ingest['incremental']['ls_threshold_recomputes']:11d} "
        f"{ingest['speedup']:8.2f}x",
        f"LS oracle (serial): "
        f"{'PASS' if payload['oracle']['serial_ok'] else 'FAIL'} — "
        f"{payload['oracle']['series']} series / "
        f"{payload['oracle']['samples']} samples / "
        f"{payload['oracle']['alarms']} alarms",
    ]
    for sample in payload["sharded"]:
        lines.append(
            f"{sample['shards']:10d}sh  LS oracle "
            f"{'PASS' if sample['levelshift_ok'] else 'FAIL':>4s}  "
            f"report oracle "
            f"{'PASS' if sample['equivalent'] else 'FAIL':>4s}"
        )
    return "\n".join(lines)


def test_latency_throughput_baseline(character, save_result):
    library = character.library
    if full_scale():
        event_count, micro_samples = 60_000, 200_000
    else:
        event_count, micro_samples = 12_000, 40_000
    stream = SyntheticStream(
        library, library.symbols, fault_every=FAULT_EVERY, seed=SEED,
    )
    events = stream.events(event_count)

    # The LS micro pair.
    series = _micro_series(micro_samples)
    micro_reference = _time_micro(series, reference=True)
    micro_incremental = _time_micro(series, reference=False)
    micro_speedup = (
        micro_reference["seconds"] / micro_incremental["seconds"]
    )
    assert micro_incremental["alarms"] == micro_reference["alarms"]

    # The latency-tracked ingest pair.
    ingest_reference = _time_ingest(library, events, reference=True)
    ingest_incremental = _time_ingest(library, events, reference=False)
    ingest_speedup = (
        ingest_reference["ingest_seconds"]
        / ingest_incremental["ingest_seconds"]
    )

    # Oracle 1: bit-identical LS behaviour over the whole stream.
    serial_oracle = verify_levelshift_stream(events, strict=False)

    # Oracle 2: the same property per shard bucket, plus full report
    # equivalence of the sharded analyzer with latency tracking on.
    sharded = []
    for shards in SHARD_COUNTS:
        ls_oracle = _verify_shard_streams(events, shards)
        report_oracle = verify_equivalence(
            events, library, shards, config=_config(),
            track_latency=True, defer_detection=True, strict=False,
        )
        sharded.append({
            "shards": shards,
            "levelshift_ok": ls_oracle.ok,
            "levelshift_series": ls_oracle.facts["series"],
            "equivalent": report_oracle.ok,
        })

    committed = _committed_baseline()

    payload = {
        "benchmark": "latency_throughput",
        "scale": "full" if full_scale() else "small",
        "stream": {
            "events": event_count,
            "fault_every": FAULT_EVERY,
            "alpha": ALPHA,
            "seed": SEED,
        },
        "micro": {
            "samples": micro_samples,
            "window": WINDOW,
            "reference": micro_reference,
            "incremental": micro_incremental,
            "speedup": micro_speedup,
        },
        "ingest": {
            "reference": ingest_reference,
            "incremental": ingest_incremental,
            "speedup": ingest_speedup,
        },
        "oracle": {
            "serial_ok": serial_oracle.ok,
            "series": serial_oracle.facts["series"],
            "samples": serial_oracle.facts["samples"],
            "alarms": serial_oracle.facts["alarms"],
        },
        "sharded": sharded,
        "acceptance": {
            "target_micro_speedup": TARGET_MICRO_SPEEDUP,
            "achieved_micro_speedup": micro_speedup,
            "target_ingest_speedup": TARGET_INGEST_SPEEDUP,
            "achieved_ingest_speedup": ingest_speedup,
        },
    }
    # The committed JSON is a full-scale run; the small smoke scale
    # must not clobber it with reduced-stream numbers.
    if full_scale():
        save_committed("BENCH_latency.json", payload)
        save_result("latency_throughput", _render(payload))
    else:
        print()
        print(_render(payload))

    # A speedup that changes any alarm is not a speedup.
    assert serial_oracle.ok, serial_oracle.summary()
    for sample in sharded:
        assert sample["levelshift_ok"], (
            f"LS oracle diverged in a {sample['shards']}-shard bucket"
        )
        assert sample["equivalent"], (
            f"sharded run diverged from serial at "
            f"{sample['shards']} shards"
        )
    floor = (
        TARGET_MICRO_SPEEDUP if full_scale() else SMOKE_MICRO_SPEEDUP
    )
    assert micro_speedup >= floor, (
        f"incremental LS micro speedup {micro_speedup:.2f}x below the "
        f"{floor}x floor"
    )
    if full_scale():
        assert ingest_speedup >= TARGET_INGEST_SPEEDUP, (
            f"latency-tracked ingest speedup {ingest_speedup:.2f}x "
            f"below the {TARGET_INGEST_SPEEDUP}x floor"
        )
    # Drift gate: refactors must not erode the engine's advantage.
    if full_scale() and committed is not None:
        assert_no_drift(
            "LS micro speedup",
            micro_speedup,
            committed["acceptance"]["achieved_micro_speedup"],
        )


def test_shard_routing_replication(character):
    """The bucket partitioner must mirror ``ShardedAnalyzer``'s
    routing exactly, or the per-shard LS oracle would verify the
    wrong sub-streams."""
    library = character.library
    stream = SyntheticStream(
        library, library.symbols, fault_every=FAULT_EVERY, seed=SEED,
    )
    events = stream.events(2_000)
    analyzer = ShardedAnalyzer(library, 4, store=MetadataStore())
    expected = [[] for _ in range(4)]
    for event in events:
        expected[analyzer.shard_index(source_node_key(event))].append(
            event
        )
    assert _shard_buckets(events, 4) == expected
