"""Process-backend drain gate: real multi-core sharding (ISSUE 9).

Replays the Fig. 8c synthetic stream (60K events at full scale, 1 REST
fault per 1000) through ``ShardedAnalyzer`` at shard counts
{1, 2, 4, 8} on **both** execution backends — ``inline`` (all shards
in the calling thread) and ``process`` (one long-lived worker process
per shard, chunked seeding + backpressure per
``docs/parallelism.md``) — and times, per backend:

* **startup** — analyzer construction (for ``process``: forking the
  pool and seeding every worker with the pickled library + config);
* **ingest** — scatter + chunk shipping + flush;
* **detect** — the deferred Algorithm 2 drain, which is where the
  multi-core win lives.

The acceptance gate is the ISSUE 9 tentpole bar: ``backend="process"``
at 4 shards must drain the detection backlog ≥2.0× faster wall-clock
than the **committed pre-engine serial baseline** (the
``committed_serial_detect_seconds`` recorded in
``results/BENCH_detection.json``), with ``verify_equivalence`` PASS at
every shard count on both backends — a speedup that changes the
diagnosis is not a speedup.  A drift gate holds the achieved speedup
to ≥90% of this benchmark's own committed full-scale run.

Artifacts: ``results/BENCH_parallel_process.json`` (machine readable;
the committed copy is a full-scale run) and
``results/parallel_process.txt`` (rendered report).
"""

import time

from conftest import (
    assert_no_drift,
    full_scale,
    load_committed,
    save_committed,
)

from repro.core.config import GretelConfig
from repro.core.parallel import ShardedAnalyzer
from repro.monitoring.store import MetadataStore
from repro.oracle import verify_equivalence
from repro.workloads.traffic import SyntheticStream

SHARD_COUNTS = (1, 2, 4, 8)
FAULT_EVERY = 1000
ALPHA = 768          # the paper's testbed α, as in Fig. 8c
SEED = 5             # the Fig. 8c stream seed
REPEATS = 3          # timing is best-of-N; fresh pool each run

#: Acceptance floor (ISSUE 9): the 4-shard process-backend detection
#: drain must be ≥ this × faster than the committed pre-engine serial
#: baseline.  Only meaningful at full scale, so it is asserted there
#: and reported everywhere.
TARGET_SPEEDUP_AT_4 = 2.0


def _committed_baseline():
    """This benchmark's committed full-scale payload, or None."""
    return load_committed("BENCH_parallel_process.json")


def _committed_serial_detect_seconds():
    """The committed pre-engine serial drain (the tentpole's "before").

    Primary source: ``BENCH_detection.json``'s recorded
    ``committed_serial_detect_seconds`` (the serial drain measured
    before the incremental engine landed).  Fallback: the serial
    ``detect_seconds`` of the committed parallel-throughput baseline.
    """
    payload = load_committed("BENCH_detection.json")
    if payload is not None:
        seconds = payload.get("acceptance", {}).get(
            "committed_serial_detect_seconds"
        )
        if seconds:
            return seconds
    payload = load_committed("BENCH_parallel_throughput.json")
    if payload is None:
        return None
    return payload.get("serial", {}).get("detect_seconds")


def _config():
    return GretelConfig(alpha=ALPHA)


def _time_backend(library, events, shards, backend):
    """Best-of-N (by detect drain) timing for one configuration."""
    best = None
    for _ in range(REPEATS):
        started = time.perf_counter()
        analyzer = ShardedAnalyzer(
            library, shards, store=MetadataStore(), config=_config(),
            track_latency=False, defer_detection=True,
            backend=backend,
        )
        startup = time.perf_counter() - started
        try:
            started = time.perf_counter()
            analyzer.ingest(events)
            analyzer.flush()
            ingest = time.perf_counter() - started
            started = time.perf_counter()
            snapshots = analyzer.process_deferred()
            detect = time.perf_counter() - started
            sample = {
                "shards": shards,
                "backend": backend,
                "startup_seconds": startup,
                "ingest_seconds": ingest,
                "detect_seconds": detect,
                "drain_seconds": ingest + detect,
                "snapshots": snapshots,
                "reports": len(analyzer.reports),
            }
        finally:
            analyzer.close()
        if best is None or detect < best["detect_seconds"]:
            best = sample
    return best


def _render(payload):
    lines = [
        "Process-backend drain gate (Fig. 8c stream)",
        f"{payload['stream']['events']} events, 1 fault per "
        f"{payload['stream']['fault_every']}, alpha={ALPHA}, "
        f"scale={payload['scale']}",
        f"{'config':>14s} {'startup':>9s} {'ingest':>9s} "
        f"{'detect':>9s} {'oracle':>8s}",
    ]
    for row in payload["runs"]:
        label = f"{row['shards']}sh-{row['backend']}"
        lines.append(
            f"{label:>14s} {row['startup_seconds']:7.3f}s "
            f"{row['ingest_seconds']:7.3f}s "
            f"{row['detect_seconds']:7.3f}s "
            f"{'PASS' if row['equivalent'] else 'FAIL':>8s}"
        )
    acceptance = payload["acceptance"]
    committed = acceptance["committed_serial_detect_seconds"]
    achieved = acceptance["achieved_speedup_detect_at_4"]
    if committed is not None and achieved is not None:
        lines.append(
            f"  4-shard process drain vs committed serial baseline "
            f"({committed:.3f}s): {achieved:.2f}x "
            f"(target {TARGET_SPEEDUP_AT_4:.1f}x)"
        )
    return "\n".join(lines)


def test_parallel_process_gate(character, save_result):
    library = character.library
    event_count = 60_000 if full_scale() else 12_000
    stream = SyntheticStream(
        library, library.symbols, fault_every=FAULT_EVERY, seed=SEED,
    )
    events = stream.events(event_count)

    runs = []
    for shards in SHARD_COUNTS:
        for backend in ("inline", "process"):
            sample = _time_backend(library, events, shards, backend)
            oracle = verify_equivalence(
                events, library, shards, config=_config(),
                track_latency=False, defer_detection=True,
                strict=False, backend=backend,
            )
            sample.update({
                "equivalent": oracle.ok,
                "serial_reports": oracle.facts["serial_reports"],
                "sharded_reports": oracle.facts["sharded_reports"],
            })
            runs.append(sample)

    def pick(shards, backend):
        return next(r for r in runs
                    if r["shards"] == shards and r["backend"] == backend)

    # Read committed baselines *before* a full-scale run overwrites
    # this benchmark's own file.
    committed = _committed_baseline()
    committed_serial = _committed_serial_detect_seconds()
    process_at_4 = pick(4, "process")
    achieved = (
        committed_serial / process_at_4["detect_seconds"]
        if committed_serial else None
    )

    payload = {
        "benchmark": "parallel_process",
        "scale": "full" if full_scale() else "small",
        "stream": {
            "events": event_count,
            "fault_every": FAULT_EVERY,
            "alpha": ALPHA,
            "seed": SEED,
        },
        "runs": runs,
        "acceptance": {
            "target_speedup_detect_at_4": TARGET_SPEEDUP_AT_4,
            "committed_serial_detect_seconds": committed_serial,
            "achieved_speedup_detect_at_4": achieved,
            "process_detect_seconds_at_4":
                process_at_4["detect_seconds"],
        },
    }
    # The committed JSON is a full-scale run; the small smoke scale
    # must not clobber it with reduced-stream numbers.
    if full_scale():
        save_committed("BENCH_parallel_process.json", payload)
        save_result("parallel_process", _render(payload))
    else:
        print()
        print(_render(payload))

    # The oracle must hold for every (shards, backend) cell.
    for row in runs:
        assert row["equivalent"], (
            f"{row['backend']} run diverged from serial at "
            f"{row['shards']} shards"
        )
        assert row["serial_reports"] == row["sharded_reports"] > 0
    # Both backends must report identically to *each other* too (same
    # report count cell by cell — signatures already matched serial).
    for shards in SHARD_COUNTS:
        assert pick(shards, "process")["reports"] == \
            pick(shards, "inline")["reports"]

    # The ISSUE 9 bar: ≥2× over the committed pre-engine serial drain
    # at 4 shards, full scale only.
    if full_scale() and achieved is not None:
        assert achieved >= TARGET_SPEEDUP_AT_4, (
            f"4-shard process drain "
            f"{process_at_4['detect_seconds']:.3f}s is only "
            f"{achieved:.2f}x the committed serial baseline's "
            f"{committed_serial:.3f}s (target {TARGET_SPEEDUP_AT_4}x)"
        )
    # Drift gate: worker-protocol changes must not erode the win.
    if full_scale() and committed is not None:
        previous = committed["acceptance"].get(
            "achieved_speedup_detect_at_4"
        )
        if previous is not None and achieved is not None:
            assert_no_drift(
                "4-shard process detect speedup", achieved, previous,
            )
