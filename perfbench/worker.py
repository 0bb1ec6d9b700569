"""One benchmark run inside a fresh interpreter; ``run.py`` starts it.

Modes:

* ``--prepare`` builds the on-disk characterization cache if it is
  cold (the only slow step of a first run in a new checkout);
* ``--setup-only`` sets the workload's system up and reports when it
  was ready for its first event;
* otherwise: set up, build the seeded inputs, replay them once to warm
  the lazily compiled index, then replay them pass after pass for
  ``--seconds`` (untraced; with ``--trace 1`` untraced and traced
  passes alternate), check the reports and print one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import host

#: Seconds of replay timed between two host probes.
REPLAY_CHUNK_S = 0.25


@dataclass
class Pass:
    """One replay of the stream through a freshly built system."""

    phase: int
    events: int
    injected: int
    digest: str
    reported: int
    localized: int
    problems: List[str]
    thetas: List[float]
    stats: Any
    recorder: Any = None
    #: Wall seconds of the closed loop plus the end-of-stream flush,
    #: and the same rescaled to the reference host speed.
    wall_s: float = 0.0
    ref_s: float = 0.0
    #: Report latencies (wall and rescaled; see ``System``).
    latencies_s: List[float] = field(default_factory=list)
    ref_latencies_s: List[float] = field(default_factory=list)
    flushed_reports: int = 0
    failed_events: int = 0
    errors: List[str] = field(default_factory=list)


def drive(system: Any, events: List[Any], start: int, budget_s: float,
          out: Pass) -> int:
    """Closed loop from ``events[start]``: submit the next event only
    when the last returned, until ``budget_s`` has passed.  Counts
    failed submissions in ``out``; returns the next index."""
    submit = system.submit
    clock = time.perf_counter
    began = clock()
    index = start
    while index < len(events):
        event = events[index]
        index += 1
        try:
            accepted = submit(event)
        except Exception:  # a raising event is a failed operation
            accepted = False
            if not out.errors:
                out.errors.append(traceback.format_exc())
        if accepted is False:
            out.failed_events += 1
        if clock() - began >= budget_s:
            break
    return index


def replay(workload: Any, inputs: Any, phase: int, recorder: Any = None,
           meter: Optional[host.Meter] = None) -> Pass:
    """Replay one phase of the stream through a fresh system.

    With a ``meter`` the pass is timed in chunks between host probes
    and also rescaled to the reference speed; without one (the warm-up
    pass) it runs unbroken.
    """
    from workloads import reports_digest

    stream = workload.stream(inputs, phase)
    system = workload.build(inputs, recorder)
    events = stream.events
    out = Pass(
        phase=phase, events=len(events), injected=stream.injected,
        digest="", reported=0, localized=0, problems=[], thetas=[],
        stats=None, recorder=recorder,
    )

    def piece(func: Any) -> Any:
        first = len(system.latencies_s)
        if meter is None:
            started = time.perf_counter()
            result = func()
            wall, factor = time.perf_counter() - started, 1.0
        else:
            result, wall, factor = meter.run(func)
        out.wall_s += wall
        out.ref_s += wall * factor
        out.ref_latencies_s.extend(
            s * factor for s in system.latencies_s[first:]
        )
        return result

    budget = REPLAY_CHUNK_S if meter is not None else float("inf")
    index = 0
    while index < len(events):
        index = piece(lambda: drive(system, events, index, budget, out))
    before_finish = len(system.reports)
    piece(system.finish)
    reports = system.reports
    out.flushed_reports = len(reports) - before_finish
    out.reported, out.localized, out.problems = workload.judge(
        inputs, stream, reports
    )
    out.latencies_s = system.latencies_s
    out.digest = reports_digest(reports)
    out.thetas = [report.detection.theta for _, report in reports]
    out.stats = system.stats()
    return out


def percentile(values: List[float], pct: int) -> float:
    """The ``pct``-th percentile (inclusive method); 0 without values
    (the run then fails its checks: every fault must be reported)."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def end_to_end(inputs: Any, passes: List[Pass],
               rescaled: bool) -> Dict[str, float]:
    """End-to-end metrics; times rescaled to the reference host speed
    if ``rescaled`` (see ``host.Meter``), else wall times."""
    return {
        "events_per_s": statistics.median(
            p.events / (p.ref_s if rescaled else p.wall_s) for p in passes
        ),
        "capture_events_per_s": len(inputs.events) / inputs.source_ref_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "faults_reported_frac": (
            sum(p.reported for p in passes) / sum(p.injected for p in passes)
        ),
        "theta_mean": statistics.fmean(t for p in passes for t in p.thetas),
    }


def outcomes(passes: List[Pass], rescaled: bool) -> Dict[str, float]:
    """Per-fault outcomes whose seed-to-seed spread is too wide to bound
    (they depend on which operations the faults hit): report latency
    percentiles over every report (rescaled if ``rescaled``), and the
    share of faults localized to the injected operation."""
    latencies = [
        s for p in passes
        for s in (p.ref_latencies_s if rescaled else p.latencies_s)
    ]
    return {
        "report_latency_p50_ms": percentile(latencies, 50) * 1e3,
        "report_latency_p90_ms": percentile(latencies, 90) * 1e3,
        "report_latency.samples": len(latencies),
        "faults_localized_frac": (
            sum(p.localized for p in passes) / sum(p.injected for p in passes)
        ),
    }


def wall_clock(inputs: Any, passes: List[Pass]) -> Dict[str, float]:
    """The rescaled end-to-end times as the wall clock read them."""
    return {
        "events_per_s": statistics.median(p.events / p.wall_s for p in passes),
        "capture_events_per_s": len(inputs.events) / inputs.source_s,
    }


def per_layer(inputs: Any, warmup_s: float, untraced: List[Pass],
              traced: List[Pass], rescaled: bool) -> Dict[str, float]:
    def med(fn: Any) -> float:
        return statistics.median(fn(p.recorder) for p in traced)

    metrics: Dict[str, float] = {}
    events = len(inputs.events)
    for stage in ("ingest", "fault_scan", "window", "latency"):
        metrics[f"{stage}.busy_s"] = med(lambda r: r.self_s[stage])
        metrics[f"{stage}.us_per_event"] = (
            metrics[f"{stage}.busy_s"] / events * 1e6
        )
    metrics["select.busy_s"] = med(lambda r: r.self_s["select"])
    metrics["score.busy_s"] = med(lambda r: r.self_s["detect"])
    metrics["detect.ms_per_snapshot"] = med(
        lambda r: r.total_s["detect"] / max(1, r.calls["detect"]) * 1e3
    )
    metrics["rootcause.busy_s"] = med(lambda r: r.self_s["rootcause"])
    metrics["publish.busy_s"] = med(lambda r: r.self_s["publish"])

    stats = traced[0].stats
    detections = max(1, traced[0].recorder.calls["detect"])
    metrics.update({
        "window.snapshots": stats.snapshots_taken,
        "select.postings_scanned": stats.postings_scanned,
        "select.candidates_indexed": stats.candidates_indexed,
        "score.candidates_gated": stats.candidates_gated,
        "score.lcs_row_extensions": stats.lcs_row_extensions,
        "score.lcs_symbols_fed": stats.lcs_symbols_fed,
        "latency.ls_samples_fed": stats.ls_samples_fed,
        "latency.ls_threshold_recomputes": stats.ls_threshold_recomputes,
        "latency.recompute_ratio": (
            stats.ls_threshold_recomputes / max(1, stats.ls_samples_fed)
        ),
        "score.rows_per_snapshot": stats.lcs_row_extensions / detections,
    })

    metrics["service.route_s"] = med(lambda r: r.self_s["service.route"])
    metrics["service.analyze_s"] = med(lambda r: r.total_s["service.analyze"])
    metrics["service.snapshot_state_s"] = med(
        lambda r: r.total_s["service.snapshot_state"]
    )
    metrics["service.checkpoint_write_s"] = med(
        lambda r: r.total_s["service.checkpoint_write"]
    )
    metrics["service.checkpoints"] = (
        traced[0].recorder.calls["service.checkpoint_write"]
    )
    metrics["service.checkpoint_bytes"] = traced[0].recorder.checkpoint_bytes

    metrics.update(outcomes(untraced, rescaled))
    metrics["sim.capture_s"] = inputs.source_s
    metrics["sim.sim_s_per_wall_s"] = inputs.simulated_s / inputs.source_s
    metrics["setup.warmup_s"] = warmup_s
    timed = (lambda p: p.ref_s) if rescaled else (lambda p: p.wall_s)
    metrics["trace.overhead_frac"] = (
        statistics.median(timed(p) for p in traced)
        / statistics.median(timed(p) for p in untraced) - 1.0
    )
    metrics["trace.uncovered_frac"] = statistics.median(
        (p.wall_s - p.recorder.covered_s()) / p.wall_s for p in traced
    )
    return metrics


def check(warmup: Pass, passes: List[Pass]) -> Tuple[List[str], Dict[int, str]]:
    """Every pass of a phase must reproduce that phase's reports exactly
    (phase 0 is the warm-up pass's).  Returns problems and the report
    digest of every phase run."""
    problems = list(warmup.problems)
    digests = {warmup.phase: warmup.digest}
    for p in passes:
        expected = digests.setdefault(p.phase, p.digest)
        if p.digest != expected:
            problems.append(
                f"phase {p.phase} report digest {p.digest[:12]} differs "
                f"from an earlier pass's {expected[:12]}"
            )
        if p.reported < p.injected:
            problems.append(
                f"phase {p.phase}: {p.injected - p.reported} of "
                f"{p.injected} injected faults got no report"
            )
        problems.extend(p.problems + p.errors[:1])
    return problems, digests


def emit(document: Dict[str, Any]) -> None:
    print(json.dumps(document), flush=True)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--build-dir", type=Path, required=True)
    parser.add_argument("--prepare", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, default=None)
    args = parser.parse_args(argv)

    if args.prepare:
        from repro.evaluation.common import default_characterization

        default_characterization()
        emit({"prepared": True})
        return 0

    from tracing import SpanRecorder
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.build_dir)
    workload.build(None)
    # time.monotonic is CLOCK_MONOTONIC, shared with the parent process.
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        workload.close()
        emit({"setup_s": setup_s})
        return 0

    if tracemalloc.is_tracing():
        print("refusing to time a run while tracemalloc is tracing",
              file=sys.stderr)
        return 3

    try:
        inputs = workload.generate(args.seed)
        machine: Dict[str, Any] = {
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "calibration_before_s": host.calibrate(),
        }
        started = time.perf_counter()
        warmup = replay(workload, inputs, 0)
        workload.warm(inputs)
        warmup_s = time.perf_counter() - started
        untraced: List[Pass] = []
        traced: List[Pass] = []
        deadline = time.perf_counter() + args.seconds
        phase = 0
        meter = host.Meter()
        cycle_s = 0.0
        # Start another cycle only if at least half of it fits.
        while not untraced or time.perf_counter() + cycle_s / 2 < deadline:
            cycle_started = time.perf_counter()
            untraced.append(replay(workload, inputs, phase, meter=meter))
            if args.trace:
                traced.append(replay(
                    workload, inputs, phase, SpanRecorder(), meter=meter
                ))
            phase += 1
            cycle_s = time.perf_counter() - cycle_started
        machine["calibration_after_s"] = host.calibrate()
    finally:
        workload.close()

    passes = untraced + traced
    problems, digests = check(warmup, passes)
    rescaled = meter.quiet
    metrics = (
        per_layer(inputs, warmup_s, untraced, traced, rescaled) if args.trace
        else end_to_end(inputs, untraced, rescaled)
    )
    emit({
        "setup_s": setup_s,
        "metrics": metrics,
        "wall_clock": {} if args.trace else wall_clock(inputs, untraced),
        "outcomes": outcomes(untraced, rescaled),
        "rescaled": {"passes": rescaled, "source": inputs.rescaled},
        "attempted": sum(p.events + p.injected for p in passes),
        "failed": sum(
            p.failed_events + p.injected - p.reported for p in passes
        ),
        "problems": problems,
        "digests": {"inputs": inputs.digest, "reports": digests},
        "machine": machine,
        "samples": {
            "events_per_pass": len(inputs.events),
            "faults": sum(p.injected for p in untraced),
            "untraced_passes": len(untraced),
            "traced_passes": len(traced),
            "pass_wall_s": [p.wall_s for p in untraced],
            "pass_ref_s": [p.ref_s for p in untraced],
            "report_latencies": sum(len(p.latencies_s) for p in untraced),
            "flushed_reports": sum(p.flushed_reports for p in untraced),
        },
    })
    return 0


if __name__ == "__main__":
    sys.exit(main())
