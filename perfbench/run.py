"""Closed-loop benchmark of the GRETEL analyzer and streaming service.

Run from the repository root::

    python3 perfbench/run.py --workload sparse_faults --seed 1 \\
        --seconds 10 --trace 0

Workloads (why each was chosen is recorded in ``BENCHMARK.json``):
``sparse_faults``, ``dense_faults``, ``tenants_checkpointed`` and
``sim_level_shift`` (see ``perfbench/workloads.py``).

Every run happens in fresh interpreters with no tracer running and
the program in its default configuration (serial inline pipeline, sync
router).  This script only orchestrates: it builds the
characterization cache on a first run, times several set-ups from a
fresh interpreter to "ready for the first event", then starts the
measuring run (``perfbench/worker.py``).  That run replays a stream
generated from ``--seed`` before timing starts: once untimed to warm
up, then pass after pass for ``--seconds``, one producer thread, each
call returning before the next is made.  With ``--trace 1`` untraced
and span-recorded passes alternate and the run reports the per-layer
breakdown instead of the end-to-end metrics.

End-to-end times are reported rescaled to a reference host speed
(``perfbench/host.py``), unless the program left a thread or a child
process running around a host probe, in which case they are wall
times; the wall-clock readings are printed beside them and kept in the
run record.

Output checks: passes that replay the same stream (the same fault
phase, see ``perfbench/workloads.py``) must produce the same report
digest, every injected fault must be reported, and a run with the same
code, workload and seed as an earlier run in this checkout must
reproduce its input digest and, phase by phase, its report digests.
A failed check prints the result with ``"correct": false`` and exits 1.

Everything the benchmark writes (characterization cache, transient
checkpoints, digests, per-run records) goes under ``.bench_build/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

import host

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"

WORKLOAD_NAMES = (
    "sparse_faults", "dense_faults", "tenants_checkpointed",
    "sim_level_shift",
)

#: Fresh-interpreter set-ups timed per untraced run, each between host
#: probes; ``setup_s`` is their median.
SETUP_PROBES = 11

#: A run may take this long plus twice ``--seconds`` (set-ups, input
#: generation, the warm-up pass, and a last cycle that overruns the
#: deadline); a first run that must build the characterization cache
#: gets ``PREPARE_BUDGET_S`` for that alone.
RUN_OVERHEAD_S = 110.0
PREPARE_BUDGET_S = 850.0

class BenchError(RuntimeError):
    """A run that cannot produce a result."""


def declared_units(trace: int) -> Dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them for
    the untraced (end-to-end) or traced (per-layer) run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        metric["name"]: metric["unit"]
        for metric in spec["per_layer" if trace else "end_to_end"]
    }


def code_hash() -> str:
    """Identity of the program and benchmark sources in this checkout."""
    digest = hashlib.sha256()
    for top in (ROOT / "src", HERE):
        for path in sorted(top.rglob("*.py")):
            digest.update(str(path.relative_to(ROOT)).encode("utf-8"))
            digest.update(path.read_bytes())
    return digest.hexdigest()


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    paths = [str(ROOT / "src"), str(HERE)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env["GRETEL_CACHE_DIR"] = str(BUILD / "cache")
    return env


def run_worker(args: List[str], timeout: float) -> Dict[str, Any]:
    """Run ``worker.py`` in a fresh interpreter; its last stdout line."""
    if timeout <= 0:
        raise BenchError("out of time before the run could finish")
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--build-dir", str(BUILD), "--spawned-at", repr(time.monotonic()),
        *args,
    ]
    try:
        done = subprocess.run(
            command, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
            text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args} exceeded {timeout:.0f} s") from exc
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchError(f"worker {args} exited with {done.returncode}")
    return json.loads(lines[-1])


def check_digests(workload: str, seed: int,
                  digests: Dict[str, Any]) -> List[str]:
    """Same code and seed as an earlier run here -> same input digest
    and, phase by phase, the same report digests."""
    path = BUILD / "digests" / f"{workload}-seed{seed}.json"
    record = {"code": code_hash(), "inputs": digests["inputs"],
              "reports": dict(digests["reports"])}
    problems: List[str] = []
    if path.exists():
        earlier = json.loads(path.read_text())
        if earlier["code"] == record["code"]:
            if earlier["inputs"] != record["inputs"]:
                problems.append(
                    f"input digest {record['inputs'][:12]} differs from "
                    f"an earlier run's {earlier['inputs'][:12]} "
                    "(same code and seed)"
                )
            for phase, digest in record["reports"].items():
                before = earlier["reports"].get(phase, digest)
                if before != digest:
                    problems.append(
                        f"phase {phase} report digest {digest[:12]} differs "
                        f"from an earlier run's {before[:12]} (same code "
                        "and seed)"
                    )
            record["reports"] = {**earlier["reports"], **record["reports"]}
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=1) + "\n")
    return problems


def measure(args: argparse.Namespace) -> Dict[str, Any]:
    if not (ROOT / "src" / "repro").is_dir():
        raise BenchError(f"no program sources under {ROOT / 'src'}")
    started = time.monotonic()
    remaining = lambda budget: budget - (time.monotonic() - started)  # noqa: E731
    # Cheap once the cache is warm; builds it on a first run.
    run_worker(["--prepare"], remaining(PREPARE_BUDGET_S))
    started = time.monotonic()
    budget = RUN_OVERHEAD_S + 2 * args.seconds

    common = ["--workload", args.workload]
    meter = host.Meter()
    setups: List[float] = []
    ref_setups: List[float] = []
    # Set-up time is an end-to-end metric only: traced runs skip it.
    for _ in range(0 if args.trace else SETUP_PROBES):
        probed, _, factor = meter.run(lambda: run_worker(
            common + ["--setup-only"], remaining(budget)
        ))
        setups.append(probed["setup_s"])
        ref_setups.append(probed["setup_s"] * factor)
    result = run_worker(
        common + ["--seed", str(args.seed), "--seconds", str(args.seconds),
                  "--trace", str(args.trace)],
        remaining(budget),
    )
    problems = list(result["problems"])
    problems += check_digests(args.workload, args.seed, result["digests"])
    metrics = result["metrics"]
    if not args.trace:
        metrics = {
            "setup_s": statistics.median(
                ref_setups if meter.quiet else setups
            ),
            **metrics,
        }
        result["rescaled"]["setup"] = meter.quiet
        result["wall_clock"]["setup_s"] = statistics.median(setups)
    if set(metrics) != set(declared_units(args.trace)):
        raise BenchError(
            f"measured metrics {sorted(metrics)} are not the ones "
            "BENCHMARK.json declares"
        )
    result.update(setup_samples_s=setups, problems=problems, metrics=metrics,
                  workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace)
    return result


def report(result: Dict[str, Any]) -> int:
    """Print the human-readable lines, then the one-line JSON result."""
    trace = result["trace"]
    machine = result["machine"]
    samples = result["samples"]
    print(f"workload {result['workload']} seed {result['seed']} "
          f"trace {trace}: {samples['untraced_passes']} untraced + "
          f"{samples['traced_passes']} traced passes of "
          f"{samples['events_per_pass']} events; "
          f"{samples['faults']} faults injected untraced; "
          f"{samples['report_latencies']} report latencies; "
          f"{len(result['setup_samples_s'])} set-ups")
    print(f"machine nproc {machine['nproc']} (affinity "
          f"{machine['affinity']}) {machine['implementation']} "
          f"{machine['python']}; calibration loop "
          f"{machine['calibration_before_s']:.3f} s before, "
          f"{machine['calibration_after_s']:.3f} s after")
    reports = result["digests"]["reports"]
    print("rescaled to the reference host speed: " + ", ".join(
        f"{part} {'yes' if done else 'no (wall clock)'}"
        for part, done in result["rescaled"].items()
    ))
    print(f"digests inputs {result['digests']['inputs'][:16]} reports "
          f"{len(reports)} phases, phase 0 {reports['0'][:16]}")
    units = declared_units(trace)
    metrics = {}
    for name, value in result["metrics"].items():
        metrics[name] = {"value": value, "unit": units[name]}
        print(f"  {name:34s} {value:16.6f} {units[name]}")
    if not trace:
        layer_units = declared_units(1)
        for name, value in result["outcomes"].items():
            print(f"  {name:34s} {value:16.6f} {layer_units[name]} "
                  "(per-layer metric, unbounded)")
    for name, value in result["wall_clock"].items():
        print(f"  {name:34s} {value:16.6f} {units[name]} (wall clock)")
    for problem in result["problems"]:
        print(f"CHECK FAILED: {problem}")
    correct = not result["problems"]
    record = BUILD / "runs" / (
        f"{result['workload']}-seed{result['seed']}-trace{trace}.json"
    )
    record.parent.mkdir(parents=True, exist_ok=True)
    record.write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Closed-loop GRETEL benchmark (see module docstring)."
    )
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        result = measure(args)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    return report(result)


if __name__ == "__main__":
    sys.exit(main())
