#!/usr/bin/env python3
"""§3.1.3 — pinpointing one failed operation among many parallel ones.

A production-like mix of 120 concurrent administrative operations runs
against the cloud; exactly one of them (a volume-attach scenario) is
made faulty.  Log analysis sees nothing at ERROR level; HANSEL reports
a low-level message chain 30+ seconds later; GRETEL names the faulty
high-level operation within its sliding window.

The live consumer is the *sharded* analyzer (``repro.core.parallel``),
built here via ``PipelineBuilder.build_sharded`` with a ``StageTimer``
middleware shared by every shard: wire events stream into
per-capture-agent worker shards, each composing its own pipeline
(sliding window, detector, ...), and reports merge deterministically.
Partitioning must keep fault contexts partition-local: on this
single-cell topology the REST control plane (every symbol fingerprint
matching uses, since RPCs are pruned, §6) egresses from the controller
agents, so those agents form one partition while each compute agent —
emitting only RPC traffic — gets its own.  The differential oracle
(``verify_equivalence``) re-checks at the end that the sharded
diagnosis is identical to a serial replay of the same wire log.

Run:  python examples/parallel_fault_localization.py
"""

import random

from repro import Cloud, GretelConfig, MonitoringPlane, PipelineBuilder, WorkloadRunner
from repro.baselines.hansel import HanselAnalyzer
from repro.core.pipeline import StageTimer
from repro.baselines.loganalysis import LogAnalysisBaseline
from repro.oracle import verify_equivalence
from repro.evaluation.common import default_characterization, default_suite, p_rate_for
from repro.openstack.topology import default_topology


def agent_partition_key(compute_nodes):
    """Shard key: one partition for the API control plane's agents,
    one per compute agent (their egress is RPC-only, pruned from
    matching anyway)."""
    def key(event):
        node = event.src_node
        return node if node in compute_nodes else "api-plane"
    return key


def main() -> None:
    character = default_characterization()
    suite = default_suite()

    cloud = Cloud(seed=77)
    plane = MonitoringPlane(cloud)
    computes = {node.name for node in default_topology().compute_nodes()}
    shard_key = agent_partition_key(computes)
    timer = StageTimer()
    analyzer = (
        PipelineBuilder(character.library)
        .with_store(plane.store)
        .with_config(GretelConfig(p_rate=p_rate_for(120)))
        .track_latency(False)
        .with_middleware(timer)
        .build_sharded(4, key=shard_key)
    )
    plane.subscribe_events(analyzer.on_event)
    plane.start()

    hansel = HanselAnalyzer()
    wire_log = []
    cloud.taps.attach_global(hansel.on_event)
    cloud.taps.attach_global(wire_log.append)

    rng = random.Random(4)
    mix = suite.sample(120, rng)
    faulty = next(t for t in suite.tests
                  if t.name.startswith("compute.attach_volume"))
    cloud.faults.inject_api_error(
        "rest:nova:POST:/v2.1/servers/{id}/os-volume_attachments",
        500, "volume attach failed", count=1, op_id=faulty.test_id,
    )

    print(f"Running {len(mix)} healthy operations + 1 faulty "
          f"({faulty.name}) concurrently...")
    outcomes = WorkloadRunner(cloud).run_concurrent(
        mix + [faulty], stagger=0.01, settle=2.0
    )
    analyzer.flush()
    hansel.flush()

    failed = [o for o in outcomes if not o.ok]
    print(f"Outcomes: {len(outcomes) - len(failed)} ok, {len(failed)} failed\n")

    print("--- log analysis ---")
    logs = LogAnalysisBaseline()
    logs.ingest(wire_log)
    for level in ("ERROR", "WARNING"):
        diagnosis = logs.diagnose(level)
        print(f"  at {level}: found_anything={diagnosis['found_anything']} "
              f"(after {diagnosis['answer_latency']:.0f}s of collation)")

    print("\n--- HANSEL ---")
    for report in hansel.reports[:2]:
        print(f"  chain of {report.chain_length} messages ending at "
              f"{report.fault_event.method} {report.fault_event.name}; "
              f"reported {report.reporting_latency:.0f}s after the fault; "
              f"no operation name, no root cause")

    print("\n--- GRETEL (4-shard) ---")
    nodes_per_shard = {}
    for node, shard in analyzer.assignment.items():
        nodes_per_shard.setdefault(shard, []).append(node)
    for shard, nodes in sorted(nodes_per_shard.items()):
        print(f"  shard {shard}: partition(s) {', '.join(sorted(nodes))}")
    for report in analyzer.operational_reports[:3]:
        hit = faulty.test_id in report.detection.operations
        print(f"  fault {report.fault_event.method} {report.fault_event.name} "
              f"[{report.fault_event.status}]")
        print(f"    matched {len(report.detection.matched)} operation(s), "
              f"theta={report.theta:.4f}, "
              f"ground-truth operation in set: {hit}")
        print(f"    reported {report.report_delay:.2f}s after the fault")

    print("\n  per-stage wall clock across all 4 shards (StageTimer):")
    for line in timer.summary().splitlines():
        print(f"    {line}")

    print("\n--- differential oracle (serial vs sharded on the wire log) ---")
    result = verify_equivalence(
        wire_log, character.library, shards=4, key=shard_key,
        config=GretelConfig(p_rate=p_rate_for(120)),
        track_latency=False, strict=False,
    )
    print(f"  {result.summary()}")


if __name__ == "__main__":
    main()
