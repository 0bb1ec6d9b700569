"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``characterize``
    Run the offline fingerprinting pipeline (§7.1) and print Table-1
    statistics.
``demo <scenario>``
    Reproduce one of the paper's case studies end to end and print the
    diagnosis (§3.1, §7.2).
``evaluate <experiment>``
    Regenerate one table/figure of §7 and print it.
``suite``
    Describe the generated Tempest-like suite.
``lint``
    Statically verify the fingerprint library, symbol table, catalog
    and config (seven analysis passes; see ``docs/linting.md``).
``index build`` / ``index inspect``
    Compile the fingerprint library into the versioned candidate-
    selection artifact, or summarize/drift-check an existing one
    (see ``docs/indexing.md``).
``analyze``
    Replay a synthetic wire-event stream through the sharded online
    analyzer and print throughput (``--format json`` emits reports +
    stage stats machine-readably); ``--verify NAME`` (repeatable) runs
    the ``shards``, ``selection``, ``detection`` or ``levelshift``
    differential oracle on the same stream (see
    ``docs/architecture.md``).
``serve``
    Replay a synthetic stream through the multi-tenant streaming
    service layer: per-tenant analyzer sessions with bounded queues
    and backpressure, periodic durable checkpoints (``--resume``
    continues from them), and the ``checkpoint`` and ``async``
    differential oracles via ``--verify NAME`` (see
    ``docs/service.md``).
``scenarios list`` / ``scenarios run``
    Enumerate the fault-injection scenario catalog, or run it (or a
    subset) with graded oracles against both the serial and the
    sharded pipeline; ``--check`` diffs the scorecard against a
    committed baseline (see ``docs/scenarios.md``).

Exit codes follow one contract everywhere: ``EXIT_OK`` (0) success /
all oracles pass, ``EXIT_FAIL`` (1) a graded check failed or drifted,
``EXIT_USAGE`` (2) unusable input (unknown name, unreadable file).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.evaluation import case_studies

#: The CLI-wide exit-code contract (documented in the module
#: docstring and docs/scenarios.md): every subcommand returns one of
#: these three values.
EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def _cmd_characterize(args: argparse.Namespace) -> int:
    from repro.evaluation import table1
    from repro.evaluation.common import default_characterization

    character = default_characterization(
        seed=args.seed, iterations=args.iterations,
        use_disk_cache=not args.no_cache,
    )
    print(table1.format_report(character.table1_rows()))
    print(f"\nlargest fingerprint (FP_max): {character.fp_max} APIs")
    print(f"failed tests during characterization: {len(character.failed_tests)}")
    return EXIT_OK


def _cmd_suite(args: argparse.Namespace) -> int:
    from collections import Counter

    from repro.evaluation.common import default_suite

    suite = default_suite(args.seed)
    print(f"{len(suite)} tests")
    by_category = Counter(t.category for t in suite.tests)
    for category, count in sorted(by_category.items()):
        print(f"  {category:10s} {count}")
    by_template = Counter(t.template.name for t in suite.tests)
    print(f"{len(by_template)} operation templates; the 5 most used:")
    for name, count in by_template.most_common(5):
        print(f"  {name:35s} {count}")
    return EXIT_OK


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro.evaluation.common import default_characterization

    scenarios = {
        study.__name__: study for study in case_studies.ALL_CASE_STUDIES
    }
    if args.scenario == "all":
        selected = list(scenarios.values())
    elif args.scenario in scenarios:
        selected = [scenarios[args.scenario]]
    else:
        print(f"unknown scenario {args.scenario!r}; choose from: "
              f"{', '.join(scenarios)} or 'all'", file=sys.stderr)
        return EXIT_USAGE

    character = default_characterization()
    failures = 0
    for study in selected:
        result = study(character)
        print(result.summary())
        for report in result.reports[:3]:
            print(f"    {report.summary()}")
        failures += 0 if result.diagnosis_correct else 1
    return EXIT_FAIL if failures else EXIT_OK


def _cmd_evaluate(args: argparse.Namespace) -> int:
    from repro.evaluation import (
        fig5, fig6, fig7, fig8a, fig8b, fig8c, hansel_comparison, overhead,
        table1,
    )
    from repro.evaluation.common import default_characterization

    character = default_characterization()
    name = args.experiment
    if name == "table1":
        print(table1.format_report(table1.run(character)))
    elif name == "fig5":
        print(fig5.format_report(fig5.run(character), character))
    elif name == "fig6":
        print(fig6.format_report(fig6.run(character)))
    elif name == "fig7a":
        print(fig7.format_fig7a(fig7.run_fig7a(character)))
    elif name == "fig7b":
        print(fig7.format_fig7b(fig7.run_fig7b(character)))
    elif name == "fig7c":
        print(fig7.format_fig7c(fig7.run_fig7c(character)))
    elif name == "fig8a":
        print(fig8a.format_report(fig8a.run(character)))
    elif name == "fig8b":
        print(fig8b.format_report(fig8b.run(character)))
    elif name == "fig8c":
        print(fig8c.format_report(fig8c.run(character)))
    elif name == "overhead":
        print(overhead.format_report(overhead.run(character)))
    elif name == "hansel":
        print(hansel_comparison.format_report(hansel_comparison.run(character)))
    else:
        print(f"unknown experiment {name!r}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


def _resolve_library(args: argparse.Namespace):
    """Shared ``--library``/characterization loader for lint/index.

    Returns ``(library, symbols, catalog, groups)`` or ``None`` after
    printing an error (exit code 2 territory).
    """
    import json

    from repro.core.fingerprint import FingerprintLibrary
    from repro.core.symbols import SymbolTable
    from repro.openstack.catalog import default_catalog

    catalog = default_catalog()
    groups = None
    if args.library:
        try:
            with open(args.library, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except (OSError, ValueError) as error:
            print(f"cannot read library {args.library!r}: {error}",
                  file=sys.stderr)
            return None
        symbols = SymbolTable(catalog)
        library = FingerprintLibrary.from_dict(data, symbols)
    else:
        from repro.evaluation.common import default_characterization, default_suite

        character = default_characterization(
            seed=args.seed, iterations=args.iterations,
            use_disk_cache=not args.no_cache,
        )
        library = character.library
        symbols = library.symbols
        # Tests instantiated from one workload template intentionally
        # share a fingerprint shape; group them so the ambiguity pass
        # reports only cross-template confusability.
        groups = {
            test.test_id: test.template.name
            for test in default_suite(args.seed).tests
        }
    return library, symbols, catalog, groups


def _load_index(path: str):
    """Load a serialized :class:`CompiledIndex`, or ``None`` + error."""
    import json

    from repro.analysis.compile import CompiledIndex

    try:
        with open(path, "r", encoding="utf-8") as handle:
            return CompiledIndex.from_dict(json.load(handle))
    except (OSError, ValueError, KeyError) as error:
        print(f"cannot read index {path!r}: {error}", file=sys.stderr)
        return None


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis import LintContext, render_json, render_text, run_lint
    from repro.analysis.engine import PASSES
    from repro.core.config import GretelConfig

    passes = None
    if args.passes:
        passes = [name.strip() for name in args.passes.split(",") if name.strip()]
        unknown = [name for name in passes if name not in PASSES]
        if unknown:
            print(
                f"unknown lint pass(es): {', '.join(unknown)}; choose from: "
                f"{', '.join(PASSES)}", file=sys.stderr,
            )
            return EXIT_USAGE

    resolved = _resolve_library(args)
    if resolved is None:
        return EXIT_USAGE
    library, symbols, catalog, groups = resolved

    compiled_index = None
    if args.index:
        compiled_index = _load_index(args.index)
        if compiled_index is None:
            return EXIT_USAGE

    ctx = LintContext(
        library=library, symbols=symbols, catalog=catalog,
        config=GretelConfig(), operation_groups=groups,
        compiled_index=compiled_index,
    )
    if args.max_symbols is not None:
        ctx.max_symbols = args.max_symbols
    report = run_lint(ctx, passes)
    if args.format == "json":
        print(render_json(report))
    else:
        print(render_text(report))
    return report.exit_code(strict=args.strict)


def _cmd_index_build(args: argparse.Namespace) -> int:
    from repro.analysis.compile import compile_library
    from repro.core.config import GretelConfig

    resolved = _resolve_library(args)
    if resolved is None:
        return EXIT_USAGE
    library, symbols, _catalog, _groups = resolved
    index = compile_library(library, symbols, GretelConfig())
    payload = index.to_json() + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(payload)
        print(
            f"wrote {args.out}: {len(index.operations)} operations, "
            f"{len(index.symbols)} symbols, "
            f"{index.postings_total} postings, "
            f"{len(index.preps)} prepared candidates "
            f"(artifact sha256 {index.artifact_hash()[:12]})"
        )
    else:
        sys.stdout.write(payload)
    return EXIT_OK


def _cmd_index_inspect(args: argparse.Namespace) -> int:
    index = _load_index(args.artifact)
    if index is None:
        return EXIT_USAGE
    flags = index.flags
    print(f"format version: {index.format_version}")
    print(f"library sha256: {index.library_hash}")
    print(f"symbols sha256: {index.symbols_hash}")
    print(f"artifact sha256: {index.artifact_hash()}")
    print(
        f"selection flags: prune_rpcs={flags[0]}, "
        f"relaxed_match={flags[1]}, truncate_fingerprints={flags[2]}, "
        f"match_coverage={index.match_coverage}"
    )
    print(
        f"{len(index.operations)} operations, "
        f"{len(index.symbols)} symbols, "
        f"{index.postings_total} postings, "
        f"{len(index.preps)} prepared candidates"
    )
    postings = index.postings()
    hottest = sorted(
        postings, key=lambda s: (-len(postings[s]), s)
    )[:5]
    print("longest postings lists:")
    for symbol in hottest:
        print(f"  U+{ord(symbol):04X}: {len(postings[symbol])} operations")

    if not args.check:
        return EXIT_OK
    resolved = _resolve_library(args)
    if resolved is None:
        return EXIT_USAGE
    library, symbols, _catalog, _groups = resolved
    problems = index.verify_against(library, symbols)
    if not problems:
        problems = [
            f"structural drift: {p}"
            for p in index.check_postings(library)
        ]
    if problems:
        print("DRIFT:")
        for problem in problems:
            print(f"  {problem}")
        return EXIT_FAIL
    print("fresh: artifact matches the live library and symbol table")
    return EXIT_OK


def _analyze_builder(builder, args: argparse.Namespace, config):
    """Wire ``builder`` the way ``repro analyze`` replays a stream."""
    from repro.monitoring.store import MetadataStore

    return (
        builder.with_store(MetadataStore())
        .with_config(config)
        .track_latency(not args.no_latency)
        .defer_detection(True)
    )


def _deferred_snapshots(args: argparse.Namespace, library, events,
                        config) -> list:
    """The stream's frozen snapshots, collected once serially."""
    from repro.core.pipeline import PipelineBuilder

    serial = _analyze_builder(
        PipelineBuilder(library), args, config
    ).build_serial()
    serial.feed(events)
    serial.flush()
    return serial.pipeline.deferred_snapshots()


#: ``repro analyze --verify NAME`` choices.
ANALYZE_ORACLES = ("shards", "selection", "detection", "levelshift")


def _analyze_oracle(name: str, args: argparse.Namespace, library,
                    events, config):
    """Run one ``repro analyze --verify NAME`` oracle leg."""
    from repro import oracle

    if name == "shards":
        return oracle.verify_equivalence(
            events, library, args.shards, batch_size=args.batch_size,
            config=config, track_latency=not args.no_latency,
            defer_detection=True, strict=False, backend=args.backend,
        )
    if name == "levelshift":
        return oracle.verify_levelshift_stream(
            events, config=config, strict=False,
        )
    snapshots = _deferred_snapshots(args, library, events, config)
    if name == "detection":
        return oracle.verify_detection(
            snapshots, library, config=config, strict=False,
        )
    return oracle.verify_selection(
        library, config=config, snapshots=snapshots, strict=False,
    )


def _selection_replays(args: argparse.Namespace, library, events,
                       config) -> dict:
    """End-to-end leg of ``--verify selection``: full replays on the
    production and the reference pipeline must publish identical
    report sets, serially and sharded.  The reference is built
    through ``repro.oracle.ReferenceBuilder`` and always runs inline;
    the production side uses ``--backend``."""
    from repro.core.pipeline import PipelineBuilder
    from repro.oracle import ReferenceBuilder, report_signature

    def replay(reference: bool, sharded: bool):
        builder = _analyze_builder(
            ReferenceBuilder(library) if reference
            else PipelineBuilder(library), args, config,
        )
        if sharded:
            engine = builder.build_sharded(
                args.shards, batch_size=args.batch_size,
                backend="inline" if reference else args.backend,
            )
            engine.ingest(events)
        else:
            engine = builder.build_serial()
            engine.feed(events)
        engine.flush()
        engine.process_deferred()
        signatures = sorted(report_signature(r) for r in engine.reports)
        engine.close()
        return signatures

    replays = {}
    for label, sharded in (
        ("serial", False), (f"{args.shards}-shard", True),
    ):
        production = replay(False, sharded)
        reference = replay(True, sharded)
        equivalent = production == reference
        replays[label] = {
            "equivalent": equivalent,
            "indexed_reports": len(production),
            "scan_reports": len(reference),
        }
        if args.format == "text":
            verdict = "EQUIVALENT" if equivalent else "DIVERGED"
            print(f"{verdict}: {label} reports, production vs "
                  f"reference pipeline ({len(production)} vs "
                  f"{len(reference)} reports)")
    return replays


def _cmd_analyze(args: argparse.Namespace) -> int:
    import json
    import time
    from dataclasses import asdict

    from repro.core.config import GretelConfig
    from repro.core.pipeline import PipelineBuilder, StageCounters, StageTimer
    from repro.evaluation.common import default_characterization
    from repro.workloads.traffic import SyntheticStream

    text_mode = args.format == "text"
    character = default_characterization(
        seed=args.seed, use_disk_cache=not args.no_cache,
    )
    library = character.library
    stream = SyntheticStream(
        library, library.symbols,
        fault_every=args.fault_every, seed=args.seed,
    )
    events = stream.events(args.events)
    config = GretelConfig(alpha=args.alpha)

    builder = _analyze_builder(PipelineBuilder(library), args, config)
    timer: "StageTimer | None" = None
    counters: "StageCounters | None" = None
    if args.stage_stats and args.backend == "inline":
        # Stage middleware observes in-process stage calls; under
        # backend=process the shards run elsewhere, so --stage-stats
        # falls back to per-shard worker counters (shard_stats below).
        timer, counters = StageTimer(), StageCounters()
        builder.with_middleware(timer).with_middleware(counters)
    analyzer = builder.build_sharded(
        args.shards, batch_size=args.batch_size, backend=args.backend
    )
    started = time.perf_counter()
    analyzer.ingest(events)
    analyzer.flush()
    ingest_seconds = time.perf_counter() - started
    started = time.perf_counter()
    snapshots = analyzer.process_deferred()
    detect_seconds = time.perf_counter() - started

    count = len(events)
    document = {
        "events": count,
        "shards": args.shards,
        "backend": args.backend,
        "batch_size": args.batch_size,
        "fault_every": args.fault_every,
        "alpha": args.alpha,
        "ingest_seconds": round(ingest_seconds, 6),
        "detect_seconds": round(detect_seconds, 6),
        "ingest_events_per_s": round(count / ingest_seconds, 1),
        "effective_events_per_s": round(
            count / (ingest_seconds + detect_seconds), 1
        ),
        "deferred_snapshots": snapshots,
        "reports": [r.to_dict() for r in analyzer.reports],
        "stats": asdict(analyzer.stats()),
    }
    if timer is not None and counters is not None:
        document["stage_seconds"] = {
            stage: round(seconds, 6)
            for stage, seconds in sorted(timer.seconds.items())
        }
        document["stage_items"] = dict(sorted(counters.items.items()))
    if args.stage_stats and args.backend == "process":
        document["shard_stats"] = [
            asdict(shard.stats()) for shard in analyzer.shards
        ]

    if text_mode:
        print(f"{args.shards}-shard analyzer ({args.backend} backend) "
              f"over {count} events "
              f"(1 fault per {args.fault_every}, batch {args.batch_size}):")
        print(f"  ingest    {count / ingest_seconds:12,.0f} events/s "
              f"({ingest_seconds:.3f}s)")
        print(f"  effective "
              f"{count / (ingest_seconds + detect_seconds):12,.0f} "
              f"events/s (+{detect_seconds:.3f}s detection, "
              f"{snapshots} snapshots)")
        print(f"  reports: {len(analyzer.operational_reports)} operational, "
              f"{len(analyzer.performance_reports)} performance")

    if text_mode and timer is not None and counters is not None:
        print("  per-stage wall clock (all shards, sorted by cost):")
        for line in timer.summary().splitlines():
            print(f"    {line}")
        print("  per-stage items: "
              + ", ".join(f"{stage}={items}"
                          for stage, items in sorted(counters.items.items())))
        stats = analyzer.stats()
        print("  detection engine: "
              f"candidates_gated={stats.candidates_gated}, "
              f"lcs_row_extensions={stats.lcs_row_extensions}, "
              f"lcs_symbols_fed={stats.lcs_symbols_fed}")
        print("  candidate selection: "
              f"postings_scanned={stats.postings_scanned}, "
              f"candidates_indexed={stats.candidates_indexed}")
        print("  level-shift engine: "
              f"ls_samples_fed={stats.ls_samples_fed}, "
              f"ls_threshold_recomputes={stats.ls_threshold_recomputes}")

    if text_mode and args.stage_stats and args.backend == "process":
        merged = analyzer.stats()
        print("  per-shard worker counters (PipelineStats, merged "
              "deterministically):")
        for index, shard_stats in enumerate(document["shard_stats"]):
            print(f"    shard {index}: "
                  f"events={shard_stats['events_processed']}, "
                  f"snapshots={shard_stats['snapshots_taken']}, "
                  f"faults={shard_stats['operational_faults_seen']}, "
                  f"analysis={shard_stats['analysis_seconds']:.3f}s")
        print(f"    merged : events={merged.events_processed}, "
              f"snapshots={merged.snapshots_taken}, "
              f"faults={merged.operational_faults_seen}, "
              f"analysis={merged.analysis_seconds:.3f}s")

    analyzer.close()

    code = EXIT_OK
    for name in dict.fromkeys(args.verify):
        result = _analyze_oracle(name, args, library, events, config)
        document[f"verify_{name}"] = dict(
            result.to_dict(), summary=result.summary(),
        )
        if text_mode:
            print(result.summary())
        if not result.ok:
            code = EXIT_FAIL
        if name == "selection":
            replays = _selection_replays(args, library, events, config)
            document["verify_selection"]["replays"] = replays
            if not all(r["equivalent"] for r in replays.values()):
                code = EXIT_FAIL

    document["exit_code"] = code
    payload = json.dumps(document, indent=2) + "\n"
    if not text_mode:
        sys.stdout.write(payload)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(payload)
    return code


def _cmd_serve(args: argparse.Namespace) -> int:
    import json
    import threading
    import time

    from repro.core.config import GretelConfig
    from repro.evaluation.common import default_characterization
    from repro.oracle import verify_async, verify_checkpoint
    from repro.service import (
        CheckpointStore,
        StreamingService,
        bucket_tenant,
    )
    from repro.workloads.traffic import SyntheticStream

    text_mode = args.format == "text"
    if args.checkpoint_every and not args.checkpoint_dir:
        print("--checkpoint-every requires --checkpoint-dir",
              file=sys.stderr)
        return EXIT_USAGE
    if args.resume and not args.checkpoint_dir:
        print("--resume requires --checkpoint-dir", file=sys.stderr)
        return EXIT_USAGE
    if args.pump_threads and not args.async_ingest:
        print("--pump-threads requires --async", file=sys.stderr)
        return EXIT_USAGE
    if args.pump_threads < 0:
        print("--pump-threads must be >= 0", file=sys.stderr)
        return EXIT_USAGE

    character = default_characterization(
        seed=args.seed, use_disk_cache=not args.no_cache,
    )
    library = character.library
    stream = SyntheticStream(
        library, library.symbols,
        fault_every=args.fault_every, seed=args.seed,
    )
    events = stream.events(args.events)
    config = GretelConfig(alpha=args.alpha)

    store = None
    if args.checkpoint_dir:
        store = CheckpointStore(args.checkpoint_dir)
    service = StreamingService(
        library,
        config=config,
        track_latency=not args.no_latency,
        queue_capacity=args.queue_size,
        policy=args.policy,
        checkpoint_store=store,
        checkpoint_every=args.checkpoint_every,
        restore=args.resume,
        shards=args.session_shards,
        backend=args.backend,
        async_ingest=args.async_ingest,
    )
    published = []
    service.on_report(
        # list.append is atomic, so the same sink serves both routers
        # (async-mode sinks fire on per-tenant pump threads).
        lambda tenant, report: published.append((tenant, report))
    )
    if args.resume:
        # Resurrect every checkpointed tenant up front, so sessions
        # whose tenants never reappear still finish their pending
        # analysis at the final flush.
        service.restore_all()

    def bucket(tenant: str) -> str:
        # Re-key the synthetic stream's 64 tenants into the requested
        # number of sessions (deterministic, id-stable).
        return bucket_tenant(tenant, args.tenants)

    if args.async_ingest:
        # Pump router: partition the stream per session bucket, then
        # drive the front door from N concurrent producer threads —
        # each bucket owned by exactly one producer, so per-tenant
        # order (and the report multiset) matches the sync router.
        buckets = {}
        for event in events:
            buckets.setdefault(bucket(event.tenant), []).append(event)
        # Create the sessions before the producers start: process-
        # backed pools fork workers, and forking from a quiet parent
        # is the safe order (docs/service.md).
        for key in buckets:
            service.session(key)
        producers = args.pump_threads or args.tenants
        owned = [[] for _ in range(producers)]
        for index, item in enumerate(buckets.items()):
            owned[index % producers].append(item)

        def produce(work):
            for key, stream_slice in work:
                for _ in range(args.passes):
                    for event in stream_slice:
                        service.submit(event, tenant=key)

        threads = [
            threading.Thread(target=produce, args=(work,))
            for work in owned if work
        ]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        service.drain()
        elapsed = time.perf_counter() - started
    else:
        started = time.perf_counter()
        for _ in range(args.passes):
            for event in events:
                service.submit(event, tenant=bucket(event.tenant))
        service.drain()
        elapsed = time.perf_counter() - started
    if store is not None:
        service.checkpoint_all()
    service.flush()
    for live in service.sessions.values():
        live.close()

    count = len(events) * args.passes
    stats = service.stats()
    document = {
        "events": count,
        "passes": args.passes,
        "tenants": args.tenants,
        "session_shards": args.session_shards,
        "backend": args.backend,
        "async_ingest": args.async_ingest,
        "pump_threads": (
            (args.pump_threads or args.tenants)
            if args.async_ingest else 0
        ),
        "alpha": args.alpha,
        "queue_size": args.queue_size,
        "policy": args.policy,
        "seconds": round(elapsed, 6),
        "events_per_s": round(count / elapsed, 1),
        "service": stats.to_dict(),
        "reports": [
            dict(report.to_dict(), tenant=tenant)
            for tenant, report in published
        ],
    }
    if text_mode:
        router = "async pump" if args.async_ingest else "sync"
        print(f"streaming service over {count} events "
              f"({args.passes} pass(es), {args.tenants} tenant "
              f"session(s), {router} router, policy {args.policy}):")
        print(f"  drained   {count / elapsed:12,.0f} events/s "
              f"({elapsed:.3f}s)")
        for key, value in stats.to_dict().items():
            print(f"  {key:20s} {value}")
        for tenant, report in published:
            print(f"  [{tenant}] {report.summary()}")

    code = EXIT_OK
    for name in dict.fromkeys(args.verify):
        if name == "async":
            result = verify_async(
                events, library,
                tenants=args.tenants,
                producers=args.pump_threads or args.tenants,
                config=config,
                track_latency=not args.no_latency,
                shards=args.session_shards,
                backend=args.backend,
                strict=False,
            )
        else:
            result = verify_checkpoint(
                events, library, cuts=args.cuts, config=config,
                track_latency=not args.no_latency, strict=False,
            )
        document[f"verify_{name}"] = dict(
            result.to_dict(), summary=result.summary(),
        )
        if text_mode:
            print(result.summary())
        if not result.ok:
            code = EXIT_FAIL

    document["exit_code"] = code
    payload = json.dumps(document, indent=2) + "\n"
    if not text_mode:
        sys.stdout.write(payload)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(payload)
    return code


def _cmd_scenarios_list(args: argparse.Namespace) -> int:
    import json

    from repro.scenarios import all_scenarios

    if args.format == "json":
        entries = [
            {
                "name": cls.name,
                "family": cls.family,
                "description": cls.description,
                "is_control": cls.is_control,
                "equivalence": cls.equivalence,
            }
            for cls in all_scenarios()
        ]
        print(json.dumps(entries, indent=2))
        return EXIT_OK
    for cls in all_scenarios():
        control = " [control]" if cls.is_control else ""
        print(f"{cls.name:<26} {cls.family:<13}{control}")
        print(f"    {cls.description}")
    return EXIT_OK


def _cmd_scenarios_run(args: argparse.Namespace) -> int:
    import json

    from repro.evaluation.common import default_characterization
    from repro.scenarios import (
        build_scorecard,
        diff_scorecards,
        dump_scorecard,
        names,
        render_scorecard,
        run_catalog,
    )

    selected = args.scenario or None
    if selected:
        unknown = [name for name in selected if name not in names()]
        if unknown:
            print(f"unknown scenario(s): {', '.join(unknown)}; "
                  f"choose from: {', '.join(names())}", file=sys.stderr)
            return EXIT_USAGE

    character = default_characterization(use_disk_cache=not args.no_cache)
    result = run_catalog(
        character, seed=args.seed, shards=args.shards, names=selected,
        backend=args.backend,
    )
    document = build_scorecard(result)

    if args.format == "json":
        sys.stdout.write(dump_scorecard(document))
    else:
        print(render_scorecard(document))

    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(dump_scorecard(document))

    if args.check:
        try:
            with open(args.check, "r", encoding="utf-8") as handle:
                committed = json.load(handle)
        except (OSError, ValueError) as error:
            print(f"cannot read baseline {args.check!r}: {error}",
                  file=sys.stderr)
            return EXIT_USAGE
        drift = diff_scorecards(committed, document)
        if drift:
            print("DRIFT against committed scorecard:", file=sys.stderr)
            for line in drift:
                print(f"  {line}", file=sys.stderr)
            return EXIT_FAIL
        print("scorecard matches the committed baseline", file=sys.stderr)

    return result.exit_code


EXPERIMENTS = ("table1", "fig5", "fig6", "fig7a", "fig7b", "fig7c",
               "fig8a", "fig8b", "fig8c", "overhead", "hansel")


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="GRETEL (CoNEXT'16) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    characterize = sub.add_parser(
        "characterize", help="run offline fingerprinting and print Table 1"
    )
    characterize.add_argument("--seed", type=int, default=0)
    characterize.add_argument("--iterations", type=int, default=2)
    characterize.add_argument("--no-cache", action="store_true")
    characterize.set_defaults(handler=_cmd_characterize)

    suite = sub.add_parser("suite", help="describe the generated test suite")
    suite.add_argument("--seed", type=int, default=0)
    suite.set_defaults(handler=_cmd_suite)

    demo = sub.add_parser("demo", help="run a case-study scenario")
    demo.add_argument(
        "scenario",
        help=("one of: "
              + ", ".join(s.__name__ for s in case_studies.ALL_CASE_STUDIES)
              + ", all"),
    )
    demo.set_defaults(handler=_cmd_demo)

    evaluate = sub.add_parser("evaluate", help="regenerate a table/figure")
    evaluate.add_argument("experiment", choices=EXPERIMENTS)
    evaluate.set_defaults(handler=_cmd_evaluate)

    lint = sub.add_parser(
        "lint",
        help="statically verify the fingerprint library (7 analysis passes)",
    )
    lint.add_argument(
        "--library", metavar="FILE",
        help="lint a serialized fingerprint-library JSON instead of the "
             "characterized suite",
    )
    lint.add_argument("--format", choices=("text", "json"), default="text")
    lint.add_argument(
        "--strict", action="store_true",
        help="exit non-zero on warnings too (default: errors only)",
    )
    lint.add_argument(
        "--passes", metavar="P1,P2",
        help="comma-separated subset of passes "
             "(ambiguity, truncation, integrity, regex, noise-config, "
             "discriminability, index-drift)",
    )
    lint.add_argument(
        "--max-symbols", type=int, default=None, metavar="N",
        help="override the symbol-space capacity checked by the "
             "integrity pass (capacity planning / testing)",
    )
    lint.add_argument(
        "--index", metavar="FILE",
        help="check this compiled selection artifact for drift against "
             "the live library (index-drift pass); default: compile a "
             "fresh index as a self-check",
    )
    lint.add_argument("--seed", type=int, default=0)
    lint.add_argument("--iterations", type=int, default=2)
    lint.add_argument("--no-cache", action="store_true")
    lint.set_defaults(handler=_cmd_lint)

    index = sub.add_parser(
        "index",
        help="compile/inspect the candidate-selection artifact "
             "(docs/indexing.md)",
    )
    index_sub = index.add_subparsers(dest="index_command", required=True)
    index_build = index_sub.add_parser(
        "build",
        help="statically compile the fingerprint library into the "
             "versioned CompiledIndex artifact (canonical JSON)",
    )
    index_build.add_argument(
        "--out", "-o", metavar="FILE",
        help="write the artifact here (default: stdout)",
    )
    index_build.add_argument(
        "--library", metavar="FILE",
        help="compile a serialized fingerprint-library JSON instead of "
             "the characterized suite",
    )
    index_build.add_argument("--seed", type=int, default=0)
    index_build.add_argument("--iterations", type=int, default=2)
    index_build.add_argument("--no-cache", action="store_true")
    index_build.set_defaults(handler=_cmd_index_build)
    index_inspect = index_sub.add_parser(
        "inspect",
        help="summarize an artifact; --check verifies it against the "
             "live library (exit 1 on drift)",
    )
    index_inspect.add_argument("artifact", metavar="FILE")
    index_inspect.add_argument(
        "--check", action="store_true",
        help="verify content hashes and postings against the live "
             "library/symbol table; exit 1 on drift",
    )
    index_inspect.add_argument(
        "--library", metavar="FILE",
        help="with --check: the library JSON to verify against "
             "(default: the characterized suite)",
    )
    index_inspect.add_argument("--seed", type=int, default=0)
    index_inspect.add_argument("--iterations", type=int, default=2)
    index_inspect.add_argument("--no-cache", action="store_true")
    index_inspect.set_defaults(handler=_cmd_index_inspect)

    analyze = sub.add_parser(
        "analyze",
        help="replay a synthetic stream through the sharded analyzer",
    )
    analyze.add_argument(
        "--events", type=int, default=60_000,
        help="stream length in wire events (default: the Fig. 8c 60K)",
    )
    analyze.add_argument(
        "--fault-every", type=int, default=1000,
        help="one REST fault per this many events (default 1000)",
    )
    analyze.add_argument(
        "--shards", type=int, default=4,
        help="number of analyzer shards (default 4)",
    )
    analyze.add_argument(
        "--batch-size", type=int, default=1024,
        help="events per shard step (default 1024)",
    )
    analyze.add_argument(
        "--backend", choices=("inline", "process"), default="inline",
        help="shard execution backend: inline runs shards in this "
             "process, process gives each shard a worker process "
             "(docs/parallelism.md)",
    )
    analyze.add_argument(
        "--alpha", type=int, default=768,
        help="sliding-window size α (default: the paper's 768)",
    )
    analyze.add_argument(
        "--no-latency", action="store_true",
        help="disable per-API latency tracking (pure operational path)",
    )
    analyze.add_argument(
        "--stage-stats", action="store_true",
        help="attach StageTimer/StageCounters middleware to every "
             "shard's pipeline and print per-stage cost; with "
             "--backend process (no cross-process middleware) reports "
             "per-shard worker counters merged via PipelineStats",
    )
    analyze.add_argument(
        "--verify", action="append", default=[], metavar="NAME",
        choices=ANALYZE_ORACLES,
        help="also run a differential oracle on this stream "
             "(repeatable; exit 1 on divergence): shards (serial vs "
             "sharded reports), selection (compiled index vs full "
             "scan, plus end-to-end production vs reference "
             "replays), detection (production vs reference scoring), "
             "levelshift (incremental vs reference LS)",
    )
    analyze.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="json emits the run (reports, pipeline stats, oracle "
             "verdicts) as one machine-readable document",
    )
    analyze.add_argument(
        "--out", "-o", metavar="FILE",
        help="also write the JSON document here (any --format)",
    )
    analyze.add_argument("--seed", type=int, default=0)
    analyze.add_argument("--no-cache", action="store_true")
    analyze.set_defaults(handler=_cmd_analyze)

    serve = sub.add_parser(
        "serve",
        help="replay a synthetic stream through the multi-tenant "
             "streaming service layer (docs/service.md)",
    )
    serve.add_argument(
        "--events", type=int, default=60_000,
        help="stream length in wire events (default: the Fig. 8c 60K)",
    )
    serve.add_argument(
        "--passes", type=int, default=1,
        help="replay the stream this many times (soak; default 1)",
    )
    serve.add_argument(
        "--fault-every", type=int, default=1000,
        help="one REST fault per this many events (default 1000)",
    )
    serve.add_argument(
        "--tenants", type=int, default=4,
        help="re-key the stream into this many tenant sessions "
             "(default 4)",
    )
    serve.add_argument(
        "--alpha", type=int, default=768,
        help="sliding-window size α (default: the paper's 768)",
    )
    serve.add_argument(
        "--queue-size", type=int, default=4096,
        help="per-session ingest queue capacity (default 4096)",
    )
    serve.add_argument(
        "--session-shards", type=int, default=1,
        help="shards per tenant session analyzer (default 1 = the "
             "serial engine)",
    )
    serve.add_argument(
        "--backend", choices=("inline", "process"), default="inline",
        help="session analyzer backend when sharded: process drains "
             "each session on its own worker pool "
             "(docs/parallelism.md)",
    )
    serve.add_argument(
        "--async", dest="async_ingest", action="store_true",
        help="async ingest router: one daemon pump thread per tenant "
             "session drains a thread-safe bounded queue, and the "
             "replay drives submit() from concurrent producer "
             "threads (docs/service.md)",
    )
    serve.add_argument(
        "--pump-threads", type=int, default=0,
        help="producer threads driving the async front door "
             "(default 0 = one per tenant session; requires --async)",
    )
    serve.add_argument(
        "--policy", choices=("block", "shed"), default="block",
        help="backpressure when a session queue is full: block stalls "
             "the producer (sync: drains inline; async: waits on the "
             "pump), shed drops and counts (default block)",
    )
    serve.add_argument(
        "--checkpoint-dir", metavar="DIR",
        help="persist per-tenant checkpoints under this directory",
    )
    serve.add_argument(
        "--checkpoint-every", type=int, default=0,
        help="checkpoint a session every N accepted events "
             "(0 = only at shutdown; requires --checkpoint-dir)",
    )
    serve.add_argument(
        "--resume", action="store_true",
        help="restore sessions from existing checkpoints in "
             "--checkpoint-dir before replaying",
    )
    serve.add_argument(
        "--no-latency", action="store_true",
        help="disable per-API latency tracking (pure operational path)",
    )
    serve.add_argument(
        "--verify", action="append", default=[], metavar="NAME",
        choices=("checkpoint", "async"),
        help="also run a differential oracle on this stream "
             "(repeatable; exit 1 on divergence): checkpoint "
             "(straight vs killed-and-restored replay), async (sync "
             "vs pump router)",
    )
    serve.add_argument(
        "--cuts", type=int, default=3,
        help="checkpoint/kill/restore points for --verify checkpoint "
             "(default 3)",
    )
    serve.add_argument(
        "--format", choices=("text", "json"), default="text",
    )
    serve.add_argument(
        "--out", "-o", metavar="FILE",
        help="also write the JSON document here (any --format)",
    )
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--no-cache", action="store_true")
    serve.set_defaults(handler=_cmd_serve)

    scenarios = sub.add_parser(
        "scenarios",
        help="fault-injection scenario catalog with graded oracles "
             "(docs/scenarios.md)",
    )
    scenarios_sub = scenarios.add_subparsers(
        dest="scenarios_command", required=True,
    )
    scenarios_list = scenarios_sub.add_parser(
        "list", help="enumerate the registered scenarios"
    )
    scenarios_list.add_argument(
        "--format", choices=("text", "json"), default="text",
    )
    scenarios_list.set_defaults(handler=_cmd_scenarios_list)
    scenarios_run = scenarios_sub.add_parser(
        "run",
        help="capture, replay (serial + sharded) and grade scenarios; "
             "exit 1 on any FAIL or scorecard drift",
    )
    scenarios_run.add_argument(
        "--scenario", action="append", metavar="NAME",
        help="run only this scenario (repeatable; default: full "
             "catalog)",
    )
    scenarios_run.add_argument("--seed", type=int, default=0)
    scenarios_run.add_argument(
        "--shards", type=int, default=4,
        help="shard count for the parallel replay (default 4)",
    )
    scenarios_run.add_argument(
        "--backend", choices=("inline", "process"), default="inline",
        help="execution backend for the sharded replay "
             "(docs/parallelism.md)",
    )
    scenarios_run.add_argument(
        "--format", choices=("text", "json"), default="text",
    )
    scenarios_run.add_argument(
        "--out", "-o", metavar="FILE",
        help="also write the JSON scorecard here",
    )
    scenarios_run.add_argument(
        "--check", metavar="FILE",
        help="diff the scorecard against this committed baseline; "
             "exit 1 on drift",
    )
    scenarios_run.add_argument("--no-cache", action="store_true")
    scenarios_run.set_defaults(handler=_cmd_scenarios_run)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except BrokenPipeError:
        # Output piped into a pager/head that exited early: not an error.
        try:
            sys.stdout.close()
        except Exception:  # noqa: BLE001 - best-effort close
            pass
        return EXIT_OK


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
