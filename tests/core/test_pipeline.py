"""Tests for the composable analysis pipeline (builder, middleware,
stage graph, merged stats)."""

import json

import pytest

from repro.core.analyzer import GretelAnalyzer
from repro.core.config import GretelConfig
from repro.core.parallel import ShardedAnalyzer
from repro.core.pipeline import (
    STAGE_NAMES,
    PipelineBuilder,
    PipelineStats,
    StageCounters,
    StageTimer,
)
from repro.core.state import StateError
from repro.oracle import report_signature
from repro.workloads.traffic import SyntheticStream


@pytest.fixture(scope="module")
def library(small_character):
    return small_character.library


def make_stream(library, fault_every=40, seed=3):
    return SyntheticStream(library, library.symbols,
                           fault_every=fault_every, seed=seed)


def config():
    return GretelConfig(p_rate=150.0)


# ---------------------------------------------------------------------------
# Builder
# ---------------------------------------------------------------------------

def test_build_serial_equals_direct_construction(library):
    events = make_stream(library).events(800)

    direct = GretelAnalyzer(library, config=config(), track_latency=False)
    direct.feed(events)
    direct.flush()

    built = (
        PipelineBuilder(library)
        .with_config(config())
        .track_latency(False)
        .build_serial()
    )
    built.feed(events)
    built.flush()

    assert built.alpha == direct.alpha
    assert built.events_processed == direct.events_processed
    assert [report_signature(r) for r in built.reports] == \
        [report_signature(r) for r in direct.reports]


def test_build_sharded_equals_direct_construction(library):
    events = make_stream(library).events(800)

    direct = ShardedAnalyzer(library, 3, batch_size=64,
                             config=config(), track_latency=False)
    direct.ingest(events)
    direct.flush()

    built = (
        PipelineBuilder(library)
        .with_config(config())
        .track_latency(False)
        .build_sharded(3, batch_size=64)
    )
    built.ingest(events)
    built.flush()

    assert built.n_shards == 3
    assert [report_signature(r) for r in built.reports] == \
        [report_signature(r) for r in direct.reports]


def test_builder_defaults_resolve_collaborators(library):
    analyzer = PipelineBuilder(library).build_serial()
    assert analyzer.library is library
    assert analyzer.symbols is library.symbols
    assert analyzer.catalog is not None
    assert analyzer.store is not None
    assert analyzer.config is not None
    assert analyzer.track_latency is True
    assert analyzer.defer_detection is False


def test_builder_none_setters_keep_defaults(library):
    store = None
    analyzer = (
        PipelineBuilder(library)
        .with_symbols(None)
        .with_catalog(None)
        .with_store(store)
        .with_config(None)
        .build_serial()
    )
    assert analyzer.symbols is library.symbols


def test_builder_report_listener_fires(library):
    events = make_stream(library).events(600)
    seen = []
    analyzer = (
        PipelineBuilder(library)
        .with_config(config())
        .track_latency(False)
        .on_report(seen.append)
        .build_serial()
    )
    analyzer.feed(events)
    analyzer.flush()
    assert len(analyzer.reports) > 0
    assert seen == analyzer.reports


def test_builder_report_listener_on_every_shard(library):
    events = make_stream(library).events(800)
    seen = []
    analyzer = (
        PipelineBuilder(library)
        .with_config(config())
        .track_latency(False)
        .on_report(seen.append)
        .build_sharded(3, batch_size=64)
    )
    analyzer.ingest(events)
    analyzer.flush()
    assert len(seen) == len(analyzer.reports) > 0


# ---------------------------------------------------------------------------
# Middleware
# ---------------------------------------------------------------------------

def test_middleware_counts_serial_stages(library):
    events = make_stream(library).events(500)
    counters = StageCounters()
    analyzer = (
        PipelineBuilder(library)
        .with_config(config())
        .with_middleware(counters)
        .build_serial()
    )
    analyzer.feed(events)
    analyzer.flush()
    assert counters.items["ingest"] == len(events)
    assert counters.items["window"] == len(events)
    assert counters.items["fault-scan"] == len(events)
    assert counters.calls["detect"] == len(analyzer.reports)
    assert counters.calls["publish"] == len(analyzer.reports)
    assert set(counters.calls) <= set(STAGE_NAMES)


def test_middleware_counts_sharded_stages(library):
    events = make_stream(library).events(1000)
    counters = StageCounters()
    timer = StageTimer()
    analyzer = (
        PipelineBuilder(library)
        .with_config(config())
        .track_latency(False)
        .with_middleware(counters)
        .with_middleware(timer)
        .build_sharded(4, batch_size=128)
    )
    analyzer.ingest(events)
    analyzer.flush()
    # Observers are shared by all shards: totals span the whole stream.
    assert counters.items["ingest"] == len(events)
    assert counters.calls["publish"] == len(analyzer.reports)
    assert timer.calls["ingest"] == counters.calls["ingest"]
    assert all(cost >= 0.0 for cost in timer.seconds.values())


def test_middleware_does_not_change_reports(library):
    events = make_stream(library).events(800)

    plain = GretelAnalyzer(library, config=config())
    plain.feed(events)
    plain.flush()

    observed = (
        PipelineBuilder(library)
        .with_config(config())
        .with_middleware(StageCounters())
        .build_serial()
    )
    observed.feed(events)
    observed.flush()

    assert [report_signature(r) for r in observed.reports] == \
        [report_signature(r) for r in plain.reports]


def test_stage_timer_summary_renders(library):
    events = make_stream(library).events(400)
    timer = StageTimer()
    analyzer = (
        PipelineBuilder(library)
        .with_config(config())
        .with_middleware(timer)
        .build_serial()
    )
    analyzer.feed(events)
    analyzer.flush()
    summary = timer.summary()
    assert "ingest" in summary
    assert "step" in summary
    assert StageTimer().summary() == "no stages observed"


# ---------------------------------------------------------------------------
# Stats
# ---------------------------------------------------------------------------

def test_pipeline_stats_add_and_merge():
    a = PipelineStats(events_processed=2, bytes_processed=10,
                      operational_faults_seen=1, snapshots_taken=1,
                      analysis_seconds=0.5)
    b = PipelineStats(events_processed=3, bytes_processed=5,
                      operational_faults_seen=0, snapshots_taken=2,
                      analysis_seconds=0.25)
    total = a + b
    assert total == PipelineStats(5, 15, 1, 3, 0.75)
    assert PipelineStats.merged([a, b, PipelineStats()]) == total
    assert PipelineStats.merged([]) == PipelineStats()


def test_sharded_stats_merge_matches_counters(library):
    events = make_stream(library).events(900)
    analyzer = ShardedAnalyzer(library, 3, batch_size=128,
                               config=config(), track_latency=False)
    analyzer.ingest(events)
    analyzer.flush()
    stats = analyzer.stats()
    assert stats == PipelineStats.merged(
        shard.stats() for shard in analyzer.shards
    )
    # The aggregate counters resolve through the same merge.
    assert analyzer.events_processed == stats.events_processed == len(events)
    assert analyzer.bytes_processed == stats.bytes_processed
    assert analyzer.snapshots_taken == stats.snapshots_taken
    assert analyzer.analysis_seconds == stats.analysis_seconds


def test_sharded_unknown_attribute_raises(library):
    analyzer = ShardedAnalyzer(library, 2, track_latency=False)
    with pytest.raises(AttributeError):
        analyzer.not_a_counter


# ---------------------------------------------------------------------------
# Facade wiring
# ---------------------------------------------------------------------------

def test_facade_views_are_pipeline_state(library):
    analyzer = (
        PipelineBuilder(library).with_config(config()).build_serial()
    )
    pipeline = analyzer.pipeline
    assert analyzer.window is pipeline.window
    assert analyzer.detector is pipeline.detector
    assert analyzer.latency is pipeline.tracker
    assert analyzer.rootcause is pipeline.engine
    assert analyzer.reports is pipeline.reports
    assert analyzer.alpha == pipeline.alpha


def test_shards_compose_shared_wiring(library):
    analyzer = ShardedAnalyzer(library, 3, config=config())
    stores = {id(shard.store) for shard in analyzer.shards}
    configs = {id(shard.config) for shard in analyzer.shards}
    windows = {id(shard.window) for shard in analyzer.shards}
    # One metadata store and config shared; per-shard windows distinct.
    assert stores == {id(analyzer.store)}
    assert configs == {id(analyzer.config)}
    assert len(windows) == 3


def test_restore_refuses_state_with_retired_config_fields(library):
    """A checkpoint whose config still carries the retired
    reference-path switches (``incremental_match``,
    ``indexed_selection``, ``incremental_ls``) is refused, not
    silently replayed under today's semantics."""
    donor = PipelineBuilder(library).with_config(config()).build()
    donor.process_chunk(make_stream(library).events(200))
    state = json.loads(json.dumps(donor.snapshot_state()))
    state["config"].update(
        incremental_match=True, indexed_selection=True,
        incremental_ls=True,
    )
    fresh = PipelineBuilder(library).with_config(config()).build()
    with pytest.raises(StateError, match="different config"):
        fresh.restore_state(state)
