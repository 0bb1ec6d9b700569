"""Tests for the differential-oracle harness (``repro.oracle``).

The harness-level tests pin the comparators, the result type and the
exception.  The parametrized test then runs every one of the six
oracles against a tampered candidate and checks that
``Divergence.first`` names the earliest differing signature — found
here independently of the oracle's own bookkeeping.
"""

import pytest

from repro.analysis.compile import CompiledIndex, compile_library
from repro.core.analyzer import GretelAnalyzer
from repro.core.config import GretelConfig
from repro.core.detector import OperationDetector
from repro.core.matching import MatchSession
from repro.core.parallel import AnalyzerShard
from repro.core.pipeline import PipelineBuilder
from repro.core.streamstats import IncrementalLevelShiftDetector
from repro.oracle import (
    Divergence,
    LevelShiftDetector,
    OracleResult,
    ReferenceBuilder,
    ReferenceDetector,
    candidate_signature,
    compare_multisets,
    compare_sequences,
    detection_signature,
    report_signature,
    verify_async,
    verify_checkpoint,
    verify_detection,
    verify_equivalence,
    verify_levelshift,
    verify_selection,
)
from repro.service import StreamingService, TenantSession, bucket_tenant
from repro.workloads.traffic import SyntheticStream

CONFIG = GretelConfig(alpha=64)


@pytest.fixture(scope="module")
def library(small_character):
    return small_character.library


@pytest.fixture(scope="module")
def events(library):
    stream = SyntheticStream(
        library, library.symbols, fault_every=150, seed=3,
    )
    return stream.events(900)


# ---------------------------------------------------------------------------
# Harness
# ---------------------------------------------------------------------------

def test_compare_multisets_orders_earliest_signature_first():
    found = compare_multisets([(1, "a"), (3, "c"), (5, "e")],
                              [(2, "b"), (3, "c"), (5, "e"), (5, "e")])
    assert [(m.section, m.expected, m.actual) for m in found] == [
        ("missing", (1, "a"), None),
        ("extra", None, (2, "b")),
        ("extra", None, (5, "e")),
    ]
    assert compare_multisets([1, 2, 2], [2, 1, 2]) == []


def test_compare_sequences_keeps_differing_rows_in_order():
    found = compare_sequences("rows", [
        ("k0", 1, 1), ("k1", 2, 3), ("k2", 4, 4), ("k3", 5, 6),
    ])
    assert [(m.key, m.expected, m.actual) for m in found] == [
        ("k1", 2, 3), ("k3", 5, 6),
    ]


def test_result_renders_sections_and_nested_keys():
    result = OracleResult(
        "demo", "left vs right",
        sections=("missing", "extra", "counters"),
        facts={"events": 10},
        mismatches=compare_multisets([("r", 1)], [])
        + compare_sequences("counters", [(("t0", "seen"), 4, 5)]),
    )
    assert not result.ok
    assert result.first == (("r", 1), None)
    assert result.missing == [("r", 1)] and result.extra == []
    assert result.to_dict() == {
        "ok": False,
        "events": 10,
        "missing": [("r", 1)],
        "extra": [],
        "counters": {"t0": {"seen": [4, 5]}},
    }
    summary = result.summary()
    assert summary.startswith("DIVERGED: demo oracle, left vs right")
    assert "2 mismatches" in summary
    clean = OracleResult("demo", "left vs right")
    assert clean.ok and clean.first is None
    assert clean.to_dict() == {"ok": True, "missing": [], "extra": []}
    assert clean.summary().startswith("EQUIVALENT")


def test_merge_adds_counts_and_appends_mismatches():
    total = OracleResult("demo", "t", facts={"series": 0, "label": "x"})
    total.merge(OracleResult(
        "demo", "t", facts={"series": 1},
        mismatches=compare_sequences("rows", [("a", 1, 2)]),
    ))
    total.merge(OracleResult(
        "demo", "t", facts={"series": 1},
        mismatches=compare_sequences("rows", [("b", 3, 4)]),
    ))
    assert total.facts == {"series": 2, "label": "x"}
    assert [m.key for m in total.mismatches] == ["a", "b"]
    assert total.first == (1, 2)


def test_check_raises_only_when_strict():
    result = OracleResult(
        "demo", "t", mismatches=compare_multisets([], ["x"]),
    )
    assert result.check(strict=False) is result
    with pytest.raises(Divergence) as excinfo:
        result.check()
    assert excinfo.value.oracle == "demo"
    assert excinfo.value.first == (None, "x")
    assert excinfo.value.result is result
    assert isinstance(excinfo.value, AssertionError)


def test_reference_builder_replays_like_production(library, events):
    """The seam's reference pipelines publish the production report
    set, serially and sharded."""
    def signatures(builder, sharded):
        builder = builder.with_config(CONFIG).defer_detection(True)
        engine = (builder.build_sharded(2) if sharded
                  else builder.build_serial())
        engine.feed(events)
        engine.flush()
        engine.process_deferred()
        return sorted(map(report_signature, engine.reports))

    for sharded in (False, True):
        production = signatures(PipelineBuilder(library), sharded)
        assert production
        assert signatures(ReferenceBuilder(library), sharded) == production
    serial = ReferenceBuilder(library).with_config(CONFIG).build_serial()
    assert isinstance(serial.pipeline.detector, ReferenceDetector)
    with pytest.raises(ValueError, match="inline"):
        ReferenceBuilder(library).build_sharded(2, backend="process")


# ---------------------------------------------------------------------------
# Divergence.first, for every oracle
# ---------------------------------------------------------------------------

def _first_difference(pairs):
    return next((e, a) for e, a in pairs if e != a)


def _serial_snapshots(library, events):
    analyzer = GretelAnalyzer(
        library, config=CONFIG, track_latency=False,
        defer_detection=True,
    )
    analyzer.feed(events)
    analyzer.flush()
    return analyzer.pipeline.deferred_snapshots()


def _tamper_shards(library, events, monkeypatch):
    # Sharded half analyzes nothing: every serial report goes missing.
    serial = GretelAnalyzer(library, config=CONFIG)
    serial.feed(events)
    serial.flush()
    expected = (min(map(report_signature, serial.reports)), None)
    monkeypatch.setattr(
        AnalyzerShard, "ingest_batch", lambda self, chunk: None,
    )
    return expected, lambda: verify_equivalence(
        events, library, 2, config=CONFIG,
    )


def _tamper_detection(library, events, monkeypatch):
    snapshots = _serial_snapshots(library, events)
    monkeypatch.setattr(
        MatchSession, "score", lambda self, lo, hi, finalized=None: {},
    )
    reference = ReferenceDetector(
        library, library.symbols, library.symbols.catalog, CONFIG,
    )
    broken = OperationDetector(
        library, library.symbols, library.symbols.catalog, CONFIG,
    )
    expected = _first_difference(
        (detection_signature(reference.detect(s)),
         detection_signature(broken.detect(s)))
        for s in snapshots
    )
    return expected, lambda: verify_detection(
        snapshots, library, config=CONFIG,
    )


def _tamper_selection(library, events, monkeypatch):
    payload = compile_library(library, config=CONFIG).to_dict()
    for victim in sorted(payload["postings"])[::7]:
        del payload["postings"][victim]
    corrupted = CompiledIndex.from_dict(payload)
    catalog = library.symbols.catalog
    reference = ReferenceDetector(library, library.symbols, catalog, CONFIG)
    indexed = OperationDetector(library, library.symbols, catalog, CONFIG,
                                compiled_index=corrupted)
    keys = sorted(
        library.symbols.api_key(s) for s in library.postings()
    )

    def selected(detector, key, truncate):
        return tuple(map(candidate_signature,
                         detector.candidates_for(key, truncate=truncate)))

    expected = _first_difference(
        (selected(reference, key, truncate),
         selected(indexed, key, truncate))
        for key in keys for truncate in (True, False)
    )
    return expected, lambda: verify_selection(
        library, config=CONFIG, index=corrupted,
    )


def _tamper_levelshift(library, events, monkeypatch):
    samples = [
        (float(i), 0.010 + 0.0004 * (i % 5) + (0.05 if i > 60 else 0.0))
        for i in range(120)
    ]

    def step(detector, ts, value):
        shift = detector.update(ts, value)
        alarm = None if shift is None else (
            shift.ts, shift.observed, shift.baseline, shift.magnitude,
            shift.index,
        )
        return alarm, detector.threshold(), detector.baseline

    reference = LevelShiftDetector(window=24)
    candidate = IncrementalLevelShiftDetector(window=8)
    expected = _first_difference(
        (step(reference, ts, v), step(candidate, ts, v))
        for ts, v in samples
    )
    return expected, lambda: verify_levelshift(samples, detectors=(
        LevelShiftDetector(window=24),
        IncrementalLevelShiftDetector(window=8),
    ))


def _tamper_checkpoint(library, events, monkeypatch):
    # Reports survive; the restored ingest counter is off by 7.
    def bump(state):
        state["ingest"]["events_processed"] += 7
        return state

    expected = (len(events), len(events) + 7)
    return expected, lambda: verify_checkpoint(
        events, library, cuts=1, config=CONFIG, mutate=bump,
    )


def _tamper_async(library, events, monkeypatch):
    # Pumps swallow every chunk: each sync report goes missing.
    service = StreamingService(library, config=CONFIG)
    signatures = []
    service.on_report(lambda tenant, report: signatures.append(
        (tenant, report_signature(report))
    ))
    for event in events:
        service.submit(event, tenant=bucket_tenant(event.tenant, 3))
    service.flush()
    service.shutdown()
    monkeypatch.setattr(
        TenantSession, "_pump_step", lambda self, chunk: None,
    )
    return (min(signatures), None), lambda: verify_async(
        events, library, tenants=3, producers=2, config=CONFIG,
    )


@pytest.mark.parametrize("oracle, tamper", [
    ("shards", _tamper_shards),
    ("detection", _tamper_detection),
    ("selection", _tamper_selection),
    ("levelshift", _tamper_levelshift),
    ("checkpoint", _tamper_checkpoint),
    ("async", _tamper_async),
])
def test_divergence_names_the_earliest_differing_signature(
    library, events, monkeypatch, oracle, tamper,
):
    expected, run = tamper(library, events, monkeypatch)
    with pytest.raises(Divergence) as excinfo:
        run()
    assert excinfo.value.oracle == oracle
    assert excinfo.value.first == expected
    assert excinfo.value.result.mismatches
