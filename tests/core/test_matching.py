"""Tests for the incremental scoring engine (repro.core.matching)."""

import pytest

from repro.openstack.catalog import default_catalog
from repro.openstack.wire import WireEvent
from repro.core.config import GretelConfig
from repro.core.detector import OperationDetector, _Candidate
from repro.core.fingerprint import (
    FingerprintLibrary,
    generate_fingerprint,
    prefix_lcs_lengths,
)
from repro.core.matching import (
    MatchSession,
    MatchingStats,
    SnapshotIndex,
    WindowCounts,
    select_cut,
)
from repro.core.symbols import SymbolTable
from repro.core.window import Snapshot
from repro.oracle import (
    Divergence,
    ReferenceDetector,
    detection_signature,
    verify_detection,
)


@pytest.fixture(scope="module")
def catalog():
    return default_catalog()


@pytest.fixture(scope="module")
def symbols(catalog):
    return SymbolTable(catalog)


# The controlled operation universe from test_detector.py.
BOOT = ("rest", "nova", "POST", "/v2.1/servers")
PORT = ("rest", "neutron", "POST", "/v2.0/ports.json")
IMAGE = ("rest", "glance", "POST", "/v2/images")
UPLOAD = ("rest", "glance", "PUT", "/v2/images/{id}/file")
VOLUME = ("rest", "cinder", "POST", "/v2/{tenant}/volumes")
POLL = ("rest", "nova", "GET", "/v2.1/servers/{id}")
DEL_SRV = ("rest", "nova", "DELETE", "/v2.1/servers/{id}")
KEYPAIR = ("rest", "nova", "POST", "/v2.1/os-keypairs")
RPC_BUILD = ("rpc", "nova", None, "build_and_run_instance")
LIST_IMAGES = ("rest", "glance", "GET", "/v2/images")


def to_keys(catalog, specs):
    keys = []
    for kind, service, method, name in specs:
        if kind == "rest":
            keys.append(catalog.find_rest(service, method, name).key)
        else:
            keys.append(catalog.find_rpc(service, name).key)
    return keys


@pytest.fixture(scope="module")
def library(catalog, symbols):
    library = FingerprintLibrary(symbols)
    operations = {
        "op-boot": [IMAGE, UPLOAD, BOOT, RPC_BUILD, PORT, POLL, DEL_SRV],
        "op-image": [IMAGE, UPLOAD, LIST_IMAGES],
        "op-volume-boot": [VOLUME, IMAGE, UPLOAD, BOOT, RPC_BUILD, PORT, POLL],
        "op-keypair-boot": [KEYPAIR, IMAGE, UPLOAD, BOOT, RPC_BUILD, PORT,
                            POLL],
        "op-reads": [LIST_IMAGES, POLL],
    }
    for name, specs in operations.items():
        library.add(generate_fingerprint(
            name, [to_keys(catalog, specs)], symbols, catalog,
        ))
    return library


def make_detector(library, symbols, catalog, **overrides):
    config = GretelConfig(**overrides)
    return OperationDetector(library, symbols, catalog, config)


def make_snapshot(catalog, specs, fault_spec, fault_status=500):
    keys = to_keys(catalog, specs)
    fault_key = to_keys(catalog, [fault_spec])[0]
    events = []
    fault_event = None
    for index, key in enumerate(keys):
        api = catalog.get(key)
        status = 200
        if key == fault_key and fault_event is None and index == len(keys) - 1:
            status = fault_status
        event = WireEvent(
            seq=index, api_key=key, kind=api.kind, method=api.method,
            name=api.name, src_service="x", src_node="ctrl", src_ip="1",
            dst_service=api.service, dst_node="nova-ctl", dst_ip="2",
            ts_request=index * 0.1, ts_response=index * 0.1 + 0.01,
            status=status,
        )
        events.append(event)
        if status >= 400:
            fault_event = event
    if fault_event is None:
        fault_event = events[-1]
    return Snapshot(fault=fault_event, events=events,
                    fault_index=events.index(fault_event))


def make_candidate(sc_symbols, cut_lengths=None, full_symbols=None,
                   pure_read=False):
    """A bare _Candidate for symbol-level engine tests."""
    return _Candidate(
        original=None,
        sc_symbols=sc_symbols,
        cut_lengths=cut_lengths or [len(sc_symbols)],
        full_symbols=full_symbols or sc_symbols,
        pure_read=pure_read,
    )


# -- snapshot index -------------------------------------------------------


def test_index_counts_symbols_inside_window():
    index = SnapshotIndex(["A", "B", "", "A", "C", "A"])
    assert index.count("A", 0, 6) == 3
    assert index.count("A", 1, 5) == 1
    assert index.count("A", 4, 4) == 0
    assert index.count("Z", 0, 6) == 0


def test_index_excludes_blank_fragments():
    index = SnapshotIndex(["", "A", ""])
    assert "" not in index.positions
    assert index.count("", 0, 3) == 0


def test_window_counts_matches_counter_semantics():
    from collections import Counter

    fragments = ["A", "B", "", "A", "C", "A", "B"]
    lo, hi = 1, 6
    counts = WindowCounts(SnapshotIndex(fragments), lo, hi)
    reference = Counter("".join(fragments[lo:hi]))
    for symbol in "ABCZ":
        assert counts.get(symbol, 0) == reference.get(symbol, 0)
        assert counts[symbol] == reference.get(symbol, 0)
    assert set(iter(counts)) == {"A", "B", "C"}
    assert len(counts) == 3


# -- multiplicity gate (satellite 1) --------------------------------------


def test_upper_bound_respects_multiplicities():
    """A needle 'AAB' must not be fully credited by a single 'A'
    (the set-intersection bound this replaced credited alphabet
    membership, not occurrences)."""
    candidate = make_candidate("AAB")
    # Set-of-symbols view: both symbols present => old bound was 1.0.
    assert candidate.alphabet == frozenset("AB")
    assert candidate.upper_bound({"A": 1, "B": 1}) == pytest.approx(2 / 3)
    assert candidate.upper_bound({"A": 2, "B": 1}) == pytest.approx(1.0)
    # Surplus buffer copies never over-credit.
    assert candidate.upper_bound({"A": 9, "B": 9}) == pytest.approx(1.0)


@pytest.mark.parametrize("needle,buffer_symbols", [
    ("AAB", "ABA"),
    ("AAB", "BBBA"),
    ("ABCABC", "CBACBA"),
    ("AAAA", "A"),
    ("AB", "A"),
    ("A", ""),
])
def test_upper_bound_is_a_true_upper_bound(needle, buffer_symbols):
    """The gate must never prune a candidate the LCS would accept:
    bound >= LCS(needle, buffer) / len(needle), always."""
    from collections import Counter

    candidate = make_candidate(needle)
    lcs = prefix_lcs_lengths(needle, buffer_symbols)[-1]
    bound = candidate.upper_bound(Counter(buffer_symbols))
    assert bound >= lcs / len(needle)


def test_upper_bound_monotone_under_buffer_growth():
    from collections import Counter

    candidate = make_candidate("AABBC")
    buffer_symbols = ""
    previous = 0.0
    for extension in ["A", "B", "Z", "A", "C", "B", "A"]:
        buffer_symbols += extension
        bound = candidate.upper_bound(Counter(buffer_symbols))
        assert bound >= previous
        previous = bound


# -- select_cut -----------------------------------------------------------


def test_select_cut_prefers_coverage_then_length():
    # cut 2 fully covered beats cut 4 at 3/4.
    assert select_cut([2, 4], {2: 2, 4: 3}) == (2, 1.0)
    # Equal coverage: the longer corroboration wins.
    assert select_cut([2, 4], {2: 1, 4: 2}) == (2, 0.5)
    # Non-positive cuts are skipped outright.
    assert select_cut([0, 3], {0: 0, 3: 2}) == (2, pytest.approx(2 / 3))
    assert select_cut([], {}) == (0, 0.0)


# -- session vs reference scorer ------------------------------------------


def snapshot_windows(snapshot, config):
    """The exact (lo, hi) schedule detect() would visit."""
    alpha = max(len(snapshot.events), 2)
    beta = max(1, config.context_buffer_start(alpha) // 2)
    delta = config.context_buffer_step(alpha)
    windows = []
    while True:
        windows.append(snapshot.bounds(beta))
        if snapshot.covers_all(beta):
            return windows
        beta += delta


def test_session_matches_reference_scorer(library, symbols, catalog):
    detector = make_detector(library, symbols, catalog)
    reference = ReferenceDetector(library, symbols, catalog)
    snapshot = make_snapshot(
        catalog,
        [KEYPAIR, LIST_IMAGES, IMAGE, VOLUME, UPLOAD, LIST_IMAGES, BOOT,
         PORT, POLL],
        POLL,
    )
    candidates = detector.candidates_for(snapshot.fault.api_key)
    session = detector.matching.session(
        detector._session_fragments(snapshot, ""),
        candidates,
        threshold=detector.config.match_coverage,
        strict=not detector.config.relaxed_match,
    )
    finalized_ref = {}
    finalized_inc = {}
    score_reference = reference._scorer(snapshot, candidates, "")
    for lo, hi in snapshot_windows(snapshot, detector.config):
        expected = score_reference(lo, hi, finalized_ref)
        incremental = session.score(lo, hi, finalized_inc)
        assert incremental == expected
        assert finalized_inc == finalized_ref


def test_session_rescore_uses_cache(library, symbols, catalog):
    """Re-scoring an unchanged relevant span must answer from cache."""
    detector = make_detector(library, symbols, catalog)
    snapshot = make_snapshot(
        catalog, [KEYPAIR, IMAGE, UPLOAD, BOOT, PORT, POLL], POLL,
    )
    candidates = detector.candidates_for(snapshot.fault.api_key)
    session = detector.matching.session(
        detector._session_fragments(snapshot, ""),
        candidates,
        threshold=detector.config.match_coverage,
        strict=not detector.config.relaxed_match,
    )
    lo, hi = 0, len(snapshot.events)
    first = session.score(lo, hi)
    before = detector.matching.stats.rescore_hits
    second = session.score(lo, hi)
    assert second == first
    assert detector.matching.stats.rescore_hits > before


def test_config_flag_switches_engine_without_changing_results(
        library, symbols, catalog):
    """The reference detector (oracle-side) and the production one
    diagnose identically; only the production one runs the engine."""
    reference = ReferenceDetector(library, symbols, catalog)
    incremental = make_detector(library, symbols, catalog)
    snapshot = make_snapshot(
        catalog, [KEYPAIR, IMAGE, VOLUME, UPLOAD, BOOT, PORT, POLL], POLL,
    )
    expected = detection_signature(reference.detect(snapshot))
    actual = detection_signature(incremental.detect(snapshot))
    assert actual == expected
    # The reference path never touches the engine; the incremental
    # path did real work.
    assert reference.matching.stats.lcs_row_extensions == 0
    assert incremental.matching.stats.lcs_row_extensions > 0


# -- differential oracle --------------------------------------------------


@pytest.fixture(scope="module")
def oracle_snapshots(catalog):
    return [
        make_snapshot(
            catalog, [KEYPAIR, IMAGE, UPLOAD, BOOT, PORT, POLL], POLL,
        ),
        make_snapshot(catalog, [IMAGE, UPLOAD], UPLOAD),
        make_snapshot(
            catalog, [VOLUME, IMAGE, UPLOAD, BOOT, PORT], PORT,
        ),
        make_snapshot(
            catalog,
            [KEYPAIR, LIST_IMAGES, IMAGE, VOLUME, UPLOAD, LIST_IMAGES,
             BOOT, PORT, POLL],
            POLL,
        ),
    ]


def test_verify_detection_equivalent(library, catalog, oracle_snapshots):
    outcome = verify_detection(oracle_snapshots, library, catalog=catalog)
    assert outcome.ok
    assert outcome.facts["snapshots"] == len(oracle_snapshots)
    assert outcome.summary().startswith("EQUIVALENT")


def test_verify_detection_raises_on_divergence(
        library, catalog, oracle_snapshots, monkeypatch):
    """A corrupted incremental scorer must trip the oracle."""
    monkeypatch.setattr(
        MatchSession, "score",
        lambda self, lo, hi, finalized=None: {},
    )
    with pytest.raises(Divergence) as excinfo:
        verify_detection(oracle_snapshots, library, catalog=catalog)
    assert "DIVERGED" in str(excinfo.value)
    assert excinfo.value.oracle == "detection"
    # A scorer that gates nothing loses the very first diagnosis.
    reference = ReferenceDetector(library, library.symbols, catalog)
    expected = detection_signature(reference.detect(oracle_snapshots[0]))
    assert excinfo.value.first[0] == expected
    assert excinfo.value.first[1][0] == expected[0]
    assert excinfo.value.first[1][1] == ()
    outcome = verify_detection(
        oracle_snapshots, library, catalog=catalog, strict=False,
    )
    assert not outcome.ok
    assert outcome.mismatches


def test_verify_detection_covers_performance_path(
        library, catalog, oracle_snapshots):
    outcome = verify_detection(
        oracle_snapshots, library, catalog=catalog, performance_fault=True,
    )
    assert outcome.ok


# -- stats plumbing -------------------------------------------------------


def test_matching_stats_merge():
    merged = MatchingStats(
        candidates_gated=1, blocks_built=2, lcs_row_extensions=3,
        lcs_symbols_fed=4, rescore_hits=5,
    ) + MatchingStats(
        candidates_gated=10, blocks_built=20, lcs_row_extensions=30,
        lcs_symbols_fed=40, rescore_hits=50,
    )
    assert merged == MatchingStats(
        candidates_gated=11, blocks_built=22, lcs_row_extensions=33,
        lcs_symbols_fed=44, rescore_hits=55,
    )


def test_detector_exposes_matching_stats(library, symbols, catalog):
    detector = make_detector(library, symbols, catalog)
    snapshot = make_snapshot(
        catalog, [KEYPAIR, IMAGE, UPLOAD, BOOT, PORT, POLL], POLL,
    )
    detector.detect(snapshot)
    stats = detector.matching_stats
    assert stats.lcs_symbols_fed > 0
    assert stats.lcs_row_extensions > 0
