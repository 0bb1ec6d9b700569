"""Library compiler: artifact shape, determinism, and the oracle."""

import json

import pytest

from repro.analysis.compile import (
    FORMAT_VERSION,
    CompiledIndex,
    compile_library,
    compiled_index_for,
    library_hash,
    selection_flags,
    symbol_table_hash,
    _min_feasible_overlap,
)
from repro.core.config import GretelConfig
from repro.core.detector import OperationDetector
from repro.core.fingerprint import FingerprintLibrary
from repro.oracle import (
    Divergence,
    ReferenceDetector,
    candidate_signature,
    verify_selection,
)


@pytest.fixture()
def library(make_fingerprint, symbols, state_change_keys, read_keys):
    """A small mixed library: shared + distinctive symbols."""
    lib = FingerprintLibrary(symbols)
    shared = state_change_keys[:2]
    for i in range(6):
        keys = shared + [state_change_keys[2 + i], read_keys[i]]
        lib.add(make_fingerprint(f"op-{i}", keys))
    # One duplicated shape (the compiler's dedup unit).
    lib.add(make_fingerprint("op-clone", shared + [state_change_keys[2],
                                                  read_keys[0]]))
    return lib


def test_postings_mirror_the_library(library):
    index = compile_library(library)
    assert index.postings() == library.postings()
    # Every symbol of every fingerprint is indexed, postings sorted
    # by operation name (the ops_containing contract).
    for operation in library.operations():
        for symbol in set(library.get(operation).symbols):
            entry = index.entry_for(symbol)
            assert entry is not None
            assert operation in entry.operations
            assert list(entry.operations) == sorted(entry.operations)


def test_build_twice_is_byte_identical(library):
    first = compile_library(library)
    second = compile_library(library)
    assert first.to_json() == second.to_json()
    assert first.artifact_hash() == second.artifact_hash()


def test_round_trip_through_json(library):
    index = compile_library(library)
    rebuilt = CompiledIndex.from_dict(json.loads(index.to_json()))
    assert rebuilt.to_json() == index.to_json()
    assert rebuilt.artifact_hash() == index.artifact_hash()


def test_from_dict_rejects_foreign_format_version(library):
    payload = compile_library(library).to_dict()
    payload["format_version"] = FORMAT_VERSION + 1
    with pytest.raises(ValueError, match="format version"):
        CompiledIndex.from_dict(payload)


def test_hashes_are_sensitive_to_library_changes(
    library, make_fingerprint, symbols, state_change_keys
):
    index = compile_library(library)
    before = library_hash(library)
    assert index.library_hash == before
    assert index.symbols_hash == symbol_table_hash(symbols)
    assert index.verify_against(library, symbols) == []

    library.add(make_fingerprint("op-new", state_change_keys[:3]))
    assert library_hash(library) != before
    problems = index.verify_against(library, symbols)
    assert len(problems) == 1
    assert "library hash mismatch" in problems[0]


def test_check_postings_catches_structural_corruption(library):
    index = compile_library(library)
    assert index.check_postings(library) == []
    payload = index.to_dict()
    dropped = sorted(payload["postings"])[0]
    del payload["postings"][dropped]
    corrupted = CompiledIndex.from_dict(payload)
    # The copied hashes still match: only the structural check sees it.
    assert corrupted.verify_against(library, library.symbols) == []
    problems = corrupted.check_postings(library)
    assert any("no postings entry" in p for p in problems)


def test_serves_requires_matching_selection_flags(library):
    config = GretelConfig()
    index = compile_library(library, config=config)
    assert index.serves(config)
    assert index.flags == selection_flags(config)
    flipped = GretelConfig(relaxed_match=not config.relaxed_match)
    assert not index.serves(flipped)


def test_detector_refuses_an_index_for_other_flags(library, catalog):
    """Serving preparations compiled under other selection flags
    would change diagnoses, so construction fails loudly."""
    index = compile_library(library, config=GretelConfig())
    flipped = GretelConfig(prune_rpcs=False)
    with pytest.raises(ValueError, match="selection flags"):
        OperationDetector(library, library.symbols, catalog, flipped,
                          compiled_index=index)
    # The same index serves a detector whose config it was built for.
    OperationDetector(library, library.symbols, catalog, GretelConfig(),
                      compiled_index=index)


def test_memoized_compile_tracks_library_version(
    library, make_fingerprint, state_change_keys
):
    first = compiled_index_for(library)
    assert compiled_index_for(library) is first
    library.add(make_fingerprint("op-extra", state_change_keys[:4]))
    second = compiled_index_for(library)
    assert second is not first
    assert second.verify_against(library, library.symbols) == []


def test_facts_record_anchors_and_feasibility(library):
    index = compile_library(library)
    postings = library.postings()
    for operation in library.operations():
        facts = index.facts[operation]
        distinct = set(library.get(operation).symbols)
        lengths = [len(postings[s]) for s in distinct]
        assert facts.min_postings == min(lengths)
        assert facts.max_postings == max(lengths)
        assert facts.distinct_symbols == len(distinct)
        for anchor in facts.anchor_symbols:
            assert len(postings[anchor]) == facts.min_postings
        for cut, needed in facts.min_feasible:
            assert 0 <= needed <= cut


def test_min_feasible_overlap_matches_runtime_gate():
    assert _min_feasible_overlap(0, 0.7) == 0
    assert _min_feasible_overlap(4, 0.5) == 2
    assert _min_feasible_overlap(10, 0.7) == 7
    # The strict threshold only accepts a full overlap.
    assert _min_feasible_overlap(4, 0.999) == 4


def test_hydrated_candidates_are_shared_across_detectors(
    library, catalog
):
    config = GretelConfig()
    index = compile_library(library, config=config)
    a = OperationDetector(library, library.symbols, catalog, config,
                          compiled_index=index)
    b = OperationDetector(library, library.symbols, catalog, config,
                          compiled_index=index)
    api_key = library.symbols.api_key(sorted(library.postings())[0])
    # Hydration is memoized on the artifact: both detectors serve the
    # same read-only list (the perf contract behind BENCH_index).
    assert a.candidates_for(api_key) is b.candidates_for(api_key)
    assert a.candidates_indexed > 0


def test_verify_selection_passes_on_a_fresh_index(library):
    result = verify_selection(library, strict=False)
    assert result.ok
    assert "EQUIVALENT" in result.summary()


def test_corrupted_postings_raise_selection_divergence(library, catalog):
    index = compile_library(library)
    payload = index.to_dict()
    victim = sorted(payload["postings"])[0]
    del payload["postings"][victim]
    corrupted = CompiledIndex.from_dict(payload)
    with pytest.raises(Divergence, match="DIVERGED") as excinfo:
        verify_selection(library, index=corrupted)
    # Only the victim symbol's candidates vanish; the oracle names
    # its full-scan list against the empty indexed one.
    victim_key = library.symbols.api_key(chr(int(victim, 16)))
    reference = ReferenceDetector(library, library.symbols, catalog)
    assert excinfo.value.oracle == "selection"
    assert excinfo.value.first == (
        tuple(candidate_signature(c)
              for c in reference.candidates_for(victim_key)),
        (),
    )
    result = verify_selection(library, index=corrupted, strict=False)
    assert not result.ok
    assert {m.key for m in result.mismatches} == {
        (victim_key, True), (victim_key, False),
    }


def test_candidate_signature_captures_preparation_content(
    library, catalog
):
    config = GretelConfig()
    detector = OperationDetector(
        library, library.symbols, catalog, config,
    )
    api_key = library.symbols.api_key(sorted(library.postings())[0])
    for candidate in detector.candidates_for(api_key):
        operation, sc, cuts, full, pure = candidate_signature(candidate)
        assert operation == candidate.original.operation
        assert sc == candidate.sc_symbols
        assert cuts == tuple(candidate.cut_lengths)
        assert full == candidate.full_symbols
        assert pure == candidate.pure_read
