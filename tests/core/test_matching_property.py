"""Property tests: incremental scoring is equivalent to from-scratch.

The engine's contract is *bit-identical* equivalence with
the reference scorer ``ReferenceDetector._score`` (see
``docs/matching.md``), so these
properties randomize everything the adaptive loop varies — snapshot
contents, fault position, β growth schedule, candidate needles, cut
points and pure-read flags — and hold the two scorers to exact
equality, including the ``finalized`` side-channel.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.analyzer import GretelAnalyzer
from repro.core.config import GretelConfig
from repro.core.detector import _Candidate
from repro.oracle import ReferenceDetector, verify_detection
from repro.workloads.traffic import SyntheticStream

ALPHABET = "ABCDE"


@pytest.fixture(scope="module")
def library(small_character):
    return small_character.library


@pytest.fixture(scope="module")
def detector(library):
    """Any reference detector works: ``_score`` reads only its
    config."""
    return ReferenceDetector(
        library, library.symbols, library.symbols.catalog,
    )


@st.composite
def candidates(draw):
    pure_read = draw(st.booleans())
    needle = draw(st.text(alphabet=ALPHABET, min_size=1, max_size=8))
    if pure_read:
        return _Candidate(
            original=None, sc_symbols="", cut_lengths=[0],
            full_symbols=needle, pure_read=True,
        )
    cuts = draw(st.sets(
        st.integers(min_value=1, max_value=len(needle)), max_size=4,
    ))
    cuts.add(len(needle))
    return _Candidate(
        original=None, sc_symbols=needle, cut_lengths=sorted(cuts),
        full_symbols=needle, pure_read=False,
    )


@st.composite
def scoring_cases(draw):
    fragments = draw(st.lists(
        st.sampled_from(list(ALPHABET) + [""]),
        min_size=1, max_size=40,
    ))
    fault = draw(st.integers(min_value=0, max_value=len(fragments) - 1))
    beta = draw(st.integers(min_value=1, max_value=6))
    delta = draw(st.integers(min_value=1, max_value=5))
    pool = draw(st.lists(candidates(), min_size=1, max_size=6))
    return fragments, fault, beta, delta, pool


def growth_windows(length, fault, beta, delta):
    """Outward β growth around ``fault``, as the adaptive loop walks."""
    windows = []
    while True:
        lo = max(0, fault - beta)
        hi = min(length, fault + beta + 1)
        windows.append((lo, hi))
        if lo == 0 and hi == length:
            return windows
        beta += delta


@given(case=scoring_cases())
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_session_equals_reference_on_random_growth(detector, case):
    fragments, fault, beta, delta, pool = case
    session = detector.matching.session(
        fragments, pool,
        threshold=detector.config.match_coverage,
        strict=not detector.config.relaxed_match,
    )
    finalized_ref = {}
    finalized_inc = {}
    for lo, hi in growth_windows(len(fragments), fault, beta, delta):
        buffer_symbols = "".join(fragments[lo:hi])
        reference = detector._score(pool, buffer_symbols, finalized_ref)
        incremental = session.score(lo, hi, finalized_inc)
        assert incremental == reference
        assert finalized_inc == finalized_ref


@given(case=scoring_cases(), strict=st.booleans())
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_session_equals_reference_without_finalization(
        detector, case, strict):
    """Single-shot windows (no ``finalized`` dict), both strictness
    profiles — the non-adaptive / performance-fault path."""
    fragments, fault, beta, delta, pool = case
    config = GretelConfig(relaxed_match=not strict)
    reference_detector = ReferenceDetector(
        detector.library, detector.symbols, detector.catalog, config,
    )
    session = reference_detector.matching.session(
        fragments, pool,
        threshold=config.match_coverage, strict=strict,
    )
    for lo, hi in growth_windows(len(fragments), fault, beta, delta):
        buffer_symbols = "".join(fragments[lo:hi])
        reference = reference_detector._score(pool, buffer_symbols)
        assert session.score(lo, hi) == reference


@given(
    seed=st.integers(min_value=0, max_value=200),
    fault_every=st.integers(min_value=20, max_value=200),
    count=st.integers(min_value=50, max_value=600),
)
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_detect_equivalence_on_random_streams(library, seed, fault_every,
                                              count):
    """End-to-end: full ``detect`` over randomized synthetic streams
    produces identical results with the engine on and off."""
    stream = SyntheticStream(library, library.symbols,
                             fault_every=fault_every, seed=seed)
    analyzer = GretelAnalyzer(
        library, track_latency=False, defer_detection=True,
    )
    analyzer.feed(stream.generate(count))
    analyzer.flush()
    snapshots = list(analyzer.pipeline._deferred)
    outcome = verify_detection(snapshots, library)
    assert outcome.ok, outcome.summary()
