"""Micro-benchmarks of GRETEL's hot paths."""

from repro.openstack.catalog import default_catalog
from repro.core.fingerprint import (
    filter_noise,
    longest_common_subsequence,
    prefix_lcs_lengths,
)
from repro.core.window import SlidingWindow


def test_sliding_window_append(benchmark, character):
    """Per-event cost of the dual-buffer window (the receiver's core)."""
    from repro.workloads.traffic import SyntheticStream

    stream = SyntheticStream(character.library, character.library.symbols,
                             fault_every=10**9)
    events = stream.events(2000)

    def run():
        window = SlidingWindow(alpha=768)
        for event in events:
            window.append(event)
        return window

    window = benchmark(run)
    assert len(window) == 768


def test_noise_filter(benchmark, character):
    catalog = default_catalog()
    symbols = character.library.symbols
    fingerprint = max(character.library, key=len)
    trace = symbols.decode(fingerprint.symbols) * 5

    result = benchmark(filter_noise, trace, catalog)
    assert result


def test_lcs(benchmark, character):
    symbols = character.library.symbols
    fingerprint = max(character.library, key=len)
    a = symbols.decode(fingerprint.symbols)
    b = a[1:] + a[:1]

    result = benchmark(longest_common_subsequence, a, b)
    assert len(result) >= len(a) - 2


def test_prefix_lcs(benchmark, character):
    fingerprint = max(character.library, key=len)
    needle = fingerprint.state_change_symbols
    haystack = fingerprint.symbols * 10

    lengths = benchmark(prefix_lcs_lengths, needle, haystack)
    assert lengths[-1] == len(needle)


def _levelshift_series(samples=5_000, seed=5):
    """A latency series with occasional level shifts (alarms, re-seeds
    and confirm streaks all exercised)."""
    import random

    rng = random.Random(seed)
    series = []
    ts, level = 0.0, 0.010
    for _ in range(samples):
        ts += rng.uniform(0.05, 0.15)
        if rng.random() < 0.002:
            level = 0.010 * rng.uniform(1.0, 8.0)
        series.append((ts, level * rng.uniform(0.9, 1.1)))
    return series


def test_levelshift_update(benchmark):
    """Per-sample cost of the streaming LS engine (sorted rolling
    window + cached threshold — the production default)."""
    from repro.core.streamstats import IncrementalLevelShiftDetector

    series = _levelshift_series()

    def run():
        detector = IncrementalLevelShiftDetector(window=24)
        update = detector.update
        for ts, value in series:
            update(ts, value)
        return detector

    detector = benchmark(run)
    assert detector.alarms


def test_levelshift_update_reference(benchmark):
    """The same series through the from-scratch reference detector
    (three sorts per sample) — the before/after pair for streamstats."""
    from repro.oracle import LevelShiftDetector

    series = _levelshift_series()

    def run():
        detector = LevelShiftDetector(window=24)
        update = detector.update
        for ts, value in series:
            update(ts, value)
        return detector

    detector = benchmark(run)
    assert detector.alarms


def _detection_fixture(character, reference=False):
    from repro.core.config import GretelConfig
    from repro.core.detector import OperationDetector
    from repro.core.window import Snapshot
    from repro.oracle import ReferenceDetector
    from repro.workloads.traffic import SyntheticStream

    catalog = default_catalog()
    stream = SyntheticStream(character.library, character.library.symbols,
                             fault_every=700, seed=3)
    events = stream.events(1500)
    fault = next(e for e in events if e.error)
    snapshot = Snapshot(fault=fault, events=events[:1400],
                        fault_index=events.index(fault))
    detector_type = ReferenceDetector if reference else OperationDetector
    detector = detector_type(
        character.library, character.library.symbols, catalog,
        GretelConfig(p_rate=1300.0),
    )
    return detector, snapshot


def _growth_windows(detector, snapshot):
    """The (lo, hi) schedule the adaptive loop visits, precomputed."""
    config = detector.config
    alpha = max(len(snapshot.events), 2)
    beta = max(1, config.context_buffer_start(alpha) // 2)
    delta = config.context_buffer_step(alpha)
    windows = []
    while True:
        windows.append(snapshot.bounds(beta))
        if snapshot.covers_all(beta):
            return windows
        beta += delta


def test_operation_detection(benchmark, character):
    """One full Algorithm-2 pass on a realistic snapshot
    (incremental engine, the production default)."""
    detector, snapshot = _detection_fixture(character)

    result = benchmark(detector.detect, snapshot)
    assert result.candidates > 0


def test_operation_detection_reference(benchmark, character):
    """The same pass on the reference detector (full candidate scan +
    from-scratch scorer) — the before/after pair for the incremental
    engine."""
    detector, snapshot = _detection_fixture(character, reference=True)

    result = benchmark(detector.detect, snapshot)
    assert result.candidates > 0


def test_score_fresh(benchmark, character):
    """From-scratch scoring across one β growth schedule: every
    iteration re-joins, re-strips and re-runs the LCS over the whole
    window (the reference scorer's cost model)."""
    detector, snapshot = _detection_fixture(character, reference=True)
    candidates = detector.candidates_for(snapshot.fault.api_key)
    windows = _growth_windows(detector, snapshot)

    def run():
        finalized = {}
        scores = {}
        for lo, hi in windows:
            scores = detector._score(
                candidates,
                detector._buffer_symbols(snapshot, lo, hi, ""),
                finalized,
            )
        return scores

    assert benchmark(run)


def test_score_incremental(benchmark, character):
    """The same growth schedule through a MatchSession: per iteration
    only the changed span is re-scored (O(δ) steady state)."""
    detector, snapshot = _detection_fixture(character)
    candidates = detector.candidates_for(snapshot.fault.api_key)
    windows = _growth_windows(detector, snapshot)
    fragments = detector._session_fragments(snapshot, "")

    def run():
        session = detector.matching.session(
            fragments, candidates,
            threshold=detector.config.match_coverage,
            strict=not detector.config.relaxed_match,
        )
        finalized = {}
        scores = {}
        for lo, hi in windows:
            scores = session.score(lo, hi, finalized)
        return scores

    assert benchmark(run)
