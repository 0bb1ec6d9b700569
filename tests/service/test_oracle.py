"""Tests for the checkpoint differential oracle.

The oracle's own tests are mostly *negative*: an oracle that cannot
fail proves nothing, so the mutate hook injects both a counter-level
and a behavior-level corruption and the oracle must flag each.
"""

import pytest

from repro.oracle import Divergence, verify_checkpoint
from repro.oracle.verify import _cut_points

from .conftest import CONFIG


def test_cut_points_are_interior_and_spread():
    assert _cut_points(100, 3) == (25, 50, 75)
    assert _cut_points(10, 1) == (5,)
    # Degenerate inputs yield no cuts rather than 0/total cuts.
    assert _cut_points(1, 3) == ()
    assert _cut_points(0, 1) == ()
    assert _cut_points(100, 0) == ()
    # More cuts than interior positions: deduped, still interior.
    points = _cut_points(4, 9)
    assert all(0 < p < 4 for p in points)


def test_checkpoint_restore_is_invisible(library, stream_events):
    result = verify_checkpoint(
        stream_events, library, cuts=3, config=CONFIG,
    )
    assert result.ok
    facts = result.facts
    assert facts["straight_reports"] == facts["restored_reports"] > 0
    assert len(facts["cuts"]) == 3
    assert "EQUIVALENT" in result.summary()
    assert result.to_dict()["ok"] is True
    assert result.to_dict()["stats_diff"] == {}


def test_oracle_flags_counter_corruption(library, stream_events):
    def bump_counter(state):
        state["ingest"]["events_processed"] += 7
        return state

    with pytest.raises(Divergence, match="stats_diff") as excinfo:
        verify_checkpoint(
            stream_events, library, cuts=1, config=CONFIG,
            mutate=bump_counter,
        )
    # Reports are unaffected; the first divergence is the counter.
    assert excinfo.value.oracle == "checkpoint"
    straight, restored = excinfo.value.first
    assert restored == straight + 7


def test_oracle_flags_behavioral_corruption(library, stream_events):
    def drop_pending(state):
        # Forgetting pending snapshots silently loses fault reports.
        state["window"]["pending"] = []
        return state

    result = verify_checkpoint(
        stream_events, library, cuts=3, config=CONFIG,
        mutate=drop_pending, strict=False,
    )
    assert not result.ok
    assert result.missing
    assert "DIVERGED" in result.summary()
    with pytest.raises(Divergence) as excinfo:
        verify_checkpoint(
            stream_events, library, cuts=3, config=CONFIG,
            mutate=drop_pending,
        )
    # The lost reports surface first, lowest signature first.
    assert excinfo.value.oracle == "checkpoint"
    assert excinfo.value.first == (min(result.missing), None)


def test_strict_false_returns_instead_of_raising(library, stream_events):
    def bump_counter(state):
        state["ingest"]["events_processed"] += 7
        return state

    result = verify_checkpoint(
        stream_events, library, cuts=1, config=CONFIG,
        mutate=bump_counter, strict=False,
    )
    assert not result.ok
    assert "events_processed" in result.to_dict()["stats_diff"]
