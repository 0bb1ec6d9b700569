"""Incremental matching: O(δ) re-scoring for Algorithm 2's loop.

See ``docs/matching.md``.  The engine (``engine``) keeps per-candidate
bit-parallel rows alive across context-buffer growth iterations; the
indexes (``index``) replace the per-candidate foreign-symbol regex
strip with per-snapshot symbol/position lookups.
``repro.oracle.verify_detection`` proves the engine's results
bit-identical to the from-scratch reference scorer.
"""

from repro.core.matching.engine import (
    MatchingEngine,
    MatchingStats,
    MatchSession,
    ScoringCandidate,
    select_cut,
)
from repro.core.matching.index import SnapshotIndex, WindowCounts

__all__ = [
    "MatchSession",
    "MatchingEngine",
    "MatchingStats",
    "ScoringCandidate",
    "SnapshotIndex",
    "WindowCounts",
    "select_cut",
]
