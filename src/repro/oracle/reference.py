"""Reference halves of the differential oracles.

Production runs one implementation of each hot path: compiled-index
candidate selection, the incremental ``MatchSession`` scorer and the
incremental level-shift detector.  The straightforward versions they
replaced live here, next to the oracles that hold production to them:

* :class:`ReferenceDetector` — Algorithm 2 on the full per-fingerprint
  candidate scan and the from-scratch LCS scorer (it overrides
  :class:`~repro.core.detector.OperationDetector`'s two private
  hooks, ``_prepare_candidates`` and ``_scorer``);
* :class:`LevelShiftDetector` — the LS detector that re-sorts its
  window three times per sample;
* :class:`ReferenceBuilder` — the one seam through which oracles,
  benchmarks and tests build whole pipelines on these halves.
"""

from __future__ import annotations

import re
from collections import Counter, deque
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    FrozenSet,
    List,
    Optional,
    Tuple,
)

from repro.core.config import GretelConfig
from repro.core.detector import (
    OperationDetector,
    ScoreFn,
    Scores,
    _Candidate,
    prepare_candidate,
)
from repro.core.fingerprint import FingerprintLibrary, prefix_lcs_lengths
from repro.core.latency import LatencyTracker
from repro.core.matching.engine import select_cut
from repro.core.outliers import LevelShift, _median
from repro.core.parallel import AnalyzerShard, ShardedAnalyzer
from repro.core.pipeline.builder import PipelineBuilder
from repro.core.symbols import SymbolTable
from repro.core.window import Snapshot
from repro.openstack.catalog import ApiCatalog
from repro.openstack.wire import WireEvent


class ReferenceDetector(OperationDetector):
    """Algorithm 2 on the reference candidate scan and scorer."""

    def __init__(
        self,
        library: FingerprintLibrary,
        symbols: SymbolTable,
        catalog: ApiCatalog,
        config: Optional[GretelConfig] = None,
    ) -> None:
        super().__init__(library, symbols, catalog, config)
        #: Per-alphabet "strip foreign symbols" regexes.
        self._foreign: Dict[FrozenSet[str], "re.Pattern[str]"] = {}

    def _prepare_candidates(
        self, symbol: str, truncate: bool
    ) -> List[_Candidate]:
        """Full scan: prepare every fingerprint containing ``symbol``."""
        truncate_here = truncate and self.config.truncate_fingerprints
        relaxed = self.config.relaxed_match
        prepared: List[_Candidate] = []
        for fingerprint in self.library.ops_containing(symbol):
            self.postings_scanned += 1
            prepared.append(prepare_candidate(
                fingerprint, self._effective(fingerprint), symbol,
                truncate=truncate_here, relaxed=relaxed,
            ))
        return prepared

    def _scorer(
        self,
        snapshot: Snapshot,
        candidates: List[_Candidate],
        correlation_id: str,
    ) -> ScoreFn:
        def run(
            lo: int, hi: int, finalized: Optional[Scores] = None
        ) -> Scores:
            return self._score(
                candidates,
                self._buffer_symbols(snapshot, lo, hi, correlation_id),
                finalized,
            )

        return run

    def _buffer_symbols(self, snapshot: Snapshot, lo: int, hi: int,
                        correlation_id: str) -> str:
        """Symbol string for ``snapshot.events[lo:hi]``.

        Pre-encoded snapshots (the batched path) join a slice of their
        fragments.  With ``correlation_id`` set (the §5.3.1
        future-work mode) only messages carrying the offending
        message's correlation header are kept, which the pre-encoding
        cannot bake in.
        """
        encoded = snapshot.encoded
        if encoded is not None and not correlation_id:
            return "".join(encoded[lo:hi])
        events = snapshot.events[lo:hi]
        fragment = self._fragment
        if not correlation_id:
            return "".join(map(fragment, events))
        return "".join(
            piece for piece, event in zip(map(fragment, events), events)
            if piece and event.request_id == correlation_id
        )

    def _score(self, candidates: List[_Candidate], buffer_symbols: str,
               finalized: Optional[Scores] = None) -> Scores:
        """(corroborated length, coverage) per gated candidate index,
        from scratch over the joined window string."""
        threshold = self.config.match_coverage
        buffer_counts = Counter(buffer_symbols)
        scores: Scores = {}
        strict = not self.config.relaxed_match
        for index, candidate in enumerate(candidates):
            if finalized and index in finalized:
                scores[index] = finalized[index]
                continue
            required = 0.999 if (candidate.pure_read or strict) else threshold
            if candidate.upper_bound(buffer_counts) < required:
                continue
            length, coverage = self._rescore(candidate, buffer_symbols)
            if coverage >= required:
                scores[index] = (length, coverage)
                if (coverage >= 0.999
                        and length >= candidate.final_length
                        and finalized is not None):
                    finalized[index] = (length, coverage)
        return scores

    def _rescore(self, candidate: _Candidate,
                 buffer_symbols: str) -> Tuple[int, float]:
        """Best (corroborated length, coverage) over truncation points.

        The corroborated length is the LCS between the truncated
        fingerprint and the buffer, after a C-speed strip of symbols
        outside the candidate's alphabet.
        """
        alphabet = candidate.alphabet
        if alphabet:
            foreign = self._foreign.get(alphabet)
            if foreign is None:
                foreign = re.compile(
                    "[^" + re.escape("".join(sorted(alphabet))) + "]+"
                )
                self._foreign[alphabet] = foreign
            buffer_symbols = foreign.sub("", buffer_symbols)
        if candidate.pure_read:
            lengths = prefix_lcs_lengths(
                candidate.full_symbols, buffer_symbols
            )
            total = max(1, len(candidate.full_symbols))
            return lengths[-1], lengths[-1] / total
        lengths = prefix_lcs_lengths(candidate.sc_symbols, buffer_symbols)
        return select_cut(candidate.cut_lengths, lengths)


class LevelShiftDetector:
    """Online LS detector for one time series, re-sorting per sample.

    Keeps a rolling window, estimates a robust baseline (median +
    MAD) and confirms a shift after ``confirm`` consecutive points
    beyond ``sigmas`` robust deviations (and an absolute floor
    ``min_delta``).  Every ``threshold()`` call pays three
    O(w·log w) sorts.
    """

    def __init__(
        self,
        window: int = 24,
        sigmas: float = 4.0,
        min_delta: float = 0.004,
        confirm: int = 3,
        warmup: int = 12,
        rel_delta: float = 0.5,
        cooldown: float = 10.0,
    ) -> None:
        if window < 4:
            raise ValueError("window must be at least 4")
        if confirm < 1:
            raise ValueError("confirm must be at least 1")
        self.window = window
        self.sigmas = sigmas
        self.min_delta = min_delta
        #: Minimum shift as a fraction of the baseline: a *level shift*
        #: is a jump to a new regime, not jitter around the old one.
        self.rel_delta = rel_delta
        self.confirm = confirm
        self.warmup = max(warmup, confirm + 1)
        #: Quiet period after an alarm (seconds of series time): one
        #: level shift should raise one alarm, not a storm.
        self.cooldown = cooldown
        self._cooldown_until = float("-inf")
        self._baseline: Deque[float] = deque(maxlen=window)
        self._pending: List[Tuple[float, float]] = []
        self._count = 0
        self.alarms: List[LevelShift] = []
        #: Every ``threshold()`` call re-derives the (median, MAD,
        #: threshold) triple from scratch.
        self.threshold_recomputes = 0

    @property
    def baseline(self) -> float:
        """Current robust baseline (median of the window)."""
        if not self._baseline:
            return 0.0
        return _median(list(self._baseline))

    @property
    def spread(self) -> float:
        """Robust spread: MAD scaled to sigma-equivalent, floored."""
        values = list(self._baseline)
        if len(values) < 4:
            return float("inf")
        med = _median(values)
        mad = _median([abs(v - med) for v in values])
        return max(1.4826 * mad, 1e-12)

    def threshold(self) -> float:
        """Current alarm threshold above the baseline."""
        self.threshold_recomputes += 1
        baseline = self.baseline
        return baseline + max(
            self.sigmas * self.spread,
            self.min_delta,
            self.rel_delta * baseline,
        )

    def update(self, ts: float, value: float) -> Optional[LevelShift]:
        """Feed one sample; returns a :class:`LevelShift` when confirmed."""
        self._count += 1
        if self._count <= self.warmup or len(self._baseline) < 4:
            self._baseline.append(value)
            return None
        if ts < self._cooldown_until:
            self._baseline.append(value)
            return None

        if value > self.threshold():
            self._pending.append((ts, value))
            if len(self._pending) >= self.confirm:
                observed = _median([v for _, v in self._pending])
                shift = LevelShift(
                    ts=self._pending[0][0],
                    observed=observed,
                    baseline=self.baseline,
                    magnitude=observed - self.baseline,
                    index=self._count,
                )
                self.alarms.append(shift)
                # Adapt: re-seed the baseline on the new level, so the
                # same shift is reported exactly once.
                self._baseline.clear()
                for _, pending_value in self._pending:
                    self._baseline.append(pending_value)
                self._pending.clear()
                self._cooldown_until = ts + self.cooldown
                return shift
            return None

        # A below-threshold sample breaks any pending shift (isolated
        # spikes never alarm — LS wants sustained level changes).
        for _, pending_value in self._pending:
            self._baseline.append(pending_value)
        self._pending.clear()
        self._baseline.append(value)
        return None

    def reset(self) -> None:
        """Forget all state (fresh series)."""
        self._baseline.clear()
        self._pending.clear()
        self._count = 0
        self._cooldown_until = float("-inf")
        self.alarms.clear()


def reference_levelshift(config: GretelConfig) -> LevelShiftDetector:
    """A reference LS detector wired from ``config``'s ls_* knobs."""
    return LevelShiftDetector(
        window=config.ls_window,
        sigmas=config.ls_sigmas,
        min_delta=config.ls_min_delta,
        confirm=config.ls_confirm,
        warmup=config.ls_warmup,
        rel_delta=config.ls_rel_delta,
        cooldown=config.ls_cooldown,
    )


class ReferenceTracker(LatencyTracker):
    """A latency tracker feeding reference LS detectors."""

    def _new_detector(self) -> Any:
        # Duck-typed stand-in for the incremental detector: same
        # update/threshold/baseline/alarms surface, no checkpointing.
        return reference_levelshift(self.config)


class ReferenceBuilder(PipelineBuilder):
    """A pipeline builder wiring in the reference halves.

    Every pipeline it builds runs a :class:`ReferenceDetector` and a
    :class:`ReferenceTracker`.  Sharded engines are inline only:
    process workers build production pipelines.
    """

    def _detector(self, library: FingerprintLibrary, symbols: SymbolTable,
                  catalog: ApiCatalog,
                  config: GretelConfig) -> OperationDetector:
        return ReferenceDetector(library, symbols, catalog, config)

    def _tracker(self, config: GretelConfig) -> LatencyTracker:
        return ReferenceTracker(config)

    def build_sharded(
        self,
        shards: int = 4,
        *,
        key: Optional[Callable[[WireEvent], str]] = None,
        batch_size: Optional[int] = None,
        backend: str = "inline",
    ) -> ShardedAnalyzer:
        if backend != "inline":
            raise ValueError(
                "reference pipelines run inline; process workers "
                "build production pipelines"
            )
        analyzer = super().build_sharded(
            shards, key=key, batch_size=batch_size
        )
        analyzer.shards = [
            AnalyzerShard(
                index, self._library, batch_size=analyzer.batch_size,
                pipeline=self.build_batched(analyzer.batch_size),
            )
            for index in range(shards)
        ]
        return analyzer
