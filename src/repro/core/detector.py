"""Operation detection (Algorithm 2) with the adaptive context buffer.

Given a frozen snapshot and the offending API, GRETEL:

1. collects the operations whose fingerprints *contain* the offending
   symbol (``GET_POSSIBLE_OFFENDING_OPERATIONS``);
2. truncates each fingerprint at the offending symbol
   (``TRUNCATE_OPERATION_FINGERPRINTS``) — for operational errors the
   operation never ran past the failure, so only the prefix can be in
   the snapshot.  The paper truncates at the *last* occurrence; when
   the offending API is a repeated read (a status-poll GET appears
   both mid-operation and during teardown), that single cut point
   would keep steps that never executed, so this implementation
   considers **every** occurrence as a cut point and scores the best;
3. scores each truncated fingerprint against a **context buffer** —
   a window β = c1·α centered on the fault, grown by δ = c2·α per
   side per iteration, stopping as soon as the precision θ drops or
   the buffer covers the whole snapshot (§5.3.1).

Match semantics: the paper's relaxed match requires the buffer to
preserve the order of the fingerprint's state-change symbols while
tolerating absent ones (Fig. 4 matches with symbol A missing).  We
therefore score **order-consistent coverage** — the LCS between the
truncated fingerprint's state-change symbols and the buffer, as a
fraction of the fingerprint — and accept candidates above
``match_coverage``, then keep only those within
``completeness_tolerance`` of the best coverage (the snapshot-driven
pruning that keeps GRETEL's false positives low, §7.3).

Pure-read fingerprints (no state-change symbol at all) are scored on
their full symbol sequence instead: under the paper's literal
``read*`` regexes they would vacuously match every snapshot.

RPC symbols are pruned from fingerprints and buffer when
``prune_rpcs`` is on (§6's optimization, Fig. 7c).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    FrozenSet,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.openstack.apis import ApiKind
from repro.openstack.catalog import ApiCatalog
from repro.openstack.wire import WireEvent
from repro.core.config import GretelConfig
from repro.core.fingerprint import Fingerprint, FingerprintLibrary
from repro.core.matching.engine import MatchingEngine, MatchingStats
from repro.core.precision import theta
from repro.core.state import require_state
from repro.core.symbols import SymbolTable
from repro.core.window import Snapshot

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    # The compiler prepares candidates with this module's helpers, so
    # the runtime import of the compiled index must stay lazy (inside
    # ``OperationDetector._compiled_index``).
    from repro.analysis.compile import CompiledIndex

#: Cap on how many truncation points are tried per fingerprint.
_MAX_TRUNCATIONS = 6

#: Scores gated candidates over ``snapshot.events[lo:hi]``:
#: ``(lo, hi, finalized) -> {candidate index: (length, coverage)}``;
#: ``finalized`` carries scores already at full coverage from a
#: smaller buffer (coverage is monotone in buffer growth).
Scores = Dict[int, Tuple[int, float]]
ScoreFn = Callable[[int, int, Optional[Scores]], Scores]


def batch_encoder(
    symbols: SymbolTable, config: Optional[GretelConfig] = None,
) -> Callable[[Sequence[WireEvent]], List[str]]:
    """A chunk-at-a-time event→symbol encoder for the sharded path.

    Returns a callable mapping a run of wire events to one symbol
    fragment per event — ``""`` for events that
    :meth:`OperationDetector._fragment` would filter (noise, and RPCs
    under ``prune_rpcs``), the API's symbol otherwise.  The two must
    stay in lockstep: windows built with this encoder attach the
    fragments to their snapshots, and detection reuses them instead
    of re-encoding the context buffer.
    Filtering is folded into a per-API cache, so steady-state encoding
    is one dict lookup per event instead of a method call plus kind
    checks.
    """
    config = config or GretelConfig()
    prune = config.prune_rpcs
    lookup = symbols.symbol
    rpc = ApiKind.RPC
    cache: Dict[str, str] = {}

    def encode(events: Sequence[WireEvent]) -> List[str]:
        fragments: List[str] = []
        append = fragments.append
        get = cache.get
        for event in events:
            if event.noise:
                append("")
                continue
            fragment = get(event.api_key)
            if fragment is None:
                symbol = lookup(event.api_key)
                fragment = "" if (prune and event.kind is rpc) else symbol
                cache[event.api_key] = fragment
            append(fragment)
        return fragments

    return encode


@dataclass
class _Candidate:
    """One possible offending operation, prepared for scoring."""

    original: Fingerprint
    #: State-change symbols of the longest considered truncation.
    sc_symbols: str
    #: Prefix lengths (into ``sc_symbols``) for each truncation point,
    #: ascending; the last entry is ``len(sc_symbols)``.
    cut_lengths: List[int]
    #: Full symbol string of the longest truncation (for pure reads).
    full_symbols: str
    pure_read: bool
    alphabet: FrozenSet[str] = field(default_factory=frozenset)
    #: Needle symbol multiplicities, feeding :meth:`upper_bound`.
    needle_counts: Dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.needle_counts:
            # Hydrated from a compiled index: the alphabet and counts
            # were computed once at compile time and are shared
            # (read-only) across every hydration of this prep.
            return
        source = self.needle
        self.alphabet = frozenset(source)
        self.needle_counts = dict(Counter(source))

    @property
    def needle(self) -> str:
        """The symbol string the candidate is scored on."""
        return self.full_symbols if self.pure_read else self.sc_symbols

    @property
    def final_length(self) -> int:
        """Corroborated length at which a candidate's score can no
        longer improve — the longest cut, fully covered.  Shorter cuts
        at coverage 1.0 could still be overtaken by a longer cut as
        the buffer grows, so they do not finalize."""
        return (len(self.full_symbols) if self.pure_read
                else self.cut_lengths[-1])

    def upper_bound(self, buffer_counts: Mapping[str, int]) -> float:
        """Coverage upper bound from symbol multiplicities.

        ``Σ min(needle count, buffer count) / len(needle)``: an LCS
        cannot use a buffer symbol more often than the buffer holds
        it, so a needle ``XX`` is not credited twice by a buffer with
        a single ``X`` (the set-intersection bound this replaces did).
        Monotone nondecreasing under buffer growth, which both the
        gate and the adaptive loop's ``finalized`` set rely on.
        """
        source = self.needle
        if not source:
            return 0.0
        get = buffer_counts.get
        matched = 0
        for symbol, count in self.needle_counts.items():
            have = get(symbol, 0)
            matched += count if count < have else have
        return matched / len(source)


def prepare_candidate(
    fingerprint: Fingerprint,
    effective: Fingerprint,
    symbol: str,
    *,
    truncate: bool,
    relaxed: bool,
) -> _Candidate:
    """Prepare one fingerprint for scoring against ``symbol`` faults.

    The single source of truth for candidate preparation: the library
    compiler (``repro.analysis.compile``) calls it per posting at
    compile time, and the reference full scan (``repro.oracle``) per
    ``candidates_for`` miss — so a hydrated candidate is bit-identical
    to a scanned one by construction, not by parallel maintenance.

    ``effective`` is the (possibly RPC-pruned) fingerprint; when
    pruning removed the offending symbol itself, the unpruned
    fingerprint is used for this candidate (the fault demonstrably
    involved the pruned RPC).
    """
    if symbol not in effective.symbols:
        effective = fingerprint
    longest = effective.truncate_at(symbol) if truncate else effective
    if relaxed:
        required_symbols = longest.state_change_symbols
    else:
        # Strict ablation: every symbol (reads included) is a
        # required literal.
        required_symbols = longest.symbols
    if truncate:
        cut_lengths = _cut_lengths(longest, symbol, all_symbols=not relaxed)
    else:
        cut_lengths = [len(required_symbols)]
    return _Candidate(
        original=fingerprint,
        sc_symbols=required_symbols,
        cut_lengths=cut_lengths,
        full_symbols=longest.symbols,
        pure_read=not required_symbols,
    )


def _cut_lengths(fingerprint: Fingerprint, symbol: str,
                 all_symbols: bool = False) -> List[int]:
    """Required-symbol prefix lengths at each occurrence of
    ``symbol`` (state-change prefix by default; every symbol in the
    strict ablation)."""
    cuts: List[int] = []
    count = 0
    for sym, is_sc in zip(fingerprint.symbols, fingerprint.state_change_mask):
        if all_symbols or is_sc:
            count += 1
        if sym == symbol:
            if not cuts or cuts[-1] != count:
                cuts.append(count)
    cuts = [c for c in cuts if c > 0]
    if not cuts:
        total = (len(fingerprint.symbols) if all_symbols
                 else len(fingerprint.state_change_symbols))
        cuts = [total]
    return cuts[-_MAX_TRUNCATIONS:]


@dataclass
class DetectionResult:
    """Outcome of operation detection for one fault."""

    fault: WireEvent
    matched: List[Fingerprint]
    candidates: int              # ops containing the offending API
    theta: float
    beta_used: int               # final context-buffer radius (messages)
    iterations: int
    window_span: Tuple[float, float]  # time range of the context buffer
    matched_events: List[WireEvent] = field(default_factory=list)
    coverages: Dict[str, float] = field(default_factory=dict)

    @property
    def operations(self) -> List[str]:
        """Names of the matched operations."""
        return [fp.operation for fp in self.matched]

    @property
    def narrowed_to_one(self) -> bool:
        """True when exactly one operation matched."""
        return len(self.matched) == 1


class OperationDetector:
    """Algorithm 2 over a fingerprint library."""

    def __init__(
        self,
        library: FingerprintLibrary,
        symbols: SymbolTable,
        catalog: ApiCatalog,
        config: Optional[GretelConfig] = None,
        *,
        compiled_index: Optional["CompiledIndex"] = None,
    ):
        self.library = library
        self.symbols = symbols
        self.catalog = catalog
        self.config = config or GretelConfig()
        self._rest_only_cache: Dict[str, Fingerprint] = {}
        self._candidate_cache: Dict[Tuple[str, bool], List[_Candidate]] = {}
        self._fragment_cache: Dict[str, str] = {}
        if compiled_index is not None and not compiled_index.serves(
            self.config
        ):
            # Serving preparations compiled for other selection flags
            # would change diagnoses, not just speed.
            raise ValueError(
                f"compiled index serves selection flags "
                f"{compiled_index.flags}, not this config's"
            )
        #: Compiled selection index (``docs/indexing.md``); ``None``
        #: means "compile lazily on first selection".  An injected
        #: artifact is used as-is (the ``verify_selection``
        #: negative-oracle tests rely on that).
        self._compiled = compiled_index
        #: Selection counters, surfaced through ``PipelineStats``:
        #: postings entries examined and candidates hydrated from the
        #: compiled index (the reference full scan hydrates none).
        self.postings_scanned = 0
        self.candidates_indexed = 0
        #: Incremental scoring engine (``docs/matching.md``); its
        #: counters accumulate across every detection this detector
        #: runs and surface through ``PipelineStats``.
        self.matching = MatchingEngine()
        self.detections = 0

    @property
    def matching_stats(self):
        """Counters of the incremental engine (all sessions so far)."""
        return self.matching.stats

    # -- state lifecycle (see repro.core.state) -------------------------

    STATE_FMT = "operation-detector/v1"

    def snapshot_state(self) -> Dict[str, Any]:
        """Versioned, JSON-serializable rendering of the detector.

        The prepared-candidate caches themselves are derived purely
        from the library and config, so only their *keys* travel: the
        restore path re-prepares each selection, then overwrites the
        counters with the serialized values — otherwise the first
        post-restore detection would re-scan postings the original run
        had already paid for, and ``postings_scanned`` would diverge
        from the uninterrupted run.
        """
        return {
            "fmt": self.STATE_FMT,
            "selections": [
                [api_key, truncate]
                for api_key, truncate in sorted(self._candidate_cache)
            ],
            "detections": self.detections,
            "postings_scanned": self.postings_scanned,
            "candidates_indexed": self.candidates_indexed,
            "matching": self.matching.stats.to_dict(),
        }

    def restore_state(self, state: Mapping[str, Any]) -> None:
        """Rehydrate a fresh detector over the same library/config."""
        require_state(state, self.STATE_FMT)
        self._candidate_cache.clear()
        self._rest_only_cache.clear()
        self._fragment_cache.clear()
        for api_key, truncate in state["selections"]:
            self.candidates_for(api_key, truncate=truncate)
        self.detections = state["detections"]
        self.postings_scanned = state["postings_scanned"]
        self.candidates_indexed = state["candidates_indexed"]
        self.matching.stats = MatchingStats.from_dict(state["matching"])

    # -- candidate preparation ------------------------------------------------

    def _effective(self, fingerprint: Fingerprint) -> Fingerprint:
        """Apply RPC pruning when configured."""
        if not self.config.prune_rpcs:
            return fingerprint
        cached = self._rest_only_cache.get(fingerprint.operation)
        if cached is None:
            cached = fingerprint.rest_only(self.symbols)
            self._rest_only_cache[fingerprint.operation] = cached
        return cached

    def _index(self) -> "CompiledIndex":
        """The compiled selection index, compiling lazily on first use.

        The compile is memoized per ``(library, version, flags)`` in
        ``repro.analysis.compile``, so the shards of one analyzer — or
        any number of detectors over one library — share a single
        compilation.
        """
        if self._compiled is None:
            from repro.analysis.compile import compiled_index_for

            self._compiled = compiled_index_for(
                self.library, self.symbols, self.catalog, self.config,
            )
        return self._compiled

    def candidates_for(self, api_key: str, *,
                       truncate: bool = True) -> List["_Candidate"]:
        """Possible offending operations with truncation cut points.

        Candidates are ordered by operation name (the
        :meth:`FingerprintLibrary.ops_containing` contract) and
        memoized per ``(api_key, truncate)``.
        """
        cache_key = (api_key, truncate)
        cached = self._candidate_cache.get(cache_key)
        if cached is None:
            cached = self._prepare_candidates(
                self.symbols.symbol(api_key), truncate
            )
            self._candidate_cache[cache_key] = cached
        return cached

    def _prepare_candidates(self, symbol: str,
                            truncate: bool) -> List["_Candidate"]:
        """Postings lookup + prepared-candidate hydration.

        The hydrated list itself is memoized on the *artifact*
        (:meth:`CompiledIndex.hydrated`): every detector served from
        one index — e.g. all shards of a sharded analyzer — shares the
        same read-only candidate objects, so hydration is paid once
        per ``(symbol, truncation)`` per artifact, not per detector.
        ``repro.oracle`` overrides this hook with the reference full
        scan; ``verify_selection`` holds the two identical.
        """
        use_truncated = truncate and self.config.truncate_fingerprints
        prepared = self._index().hydrated(
            symbol, use_truncated, self.library
        )
        self.postings_scanned += len(prepared)
        self.candidates_indexed += len(prepared)
        return prepared

    # -- buffer encoding ----------------------------------------------------------

    def _fragment(self, event: WireEvent) -> str:
        """Symbol fragment for one event; ``""`` excludes it from
        matching (noise always; RPCs under pruning).

        The symbol lookup and kind check are folded into a per-API
        cache, the same trick :func:`batch_encoder` plays for the
        sharded path — steady state is one dict hit per event.
        """
        if event.noise:
            return ""
        fragment = self._fragment_cache.get(event.api_key)
        if fragment is None:
            symbol = self.symbols.symbol(event.api_key)
            fragment = (
                "" if (self.config.prune_rpcs
                       and event.kind is ApiKind.RPC)
                else symbol
            )
            self._fragment_cache[event.api_key] = fragment
        return fragment

    def _session_fragments(self, snapshot: Snapshot,
                           correlation_id: str) -> Sequence[str]:
        """Per-event fragments for one incremental scoring session.

        Reuses the snapshot's pre-encoded fragments when present;
        correlation filtering blanks the fragments of events outside
        the offending request, which keeps positions aligned with
        ``snapshot.events`` while matching what per-event encoding
        would keep.
        """
        encoded: Sequence[str]
        if snapshot.encoded is not None:
            encoded = snapshot.encoded
        else:
            fragment = self._fragment
            encoded = [fragment(event) for event in snapshot.events]
        if correlation_id:
            encoded = [
                piece if piece and event.request_id == correlation_id
                else ""
                for piece, event in zip(encoded, snapshot.events)
            ]
        return encoded

    # -- scoring --------------------------------------------------------------------

    def _scorer(self, snapshot: Snapshot, candidates: List[_Candidate],
                correlation_id: str) -> ScoreFn:
        """The per-snapshot scorer Algorithm 2's loop calls per window.

        An incremental :class:`~repro.core.matching.MatchSession`
        (``docs/matching.md``): per-candidate bit-rows stay alive
        across β growth, so each iteration costs O(δ) instead of
        O(β).  ``repro.oracle`` overrides this hook with the
        from-scratch reference scorer; ``verify_detection`` holds the
        two bit-identical.
        """
        return self.matching.session(
            self._session_fragments(snapshot, correlation_id),
            candidates,
            threshold=self.config.match_coverage,
            strict=not self.config.relaxed_match,
        ).score

    def _rank(self, candidates: List[_Candidate],
              scores: Dict[int, Tuple[int, float]]) -> List[int]:
        """Keep candidates whose corroborated length is near the best.

        State-change evidence outranks read-only evidence: pure-read
        candidates are considered only when no state-change candidate
        survived the gate.
        """
        if not scores:
            return []
        sc_indexes = [i for i in scores if not candidates[i].pure_read]
        pool = sc_indexes or list(scores)
        best_length = max(scores[i][0] for i in pool)
        floor = best_length - self.config.length_tolerance
        return sorted(i for i in pool if scores[i][0] >= floor)

    # -- Algorithm 2 ---------------------------------------------------------------

    def detect(self, snapshot: Snapshot, *,
               performance_fault: bool = False) -> DetectionResult:
        """Run operation detection on one frozen snapshot."""
        self.detections += 1
        fault = snapshot.fault
        config = self.config
        candidates = self.candidates_for(
            fault.api_key, truncate=not performance_fault
        )
        total = max(len(self.library), 2)

        if not candidates:
            return DetectionResult(
                fault=fault, matched=[], candidates=0,
                theta=theta(total, 0), beta_used=0, iterations=0,
                window_span=(fault.ts_request, fault.ts_response),
            )

        correlation_id = (
            snapshot.fault.request_id if config.use_correlation_ids else ""
        )
        run_scores = self._scorer(snapshot, candidates, correlation_id)

        alpha = max(len(snapshot.events), 2)
        if not config.adaptive_context or performance_fault:
            # Performance faults use the entire context buffer (§5.3.1).
            return self._finish(
                snapshot, candidates, total,
                scores=run_scores(0, len(snapshot.events)),
                beta=len(snapshot.events), iterations=1,
                events=snapshot.events,
            )

        beta = max(1, config.context_buffer_start(alpha) // 2)  # radius/side
        delta = config.context_buffer_step(alpha)
        best_scores: Optional[Dict[int, Tuple[int, float]]] = None
        best_key: Tuple[int, int] = (-1, 0)
        best_beta = beta
        iterations = 0
        stalled = 0
        finalized: Dict[int, Tuple[int, float]] = {}
        while True:
            iterations += 1
            lo, hi = snapshot.bounds(beta)
            scores = run_scores(lo, hi, finalized)
            ranked = self._rank(candidates, scores)
            if ranked:
                length = max(scores[i][0] for i in ranked)
                key = (length, -len(ranked))
                if key > best_key:
                    best_key, best_scores, best_beta = key, scores, beta
                    stalled = 0
                else:
                    # Growth stopped sharpening the match (θ no longer
                    # improving / starting to drop): stop soon (§5.3.1).
                    stalled += 1
                    if stalled >= config.stop_patience:
                        break
            if snapshot.covers_all(beta):
                break
            beta += delta

        final_beta = best_beta if best_scores is not None else beta
        return self._finish(
            snapshot, candidates, total,
            scores=best_scores or {}, beta=final_beta, iterations=iterations,
            events=snapshot.window(final_beta),
        )

    def _finish(self, snapshot: Snapshot, candidates: List[_Candidate],
                total: int, *, scores: Dict[int, Tuple[int, float]], beta: int,
                iterations: int, events: Sequence[WireEvent]) -> DetectionResult:
        ranked = self._rank(candidates, scores)
        matched = [candidates[i].original for i in ranked]
        coverages = {
            candidates[i].original.operation: scores[i][1] for i in ranked
        }
        span = (
            (events[0].ts_request, events[-1].ts_response)
            if events else (snapshot.fault.ts_request, snapshot.fault.ts_response)
        )
        return DetectionResult(
            fault=snapshot.fault,
            matched=matched,
            candidates=len(candidates),
            theta=theta(total, len(matched)),
            beta_used=beta,
            iterations=iterations,
            window_span=span,
            matched_events=self._events_of(matched, events),
            coverages=coverages,
        )

    def _events_of(self, matched: List[Fingerprint],
                   events: Sequence[WireEvent]) -> List[WireEvent]:
        """The snapshot events whose symbols belong to matched ops."""
        if not matched:
            return []
        wanted = set()
        for fingerprint in matched:
            wanted.update(fingerprint.symbols)
        result = []
        for event in events:
            if event.noise:
                continue
            if self.symbols.symbol(event.api_key) in wanted:
                result.append(event)
        return result
