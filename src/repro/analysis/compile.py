"""Fingerprint-library compiler: the static half of candidate selection.

``repro lint``'s passes (PR 1) *diagnose* the fingerprint library;
this module *compiles* it.  :func:`compile_library` statically
analyzes a :class:`~repro.core.fingerprint.FingerprintLibrary` and
emits a versioned :class:`CompiledIndex` artifact that the online
detector serves candidate selection from:

* **Inverted postings** — state-change/read symbol → the operations
  containing it, sorted by operation name (the pinned
  ``ops_containing`` order), so ``GET_POSSIBLE_OFFENDING_OPERATIONS``
  is a dictionary lookup instead of a per-detection preparation scan;
* **Prepared candidates** — for every ``(symbol, operation)`` posting,
  the RPC-pruned, truncated, cut-pointed scoring preparation that
  :meth:`OperationDetector.candidates_for` would otherwise derive at
  detection time, deduplicated into a prep pool (workload-template
  instances share fingerprint shapes, so the pool is far smaller than
  the posting count);
* **Discriminability facts** — per fingerprint: its *anchor symbols*
  (the symbols with the shortest postings lists — the faults for which
  this operation is cheap to select), postings-length extremes, and
  the minimum ``upper_bound``-feasible buffer composition per
  truncation cut (the smallest symbol-multiplicity overlap a context
  buffer must supply before the gate can pass).

Preparation goes through the *same*
:func:`repro.core.detector.prepare_candidate` the reference full scan
uses, so a hydrated candidate equals a scanned one by construction;
:func:`repro.oracle.verify_selection` is the differential oracle that
proves it on live inputs and end-to-end detections.

Staleness story: the artifact records SHA-256 hashes of the library
contents and the symbol table (:func:`library_hash`,
:func:`symbol_table_hash`) plus the selection-relevant config flags.
The ``index-drift`` lint pass re-derives both hashes from the live
system and fails CI when they disagree; a detector refuses, at
construction, an index whose flags do not match its config (a stale
index must never change a diagnosis).

Serialization is canonical: symbols are stored as zero-padded
uppercase hex code points, every mapping is emitted with sorted keys,
and :meth:`CompiledIndex.to_json` is byte-identical across runs and
``PYTHONHASHSEED`` values (build-twice byte equality is tested and
gated in CI).
"""

from __future__ import annotations

import hashlib
import json
import weakref
from collections import Counter
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    FrozenSet,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)
from weakref import WeakKeyDictionary

from repro.core.config import GretelConfig
from repro.core.fingerprint import Fingerprint, FingerprintLibrary
from repro.core.symbols import SymbolTable
from repro.openstack.catalog import ApiCatalog

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.detector import _Candidate

#: Artifact format version; bumped on any serialization change.
FORMAT_VERSION = 1

#: The config fields that change what a prepared candidate *is*.
SelectionFlags = Tuple[bool, bool, bool]

#: Fingerprint *shape*: the symbol sequence plus its state-change
#: mask — everything candidate preparation depends on.  Workload
#: templates stamp out many operations sharing one shape, so shape is
#: the dedup key for compile-time preparation work.
_ShapeKey = Tuple[str, Tuple[bool, ...]]


def selection_flags(config: GretelConfig) -> SelectionFlags:
    """(prune_rpcs, relaxed_match, truncate_fingerprints) — the config
    surface candidate preparation depends on.  ``match_coverage`` only
    parameterizes the discriminability facts, not the preparations, so
    it is recorded in the artifact but not part of the compatibility
    key."""
    return (
        config.prune_rpcs,
        config.relaxed_match,
        config.truncate_fingerprints,
    )


def _hex(symbol: str) -> str:
    """Canonical serialized form of one symbol (zero-padded hex)."""
    return f"{ord(symbol):04X}"


def _codepoints(symbols: str) -> List[int]:
    return [ord(s) for s in symbols]


def _from_codepoints(codepoints: Sequence[int]) -> str:
    return "".join(chr(int(c)) for c in codepoints)


def library_hash(library: FingerprintLibrary) -> str:
    """SHA-256 over the canonical serialization of every fingerprint,
    sorted by operation name — the identity the drift pass compares."""
    digest = hashlib.sha256()
    for name in library.operations():
        payload = json.dumps(
            library.get(name).to_dict(), sort_keys=True,
            separators=(",", ":"),
        )
        digest.update(payload.encode("utf-8"))
        digest.update(b"\x00")
    return digest.hexdigest()


def symbol_table_hash(symbols: SymbolTable) -> str:
    """SHA-256 over the (api_key, code point) assignment, in catalog
    order.  A re-ordered catalog re-assigns symbols, which silently
    re-labels every fingerprint — exactly the drift this detects."""
    digest = hashlib.sha256()
    for api_key, symbol in symbols.items():
        digest.update(f"{api_key}={ord(symbol):04X}\n".encode("utf-8"))
    return digest.hexdigest()


@dataclass
class CandidatePrep:
    """One deduplicated scoring preparation from the prep pool.

    Field-for-field the static part of
    ``repro.core.detector._Candidate`` (everything except the library
    fingerprint it hydrates against); ``alphabet`` and
    ``needle_counts`` are derived once here and shared read-only by
    every hydration.
    """

    sc_symbols: str
    cut_lengths: Tuple[int, ...]
    full_symbols: str
    pure_read: bool
    alphabet: FrozenSet[str] = field(init=False, repr=False)
    needle_counts: Dict[str, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        source = self.needle
        self.alphabet = frozenset(source)
        self.needle_counts = dict(Counter(source))

    @property
    def needle(self) -> str:
        """The symbol string candidates built from this prep score on."""
        return self.full_symbols if self.pure_read else self.sc_symbols

    def key(self) -> Tuple[str, Tuple[int, ...], str, bool]:
        """Pool-dedup identity."""
        return (
            self.sc_symbols, self.cut_lengths, self.full_symbols,
            self.pure_read,
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "sc": _codepoints(self.sc_symbols),
            "cuts": list(self.cut_lengths),
            "full": _codepoints(self.full_symbols),
            "pure_read": self.pure_read,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CandidatePrep":
        return cls(
            sc_symbols=_from_codepoints(data["sc"]),
            cut_lengths=tuple(int(c) for c in data["cuts"]),
            full_symbols=_from_codepoints(data["full"]),
            pure_read=bool(data["pure_read"]),
        )


@dataclass(frozen=True)
class SymbolEntry:
    """Postings for one symbol: operations (sorted by name) plus the
    prep-pool index of each operation's truncated and untruncated
    preparation."""

    operations: Tuple[str, ...]
    truncated: Tuple[int, ...]
    untruncated: Tuple[int, ...]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "ops": list(self.operations),
            "truncated": list(self.truncated),
            "untruncated": list(self.untruncated),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SymbolEntry":
        return cls(
            operations=tuple(str(op) for op in data["ops"]),
            truncated=tuple(int(i) for i in data["truncated"]),
            untruncated=tuple(int(i) for i in data["untruncated"]),
        )


@dataclass(frozen=True)
class FingerprintFacts:
    """Static discriminability facts for one fingerprint.

    ``anchor_symbols`` are the fingerprint's rarest symbols — those
    whose postings lists are shortest (length ``min_postings``).  A
    fault on an anchor selects few candidates; a fingerprint whose
    *best* anchor is still contained in most of the library is a
    candidate for nearly every fault (the ``discriminability`` lint
    pass's DSC001).  ``min_feasible`` maps each truncation cut length
    to the smallest symbol-multiplicity overlap
    (``Σ min(needle count, buffer count)``) a context buffer must
    supply before the ``upper_bound`` gate can pass for that cut.
    """

    operation: str
    anchor_symbols: str
    min_postings: int
    max_postings: int
    distinct_symbols: int
    min_feasible: Tuple[Tuple[int, int], ...]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "anchors": _codepoints(self.anchor_symbols),
            "min_postings": self.min_postings,
            "max_postings": self.max_postings,
            "distinct_symbols": self.distinct_symbols,
            "min_feasible": {
                str(cut): needed for cut, needed in self.min_feasible
            },
        }

    @classmethod
    def from_dict(
        cls, operation: str, data: Mapping[str, Any]
    ) -> "FingerprintFacts":
        feasible = tuple(sorted(
            (int(cut), int(needed))
            for cut, needed in data["min_feasible"].items()
        ))
        return cls(
            operation=operation,
            anchor_symbols=_from_codepoints(data["anchors"]),
            min_postings=int(data["min_postings"]),
            max_postings=int(data["max_postings"]),
            distinct_symbols=int(data["distinct_symbols"]),
            min_feasible=feasible,
        )


class CompiledIndex:
    """The compiled selection artifact (see module docstring).

    Immutable once built; hydration state (the shared
    ``CandidatePrep`` alphabets/counts) is read-only, so one index can
    serve any number of detectors — including every shard of a
    :class:`~repro.core.parallel.ShardedAnalyzer` — concurrently.
    """

    def __init__(
        self,
        *,
        library_hash: str,
        symbols_hash: str,
        flags: SelectionFlags,
        match_coverage: float,
        operations: Tuple[str, ...],
        preps: Tuple[CandidatePrep, ...],
        entries: Dict[str, SymbolEntry],
        facts: Dict[str, FingerprintFacts],
        format_version: int = FORMAT_VERSION,
    ) -> None:
        self.format_version = format_version
        self.library_hash = library_hash
        self.symbols_hash = symbols_hash
        self.flags = flags
        self.match_coverage = match_coverage
        self.operations = operations
        self.preps = preps
        self._entries = entries
        self.facts = facts
        # Hydration memo: one shared candidate list per (symbol,
        # truncation mode), built on first use against the bound
        # library.  Production runs any number of detectors — every
        # shard of a sharded analyzer — over one artifact, so
        # hydration is a per-artifact cost, not a per-detector one.
        # The bound library is held weakly: the module-level compile
        # memo keys on the library, and a strong value→key reference
        # inside a WeakKeyDictionary would leak both.
        self._hydrated: Dict[Tuple[str, bool], List["_Candidate"]] = {}
        self._bound: Optional[
            "weakref.ref[FingerprintLibrary]"
        ] = None

    # -- hot-path surface -------------------------------------------------

    def serves(self, config: GretelConfig) -> bool:
        """Whether this index was compiled for ``config``'s selection
        flags (a detector refuses a mismatched one)."""
        return selection_flags(config) == self.flags

    def entry_for(self, symbol: str) -> Optional[SymbolEntry]:
        """Postings entry for one symbol (``None``: no operation
        contains it)."""
        return self._entries.get(symbol)

    def hydrated(
        self,
        symbol: str,
        truncated: bool,
        library: FingerprintLibrary,
    ) -> List["_Candidate"]:
        """The prepared candidate list for one ``(symbol, truncation)``
        lookup, bound to ``library``'s live fingerprint objects.

        Built once and shared by every detector served from this
        artifact; candidates are read-only at detection time (the one
        lazily-assigned field, the foreign-symbol strip pattern, is
        idempotent), so sharing is safe.  Binding a *different* library
        object resets the memo.
        """
        bound = self._bound() if self._bound is not None else None
        if bound is not library:
            self._bound = weakref.ref(library)
            self._hydrated.clear()
        key = (symbol, truncated)
        candidates = self._hydrated.get(key)
        if candidates is None:
            candidates = self._hydrate(symbol, truncated, library)
            self._hydrated[key] = candidates
        return candidates

    def _hydrate(
        self,
        symbol: str,
        truncated: bool,
        library: FingerprintLibrary,
    ) -> List["_Candidate"]:
        from repro.core.detector import _Candidate

        entry = self._entries.get(symbol)
        if entry is None:
            return []
        prep_ids = entry.truncated if truncated else entry.untruncated
        preps = self.preps
        get = library.get
        candidates: List["_Candidate"] = []
        for operation, prep_id in zip(entry.operations, prep_ids):
            prep = preps[prep_id]
            candidates.append(_Candidate(
                original=get(operation),
                sc_symbols=prep.sc_symbols,
                cut_lengths=list(prep.cut_lengths),
                full_symbols=prep.full_symbols,
                pure_read=prep.pure_read,
                alphabet=prep.alphabet,
                needle_counts=prep.needle_counts,
            ))
        return candidates

    # -- introspection ----------------------------------------------------

    @property
    def symbols(self) -> Tuple[str, ...]:
        """Indexed symbols, sorted by code point."""
        return tuple(sorted(self._entries))

    @property
    def postings_total(self) -> int:
        """Total posting entries across all symbols."""
        return sum(
            len(entry.operations) for entry in self._entries.values()
        )

    def postings(self) -> Dict[str, Tuple[str, ...]]:
        """symbol → operations, in the same canonical shape as
        :meth:`FingerprintLibrary.postings` (for drift comparison)."""
        return {
            symbol: self._entries[symbol].operations
            for symbol in sorted(self._entries)
        }

    def verify_against(
        self, library: FingerprintLibrary, symbols: SymbolTable
    ) -> List[str]:
        """Drift check: artifact identity vs the live system.

        Returns human-readable problem descriptions (empty = fresh).
        The ``index-drift`` lint pass turns these into IDX findings.
        """
        problems: List[str] = []
        live_library = library_hash(library)
        if self.library_hash != live_library:
            problems.append(
                "library hash mismatch: artifact was compiled from "
                f"{self.library_hash[:12]}…, live library is "
                f"{live_library[:12]}… — rebuild with `repro index build`"
            )
        live_symbols = symbol_table_hash(symbols)
        if self.symbols_hash != live_symbols:
            problems.append(
                "symbol-table hash mismatch: artifact assumes "
                f"{self.symbols_hash[:12]}…, live table is "
                f"{live_symbols[:12]}… — symbols were re-assigned; "
                "rebuild with `repro index build`"
            )
        return problems

    def check_postings(self, library: FingerprintLibrary) -> List[str]:
        """Structural check: postings vs the live inverted index.

        Catches corruption the hashes cannot localize — a missing or
        extra symbol, a posting for an unknown operation, or postings
        out of the pinned operation-name order.
        """
        problems: List[str] = []
        live = library.postings()
        for symbol in sorted(set(live) - set(self._entries)):
            problems.append(
                f"symbol U+{_hex(symbol)} is in the library but has no "
                "postings entry"
            )
        for symbol in sorted(set(self._entries) - set(live)):
            problems.append(
                f"postings entry U+{_hex(symbol)} indexes a symbol no "
                "fingerprint contains"
            )
        pool_size = len(self.preps)
        for symbol in sorted(set(self._entries) & set(live)):
            entry = self._entries[symbol]
            if entry.operations != live[symbol]:
                problems.append(
                    f"postings for U+{_hex(symbol)} disagree with the "
                    f"library: artifact has {len(entry.operations)} "
                    f"operation(s), library derives "
                    f"{len(live[symbol])} (order is part of the "
                    "contract)"
                )
            for ids in (entry.truncated, entry.untruncated):
                if len(ids) != len(entry.operations) or any(
                    not 0 <= i < pool_size for i in ids
                ):
                    problems.append(
                        f"postings for U+{_hex(symbol)} reference "
                        "prep-pool entries that do not exist"
                    )
                    break
        return problems

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable form (round-trips via :meth:`from_dict`)."""
        return {
            "format_version": self.format_version,
            "library_hash": self.library_hash,
            "symbols_hash": self.symbols_hash,
            "selection": {
                "prune_rpcs": self.flags[0],
                "relaxed_match": self.flags[1],
                "truncate_fingerprints": self.flags[2],
                "match_coverage": self.match_coverage,
            },
            "operations": list(self.operations),
            "preps": [prep.to_dict() for prep in self.preps],
            "postings": {
                _hex(symbol): self._entries[symbol].to_dict()
                for symbol in sorted(self._entries)
            },
            "facts": {
                operation: self.facts[operation].to_dict()
                for operation in sorted(self.facts)
            },
        }

    def to_json(self) -> str:
        """Canonical text form: sorted keys, fixed indentation — the
        byte-deterministic artifact (`repro index build`) and the input
        to :meth:`artifact_hash`."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def artifact_hash(self) -> str:
        """SHA-256 of the canonical text form."""
        return hashlib.sha256(self.to_json().encode("utf-8")).hexdigest()

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CompiledIndex":
        """Inverse of :meth:`to_dict`.

        Raises ``ValueError`` on an unknown format version — an
        artifact from a future compiler must not be half-read.
        """
        version = int(data.get("format_version", -1))
        if version != FORMAT_VERSION:
            raise ValueError(
                f"unsupported index format version {version} "
                f"(this build reads version {FORMAT_VERSION})"
            )
        selection = data["selection"]
        entries = {
            chr(int(key, 16)): SymbolEntry.from_dict(value)
            for key, value in data["postings"].items()
        }
        facts = {
            str(operation): FingerprintFacts.from_dict(
                str(operation), value
            )
            for operation, value in data["facts"].items()
        }
        return cls(
            format_version=version,
            library_hash=str(data["library_hash"]),
            symbols_hash=str(data["symbols_hash"]),
            flags=(
                bool(selection["prune_rpcs"]),
                bool(selection["relaxed_match"]),
                bool(selection["truncate_fingerprints"]),
            ),
            match_coverage=float(selection["match_coverage"]),
            operations=tuple(str(op) for op in data["operations"]),
            preps=tuple(
                CandidatePrep.from_dict(p) for p in data["preps"]
            ),
            entries=entries,
            facts=facts,
        )


# ---------------------------------------------------------------------------
# Compilation
# ---------------------------------------------------------------------------

def _min_feasible_overlap(cut: int, threshold: float) -> int:
    """Smallest integer overlap ``m`` with ``m / cut >= threshold``,
    under the same float division the runtime gate uses."""
    if cut <= 0:
        return 0
    for matched in range(cut + 1):
        if matched / cut >= threshold:
            return matched
    return cut


def compile_library(
    library: FingerprintLibrary,
    symbols: Optional[SymbolTable] = None,
    config: Optional[GretelConfig] = None,
) -> CompiledIndex:
    """Statically analyze ``library`` and emit a :class:`CompiledIndex`.

    Preparation work is deduplicated by fingerprint *shape*: workload
    templates stamp out many operations with identical symbol
    sequences, so the ``(shape, symbol, truncation)`` preparation is
    computed once and shared — the seed library's ~1200 fingerprints
    collapse to ~100 shapes.
    """
    from repro.core.detector import prepare_candidate

    symbols = symbols or library.symbols
    config = config or GretelConfig()
    flags = selection_flags(config)
    prune_rpcs, relaxed, truncate_flag = flags

    postings = library.postings()

    pool: List[CandidatePrep] = []
    pool_ids: Dict[Tuple[str, Tuple[int, ...], str, bool], int] = {}

    def intern(candidate: "_Candidate") -> int:
        prep = CandidatePrep(
            sc_symbols=candidate.sc_symbols,
            cut_lengths=tuple(candidate.cut_lengths),
            full_symbols=candidate.full_symbols,
            pure_read=candidate.pure_read,
        )
        key = prep.key()
        found = pool_ids.get(key)
        if found is None:
            found = len(pool)
            pool_ids[key] = found
            pool.append(prep)
        return found

    # Shape-level caches: effective (RPC-pruned) fingerprints and
    # finished preparations.
    effective_cache: Dict[_ShapeKey, Fingerprint] = {}
    prep_cache: Dict[Tuple[_ShapeKey, str, bool], int] = {}

    def effective_of(fingerprint: Fingerprint) -> Fingerprint:
        if not prune_rpcs:
            return fingerprint
        shape: _ShapeKey = (
            fingerprint.symbols, fingerprint.state_change_mask,
        )
        cached = effective_cache.get(shape)
        if cached is None:
            cached = fingerprint.rest_only(symbols)
            effective_cache[shape] = cached
        return cached

    def prep_id(
        fingerprint: Fingerprint, symbol: str, truncate: bool
    ) -> int:
        shape: _ShapeKey = (
            fingerprint.symbols, fingerprint.state_change_mask,
        )
        key = (shape, symbol, truncate)
        cached = prep_cache.get(key)
        if cached is None:
            candidate = prepare_candidate(
                fingerprint, effective_of(fingerprint), symbol,
                truncate=truncate, relaxed=relaxed,
            )
            cached = intern(candidate)
            prep_cache[key] = cached
        return cached

    entries: Dict[str, SymbolEntry] = {}
    for symbol, operations in postings.items():
        truncated: List[int] = []
        untruncated: List[int] = []
        for operation in operations:
            fingerprint = library.get(operation)
            truncated.append(
                prep_id(fingerprint, symbol, truncate_flag)
            )
            untruncated.append(prep_id(fingerprint, symbol, False))
        entries[symbol] = SymbolEntry(
            operations=operations,
            truncated=tuple(truncated),
            untruncated=tuple(untruncated),
        )

    # Discriminability facts.
    posting_len = {
        symbol: len(operations)
        for symbol, operations in postings.items()
    }
    facts: Dict[str, FingerprintFacts] = {}
    for operation in library.operations():
        fingerprint = library.get(operation)
        distinct = sorted(set(fingerprint.symbols))
        lengths = [posting_len[s] for s in distinct]
        low, high = (min(lengths), max(lengths)) if lengths else (0, 0)
        anchors = "".join(s for s in distinct if posting_len[s] == low)
        feasible: Dict[int, int] = {}
        for symbol in distinct:
            prep = pool[prep_cache[(
                (fingerprint.symbols, fingerprint.state_change_mask),
                symbol, truncate_flag,
            )]]
            threshold = (
                0.999 if (prep.pure_read or not relaxed)
                else config.match_coverage
            )
            for cut in prep.cut_lengths:
                needed = _min_feasible_overlap(cut, threshold)
                if cut not in feasible or needed < feasible[cut]:
                    feasible[cut] = needed
        facts[operation] = FingerprintFacts(
            operation=operation,
            anchor_symbols=anchors,
            min_postings=low,
            max_postings=high,
            distinct_symbols=len(distinct),
            min_feasible=tuple(sorted(feasible.items())),
        )

    return CompiledIndex(
        library_hash=library_hash(library),
        symbols_hash=symbol_table_hash(symbols),
        flags=flags,
        match_coverage=config.match_coverage,
        operations=tuple(library.operations()),
        preps=tuple(pool),
        entries=entries,
        facts=facts,
    )


#: One library's compilations, keyed by (selection flags, version).
_LibraryIndexes = Dict[Tuple[SelectionFlags, int], CompiledIndex]

#: Per-library compile memo.  Keyed weakly so a dropped library
#: releases its compilation; stale versions are evicted on the next
#: compile.
_INDEX_CACHE: (
    "WeakKeyDictionary[FingerprintLibrary, _LibraryIndexes]"
) = WeakKeyDictionary()


def compiled_index_for(
    library: FingerprintLibrary,
    symbols: Optional[SymbolTable] = None,
    catalog: Optional[ApiCatalog] = None,
    config: Optional[GretelConfig] = None,
) -> CompiledIndex:
    """Memoized :func:`compile_library`.

    All detectors over one ``(library, version, flags)`` share a single
    compilation — notably every shard of a sharded analyzer.
    ``catalog`` is accepted for signature symmetry with the detector's
    collaborators; preparation only consults the symbol table.
    """
    del catalog  # preparation derives everything via the symbol table
    config = config or GretelConfig()
    key = (selection_flags(config), library.version)
    per_library = _INDEX_CACHE.get(library)
    if per_library is None:
        per_library = {}
        _INDEX_CACHE[library] = per_library
    index = per_library.get(key)
    if index is None:
        for stale in [k for k in per_library if k[1] != library.version]:
            del per_library[stale]
        index = compile_library(library, symbols=symbols, config=config)
        per_library[key] = index
    return index
