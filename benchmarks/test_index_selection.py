"""Candidate-selection micro-benchmark: full scan vs compiled index.

Algorithm 2's first step (``GET_POSSIBLE_OFFENDING_OPERATIONS``) was
the last per-detection linear scan without a compiled fast path: the
reference prepares every fingerprint containing the offending symbol
— RPC pruning, truncation cut points, multiplicity counts — on every
cold ``candidates_for``.  The library compiler
(``repro.analysis.compile``) moves all of that to build time; at
detection time the indexed path is a postings lookup plus hydration
of shared prepared candidates.

This benchmark measures exactly that step at scale: a synthetic
5000-fingerprint library (1000 at small scale; ``synthlib`` generator,
seeded), a seeded sample of offending APIs, and a fresh detector per
repeat.  Hydrated candidate lists are memoized on the *artifact*
(every detector served from one index shares them), so the first
indexed sweep pays hydration once and is reported separately as the
cold cost; the best-of-N figure is the steady-state per-detection
cost the speedup claim is about.  Two oracles guard it:

* ``verify_selection`` proves indexed candidate lists equal to the
  full-scan reference on a sample of offending APIs (both truncation
  modes, preparation content included);
* a drift gate holds the achieved speedup to ≥ 90% of the committed
  full-scale baseline's.

Artifacts: ``results/BENCH_index.json`` (committed copy is a
full-scale run) and ``results/index_selection.txt``.
"""

import time

from conftest import (
    assert_no_drift,
    full_scale,
    load_committed,
    save_committed,
)
from synthlib import sample_api_keys, synthetic_library

from repro.analysis.compile import compile_library
from repro.core.config import GretelConfig
from repro.core.detector import OperationDetector
from repro.openstack.catalog import default_catalog
from repro.oracle import ReferenceDetector, verify_selection

SEED = 11           # library + API-sample seed
ALPHABET = 160
OVERLAP = 0.3
SAMPLE_KEYS = 200   # offending APIs timed per run
ORACLE_KEYS = 40    # offending APIs replayed through verify_selection
REPEATS = 3         # timing is best-of-N; fresh detector each run

#: Acceptance floor (ISSUE 6): indexed selection must beat the cold
#: full scan by ≥ this at the full-scale 5k-fingerprint library.
TARGET_SPEEDUP = 10.0
SMOKE_SPEEDUP = 2.0


def _committed_baseline():
    """The committed full-scale baseline payload, or None if absent."""
    return load_committed("BENCH_index.json")


def _config():
    return GretelConfig()


def _time_selection(library, catalog, api_keys, index):
    """``candidates_for`` sweep over ``api_keys``: (best, first, n).

    ``index=None`` times the full-scan reference
    (``repro.oracle.ReferenceDetector``); otherwise the production
    detector hydrates from the prebuilt artifact (compile time is
    reported separately — it is a build-time cost).  Each repeat uses
    a fresh detector; the artifact's hydration memo persists across
    them by design, so ``first`` is the cold (hydrating) sweep and
    ``best`` the steady state.
    """
    best = first = None
    candidates_total = 0
    for _ in range(REPEATS):
        detector = (
            ReferenceDetector(library, library.symbols, catalog, _config())
            if index is None else OperationDetector(
                library, library.symbols, catalog, _config(),
                compiled_index=index,
            )
        )
        started = time.perf_counter()
        candidates_total = 0
        for api_key in api_keys:
            candidates_total += len(detector.candidates_for(api_key))
        elapsed = time.perf_counter() - started
        if first is None:
            first = elapsed
        if best is None or elapsed < best:
            best = elapsed
    return best, first, candidates_total


def _render(payload):
    scan = payload["scan"]
    indexed = payload["indexed"]
    accept = payload["acceptance"]
    lines = [
        "Candidate-selection microbenchmark (synthetic library)",
        f"{payload['library']['size']} fingerprints, "
        f"alphabet={payload['library']['alphabet']}, "
        f"overlap={payload['library']['overlap']}, "
        f"scale={payload['scale']}",
        f"{payload['sample']['api_keys']} offending APIs, "
        f"{scan['candidates']} candidates selected per sweep",
        f"{'path':>10s} {'sweep':>12s} {'per-key':>10s} {'speedup':>9s}",
        f"{'full scan':>10s} {scan['seconds'] * 1e3:9.1f}ms "
        f"{scan['seconds'] / payload['sample']['api_keys'] * 1e6:7.1f}us"
        f" {'1.00x':>9s}",
        f"{'indexed':>10s} {indexed['seconds'] * 1e3:9.1f}ms "
        f"{indexed['seconds'] / payload['sample']['api_keys'] * 1e6:7.1f}"
        f"us {accept['achieved_speedup']:8.2f}x",
        f"  cold (first hydrating sweep): "
        f"{indexed['cold_seconds'] * 1e3:.1f}ms, "
        f"{scan['seconds'] / indexed['cold_seconds']:.2f}x vs scan",
        f"compile: {payload['compile']['seconds']:.3f}s one-off "
        f"({payload['compile']['postings']} postings, "
        f"{payload['compile']['preps']} shared preps), "
        f"oracle {'PASS' if payload['oracle_ok'] else 'FAIL'} "
        f"({payload['sample']['oracle_api_keys']} keys x 2 modes)",
    ]
    return "\n".join(lines)


def test_index_selection_micro(save_result):
    size = 5000 if full_scale() else 1000
    library = synthetic_library(
        size, seed=SEED, alphabet=ALPHABET, overlap=OVERLAP,
    )
    catalog = default_catalog()
    api_keys = sample_api_keys(library, SAMPLE_KEYS, seed=SEED)

    started = time.perf_counter()
    index = compile_library(library, library.symbols, _config())
    compile_seconds = time.perf_counter() - started

    scan_seconds, _, scan_candidates = _time_selection(
        library, catalog, api_keys, index=None,
    )
    indexed_seconds, cold_seconds, indexed_candidates = _time_selection(
        library, catalog, api_keys, index=index,
    )
    speedup = scan_seconds / indexed_seconds

    oracle = verify_selection(
        library, catalog=catalog, config=_config(),
        api_keys=sample_api_keys(library, ORACLE_KEYS, seed=SEED + 1),
        index=index, strict=False,
    )

    committed = _committed_baseline()
    payload = {
        "benchmark": "index_selection",
        "scale": "full" if full_scale() else "small",
        "library": {
            "size": size,
            "alphabet": ALPHABET,
            "overlap": OVERLAP,
            "seed": SEED,
        },
        "sample": {
            "api_keys": len(api_keys),
            "oracle_api_keys": ORACLE_KEYS,
        },
        "compile": {
            "seconds": compile_seconds,
            "postings": index.postings_total,
            "preps": len(index.preps),
            "artifact_sha256": index.artifact_hash(),
        },
        "scan": {"seconds": scan_seconds, "candidates": scan_candidates},
        "indexed": {
            "seconds": indexed_seconds,
            "cold_seconds": cold_seconds,
            "candidates": indexed_candidates,
        },
        "oracle_ok": oracle.ok,
        "acceptance": {
            "target_speedup": TARGET_SPEEDUP,
            "achieved_speedup": speedup,
        },
    }
    # The committed JSON is a full-scale run; the small smoke scale
    # must not clobber it with reduced-library numbers.
    if full_scale():
        save_committed("BENCH_index.json", payload)
        save_result("index_selection", _render(payload))
    else:
        print()
        print(_render(payload))

    # A faster selection that selects different candidates is a bug.
    assert oracle.ok, oracle.summary()
    assert indexed_candidates == scan_candidates
    floor = TARGET_SPEEDUP if full_scale() else SMOKE_SPEEDUP
    assert speedup >= floor, (
        f"indexed selection speedup {speedup:.2f}x below the "
        f"{floor}x floor"
    )
    # Drift gate: compiler/hydration refactors must not erode it.
    if full_scale() and committed is not None:
        assert_no_drift(
            "selection speedup",
            speedup,
            committed["acceptance"]["achieved_speedup"],
        )
