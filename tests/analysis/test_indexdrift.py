"""Index-drift pass: stale, corrupted, and mismatched artifacts."""

from repro.analysis import indexdrift
from repro.analysis.compile import (
    FORMAT_VERSION,
    CompiledIndex,
    compile_library,
)
from repro.core.config import GretelConfig


def _rules(findings):
    return [f.rule for f in findings]


def _fingerprints(make_fingerprint, state_change_keys, count=4):
    return [
        make_fingerprint(f"op-{i}", state_change_keys[i:i + 3])
        for i in range(count)
    ]


def test_fresh_index_self_check_is_clean(
    make_fingerprint, make_context, state_change_keys
):
    # No artifact on the context: the pass compiles one and checks
    # the compiler against the library's own inverted index.
    ctx = make_context(_fingerprints(make_fingerprint, state_change_keys))
    assert indexdrift.run(ctx) == []


def test_stale_library_is_idx001(
    make_fingerprint, make_context, state_change_keys
):
    fps = _fingerprints(make_fingerprint, state_change_keys)
    index = compile_library(make_context(fps).library)
    grown = fps + [make_fingerprint("op-late", state_change_keys[:5])]
    findings = indexdrift.run(make_context(grown, compiled_index=index))
    assert _rules(findings) == ["IDX001"]
    assert findings[0].severity.name == "ERROR"
    assert "library hash mismatch" in findings[0].message


def test_reassigned_symbol_table_is_idx002(
    make_fingerprint, make_context, state_change_keys
):
    fps = _fingerprints(make_fingerprint, state_change_keys)
    ctx = make_context(fps)
    index = compile_library(ctx.library)
    index.symbols_hash = "0" * 64
    findings = indexdrift.run(make_context(fps, compiled_index=index))
    assert _rules(findings) == ["IDX002"]
    assert "symbol-table hash mismatch" in findings[0].message


def test_structural_corruption_is_idx003(
    make_fingerprint, make_context, state_change_keys
):
    fps = _fingerprints(make_fingerprint, state_change_keys)
    ctx = make_context(fps)
    payload = compile_library(ctx.library).to_dict()
    del payload["postings"][sorted(payload["postings"])[0]]
    corrupted = CompiledIndex.from_dict(payload)
    findings = indexdrift.run(make_context(fps, compiled_index=corrupted))
    assert _rules(findings) == ["IDX003"]
    assert "structural drift" in findings[0].message


def test_flag_mismatch_is_idx004_warning(
    make_fingerprint, make_context, state_change_keys
):
    fps = _fingerprints(make_fingerprint, state_change_keys)
    ctx = make_context(fps)
    stale_flags = GretelConfig(relaxed_match=False)
    index = compile_library(ctx.library, config=stale_flags)
    findings = indexdrift.run(make_context(fps, compiled_index=index))
    assert _rules(findings) == ["IDX004"]
    assert findings[0].severity.name == "WARNING"
    assert "refuse" in findings[0].message


def test_foreign_format_version_is_idx005(
    make_fingerprint, make_context, state_change_keys
):
    fps = _fingerprints(make_fingerprint, state_change_keys)
    ctx = make_context(fps)
    index = compile_library(ctx.library)
    index.format_version = FORMAT_VERSION + 1
    findings = indexdrift.run(make_context(fps, compiled_index=index))
    assert _rules(findings) == ["IDX005"]
