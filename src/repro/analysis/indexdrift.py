"""Pass 7 — compiled-index / library drift.

The compiled selection artifact (``repro.analysis.compile``,
``repro index build``) snapshots the fingerprint library and the
symbol table at build time.  Serving a stale artifact would be worse
than slow — hydrated candidates would describe fingerprints that no
longer exist — so the runtime already refuses flag-mismatched indexes,
and this pass makes staleness a *lint* failure CI can gate on:

Rules
-----
``IDX001`` (error)
    Artifact library hash ≠ live library hash: fingerprints were
    added, removed or regenerated since the index was built.
``IDX002`` (error)
    Artifact symbol-table hash ≠ live table: the catalog was reordered
    or extended, silently re-labelling every fingerprint symbol.
``IDX003`` (error)
    Structural drift: the artifact's postings disagree with the
    library's inverted index (missing/extra symbols, wrong operation
    lists, or prep-pool references out of range — corruption the
    hashes cannot localize).
``IDX004`` (warning)
    The artifact was compiled for different selection flags
    (``prune_rpcs`` / ``relaxed_match`` / ``truncate_fingerprints``)
    than the context's config; a detector refuses to be built on it.
``IDX005`` (warning)
    Artifact format version differs from this build's
    ``FORMAT_VERSION`` (only reachable for programmatically built
    indexes; the loader rejects foreign versions outright).

With no artifact on the context (``repro lint`` without ``--index``)
the pass compiles a fresh index and runs the same checks against it —
a self-check that the compiler and the library's inverted index agree.
"""

from __future__ import annotations

from typing import List

from repro.analysis.compile import (
    FORMAT_VERSION,
    CompiledIndex,
    compiled_index_for,
    selection_flags,
)
from repro.analysis.context import LintContext
from repro.analysis.findings import Finding, Severity

PASS_NAME = "index-drift"

_LOCATION = "compiled-index"


def run(ctx: LintContext) -> List[Finding]:
    """Emit IDX findings for the context's artifact (or a fresh one)."""
    findings: List[Finding] = []
    index = ctx.compiled_index
    if index is None:
        index = compiled_index_for(
            ctx.library, ctx.symbols, ctx.catalog, ctx.config,
        )

    for problem in index.verify_against(ctx.library, ctx.symbols):
        rule = (
            "IDX002" if "symbol-table" in problem else "IDX001"
        )
        findings.append(Finding(
            rule=rule,
            severity=Severity.ERROR,
            pass_name=PASS_NAME,
            location=_LOCATION,
            message=problem,
            fix_hint="rebuild the artifact: repro index build",
        ))

    # Structural comparison is only meaningful when the identity
    # hashes match (a rebuilt library legitimately changes postings);
    # with IDX001 present it would duplicate every difference.
    if not findings:
        for problem in index.check_postings(ctx.library):
            findings.append(Finding(
                rule="IDX003",
                severity=Severity.ERROR,
                pass_name=PASS_NAME,
                location=_LOCATION,
                message=f"structural drift: {problem}",
                fix_hint=(
                    "the artifact no longer mirrors the library's "
                    "inverted index — rebuild it (repro index build) "
                    "and investigate how the two diverged despite "
                    "matching hashes"
                ),
            ))

    if not index.serves(ctx.config):
        live = selection_flags(ctx.config)
        findings.append(Finding(
            rule="IDX004",
            severity=Severity.WARNING,
            pass_name=PASS_NAME,
            location=_LOCATION,
            message=(
                "artifact was compiled for selection flags "
                f"(prune_rpcs={index.flags[0]}, "
                f"relaxed_match={index.flags[1]}, "
                f"truncate_fingerprints={index.flags[2]}) but the "
                f"config selects (prune_rpcs={live[0]}, "
                f"relaxed_match={live[1]}, "
                f"truncate_fingerprints={live[2]}); a detector will "
                "refuse it"
            ),
            fix_hint=(
                "rebuild the artifact under the deployed config: "
                "repro index build"
            ),
        ))

    if index.format_version != FORMAT_VERSION:
        findings.append(Finding(
            rule="IDX005",
            severity=Severity.WARNING,
            pass_name=PASS_NAME,
            location=_LOCATION,
            message=(
                f"artifact format version {index.format_version} "
                f"differs from this build's {FORMAT_VERSION}"
            ),
            fix_hint="rebuild the artifact: repro index build",
        ))
    return findings
