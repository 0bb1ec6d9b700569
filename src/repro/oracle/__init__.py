"""Differential oracles and the reference implementations they use.

Every performance path in :mod:`repro` is trusted only once an oracle
proves it produces the same diagnoses as a reference on the same
input.  This package holds all of it: the harness
(:mod:`~repro.oracle.harness` — one result type, one
:class:`Divergence`, the multiset and sequence comparators), the
reference halves production no longer runs
(:mod:`~repro.oracle.reference`), and the six oracles
(:mod:`~repro.oracle.verify`).  See ``docs/architecture.md``
("Oracles").
"""

from repro.oracle.harness import (
    Divergence,
    Mismatch,
    OracleResult,
    compare_multisets,
    compare_sequences,
)
from repro.oracle.reference import (
    LevelShiftDetector,
    ReferenceBuilder,
    ReferenceDetector,
    ReferenceTracker,
    reference_levelshift,
)
from repro.oracle.verify import (
    candidate_signature,
    detection_signature,
    report_signature,
    verify_async,
    verify_checkpoint,
    verify_detection,
    verify_equivalence,
    verify_levelshift,
    verify_levelshift_stream,
    verify_selection,
)

__all__ = [
    "Divergence",
    "LevelShiftDetector",
    "Mismatch",
    "OracleResult",
    "ReferenceBuilder",
    "ReferenceDetector",
    "ReferenceTracker",
    "candidate_signature",
    "compare_multisets",
    "compare_sequences",
    "detection_signature",
    "reference_levelshift",
    "report_signature",
    "verify_async",
    "verify_checkpoint",
    "verify_detection",
    "verify_equivalence",
    "verify_levelshift",
    "verify_levelshift_stream",
    "verify_selection",
]
