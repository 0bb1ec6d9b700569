"""The differential-oracle harness every oracle reports through.

An oracle replays one input through a *reference* and a *candidate*
implementation and compares what an operator would see, signature
for signature.  The harness gives every oracle the same three parts:

* two comparators — :func:`compare_multisets` for outputs whose
  order is not part of the contract (published reports) and
  :func:`compare_sequences` for outputs compared position by
  position (per-snapshot detections, per-sample LS outputs, keyed
  counters);
* one result type, :class:`OracleResult`, with ``ok`` /
  :meth:`~OracleResult.summary` / :meth:`~OracleResult.to_dict` /
  :meth:`~OracleResult.merge`;
* one exception, :class:`Divergence`, carrying the oracle's name and
  the first differing ``(expected, actual)`` signature.

Mismatches are kept in comparison order, earliest first, so
:attr:`OracleResult.first` is the earliest divergence: the lowest
differing signature of a multiset comparison, the first differing
position of a sequence comparison.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Tuple,
)

#: The two multiset sections: signatures only the reference produced,
#: and signatures only the candidate produced.
MULTISET = ("missing", "extra")


class Mismatch(NamedTuple):
    """One divergence: where it is, and what each side produced.

    ``section`` names the comparison (``"missing"``/``"extra"`` for a
    multiset, otherwise what was compared); ``key`` locates a
    positional mismatch (a tuple key nests in :meth:`OracleResult.
    to_dict`).  A multiset mismatch has no key and ``None`` on the
    side that lacks the signature.
    """

    section: str
    key: Any
    expected: Any
    actual: Any


def compare_multisets(
    expected: Iterable[Any], actual: Iterable[Any]
) -> List[Mismatch]:
    """Compare two signature multisets; lowest signature first."""
    want: Counter[Any] = Counter(expected)
    got: Counter[Any] = Counter(actual)
    found = [
        Mismatch("missing", None, signature, None)
        for signature in (want - got).elements()
    ] + [
        Mismatch("extra", None, None, signature)
        for signature in (got - want).elements()
    ]
    found.sort(
        key=lambda m: m.expected if m.section == "missing" else m.actual
    )
    return found


def compare_sequences(
    section: str, rows: Iterable[Tuple[Any, Any, Any]]
) -> List[Mismatch]:
    """Keep the ``(key, expected, actual)`` rows that differ, in order."""
    return [
        Mismatch(section, key, expected, actual)
        for key, expected, actual in rows
        if expected != actual
    ]


@dataclass
class OracleResult:
    """Outcome of one differential replay."""

    #: Oracle name (``"shards"``, ``"detection"``, ``"selection"``,
    #: ``"levelshift"``, ``"checkpoint"``, ``"async"``).
    oracle: str
    #: What was compared against what, for the summary line.
    title: str
    #: Sections :meth:`to_dict` always renders, clean or not.
    sections: Tuple[str, ...] = MULTISET
    #: Counts describing the replay (events, reports per side, ...).
    facts: Dict[str, Any] = field(default_factory=dict)
    mismatches: List[Mismatch] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Whether both sides agreed on every signature."""
        return not self.mismatches

    @property
    def first(self) -> Optional[Tuple[Any, Any]]:
        """The earliest differing ``(expected, actual)`` signature."""
        if not self.mismatches:
            return None
        head = self.mismatches[0]
        return head.expected, head.actual

    @property
    def missing(self) -> List[Any]:
        """Signatures the reference produced more often."""
        return [
            m.expected for m in self.mismatches if m.section == "missing"
        ]

    @property
    def extra(self) -> List[Any]:
        """Signatures the candidate produced more often."""
        return [m.actual for m in self.mismatches if m.section == "extra"]

    def summary(self) -> str:
        """One operator-facing line plus the first divergences."""
        verdict = "EQUIVALENT" if self.ok else "DIVERGED"
        facts = ", ".join(f"{k}={v}" for k, v in self.facts.items())
        lines = [
            f"{verdict}: {self.oracle} oracle, {self.title} ({facts}) "
            f"— {len(self.mismatches)} mismatches"
        ]
        for m in self.mismatches[:5]:
            where = m.section if m.key is None else f"{m.section} {m.key}"
            lines.append(
                f"  {where}: expected {m.expected!r}, "
                f"actual {m.actual!r}"
            )
        if len(self.mismatches) > 5:
            lines.append(f"  ... {len(self.mismatches) - 5} more")
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        """JSON rendering: ``ok``, the facts, then one entry per
        section — a signature list for ``missing``/``extra``, a
        ``{key: [expected, actual]}`` mapping otherwise."""
        document: Dict[str, Any] = {"ok": self.ok, **self.facts}
        for section in self.sections:
            document[section] = [] if section in MULTISET else {}
        for m in self.mismatches:
            if m.section in MULTISET:
                present = m.expected if m.section == "missing" else m.actual
                document[m.section].append(present)
                continue
            node = document.setdefault(m.section, {})
            path = m.key if isinstance(m.key, tuple) else (m.key,)
            for part in path[:-1]:
                node = node.setdefault(part, {})
            node[path[-1]] = [m.expected, m.actual]
        return document

    def merge(self, other: "OracleResult") -> "OracleResult":
        """Fold another replay of the same oracle into this one:
        numeric facts add up, mismatches append in merge order."""
        for key, value in other.facts.items():
            mine = self.facts.get(key)
            if isinstance(value, int) and isinstance(mine, int):
                self.facts[key] = mine + value
            elif key not in self.facts:
                self.facts[key] = value
        self.mismatches.extend(other.mismatches)
        return self

    def check(self, strict: bool = True) -> "OracleResult":
        """Raise :class:`Divergence` when ``strict`` and not ok."""
        if strict and not self.ok:
            raise Divergence(self)
        return self


class Divergence(AssertionError):
    """A differential oracle found its two sides observably different.

    ``oracle`` names the oracle; ``first`` is the earliest differing
    ``(expected, actual)`` signature (``None`` on a side that lacks
    it); ``result`` is the full :class:`OracleResult`.
    """

    def __init__(self, result: OracleResult) -> None:
        super().__init__(result.summary())
        self.result = result
        self.oracle = result.oracle
        self.first = result.first
