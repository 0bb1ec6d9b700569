"""Scenario execution: capture once, replay twice, grade everything.

:func:`run_scenario` drives one scenario end to end:

1. **capture** — the scenario's seeded simulation runs once, recording
   the full wire stream and the populated metadata store;
2. **replay** — the capture is fed through a fresh serial pipeline and
   a fresh :class:`~repro.core.parallel.ShardedAnalyzer`;
3. **grade** — the scenario's oracle battery judges both replays, and
   a shard-equivalence check (reusing
   :func:`~repro.oracle.verify_equivalence`) judges
   serial-vs-sharded agreement at the scenario's declared contract
   level (``exact`` / ``detection`` / ``off``).

:func:`run_catalog` runs any subset of the registry and micro-averages
the per-scenario confusion counts into catalog-wide precision /
recall / F1 (the Fig. 5–7 shape).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Type, Union

from repro.core.characterize import CharacterizationResult
from repro.core.config import GretelConfig
from repro.core.parallel import ShardedAnalyzer
from repro.core.pipeline import PipelineBuilder
from repro.core.reports import FaultReport
from repro.evaluation.common import DetectionCounts
from repro.oracle import OracleResult, verify_equivalence
from repro.scenarios import registry
from repro.scenarios.base import CapturedRun, Expectation, Scenario
from repro.scenarios.oracles import (
    FAIL,
    PASS,
    SKIP,
    GradingContext,
    OracleOutcome,
    detection_counts,
    oracles_for,
)

ScenarioRef = Union[str, Type[Scenario]]


def _serial_replay(captured: CapturedRun, scenario: Scenario,
                   config: GretelConfig) -> List[FaultReport]:
    """Feed the capture through a fresh serial pipeline."""
    analyzer = (
        PipelineBuilder(scenario.character.library)
        .with_store(captured.store)
        .with_config(config)
        .track_latency(scenario.track_latency)
        .build_serial()
    )
    analyzer.feed(captured.events)
    analyzer.flush()
    return list(analyzer.reports)


def _sharded_replay(captured: CapturedRun, scenario: Scenario,
                    config: GretelConfig, shards: int,
                    backend: str) -> List[FaultReport]:
    """Feed the capture through a fresh sharded pipeline."""
    analyzer = ShardedAnalyzer(
        scenario.character.library, shards,
        store=captured.store, config=config,
        track_latency=scenario.track_latency,
        backend=backend,
    )
    try:
        analyzer.feed(captured.events)
        analyzer.flush()
        return list(analyzer.reports)
    finally:
        analyzer.close()


def _grade(scenario: Scenario, captured: CapturedRun,
           expectation: Expectation, reports: List[FaultReport],
           label: str) -> List[OracleOutcome]:
    """Run the scenario's oracle battery over one replay."""
    ctx = GradingContext(
        scenario=scenario, captured=captured,
        expectation=expectation, reports=reports, label=label,
    )
    return [oracle.grade(ctx) for oracle in oracles_for(scenario)]


def _detection_equivalent(result: OracleResult) -> bool:
    """Whether divergence is only in matched-operation sets.

    Report signatures are ``(kind, fault-event seq, operations, θ,
    causes)``.  Detection equivalence holds when the diverging
    signatures pair up on ``(kind, seq)`` — the same faults were
    detected on both pipelines, and only the context-dependent match
    sets (which legitimately differ across per-shard windows) moved.
    """
    def fault_ids(signatures: Sequence[Tuple]) -> "Counter[Tuple]":
        return Counter((sig[0], sig[1]) for sig in signatures)

    return fault_ids(result.missing) == fault_ids(result.extra)


def _grade_equivalence(scenario: Scenario, captured: CapturedRun,
                       config: GretelConfig, shards: int,
                       backend: str) -> OracleOutcome:
    """Judge serial-vs-sharded agreement at the declared contract."""
    mode = scenario.equivalence
    if mode == "off":
        return OracleOutcome(
            oracle="shard-equivalence", grade=SKIP,
            detail=(
                "per-source-node latency series legitimately split "
                "across shards (§5.2 per-agent calibration); both "
                "pipelines graded by the scenario oracles instead"
            ),
        )
    result = verify_equivalence(
        captured.events, scenario.character.library, shards,
        config=config, store=captured.store,
        track_latency=scenario.track_latency, strict=False,
        backend=backend,
    )
    serial_reports = result.facts["serial_reports"]
    counts: Dict[str, object] = {
        "serial_reports": serial_reports,
        "sharded_reports": result.facts["sharded_reports"],
        "diverging": len(result.mismatches),
    }
    if result.ok:
        return OracleOutcome(
            oracle="shard-equivalence", grade=PASS, score=1.0,
            detail=(f"exact: {serial_reports} reports "
                    f"identical across {shards} shards"),
            counts=counts,
        )
    if mode == "detection" and _detection_equivalent(result):
        return OracleOutcome(
            oracle="shard-equivalence", grade=PASS, score=1.0,
            detail=(
                "detection-equivalent: same (kind, fault) multiset; "
                f"{len(result.missing)} report(s) differ only in "
                "matched-operation sets"
            ),
            counts=counts,
        )
    return OracleOutcome(
        oracle="shard-equivalence", grade=FAIL, score=0.0,
        detail=result.summary(), counts=counts,
    )


@dataclass
class ScenarioResult:
    """Everything one scenario run produced."""

    name: str
    family: str
    seed: int
    shards: int
    events: int
    injected: int
    duration: float
    counts: DetectionCounts
    serial_outcomes: List[OracleOutcome] = field(default_factory=list)
    sharded_outcomes: List[OracleOutcome] = field(default_factory=list)
    equivalence: Optional[OracleOutcome] = None
    serial_reports: int = 0
    sharded_reports: int = 0

    @property
    def passed(self) -> bool:
        """No FAIL anywhere: both replays and the equivalence check."""
        outcomes = list(self.serial_outcomes) + list(self.sharded_outcomes)
        if self.equivalence is not None:
            outcomes.append(self.equivalence)
        return all(outcome.ok for outcome in outcomes)

    @property
    def exit_code(self) -> int:
        """Process exit code for this scenario alone: 0 pass, 1 fail.

        Part of the CLI exit-code contract (``repro scenarios run``):
        0 = every graded oracle passed, 1 = any FAIL (or, at the CLI
        layer, scorecard drift), 2 = usage error.  Usage errors never
        originate here — the runner only grades.
        """
        return 0 if self.passed else 1

    def to_dict(self) -> Dict[str, object]:
        """JSON-stable rendering (used by the committed scorecard)."""
        return {
            "name": self.name,
            "family": self.family,
            "seed": self.seed,
            "shards": self.shards,
            "events": self.events,
            "injected": self.injected,
            "duration": round(self.duration, 3),
            "serial_reports": self.serial_reports,
            "sharded_reports": self.sharded_reports,
            "counts": self.counts.as_dict(),
            "serial": [o.as_dict() for o in self.serial_outcomes],
            "sharded": [o.as_dict() for o in self.sharded_outcomes],
            "equivalence": (None if self.equivalence is None
                            else self.equivalence.as_dict()),
            "passed": self.passed,
        }


def _resolve(ref: ScenarioRef) -> Type[Scenario]:
    if isinstance(ref, str):
        return registry.get(ref)
    return ref


def run_scenario(
    ref: ScenarioRef,
    character: CharacterizationResult,
    *,
    seed: int = 0,
    shards: int = 4,
    detect: bool = True,
    backend: str = "inline",
) -> ScenarioResult:
    """Capture, replay (serial + sharded), and grade one scenario.

    ``detect=False`` skips the replays and grades empty report lists —
    the degenerate no-detector run the negative-path tests use to
    prove 0/0 precision stays undefined instead of crashing.
    ``backend`` selects the sharded replay's execution backend; the
    grades and the scorecard rendering are backend-independent (the
    equivalence oracle is what proves that).
    """
    cls = _resolve(ref)
    scenario = cls(character, seed=seed)
    captured = scenario.capture()
    expectation = scenario.expectation(captured)
    config = scenario.analyzer_config()

    if detect:
        serial = _serial_replay(captured, scenario, config)
        sharded = _sharded_replay(captured, scenario, config, shards,
                                  backend)
        equivalence: Optional[OracleOutcome] = _grade_equivalence(
            scenario, captured, config, shards, backend,
        )
    else:
        serial = []
        sharded = []
        equivalence = None

    serial_outcomes = _grade(scenario, captured, expectation, serial,
                             "serial")
    sharded_outcomes = _grade(scenario, captured, expectation, sharded,
                              f"{shards}-shard")
    counts = detection_counts(GradingContext(
        scenario=scenario, captured=captured,
        expectation=expectation, reports=serial, label="serial",
    ))
    return ScenarioResult(
        name=scenario.name,
        family=scenario.family,
        seed=seed,
        shards=shards,
        events=len(captured.events),
        injected=captured.injected,
        duration=captured.duration,
        counts=counts,
        serial_outcomes=serial_outcomes,
        sharded_outcomes=sharded_outcomes,
        equivalence=equivalence,
        serial_reports=len(serial),
        sharded_reports=len(sharded),
    )


@dataclass
class CatalogResult:
    """A full (or filtered) catalog run with micro-averaged totals."""

    results: List[ScenarioResult]
    seed: int
    shards: int

    @property
    def counts(self) -> DetectionCounts:
        """Catalog-wide micro-average of the confusion counts."""
        return DetectionCounts.micro(r.counts for r in self.results)

    @property
    def all_pass(self) -> bool:
        """Whether every scenario passed every graded oracle."""
        return all(r.passed for r in self.results)

    @property
    def exit_code(self) -> int:
        """Process exit code for the catalog: 0 all pass, 1 any fail.

        See :attr:`ScenarioResult.exit_code` for the full contract;
        ``repro scenarios run`` returns exactly this unless a usage
        error (2) or baseline drift (1) intervenes first.
        """
        return 0 if self.all_pass else 1

    def to_dict(self) -> Dict[str, object]:
        """JSON-stable rendering (used by the committed scorecard)."""
        return {
            "seed": self.seed,
            "shards": self.shards,
            "scenarios": [r.to_dict()
                          for r in sorted(self.results,
                                          key=lambda r: r.name)],
            "catalog": self.counts.as_dict(),
            "all_pass": self.all_pass,
        }


def run_catalog(
    character: CharacterizationResult,
    *,
    seed: int = 0,
    shards: int = 4,
    names: Optional[Sequence[str]] = None,
    detect: bool = True,
    backend: str = "inline",
) -> CatalogResult:
    """Run every (or the named subset of) registered scenario."""
    selected = list(names) if names else registry.names()
    results = [
        run_scenario(name, character, seed=seed, shards=shards,
                     detect=detect, backend=backend)
        for name in selected
    ]
    return CatalogResult(results=results, seed=seed, shards=shards)
