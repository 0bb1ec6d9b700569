"""GRETEL configuration: the paper's empirically-determined thresholds.

§7's "Empirical determination of thresholds" fixes the defaults:
``FP_max = 384``, ``P_rate ≈ 150`` pps, ``t = 1 s`` →
``α = 2·max{FP_max, P_rate·t} = 768``; ``c1 = 0.1`` → ``β₀ = 80``;
``c2 = 0.04`` → ``δ = 30``.  Everything is overridable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple


@dataclass
class GretelConfig:
    """Tunables for the GRETEL analyzer."""

    #: Time horizon t (seconds) in α = 2·max{FPmax, P_rate·t}.
    t: float = 1.0
    #: Context-buffer start fraction: β₀ = c1·α.
    c1: float = 0.1
    #: Context-buffer growth fraction: δ = c2·α.
    c2: float = 0.04
    #: Measured/assumed incoming message rate (packets per second).
    p_rate: float = 150.0
    #: Largest fingerprint size; ``None`` → taken from the library.
    fp_max: Optional[int] = None
    #: Hard override of the sliding-window size α (``None`` → computed).
    alpha: Optional[int] = None

    #: Prune RPC symbols from fingerprints when matching (§6's
    #: performance optimization; Fig. 7c evaluates both settings).
    prune_rpcs: bool = True
    #: Use the relaxed match (state-change order preserved, reads
    #: optional).  Strict mode is the ablation baseline.
    relaxed_match: bool = True
    #: Enable fingerprint truncation at the offending API (Alg. 2).
    truncate_fingerprints: bool = True
    #: Enable the adaptive context buffer; when off, match against the
    #: whole sliding window at once (ablation).
    adaptive_context: bool = True
    #: Minimum order-consistent coverage of a (truncated) fingerprint's
    #: state-change symbols for a match.  Fig. 4 shows a match with a
    #: state-change symbol missing from the context buffer, so matching
    #: cannot demand every literal; 0.7 tolerates scroll-out and
    #: interleaving while rejecting coincidental overlaps.
    match_coverage: float = 0.7
    #: Among gated candidates, keep those whose corroborated
    #: state-change symbol count is within this many symbols of the
    #: best candidate — a long ordered corroboration is much stronger
    #: evidence than a short fully-covered one.
    length_tolerance: int = 0
    #: Stop growing the context buffer after this many iterations
    #: without ranking improvement (the θ-drop stopping rule).
    stop_patience: int = 3

    #: §5.3.1 future work: "OpenStack is in the process of introducing
    #: a correlation identifier to tie together requests ... GRETEL can
    #: exploit these correlation identifiers to increase its precision
    #: by reducing the number of packets against which a fingerprint is
    #: matched."  When enabled, the context buffer is filtered to the
    #: offending message's correlation id before matching.  Off by
    #: default: Liberty-era deployments did not carry the header.
    use_correlation_ids: bool = False

    #: Level-shift detector: baseline window length (samples).
    ls_window: int = 24
    #: Level-shift detector: shift threshold in robust sigmas.
    ls_sigmas: float = 4.0
    #: Level-shift detector: minimum absolute shift (seconds for
    #: latency series) to avoid alarming on micro-jitter.
    ls_min_delta: float = 0.004
    #: Level-shift detector: minimum shift as a fraction of the
    #: baseline (a shift is a regime change, not load jitter).
    ls_rel_delta: float = 0.5
    #: Level-shift detector: quiet period after an alarm, seconds.
    ls_cooldown: float = 10.0
    #: Level-shift detector: consecutive outliers required to confirm.
    ls_confirm: int = 3
    #: Minimum samples before the latency detector may alarm.
    ls_warmup: int = 12
    #: At most one performance-fault analysis per API within this many
    #: (simulated) seconds — level shifts during a node-wide surge fire
    #: across many API series at once, and each analysis is a full
    #: snapshot match.
    perf_debounce: float = 5.0
    #: Cap on the number of context-buffer events a performance-fault
    #: match considers (centered on the anomaly).  The paper matches
    #: "the entire context buffer" at α = 768; at high packet rates our
    #: α can be far larger, and matching thousands of messages per
    #: alarm buys no precision.
    perf_buffer_cap: int = 1024

    #: Resource anomaly thresholds for root-cause analysis.
    cpu_anomaly_sigmas: float = 4.0
    cpu_anomaly_min: float = 0.35
    disk_free_fraction_min: float = 0.05
    disk_free_gb_min: float = 10.0
    mem_util_max: float = 0.92

    #: How far before the fault the baseline window reaches (seconds).
    baseline_horizon: float = 60.0

    def sliding_window_size(self, fp_max: int) -> int:
        """α = 2·max{FP_max, P_rate·t} (§5.3.1), unless overridden."""
        if self.alpha is not None:
            return self.alpha
        effective_fp_max = self.fp_max if self.fp_max is not None else fp_max
        return int(2 * max(effective_fp_max, self.p_rate * self.t))

    def context_buffer_start(self, alpha: int) -> int:
        """β₀ = c1·α (at least 2 messages)."""
        return max(2, int(self.c1 * alpha))

    def context_buffer_step(self, alpha: int) -> int:
        """δ = c2·α (at least 1 message)."""
        return max(1, int(self.c2 * alpha))

    def invariants(self, library_fp_max: int = 0) -> List[Tuple[str, str]]:
        """Symbolic α/β/δ/θ sizing checks (CFG rules of ``repro lint``).

        Returns ``(code, message)`` pairs for every violated invariant:
        α = 2·max{FP_max, P_rate·t} must be positive and hold the
        largest fingerprint; β = c1·α and δ = c2·α require
        ``0 < c1 ≤ 1`` and ``0 < c2 ≤ 1``; the match-coverage threshold
        must be a usable fraction.  ``library_fp_max`` is the size of
        the largest fingerprint actually in the library.
        """
        violations: List[Tuple[str, str]] = []
        alpha = self.sliding_window_size(library_fp_max)
        if alpha <= 0:
            violations.append((
                "alpha-positive",
                f"sliding window α = {alpha} is not positive "
                f"(alpha={self.alpha!r}, fp_max={self.fp_max!r}, "
                f"p_rate={self.p_rate}, t={self.t})",
            ))
        elif alpha < 2 * library_fp_max:
            violations.append((
                "alpha-fp-max",
                f"sliding window α = {alpha} cannot hold two copies of "
                f"the largest fingerprint ({library_fp_max} symbols); "
                "α = 2·max{FP_max, P_rate·t} requires α ≥ 2·FP_max",
            ))
        if self.fp_max is not None and self.fp_max < library_fp_max:
            violations.append((
                "fp-max-override",
                f"fp_max override {self.fp_max} is smaller than the "
                f"library's largest fingerprint ({library_fp_max})",
            ))
        if not 0.0 < self.c1 <= 1.0:
            violations.append((
                "c1-range",
                f"c1 = {self.c1} outside (0, 1]: β = c1·α must be a "
                "positive fraction of the window",
            ))
        if not 0.0 < self.c2 <= 1.0:
            violations.append((
                "c2-range",
                f"c2 = {self.c2} outside (0, 1]: δ = c2·α must be a "
                "positive fraction of the window",
            ))
        if alpha > 0 and 0.0 < self.c1 <= 1.0:
            beta = self.context_buffer_start(alpha)
            if beta > alpha:
                violations.append((
                    "beta-bounded",
                    f"context buffer start β = {beta} exceeds the "
                    f"window α = {alpha}",
                ))
        if not 0.0 < self.match_coverage <= 1.0:
            violations.append((
                "coverage-range",
                f"match_coverage = {self.match_coverage} outside (0, 1]",
            ))
        if self.stop_patience < 1:
            violations.append((
                "stop-patience",
                f"stop_patience = {self.stop_patience} must be ≥ 1 for "
                "the θ-drop stopping rule to terminate",
            ))
        if self.length_tolerance < 0:
            violations.append((
                "length-tolerance",
                f"length_tolerance = {self.length_tolerance} must be ≥ 0",
            ))
        return violations
