"""Online level-shift (LS) outlier detection: shared types.

The paper plugs the R ``tsoutliers`` package's LS mode into GRETEL to
detect sustained shifts in API-latency and resource time series (§6).
LS semantics:

* maintain an adaptive baseline of the series;
* alarm when the series *shifts* to a new level (a sustained jump
  beyond the noise band), not on isolated spikes;
* after alarming, adopt the new level so the same shift is not
  re-reported ("the adaptive nature of LS raises alarms only when
  there is a sudden spike"; smaller subsequent variation is ignored).

The production detector is the amortized-O(log w)
:class:`~repro.core.streamstats.IncrementalLevelShiftDetector`; its
from-scratch reference lives with the oracle that holds the two
bit-identical (``repro.oracle``).  This module keeps what both share
— the :class:`LevelShift` alarm record and the median — plus the
static-threshold ablation baseline.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Mapping, Optional


@dataclass(frozen=True)
class LevelShift:
    """One detected level shift."""

    ts: float
    observed: float
    baseline: float
    magnitude: float        # observed - baseline
    index: int              # sample index at confirmation

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable rendering (checkpoint/restore protocol)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "LevelShift":
        """Inverse of :meth:`to_dict`."""
        return cls(**data)


def _median(values: List[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


class StaticThresholdDetector:
    """The naive alternative to LS: alarm whenever a fixed threshold is
    crossed.

    GRETEL's outlier detection is pluggable (§6); this detector exists
    to quantify *why* the paper chose LS: a static threshold either
    misses shifts below it or — set tight — alarms continuously once
    organic load pushes the series past it, because it never adapts.
    The ablation bench compares false-alarm behaviour directly.
    """

    def __init__(self, threshold: float, confirm: int = 3):
        if threshold <= 0:
            raise ValueError("threshold must be positive")
        if confirm < 1:
            raise ValueError("confirm must be at least 1")
        self.threshold_value = threshold
        self.confirm = confirm
        self._streak: List[tuple] = []
        self._count = 0
        self.alarms: List[LevelShift] = []

    def threshold(self) -> float:
        """The fixed alarm threshold."""
        return self.threshold_value

    def update(self, ts: float, value: float) -> Optional[LevelShift]:
        """Feed one sample; returns an alarm on every confirmed crossing."""
        self._count += 1
        if value > self.threshold_value:
            self._streak.append((ts, value))
            if len(self._streak) >= self.confirm:
                shift = LevelShift(
                    ts=self._streak[0][0],
                    observed=_median([v for _, v in self._streak]),
                    baseline=self.threshold_value,
                    magnitude=_median([v for _, v in self._streak])
                    - self.threshold_value,
                    # The sample index at confirmation, matching
                    # the LS detectors (not the alarm count).
                    index=self._count,
                )
                self.alarms.append(shift)
                self._streak.clear()
                return shift
            return None
        self._streak.clear()
        return None

    def reset(self) -> None:
        """Forget all state."""
        self._streak.clear()
        self._count = 0
        self.alarms.clear()
