"""Streaming robust statistics: incremental level-shift detection.

See ``docs/streamstats.md``.  The window (``window``) keeps the LS
rolling baseline sorted as it rolls, making the median an O(1) read
and the MAD an O(log w) contiguous-slice search; the detector
(``detector``) preserves the reference LS alarm semantics bit for bit
behind a version-cached (median, MAD, threshold) triple;
``repro.oracle.verify_levelshift`` proves it by differential replay.
"""

from repro.core.streamstats.detector import (
    IncrementalLevelShiftDetector,
    detector_from_config,
)
from repro.core.streamstats.window import SortedWindow

__all__ = [
    "IncrementalLevelShiftDetector",
    "SortedWindow",
    "detector_from_config",
]
