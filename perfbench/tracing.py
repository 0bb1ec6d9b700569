"""Span recording for the traced benchmark run.

:class:`SpanRecorder` is a ``repro.core.pipeline`` StageObserver (the
pipeline reports ``(stage, seconds, items)`` after every stage step
once middleware is attached) and also wraps public methods on system
instances.  Spans are folded into per-name totals as they close, so
memory stays flat however long the run: the spans that closed while a
span was open are its children, and its self time is its duration
minus theirs.  The run is single-threaded, so spans nest properly.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Any, Callable, DefaultDict, List, Tuple

#: Pipeline stage names (``repro.core.pipeline.middleware``) -> span
#: names.  The ``detect`` span's self time is scoring: candidate
#: selection is its ``select`` child.
STAGE_SPANS = {
    "ingest": "ingest",
    "fault-scan": "fault_scan",
    "window": "window",
    "latency": "latency",
    "detect": "detect",
    "rootcause": "rootcause",
    "publish": "publish",
}

#: Spans whose self time is a layer's own work.  Everything else in a
#: traced pass (the replay loop, pipeline glue between stages, the
#: outer ``receive``/``finish`` calls) is time no layer span covers.
LAYER_SPANS = (
    "ingest", "fault_scan", "window", "latency", "select", "detect",
    "rootcause", "publish", "service.route", "service.snapshot_state",
    "service.checkpoint_write",
)


class SpanRecorder:
    """Per-name span totals, self times and call counts."""

    def __init__(self) -> None:
        self.total_s: DefaultDict[str, float] = defaultdict(float)
        self.self_s: DefaultDict[str, float] = defaultdict(float)
        self.calls: DefaultDict[str, int] = defaultdict(int)
        self.checkpoint_bytes = 0
        # Closed spans whose parent is still open: (end, duration).
        self._closed: List[Tuple[float, float]] = []

    def _close(self, name: str, start: float, end: float,
               outermost: bool = False) -> None:
        duration = end - start
        children = 0.0
        closed = self._closed
        while closed and closed[-1][0] > start:
            children += closed.pop()[1]
        self.total_s[name] += duration
        self.self_s[name] += duration - children
        self.calls[name] += 1
        if not outermost:
            closed.append((end, duration))

    # -- StageObserver ----------------------------------------------------

    def observe(self, stage: str, seconds: float, items: int) -> None:
        end = time.perf_counter()
        self._close(STAGE_SPANS[stage], end - seconds, end)

    # -- wrapped methods --------------------------------------------------

    def wrap(self, name: str, func: Callable[..., Any],
             outermost: bool = False) -> Callable[..., Any]:
        """``func`` recording one ``name`` span per call."""
        clock = time.perf_counter
        close = self._close

        def spanned(*args: Any, **kwargs: Any) -> Any:
            start = clock()
            try:
                return func(*args, **kwargs)
            finally:
                close(name, start, clock(), outermost)

        return spanned

    def instrument_detector(self, detector: Any) -> None:
        """Split detection: ``candidates_for`` is candidate selection."""
        detector.candidates_for = self.wrap(
            "select", detector.candidates_for
        )

    def instrument_store(self, store: Any) -> None:
        """Time checkpoint writes and count the bytes they persist."""
        save = self.wrap("service.checkpoint_write", store.save)

        def counted(*args: Any, **kwargs: Any) -> Any:
            path = save(*args, **kwargs)
            self.checkpoint_bytes += path.stat().st_size
            return path

        store.save = counted

    def covered_s(self) -> float:
        """Seconds some layer span covers (sum of layer self times)."""
        return sum(self.self_s.get(name, 0.0) for name in LAYER_SPANS)
