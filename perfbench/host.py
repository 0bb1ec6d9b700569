"""Host speed: a fixed pure-Python loop timed next to the measured work.

The benchmark runs on shared virtual machines whose speed drifts by
tens of percent over seconds.  Every timed piece of work (a quarter
second of replay, one chunk of a generated stream or of a capture) is
bracketed by two short probes of the same fixed loop, and its wall
time is also reported rescaled to a reference host speed: ``wall *
PROBE_REFERENCE_S / probe``, where ``probe`` is the mean of the two
probes.  The loop does
not touch the program, so a change to the program moves the rescaled
time exactly as it moves the wall time; only the host's drift is
divided out.

That holds only while the program does nothing during a probe.  A
program that left a thread or a child process running when a timed
piece returned could go on working while the probe runs: that work
would be missing from the wall time and would slow the probe, so it
would be counted as a slower host.  A :class:`Meter` that sees another
thread or a child process at either end of a probe stops rescaling,
and every time it reports is the wall time.
"""

from __future__ import annotations

import multiprocessing
import threading
import time
from pathlib import Path
from typing import Any, Callable, List, Tuple

#: Iterations of the long calibration loop timed before and after a run.
CALIBRATION_LOOPS = 3_000_000
#: Iterations of the short probe that brackets each timed piece.
PROBE_LOOPS = 1_000_000
#: Seconds the probe takes at the reference speed (its median on a
#: 2-vCPU cloud VM running CPython 3.11).
PROBE_REFERENCE_S = 0.064


def calibrate(loops: int = CALIBRATION_LOOPS) -> float:
    """Seconds one fixed pure-Python loop takes on this host, now."""
    started = time.perf_counter()
    total = 0
    for i in range(loops):
        total += i & 7
    return time.perf_counter() - started


def probe() -> float:
    """Seconds the short probe loop takes now."""
    return calibrate(PROBE_LOOPS)


def scale(before: float, after: float) -> float:
    """Factor that rescales a wall time measured between two probes to
    the reference host speed."""
    return PROBE_REFERENCE_S / ((before + after) / 2)


def concurrent() -> bool:
    """True while this process runs another thread or has a child
    process."""
    if threading.active_count() > 1:
        return True
    tasks = list(Path("/proc/self/task").glob("*/children"))
    if tasks:
        return any(task.read_text().strip() for task in tasks)
    return bool(multiprocessing.active_children())


class Meter:
    """Times pieces of work, each bracketed by probes, and sums their
    wall time and their time rescaled to the reference speed.

    ``run`` times one call as one piece; a long call can be cut into
    several pieces by calling ``split`` from inside it (the probe's own
    time is left out of the pieces).

    ``quiet`` stays true while no other thread or child process was
    seen around a probe; once it is false, ``ref_s`` reads the wall
    time and ``run`` returns a rescaling factor of 1.
    """

    def __init__(self) -> None:
        self.wall_s = 0.0
        self._ref_s = 0.0
        self.quiet = not concurrent()
        self.probes: List[float] = [probe()]
        self._started = time.perf_counter()

    @property
    def ref_s(self) -> float:
        return self._ref_s if self.quiet else self.wall_s

    def split(self) -> None:
        """End the piece timed since the last split: probe the host and
        add the piece to the sums; the next piece starts after the
        probe."""
        wall = time.perf_counter() - self._started
        self.quiet = self.quiet and not concurrent()
        self.probes.append(probe())
        self.quiet = self.quiet and not concurrent()
        factor = scale(self.probes[-2], self.probes[-1]) if self.quiet else 1.0
        self.wall_s += wall
        self._ref_s += wall * factor
        self._started = time.perf_counter()

    def run(self, func: Callable[[], Any]) -> Tuple[Any, float, float]:
        """Run ``func``: (its result, its wall seconds, their rescaling
        factor)."""
        wall_before, ref_before = self.wall_s, self._ref_s
        self._started = time.perf_counter()
        result = func()
        self.split()
        wall = self.wall_s - wall_before
        factor = (self._ref_s - ref_before) / wall if self.quiet else 1.0
        return result, wall, factor
