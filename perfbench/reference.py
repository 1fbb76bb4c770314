"""Times at the reference speed of the host.

The benchmark runs on a few cores of a shared host whose speed drifts:
on a 2-vCPU VM, whole 30-second runs of identical work ran up to 45%
slower than others, in spells of seconds to minutes.  A fixed
pure-Python loop, timed just before each task, tracks that drift: its
median over a window of neighbouring tasks gives the host's momentary
speed.  A task's time is reported as measured, times ``REFERENCE_S``
over that median, i.e. in seconds at the speed where the loop takes
``REFERENCE_S``.  The loop is this file's own code, so a change to the
verifier cannot move it.

On five seeds of ``svcomp`` in a quiet spell and five in a spell 33%
slower, the measured pooled p50, p95 and pass time moved by 29–35%
between the spells; normalised, they moved by 1–2.5%.
"""

from __future__ import annotations

import statistics
import time
from typing import List

#: The reference loop's time, in seconds, on an idle 2-vCPU VM (CPython
#: 3.11).  It only scales the reported times; any constant would do, but
#: it must never change once figures have been recorded against it.
REFERENCE_S = 1.26e-3

#: Neighbouring reference samples whose median gives a task's speed.
WINDOW = 101


def _loop() -> int:
    s = 0
    for i in range(20000):
        s += i * i % 7
    return s


def reference_time() -> float:
    """One timed run of the reference loop."""
    start = time.perf_counter()
    _loop()
    return time.perf_counter() - start


def normalise(times: List[float], refs: List[float]) -> List[float]:
    """``times`` at the reference speed.

    ``refs[i]`` is the reference loop's time taken just before the task
    that took ``times[i]``; both lists are in run order.
    """
    half = WINDOW // 2
    out = []
    for i, t in enumerate(times):
        window = refs[max(0, i - half): i + half + 1]
        out.append(t * REFERENCE_S / statistics.median(window))
    return out
