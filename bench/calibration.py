"""Processor-speed calibration for the timings of the benchmark.

On a shared virtual machine the speed of the same work changes by up to
twice within a minute, in CPU time as well as in wall time: the host
lowers the clock or runs another guest on the sibling hyperthread.  The
benchmark therefore runs a fixed piece of pure-Python work, independent of
joinforge, between its operations and scales each operation's CPU time by
the time that work took around it (``scaled``).  Timings are then in
seconds at a reference speed, the speed at which the calibration takes
``NOMINAL_S`` of CPU time, and a change in the library moves them while a
change in the host's speed mostly does not.

The work is of the same kind as the library's: tuple-keyed dictionary
updates, float math, a sort with a key function and a JSON round trip.  It
fits in the processor's caches, so it speeds up and slows down more than
the library does, whose larger data waits on memory: on a 2-vCPU virtual
machine with Python 3.11, when the calibration's time changed by a factor
``x`` the time of a ``deep-binary`` or ``wide-star`` operation changed by
about ``x ** 0.8`` (``SPEED_ELASTICITY``), and that of the fuzz workloads by
``x ** 0.6`` to ``x ** 0.8``.  Scaling by the full factor would make a
faster host read as a slower library.
"""

from __future__ import annotations

import gc
import json
import math
import random
from time import process_time

NOMINAL_S = 0.005  # calibration CPU time at the reference speed
SPEED_ELASTICITY = 0.8


def _work() -> int:
    rng = random.Random(7)
    table: dict[tuple[int, int], float] = {}
    for i in range(3000):
        key = (i % 97, i // 97)
        table[key] = table.get(key, 0.0) + math.exp(rng.uniform(-3.0, 3.0))
    items = sorted(table.items(), key=lambda kv: kv[1])
    return len(json.loads(json.dumps(items[:500])))


def scaled(cpu_s: float, calibration: float) -> float:
    """CPU time ``cpu_s`` at the reference speed, given the calibration's time."""
    return cpu_s * (NOMINAL_S / calibration) ** SPEED_ELASTICITY


def calibration_s() -> float:
    """CPU time of one run of the calibration work.

    The garbage collector is off meanwhile, so that a collection of the
    garbage an operation left cannot land in the calibration.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = process_time()
        _work()
        return process_time() - start
    finally:
        if enabled:
            gc.enable()
