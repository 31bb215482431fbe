"""Per-call time of ``orbits.injective_sum`` on a fixed ladder of table sizes.

Each rung ``mxdxN`` is a table of ``d`` branches on ``m`` children over
``N`` columns, drawn once from a fixed seed: the tiny joins of fuzz
instances, the stars of ``wide-star`` and the estimator's grids.  Every rung
is timed in rounds of calls, and the fastest round's time per call is
printed, so that noise from other processes only ever adds.  Run with the
package on the path:

    PYTHONPATH=src python tests/kernel_ladder.py [--rounds R]

It prints one JSON object mapping each rung ``mxdxN`` to its time per call
in microseconds (``us``) and the pass shape the kernel takes for it: the
suffix length ``s``, the prefixes per pass and the number of passes.
pytest does not collect this file.
"""

import argparse
import json
import math
import time

import numpy as np

from joinforge.orbits import _pass_shape, injective_sum

# (m, d, N) per rung
LADDER = (
    (2, 2, 1),
    (3, 3, 1),
    (7, 5, 1),
    (7, 6, 1),
    (7, 7, 1),
    (8, 6, 1),
    (8, 7, 1),
    (8, 8, 1),
    (9, 7, 1),
    (9, 8, 1),
    (9, 9, 1),
    (3, 3, 820),
    (5, 5, 336),
    (2, 2, 8192),
)


def per_call_us(table: np.ndarray, rounds: int) -> float:
    """The fastest round's seconds per call, in microseconds; a round runs
    enough calls to take about 20 ms."""
    start = time.perf_counter()
    injective_sum(table)
    calls = max(1, int(0.02 / max(time.perf_counter() - start, 1e-7)))
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        for _ in range(calls):
            injective_sum(table)
        best = min(best, (time.perf_counter() - start) / calls)
    return best * 1e6


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rounds", type=int, default=7, help="timed rounds per rung")
    args = parser.parse_args()
    rng = np.random.default_rng(0)
    times = {}
    for m, d, n in LADDER:
        table = rng.uniform(0.5, 2.0, (d, m, n))
        s, size = _pass_shape(d, m, n)
        times[f"{m}x{d}x{n}"] = {
            "us": round(per_call_us(table, args.rounds), 2),
            "s": s,
            "prefixes_per_pass": size,
            "passes": math.ceil(math.perm(m, d - s) / size),
        }
    print(json.dumps(times))
