"""Time to load instance files on a fixed ladder of tree sizes.

Each rung ``m<m>k<k>`` is one instance file with a value at every vertex,
written once from a fixed seed: full binary trees at k = 10, 12, 14 and 16,
the k = 2 stars of m = 7, 8 and 9, and m = 11, k = 4, whose two-digit
symbols take ``_scan_words`` rather than the one-digit row reading.  A star's
maps, and the whole ``f`` map at k = 10, each fit one chunk and are read as
whole levels.  Every rung times four steps in rounds, and the fastest
round's time per call is printed, so that noise from other processes only
ever adds:

- ``json_load``: ``json.load`` of the file;
- ``keyed_mu`` and ``keyed_f``: ``keyed_levels`` of its loaded ``mu`` and
  ``f`` maps;
- ``load_instance``: the whole load, the three steps above included.

A fifth column, ``cold_load_instance``, is the whole load as the benchmark
runs its operations: each call made alone, right after ``gc.collect()``,
and the median of five such calls per round.

Run with the package on the path:

    PYTHONPATH=src python tests/load_ladder.py [--rounds R]

It prints one JSON object mapping each rung to its four times in
milliseconds.  pytest does not collect this file.
"""

import argparse
import gc
import itertools
import json
import os
import random
import statistics
import tempfile
import time

from joinforge.tree import TreeParams, keyed_levels
from joinforge.verify import load_instance

# (m, k) per rung
LADDER = ((2, 10), (2, 12), (2, 14), (2, 16), (7, 2), (8, 2), (9, 2), (11, 4))


def instance_doc(m: int, k: int) -> dict:
    """Two particles, leaf weights (5% exactly zero) and a vertex function
    on every vertex, log-uniform over six decades, in level order."""
    rng = random.Random(f"load-ladder/{m}/{k}")
    words = [
        [".".join(map(str, w)) for w in itertools.product(range(1, m + 1), repeat=level)]
        for level in range(k + 1)
    ]
    return {
        "m": m, "k": k, "config": [[1] * k, [2] * k], "p": [1.0],
        "mu": {w: 0.0 if rng.random() < 0.05 else 10.0 ** rng.uniform(-3, 3) for w in words[k]},
        "f": {w: 10.0 ** rng.uniform(-3, 3) for level in words for w in level},
    }


def per_call_ms(call, rounds: int) -> float:
    """The fastest round's seconds per call, in milliseconds; a round runs
    enough calls to take about 20 ms."""
    start = time.perf_counter()
    call()
    calls = max(1, int(0.02 / max(time.perf_counter() - start, 1e-7)))
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        for _ in range(calls):
            call()
        best = min(best, (time.perf_counter() - start) / calls)
    return best * 1e3


def cold_call_ms(call, rounds: int) -> float:
    """The median of five calls per round, each made right after
    ``gc.collect()``, in milliseconds."""
    times = []
    for _ in range(5 * rounds):
        gc.collect()
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


def rung_times(path: str, m: int, k: int, rounds: int) -> dict[str, float]:
    def load() -> dict:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)

    tree, doc = TreeParams(m, k), load()
    steps = {
        "json_load": load,
        "keyed_mu": lambda: keyed_levels(tree, k, doc["mu"], 1.0),
        "keyed_f": lambda: keyed_levels(tree, 0, doc["f"], 1.0),
        "load_instance": lambda: load_instance(path),
    }
    times = {name: round(per_call_ms(call, rounds), 3) for name, call in steps.items()}
    times["cold_load_instance"] = round(cold_call_ms(steps["load_instance"], rounds), 3)
    return times


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rounds", type=int, default=7, help="timed rounds per step")
    args = parser.parse_args()
    times = {}
    with tempfile.TemporaryDirectory() as workdir:
        for m, k in LADDER:
            path = os.path.join(workdir, f"m{m}k{k}.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(instance_doc(m, k), handle)
            times[f"m{m}k{k}"] = rung_times(path, m, k, args.rounds)
    print(json.dumps(times))
