"""Per-call time of each stage of a fuzz seed, on fixed seeds per regime.

A fuzz seed builds a random instance and checks the inequality on it.
Each regime (general and inductive at m 2 and 3, binary-optimal at m 2,
with the fuzz defaults k <= 4 and n <= 6) draws its instances once from
the seeds ``SEEDS``, and then each stage is timed in rounds over all of
them:

- ``random_instance``: drawing the instance;
- ``extract_shape`` and ``join_nodes``: the shape, and the one walk over
  its join nodes (``orbits._join_nodes``);
- ``cylinder_masses`` and ``factorized_from_shape``: the masses, and the
  left side from the shape and the masses;
- ``constant``: the regime's constant (``regime_constant``, the shape's
  walk already cached, as in a check);
- ``muirhead_numeric``: the estimator on each symmetric sum the inductive
  constant estimates (inductive only; ``numeric_per_seed`` says how many
  there are per seed);
- ``rhs_product``: the right side;
- ``check``: ``check_inequality`` with the shape, its walk and the masses
  already cached;
- ``check_glue``: ``check`` less ``factorized_from_shape``, ``constant``
  and ``rhs_product``, which leaves the report, its metadata, the exponent
  check, the orbit size and the calls between them;
- ``seed``: ``check_inequality(random_instance(seed))``, the whole seed;
- ``interleaved_draw`` and ``interleaved_check``: the two halves of the
  whole seed, timed apart inside one loop over the seeds, as a campaign
  runs them.

A seed costs more than ``random_instance``, ``extract_shape``,
``join_nodes``, ``cylinder_masses`` and ``check`` timed alone add up to,
since a stage that runs over and over finds its code and data warm; the
interleaved pair shows which half the difference falls on.

The fastest round's time per call is printed, so that noise from other
processes only ever adds.  Run with the package on the path:

    PYTHONPATH=src python tests/seed_ladder.py [--rounds R]

It prints one JSON object mapping each regime to its stages' times in
microseconds.  pytest does not collect this file.
"""

import argparse
import gc
import json
import math
import time

from joinforge.bounds import (
    MuirheadSpec,
    k_inductive,
    muirhead_numeric,
    regime_constant,
    rhs_product,
)
from joinforge.energy import factorized_from_shape
from joinforge.orbits import _join_nodes, extract_shape
from joinforge.tree import cylinder_masses
from joinforge.verify import InstanceRanges, check_inequality, random_instance

SEEDS = range(1000, 1300)
REGIMES = {
    "general": InstanceRanges(arities=(2, 3), regime="general"),
    "binary_optimal": InstanceRanges(arities=(2,), regime="binary_optimal"),
    "inductive": InstanceRanges(arities=(2, 3), regime="inductive"),
}


def per_call_us(calls: list, rounds: int) -> float:
    """The fastest round's seconds per call, in microseconds; a round makes
    every call of ``calls`` once, each a function of no arguments."""
    best = float("inf")
    for _ in range(rounds):
        gc.collect()
        start = time.perf_counter()
        for call in calls:
            call()
        best = min(best, (time.perf_counter() - start) / len(calls))
    return best * 1e6


def interleaved_us(ranges: InstanceRanges, rounds: int) -> tuple[float, float]:
    """The draw and the check of each seed of ``SEEDS``, timed apart inside
    one loop over the seeds; the fastest round by their total, each half in
    microseconds per seed."""
    clock = time.perf_counter
    best = (math.inf, math.inf)
    for _ in range(rounds):
        gc.collect()
        draw = check = 0.0
        for seed in SEEDS:
            start = clock()
            inst = random_instance(seed, ranges)
            drawn = clock()
            check_inequality(inst)
            check += clock() - drawn
            draw += drawn - start
        if draw + check < sum(best):
            best = (draw, check)
    return best[0] / len(SEEDS) * 1e6, best[1] / len(SEEDS) * 1e6


def estimated_specs(inst) -> list[MuirheadSpec]:
    """The symmetric sums whose constants ``k_inductive`` estimates on the
    instance, rebuilt from its ledger."""
    m = inst.tree.arity
    ledger = k_inductive(inst.shape, inst.exponents, m).ledger
    return [
        MuirheadSpec(tuple(a / e.beta_inv for a in e.alpha_inv) + (0.0,) * (m - e.degree))
        for e in ledger
        if e.estimated
    ]


def regime_times(regime: str, ranges: InstanceRanges, rounds: int) -> dict[str, float]:
    instances = [random_instance(seed, ranges) for seed in SEEDS]
    for inst in instances:  # the stages after the shape and the masses read both cached
        inst.shape.join_nodes, inst.weights.masses
    stages = {
        "random_instance": [lambda s=s: random_instance(s, ranges) for s in SEEDS],
        "extract_shape": [lambda c=i.config: extract_shape(c) for i in instances],
        "join_nodes": [lambda s=i.shape: _join_nodes(s) for i in instances],
        "cylinder_masses": [lambda i=i: cylinder_masses(i.tree, i.weights) for i in instances],
        "factorized_from_shape": [
            lambda i=i: factorized_from_shape(i.tree, i.base, i.shape, i.weights.masses, i.f)
            for i in instances
        ],
        "constant": [
            lambda i=i: regime_constant(i.shape, i.exponents, i.tree.arity, regime)
            for i in instances
        ],
        "rhs_product": [
            lambda i=i, k=regime_constant(i.shape, i.exponents, i.tree.arity, regime)[0]: (
                rhs_product(i.tree, i.weights.masses, i.f, i.base, i.shape, i.exponents, k)
            )
            for i in instances
        ],
        "check": [lambda i=i: check_inequality(i) for i in instances],
        "seed": [lambda s=s: check_inequality(random_instance(s, ranges)) for s in SEEDS],
    }
    times = {name: round(per_call_us(calls, rounds), 2) for name, calls in stages.items()}
    parts = times["factorized_from_shape"] + times["constant"] + times["rhs_product"]
    times["check_glue"] = round(times["check"] - parts, 2)
    draw, check = interleaved_us(ranges, rounds)
    times["interleaved_draw"], times["interleaved_check"] = round(draw, 2), round(check, 2)
    if regime == "inductive":
        specs = [spec for i in instances for spec in estimated_specs(i)]
        times["muirhead_numeric"] = round(
            per_call_us([lambda s=s: muirhead_numeric(s) for s in specs], rounds), 2
        )
        times["numeric_per_seed"] = round(len(specs) / len(instances), 3)
    return times


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rounds", type=int, default=7, help="timed rounds per stage")
    args = parser.parse_args()
    times = {name: regime_times(name, ranges, args.rounds) for name, ranges in REGIMES.items()}
    print(json.dumps(times))
