"""Seeded instances read the random stream in bulk, draw for draw as one at a time.

``one_draw_at_a_time`` makes one ``rng`` call per particle word, per zero
test, per leaf weight, per value of ``f`` and per exponent draw: that order
defines the seeded stream.  It is the oracle for the library's bulk reads,
which must give the same instance for every seed.  It calls nothing of
``random_instance``'s, and floors the reciprocals with ``np.clip``.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from joinforge import (
    ROOT,
    Configuration,
    ExponentAssignment,
    Instance,
    InstanceRanges,
    LevelFunction,
    TreeParams,
    Vertex,
    WeightAssignment,
    extract_shape,
    random_instance,
)
import joinforge.verify as verify_mod


def one_draw_at_a_time(seed: int, ranges: InstanceRanges) -> Instance:
    rng = np.random.default_rng(seed)
    m = int(ranges.arities[int(rng.integers(0, len(ranges.arities)))])
    k = int(rng.integers(1, ranges.max_depth + 1))
    n = int(rng.integers(2, min(ranges.max_particles, m**k) + 1))
    tree = TreeParams(m, k)

    chosen: list[Vertex] = []
    seen: set[tuple[int, ...]] = set()
    while len(chosen) < n:
        word = tuple(int(s) for s in rng.integers(1, m + 1, size=k))
        if word not in seen:
            seen.add(word)
            chosen.append(Vertex(word))
    config = Configuration(tree, ROOT, tuple(chosen))

    w_lo, w_hi = math.log10(verify_mod.WEIGHT_LOW), math.log10(verify_mod.WEIGHT_HIGH)
    mu = np.zeros(tree.leaf_count)
    mu[:] = [
        0.0 if rng.random() < verify_mod.ZERO_WEIGHT_PROB else 10.0 ** rng.uniform(w_lo, w_hi)
        for _ in range(mu.size)
    ]
    f_lo, f_hi = math.log10(verify_mod.F_LOW), math.log10(verify_mod.F_HIGH)
    f_values = np.zeros(tree.vertex_count)  # root first, each level in rank order
    f_values[:] = [10.0 ** rng.uniform(f_lo, f_hi) for _ in range(f_values.size)]

    shape = extract_shape(config)
    if ranges.regime == "binary_optimal":
        exponents = binary_optimal_one_draw_at_a_time(shape, rng)
    else:
        reciprocals = np.clip(rng.dirichlet(np.ones(n - 1)), 1e-12, None)
        reciprocals = reciprocals / reciprocals.sum()
        exponents = ExponentAssignment(tuple(float(1.0 / q) for q in reciprocals))
    return Instance(
        config=config,
        weights=WeightAssignment(tree, mu),
        f=LevelFunction(tree, f_values),
        exponents=exponents,
        regime=ranges.regime,
        seed=seed,
    )


def binary_optimal_one_draw_at_a_time(shape, rng: np.random.Generator) -> ExponentAssignment:
    """The binary-optimal exponents: one budget per top branch that owns a
    slot, each below one half, then each such branch's share of its budget
    from a flat Dirichlet draw floored at 1e-12, and the rest to the top
    slot."""
    counts = [branch.n_particles - 1 for branch in shape.branches]
    budgets = []
    for t in counts:
        budgets.append(float(rng.uniform(0.05, 0.495)) if t > 0 else 0.0)
    reciprocals = [1.0 - sum(budgets)]
    for t, budget in zip(counts, budgets):
        if t > 0:
            parts = np.clip(rng.dirichlet(np.ones(t)), 1e-12, None)
            parts = parts * (budget / parts.sum())
            reciprocals.extend(float(x) for x in parts)
    return ExponentAssignment(tuple(1.0 / q for q in reciprocals))


def assert_same_instances(seeds: range, ranges: InstanceRanges) -> None:
    for seed in seeds:
        bulk = random_instance(seed, ranges)
        oracle = one_draw_at_a_time(seed, ranges)
        assert bulk.to_json_dict() == oracle.to_json_dict(), seed
        assert bulk.shape == oracle.shape, seed


# the fuzz defaults (k <= 4, n <= 6); binary-optimal samples binary trees only
SMALL = {
    "general": InstanceRanges(arities=(2, 3), max_depth=4, max_particles=6),
    "binary_optimal": InstanceRanges(arities=(2,), max_depth=4, max_particles=6,
                                     regime="binary_optimal"),
    "inductive": InstanceRanges(arities=(2, 3), max_depth=4, max_particles=6,
                                regime="inductive"),
}
WIDE = {
    "general": InstanceRanges(arities=(2, 3, 4, 5, 6), max_depth=5, max_particles=9),
    "binary_optimal": InstanceRanges(arities=(2,), max_depth=8, max_particles=9,
                                     regime="binary_optimal"),
    "inductive": InstanceRanges(arities=(2, 3, 4, 5, 6), max_depth=5, max_particles=9,
                                regime="inductive"),
}


@pytest.mark.parametrize("regime", sorted(SMALL))
@pytest.mark.parametrize("start", [0, 10**6], ids=["from-0", "from-1e6"])
def test_small_ranges_match_one_draw_at_a_time(regime, start):
    assert_same_instances(range(start, start + 1000), SMALL[regime])


@pytest.mark.parametrize("regime", sorted(WIDE))
@pytest.mark.parametrize("start", [0, 3 * 10**6], ids=["from-0", "from-3e6"])
def test_wide_ranges_match_one_draw_at_a_time(regime, start):
    assert_same_instances(range(start, start + 60), WIDE[regime])


def test_duplicate_words_redrawn_in_order():
    # two leaves and two particles: the first pair of words repeats often,
    # and the words drawn one at a time after it must follow the same stream
    ranges = InstanceRanges(arities=(2,), max_depth=1, max_particles=2)
    assert_same_instances(range(200), ranges)


@pytest.mark.parametrize("prob", [0.0, 0.5, 1.0], ids=["none-zero", "half-zero", "all-zero"])
def test_zero_weight_share(monkeypatch, prob):
    # every leaf weighted, about half, and none (no weight double is kept)
    monkeypatch.setattr(verify_mod, "ZERO_WEIGHT_PROB", prob)
    assert_same_instances(range(100), SMALL["general"])


# `verify._flat_dirichlet` against numpy's own Dirichlet draw; the oracle
# above keeps calling `rng.dirichlet`, so it does not lean on the helper
@pytest.mark.parametrize("t", range(1, 41))  # numpy's sum is pairwise from 8 terms
def test_flat_dirichlet_is_numpys_bit_for_bit(t):
    for seed in range(500):
        ours, numpys = np.random.default_rng(seed), np.random.default_rng(seed)
        got = verify_mod._flat_dirichlet(ours, t)
        assert got.tobytes() == numpys.dirichlet(np.ones(t)).tobytes(), seed
        assert ours.random() == numpys.random(), seed
        assert ours.integers(0, 2**40) == numpys.integers(0, 2**40), seed


@pytest.mark.parametrize("size", [1, 3, 4])
def test_flat_dirichlet_keeps_a_buffered_integer_stream(size):
    # 32-bit integer draws leave half a 64-bit word buffered, as a
    # seed's word draws do; the draws after the helper read it alike
    for seed in range(200):
        ours, numpys = np.random.default_rng(seed), np.random.default_rng(seed)
        for rng in (ours, numpys):
            rng.integers(1, 4, size=size)
        got = verify_mod._flat_dirichlet(ours, 3)
        assert got.tobytes() == numpys.dirichlet(np.ones(3)).tobytes(), seed
        assert (ours.integers(1, 4, size=5) == numpys.integers(1, 4, size=5)).all(), seed
        assert ours.random() == numpys.random(), seed


def test_lone_top_branches_draw_no_budget():
    # two particles, one under each top branch: the only slot is the top
    # node's, so no budget and no Dirichlet point is drawn
    tree = TreeParams(2, 3)
    config = Configuration(tree, ROOT, (Vertex((1, 2, 1)), Vertex((2, 1, 1))))
    rng = np.random.default_rng(7)
    state = rng.bit_generator.state
    exponents = verify_mod._random_exponents(config, "binary_optimal", rng)
    assert exponents.exponents == (1.0,)
    assert rng.bit_generator.state == state
