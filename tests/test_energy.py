"""Interaction values and the two orbit-energy evaluators."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from joinforge import (
    Configuration,
    InstanceRanges,
    LevelFunction,
    ROOT,
    TreeParams,
    Vertex,
    WeightAssignment,
    interaction_value,
    orbit_enumerate,
    orbit_energy_bruteforce,
    orbit_energy_factorized,
    orbit_size,
    random_instance,
)
from joinforge.orbits import DEFAULT_ENUMERATION_GUARD

from conftest import exact_energy, per_vertex, unit_data, vx


def random_data(tree: TreeParams, rng: random.Random):
    weights = WeightAssignment(tree, [rng.uniform(0.1, 4.0) for _ in tree.leaves()])
    f = LevelFunction(tree, per_vertex(tree, lambda: rng.uniform(0.2, 3.0)))
    return weights, f


class TestInteractionValue:
    def test_worked_example_products(self, binary3, worked_config):
        f = LevelFunction.from_mapping(binary3, {"": 2.0, "1": 3.0, "2.1": 5.0}, default=1.0)
        assert interaction_value(f, worked_config) == pytest.approx(30.0)

    def test_single_particle_is_one(self, binary3):
        f = LevelFunction.constant(binary3, 7.0)
        config = Configuration(binary3, ROOT, (vx(1, 1, 1),))
        assert interaction_value(f, config) == 1.0

    def test_multiplicity_squares_the_factor(self, ternary2):
        # three particles splitting at the root: multiplicity 2 there
        config = Configuration(ternary2, ROOT, (vx(1, 1), vx(2, 1), vx(3, 1)))
        f = LevelFunction.from_mapping(ternary2, {"": 5.0}, default=1.0)
        assert interaction_value(f, config) == pytest.approx(25.0)


class TestBruteForce:
    def test_worked_example_units(self, worked_config):
        weights, f = unit_data(worked_config.tree)
        result = orbit_energy_bruteforce(worked_config, weights, f)
        assert result.value == 64.0
        assert result.terms == 64

    def test_zero_weights(self, worked_config):
        tree = worked_config.tree
        weights = WeightAssignment.constant(tree, 0.0)
        f = LevelFunction.constant(tree, 1.0)
        assert orbit_energy_bruteforce(worked_config, weights, f).value == 0.0

    def test_level_constant_factors(self, worked_config):
        # one join point per level 0, 1, 2 in every orbit member
        tree = worked_config.tree
        weights = WeightAssignment.constant(tree, 1.0)
        f = LevelFunction.by_level(tree, [2.0, 3.0, 5.0, 1.0])
        result = orbit_energy_bruteforce(worked_config, weights, f)
        assert result.value == pytest.approx(64 * 2.0 * 3.0 * 5.0, rel=1e-12)


class TestFactorized:
    def test_worked_example_units(self, worked_config):
        weights, f = unit_data(worked_config.tree)
        assert orbit_energy_factorized(worked_config, weights, f).value == 64.0

    def test_single_particle_returns_cylinder_mass(self, binary3):
        rng = random.Random(8)
        weights, f = random_data(binary3, rng)
        config = Configuration(binary3, vx(2), (vx(2, 1, 1),))
        expected = sum(weights.weight(p) for p in binary3.leaves_below(vx(2)))
        result = orbit_energy_factorized(config, weights, f)
        assert result.value == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize(
        "arity,depth,max_n", [(2, 3, 4), (3, 2, 4)], ids=["binary3", "ternary2"]
    )
    def test_matches_bruteforce_on_random_configs(self, arity, depth, max_n):
        tree = TreeParams(arity, depth)
        rng = random.Random(100 * arity + depth)
        leaves = list(tree.leaves())
        for trial in range(15):
            n = rng.randint(1, min(max_n, len(leaves)))
            config = Configuration(tree, ROOT, tuple(rng.sample(leaves, n)))
            weights, f = random_data(tree, rng)
            brute = orbit_energy_bruteforce(config, weights, f)
            fact = orbit_energy_factorized(config, weights, f)
            assert fact.value == pytest.approx(brute.value, rel=1e-12)
            assert fact.terms == brute.terms

    def test_matches_bruteforce_with_zero_weights(self, binary3):
        rng = random.Random(77)
        leaves = list(binary3.leaves())
        weights = WeightAssignment(
            binary3, [0.0 if rng.random() < 0.4 else rng.uniform(0.5, 2.0) for _ in leaves]
        )
        f = LevelFunction.constant(binary3, 1.3)
        for _ in range(8):
            config = Configuration(binary3, ROOT, tuple(rng.sample(leaves, 3)))
            brute = orbit_energy_bruteforce(config, weights, f).value
            fact = orbit_energy_factorized(config, weights, f).value
            if brute == 0.0:
                assert fact == 0.0
            else:
                assert fact == pytest.approx(brute, rel=1e-12)

    def test_off_root_base(self, binary3):
        rng = random.Random(13)
        weights, f = random_data(binary3, rng)
        config = Configuration(binary3, vx(1), (vx(1, 1, 1), vx(1, 2, 2)))
        brute = orbit_energy_bruteforce(config, weights, f)
        fact = orbit_energy_factorized(config, weights, f)
        assert fact.value == pytest.approx(brute.value, rel=1e-12)

    def test_invariant_under_orbit_member_choice(self, worked_config):
        rng = random.Random(21)
        weights, f = random_data(worked_config.tree, rng)
        reference = orbit_energy_factorized(worked_config, weights, f).value
        members = list(orbit_enumerate(worked_config))
        for member in rng.sample(members, 10):
            assert orbit_energy_factorized(member, weights, f).value == reference


# the stars of the benchmark's wide-star workload: d particles below distinct
# children of the root of a k=2 tree of arity m
WIDE_STARS = [(m, d) for m in (7, 8, 9) for d in (m - 2, m - 1, m)]


def wide_star(m: int, d: int):
    """A k=2 star with log-uniform weights (5% exactly zero) and ``f``, as the
    benchmark draws them, from a generator seeded by the shape."""
    rng = random.Random(f"star/{m}/{d}")
    tree = TreeParams(m, 2)
    particles = tuple(vx(c, rng.randint(1, m)) for c in rng.sample(range(1, m + 1), d))

    def log_uniform() -> float:
        return 10.0 ** rng.uniform(-3.0, 3.0)

    weights = [0.0 if rng.random() < 0.05 else log_uniform() for _ in tree.leaves()]
    f = per_vertex(tree, log_uniform)
    return Configuration(tree, ROOT, particles), WeightAssignment(tree, weights), LevelFunction(tree, f)


def star_closed_form(config, weights, f) -> Fraction:
    """``f(root)**(d-1) * d! * e_d(M_1..M_m)``, with ``M_c`` the exact mass
    below child ``c``: each injective map weighted by the chosen masses."""
    m, d = config.tree.arity, config.n
    leaves = [Fraction(x) for x in weights.leaf_array.tolist()]
    masses = [sum(leaves[c * m : (c + 1) * m], Fraction(0)) for c in range(m)]
    e = [Fraction(1)] + [Fraction(0)] * d
    for x in masses:
        for j in range(d, 0, -1):
            e[j] += e[j - 1] * x
    return Fraction(f(ROOT)) ** (d - 1) * math.factorial(d) * e[d]


def sequential_sum_bound(m: int, d: int) -> float:
    """A-priori relative error of the factorized energy of a k=2 star:
    ``gamma_n = n*u / (1 - n*u)`` with ``u = 2**-53`` over ``n`` roundings
    on the way to each term.  The masses add ``m`` leaves from zero (``m - 1``
    roundings each, ``d`` masses a term), a term multiplies ``d`` masses
    (``d - 1``), the injective sum adds ``m!/(m-d)!`` positive terms one at
    a time (one fewer), and ``f(root)**(d-1)``, Python's power within one
    ulp (two), multiplies the sum (one)."""
    u = 2.0**-53
    n = d * (m - 1) + (d - 1) + (math.perm(m, d) - 1) + 3
    return n * u / (1.0 - n * u)


def relative_error(value: float, exact: Fraction) -> float:
    return float(abs(Fraction(value) - exact) / exact) if exact else float(value != 0.0)


class TestExactOracle:
    def test_matches_bruteforce_on_random_configs(self, binary3, ternary2):
        # the oracle's recursion against the enumerated orbit, on small trees
        rng = random.Random(5)
        for tree in (binary3, ternary2, TreeParams(4, 2)):
            leaves = list(tree.leaves())
            for _ in range(6):
                config = Configuration(tree, ROOT, tuple(rng.sample(leaves, rng.randint(1, 4))))
                weights, f = random_data(tree, rng)
                brute = orbit_energy_bruteforce(config, weights, f).value
                assert relative_error(brute, exact_energy(config, weights, f)) <= 1e-12

    @pytest.mark.parametrize("m, d", WIDE_STARS)
    def test_star_closed_form(self, m, d):
        config, weights, f = wide_star(m, d)
        assert exact_energy(config, weights, f) == star_closed_form(config, weights, f)

    @pytest.mark.parametrize(
        "ranges",
        [InstanceRanges(), InstanceRanges(arities=(2,), max_depth=5, max_particles=7)],
        ids=["general", "binary"],
    )
    def test_factorized_within_tolerance_on_small_instances(self, ranges):
        for seed in range(40):
            inst = random_instance(seed, ranges)
            exact = exact_energy(inst.config, inst.weights, inst.f)
            value = orbit_energy_factorized(inst.config, inst.weights, inst.f).value
            assert relative_error(value, exact) <= 1e-12, seed

    def test_factorized_within_tolerance_off_root(self):
        tree = TreeParams(3, 3)
        rng = random.Random(31)
        weights, f = random_data(tree, rng)
        leaves = list(tree.leaves_below(vx(2)))
        for n in (2, 3, 4, 5):
            config = Configuration(tree, vx(2), tuple(rng.sample(leaves, n)))
            value = orbit_energy_factorized(config, weights, f).value
            assert relative_error(value, exact_energy(config, weights, f)) <= 1e-12

    @pytest.mark.parametrize("m, d", WIDE_STARS)
    def test_wide_star_within_sequential_sum_bound(self, m, d):
        config, weights, f = wide_star(m, d)
        value = orbit_energy_factorized(config, weights, f).value
        error = relative_error(value, star_closed_form(config, weights, f))
        assert error <= sequential_sum_bound(m, d), (error, sequential_sum_bound(m, d))


class TestEnergyProperties:
    @given(c=st.floats(min_value=0.1, max_value=10.0))
    @settings(max_examples=25, deadline=None)
    def test_weight_homogeneity_degree_n(self, c):
        tree = TreeParams(2, 3)
        config = Configuration(tree, ROOT, (vx(1, 1, 1), vx(1, 2, 1), vx(2, 1, 1)))
        rng = random.Random(3)
        weights, f = random_data(tree, rng)
        base = orbit_energy_factorized(config, weights, f).value
        scaled_weights = WeightAssignment(tree, weights.leaf_array * c)
        scaled = orbit_energy_factorized(config, scaled_weights, f).value
        assert scaled == pytest.approx(c**config.n * base, rel=1e-10)

    @given(c=st.floats(min_value=0.1, max_value=10.0))
    @settings(max_examples=25, deadline=None)
    def test_f_homogeneity_degree_n_minus_one(self, c):
        tree = TreeParams(2, 3)
        config = Configuration(tree, ROOT, (vx(1, 1, 1), vx(1, 2, 1), vx(2, 1, 1)))
        rng = random.Random(4)
        weights, f = random_data(tree, rng)
        base = orbit_energy_factorized(config, weights, f).value
        scaled_f = LevelFunction(tree, np.concatenate(f.levels) * c)
        scaled = orbit_energy_factorized(config, weights, scaled_f).value
        assert scaled == pytest.approx(c ** (config.n - 1) * base, rel=1e-10)

    def test_monotone_in_f_and_weights(self, binary3):
        rng = random.Random(6)
        weights, f = random_data(binary3, rng)
        config = Configuration(
            binary3, ROOT, (vx(1, 1, 1), vx(1, 2, 1), vx(2, 1, 1), vx(2, 2, 2))
        )
        base = orbit_energy_factorized(config, weights, f).value
        for v in [ROOT, vx(1), vx(2, 1), vx(1, 1, 1)]:
            levels = [array.copy() for array in f.levels]
            levels[v.level][binary3.rank(v.word)] *= 2.0
            bump_f = LevelFunction(binary3, np.concatenate(levels))
            assert orbit_energy_factorized(config, weights, bump_f).value >= base
        for leaf in [vx(1, 1, 1), vx(2, 2, 2)]:
            leaf_array = weights.leaf_array.copy()
            leaf_array[binary3.rank(leaf.word)] += 1.0
            bump_w = WeightAssignment(binary3, leaf_array)
            assert orbit_energy_factorized(config, bump_w, f).value >= base


@st.composite
def small_instances(draw):
    """Configuration, weights (some exactly zero) and f on a small tree."""
    m = draw(st.sampled_from([2, 3, 4]))
    tree = TreeParams(m, draw(st.integers(1, 3)))
    base = Vertex(tuple(draw(st.lists(st.integers(1, m), max_size=min(1, tree.depth)))))
    below = list(tree.leaves_below(base))
    n = draw(st.integers(1, min(4, len(below))))
    particles = draw(st.lists(st.sampled_from(below), min_size=n, max_size=n, unique=True))
    config = Configuration(tree, base, tuple(particles))
    assume(orbit_size(config) <= 3000)  # keeps the brute-force sum short
    # orbit_enumerate refuses a scan of more ordered tuples than its guard
    assume(math.perm(len(below), n) <= DEFAULT_ENUMERATION_GUARD)
    weight = st.one_of(st.just(0.0), st.floats(0.01, 100.0))
    leaf_array = np.array(draw(st.lists(weight, min_size=m**tree.depth, max_size=m**tree.depth)))
    levels = [
        np.array(draw(st.lists(st.floats(0.1, 10.0), min_size=m**level, max_size=m**level)))
        for level in range(tree.depth + 1)
    ]
    return config, WeightAssignment(tree, leaf_array), LevelFunction(tree, np.concatenate(levels))


@given(instance=small_instances())
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
def test_factorized_matches_bruteforce_property(instance):
    config, weights, f = instance
    brute = orbit_energy_bruteforce(config, weights, f)
    fact = orbit_energy_factorized(config, weights, f)
    assert fact.terms == brute.terms
    assert abs(fact.value - brute.value) <= 1e-12 * brute.value
