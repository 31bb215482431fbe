"""Exponent validation, level power sums, constant regimes, symmetric sums."""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
import random
import re
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from joinforge import (
    Configuration,
    ConfigurationError,
    ExponentAssignment,
    InstanceRanges,
    LevelFunction,
    MuirheadSpec,
    NodeAccount,
    ROOT,
    ShapeLeaf,
    TreeParams,
    Vertex,
    WeightAssignment,
    cosh_ratio,
    cylinder_masses,
    extract_shape,
    k_inductive,
    level_power_sum,
    muirhead_closed_form,
    muirhead_numeric,
    orbit_enumerate,
    random_instance,
    regime_constant,
    rhs_product,
    shape_join_levels,
    shape_orbit_size,
    symmetric_sum,
    validate_exponents,
)

from joinforge import bounds
from joinforge.bounds import _grid_coordinates
from joinforge.orbits import injective_sum

from conftest import per_vertex, vx


def reference_symmetric_sum(x, a):
    """The permutation loop as first written: every factor, ``0**0 = 1``."""
    total = 0.0
    for sigma in itertools.permutations(range(len(a))):
        term = 1.0
        for i, j in enumerate(sigma):
            term *= 1.0 if a[i] == 0.0 else float(x[j]) ** a[i]
        total += term
    return total


def grid_sums(points, a):
    """The symmetric sum at each row of ``points``: each point's own powers,
    one injective-sum column per point (numpy's 0**0 is 1)."""
    return injective_sum(points.T[None] ** np.array(a)[:, None, None])


def reference_grid(m, n_grid):
    """Stars-and-bars compositions plus centre, vertices and edge midpoints.

    Every composition in every order; the estimator keeps the sorted ones.
    """
    bars = np.array(list(itertools.combinations(range(n_grid + m - 1), m - 1)))
    points = (np.diff(bars, axis=1, prepend=-1, append=n_grid + m - 1) - 1) / n_grid
    extras = [np.full(m, 1.0 / m)]
    extras.extend(np.eye(m)[i] for i in range(m))
    for i, j in itertools.combinations(range(m), 2):
        x = np.zeros(m)
        x[i] = x[j] = 0.5
        extras.append(x)
    return np.vstack([points, np.array(extras)])


@functools.cache
def reference_chamber(m, n_grid):
    """Compositions of ``n_grid`` into ``m`` nonincreasing parts, over ``n_grid``.

    The full grid up to permutation, which leaves a symmetric sum unchanged,
    built by recursion rather than by filtering stars and bars.
    """

    def parts(total, slots, cap):
        if slots == 1:
            if total <= cap:
                yield (total,)
            return
        for first in range(min(total, cap), -1, -1):
            if first * slots < total:
                break
            for rest in parts(total - first, slots - 1, first):
                yield (first,) + rest

    return np.array(list(parts(n_grid, m, n_grid)), dtype=float) / n_grid


def case_ii_specs(m, zeros, count, seed):
    """Random bracket-only exponent vectors with ``zeros`` trailing zeros."""
    rng = random.Random(seed)
    specs = []
    while len(specs) < count:
        live = [rng.uniform(0.0, 3.0) for _ in range(m - zeros)]
        spec = MuirheadSpec(tuple(live) + (0.0,) * zeros)
        if spec.s > 0.0 and muirhead_closed_form(spec).case == "ii":
            specs.append(spec)
    return specs


@pytest.fixture(scope="module")
def worked_shape(worked_config):
    return extract_shape(worked_config)


def eight_particle_ternary_config():
    tree = TreeParams(3, 3)
    particles = (
        vx(1, 1, 1), vx(1, 2, 1), vx(1, 3, 1), vx(1, 3, 2),
        vx(2, 1, 1), vx(2, 2, 1), vx(2, 3, 1), vx(2, 3, 2),
    )
    return Configuration(tree, ROOT, particles)


class TestSlots:
    def test_worked_example_slots(self, worked_shape):
        # children first; slots in preorder, the top node's before its branches'
        records = worked_shape.join_nodes
        assert [r.path for r in records] == [(0,), (1,), ()]
        assert [r.slots for r in records] == [range(1, 2), range(2, 3), range(0, 1)]
        assert [r.offset for r in records] == [1, 2, 0]
        assert [r.children for r in records] == [(None, None), (None, None), (0, 1)]
        assert shape_join_levels(worked_shape, 0) == [0, 1, 2]

    def test_multiplicity_two_owns_two_slots(self):
        config = eight_particle_ternary_config()
        shape = extract_shape(config)
        records = shape.join_nodes
        assert sum(len(r.slots) for r in records) == config.n - 1 == 7
        assert [len(r.slots) for r in records if r.degree == 3] == [2, 2]
        slots = sorted(slot for r in records for slot in r.slots)
        assert slots == list(range(7))

    def test_a_leaf_has_no_join_nodes(self):
        shape = extract_shape(Configuration(TreeParams(2, 2), ROOT, (vx(1, 1),)))
        assert shape.join_nodes == ()
        assert shape_join_levels(shape, 0) == []

    def test_walk_facts(self, worked_shape):
        # one walk gives the slots' offsets, the free levels and the widest node;
        # the free levels are the leaf level under each particle of the first
        # branch and the level of the second branch's join node
        walk = worked_shape.walk
        assert walk is worked_shape.walk  # made once
        assert walk.nodes == worked_shape.join_nodes
        assert walk.slot_offsets == (0, 1, 2)
        assert (walk.free_levels, walk.max_degree) == (3, 2)
        assert shape_orbit_size(worked_shape, 2) == 2**3 * 2**3 == 64
        assert [r.degree for r in walk.nodes] == [2, 2, 2]

    def test_node_wider_than_the_arity_refused(self):
        shape = extract_shape(eight_particle_ternary_config())
        with pytest.raises(ConfigurationError, match="join node with 3 branches exceeds arity 2"):
            shape_orbit_size(shape, 2)


class TestValidateExponents:
    def test_conjugate_triple_ok(self, worked_shape):
        assert validate_exponents(worked_shape, ExponentAssignment((3.0, 3.0, 3.0))) is None

    def test_count_mismatch(self, worked_shape):
        violation = validate_exponents(worked_shape, ExponentAssignment((2.0, 2.0)))
        assert violation is not None and violation.constraint == "count"

    def test_conjugacy_residual(self, worked_shape):
        # 1/4 + 1/4 + 1/3 = 10/12, one sixth short of 1
        violation = validate_exponents(worked_shape, ExponentAssignment((4.0, 4.0, 3.0)))
        assert violation is not None and violation.constraint == "conjugacy"
        assert violation.residual == pytest.approx(1.0 / 6.0, rel=1e-12)

    def test_positivity(self, worked_shape):
        violation = validate_exponents(worked_shape, ExponentAssignment((3.0, -3.0, 3.0)))
        assert violation is not None and violation.constraint == "positivity"

    @pytest.mark.parametrize(
        "exponents, constraint, message",
        [
            ((math.inf, 1.0, 1.0e300), "finiteness", "exponents must be finite, found [inf]"),
            ((math.inf, math.nan, 2.0), "positivity", "exponents must be positive, found [nan]"),
            ((-math.inf, 2.0, 2.0), "positivity", "exponents must be positive, found [-inf]"),
        ],
        ids=["inf", "inf-and-nan", "minus-inf"],
    )
    def test_nonfinite(self, worked_shape, exponents, constraint, message):
        violation = validate_exponents(worked_shape, ExponentAssignment(exponents))
        assert (violation.constraint, violation.message) == (constraint, message)
        assert violation.residual == 1.0

    def test_coexponent_enters_the_sum(self, worked_shape):
        pa = ExponentAssignment((6.0, 6.0, 6.0), coexponent=0.5)
        assert validate_exponents(worked_shape, pa) is None

    def test_coexponent_range(self):
        with pytest.raises(ConfigurationError):
            ExponentAssignment((2.0, 2.0), coexponent=1.5)

    @pytest.mark.parametrize(
        "exponents, coexponent, message",
        [
            (("3", True, 1.5), 0.0, "an exponent must be a JSON number, got '3'"),
            ((2.0, True), 0.0, "an exponent must be a JSON number, got True"),
            ((2.0, np.bool_(True)), 0.0, "an exponent must be a JSON number"),
            ((2.0,), "0.5", "the coexponent must be a JSON number, got '0.5'"),
            ((10**400,), 0.0, "an exponent is too large for a float"),
            ((2.0,), 10**400, "the coexponent is too large for a float"),
        ],
        ids=["string", "bool", "numpy-bool", "string-coexponent", "huge-int", "huge-coexponent"],
    )
    def test_values_read_by_the_map_value_rule(self, exponents, coexponent, message):
        with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}"):
            ExponentAssignment(exponents, coexponent=coexponent)

    def test_integers_and_numpy_scalars_are_numbers(self):
        pa = ExponentAssignment((3, np.int64(2), np.float32(1.5), np.float64(6.0)), np.float64(0.5))
        assert pa.exponents == (3.0, 2.0, 1.5, 6.0) and pa.coexponent == 0.5
        assert all(type(p) is float for p in pa.exponents + (pa.coexponent,))

    def test_a_tuple_of_floats_is_held_as_given(self):
        given = (3.0, 1.5, 3.0)
        assert ExponentAssignment(given).exponents is given
        from_list = ExponentAssignment([3.0, 1.5, 3.0]).exponents
        assert type(from_list) is tuple and from_list == given

    @pytest.mark.skipif(
        np.finfo(np.longdouble).max <= np.finfo(np.float64).max,
        reason="longdouble is no wider than float64 here",
    )
    def test_wider_float_beyond_the_float_range_refused(self):
        with pytest.raises(ConfigurationError, match="an exponent is too large for a float"):
            ExponentAssignment((np.longdouble("1e4000"),))
        with pytest.raises(ConfigurationError, match="an exponent is too large for a float"):
            MuirheadSpec((np.longdouble("1e4000"), 0.0))


class TestLevelPowerSum:
    def test_level_one_binary_units(self, binary3):
        masses = cylinder_masses(binary3, WeightAssignment.constant(binary3))
        f = LevelFunction.constant(binary3)
        for p in (0.5, 1.0, 3.0, 7.5):
            expected = 2 * 4.0 ** (1.0 + p)
            got = level_power_sum(binary3, masses, f, ROOT, 1, p)
            assert got == pytest.approx(expected, rel=1e-12)

    def test_level_zero_single_vertex(self, binary3):
        masses = cylinder_masses(binary3, WeightAssignment.constant(binary3))
        f = LevelFunction.from_mapping(binary3, {"": 2.5}, default=1.0)
        p = 3.0
        got = level_power_sum(binary3, masses, f, ROOT, 0, p)
        assert got == pytest.approx(2.5**p * 8.0 ** (1.0 + p), rel=1e-12)

    def test_zero_weights_vanish(self, binary3):
        masses = cylinder_masses(binary3, WeightAssignment.constant(binary3, 0.0))
        f = LevelFunction.constant(binary3)
        assert level_power_sum(binary3, masses, f, ROOT, 2, 1.5) == 0.0

    def test_level_out_of_range(self, binary3):
        masses = cylinder_masses(binary3, WeightAssignment.constant(binary3))
        f = LevelFunction.constant(binary3)
        with pytest.raises(ConfigurationError):
            level_power_sum(binary3, masses, f, vx(1), 0, 2.0)

    def test_restricted_below_base(self, binary3):
        weights = WeightAssignment.from_mapping(binary3, {"1.1.1": 3.0}, default=1.0)
        masses = cylinder_masses(binary3, weights)
        f = LevelFunction.constant(binary3)
        # below vertex 2 the bumped leaf is invisible
        got = level_power_sum(binary3, masses, f, vx(2), 2, 1.0)
        assert got == pytest.approx(2 * 2.0**2, rel=1e-12)

    def test_sum_beyond_float_range_refused(self, binary3):
        # two masses of 4e300 to the power 4
        masses = WeightAssignment.constant(binary3, 1e300).masses
        f = LevelFunction.constant(binary3)
        with pytest.raises(ConfigurationError, match="exceeds the float range"):
            level_power_sum(binary3, masses, f, ROOT, 1, 3.0)


class TestRhsProduct:
    def test_worked_example_value(self, binary3, worked_shape):
        masses = cylinder_masses(binary3, WeightAssignment.constant(binary3))
        f = LevelFunction.constant(binary3)
        pa = ExponentAssignment((3.0, 3.0, 3.0))
        got = rhs_product(binary3, masses, f, ROOT, worked_shape, pa, 0.125)
        expected = 0.125 * (8.0**4) ** (1 / 3) * (2 * 4.0**4) ** (1 / 3) * (4 * 2.0**4) ** (1 / 3)
        assert expected == pytest.approx(64.0, rel=1e-12)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_zero_constant(self, binary3, worked_shape):
        masses = cylinder_masses(binary3, WeightAssignment.constant(binary3))
        f = LevelFunction.constant(binary3)
        pa = ExponentAssignment((3.0, 3.0, 3.0))
        assert rhs_product(binary3, masses, f, ROOT, worked_shape, pa, 0.0) == 0.0

    def test_weight_homogeneity_degree_n(self, binary3, worked_shape):
        rng = random.Random(2)
        weights = WeightAssignment(binary3, [rng.uniform(0.2, 3.0) for _ in binary3.leaves()])
        f = LevelFunction(binary3, per_vertex(binary3, lambda: rng.uniform(0.2, 3.0)))
        pa = ExponentAssignment((2.0, 4.0, 4.0))
        one = rhs_product(binary3, cylinder_masses(binary3, weights), f, ROOT, worked_shape, pa, 1.0)
        doubled = WeightAssignment(binary3, weights.leaf_array * 2.0)
        two = rhs_product(binary3, doubled.masses, f, ROOT, worked_shape, pa, 1.0)
        assert two == pytest.approx(2.0**4 * one, rel=1e-10)

    def test_one_particle_has_no_slot(self, binary3):
        # no slot: the right side is K times the base mass to the coexponent 1,
        # through the log domain, which gives 10.000000000000002 for 10
        weights = WeightAssignment(binary3, [1.0, 0.0, 3.0, 0.0, 0.0, 6.0, 0.0, 0.0])
        config = Configuration(binary3, ROOT, (vx(1, 2, 1),))
        pa = ExponentAssignment((), 1.0)
        assert validate_exponents(config.shape, pa) is None
        f = LevelFunction.constant(binary3)
        got = rhs_product(binary3, weights.masses, f, ROOT, config.shape, pa, 0.5)
        assert got == 0.5 * math.exp(math.log(10.0)) == 5.000000000000001
        assert bounds._log_level_power_sums(binary3, weights.masses, f, ROOT, [], []) == []

    def test_extreme_exponents_stay_finite(self, binary3, worked_shape):
        masses = cylinder_masses(binary3, WeightAssignment.constant(binary3, 1e3))
        f = LevelFunction.constant(binary3, 1e3)
        huge = 1e9
        pa = ExponentAssignment((huge, huge / (huge - 2.0), huge))
        assert validate_exponents(worked_shape, pa) is None
        value = rhs_product(binary3, masses, f, ROOT, worked_shape, pa, 1.0)
        assert math.isfinite(value) and value > 0.0


def per_slot_log_sum(tree, masses, f, base, level, p):
    """One slot's log level power sum as first written, with 1-D reductions."""
    ranks = tree.ranks_below(base, level)
    mass = masses[level][ranks]
    nonzero = mass != 0.0
    if not nonzero.any():
        return -math.inf
    logs = p * np.log(f.levels[level][ranks][nonzero]) + (1.0 + p) * np.log(mass[nonzero])
    top = logs.max()
    return float(top + np.log(np.exp(logs - top).sum()))


def per_slot_rhs(tree, masses, f, base, shape, pa, k_constant):
    """The right side as first written: one pass over the join level per slot."""
    log_total = 0.0
    for level, p in zip(shape_join_levels(shape, base.level), pa.exponents):
        log_sum = per_slot_log_sum(tree, masses, f, base, level, p)
        if log_sum == -math.inf:
            return 0.0
        log_total += log_sum / p
    if pa.coexponent > 0.0:
        base_mass = float(masses[base.level][tree.rank(base.word)])
        if base_mass == 0.0:
            return 0.0
        log_total += pa.coexponent * math.log(base_mass)
    rhs = k_constant * bounds._exp_or_inf(log_total)
    if rhs == math.inf and 0.0 < k_constant < 1.0:
        rhs = bounds._exp_or_inf(math.log(k_constant) + log_total)
    if not math.isfinite(rhs):
        raise ConfigurationError("the right side exceeds the float range")
    return rhs


def outcome(fn, *args):
    try:
        return fn(*args)
    except ConfigurationError as exc:
        return str(exc)


@st.composite
def rhs_cases(draw):
    """A configuration with its data, exponents and constant.

    Small trees of arity 3 and 4 often put several slots on one level.
    Weights may be zero, or zero on the whole base cylinder, so that every
    level holds no mass; a large weight scale with a small constant makes
    the product overflow where ``K`` times it does not.
    """
    m = draw(st.integers(2, 4), label="m")
    k = draw(st.integers(1, 3 if m > 2 else 5), label="k")
    tree = TreeParams(m, k)
    base = Vertex(tuple(draw(st.lists(st.integers(1, m), max_size=k - 1), label="base")))
    leaves = list(tree.leaves_below(base))
    n = draw(st.integers(2, min(6, len(leaves))), label="n")
    particles = draw(st.permutations(leaves), label="particles")[:n]
    rng = random.Random(draw(st.integers(0, 2**32), label="rng"))
    zero_share = draw(st.sampled_from([0.0, 0.3, 1.0]), label="zero share")
    scale = 10.0 ** draw(st.sampled_from([0.0, 120.0]), label="weight scale")
    leaf_array = np.array(
        [0.0 if rng.random() < zero_share else scale * rng.uniform(0.1, 3.0) for _ in tree.leaves()]
    )
    weights = WeightAssignment(tree, leaf_array)
    f = LevelFunction(tree, per_vertex(tree, lambda: 10.0 ** rng.uniform(-3.0, 3.0)))
    coexponent = draw(st.sampled_from([0.0, 0.25]), label="coexponent")
    draws = [rng.expovariate(1.0) + 1e-3 for _ in range(n - 1)]
    exponents = tuple(sum(draws) / ((1.0 - coexponent) * x) for x in draws)
    k_constant = draw(st.sampled_from([1.0, 0.5, 1e-200]), label="K")
    config = Configuration(tree, base, tuple(particles))
    pa = ExponentAssignment(exponents, coexponent)
    return tree, weights.masses, f, base, config.shape, pa, k_constant


@st.composite
def level_rows(draw):
    """Data on a small tree, a base, and rows of a level below the base
    with an exponent: one or several exponents per level, in any order.

    Weights may be zero, or zero on the whole base cylinder, so that a row
    loses vertices or every one of them.
    """
    m = draw(st.integers(2, 4), label="m")
    k = draw(st.integers(1, 3 if m > 2 else 6), label="k")
    tree = TreeParams(m, k)
    base = Vertex(tuple(draw(st.lists(st.integers(1, m), max_size=k), label="base")))
    levels = draw(st.lists(st.integers(base.level, k), min_size=1, max_size=4), label="levels")
    rows = [
        (level, p)
        for level in levels
        for p in draw(st.lists(st.floats(0.05, 40.0), min_size=1, max_size=3), label="p")
    ]
    rows = draw(st.permutations(rows), label="row order")
    rng = random.Random(draw(st.integers(0, 2**32), label="rng"))
    zero_share = draw(st.sampled_from([0.0, 0.3, 1.0]), label="zero share")
    leaf_array = np.array(
        [0.0 if rng.random() < zero_share else rng.uniform(0.1, 3.0) for _ in tree.leaves()]
    )
    f = LevelFunction(tree, per_vertex(tree, lambda: 10.0 ** rng.uniform(-3.0, 3.0)))
    return tree, WeightAssignment(tree, leaf_array).masses, f, base, rows


class TestGroupedRhs:
    @settings(max_examples=300, deadline=None)
    @given(case=rhs_cases())
    def test_equals_the_per_slot_loop(self, case):
        assert outcome(rhs_product, *case) == outcome(per_slot_rhs, *case)

    @settings(max_examples=300, deadline=None)
    @given(case=level_rows())
    def test_rows_equal_the_per_slot_sums(self, case):
        tree, masses, f, base, rows = case
        offsets, exponents = [level - base.level for level, _ in rows], [p for _, p in rows]
        got = bounds._log_level_power_sums(tree, masses, f, base, offsets, exponents)
        expected = [per_slot_log_sum(tree, masses, f, base, level, p) for level, p in rows]
        assert got == (None if -math.inf in expected else expected)

    @pytest.mark.parametrize("zero_share", [0.0, 0.25])
    def test_rows_of_every_length(self, zero_share):
        # rows of 1, 3, 9 and 27 vertices on the ternary depth-4 tree, two
        # exponents on one level, and rows of 2 on the binary one
        for m, levels in ((3, [0, 1, 2, 2, 3]), (2, [1, 0, 1, 3])):
            tree = TreeParams(m, 4)
            rng = np.random.default_rng(m)
            leaf_array = rng.uniform(0.1, 3.0, tree.leaf_count)
            leaf_array[rng.random(tree.leaf_count) < zero_share] = 0.0
            masses = WeightAssignment(tree, leaf_array).masses
            f = LevelFunction(
                tree, np.concatenate([rng.uniform(0.5, 2.0, m**level) for level in range(5)])
            )
            exponents = [1.5 + level + 0.25 * i for i, level in enumerate(levels)]
            got = bounds._log_level_power_sums(tree, masses, f, ROOT, levels, exponents)
            assert got == [
                per_slot_log_sum(tree, masses, f, ROOT, level, p)
                for level, p in zip(levels, exponents)
            ]

    def test_small_constant_with_an_overflowing_product(self):
        # a full star on the root of the 4-ary depth-2 tree: three slots at
        # level 0, and a product of about 8 * (1.6e101)**4 that K = 1e-300
        # brings back into range
        tree = TreeParams(4, 2)
        masses = WeightAssignment.constant(tree, 1e100).masses
        f = LevelFunction.constant(tree, 2.0)
        shape = Configuration(tree, ROOT, tuple(vx(c, 1) for c in range(1, 5))).shape
        pa = ExponentAssignment((2.0, 4.0, 4.0), 0.0)
        with pytest.raises(ConfigurationError, match="exceeds the float range"):
            rhs_product(tree, masses, f, ROOT, shape, pa, 1.0)
        got = rhs_product(tree, masses, f, ROOT, shape, pa, 1e-300)
        assert got == per_slot_rhs(tree, masses, f, ROOT, shape, pa, 1e-300)
        assert 0.0 < got < math.inf

    @pytest.mark.parametrize("zero_share", [0.0, 0.2])
    def test_rows_longer_than_the_reduction_buffer(self, zero_share):
        # two slots at level 15 of the binary depth-16 tree: rows of 2**15
        # values each, past numpy's 8192-element buffer
        tree = TreeParams(2, 16)
        rng = np.random.default_rng(16)
        leaf_array = rng.uniform(0.1, 3.0, tree.leaf_count)
        leaf_array[rng.random(tree.leaf_count) < zero_share] = 0.0
        masses = WeightAssignment(tree, leaf_array).masses
        f = LevelFunction(
            tree, np.concatenate([rng.uniform(0.5, 2.0, 2**level) for level in range(17)])
        )
        particles = tuple(vx(*[c] * 15, s) for c in (1, 2) for s in (1, 2))
        shape = Configuration(tree, ROOT, particles).shape
        assert sorted(shape_join_levels(shape, 0)) == [0, 15, 15]
        pa = ExponentAssignment((2.5, 5.0, 2.5))
        got = rhs_product(tree, masses, f, ROOT, shape, pa, 1.0)
        assert got == per_slot_rhs(tree, masses, f, ROOT, shape, pa, 1.0)
        assert bounds._log_level_power_sums(tree, masses, f, ROOT, [15, 15], [2.5, 5.0]) == [
            per_slot_log_sum(tree, masses, f, ROOT, 15, p) for p in (2.5, 5.0)
        ]


class TestKGeneral:
    def test_binary_shapes_give_one(self, worked_shape):
        pa = ExponentAssignment((3.0, 3.0, 3.0))
        assert regime_constant(worked_shape, pa, 2, "general") == (1.0, ())

    def test_eight_particle_ternary(self):
        config = eight_particle_ternary_config()
        pa = ExponentAssignment((7.0,) * 7)
        # two multiplicity-2 nodes and three multiplicity-1 nodes
        assert regime_constant(extract_shape(config), pa, 3, "general") == (32, ())

    def test_single_join_any_arity(self):
        for m in (2, 3, 4, 5):
            tree = TreeParams(m, 1)
            config = Configuration(tree, ROOT, (vx(1), vx(2)))
            k, _ = regime_constant(extract_shape(config), ExponentAssignment((1.0,)), m, "general")
            assert k == m - 1

    def test_value_below_crude_bound(self):
        rng = random.Random(14)
        tree = TreeParams(3, 3)
        leaves = list(tree.leaves())
        for _ in range(20):
            n = rng.randint(2, 6)
            config = Configuration(tree, ROOT, tuple(rng.sample(leaves, n)))
            pa = ExponentAssignment((n - 1.0,) * (n - 1))
            k, _ = regime_constant(extract_shape(config), pa, 3, "general")
            assert k <= (3 - 1) ** (n - 1)


class TestKBinary:
    def test_worked_example_met(self, worked_shape):
        pa = ExponentAssignment((3.0, 3.0, 3.0))
        assert regime_constant(worked_shape, pa, 2, "binary_optimal") == (0.125, ())

    def test_two_particles_vacuous(self, binary3):
        config = Configuration(binary3, ROOT, (vx(1, 1, 1), vx(2, 1, 1)))
        pa = ExponentAssignment((1.0,))
        assert regime_constant(extract_shape(config), pa, 2, "binary_optimal") == (0.5, ())

    def test_top_slot_exponent_does_not_enter(self, worked_shape):
        # a small top exponent is fine; only branch sums are constrained
        pa = ExponentAssignment((1.5, 6.0, 6.0))
        assert regime_constant(worked_shape, pa, 2, "binary_optimal") == (0.125, ())

    def test_condition_violation_falls_back_to_one(self, worked_shape):
        pa = ExponentAssignment((6.0, 1.5, 6.0))
        assert regime_constant(worked_shape, pa, 2, "binary_optimal") == (
            1.0,
            ("halves-condition-failure",),
        )

    def test_non_binary_shape_rejected(self):
        tree = TreeParams(3, 1)
        config = Configuration(tree, ROOT, (vx(1), vx(2), vx(3)))
        shape, pa = extract_shape(config), ExponentAssignment((2.0, 2.0))
        with pytest.raises(ConfigurationError, match="binary trees only, not arity 3"):
            regime_constant(shape, pa, 3, "binary_optimal")
        with pytest.raises(ConfigurationError, match="join node with 3 branches exceeds arity 2"):
            regime_constant(shape, pa, 2, "binary_optimal")


class TestRegimeConstant:
    @pytest.mark.parametrize("regime", ["explicit", "sharp"])
    def test_refuses_regimes_without_a_computed_constant(self, worked_shape, regime):
        with pytest.raises(ConfigurationError, match="has no computed constant"):
            regime_constant(worked_shape, ExponentAssignment((3.0, 3.0, 3.0)), 2, regime)


class TestSymmetricSum:
    def test_all_zero_exponents_give_factorial(self):
        # the 0**0 convention makes every term 1
        for m in (1, 2, 3, 4):
            spec = MuirheadSpec((0.0,) * m)
            assert symmetric_sum((0.0,) * m, spec) == math.factorial(m)
            assert symmetric_sum((1.7,) * m, spec) == math.factorial(m)

    def test_pair_product(self):
        assert symmetric_sum((3.0, 4.0), MuirheadSpec((1.0, 1.0))) == pytest.approx(24.0)

    def test_single_variable_exponent(self):
        u, v, w = 2.0, 3.0, 5.0
        got = symmetric_sum((u, v, w), MuirheadSpec((1.0, 0.0, 0.0)))
        assert got == pytest.approx(2 * (u + v + w), rel=1e-12)

    def test_zero_to_the_zero(self):
        got = symmetric_sum((0.0, 1.0), MuirheadSpec((2.0, 0.0)))
        assert got == pytest.approx(1.0)  # 0^2*1^0 + 1^2*0^0 = 0 + 1

    @pytest.mark.parametrize("m", range(1, 10))
    def test_bit_identical_to_permutation_loop(self, m):
        rng = random.Random(100 + m)
        # the reference loop takes about 0.2 s per call at m = 9
        for _ in range({6: 60, 7: 12, 8: 3, 9: 2}.get(m, 300)):
            x = [rng.uniform(0.0, 2.0) if rng.random() > 0.3 else 0.0 for _ in range(m)]
            a = [rng.uniform(0.0, 3.0) if rng.random() > 0.4 else 0.0 for _ in range(m)]
            got = symmetric_sum(x, MuirheadSpec(tuple(a)))
            assert got == reference_symmetric_sum(x, a)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "x, a, want",
        [
            ((1e200, 1e200), (1.0, 1.0), math.inf),  # the product overflows
            ((math.inf, 0.0), (1.0, 1.0), math.nan),  # inf * 0
            ((math.inf, 2.0), (0.0, 1.0), math.inf),  # inf**0 is 1
        ],
    )
    def test_nonfinite_products_as_the_loop_gives_them(self, x, a, want):
        got = symmetric_sum(x, MuirheadSpec(a))
        ref = reference_symmetric_sum(x, a)
        if math.isnan(want):
            assert math.isnan(got) and math.isnan(ref)
        else:
            assert got == ref == want

    def test_refuses_more_terms_than_the_limit(self):
        spec = MuirheadSpec((1.0,) * 12)
        start = time.perf_counter()
        with pytest.raises(ConfigurationError, match="exceeds the limit of 100000000 terms"):
            symmetric_sum((0.5,) * 12, spec)
        assert time.perf_counter() - start < 1.0

    def test_refuses_bad_variables(self):
        spec = MuirheadSpec((2.0, 0.0))
        with pytest.raises(ConfigurationError, match="need 2 variables"):
            symmetric_sum((1.0,), spec)
        for bad in (-0.5, math.nan):
            with pytest.raises(ConfigurationError, match=">= 0"):
                symmetric_sum((bad, 1.0), spec)


class TestSymmetricSumGrid:
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_matches_symmetric_sum(self, m):
        rng = np.random.default_rng(m)
        points = rng.dirichlet(np.ones(m), 30)
        points[rng.random(points.shape) < 0.3] = 0.0
        points[0] = 0.0
        points[1] = np.eye(m)[0]
        for _ in range(6):
            a = rng.uniform(0.0, 3.0, m)
            a[rng.random(m) < 0.4] = 0.0
            spec = MuirheadSpec(tuple(a))
            got = grid_sums(points, spec.a)
            want = [reference_symmetric_sum(x, spec.a) for x in points]
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


class TestMuirheadClosedForm:
    def test_pair_ones_case_iii(self):
        value = muirhead_closed_form(MuirheadSpec((1.0, 1.0)))
        assert value.case == "iii" and value.exact
        assert value.value == pytest.approx(0.5)

    def test_thirds_case_i(self):
        value = muirhead_closed_form(MuirheadSpec((1 / 3, 1 / 3, 1 / 3)))
        assert value.case == "i" and value.exact
        assert value.value == pytest.approx(2.0)

    def test_three_zero_case_ii_bracket(self):
        value = muirhead_closed_form(MuirheadSpec((3.0, 0.0)))
        assert value.case == "ii" and not value.exact
        assert value.lower == pytest.approx(0.25)
        assert value.upper == pytest.approx(1.0)

    def test_case_iv(self):
        value = muirhead_closed_form(MuirheadSpec((1.6, 0.4)))
        assert value.case == "iv" and value.exact
        assert value.value == pytest.approx(2.0**-1.0)

    def test_equality_at_uniform_point(self):
        specs = [
            MuirheadSpec((1.0, 1.0)),
            MuirheadSpec((1 / 3, 1 / 3, 1 / 3)),
            MuirheadSpec((1.6, 0.4)),
            MuirheadSpec((0.9, 0.6, 0.5)),
            MuirheadSpec((1.0, 1.0, 0.0)),
        ]
        for spec in specs:
            value = muirhead_closed_form(spec)
            assert value.exact
            uniform = [1.0 / spec.m] * spec.m
            assert symmetric_sum(uniform, spec) == pytest.approx(value.value, rel=1e-12)

    def test_factorial_beyond_float_range_refused(self):
        # 170! is about 7.3e306; 171! has no float
        assert muirhead_closed_form(MuirheadSpec((1.0,) * 170)).exact
        with pytest.raises(ConfigurationError, match="171! lies beyond the float range"):
            muirhead_closed_form(MuirheadSpec((1.0,) * 171))

    @pytest.mark.parametrize("a", [(math.inf, 1.0), (1e308, 1e308), (1.0, math.inf, 0.0)])
    def test_spec_refuses_non_finite(self, a):
        with pytest.raises(ConfigurationError, match="must be finite"):
            MuirheadSpec(a)

    @pytest.mark.parametrize(
        "a, message",
        [
            (("1", True), "an exponent must be a JSON number, got '1'"),
            ((1.0, True), "an exponent must be a JSON number, got True"),
            ((1.0, 10**400), "an exponent is too large for a float"),
        ],
        ids=["string", "bool", "huge-int"],
    )
    def test_spec_reads_the_map_value_rule(self, a, message):
        with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}"):
            MuirheadSpec(a)
        assert MuirheadSpec((1, np.int64(1), np.float32(0.5))).a == (1.0, 1.0, 0.5)


def case_v_specs(m, count, seed):
    """Random ``(c^d, 0^(m-d))`` with ``d < m``, ``c`` in (0, 1] and ``c*d > 1``, so ``d >= 2``."""
    rng = random.Random(seed)
    specs = []
    while len(specs) < count:
        d = rng.randint(2, m - 1)
        c = 1.0 - rng.random() * (1.0 - 1.0 / d)  # in (1/d, 1]
        if c * d > 1.0:
            specs.append(MuirheadSpec((c,) * d + (0.0,) * (m - d)))
    return specs


class TestCaseV:
    """Equal nonzero exponents of at most 1: exactly the uniform constant.

    With ``d = 1`` or ``m = 2`` the sum ``s = c*d`` is at most 1 (case i),
    and with ``d = m`` every entry is well spread (case iii), so case v
    starts at m = 3.
    """

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_lone_branch_vectors(self, m):
        rng = random.Random(m)
        for _ in range(20):
            c = 1.0 - rng.random()
            assert muirhead_closed_form(MuirheadSpec((c,) + (0.0,) * (m - 1))).case == "i"
            assert muirhead_closed_form(MuirheadSpec((c,) * m)).case in ("i", "iii")
        if m == 2:
            return
        for spec in case_v_specs(m, 20, seed=m):
            value = muirhead_closed_form(spec)
            assert value.case == "v" and value.exact
            assert value.value == pytest.approx(math.factorial(m) * m ** -spec.s, rel=1e-15)

    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_grid_stays_under_uniform_value(self, m):
        coordinates, index = _grid_coordinates(m)
        points = coordinates[index].T
        for spec in case_v_specs(m, 12, seed=10 + m):
            k = muirhead_closed_form(spec).value
            grid = grid_sums(points, spec.a)
            assert grid.max() <= k * (1.0 + bounds.ROUNDING_ALLOWANCE)

    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_between_grid_maximum_and_certified_end(self, m):
        for spec in case_v_specs(m, 12, seed=20 + m):
            k = muirhead_closed_form(spec).value
            estimate = muirhead_numeric(spec)
            # the grid's barycentre sum may round a few ulps above m! m**-s
            assert estimate.value <= k * (1.0 + bounds.ROUNDING_ALLOWANCE)
            assert k <= estimate.upper

    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_random_points_stay_under(self, m):
        rng = np.random.default_rng(30 + m)
        for spec in case_v_specs(m, 12, seed=30 + m):
            k = muirhead_closed_form(spec).value
            points = rng.dirichlet(np.ones(m), 40)
            points[rng.random(points.shape) < 0.2] = 0.0
            for x in points:
                total = x.sum()
                if total > 0.0:
                    x = x / total
                assert symmetric_sum(x, spec) <= k * (1.0 + 1e-12)

    # (1e300, 0): the case-iv square overflows, and lies above every s
    @pytest.mark.parametrize("a", [(1.0, 1.0000001, 0.0), (2.0, 2.0, 0.0), (1e300, 0.0)])
    def test_unequal_or_above_one_stays_in_bracket(self, a):
        assert muirhead_closed_form(MuirheadSpec(a)).case == "ii"


class TestMuirheadNumeric:
    def test_pair_ones(self):
        estimate = muirhead_numeric(MuirheadSpec((1.0, 1.0)))
        assert estimate.value == pytest.approx(0.5, abs=1e-6)
        assert estimate.maximizer[0] == pytest.approx(0.5, abs=1e-4)

    def test_corner_maximum(self):
        estimate = muirhead_numeric(MuirheadSpec((3.0, 0.0)))
        assert estimate.value == pytest.approx(1.0, abs=1e-6)
        assert max(estimate.maximizer) == pytest.approx(1.0, abs=1e-6)
        assert estimate.value > 2.0 ** (1 - 3.0)  # strictly beats the symmetric value

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_single_exponent_below_one(self, m):
        s = 0.7
        spec = MuirheadSpec((s,) + (0.0,) * (m - 1))
        estimate = muirhead_numeric(spec)
        expected = math.factorial(m) * m ** (-s)
        assert estimate.value == pytest.approx(expected, abs=1e-6)

    def test_bracket_contains_numeric(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            s = float(rng.uniform(1.5, 3.0))
            delta = float(rng.uniform(math.sqrt(s) + 0.05, min(s, math.sqrt(s) + 1.0)))
            spec = MuirheadSpec(((s + delta) / 2, (s - delta) / 2))
            closed = muirhead_closed_form(spec)
            assert closed.case == "ii"
            estimate = muirhead_numeric(spec)
            assert closed.lower - 1e-9 <= estimate.value <= closed.upper + 1e-9

    def test_certified_radius_honest(self):
        for a in [(1.0, 1.0), (0.5, 0.5), (2.0, 1.0), (0.7, 0.0, 0.0)]:
            spec = MuirheadSpec(a)
            closed = muirhead_closed_form(spec)
            estimate = muirhead_numeric(spec)
            if closed.exact:
                assert closed.value <= estimate.value + estimate.uncertainty

    @pytest.mark.parametrize(
        "m, zeros, n_grid, count",
        [(2, 0, 512, 8), (3, 0, 96, 6), (3, 1, 96, 6), (4, 2, 40, 6), (4, 1, 40, 4),
         (5, 3, 24, 4), (5, 0, 24, 4)],
    )
    def test_chamber_max_equals_full_grid_max(self, m, zeros, n_grid, count):
        # each full-grid point, sorted, is a chamber point summed in the same order;
        # unsorted, its sum may round a few ulps apart, within the rounding allowance
        grid = reference_grid(m, n_grid)
        sorted_grid = -np.sort(-grid, axis=1)
        for spec in case_ii_specs(m, zeros, count, seed=10 * m + zeros):
            got = muirhead_numeric(spec)
            assert got.resolution == n_grid
            assert got.value == grid_sums(sorted_grid, spec.a).max()
            full = grid_sums(grid, spec.a).max()
            assert got.value == pytest.approx(full, rel=bounds.ROUNDING_ALLOWANCE, abs=0.0)
            assert list(got.maximizer) == sorted(got.maximizer, reverse=True)

    def test_grid_cached_read_only(self):
        grid = _grid_coordinates(3)
        assert _grid_coordinates(3) is grid
        coordinates, index = grid
        full = reference_grid(3, 96)
        assert np.array_equal(coordinates[index].T, full[(np.diff(full, axis=1) <= 0).all(axis=1)])
        assert not coordinates.flags.writeable and not index.flags.writeable
        with pytest.raises(ValueError):
            coordinates[0] = 1.0
        with pytest.raises(ValueError):
            index[0, 0] = 1

    @pytest.mark.parametrize("m, n_grid, count", [(2, 512, 513), (3, 96, 97), (4, 40, 41),
                                                  (5, 24, 26)])
    def test_coordinates_rebuild_the_grid(self, m, n_grid, count):
        # the sorted full grid's rows, in order, bit for bit: the compositions,
        # then the barycentre, e_1 and (1/2, 1/2, 0, ...)
        full = reference_grid(m, n_grid)
        want = full[(np.diff(full, axis=1) <= 0).all(axis=1)]
        coordinates, index = _grid_coordinates(m)
        assert len(coordinates) == count and (np.diff(coordinates) > 0.0).all()
        assert index.shape == (m, len(want))
        assert coordinates[index].T.tobytes() == want.tobytes()
        assert not coordinates.flags.writeable and not index.flags.writeable

    @pytest.mark.parametrize("m, zeros", [(m, z) for m in range(2, 6) for z in range(1, m)])
    def test_last_zero_row_changes_no_sum(self, m, zeros):
        # the (m-1)-prefixes of the permutations are the permutations, in order
        coordinates, index = _grid_coordinates(m)
        for spec in case_ii_specs(m, zeros, 4, seed=40 + 10 * m + zeros):
            table = (coordinates ** np.array(spec.a)[:, None]).take(index, axis=1)
            assert injective_sum(table[:-1]).tobytes() == injective_sum(table).tobytes()

    @pytest.mark.parametrize("a", [(0.0, 3.0, 0.5), (0.5, 0.0, 3.0), (0.0, 2.0, 0.5, 1.0, 0.0)])
    def test_zero_not_last_keeps_its_row(self, a):
        # leaving out the first zero's row instead reorders the terms, and on
        # these vectors moves the maximum by an ulp
        coordinates, index = _grid_coordinates(len(a))
        grid = coordinates[index].T
        sums = grid_sums(grid, a)
        estimate = muirhead_numeric(MuirheadSpec(a))
        assert estimate.value == sums.max()
        assert estimate.maximizer == tuple(grid[sums.argmax()])

    @pytest.mark.parametrize("a, value, maximizer", [
        ((2.0, 0.0), "0x1.0000000000000p+0", (1.0, 0.0)),
        ((3.0, 0.5), "0x1.ed861fd56b700p-3", (0.84765625, 0.15234375)),
        ((0.5, 3.0), "0x1.ed861fd56b700p-3", (0.84765625, 0.15234375)),
        ((1.37, 2.91), "0x1.a5adb8c8e31f3p-4", (0.5, 0.5)),
        ((1.0, 2.0, 0.0), "0x1.0000000000000p-2", (0.5, 0.5, 0.0)),
        ((3.0, 0.5, 0.0), "0x1.5997b465d91e1p-2", (41 / 48, 7 / 96, 7 / 96)),
        ((2.0, 2.0, 0.0), "0x1.0000000000000p-3", (0.5, 0.5, 0.0)),
        ((0.0, 3.0, 0.5), "0x1.5997b465d91e0p-2", (41 / 48, 7 / 96, 7 / 96)),
        ((1.0, 2.0, 3.0), "0x1.0db20a88f4693p-7", (1 / 3,) * 3),
        ((2.0, 1.0, 0.0, 0.0), "0x1.0000000000000p-1", (0.5, 0.5, 0.0, 0.0)),
        ((3.0, 3.0, 0.5, 0.0), "0x1.ec166ab641bc3p-8", (0.45, 0.45, 0.05, 0.05)),
        ((0.5, 1.0, 2.0, 3.0), "0x1.8000000000000p-9", (0.25,) * 4),
        ((1.25, 2.5, 0.0, 0.0), "0x1.306fe0a31b715p-2", (0.5, 0.5, 0.0, 0.0)),
        ((2.0, 2.0, 1.0, 0.0, 0.0), "0x1.948b0fcd6e9dcp-5", (1 / 3,) * 3 + (0.0, 0.0)),
        ((3.0, 0.5, 0.0, 1.0, 0.0), "0x1.671f6d950aaeap-3", (2 / 3,) + (1 / 12,) * 4),
        ((1.0, 1.0, 1.0, 3.0, 2.0), "0x1.421f5f40d836fp-12", (0.2,) * 5),
    ])
    def test_pinned_estimates(self, a, value, maximizer):
        # the grid maxima as a table of each point's own powers gave them
        estimate = muirhead_numeric(MuirheadSpec(a))
        assert estimate.value == float.fromhex(value)
        assert estimate.maximizer == maximizer

    def test_inequality_samples(self):
        rng = np.random.default_rng(12)
        for _ in range(1000):
            m = int(rng.integers(2, 4))
            a = tuple(float(x) for x in rng.uniform(0.0, 2.0, size=m))
            if sum(a) <= 0.0:
                continue
            spec = MuirheadSpec(a)
            closed = muirhead_closed_form(spec)
            k = closed.value if closed.exact else muirhead_numeric(spec).upper
            x = tuple(float(v) for v in rng.uniform(0.0, 5.0, size=m))
            lhs = symmetric_sum(x, spec)
            rhs = k * sum(x) ** spec.s
            assert lhs <= rhs * (1.0 + 1e-9) + 1e-12

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), m=st.integers(2, 5))
    def test_upper_end_bounds_every_point(self, data, m):
        entry = st.one_of(st.just(0.0), st.floats(0.0, 3.0))
        a = data.draw(st.lists(entry, min_size=m, max_size=m))
        assume(sum(a) > 0.0)
        spec = MuirheadSpec(tuple(a))
        upper = muirhead_numeric(spec).upper
        x = data.draw(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 10.0)),
                               min_size=m, max_size=m))
        assert symmetric_sum(x, spec) <= upper * sum(x) ** spec.s


class TestKInductive:
    def test_worked_example(self, worked_shape):
        result = k_inductive(worked_shape, ExponentAssignment((3.0, 3.0, 3.0)), 2)
        assert result.value == pytest.approx(0.125, rel=1e-9)
        assert not result.estimated
        assert len(result.ledger) == 3
        for entry in result.ledger:
            assert entry.factor == pytest.approx(0.5, rel=1e-12)

    def test_two_particle_ledger(self):
        for m in (2, 3):
            tree = TreeParams(m, 1)
            config = Configuration(tree, ROOT, (vx(1), vx(2)))
            result = k_inductive(extract_shape(config), ExponentAssignment((1.0,)), m)
            (entry,) = result.ledger
            assert entry.alpha_inv == (1.0, 1.0)
            assert entry.beta_inv == pytest.approx(1.0)

    def test_ledger_balance_identity(self, worked_shape):
        # per node, the branch coexponents total degree - 1 + 1/beta
        result = k_inductive(worked_shape, ExponentAssignment((2.0, 3.0, 6.0)), 2)
        for entry in result.ledger:
            lhs = sum(entry.alpha_inv)
            rhs = entry.degree - 1 + entry.beta_inv
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_negative_branch_exponent_refused(self, worked_shape):
        # a branch whose reciprocals pass 1, offset by a negative one in the
        # other branch, leaves the top node 1/beta = 1/2 but a negative 1/alpha
        with pytest.raises(ConfigurationError, match="exponents must be >= 0"):
            k_inductive(worked_shape, ExponentAssignment((1.0, 2.0 / 3.0, -1.0)), 2)

    def test_node_account_is_a_frozen_dataclass(self):
        fields = dict(node_path=(0,), level_offset=1, degree=2, alpha_inv=(1.0, 0.5),
                      beta_inv=0.5, muirhead_case="iii", log_muirhead=-0.25, estimated=False,
                      log_factor=-0.125)
        entry = NodeAccount(**fields)
        assert entry == NodeAccount(*fields.values())
        assert hash(entry) == hash(NodeAccount(*fields.values()))
        assert dataclasses.asdict(entry) == fields
        assert repr(entry) == f"NodeAccount({', '.join(f'{k}={v!r}' for k, v in fields.items())})"
        with pytest.raises(dataclasses.FrozenInstanceError):
            entry.degree = 3
        assert dataclasses.replace(entry, degree=3) == NodeAccount(**{**fields, "degree": 3})

    def test_single_particle_branch_has_unit_coexponent(self, binary3):
        config = Configuration(binary3, ROOT, (vx(1, 1, 1), vx(1, 2, 1), vx(2, 1, 1)))
        result = k_inductive(extract_shape(config), ExponentAssignment((2.0, 2.0)), 2)
        top = [e for e in result.ledger if e.node_path == ()][0]
        assert 1.0 in top.alpha_inv

    def test_at_most_k_general_on_every_shape(self, monkeypatch):
        # no node is in case i, as s = (d - sum b)/(1 - sum b) > 1 for d >= 2,
        # so every K(m; a) <= (m-1)! and each node factor is at most (m-1)!/(m-d)!
        monkeypatch.setattr(bounds, "muirhead_numeric", functools.cache(bounds.muirhead_numeric))
        rng = random.Random(19)
        arities = set()
        for _ in range(200):
            m, config, pa = random_shape_case(rng)
            shape = extract_shape(config)
            inductive, _ = regime_constant(shape, pa, m, "inductive")
            general, _ = regime_constant(shape, pa, m, "general")
            assert inductive <= general * (1 + 1e-9)
            arities.add(m)
        assert arities == set(range(2, 8))

    def test_equals_binary_optimal_under_halves_at_m2(self):
        # at m = 2 a case-iii node's factor is 2**(1/beta - 1/alpha_1 - 1/alpha_2),
        # and the exponents telescope to -(n - 1)
        ranges = InstanceRanges(arities=(2,), regime="binary_optimal")
        for seed in range(1000):
            inst = random_instance(seed, ranges)
            sharp, sharp_flags = regime_constant(inst.shape, inst.exponents, 2, "binary_optimal")
            assert sharp_flags == () and sharp == 2.0 ** -(inst.shape.n_particles - 1)
            k, flags = regime_constant(inst.shape, inst.exponents, 2, "inductive")
            assert flags == ()
            assert k == pytest.approx(sharp, rel=1e-14, abs=0.0), seed
            ledger = k_inductive(inst.shape, inst.exponents, 2).ledger
            assert {e.muirhead_case for e in ledger} == {"iii"}, seed

    def test_ternary_pair_is_estimated(self):
        # a pair beside a lone particle at a ternary root: the pair's node has
        # lone branches (case v, exactly 2/3); the root's subtree branch gives
        # it the vector (1, 2, 0), which has no closed form
        config = Configuration(TreeParams(3, 2), ROOT, (vx(1, 1), vx(1, 2), vx(2, 1)))
        result = k_inductive(extract_shape(config), ExponentAssignment((2.0, 2.0)), 3)
        assert result.estimated
        top, pair = result.ledger
        assert pair.muirhead_case == "v" and not pair.estimated
        assert math.exp(pair.log_muirhead) == pytest.approx(2.0 / 3.0, rel=1e-15)
        assert top.muirhead_case == "ii" and top.estimated
        # x_j**2 (1 - x_j) <= x_j / 4 makes the sharp constant 1/4, attained at
        # (1/2, 1/2, 0); the certified constant lies above it by at most the
        # grid's radius
        estimate = muirhead_numeric(MuirheadSpec((1.0, 2.0, 0.0)))
        assert top.log_muirhead == math.log(estimate.upper)
        widened = (0.25 + estimate.uncertainty) * (1.0 + bounds.ROUNDING_ALLOWANCE)
        # exp(log(upper)) may round one ulp above upper
        assert estimate.value == pytest.approx(0.25, rel=1e-15)
        assert estimate.value <= math.exp(top.log_muirhead) <= widened * (1.0 + 1e-15)

    def test_beyond_estimator_takes_bracket_upper_end(self):
        # a 7-ary root of degree 4 whose first branch is a pair: the root's
        # zero-padded vector (1, 4/3, 4/3, 4/3, 0, 0, 0) has no closed form and
        # the numeric estimator stops at m = 5
        tree = TreeParams(7, 2)
        particles = (vx(1, 1), vx(1, 2), vx(2, 1), vx(3, 1), vx(4, 1))
        config = Configuration(tree, ROOT, particles)
        result = k_inductive(extract_shape(config), ExponentAssignment((4.0,) * 4), 7)
        top, pair = result.ledger
        assert top.muirhead_case == "ii" and top.bracket_upper
        assert not result.estimated
        assert top.log_muirhead == math.lgamma(7)
        assert pair.muirhead_case == "v" and not pair.bracket_upper
        # (m-1)! at the root gives back its general factor 6!/3! = 120; the
        # pair's node has 1/beta = 1 and contributes K(7; 1, 1, 0, ...)/5! = 6/7
        assert result.value == pytest.approx(120.0 * 6.0 / 7.0, rel=1e-12)

    def test_arity_past_float_factorials(self):
        # a pair beside a lone particle at the root of a 171-ary tree: 171! has
        # no float, but the root's factor (m-1)!/(m-2)! = 170 and the pair's
        # K(171; 1, 1, 0, ...)/169! = 170/171 are read in logs
        config = Configuration(TreeParams(171, 2), ROOT, (vx(1, 1), vx(1, 2), vx(2, 1)))
        result = k_inductive(extract_shape(config), ExponentAssignment((2.0, 2.0)), 171)
        top, pair = result.ledger
        assert top.muirhead_case == "ii" and top.bracket_upper
        assert pair.muirhead_case == "v"
        assert result.value == pytest.approx(170.0 * 170.0 / 171.0, rel=1e-12)


class TestCoshRatio:
    def test_equal_parameters(self):
        r = 1.5
        got = cosh_ratio(r, r, 5.0)
        assert got == pytest.approx(1.0 / math.cosh(5.0) ** (2 * r), rel=1e-12)
        assert got < 1.0

    def test_boundary_family_is_identically_one(self):
        for theta in (0.5, 2.0, -3.0):
            assert cosh_ratio(1.0, 0.0, theta) == pytest.approx(1.0, abs=1e-15)

    def test_direct_value(self):
        got = cosh_ratio(2.0, 1.0, 1.0)
        expected = math.cosh(1.0) / math.cosh(1.0) ** 3
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(0.4200, abs=5e-5)

    def test_overflow_safe(self):
        assert cosh_ratio(3.0, 1.0, 1e5) == 0.0
        assert cosh_ratio(2000.0, 0.0, 10.0) == math.inf  # condition violated, huge ratio
        assert math.isfinite(cosh_ratio(500.0, 499.0, 300.0))

    def test_bounded_under_condition(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            q = float(rng.uniform(0.0, 3.0))
            low = max(-q, (1.0 - math.sqrt(1.0 + 8.0 * q)) / 2.0)
            high = (1.0 + math.sqrt(1.0 + 8.0 * q)) / 2.0
            delta = float(rng.uniform(low, high))
            r = q + delta
            theta = float(rng.uniform(-5.0, 5.0))
            assert (r - q) ** 2 <= r + q + 1e-9
            assert cosh_ratio(r, q, theta) <= 1.0 + 1e-12

    def test_negative_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            cosh_ratio(-1.0, 0.0, 1.0)


class TestRhsShapeInvariance:
    def test_rhs_only_depends_on_shape(self, binary3, worked_config):
        weights = WeightAssignment.from_mapping(binary3, {"1.1.1": 2.0}, default=1.0)
        masses = cylinder_masses(binary3, weights)
        f = LevelFunction.by_level(binary3, [2.0, 1.0, 3.0, 1.0])
        pa = ExponentAssignment((2.0, 3.0, 6.0))
        values = set()
        for member in list(orbit_enumerate(worked_config))[:10]:
            shape = extract_shape(member)
            values.add(rhs_product(binary3, masses, f, ROOT, shape, pa, 1.0))
        assert len(values) == 1


# The recursive walks that the join-node records replaced, transcribed as
# references: slots, the general and binary constants, the proof-recursion
# ledger and the orbit count must come out bit-identical.


def ref_slots(shape, base_level):
    slots = []

    def walk(node, parent_level, path):
        if isinstance(node, ShapeLeaf):
            return
        level = parent_level + node.gap
        for _ in range(node.multiplicity):
            slots.append((level, path))
        for j, branch in enumerate(node.branches):
            walk(branch, level, path + (j,))

    walk(shape, base_level, ())
    return slots


def ref_nodes(shape):
    if isinstance(shape, ShapeLeaf):
        return
    yield shape
    for b in shape.branches:
        yield from ref_nodes(b)


def ref_own_sums(shape, pa):
    owned = {}
    for (_, path), q in zip(ref_slots(shape, 0), pa.reciprocals()):
        owned.setdefault(path, []).append(q)
    return {path: sum(qs) for path, qs in owned.items()}


def ref_k_general(shape, m):
    value = 1
    for node in ref_nodes(shape):
        value *= math.factorial(m - 1) // math.factorial(m - node.degree)
    return value


def ref_k_binary(shape, pa):
    own_sums = ref_own_sums(shape, pa)
    failing = []

    def subtree_sum(node, path):
        if isinstance(node, ShapeLeaf):
            return 0.0
        branch_sums = [subtree_sum(b, path + (j,)) for j, b in enumerate(node.branches)]
        if any(s > 0.5 + bounds.HALF_TOL for s in branch_sums):
            failing.append(path)
        return own_sums[path] + sum(branch_sums)

    subtree_sum(shape, ())
    value = 2.0 ** (-(shape.n_particles - 1)) if not failing else 1.0
    return value, not failing


def certified_log_k(mspec):
    """The rule ``k_inductive`` applies to a node that rests on the estimator."""
    return min(math.log(bounds.muirhead_numeric(mspec).upper), math.lgamma(mspec.m))


def ref_k_inductive(shape, pa, m, estimated_log_k=certified_log_k):
    own_sums = ref_own_sums(shape, pa)
    entries = []

    def walk(node, path, level_offset):
        if isinstance(node, ShapeLeaf):
            return 0.0
        level = level_offset + node.gap
        own = own_sums[path]
        branch_sums = [walk(b, path + (j,), level) for j, b in enumerate(node.branches)]
        alpha_inv = tuple(1.0 - s for s in branch_sums)
        subtree = own + sum(branch_sums)
        beta_inv = own + (1.0 - subtree)
        d = node.degree
        mspec = MuirheadSpec(tuple(ai / beta_inv for ai in alpha_inv) + (0.0,) * (m - d))
        closed = muirhead_closed_form(mspec)
        estimated = not closed.exact and m in bounds._RESOLUTION
        log_upper = math.lgamma(m)
        if closed.exact:
            log_k = bounds._log_closed_form(closed.case, m, mspec.s)
        elif not estimated:
            log_k = log_upper
        else:
            log_k = estimated_log_k(mspec)
        log_factor = beta_inv * log_k + (1.0 - beta_inv) * log_upper - math.lgamma(m - d + 1)
        entries.append(
            NodeAccount(path, level, d, alpha_inv, beta_inv, closed.case, log_k, estimated,
                        log_factor)
        )
        return subtree

    if isinstance(shape, ShapeLeaf):
        return 1.0, ()
    walk(shape, (), 0)
    entries.reverse()
    return math.exp(sum(e.log_factor for e in entries)), tuple(entries)


def ref_orbit_size(shape, m, top=True):
    descents = m ** (shape.gap if top else shape.gap - 1)
    if isinstance(shape, ShapeLeaf):
        return descents
    inner = math.prod(ref_orbit_size(b, m, top=False) for b in shape.branches)
    return descents * math.perm(m, shape.degree) * inner


def random_shape_case(rng):
    """A configuration on m 2..7, k <= 3, n <= 7, below a base at level 0 or 1."""
    m, k = rng.randint(2, 7), rng.randint(1, 3)
    base = Vertex(tuple(rng.randint(1, m) for _ in range(rng.randint(0, min(1, k - 1)))))
    free = k - base.level
    n = rng.randint(2, min(7, m**free))
    particles = []
    for rank in rng.sample(range(m**free), n):
        digits = [rank // m**i % m + 1 for i in reversed(range(free))]
        particles.append(Vertex(base.word + tuple(digits)))
    weights = [rng.random() + 1e-3 for _ in range(n - 1)]
    pa = ExponentAssignment(tuple(sum(weights) / w for w in weights))
    return m, Configuration(TreeParams(m, k), base, tuple(particles)), pa


def assert_children_match(shape):
    """Each record's children name its node branches' records, in branch order."""
    records = shape.join_nodes
    for index, record in enumerate(records):
        node = shape
        for j in record.path:
            node = node.branches[j]
        assert record.degree == len(record.children) == node.degree
        for j, (branch, c) in enumerate(zip(node.branches, record.children)):
            if isinstance(branch, ShapeLeaf):
                assert c is None
            else:
                assert c < index and records[c].path == record.path + (j,)


class TestJoinNodeWalk:
    def test_matches_recursive_walks(self, monkeypatch):
        # both sides ask for the same estimates; take each once
        monkeypatch.setattr(bounds, "muirhead_numeric", functools.cache(bounds.muirhead_numeric))
        rng = random.Random(2024)
        seen = {"base 1": 0, "multiplicity >= 2": 0, "m >= 6": 0, "binary": 0, "halves fail": 0}
        for _ in range(400):
            m, config, pa = random_shape_case(rng)
            shape = extract_shape(config)
            base_level = config.base.level
            assert shape_join_levels(shape, base_level) == [
                level for level, _ in ref_slots(shape, base_level)
            ]
            assert shape_orbit_size(shape, m) == ref_orbit_size(shape, m)
            assert_children_match(shape)
            assert regime_constant(shape, pa, m, "general") == (ref_k_general(shape, m), ())
            value, ledger = ref_k_inductive(shape, pa, m)
            result = k_inductive(shape, pa, m)
            assert result.value == value and result.ledger == ledger
            if m == 2:
                k, flags = regime_constant(shape, pa, m, "binary_optimal")
                met = "halves-condition-failure" not in flags
                assert (k, met) == ref_k_binary(shape, pa)
                seen["binary"] += 1
                seen["halves fail"] += not met
            else:  # a binary shape included: the sharp constant holds on binary trees only
                with pytest.raises(ConfigurationError, match=f"not arity {m}"):
                    regime_constant(shape, pa, m, "binary_optimal")
            seen["base 1"] += base_level == 1
            seen["multiplicity >= 2"] += any(n.multiplicity >= 2 for n in ref_nodes(shape))
            seen["m >= 6"] += m >= 6
        assert min(seen.values()) >= 10, seen

    def test_certified_above_finer_lower_estimate(self, monkeypatch):
        # a grid maximum clamped into the bracket is a lower bound for a node's
        # constant; at 4x the estimator's resolution it must not pass the certified one
        monkeypatch.setattr(bounds, "muirhead_numeric", functools.cache(bounds.muirhead_numeric))

        @functools.cache
        def finer_lower_log_k(mspec):
            points = reference_chamber(mspec.m, 4 * bounds._RESOLUTION[mspec.m])
            lower = float(grid_sums(points, mspec.a).max())
            log_bracket = math.lgamma(mspec.m + 1) - mspec.s * math.log(mspec.m)
            return min(max(math.log(lower), log_bracket), math.lgamma(mspec.m))

        # lone-branch nodes are exact, so draw until 100 shapes rest on the estimator
        rng = random.Random(2024)
        estimated = 0
        for _ in range(1000):
            m, config, pa = random_shape_case(rng)
            shape = extract_shape(config)
            result = k_inductive(shape, pa, m)
            value, _ = ref_k_inductive(shape, pa, m, finer_lower_log_k)
            assert result.value >= value
            estimated += result.estimated
            if estimated == 100:
                break
        assert estimated == 100
