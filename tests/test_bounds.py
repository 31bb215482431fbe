"""Exponent validation, level power sums, constant regimes, symmetric sums."""

from __future__ import annotations

import functools
import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from joinforge import (
    Configuration,
    ConfigurationError,
    ExponentAssignment,
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
    k_binary,
    k_general,
    k_inductive,
    level_power_sum,
    muirhead_closed_form,
    muirhead_numeric,
    orbit_enumerate,
    rhs_product,
    shape_join_levels,
    shape_orbit_size,
    symmetric_sum,
    validate_exponents,
)

from joinforge import bounds
from joinforge.bounds import _simplex_grid, _symmetric_sum_grid

from conftest import vx


def reference_symmetric_sum(x, a):
    """The permutation loop as first written: every factor, ``0**0 = 1``."""
    total = 0.0
    for sigma in itertools.permutations(range(len(a))):
        term = 1.0
        for i, j in enumerate(sigma):
            term *= 1.0 if a[i] == 0.0 else float(x[j]) ** a[i]
        total += term
    return total


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
        assert shape_join_levels(worked_shape, 0) == [0, 1, 2]

    def test_multiplicity_two_owns_two_slots(self):
        config = eight_particle_ternary_config()
        shape = extract_shape(config)
        records = shape.join_nodes
        assert sum(len(r.slots) for r in records) == config.n - 1 == 7
        assert [len(r.slots) for r in records if r.node.degree == 3] == [2, 2]
        slots = sorted(slot for r in records for slot in r.slots)
        assert slots == list(range(7))

    def test_a_leaf_has_no_join_nodes(self):
        shape = extract_shape(Configuration(TreeParams(2, 2), ROOT, (vx(1, 1),)))
        assert shape.join_nodes == ()
        assert shape_join_levels(shape, 0) == []


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

    def test_coexponent_enters_the_sum(self, worked_shape):
        pa = ExponentAssignment((6.0, 6.0, 6.0), coexponent=0.5)
        assert validate_exponents(worked_shape, pa) is None

    def test_coexponent_range(self):
        with pytest.raises(ConfigurationError):
            ExponentAssignment((2.0, 2.0), coexponent=1.5)


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
        f = LevelFunction.from_mapping(binary3, {ROOT: 2.5}, default=1.0)
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
        weights = WeightAssignment.from_mapping(
            binary3, {vx(1, 1, 1): 3.0}, default=1.0
        )
        masses = cylinder_masses(binary3, weights)
        f = LevelFunction.constant(binary3)
        # below vertex 2 the bumped leaf is invisible
        got = level_power_sum(binary3, masses, f, vx(2), 2, 1.0)
        assert got == pytest.approx(2 * 2.0**2, rel=1e-12)


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
        weights = WeightAssignment(
            binary3, {leaf: rng.uniform(0.2, 3.0) for leaf in binary3.leaves()}
        )
        f = LevelFunction(binary3, {v: rng.uniform(0.2, 3.0) for v in binary3.vertices()})
        pa = ExponentAssignment((2.0, 4.0, 4.0))
        one = rhs_product(binary3, cylinder_masses(binary3, weights), f, ROOT, worked_shape, pa, 1.0)
        two = rhs_product(
            binary3, cylinder_masses(binary3, weights.scaled(2.0)), f, ROOT, worked_shape, pa, 1.0
        )
        assert two == pytest.approx(2.0**4 * one, rel=1e-10)

    def test_extreme_exponents_stay_finite(self, binary3, worked_shape):
        masses = cylinder_masses(binary3, WeightAssignment.constant(binary3, 1e3))
        f = LevelFunction.constant(binary3, 1e3)
        huge = 1e9
        pa = ExponentAssignment((huge, huge / (huge - 2.0), huge))
        assert validate_exponents(worked_shape, pa) is None
        value = rhs_product(binary3, masses, f, ROOT, worked_shape, pa, 1.0)
        assert math.isfinite(value) and value > 0.0


class TestKGeneral:
    def test_binary_shapes_give_one(self, worked_shape):
        result = k_general(worked_shape, 2)
        assert result.value == 1
        assert result.crude_bound == 1

    def test_eight_particle_ternary(self):
        config = eight_particle_ternary_config()
        result = k_general(extract_shape(config), 3)
        # two multiplicity-2 nodes and three multiplicity-1 nodes
        assert result.value == (2 * 2) * (2 * 2 * 2) == 32
        assert result.crude_bound == 2**7

    def test_single_join_any_arity(self):
        for m in (2, 3, 4, 5):
            tree = TreeParams(m, 1)
            config = Configuration(tree, ROOT, (vx(1), vx(2)))
            result = k_general(extract_shape(config), m)
            assert result.value == m - 1

    def test_value_below_crude_bound(self):
        rng = random.Random(14)
        tree = TreeParams(3, 3)
        leaves = list(tree.leaves())
        for _ in range(20):
            config = Configuration(tree, ROOT, tuple(rng.sample(leaves, rng.randint(2, 6))))
            result = k_general(extract_shape(config), 3)
            assert result.value <= result.crude_bound


class TestKBinary:
    def test_worked_example_met(self, worked_shape):
        result = k_binary(worked_shape, ExponentAssignment((3.0, 3.0, 3.0)))
        assert result.condition_met
        assert result.value == 0.125

    def test_two_particles_vacuous(self, binary3):
        config = Configuration(binary3, ROOT, (vx(1, 1, 1), vx(2, 1, 1)))
        result = k_binary(extract_shape(config), ExponentAssignment((1.0,)))
        assert result.condition_met and result.value == 0.5

    def test_top_slot_exponent_does_not_enter(self, worked_shape):
        # a small top exponent is fine; only branch sums are constrained
        result = k_binary(worked_shape, ExponentAssignment((1.5, 6.0, 6.0)))
        assert result.condition_met and result.value == 0.125

    def test_condition_violation_falls_back_to_one(self, worked_shape):
        result = k_binary(worked_shape, ExponentAssignment((6.0, 1.5, 6.0)))
        assert not result.condition_met
        assert result.value == 1.0
        assert result.failing_nodes == ((),)

    def test_non_binary_shape_rejected(self):
        tree = TreeParams(3, 1)
        config = Configuration(tree, ROOT, (vx(1), vx(2), vx(3)))
        with pytest.raises(ConfigurationError):
            k_binary(extract_shape(config), ExponentAssignment((2.0, 2.0)))


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

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_bit_identical_to_permutation_loop(self, m):
        rng = random.Random(100 + m)
        for _ in range(300):
            x = [rng.uniform(0.0, 2.0) if rng.random() > 0.3 else 0.0 for _ in range(m)]
            a = [rng.uniform(0.0, 3.0) if rng.random() > 0.4 else 0.0 for _ in range(m)]
            got = symmetric_sum(x, MuirheadSpec(tuple(a)))
            assert got == reference_symmetric_sum(x, a)

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
            got = _symmetric_sum_grid(points, spec.a)
            want = [symmetric_sum(x, spec) for x in points]
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
        ]
        for spec in specs:
            value = muirhead_closed_form(spec)
            assert value.exact
            uniform = [1.0 / spec.m] * spec.m
            assert symmetric_sum(uniform, spec) == pytest.approx(value.value, rel=1e-12)


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
            assert got.value == _symmetric_sum_grid(sorted_grid, spec.a).max()
            full = _symmetric_sum_grid(grid, spec.a).max()
            assert got.value == pytest.approx(full, rel=bounds.ROUNDING_ALLOWANCE, abs=0.0)
            assert list(got.maximizer) == sorted(got.maximizer, reverse=True)

    def test_grid_cached_read_only(self):
        grid = _simplex_grid(3)
        assert _simplex_grid(3) is grid
        full = reference_grid(3, 96)
        assert np.array_equal(grid, full[(np.diff(full, axis=1) <= 0).all(axis=1)])
        assert not grid.flags.writeable
        with pytest.raises(ValueError):
            grid[0, 0] = 1.0

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
        assert len(result.ledger.entries) == 3
        for entry in result.ledger.entries:
            assert entry.factor == pytest.approx(0.5, rel=1e-12)

    def test_two_particle_ledger(self):
        for m in (2, 3):
            tree = TreeParams(m, 1)
            config = Configuration(tree, ROOT, (vx(1), vx(2)))
            result = k_inductive(extract_shape(config), ExponentAssignment((1.0,)), m)
            (entry,) = result.ledger.entries
            assert entry.alpha_inv == (1.0, 1.0)
            assert entry.beta_inv == pytest.approx(1.0)

    def test_ledger_balance_identity(self, worked_shape):
        # per node, the branch coexponents total degree - 1 + 1/beta
        result = k_inductive(worked_shape, ExponentAssignment((2.0, 3.0, 6.0)), 2)
        for entry in result.ledger.entries:
            lhs = sum(entry.alpha_inv)
            rhs = entry.degree - 1 + entry.beta_inv
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_single_particle_branch_has_unit_coexponent(self, binary3):
        config = Configuration(binary3, ROOT, (vx(1, 1, 1), vx(1, 2, 1), vx(2, 1, 1)))
        result = k_inductive(extract_shape(config), ExponentAssignment((2.0, 2.0)), 2)
        top = [e for e in result.ledger.entries if e.node_path == ()][0]
        assert 1.0 in top.alpha_inv

    def test_at_most_k_general_on_binary(self, binary3):
        rng = random.Random(19)
        leaves = list(binary3.leaves())
        gen = np.random.default_rng(19)
        for _ in range(40):
            n = rng.randint(2, 6)
            config = Configuration(binary3, ROOT, tuple(rng.sample(leaves, n)))
            shape = extract_shape(config)
            reciprocals = np.clip(gen.dirichlet(np.ones(n - 1)), 1e-9, None)
            reciprocals = reciprocals / reciprocals.sum()
            pa = ExponentAssignment(tuple(1.0 / q for q in reciprocals))
            result = k_inductive(shape, pa, 2)
            assert result.value <= k_general(shape, 2).value * (1 + 1e-9)

    def test_ternary_pair_is_estimated(self):
        tree = TreeParams(3, 1)
        config = Configuration(tree, ROOT, (vx(1), vx(2)))
        result = k_inductive(extract_shape(config), ExponentAssignment((1.0,)), 3)
        assert result.estimated
        (entry,) = result.ledger.entries
        assert entry.muirhead_case == "ii"
        # the sharp constant for two particles at a ternary root is 2/3; the
        # certified constant lies above it by at most the grid's radius
        estimate = muirhead_numeric(MuirheadSpec((1.0, 1.0, 0.0)))
        assert entry.log_muirhead == math.log(estimate.upper)
        widened = (2.0 / 3.0 + estimate.uncertainty) * (1.0 + bounds.ROUNDING_ALLOWANCE)
        # exp(log(upper)) may round one ulp above upper
        assert 2.0 / 3.0 <= estimate.value <= result.value <= widened * (1.0 + 1e-15)

    def test_beyond_estimator_takes_bracket_upper_end(self):
        # a 7-ary star of degree 5: the zero-padded vector has no closed form
        # and the numeric estimator stops at m = 5
        tree = TreeParams(7, 1)
        config = Configuration(tree, ROOT, tuple(vx(c) for c in range(1, 6)))
        result = k_inductive(extract_shape(config), ExponentAssignment((4.0,) * 4), 7)
        (entry,) = result.ledger.entries
        assert entry.muirhead_case == "ii" and entry.bracket_upper
        assert not result.estimated
        assert entry.log_muirhead == math.lgamma(7)
        # (m-1)! at the node gives back the general constant 6!/2!
        assert result.value == pytest.approx(360.0, rel=1e-12)


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
        weights = WeightAssignment.from_mapping(binary3, {vx(1, 1, 1): 2.0}, default=1.0)
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
    value, multiplicity = 1, 0
    for node in ref_nodes(shape):
        value *= math.factorial(m - 1) // math.factorial(m - node.degree)
        multiplicity += node.multiplicity
    return value, (m - 1) ** multiplicity


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
    return value, not failing, tuple(failing)


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
            assert tuple(k_general(shape, m)) == ref_k_general(shape, m)
            value, ledger = ref_k_inductive(shape, pa, m)
            result = k_inductive(shape, pa, m)
            assert result.value == value and result.ledger.entries == ledger
            if all(node.degree == 2 for node in ref_nodes(shape)):
                kb = k_binary(shape, pa)
                assert (kb.value, kb.condition_met, kb.failing_nodes) == ref_k_binary(shape, pa)
                seen["binary"] += 1
                seen["halves fail"] += not kb.condition_met
            else:
                with pytest.raises(ConfigurationError, match="binary shape"):
                    k_binary(shape, pa)
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
            lower = float(_symmetric_sum_grid(points, mspec.a).max())
            log_bracket = math.lgamma(mspec.m + 1) - mspec.s * math.log(mspec.m)
            return min(max(math.log(lower), log_bracket), math.lgamma(mspec.m))

        rng = random.Random(2024)
        estimated = 0
        for _ in range(400):
            m, config, pa = random_shape_case(rng)
            shape = extract_shape(config)
            result = k_inductive(shape, pa, m)
            value, _ = ref_k_inductive(shape, pa, m, finer_lower_log_k)
            assert result.value >= value
            estimated += result.estimated
        assert estimated >= 100
