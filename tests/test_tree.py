"""Tree words, joins, join multisets, and cylinder masses."""

from __future__ import annotations

import itertools
import json
import math
import functools
import random
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from joinforge import (
    Configuration,
    ConfigurationError,
    LevelFunction,
    ROOT,
    TreeParams,
    Vertex,
    WeightAssignment,
    common_join,
    cylinder_masses,
    join,
    join_multiset,
)
import joinforge.tree as tree_module
from joinforge.tree import (
    KEY_CHUNK,
    MAX_TREE_VERTICES,
    cached_attribute,
    keyed_levels,
    keyed_map,
    level_views,
    parse_word,
)

from conftest import REPO, run_python, vx


words = st.lists(st.integers(min_value=1, max_value=3), min_size=0, max_size=6).map(tuple)


class TestVertex:
    def test_text_round_trip(self):
        for v in (ROOT, vx(2, 1, 1), vx(3,)):
            assert Vertex.from_text(v.to_text()) == v
        assert ROOT.to_text() == ""
        assert vx(2, 1, 1).to_text() == "2.1.1"

    def test_level_and_prefix(self):
        assert ROOT.level == 0
        assert vx(1, 2).level == 2
        assert vx(1).ancestor_of(vx(1, 2, 2))
        assert not vx(2).ancestor_of(vx(1, 2))

    def test_bad_encoding(self):
        with pytest.raises(ConfigurationError):
            Vertex.from_text("1.x.2")


class TestCachedAttribute:
    @pytest.mark.parametrize("decorator", [cached_attribute, functools.cached_property])
    def test_behaves_as_cached_property(self, decorator):
        class Counted:
            calls = 0

            @decorator
            def value(self):
                """The doc."""
                Counted.calls += 1
                return [Counted.calls]

        # read through the class, the descriptor itself, with the method's doc
        assert isinstance(Counted.value, decorator)
        assert Counted.value.__doc__ == "The doc."
        one, two = Counted(), Counted()
        first = one.value
        assert one.value is first and one.__dict__ == {"value": first}
        assert two.value == [2] and Counted.calls == 2
        del one.value  # a deleted value is computed again on the next read
        assert one.value == [3]


class TestTreeParams:
    def test_counts(self):
        tree = TreeParams(2, 3)
        assert tree.leaf_count == 8
        assert tree.vertex_count == 15
        assert len(list(tree.vertices())) == 15
        tree = TreeParams(3, 2)
        assert tree.leaf_count == 9
        assert tree.vertex_count == 13

    def test_invariants(self):
        with pytest.raises(ConfigurationError):
            TreeParams(1, 3)
        with pytest.raises(ConfigurationError):
            TreeParams(2, 0)
        with pytest.raises(ConfigurationError, match="depth must be an integer"):
            TreeParams(2, True)
        with pytest.raises(ConfigurationError, match="arity must be an integer"):
            TreeParams(2.0, 2)

    def test_descendants(self):
        tree = TreeParams(2, 3)
        below = list(tree.descendants_at(vx(2), 2))
        assert below == [vx(2, 1), vx(2, 2)]
        assert list(tree.descendants_at(vx(2, 1), 2)) == [vx(2, 1)]
        with pytest.raises(ConfigurationError):
            list(tree.descendants_at(vx(2, 1), 1))

    def test_rank_is_the_lexicographic_index(self, ternary2):
        for level in range(ternary2.depth + 1):
            ranks = [ternary2.rank(v.word) for v in ternary2.vertices_at(level)]
            assert ranks == list(range(3**level))

    def test_ranks_below_are_the_descendants(self, binary3):
        for v in binary3.vertices():
            for level in range(v.level, binary3.depth + 1):
                block = binary3.ranks_below(v, level)
                below = [binary3.rank(w.word) for w in binary3.descendants_at(v, level)]
                assert below == list(range(block.start, block.stop))
        with pytest.raises(ConfigurationError):
            binary3.ranks_below(vx(2, 1), 1)

    def test_rank_refuses_foreign_words(self, binary3):
        for word in [(3,), (0, 1), (1, 1, 1, 1)]:
            with pytest.raises(ConfigurationError):
                binary3.rank(word)

    @pytest.mark.parametrize(
        "word", [(1.5, 2), (1.0, 2.0), (True, 2), (np.bool_(True), 2), ("1", 2)],
        ids=["fraction", "integral-float", "bool", "numpy-bool", "string"],
    )
    def test_rank_refuses_symbols_that_are_not_integers(self, word):
        tree = TreeParams(2, 2)
        with pytest.raises(ConfigurationError, match="has no such vertex"):
            tree.rank(word)
        with pytest.raises(ConfigurationError):
            Configuration(tree, ROOT, (Vertex(word), vx(2, 1)))
        with pytest.raises(KeyError):  # as for any vertex outside the tree
            WeightAssignment.constant(tree).weight(Vertex(word))

    def test_rank_takes_numpy_integer_symbols(self):
        tree = TreeParams(2, 2)
        assert tree.rank((np.int64(2), np.uint8(1))) == tree.rank((2, 1)) == 2


class TestJoin:
    def test_worked_example_joins(self):
        assert join(vx(1, 1, 1), vx(1, 2, 1)) == vx(1)
        assert join(vx(2, 1, 1), vx(2, 1, 2)) == vx(2, 1)
        assert join(vx(1, 1, 1), vx(2, 1, 1)) == ROOT

    def test_join_of_identical(self):
        v = vx(1, 2, 2)
        assert join(v, v) == v

    @given(a=words, b=words)
    def test_join_is_maximal_common_prefix(self, a, b):
        w = join(Vertex(a), Vertex(b))
        assert w.ancestor_of(Vertex(a)) and w.ancestor_of(Vertex(b))
        # no longer word is a prefix of both
        if w.level < min(len(a), len(b)):
            assert a[w.level] != b[w.level]

    @given(a=words, b=words)
    def test_join_commutes(self, a, b):
        assert join(Vertex(a), Vertex(b)) == join(Vertex(b), Vertex(a))

    def test_join_below_free_level_for_distinct_leaves(self):
        tree = TreeParams(2, 3)
        leaves = list(tree.leaves())
        for a in leaves:
            for b in leaves:
                if a != b:
                    assert join(a, b).level < tree.depth


class TestJoinMultiset:
    def test_worked_example(self):
        particles = (vx(1, 1, 1), vx(1, 2, 1), vx(2, 1, 1), vx(2, 1, 2))
        assert join_multiset(particles) == {ROOT: 1, vx(1): 1, vx(2, 1): 1}

    def test_single_pair(self):
        assert join_multiset((vx(1, 1), vx(1, 2))) == {vx(1): 1}

    def test_eight_particles_two_double_points(self):
        # ternary depth-3 layout: 8 particles, total multiplicity 7, exactly
        # two join points of multiplicity 2
        particles = (
            vx(1, 1, 1), vx(1, 2, 1), vx(1, 3, 1), vx(1, 3, 2),
            vx(2, 1, 1), vx(2, 2, 1), vx(2, 3, 1), vx(2, 3, 2),
        )
        mult = join_multiset(particles)
        assert sum(mult.values()) == 7
        assert sorted(mult.values(), reverse=True) == [2, 2, 1, 1, 1]
        assert mult[vx(1)] == 2 and mult[vx(2)] == 2

    def test_rejects_duplicates_and_singletons(self):
        with pytest.raises(ConfigurationError):
            join_multiset((vx(1, 1), vx(1, 1)))
        with pytest.raises(ConfigurationError):
            join_multiset((vx(1, 1),))

    @given(data=st.data())
    def test_total_multiplicity_is_n_minus_one(self, data):
        tree = TreeParams(
            data.draw(st.sampled_from([2, 3])), data.draw(st.integers(1, 3))
        )
        leaves = list(tree.leaves())
        n = data.draw(st.integers(2, min(5, len(leaves))))
        idx = data.draw(
            st.lists(
                st.integers(0, len(leaves) - 1), min_size=n, max_size=n, unique=True
            )
        )
        particles = tuple(leaves[i] for i in idx)
        mult = join_multiset(particles)
        assert sum(mult.values()) == n - 1
        # every key is a pairwise join and every pairwise join is a key
        pairwise = {join(a, b) for a in particles for b in particles if a != b}
        assert set(mult) == pairwise
        # multiplicity equals occupied children minus one
        for w, r in mult.items():
            occupied = {p.word[w.level] for p in particles if w.ancestor_of(p)}
            assert r == len(occupied) - 1

    def test_common_join(self):
        assert common_join([vx(1, 1, 1), vx(1, 2, 1), vx(1, 2, 2)]) == vx(1)
        with pytest.raises(ConfigurationError):
            common_join([])


def mass(tree, masses, v):
    return masses[v.level][tree.rank(v.word)]


class TestCylinderMasses:
    def test_unit_weights_binary(self, binary3):
        masses = cylinder_masses(binary3, WeightAssignment.constant(binary3, 1.0))
        assert mass(binary3, masses, vx(2, 1)) == 2.0
        assert mass(binary3, masses, vx(1)) == 4.0
        assert mass(binary3, masses, ROOT) == 8.0
        assert mass(binary3, masses, vx(2, 1, 1)) == 1.0

    def test_zero_weights(self, binary3):
        masses = cylinder_masses(binary3, WeightAssignment.constant(binary3, 0.0))
        assert all(mass(binary3, masses, v) == 0.0 for v in binary3.vertices())

    def test_point_mass(self, binary3):
        weights = WeightAssignment.from_mapping(binary3, {"2.1.2": 5.0}, default=0.0)
        masses = cylinder_masses(binary3, weights)
        on_path = {ROOT, vx(2), vx(2, 1), vx(2, 1, 2)}
        for v in binary3.vertices():
            assert mass(binary3, masses, v) == (5.0 if v in on_path else 0.0)

    @given(scale=st.floats(min_value=0.01, max_value=100.0))
    def test_mass_scales_linearly(self, scale):
        tree = TreeParams(2, 2)
        base_weights = WeightAssignment(tree, [1.0, 2.0, 3.0, 4.0])
        one = cylinder_masses(tree, base_weights)
        two = cylinder_masses(tree, WeightAssignment(tree, base_weights.leaf_array * scale))
        for v in tree.vertices():
            assert mass(tree, two, v) == pytest.approx(scale * mass(tree, one, v), rel=1e-12)

    def test_mass_beyond_float_range_refused(self, binary3):
        weights = WeightAssignment.constant(binary3, 1e308)
        with pytest.raises(ConfigurationError, match="float range"):
            cylinder_masses(binary3, weights)

    def test_bit_identical_to_child_sums(self):
        tree = TreeParams(3, 3)
        rng = random.Random(5)
        weights = WeightAssignment(
            tree,
            [0.0 if rng.random() < 0.2 else rng.uniform(0.0, 9.0) for _ in tree.leaves()],
        )
        reference = {leaf: weights.weight(leaf) for leaf in tree.leaves()}
        for level in range(tree.depth - 1, -1, -1):
            for v in tree.vertices_at(level):
                reference[v] = sum(reference[v.child(s)] for s in tree.symbols())
        masses = cylinder_masses(tree, weights)
        assert all(mass(tree, masses, v) == reference[v] for v in tree.vertices())

    @pytest.mark.parametrize("m, k", [(2, 3), (3, 2), (5, 1)])
    def test_levels_are_read_only_views_of_one_array(self, m, k):
        tree = TreeParams(m, k)
        masses = cylinder_masses(tree, WeightAssignment(tree, np.arange(m**k, dtype=float)))
        held = masses[0].base
        assert held.shape == (tree.vertex_count,) and not held.flags.writeable
        assert all(level.base is held and not level.flags.writeable for level in masses)
        assert [level.size for level in masses] == [m**l for l in range(k + 1)]
        assert np.array_equal(np.concatenate(masses), held)  # root first, levels in order

    def test_negative_zero_weights_sum_to_positive_zero(self, binary3):
        # the sum over children starts from +0.0, as a Python sum does
        weights = WeightAssignment(binary3, np.full(8, -0.0))
        masses = cylinder_masses(binary3, weights)
        assert np.signbit(masses[-1]).all()
        assert not any(np.signbit(level).any() for level in masses[:-1])

    def test_negative_weight_rejected(self, binary3):
        with pytest.raises(ConfigurationError):
            WeightAssignment.from_mapping(binary3, {"1.1.1": -1.0})


class TestLevelArrays:
    def test_views_read_the_arrays(self, binary3):
        weights = WeightAssignment.from_mapping(binary3, {"2.1.2": 5.5}, default=1)
        assert weights.weight(vx(2, 1, 2)) == 5.5
        assert weights.leaf_array[binary3.rank((2, 1, 2))] == 5.5
        f = LevelFunction.by_level(binary3, [1.0, 2.0, 3.0, 4.0])
        assert all(f(v) == float(v.level + 1) for v in binary3.vertices())
        for foreign in (vx(1), vx(3, 1, 1), vx(1, 1, 1, 1)):
            with pytest.raises(KeyError):
                weights.weight(foreign)
        with pytest.raises(KeyError):
            f(vx(1, 1, 1, 1))

    def test_arrays_are_read_only(self, binary3):
        weights = WeightAssignment.constant(binary3)
        masses = cylinder_masses(binary3, weights)
        for array in (weights.leaf_array, LevelFunction.constant(binary3).levels[1], masses[0]):
            with pytest.raises(ValueError):
                array[0] = 2.0

    def test_array_constructors_check_every_value(self, binary3):
        leaf_array = np.ones(8)
        leaf_array[5] = -1.0  # rank 5 at depth 3 is the word 2.1.2
        with pytest.raises(ConfigurationError, match="2.1.2"):
            WeightAssignment(binary3, leaf_array)
        with pytest.raises(ConfigurationError):
            WeightAssignment(binary3, np.ones(4))
        levels = [np.ones(2**level) for level in range(4)]
        with pytest.raises(ConfigurationError, match="need one array"):
            LevelFunction(binary3, np.concatenate(levels[2:]))
        with pytest.raises(ConfigurationError, match="one flat array"):
            LevelFunction(binary3, levels)  # the level list, not its concatenation
        levels[2][3] = 0.0
        with pytest.raises(ConfigurationError, match="2.2"):
            LevelFunction(binary3, np.concatenate(levels))

    def test_mapping_constructors_refuse_words_below_the_leaves(self, binary3):
        with pytest.raises(ConfigurationError, match="no such vertex"):
            WeightAssignment.from_mapping(binary3, {"1.1.1.1": 1.0})
        with pytest.raises(ConfigurationError, match="no such vertex"):
            LevelFunction.from_mapping(binary3, {"1.1.1.1": 1.0})

    def test_nan_in_an_array_is_a_bad_value(self, binary3):
        weights = np.ones(8)
        weights[binary3.rank((2, 2, 1))] = math.nan
        with pytest.raises(ConfigurationError, match="2.2.1"):
            WeightAssignment(binary3, weights)

    @pytest.mark.parametrize(
        "bad", ["2.5", True, np.True_, None], ids=["string", "boolean", "numpy-boolean", "none"]
    )
    def test_one_value_rule_for_maps_and_arrays(self, binary3, bad):
        with pytest.raises(ConfigurationError, match="JSON number"):
            WeightAssignment.from_mapping(binary3, {"2.1.2": bad})
        with pytest.raises(ConfigurationError, match="JSON number"):
            LevelFunction.from_mapping(binary3, {"2.1": bad})
        with pytest.raises(ConfigurationError, match="integers or floats"):
            WeightAssignment(binary3, np.full(8, bad))
        with pytest.raises(ConfigurationError, match="integers or floats"):
            LevelFunction(binary3, np.full(15, bad))

    @pytest.mark.parametrize("kind", [np.float64, np.float32, np.int64])
    def test_numpy_scalars_in_maps_read_as_plain_numbers(self, binary3, kind):
        # one plain float rides along, so a chunk mixes both kinds of value
        weights = {"2.1.2": 5, "1.1.1": 3, "2.2.2": 0}
        values = {"": 2, "2.1": 4, "1.2.2": 8}
        plain_w = WeightAssignment.from_mapping(binary3, {**weights, "1.2.1": 1.5})
        plain_f = LevelFunction.from_mapping(binary3, {**values, "1": 1.5})
        got_w = WeightAssignment.from_mapping(
            binary3, {**{w: kind(v) for w, v in weights.items()}, "1.2.1": 1.5}
        )
        got_f = LevelFunction.from_mapping(
            binary3, {**{w: kind(v) for w, v in values.items()}, "1": 1.5}
        )
        assert got_w.leaf_array.tobytes() == plain_w.leaf_array.tobytes()
        assert [a.tobytes() for a in got_f.levels] == [a.tobytes() for a in plain_f.levels]

    @pytest.mark.parametrize("flag", [True, np.False_], ids=["bool", "numpy-bool"])
    def test_boolean_among_numbers_in_a_list_refused(self, flag):
        # numpy would read the list as floats; the element check refuses it first
        tree = TreeParams(2, 2)
        with pytest.raises(ConfigurationError, match="got a boolean"):
            WeightAssignment(tree, [1.0, flag, 1, 1])
        with pytest.raises(ConfigurationError, match="got a boolean"):
            LevelFunction(tree, [1.0, 2.0, 1, 1, flag, 3.0, 1.0])
        assert WeightAssignment(tree, [1.0, 2, 1, 1]).leaf_array.tolist() == [1.0, 2.0, 1.0, 1.0]

    def test_list_items_read_as_map_values(self):
        # an int past numpy's integers reads as a float, in a list as in a map
        tree = TreeParams(2, 1)
        assert WeightAssignment(tree, [10**30, 1.0]).leaf_array.tolist() == [1e30, 1.0]
        assert WeightAssignment.from_mapping(tree, {"1": 10**30}).leaf_array.tolist() == [
            1e30, 1.0
        ]
        assert WeightAssignment(tree, (np.float32(2.0), np.int64(3))).leaf_array.tolist() == [
            2.0, 3.0
        ]
        assert LevelFunction.by_level(tree, [10**30, 2]).levels[1].tolist() == [2.0, 2.0]
        with pytest.raises(ConfigurationError, match="too large for a float"):
            WeightAssignment(tree, [10**400, 1.0])
        with pytest.raises(ConfigurationError, match="too large for a float"):
            LevelFunction(tree, (1.0, np.longdouble("1e4000"), 1.0))
        # any other item falls to numpy's dtype, and its message
        with pytest.raises(ConfigurationError, match="integers or floats, got <U"):
            WeightAssignment(tree, ["1.0", 1.0])
        with pytest.raises(ConfigurationError, match="integers or floats, got object data"):
            WeightAssignment(tree, [None, 1.0])

    def test_owned_arrays_are_taken_over_and_views_copied(self, binary3):
        given = np.ones(8)
        assert WeightAssignment(binary3, given).leaf_array is given
        assert not given.flags.writeable
        base = np.ones(16)
        weights = WeightAssignment(binary3, base[:8])
        base[0] = 3.0
        assert weights.weight(vx(1, 1, 1)) == 1.0

    def test_oversized_tree_refused_before_allocation(self):
        assert TreeParams(2, 21).vertex_count <= MAX_TREE_VERTICES
        for tree in (TreeParams(2, 22), TreeParams(10, 10)):
            with pytest.raises(ConfigurationError, match="limit"):
                keyed_levels(tree, tree.depth, {}, 0.0)
        with pytest.raises(ConfigurationError, match="limit"):
            WeightAssignment.constant(TreeParams(10, 10))
        with pytest.raises(ConfigurationError, match="limit"):
            LevelFunction.constant(TreeParams(10, 10))

    @pytest.mark.parametrize(
        "m, k, size",
        [(2, 999, str(2**1000 - 1)), (2, 1000, "at least 2**1000"),
         (10, 10**7, "at least 2**30000000"), (2**1000, 1, "at least 2**1000")],
        ids=["exact", "bound", "deep", "wide"],
    )
    def test_huge_tree_refused_by_a_bound(self, m, k, size):
        # from 2**1000 leaves on, the count is neither computed nor printed
        with pytest.raises(ConfigurationError) as refusal:
            keyed_levels(TreeParams(m, k), k, {}, 0.0)
        assert f"with m={m}, k={k} has {size} vertices, over the limit" in str(refusal.value)

    @pytest.mark.parametrize("m, k", [(2, 3), (3, 2), (4, 2)])
    def test_bad_value_named_by_its_word(self, m, k):
        tree = TreeParams(m, k)
        for level in range(k + 1):
            for rank, v in enumerate(tree.vertices_at(level)):
                levels = [np.ones(m**l) for l in range(k + 1)]
                levels[level][rank] = -1.0
                with pytest.raises(ConfigurationError) as info:
                    LevelFunction(tree, np.concatenate(levels))
                assert str(info.value) == f"vertex value at {v!r} must be finite and > 0, got -1.0"

    def test_first_bad_level_named(self):
        # levels are checked together; the refusal names the first bad value in level order
        tree = TreeParams(3, 3)
        levels = [np.ones(3**l) for l in range(4)]
        levels[3][0] = math.inf
        levels[2][4] = 0.0
        levels[2][7] = math.nan
        with pytest.raises(ConfigurationError) as info:
            LevelFunction(tree, np.concatenate(levels))
        want = f"vertex value at {Vertex((2, 2))!r} must be finite and > 0, got 0.0"
        assert str(info.value) == want

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0])
    @pytest.mark.parametrize("level", [1, 11, 12])
    def test_one_bad_value_refused_in_any_part(self, level, bad):
        # one pass over the whole buffer finds a lone bad value on any level,
        # of fewer or more than KEY_CHUNK values
        tree = TreeParams(2, 12)
        levels = [np.ones(2**l) for l in range(13)]
        levels[level][1] = bad
        with pytest.raises(ConfigurationError, match=f"got {bad!r}"):
            LevelFunction(tree, np.concatenate(levels))

    def test_owned_buffer_checked_in_place(self):
        # an owned buffer is taken over and checked in place, so no level is
        # copied; the leaves alone hold 65536 values
        tree = TreeParams(2, 16)
        values = np.ones(tree.vertex_count)
        tracemalloc.start()
        try:
            f = LevelFunction(tree, values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert f.levels[0].base is values
        assert peak < f.levels[-1].nbytes / 8

    def test_bad_last_leaf_refused_without_walking_the_level(self, monkeypatch):
        def no_walk(tree, level):
            pytest.fail("the refusal walked the level")

        monkeypatch.setattr(TreeParams, "vertices_at", no_walk)
        tree = TreeParams(2, 21)
        leaf_array = np.ones(tree.leaf_count)
        leaf_array[-1] = math.nan
        with pytest.raises(ConfigurationError) as info:
            WeightAssignment(tree, leaf_array)
        last = Vertex((2,) * 21)
        assert str(info.value) == f"weight at {last!r} must be finite and >= 0, got nan"

    def test_non_finite_values_are_refused(self, binary3):
        leaf_array = np.ones(8)
        leaf_array[5] = math.inf
        with pytest.raises(ConfigurationError, match="2.1.2"):
            WeightAssignment(binary3, leaf_array)
        levels = [np.ones(2**level) for level in range(4)]
        levels[1][0] = math.inf
        with pytest.raises(ConfigurationError, match="finite"):
            LevelFunction(binary3, np.concatenate(levels))


class TestOneBuffer:
    """``f`` is one root-first array cut into level views, as the masses are."""

    @pytest.mark.parametrize("m, k", [(2, 3), (3, 2), (5, 1)])
    def test_views_their_base_and_the_leaf_array_refuse_writes(self, m, k):
        tree = TreeParams(m, k)
        f = LevelFunction(tree, np.arange(1.0, tree.vertex_count + 1))
        held = f.levels[0].base
        assert held.shape == (tree.vertex_count,)
        assert all(level.base is held for level in f.levels)
        assert [level.size for level in f.levels] == [m**l for l in range(k + 1)]
        assert np.array_equal(np.concatenate(f.levels), held)  # root first, levels in order
        weights = WeightAssignment(tree, np.ones(tree.leaf_count))
        for array in (*f.levels, held, weights.leaf_array):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[-1] = 2.0

    def test_a_writable_view_is_copied(self, binary3):
        given = np.ones(40)
        f = LevelFunction(binary3, given[:15])
        weights = WeightAssignment(binary3, given[20:28])
        given[:] = 3.0
        assert given.flags.writeable
        assert all((level == 1.0).all() for level in f.levels)
        assert (weights.leaf_array == 1.0).all()
        assert f.levels[0].base is not given and weights.leaf_array.base is None

    @pytest.mark.parametrize("m, k", [(2, 3), (3, 2)])
    def test_keyed_levels_and_by_level_give_the_bytes_of_level_arrays(self, m, k):
        # the bytes of one array per level, as these were held, joined root first
        tree = TreeParams(m, k)
        values = [0.5 * (level + 1) for level in range(k + 1)]
        want = [np.full(m**level, value) for level, value in enumerate(values)]
        by_level = LevelFunction.by_level(tree, values)
        assert as_bytes(list(by_level.levels)) == as_bytes(want)
        mapping = {v.to_text(): float(i) for i, v in enumerate(tree.vertices()) if i % 3}
        for first_level in range(k + 1):
            keyed = {w: x for w, x in mapping.items() if len(parse_word(w)) >= first_level}
            got = keyed_levels(tree, first_level, keyed, 1.0)
            assert as_bytes(got) == as_bytes(reference_levels(tree, first_level, keyed, 1.0))
        from_map = LevelFunction.from_mapping(tree, mapping)
        assert as_bytes(list(from_map.levels)) == as_bytes(reference_levels(tree, 0, mapping, 1.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0])
    @pytest.mark.parametrize("m, k", [(2, 3), (3, 2)])
    def test_bad_value_at_either_end_of_a_level_named(self, m, k, bad):
        tree = TreeParams(m, k)
        for level in range(k + 1):
            vertices = list(tree.vertices_at(level))
            for rank in sorted({0, len(vertices) - 1}):
                levels = [np.ones(m**l) for l in range(k + 1)]
                levels[level][rank] = bad
                with pytest.raises(ConfigurationError) as info:
                    LevelFunction(tree, np.concatenate(levels))
                want = f"vertex value at {vertices[rank]!r} must be finite and > 0, got {bad!r}"
                assert str(info.value) == want
                if level == k and bad != 0.0:  # a weight of 0 is allowed
                    with pytest.raises(ConfigurationError) as info:
                        WeightAssignment(tree, levels[k])
                    want = f"weight at {vertices[rank]!r} must be finite and >= 0, got {bad!r}"
                    assert str(info.value) == want


def reference_levels(tree, first_level, mapping, fill):
    """Per-key reading of canonical keys, split on dots and ranked symbol by
    symbol, into one array per level; ``keyed_levels`` gives them joined."""
    arrays = [np.full(tree.arity**level, fill) for level in range(first_level, tree.depth + 1)]
    for key, value in mapping.items():
        word = tuple(int(s) for s in key.split(".")) if key else ()
        rank = 0
        for s in word:
            rank = rank * tree.arity + s - 1
        arrays[len(word) - first_level][rank] = value
    return arrays


def text(word) -> str:
    return ".".join(map(str, word))


def as_bytes(arrays):
    """The bytes of a buffer, or of a list of level arrays joined root first."""
    return np.concatenate(arrays).tobytes() if isinstance(arrays, list) else arrays.tobytes()


def read_chunks(tree, first_level, mapping, readers=("levels", "rows")):
    """``keyed_levels``' arrays as bytes, or its refusal's message, and for
    each chunk the reader that took it: ``"levels"`` (``_whole_levels``),
    ``"rows"`` (``_digit_runs``) or ``"scan"`` (``_scan_words``).  Of the
    first two, only those in ``readers`` may take a chunk; ``_scan_words``
    takes whatever they leave."""
    whole_levels, digit_runs, taken = tree_module._whole_levels, tree_module._digit_runs, []

    def levels_spy(*args):
        read = whole_levels(*args) if "levels" in readers else None
        if read is not None:
            taken.append("levels")
        return read

    def rows_spy(*args):
        runs = digit_runs(*args) if "rows" in readers else None
        taken.append("scan" if runs is None else "rows")
        return runs

    with mock.patch.object(tree_module, "_whole_levels", levels_spy), mock.patch.object(
        tree_module, "_digit_runs", rows_spy
    ):
        try:
            got = as_bytes(keyed_levels(tree, first_level, mapping, 1.0))
        except ConfigurationError as exc:
            got = str(exc)
    return got, taken


def read_keyed(tree, first_level, mapping, rows=True):
    """``read_chunks`` without ``_whole_levels``, and for each chunk whether
    it was read as rows of bytes; with ``rows=False`` every chunk is left to
    ``_scan_words``."""
    got, taken = read_chunks(tree, first_level, mapping, ("rows",) if rows else ())
    return got, [reader == "rows" for reader in taken]


# deepest tree per arity with at most about 40k vertices
DEPTHS = {
    m: max(k for k in range(1, 16) if TreeParams(m, k).vertex_count <= 40_000) for m in range(2, 13)
}


def first_keys(tree, first_level, count):
    """The first ``count`` keys that ``keyed_map`` writes for levels ``first_level..depth``."""
    arrays = [np.zeros(tree.arity**l) for l in range(first_level, tree.depth + 1)]
    return tuple(itertools.islice(keyed_map(tree, arrays), count))


def middle_keys(tree, first, last):
    """The keys that ``keyed_map`` writes from the middle of level ``first``
    to the middle of level ``last``."""
    keys = first_keys(tree, first, tree.vertex_count)
    start = tree.arity**first // 2
    stop = sum(tree.arity**l for l in range(first, last)) + tree.arity**last // 2
    return keys[start:stop]


# chunks in keyed_map order: (tree, first_level, keys)
SPANNING_CHUNKS = {
    **{f"star-m{m}": (TreeParams(m, 2), 0, first_keys(TreeParams(m, 2), 0, m * m + m + 1))
       for m in range(2, 10)},
    **{f"first-f-chunk-k{k}": (TreeParams(2, k), 0, first_keys(TreeParams(2, k), 0, KEY_CHUNK))
       for k in (11, 12, 13)},
    "mid-level-to-mid-level": (TreeParams(3, 4), 1, middle_keys(TreeParams(3, 4), 1, 3)),
    "mid-level-to-mid-level-m9": (TreeParams(9, 3), 1, middle_keys(TreeParams(9, 3), 1, 3)),
}


class TestKeyedLevels:
    @settings(max_examples=40, deadline=None)
    @given(
        data=st.data(), m=st.integers(2, 12), leaves_only=st.booleans(), level_order=st.booleans()
    )
    def test_matches_the_per_key_reading(self, data, m, leaves_only, level_order):
        k = data.draw(st.integers(1, DEPTHS[m]), label="k")
        tree = TreeParams(m, k)
        first_level = k if leaves_only else 0
        rng = random.Random(data.draw(st.integers(0, 2**32), label="rng"))
        words = [w for level in range(first_level, k + 1) for w in tree.vertices_at(level)]
        keep = rng.random()
        chosen = [w for w in words if rng.random() < keep]
        if not leaves_only:
            chosen.insert(0, ROOT)
        if not level_order:  # keyed_map writes level order; a file may hold any order
            rng.shuffle(chosen)
        mapping = {
            v.to_text(): rng.choice([rng.uniform(0.0, 5.0), rng.randint(0, 9)]) for v in chosen
        }
        got = keyed_levels(tree, first_level, mapping, 1.0)
        want = reference_levels(tree, first_level, mapping, 1.0)
        assert as_bytes(got) == as_bytes(want)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), m=st.integers(2, 12), k=st.integers(1, 5))
    def test_rows_and_scanner_read_alike(self, data, m, k):
        # a run of equal-length keys, perhaps a run one level deeper, and at
        # most one byte changed: the rows read what _scan_words reads
        tree = TreeParams(m, k)
        first_level = data.draw(st.integers(0, k), label="first_level")
        level = data.draw(st.integers(max(first_level - 1, 1), k + 1), label="level")
        words = []
        for length, least in ((level, 1), (level + 1, 0)):
            word = st.tuples(*[st.integers(1, min(m, 9))] * length)
            words += data.draw(st.lists(word, min_size=least, max_size=30, unique=True))
        if shuffled := data.draw(st.booleans(), label="shuffled"):
            words = data.draw(st.permutations(words), label="order")
        keys = [text(w) for w in words]
        if data.draw(st.booleans(), label="change a byte"):
            i = data.draw(st.integers(0, len(keys) - 1), label="key")
            j = data.draw(st.integers(0, len(keys[i]) - 1), label="byte")
            new = data.draw(st.sampled_from([*"0123456789./ ", "\0", "\u0661"]), label="to")
            keys[i] = keys[i][:j] + new + keys[i][j + 1 :]
        mapping = {key: float(i) for i, key in enumerate(keys)}
        got, taken = read_keyed(tree, first_level, mapping)
        assert (got, [False]) == read_keyed(tree, first_level, mapping, rows=False)
        if isinstance(got, bytes):
            want = reference_levels(tree, first_level, mapping, 1.0)
            assert got == as_bytes(want)
            one_digit = all(len(parse_word(key)) * 2 - 1 == len(key) for key in keys)
            if not shuffled:
                assert taken == [one_digit]

    @pytest.mark.parametrize(
        "m, key, refusal",
        [
            (2, "2", None),
            (2, "2.1.2", None),
            (9, "9.9", None),
            (2, "2.2.2.2", "unexpected word '2.2.2.2'"),
            (2, "2.3", "unexpected word '2.3'"),
            (2, "2.0", "bad vertex encoding '2.0'"),
            (12, "1.:", "bad vertex encoding '1.:'"),
        ],
    )
    def test_one_key_chunk(self, m, key, refusal):
        tree = TreeParams(m, 3)
        got, taken = read_keyed(tree, 0, {key: 2.0})
        assert (got, [False]) == read_keyed(tree, 0, {key: 2.0}, rows=False)
        if refusal is None:
            assert got == as_bytes(reference_levels(tree, 0, {key: 2.0}, 1.0))
            assert taken == [True]
        else:
            assert got.startswith(refusal)

    @pytest.mark.parametrize("m, taken", [(9, ["levels"]), (12, ["rows", "scan"])])
    def test_one_and_two_digit_symbols_in_one_map(self, monkeypatch, m, taken):
        # chunks of 9 keys: at m=9 "1".."9" are all of level 1, read whole; at
        # m=12 they are read as rows, and "10".."12" by _scan_words
        monkeypatch.setattr(tree_module, "KEY_CHUNK", 9)
        tree = TreeParams(m, 2)
        mapping = {str(s): float(s) for s in range(1, m + 1)}
        got = read_chunks(tree, 1, mapping)
        assert got == (as_bytes(reference_levels(tree, 1, mapping, 1.0)), taken)
        assert read_chunks(tree, 1, mapping, ("rows",))[0] == got[0]
        assert read_chunks(tree, 1, mapping, ())[0] == got[0]

    @pytest.mark.parametrize("first_level", [0, 1])
    def test_root_key_alone(self, first_level):
        tree = TreeParams(3, 2)
        # the root alone is all of level 0, read whole at first level 0; above
        # level 1 it is read as a one-byte row, and the level check refuses it
        got, taken = read_chunks(tree, first_level, {"": 2.0})
        assert taken == ["levels" if first_level == 0 else "rows"]
        assert read_chunks(tree, first_level, {"": 2.0}, ("rows",)) == (got, ["rows"])
        if first_level == 0:
            assert got == as_bytes(reference_levels(tree, 0, {"": 2.0}, 1.0))
        else:
            assert got == "unexpected word '' above level 1"

    @pytest.mark.parametrize(
        "tree, first_level, keys, message",
        [
            (TreeParams(2, 2), 0, ["1.1", "1.1.1", "2"], "unexpected word '1.1.1'"),
            (TreeParams(2, 3), 2, ["1.1", "1", "1.2.1"], "unexpected word '1' above level 2"),
            (TreeParams(2, 3), 0, ["1.1", "1.1.1.1", "2"], "unexpected word '1.1.1.1'"),
        ],
        ids=["one-too-deep", "one-above-first-level", "two-levels-too-deep"],
    )
    def test_keys_whose_lengths_add_up_like_rows(self, tree, first_level, keys, message):
        # the text is as long as rows of the first key's width would be, or
        # as a run of rows then longer rows; the rows refuse it and
        # _scan_words names the key off the levels
        mapping = dict.fromkeys(keys, 2.0)
        got, taken = read_keyed(tree, first_level, mapping)
        assert taken == [False] and got.startswith(message)
        assert read_keyed(tree, first_level, mapping, rows=False) == (got, [False])

    def test_two_levels_in_one_chunk_read_as_rows(self):
        tree = TreeParams(3, 3)
        mapping = keyed_map(tree, [np.full(3**level, 2.5) for level in (2, 3)])
        got, taken = read_chunks(tree, 2, mapping)
        assert got == as_bytes(reference_levels(tree, 2, mapping, 1.0)) and taken == ["levels"]
        assert read_chunks(tree, 2, mapping, ("rows",)) == (got, ["rows"])

    @settings(max_examples=120, deadline=None)
    @given(data=st.data(), case=st.sampled_from(sorted(SPANNING_CHUNKS)))
    def test_chunks_over_many_levels_read_as_rows(self, data, case):
        # chunks in keyed_map order that hold the root or three or more
        # levels, perhaps with one byte changed: the rows read what
        # _scan_words reads, and the unchanged chunk is read as rows, or whole
        # when it holds whole levels (a star's)
        tree, first_level, keys = SPANNING_CHUNKS[case]
        keys = list(keys)
        changed = data.draw(st.booleans(), label="change a byte")
        if changed:
            i = data.draw(st.sampled_from([0, 1, len(keys) // 2, len(keys) - 1]), label="key")
            if keys[i]:
                j = data.draw(st.integers(0, len(keys[i]) - 1), label="byte")
                new = data.draw(st.sampled_from([*"0123456789./ ", "\0", "\u0661"]), label="to")
                keys[i] = keys[i][:j] + new + keys[i][j + 1 :]
            else:  # the root has no byte to change; it takes one
                keys[i] = data.draw(st.sampled_from(["1", "0", "/", "."]), label="root")
        mapping = {key: float(i) for i, key in enumerate(keys)}
        got, taken = read_chunks(tree, first_level, mapping)
        assert (got, ["scan"]) == read_chunks(tree, first_level, mapping, ())
        if isinstance(got, bytes):
            assert got == as_bytes(reference_levels(tree, first_level, mapping, 1.0))
        if not changed:
            assert isinstance(got, bytes)
            assert taken == ["levels" if case.startswith("star") else "rows"]
            assert read_chunks(tree, first_level, mapping, ("rows",)) == (got, ["rows"])

    @settings(max_examples=200, deadline=None)
    @given(
        data=st.data(),
        m=st.integers(2, 12),
        chunk=st.sampled_from([KEY_CHUNK, 7, 100]),
        change=st.sampled_from(["none", "byte", "swap", "missing", "extra", "root"]),
    )
    def test_whole_levels_read_as_rows_and_scanner_read(self, data, m, chunk, change):
        # a canonical map, perhaps changed: each chunk of all the words of
        # whole levels in rank order is read whole, and every other chunk
        # falls back to the rows or the scanner, with the same bytes or message
        k = data.draw(st.integers(1, max(k for k in range(1, 12) if m**k <= 2000)), label="k")
        tree = TreeParams(m, k)
        first_level = 0 if change == "root" else data.draw(st.integers(0, k), label="first")
        levels = [[v.to_text() for v in tree.vertices_at(l)] for l in range(first_level, k + 1)]
        keys = [key for level in levels for key in level]
        i = data.draw(st.integers(0, len(keys) - 1), label="key")
        if change == "byte" and keys[i]:
            j = data.draw(st.integers(0, len(keys[i]) - 1), label="byte")
            other = [c for c in [*"0123456789./ ", "\0", "\u0661"] if c != keys[i][j]]
            keys[i] = keys[i][:j] + data.draw(st.sampled_from(other), label="to") + keys[i][j + 1 :]
        elif change == "swap" and len(keys) > 1:
            j = data.draw(st.integers(0, len(keys) - 1).filter(lambda j: j != i), label="swap")
            keys[i], keys[j] = keys[j], keys[i]
        elif change == "missing":
            del keys[i]
        elif change == "extra":
            outside = [text([1] * (k + 1)), "1.01", *([text([2] * (first_level - 1))] * first_level)]
            keys.insert(i, data.draw(st.sampled_from(outside), label="extra"))
        elif change == "root":
            keys[0] = data.draw(st.sampled_from(["1", "0", "/", ".", " "]), label="root")
        mapping = {key: float(i) for i, key in enumerate(keys)}
        with mock.patch.object(tree_module, "KEY_CHUNK", chunk):
            got, taken = read_chunks(tree, first_level, mapping)
            assert read_chunks(tree, first_level, mapping, ("rows",))[0] == got
            assert read_chunks(tree, first_level, mapping, ())[0] == got
        if isinstance(got, bytes):
            assert got == as_bytes(reference_levels(tree, first_level, mapping, 1.0))
        # the chunks that are runs of whole levels, spelled as vertices_at spells them
        runs = {
            tuple(word for level in levels[low:high] for word in level)
            for low in range(len(levels))
            for high in range(low + 1, len(levels) + 1)
        }
        written = list(mapping)
        chunks = [tuple(written[i : i + chunk]) for i in range(0, len(written), chunk)]
        assert [reader == "levels" for reader in taken] == [c in runs for c in chunks[: len(taken)]]
        if change == "none" and len(written) <= chunk:
            assert taken == ["levels"]

    def test_chunks_of_part_levels_are_not_spelled(self):
        # at m=2, k=12 the second f chunk is 2048 words, as many as level 11
        # holds, but starts at its second word: no chunk is compared as text
        tree = TreeParams(2, 12)
        mapping = keyed_map(tree, [np.full(2**level, 0.5) for level in range(13)])
        with mock.patch.object(
            tree_module, "_level_texts", side_effect=tree_module._level_texts
        ) as spelled:
            got, taken = read_chunks(tree, 0, mapping)
        assert spelled.call_count == 0 and taken == ["rows"] * 4
        assert got == as_bytes(reference_levels(tree, 0, mapping, 1.0))

    @pytest.mark.parametrize("chunk", [KEY_CHUNK, 7, 100])
    @pytest.mark.parametrize("m", range(2, 13))
    def test_maps_that_keyed_map_writes_skip_the_scanner(self, monkeypatch, m, chunk):
        # every chunk of a full map or a leaf map is read as rows at m <= 9;
        # two-digit symbols still take _scan_words
        monkeypatch.setattr(tree_module, "KEY_CHUNK", chunk)
        scanned = []
        scan_words = tree_module._scan_words
        monkeypatch.setattr(
            tree_module, "_scan_words", lambda *args: scanned.append(1) or scan_words(*args)
        )
        tree = TreeParams(m, min(DEPTHS[m], 4))
        for first_level in (0, tree.depth):
            levels = range(first_level, tree.depth + 1)
            mapping = keyed_map(tree, [np.arange(m**level) + 0.5 for level in levels])
            got = keyed_levels(tree, first_level, mapping, 1.0)
            assert as_bytes(got) == as_bytes(reference_levels(tree, first_level, mapping, 1.0))
        assert bool(scanned) == (m >= 10)

    def test_peak_temporaries_stay_near_one_chunk(self):
        # a chunk of leaf keys read by _scan_words takes a few arrays of one
        # int64 per symbol; the whole map read at once takes 85 MiB
        tree = TreeParams(2, 16)
        mapping = keyed_map(tree, [np.full(2**level, 1.5) for level in range(17)])
        tracemalloc.start()
        try:
            buffer = keyed_levels(tree, 0, mapping, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        one_array = KEY_CHUNK * tree.depth * 8
        assert peak - buffer.nbytes < 8 * one_array

    def test_chunks_that_straddle_two_levels(self):
        # levels 10..12 in level order: 1024 + 2048 + 4096 keys, so the first
        # two chunks each hold the end of one level and the start of the next
        tree = TreeParams(2, 12)
        mapping = {
            v.to_text(): float(i)
            for i, v in enumerate(v for level in (10, 11, 12) for v in tree.vertices_at(level))
        }
        assert 1024 < KEY_CHUNK < 1024 + 2048
        got = keyed_levels(tree, 10, mapping, 1.0)
        want = reference_levels(tree, 10, mapping, 1.0)
        assert as_bytes(got) == as_bytes(want)

    def test_two_digit_symbols_over_many_chunks(self):
        tree = TreeParams(11, 4)
        mapping = {v.to_text(): float(i) for i, v in enumerate(tree.vertices())}
        assert len(mapping) > 7 * KEY_CHUNK
        got = keyed_levels(tree, 0, mapping, 1.0)
        want = reference_levels(tree, 0, mapping, 1.0)
        assert as_bytes(got) == as_bytes(want)
        assert level_views(tree, 0, got)[2][tree.rank((11, 10))] == mapping["11.10"]

    @pytest.mark.parametrize(
        "key",
        [
            "01.1", " 1.1", "1.1 ", "+1", "-1", "1..1", "1.", ".1", "1.0", "0", "\u0661",
            "1/1", "1_1", "1.x",
        ],
    )
    def test_malformed_key_is_named(self, key):
        tree = TreeParams(12, 3)
        with pytest.raises(ConfigurationError, match="bad vertex encoding") as info:
            keyed_levels(tree, 0, {"1": 1.0, key: 1.0}, 1.0)
        assert repr(key) in str(info.value)
        with pytest.raises(ConfigurationError, match="bad vertex encoding"):
            parse_word(key)

    def test_a_bad_key_past_the_first_chunk_is_named(self):
        tree = TreeParams(2, 13)
        mapping = {v.to_text(): 1.0 for v in tree.vertices()}
        mapping["1.01"] = 1.0
        with pytest.raises(ConfigurationError, match="'1.01'"):
            keyed_levels(tree, 0, mapping, 1.0)

    @pytest.mark.parametrize(
        "tree, first_level, key",
        [
            (TreeParams(9, 2), 0, "10"),
            (TreeParams(12, 2), 0, "13.1"),
            (TreeParams(2, 2), 0, "1.1.1"),
            (TreeParams(2, 2), 2, "1"),
            (TreeParams(2, 2), 2, ""),
        ],
        ids=[
            "two-digit-at-m9", "symbol-over-m", "too-deep", "above-the-leaves", "root-of-leaf-map",
        ],
    )
    def test_word_outside_the_levels_is_named(self, tree, first_level, key):
        with pytest.raises(ConfigurationError, match="unexpected word") as info:
            keyed_levels(tree, first_level, {key: 1.0}, 1.0)
        assert repr(key) in str(info.value)

    @pytest.mark.parametrize("value", ["2.5", True, None, [1.0], 10**400])
    def test_value_that_is_not_a_float_is_named(self, value):
        with pytest.raises(ConfigurationError, match="'1.2'"):
            keyed_levels(TreeParams(2, 2), 0, {"1.1": 1.0, "1.2": value}, 1.0)

    @pytest.mark.parametrize(
        "value", [10**400, 2**1024, -(2**1024), np.longdouble("1e400")], ids=str
    )
    def test_value_beyond_the_float_range_is_refused_without_a_warning(self, value):
        # Python ints overflow by themselves; only numpy scalars need numpy's check
        if isinstance(value, np.longdouble) and np.isinf(value):
            pytest.skip("longdouble is no wider than float64 here")
        for mapping in ({"1.2": value}, {"1.1": 1.0, "1.2": value}, {"1.1": 1, "1.2": value}):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ConfigurationError) as info:
                    keyed_levels(TreeParams(2, 2), 0, mapping, 1.0)
            assert str(info.value) == "value at '1.2' is too large for a float"

    @pytest.mark.skipif(
        np.finfo(np.longdouble).max <= np.finfo(np.float64).max,
        reason="longdouble is no wider than float64 here",
    )
    def test_wider_float_beyond_the_float_range_is_named(self):
        # the cast would overflow to inf; it is refused as an oversized int is,
        # with no numpy overflow warning on the way
        with pytest.raises(ConfigurationError, match="value at '1.1' is too large for a float"):
            WeightAssignment.from_mapping(TreeParams(2, 2), {"1.1": np.longdouble("1e4000")})

    def test_parse_word_accepts_exactly_the_grammar(self):
        assert parse_word("") == ()
        assert parse_word("12.1.30") == (12, 1, 30)
        assert parse_word("9" * 18) == (10**18 - 1,)
        for bad in ("9" * 19, ".", "1.1.", None, 1):
            with pytest.raises(ConfigurationError):
                parse_word(bad)

    @given(st.text(alphabet="0123456789./ +-", max_size=8))
    def test_parse_word_and_keyed_levels_agree(self, key):
        tree = TreeParams(12, 4)
        try:
            word = parse_word(key)
            tree.rank(word)
        except ConfigurationError:
            with pytest.raises(ConfigurationError):
                keyed_levels(tree, 0, {key: 2.0}, 1.0)
        else:
            arrays = level_views(tree, 0, keyed_levels(tree, 0, {key: 2.0}, 1.0))
            assert arrays[len(word)][tree.rank(word)] == 2.0


def test_load_ladder_runs():
    # the timing script outside pytest's collection, one round per step
    result = run_python(str(REPO / "tests" / "load_ladder.py"), "--rounds", "1")
    assert result.returncode == 0, result.stderr
    times = json.loads(result.stdout)
    rungs = ["m2k10", "m2k12", "m2k14", "m2k16", "m7k2", "m8k2", "m9k2", "m11k4"]
    assert list(times) == rungs
    steps = {"json_load", "keyed_mu", "keyed_f", "load_instance", "cold_load_instance"}
    for rung, got in times.items():
        assert set(got) == steps, rung
        assert all(ms > 0.0 for ms in got.values()), rung
