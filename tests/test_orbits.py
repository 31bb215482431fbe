"""Canonical shapes, orbit equivalence, sizes, and enumeration.

The heavy assertions here compare three independent routes:

* ``equivalent`` (equal join levels for every pair of particles),
* canonical shape equality,
* reachability under explicitly enumerated automorphisms (conftest oracle).

and check the orbit-size product formula against grouping all ordered
tuples by shape, which is the definition-level count.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import math
import random
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from joinforge import orbits
from joinforge import (
    Configuration,
    ConfigurationError,
    EnumerationGuardError,
    InstanceRanges,
    ROOT,
    ShapeLeaf,
    ShapeNode,
    TreeParams,
    Vertex,
    equivalent,
    extract_shape,
    injective_sum,
    join_multiset,
    orbit_enumerate,
    orbit_size,
    random_instance,
    shape_join_levels,
    shape_orbit_size,
)

from conftest import REPO, all_automorphisms, apply_automorphism, run_python, vx


def all_configs(tree: TreeParams, n: int, base: Vertex = ROOT):
    for tup in itertools.permutations(list(tree.leaves_below(base)), n):
        yield Configuration(tree, base, tup)


def orbits_by_shape(tree: TreeParams, n: int):
    groups: dict = {}
    for config in all_configs(tree, n):
        groups.setdefault(extract_shape(config), []).append(config)
    return groups


class TestConfigurationChecks:
    """One pass over each word gives the refusals the three checks gave."""

    @pytest.mark.parametrize(
        "base, words, message",
        [
            ((), [(1, 1, 1), (1, 1)], "particle Vertex('1.1') is not a leaf"),
            ((), [(1, 1, 1), (1, 1, 1, 1)], "unexpected word '1.1.1.1'"),
            ((), [(1, 3, 1)], "unexpected word '1.3.1'"),
            ((), [(1, 1.0, 1)], "unexpected word '1.1.0.1'"),
            ((), [(True, 1, 1)], "unexpected word 'True.1.1'"),
            ((2,), [(2, 1, 1), (1, 2, 2)], "particle Vertex('1.2.2') does not descend from"),
            ((2,), [(2.0, 1, 1)], "unexpected word '2.0.1.1'"),
            ((2, 1), [(1, 2, 3)], "unexpected word '1.2.3'"),
            ((), [(1, 1, 1), (2, 1, 2), (1, 1, 1)], "particles must be pairwise distinct"),
            ((), [], "a configuration needs at least one particle"),
        ],
        ids=[
            "short", "long", "symbol-over-m", "float-symbol", "bool-symbol", "off-base",
            "float-in-base-prefix", "bad-symbol-below-base", "repeated", "none",
        ],
    )
    def test_refusals_in_their_order(self, binary3, base, words, message):
        with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}"):
            Configuration(binary3, Vertex(base), tuple(map(Vertex, words)))

    def test_numpy_symbols_are_taken(self, binary3):
        word = tuple(np.array([2, 1, 2]))
        config = Configuration(binary3, vx(2), (Vertex(word), vx(2, 2, 1)))
        assert config.particles[0] == vx(2, 1, 2)
        with pytest.raises(ConfigurationError, match="pairwise distinct"):
            Configuration(binary3, vx(2), (Vertex(word), vx(2, 1, 2)))


class TestExtractShape:
    def test_worked_example_structure(self, worked_config):
        shape = extract_shape(worked_config)
        assert isinstance(shape, ShapeNode)
        assert shape.gap == 0 and shape.degree == 2
        left, right = shape.branches
        assert left.gap == 1 and left.indices == frozenset({0, 1})
        assert right.gap == 2 and right.indices == frozenset({2, 3})
        assert shape.serialized == "0(1(2#0,2#1),2(1#2,1#3))"
        assert shape.skeleton == "0(1(2#,2#),2(1#,1#))"

    def test_single_particle(self, binary3):
        config = Configuration(binary3, vx(2), (vx(2, 1, 2),))
        shape = extract_shape(config)
        assert shape == ShapeLeaf(gap=2, index=0)

    def test_shape_constant_on_orbit(self, worked_config):
        shape = extract_shape(worked_config)
        for mapping in all_automorphisms(worked_config.tree):
            image = apply_automorphism(mapping, worked_config)
            assert extract_shape(image) == shape

    def test_symmetric_swap_same_skeleton_and_size(self, binary3):
        config = Configuration(
            binary3, ROOT, (vx(1, 1, 1), vx(1, 2, 1), vx(2, 1, 1), vx(2, 1, 2))
        )
        swapped = Configuration(
            binary3, ROOT, (vx(1, 2, 1), vx(1, 1, 1), vx(2, 1, 1), vx(2, 1, 2))
        )
        a, b = extract_shape(config), extract_shape(swapped)
        assert a.skeleton == b.skeleton
        assert orbit_size(config) == orbit_size(swapped)

    def test_join_levels_match_multiset(self, ternary2):
        rng = random.Random(4)
        leaves = list(ternary2.leaves())
        for _ in range(25):
            n = rng.randint(2, 5)
            config = Configuration(ternary2, ROOT, tuple(rng.sample(leaves, n)))
            shape = extract_shape(config)
            from_shape = sorted(shape_join_levels(shape, 0))
            from_multiset = sorted(
                level
                for v, r in join_multiset(config.particles).items()
                for level in [v.level] * r
            )
            assert from_shape == from_multiset


def recomputed_fields(shape) -> tuple[str, str, int, int, frozenset[int]]:
    """Skeleton, serialization, smallest index, particle count and index set, by recursion."""
    if isinstance(shape, ShapeLeaf):
        return f"{shape.gap}#", f"{shape.gap}#{shape.index}", shape.index, 1, {shape.index}
    parts = [recomputed_fields(b) for b in shape.branches]
    return (
        f"{shape.gap}(" + ",".join(p[0] for p in parts) + ")",
        f"{shape.gap}(" + ",".join(p[1] for p in parts) + ")",
        min(p[2] for p in parts),
        sum(p[3] for p in parts),
        set().union(*(p[4] for p in parts)),
    )


def shape_nodes(shape):
    yield shape
    for branch in getattr(shape, "branches", ()):
        yield from shape_nodes(branch)


class TestShapeFields:
    @pytest.mark.parametrize("m, k", [(2, 4), (3, 3), (5, 2)])
    def test_eager_fields_match_recursion(self, m, k):
        tree = TreeParams(m, k)
        leaves = list(tree.leaves())
        rng = random.Random(m * 10 + k)
        for _ in range(60):
            n = rng.randint(1, min(7, len(leaves)))
            shape = extract_shape(Configuration(tree, ROOT, tuple(rng.sample(leaves, n))))
            assert shape.n_particles == n
            for node in shape_nodes(shape):
                fields = (
                    node.skeleton, node.serialized, node.min_index, node.n_particles, node.indices
                )
                assert fields == recomputed_fields(node)

    def test_equal_shapes_built_separately(self, worked_config):
        extracted = extract_shape(worked_config)
        built = ShapeNode(0, (
            ShapeNode(1, (ShapeLeaf(2, 0), ShapeLeaf(2, 1))),
            ShapeNode(2, (ShapeLeaf(1, 2), ShapeLeaf(1, 3))),
        ))
        again = extract_shape(Configuration(worked_config.tree, ROOT, worked_config.particles))
        for other in (built, again):
            assert other is not extracted
            assert other == extracted and hash(other) == hash(extracted)
        assert len({extracted, built, again}) == 1
        assert repr(built) == repr(extracted)
        assert built != ShapeNode(0, (ShapeLeaf(3, 0), ShapeLeaf(3, 1)))

    @pytest.mark.parametrize(
        "branches, message",
        [
            ((ShapeLeaf(1, 0),), "a join node needs at least two branches"),
            ((ShapeLeaf(1, 1), ShapeLeaf(1, 0)), "branches are not in canonical order"),
            ((ShapeLeaf(2, 0), ShapeLeaf(1, 1)), "branches are not in canonical order"),
            ((ShapeLeaf(1, 0), ShapeNode(1, (ShapeLeaf(1, 0), ShapeLeaf(1, 1)))),
             "branch index sets overlap"),
        ],
        ids=["one-branch", "index-order", "skeleton-order", "overlap"],
    )
    def test_validation_errors(self, branches, message):
        with pytest.raises(ConfigurationError, match=f"^{message}$"):
            ShapeNode(0, branches)

    def test_hand_built_nodes_over_extracted_branches_refused(self, worked_config):
        left, right = extract_shape(worked_config).branches
        with pytest.raises(ConfigurationError, match="^branches are not in canonical order$"):
            ShapeNode(0, (right, left))
        with pytest.raises(ConfigurationError, match="^branch index sets overlap$"):
            ShapeNode(0, (left, left))
        # deeper down: index 1 sits in both branches, each canonical on its own
        shared = ShapeNode(2, (ShapeLeaf(1, 1), ShapeLeaf(1, 3)))
        with pytest.raises(ConfigurationError, match="^branch index sets overlap$"):
            ShapeNode(0, (left, shared))

    def test_replace_derives_the_fields_again(self, worked_config):
        shape = extract_shape(worked_config)
        moved = dataclasses.replace(shape, gap=2)
        assert moved.serialized == "2" + shape.serialized[1:]
        assert moved.skeleton == "2" + shape.skeleton[1:]
        leaf = dataclasses.replace(ShapeLeaf(2, 0), index=5)
        assert (leaf.serialized, leaf.indices, leaf.min_index) == ("2#5", frozenset({5}), 5)
        assert ShapeLeaf(gap=2, index=5) == leaf and leaf.n_particles == 1

    @pytest.mark.parametrize(
        "regime, arities, digest",
        [
            ("general", (2, 3),
             "f954a0b3d211fb1ab72459019b54a7dc7ba4f2b718538067c99d97f35805232c"),
            ("binary_optimal", (2,),
             "1db4a6bec634b9211c5fdd48ebc30340fa33cc73541bf4e73a07acb40fefe60b"),
            ("inductive", (2, 3),
             "f954a0b3d211fb1ab72459019b54a7dc7ba4f2b718538067c99d97f35805232c"),
        ],
    )
    def test_seeded_shapes_match_the_recorded_digest(self, regime, arities, digest):
        # The digest was taken from shapes that built every field on
        # reading it, over the fuzz defaults' seeds 0..2999: each node's
        # fields, its hash and repr, and equality with the shape extracted
        # again and with the previous seed's.  Hashes of ints and tuples of
        # them do not depend on the process.
        ranges = InstanceRanges(arities=arities, regime=regime)
        h = hashlib.sha256()
        previous = None
        for seed in range(3000):
            config = random_instance(seed, ranges).config
            shape, again = config.shape, extract_shape(config)
            fields = [shape == again, hash(shape) == hash(again), shape == previous,
                      shape != previous]
            for node in shape_nodes(shape):
                fields.append((node.serialized, node.skeleton, sorted(node.indices),
                               node.min_index, node.n_particles, hash(node), repr(node)))
            h.update(repr(fields).encode())
            previous = shape
        assert h.hexdigest() == digest


class TestEquivalent:
    def test_worked_example_pair(self, binary3):
        a = Configuration(binary3, ROOT, (vx(1, 1, 1), vx(1, 2, 1), vx(2, 1, 1), vx(2, 1, 2)))
        b = Configuration(binary3, ROOT, (vx(1, 2, 1), vx(1, 1, 1), vx(2, 1, 2), vx(2, 1, 1)))
        assert equivalent(a, b)

    def test_reflexive(self, worked_config):
        assert equivalent(worked_config, worked_config)

    def test_join_level_mismatch(self, binary3):
        a = Configuration(binary3, ROOT, (vx(1, 1, 1), vx(1, 2, 1)))
        b = Configuration(binary3, ROOT, (vx(1, 1, 1), vx(1, 1, 2)))
        assert not equivalent(a, b)

    def test_usage_errors(self, binary3, ternary2):
        a = Configuration(binary3, ROOT, (vx(1, 1, 1), vx(1, 2, 1)))
        with pytest.raises(ConfigurationError):
            equivalent(a, Configuration(binary3, ROOT, (vx(1, 1, 1),)))
        with pytest.raises(ConfigurationError):
            equivalent(a, Configuration(binary3, vx(1), (vx(1, 1, 1), vx(1, 2, 1))))

    def test_against_automorphism_oracle(self, binary3):
        rng = random.Random(11)
        leaves = list(binary3.leaves())
        autos = list(all_automorphisms(binary3))
        for _ in range(12):
            n = rng.randint(2, 4)
            a = Configuration(binary3, ROOT, tuple(rng.sample(leaves, n)))
            b = Configuration(binary3, ROOT, tuple(rng.sample(leaves, n)))
            reachable = any(
                apply_automorphism(mapping, a).particles == b.particles
                for mapping in autos
            )
            assert equivalent(a, b) == reachable
            assert (extract_shape(a) == extract_shape(b)) == reachable

    def test_matches_shape_equality_exhaustively(self, ternary2):
        rng = random.Random(3)
        leaves = list(ternary2.leaves())
        for _ in range(60):
            n = rng.randint(2, 4)
            a = Configuration(ternary2, ROOT, tuple(rng.sample(leaves, n)))
            b = Configuration(ternary2, ROOT, tuple(rng.sample(leaves, n)))
            assert equivalent(a, b) == (extract_shape(a) == extract_shape(b))

    def test_equivalence_relation_on_sampled_triples(self, binary3):
        rng = random.Random(23)
        leaves = list(binary3.leaves())
        autos = list(all_automorphisms(binary3))
        for _ in range(8):
            n = rng.randint(2, 4)
            a = Configuration(binary3, ROOT, tuple(rng.sample(leaves, n)))
            b = apply_automorphism(rng.choice(autos), a)
            c = apply_automorphism(rng.choice(autos), b)
            assert equivalent(a, a)
            assert equivalent(a, b) and equivalent(b, a)
            assert equivalent(a, b) and equivalent(b, c) and equivalent(a, c)


def leaf_permutations(tree: TreeParams) -> list[dict[Vertex, Vertex]]:
    """Every automorphism of the tree as a table of its leaves' images."""
    leaves = list(tree.leaves())
    return [{leaf: mapping(leaf) for leaf in leaves} for mapping in all_automorphisms(tree)]


class TestPairwiseJoinLevels:
    """Both oracles' membership test, every pair joining at the same level,
    against the automorphisms themselves."""

    # at n = 3 on the ternary tree a third leaf can join both earlier ones at
    # the root, where a test of the first pair alone would let it repeat one
    @pytest.mark.parametrize(
        "arity, depth, max_n", [(2, 3, 4), (3, 2, 3)], ids=["binary3", "ternary2"]
    )
    def test_enumeration_yields_each_image_once(self, arity, depth, max_n):
        tree = TreeParams(arity, depth)
        tables = leaf_permutations(tree)
        for n in range(1, max_n + 1):
            for leaves in itertools.combinations(tree.leaves(), n):
                images = {tuple(table[p] for p in leaves) for table in tables}
                members = [m.particles for m in orbit_enumerate(Configuration(tree, ROOT, leaves))]
                assert len(members) == len(images)
                assert set(members) == images

    def test_equivalent_is_reachability(self, binary3):
        tables = leaf_permutations(binary3)
        for n in (2, 3):
            configs = [
                Configuration(binary3, ROOT, t)
                for t in itertools.permutations(binary3.leaves(), n)
            ]
            for a in configs:
                images = {tuple(table[p] for p in a.particles) for table in tables}
                for b in configs:
                    assert equivalent(a, b) == (b.particles in images)


class TestOrbitSize:
    def test_worked_example_is_64(self, worked_config):
        assert orbit_size(worked_config) == 64

    def test_single_particle_all_leaves(self):
        tree = TreeParams(2, 2)
        config = Configuration(tree, ROOT, (vx(1, 1),))
        assert orbit_size(config) == 4

    @pytest.mark.parametrize(
        "arity,depth,max_n", [(2, 3, 4), (3, 2, 3)], ids=["binary3", "ternary2"]
    )
    def test_matches_exhaustive_grouping(self, arity, depth, max_n):
        tree = TreeParams(arity, depth)
        for n in range(1, max_n + 1):
            groups = orbits_by_shape(tree, n)
            total = 0
            for shape, members in groups.items():
                assert shape_orbit_size(shape, arity) == len(members)
                total += len(members)
            assert total == math.perm(tree.leaf_count, n)

    def test_size_divides_group_order(self, ternary2):
        rng = random.Random(9)
        leaves = list(ternary2.leaves())
        internal = sum(1 for v in ternary2.vertices() if v.level < ternary2.depth)
        group_order = math.factorial(ternary2.arity) ** internal
        for _ in range(20):
            n = rng.randint(1, 5)
            config = Configuration(ternary2, ROOT, tuple(rng.sample(leaves, n)))
            assert group_order % orbit_size(config) == 0


class TestOrbitEnumerate:
    def test_worked_example_members(self, worked_config):
        members = list(orbit_enumerate(worked_config))
        assert len(members) == 64
        assert len({m.particles for m in members}) == 64
        shape = extract_shape(worked_config)
        assert all(extract_shape(m) == shape for m in members)

    def test_size_and_enumeration_extract_the_shape_once(self, monkeypatch):
        config = Configuration(TreeParams(2, 3), ROOT, (vx(1, 1, 1), vx(1, 2, 1), vx(2, 1, 1)))
        calls = []
        extract = orbits.extract_shape
        monkeypatch.setattr(
            orbits, "extract_shape", lambda c: calls.append(c is config) or extract(c)
        )
        assert orbit_size(config) == len(list(orbit_enumerate(config))) == orbit_size(config)
        assert calls.count(True) == 1

    def test_single_particle_stream(self):
        tree = TreeParams(2, 2)
        config = Configuration(tree, ROOT, (vx(2, 1),))
        members = list(orbit_enumerate(config))
        assert sorted(m.particles[0] for m in members) == sorted(tree.leaves())

    def test_guard_refusal_carries_estimate(self):
        # an orbit of 2**45 members is refused before the leaves are listed
        tree = TreeParams(2, 16)
        config = Configuration(tree, ROOT, (vx(*[1] * 16), vx(1, 2, *[1] * 14), vx(*[2] * 16)))
        with pytest.raises(EnumerationGuardError, match="estimated orbit size") as err:
            orbit_enumerate(config)
        assert err.value.estimate == 2**45 > orbits.DEFAULT_ENUMERATION_GUARD

    def test_scan_refusal_carries_scan_size(self):
        # the orbit of 2**23 members fits the guard, but 4096 * 4095 ordered
        # pairs of leaves would be scanned to find it
        tree = TreeParams(2, 12)
        config = Configuration(tree, ROOT, (vx(*[1] * 12), vx(*[2] * 12)))
        assert orbit_size(config) == 2**23 <= orbits.DEFAULT_ENUMERATION_GUARD
        with pytest.raises(EnumerationGuardError, match="scanning 16773120 ordered") as err:
            orbit_enumerate(config)
        assert err.value.estimate == 16_773_120

    def test_scan_refused_before_listing_leaves(self, monkeypatch):
        # two sibling leaves of the binary depth-21 tree: an orbit of 2**21
        # members, found by scanning 2**21 * (2**21 - 1) ordered pairs
        def no_listing(tree, base):
            pytest.fail("the guard listed the leaves")

        monkeypatch.setattr(TreeParams, "leaves_below", no_listing)
        config = Configuration(TreeParams(2, 21), ROOT, (vx(*[1] * 21), vx(*[1] * 20, 2)))
        with pytest.raises(EnumerationGuardError, match="scanning 4398044413952 ordered") as err:
            orbit_enumerate(config)
        assert err.value.estimate == 4_398_044_413_952

    def test_duplicate_free_on_random_configs(self, ternary2):
        rng = random.Random(31)
        leaves = list(ternary2.leaves())
        for _ in range(6):
            n = rng.randint(2, 3)
            config = Configuration(ternary2, ROOT, tuple(rng.sample(leaves, n)))
            members = [m.particles for m in orbit_enumerate(config)]
            assert len(members) == len(set(members)) == orbit_size(config)


    @pytest.mark.parametrize(
        "arity, depth, base, particles",
        [
            (3, 3, ROOT, (vx(1, 1, 1), vx(1, 2, 1), vx(3, 1, 1))),
            (3, 2, ROOT, (vx(2, 2), vx(2, 3), vx(1, 3), vx(3, 1))),
            (3, 3, vx(3), (vx(3, 1, 2), vx(3, 3, 2), vx(3, 1, 1))),
        ],
        ids=["root-three", "root-four", "off-root"],
    )
    def test_pruned_scan_yields_the_filtered_permutations(
        self, arity, depth, base, particles
    ):
        tree = TreeParams(arity, depth)
        config = Configuration(tree, base, particles)
        target = extract_shape(config)
        pool = list(tree.leaves_below(base))
        reference = [
            tup
            for tup in itertools.permutations(pool, config.n)
            if extract_shape(Configuration(tree, base, tup)) == target
        ]
        assert [m.particles for m in orbit_enumerate(config)] == reference


def injective_sum_loop(table: np.ndarray) -> np.ndarray:
    """One join vertex at a time, one map at a time, in permutations order."""
    d, m, n = table.shape
    rows = table.tolist()
    values = []
    for i in range(n):
        total = 0.0
        for chosen in itertools.permutations(range(m), d):
            product = 1.0
            for b, c in enumerate(chosen):
                product *= rows[b][c][i]
            total += product
        values.append(total)
    return np.array(values)


# values per pass: the default, one prefix per pass at every suffix length,
# and passes of several prefixes from 7 up
BLOCK_SIZES = [orbits._BLOCK_VALUES, 1, 7, 100, 1000]
BLOCK_IDS = ["default", "1", "7", "100", "1000"]


class TestInjectiveSum:
    @pytest.mark.parametrize(
        "m, d, n",
        [(m, d, n) for m in range(1, 6) for d in range(1, m + 1) for n in (1, 4)]
        + [(6, 3, 4), (7, 4, 4), (7, 7, 1), (7, 7, 4), (3, 2, 5000), (4, 4, 5000), (5, 2, 5000)]
        + [(7, 3, 1), (6, 6, 1), (8, 6, 1), (6, 5, 100)],
    )
    @pytest.mark.parametrize("block", BLOCK_SIZES, ids=BLOCK_IDS)
    def test_equals_plain_loop(self, monkeypatch, m, d, n, block):
        # smaller blocks split prefixes at every suffix length, down to s = 1;
        # at the default size, (7, 7, 4), (8, 6, 1) and the n = 5000 cases
        # split too, and (3, 2, 5000) and (5, 2, 5000) have s = 1.  Groups
        # hold several prefixes and may end in a shorter one: 5 then 1 for
        # (6, 5, 100), whose levels are formed in the spare, and 3 then 2 for
        # (5, 2, 5000) at the default size, 20, 20, 2 for (7, 3, 1) at 100,
        # and 12, 12, 12, 6 for (7, 4, 4) at 1000
        monkeypatch.setattr(orbits, "_BLOCK_VALUES", block)
        rng = np.random.default_rng(1000 * m + 10 * d + n)
        table = rng.uniform(0.0, 3.0, (d, m, n))
        table[rng.random(table.shape) < 0.2] = 0.0
        got = injective_sum(table)
        assert got.shape == (n,)
        assert np.array_equal(got, injective_sum_loop(table))

    def test_counts_injective_maps(self):
        # more branches than children leave no injective map
        for m in range(1, 7):
            for d in range(1, m + 2):
                assert injective_sum(np.ones((d, m, 3))).tolist() == [math.perm(m, d)] * 3

    @pytest.mark.parametrize("m, d, n", [(6, 3, 2), (7, 7, 1), (5, 2, 40)])
    @pytest.mark.parametrize("block", [orbits._BLOCK_VALUES, 7, 100], ids=["default", "7", "100"])
    def test_wide_joins_build_each_group(self, monkeypatch, m, d, n, block):
        # over _PREFIX_TABLE_VALUES, each group's prefix rows are built as the
        # loop reaches it, and no table of every prefix is cached
        def no_table(m, t):
            pytest.fail("a table of every prefix was built")

        monkeypatch.setattr(orbits, "_BLOCK_VALUES", block)
        monkeypatch.setattr(orbits, "_PREFIX_TABLE_VALUES", 0)
        monkeypatch.setattr(orbits, "_prefix_table", no_table)
        rng = np.random.default_rng(100 * m + 10 * d + n)
        table = rng.uniform(0.0, 3.0, (d, m, n))
        assert np.array_equal(injective_sum(table), injective_sum_loop(table))

    def test_peak_temporaries_stay_near_one_block(self):
        # 60 prefixes of 3 children, 8 per pass, each with 2 * 4096 leaves:
        # the buffer, the pass's suffix rows, prefix products and one
        # gathered row take about 4.1 blocks; forming the products of every
        # prefix at once would add 60 * 4096 values, 3.75 blocks
        table = np.random.default_rng(5).uniform(0.5, 2.0, (5, 5, 4096))
        want = injective_sum(table)  # warm-up: caches and first-call allocations
        tracemalloc.start()
        try:
            got = injective_sum(table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(got, want)
        assert peak <= 5 * orbits._BLOCK_VALUES * 8

    def test_kernel_ladder_runs(self):
        # the timing script outside pytest's collection, run once per rung
        result = run_python(str(REPO / "tests" / "kernel_ladder.py"), "--rounds", "1")
        assert result.returncode == 0, result.stderr
        times = json.loads(result.stdout)
        assert "9x9x1" in times and "2x2x8192" in times and len(times) == 14
        assert all(rung["us"] > 0.0 for rung in times.values())
        for rung, got in times.items():
            m, d, n = map(int, rung.split("x"))
            s, size = got["s"], got["prefixes_per_pass"]
            assert (s, size) == orbits._pass_shape(d, m, n)
            assert math.ceil(math.perm(m, d - s) / size) == got["passes"]

    def test_term_limit(self, monkeypatch):
        monkeypatch.setattr(orbits, "MAX_INJECTIVE_TERMS", 6)
        assert injective_sum(np.ones((2, 3, 1))).tolist() == [6.0]
        with pytest.raises(ConfigurationError, match="12 injective assignments.*limit of 6"):
            injective_sum(np.ones((2, 3, 2)))


def loop_overflows(table: np.ndarray) -> bool:
    """Whether the plain loop forms a product or a partial sum beyond the float range."""
    d, m, n = table.shape
    rows = table.tolist()
    for i in range(n):
        total = 0.0
        for chosen in itertools.permutations(range(m), d):
            product = 1.0
            for b, c in enumerate(chosen):
                product *= rows[b][c][i]
                if math.isinf(product):
                    return True
            total += product
            if math.isinf(total):
                return True
    return False


# d <= m + 1 <= 7 and up to 5 columns, with a seed for the values
tables = st.integers(0, 6).flatmap(
    lambda m: st.tuples(
        st.integers(0, m + 1), st.just(m), st.integers(0, 5), st.integers(0, 2**32)
    )
)


class TestInjectiveSumProperties:
    @pytest.mark.parametrize("block", BLOCK_SIZES, ids=BLOCK_IDS)
    @settings(max_examples=80, deadline=None)
    @given(spec=tables)
    def test_bits_equal_plain_loop(self, block, spec):
        d, m, n, seed = spec
        rng = np.random.default_rng(seed)
        table = rng.uniform(0.0, 3.0, (d, m, n))
        zeros = rng.random(table.shape) < 0.2
        table[zeros] = rng.choice([0.0, -0.0], size=int(zeros.sum()))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(orbits, "_BLOCK_VALUES", block)
            got = injective_sum(table)
        want = injective_sum_loop(table)
        assert got.shape == (n,) and np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize("block", BLOCK_SIZES, ids=BLOCK_IDS)
    @settings(max_examples=80, deadline=None)
    @given(spec=tables)
    def test_overflow_raised_exactly_when_the_loop_overflows(self, block, spec):
        # magnitudes from 1e-160 to 1e160: products of two or more factors may overflow
        d, m, n, seed = spec
        rng = np.random.default_rng(seed)
        table = 10.0 ** rng.uniform(-160.0, 160.0, (d, m, n))
        with pytest.MonkeyPatch.context() as patch, np.errstate(over="raise"):
            patch.setattr(orbits, "_BLOCK_VALUES", block)
            try:
                got = injective_sum(table)
            except FloatingPointError:
                got = None
        if loop_overflows(table):
            assert got is None
        else:
            assert got is not None and np.array_equal(got, injective_sum_loop(table))
