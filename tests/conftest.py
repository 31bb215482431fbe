"""Shared fixtures and brute-force oracles for the test suite.

The automorphism oracle enumerates every rooted-tree automorphism of a
small tree as a table of child permutations, one per internal vertex; it is
deliberately independent of the library's shape machinery so equivalence
and orbit results can be judged against first principles.
"""

from __future__ import annotations

import itertools

import pytest

from joinforge import (
    Configuration,
    LevelFunction,
    ROOT,
    TreeParams,
    Vertex,
    WeightAssignment,
)


def vx(*symbols: int) -> Vertex:
    return Vertex(tuple(symbols))


@pytest.fixture(scope="session")
def binary3() -> TreeParams:
    return TreeParams(2, 3)


@pytest.fixture(scope="session")
def ternary2() -> TreeParams:
    return TreeParams(3, 2)


@pytest.fixture(scope="session")
def worked_config(binary3) -> Configuration:
    return Configuration(binary3, ROOT, (vx(1, 1, 1), vx(1, 2, 1), vx(2, 1, 1), vx(2, 1, 2)))


def all_automorphisms(tree: TreeParams):
    """Every automorphism of the rooted tree, as a leaf-mapping callable.

    An automorphism is a choice of child permutation at each internal
    vertex, applied along root paths; there are ``m!`` to the number of
    internal vertices in total, so keep the tree tiny.
    """
    internal = [v for v in tree.vertices() if v.level < tree.depth]
    perms = list(itertools.permutations(range(1, tree.arity + 1)))
    for choice in itertools.product(perms, repeat=len(internal)):
        table = dict(zip(internal, choice))

        def mapping(leaf: Vertex, table=table) -> Vertex:
            word = []
            current = ROOT
            for symbol in leaf.word:
                word.append(table[current][symbol - 1])
                current = current.child(symbol)
            return Vertex(tuple(word))

        yield mapping


def apply_automorphism(mapping, config: Configuration) -> Configuration:
    return Configuration(
        config.tree, config.base, tuple(mapping(p) for p in config.particles)
    )


def unit_data(tree: TreeParams) -> tuple[WeightAssignment, LevelFunction]:
    return WeightAssignment.constant(tree, 1.0), LevelFunction.constant(tree, 1.0)


def per_vertex(tree: TreeParams, draw) -> list[float]:
    """One ``draw()`` value per vertex, root first and each level in rank
    order, the order in which ``tree.vertices()`` visits the vertices."""
    return [draw() for _ in tree.vertices()]
