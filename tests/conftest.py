"""Shared fixtures and brute-force oracles for the test suite.

The automorphism oracle enumerates every rooted-tree automorphism of a
small tree as a table of child permutations, one per internal vertex; it is
deliberately independent of the library's shape machinery so equivalence
and orbit results can be judged against first principles.  The exact
energy oracle, ``exact_energy``, likewise reads the particles' words, not
their shape.
"""

from __future__ import annotations

import functools
import itertools
import os
import subprocess
import sys
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

import pytest

from joinforge import (
    Configuration,
    LevelFunction,
    ROOT,
    TreeParams,
    Vertex,
    WeightAssignment,
)

REPO = Path(__file__).resolve().parent.parent


def run_python(*args: str, timeout: float | None = None) -> subprocess.CompletedProcess:
    """Run ``python *args`` in a fresh interpreter with this checkout's ``src``
    first on its path, and capture its output as text."""
    paths = [str(REPO / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=timeout
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


def exact_energy(config: Configuration, weights: WeightAssignment, f: LevelFunction) -> Fraction:
    """The orbit energy in exact ``Fraction`` arithmetic, from the floats the
    weights and ``f`` hold.

    It is the factorized recursion, read off the particles' words.  A group
    of two or more particles that first part at level ``J``, entering below
    a vertex ``u``, is placed by choosing a vertex ``w`` at level ``J``
    below ``u``; each ``w`` gives ``f(w)**(d-1)`` times the sum, over
    injective maps of the group's ``d`` parts to children of ``w``, of the
    product of each part's placements below its child.  A lone particle's
    placements sum to the mass below its vertex.  Every value is exact, so
    the order of the terms does not matter.  Each part's placements below
    each vertex are summed once; keep the trees small.
    """
    tree = config.tree
    leaves = [Fraction(x) for x in weights.leaf_array.tolist()]

    @functools.cache
    def mass(word: tuple[int, ...]) -> Fraction:
        if len(word) == tree.depth:
            return leaves[tree.rank(word)]
        return sum((mass(word + (c,)) for c in tree.symbols()), Fraction(0))

    @functools.cache
    def placements(group: tuple[tuple[int, ...], ...], word: tuple[int, ...]) -> Fraction:
        if len(group) == 1:
            return mass(word)
        level = len(word)
        while len({p[level] for p in group}) == 1:
            level += 1
        split: dict[int, list[tuple[int, ...]]] = {}
        for p in group:
            split.setdefault(p[level], []).append(p)
        parts = [tuple(part) for part in split.values()]
        total = Fraction(0)
        for suffix in itertools.product(tree.symbols(), repeat=level - len(word)):
            w = word + suffix
            rows = [[placements(part, w + (c,)) for c in tree.symbols()] for part in parts]
            fw = Fraction(f.levels[level].item(tree.rank(w)))
            total += fw ** (len(parts) - 1) * exact_injective_sum(rows)
        return total

    return placements(tuple(p.word for p in config.particles), config.base.word)


def exact_injective_sum(rows: list[list[Fraction]]) -> Fraction:
    """The sum over injective maps ``c`` of ``prod_b rows[b][c(b)]``, exactly:
    a DP over the sets of children the first rows have taken."""
    sums = {0: Fraction(1)}
    for row in rows:
        after: defaultdict[int, Fraction] = defaultdict(Fraction)
        for used, value in sums.items():
            for c, x in enumerate(row):
                if x and not used >> c & 1:
                    after[used | 1 << c] += value * x
        sums = after
    return sum(sums.values(), Fraction(0))
