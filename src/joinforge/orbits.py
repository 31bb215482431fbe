"""Configurations and their orbits under root-fixing tree automorphisms.

A configuration is an ordered tuple of distinct leaves descending from a
base vertex.  Two configurations are equivalent when some automorphism of
the rooted tree fixing the base maps one tuple onto the other position by
position.  The complete invariant of an orbit is its *join shape*: a
recursive record of the gaps between successive join points, the branching
at each join point, and the partition of particle indices across branches.

Shapes are kept in a canonical form (branches sorted by a fixed total
order), so orbit equality is shape equality and orbit size is a product over
the shape.  The brute-force oracles, :func:`equivalent` and
:func:`orbit_enumerate`, deliberately read no shape, so the counting formula
and the factorized energy are judged against an independent
route.  They decide membership by pairwise join levels alone: two tuples
lie in one orbit exactly when every pair of them joins at the same level.
Automorphisms keep join levels.  Conversely, equal levels extend to an
automorphism child by child from the base down: at each vertex, the pairs
that join below it split the indices into the same blocks in both tuples,
so one permutation of its children carries one tuple's blocks onto the
other's, and the argument recurses.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from functools import cache
from operator import attrgetter
from typing import ClassVar, NamedTuple

import numpy as np

from .tree import (
    ConfigurationError,
    TreeParams,
    Vertex,
    Word,
    cached_attribute,
    join,
    join_multiset,
)

DEFAULT_ENUMERATION_GUARD = 10_000_000
# injective_sum adds about 10**8 terms per second; refuse sums of over about a second
MAX_INJECTIVE_TERMS = 10**8
# values per pass of injective_sum; one prefix's leaves take at most a quarter
_BLOCK_VALUES = 2**16
# largest table of prefix rows that injective_sum caches, in indexes (8 MB)
_PREFIX_TABLE_VALUES = 2**20


class EnumerationGuardError(RuntimeError):
    """Enumeration refused: the predicted tuple count exceeds the guard."""

    def __init__(self, message: str, estimate: int):
        super().__init__(message)
        self.estimate = estimate


@dataclass(frozen=True)
class Configuration:
    """An ordered tuple of distinct leaves below a base vertex."""

    tree: TreeParams
    base: Vertex
    particles: tuple[Vertex, ...]

    def __post_init__(self) -> None:
        tree, base = self.tree, self.base
        tree.validate_vertex(base)
        particles = tuple(self.particles)
        if not particles:
            raise ConfigurationError("a configuration needs at least one particle")
        m, k, prefix = tree.arity, tree.depth, base.word
        for p in particles:  # one pass over a word: leaf length, base prefix, int symbols in 1..m
            w = p.word
            if len(w) != k or w[: len(prefix)] != prefix or not all(
                type(s) is int and 0 < s <= m for s in w
            ):  # the refusals in their order, or a word of numpy symbols
                tree.validate_vertex(p)
                if not tree.is_leaf(p):
                    raise ConfigurationError(f"particle {p!r} is not a leaf")
                if not base.ancestor_of(p):
                    raise ConfigurationError(f"particle {p!r} does not descend from {base!r}")
        if len({p.word for p in particles}) != len(particles):
            raise ConfigurationError("particles must be pairwise distinct")
        object.__setattr__(self, "particles", particles)

    @property
    def n(self) -> int:
        return len(self.particles)

    def join_multiset(self) -> dict[Vertex, int]:
        """The particles' join points with multiplicities; none for one particle."""
        return join_multiset(self.particles) if self.n > 1 else {}

    @cached_attribute
    def shape(self) -> JoinShape:
        """Canonical join shape (see :func:`extract_shape`), extracted once."""
        return extract_shape(self)

    def to_text(self) -> str:
        return "(" + ", ".join(p.to_text() for p in self.particles) + ")"


@dataclass(frozen=True, init=False)
class ShapeLeaf:
    """A branch holding a single particle.

    ``gap`` counts the levels from the owning join point (or the base, for a
    one-particle configuration) down to the free level.
    """

    gap: int
    index: int
    # set once by __init__; not part of equality, hash or repr
    skeleton: str = field(init=False, repr=False, compare=False)
    serialized: str = field(init=False, repr=False, compare=False)
    indices: frozenset[int] = field(init=False, repr=False, compare=False)
    min_index: int = field(init=False, repr=False, compare=False)
    n_particles: ClassVar[int] = 1

    def __init__(self, gap: int, index: int) -> None:
        skeleton = f"{gap}#"
        # frozen: every field is written to the instance dict once, here
        self.__dict__.update(
            gap=gap,
            index=index,
            skeleton=skeleton,
            serialized=f"{skeleton}{index}",
            indices=frozenset((index,)),
            min_index=index,
        )

    @property
    def walk(self) -> "JoinWalk":
        return JoinWalk((), (), self.gap, 0)

    @property
    def join_nodes(self) -> tuple["JoinNode", ...]:
        return ()


@dataclass(frozen=True, init=False)
class ShapeNode:
    """A join point with its branches.

    ``gap`` counts the levels from the parent join point (or the base, at
    the top) down to this join point.  The node's multiplicity is
    ``len(branches) - 1``.  Branches are stored in canonical order: sorted
    by their index-free serialization, ties broken by smallest particle
    index, which is a total order because index sets are disjoint.
    """

    gap: int
    branches: tuple["JoinShape", ...]
    # set once by __init__ from the branches' own; not part of equality, hash or repr
    skeleton: str = field(init=False, repr=False, compare=False)
    serialized: str = field(init=False, repr=False, compare=False)
    indices: frozenset[int] = field(init=False, repr=False, compare=False)
    min_index: int = field(init=False, repr=False, compare=False)
    n_particles: int = field(init=False, repr=False, compare=False)

    def __init__(self, gap: int, branches: tuple["JoinShape", ...]) -> None:
        if len(branches) < 2:
            raise ConfigurationError("a join node needs at least two branches")
        keys = list(map(_branch_key, branches))
        if keys != sorted(keys):
            raise ConfigurationError("branches are not in canonical order")
        index_sets = [b.indices for b in branches]
        indices = frozenset().union(*index_sets)
        if len(indices) != sum(map(len, index_sets)):
            raise ConfigurationError("branch index sets overlap")
        skeletons, min_indices = zip(*keys)
        serials = ",".join([b.serialized for b in branches])
        self.__dict__.update(
            gap=gap,
            branches=branches,
            skeleton=f"{gap}({','.join(skeletons)})",
            serialized=f"{gap}({serials})",
            indices=indices,
            min_index=min(min_indices),
            n_particles=len(indices),
        )

    @property
    def degree(self) -> int:
        return len(self.branches)

    @property
    def multiplicity(self) -> int:
        return len(self.branches) - 1

    @cached_attribute
    def walk(self) -> "JoinWalk":
        """The one walk over the shape's join nodes (see :class:`JoinWalk`), made once."""
        return _join_nodes(self)

    @property
    def join_nodes(self) -> tuple["JoinNode", ...]:
        """Every join node of the shape with its slots, children first (post-order)."""
        return self.walk.nodes


JoinShape = ShapeLeaf | ShapeNode

# a branch's place in canonical order: its skeleton, then its smallest index
_branch_key = attrgetter("skeleton", "min_index")


def extract_shape(config: Configuration) -> JoinShape:
    """Canonical join shape of a configuration; equal across exactly one orbit."""
    level, depth = config.base.level, config.tree.depth
    if config.n == 1:
        return ShapeLeaf(depth - level, 0)
    items = sorted([(p.word, index) for index, p in enumerate(config.particles)])
    return _shape_of(items, level, level, depth)


def _shape_of(
    items: list[tuple[Word, int]], parent_level: int, level: int, depth: int
) -> ShapeNode:
    """Shape of two or more distinct leaf words, sorted and each with its
    index, that agree above ``level``, hung ``parent_level`` down."""
    # sorted words agree at a level exactly where the first and the last do
    first, last = items[0][0], items[-1][0]
    while first[level] == last[level]:
        level += 1
    branches, start = [], 0
    for stop in range(1, len(items) + 1):  # each run of one symbol at the level is a branch
        if stop < len(items) and items[stop][0][level] == items[start][0][level]:
            continue
        if stop - start == 1:
            branches.append(ShapeLeaf(depth - level, items[start][1]))
        else:
            branches.append(_shape_of(items[start:stop], level, level + 1, depth))
        start = stop
    branches.sort(key=_branch_key)
    return ShapeNode(level - parent_level, tuple(branches))


class JoinNode(NamedTuple):
    """A join node's branch ``path`` from the top node, its depth ``offset``
    in levels below the base, its ``children``, and the ``degree - 1``
    exponent slots it owns.

    ``children`` holds, per branch in canonical order, the index of the
    branch's join node among the walk's records, or None for a lone
    particle; children come first, so each index is below the node's own.
    Slots are numbered in preorder over join nodes, a node's before its
    branches'.  A record holds no node, so the shape that caches its records
    is not a reference cycle.
    """

    path: tuple[int, ...]
    offset: int
    children: tuple[int | None, ...]
    slots: range

    @property
    def degree(self) -> int:
        return len(self.children)


class JoinWalk(NamedTuple):
    """What one walk over a shape's join nodes gives; cached on the top node.

    ``nodes`` are the join nodes' records, children first (post-order).
    ``slot_offsets`` holds each slot's join depth below the base, in slot
    order.  ``free_levels`` counts the levels whose vertex a placement of
    the shape chooses freely: every level of the top's descent, and every
    level of a deeper descent but the first, which enters a child (see
    :func:`shape_orbit_size`).  ``max_degree`` is the largest degree, 0 on a
    lone particle.
    """

    nodes: tuple[JoinNode, ...]
    slot_offsets: tuple[int, ...]
    free_levels: int
    max_degree: int


def _join_nodes(top: ShapeNode) -> JoinWalk:
    records: list[JoinNode] = []
    offsets: list[int] = []
    free_levels = _walk_join_nodes(top, (), 0, records, offsets) + 1
    max_degree = max(record.degree for record in records)
    return JoinWalk(tuple(records), tuple(offsets), free_levels, max_degree)


def _walk_join_nodes(
    node: ShapeNode,
    path: tuple[int, ...],
    offset: int,
    records: list[JoinNode],
    offsets: list[int],
) -> int:
    """Append the records of ``node`` and the join nodes below it to
    ``records``, children first, and their slots' offsets to ``offsets``,
    in slot order; return their free levels, each descent's first level
    counted out."""
    offset += node.gap
    slots = range(len(offsets), len(offsets) + node.multiplicity)
    offsets += [offset] * node.multiplicity  # a node's slots come before its branches'
    free_levels = node.gap - 1
    children: list[int | None] = []
    for j, branch in enumerate(node.branches):
        if isinstance(branch, ShapeNode):
            free_levels += _walk_join_nodes(branch, path + (j,), offset, records, offsets)
            children.append(len(records) - 1)  # the branch's own record comes last
        else:
            free_levels += branch.gap - 1
            children.append(None)
    records.append(JoinNode(path, offset, tuple(children), slots))
    return free_levels


def checked_join_nodes(shape: JoinShape, arity: int) -> tuple[JoinNode, ...]:
    """The shape's join nodes, refusing a node with more branches than ``arity``."""
    walk = shape.walk
    if walk.max_degree > arity:
        degree = next(record.degree for record in walk.nodes if record.degree > arity)
        raise ConfigurationError(f"join node with {degree} branches exceeds arity {arity}")
    return walk.nodes


def shape_join_levels(shape: JoinShape, base_level: int) -> list[int]:
    """Join levels with multiplicity, one per slot, in canonical slot order."""
    return [base_level + offset for offset in shape.walk.slot_offsets]


def equivalent(a: Configuration, b: Configuration) -> bool:
    """Position-wise orbit equivalence: every pair of particles joins at the
    same level in both tuples, which is exact (see the module docstring).

    Independent of :func:`extract_shape`: the two routes are cross-checked
    in the test suite rather than one delegating to the other.
    """
    if a.tree != b.tree:
        raise ConfigurationError("configurations live on different trees")
    if a.base != b.base:
        raise ConfigurationError("configurations have different bases")
    if a.n != b.n:
        raise ConfigurationError("configurations have different particle counts")
    pairs = zip(itertools.combinations(a.particles, 2), itertools.combinations(b.particles, 2))
    return all(join(*pa).level == join(*pb).level for pa, pb in pairs)


def shape_orbit_size(shape: JoinShape, arity: int) -> int:
    """Exact orbit cardinality from the shape alone.

    Descents contribute one arity factor per free level (the count of
    candidate vertices at the join level); each join node contributes the
    number of injective branch-to-child assignments times its branch counts.
    A branch's gap includes the level of the child it enters, which is not
    free; the top's gap starts at the base and has no such level.  Both
    counts come from the shape's cached walk.
    """
    m = arity
    records = checked_join_nodes(shape, m)
    return m**shape.walk.free_levels * math.prod(math.perm(m, r.degree) for r in records)


def injective_sum(table: np.ndarray) -> np.ndarray:
    """Per column, the sum over injective maps ``c`` of ``prod_b table[b, c(b)]``.

    ``table`` has shape ``(d, m, N)``: row ``b`` holds branch ``b``'s value
    on each of ``m`` children, for ``N`` independent columns.  This is the
    join-point sum of the factorized energy and, with ``d = m``, the
    symmetric sum of the constant estimator.

    Factors multiply in branch order and terms add one at a time in
    ``itertools.permutations`` order, so the result rounds exactly as a loop
    over the maps.  A map is a prefix of ``t = d - s`` children and a suffix
    of ``s``, with the largest ``s`` whose ``perm(m - t, s) * N`` leaves
    hold at most a quarter of ``_BLOCK_VALUES`` values, or 1.  Each pass
    takes a group of consecutive prefixes whose leaves together fit
    ``_BLOCK_VALUES``, so at least four where there are four: one gather
    per prefix branch forms the prefixes' products, and a tree of partial
    products extends them, level ``j`` by each prefix's unused children in
    ascending order (see :func:`_write_leaves`).  The leaves go into one
    buffer, allocated once per call, and are added in place after the
    running total.  Over ``MAX_INJECTIVE_TERMS`` terms are refused.

    A pass costs a few numpy calls per level of the tree whatever its size,
    so passes of up to 2**16 values take the 8- and 9-child stars in one to
    six passes, and the buffer with its spare (1 MB) stays in a core's
    cache.  The quarter keeps the suffix short: a longer one takes fewer
    prefixes per pass and more levels.  The buffer and the spare are one
    allocation; as two, glibc gave the top of the heap back after each
    call and faulted it in again, 125 to 224 minor faults per star call.
    """
    d, m, n = table.shape
    terms = math.perm(m, d) * n
    if terms > MAX_INJECTIVE_TERMS:
        raise ConfigurationError(
            f"summing {terms} injective assignments ({d} rows of {m} entries, over {n} "
            f"columns) exceeds the limit of {MAX_INJECTIVE_TERMS} terms"
        )
    if d == 0 or d > m or n == 0:
        return np.full(n, float(d == 0))  # one empty map (product 1) or none: form no product
    s, size = _pass_shape(d, m, n)
    t, k = d - s, m - d + s  # k children are left to each prefix's suffix
    leaves = math.perm(k, s)
    if not t:  # one pass of every map, its levels fresh (see _write_leaves)
        sums = np.zeros((1 + leaves, n))
        _write_leaves(table, None, 0, k, sums[1:].reshape(1, leaves, n), None)
        return np.add.accumulate(sums, out=sums)[-1]
    # one allocation holds the running total, a group's leaves and, where
    # the tree has repeated levels, the spare they are formed in
    values, spared = size * leaves * n, s > 1 and k > 2
    memory = np.empty(n + values * (2 if spared else 1))
    sums, spare = memory[: n + values].reshape(-1, n), memory[n + values :] if spared else None
    sums[0] = 0.0
    for chosen in _prefix_groups(m, t, size):
        block = sums[: 1 + len(chosen) * leaves]
        _write_leaves(table, chosen, t, k, block[1:].reshape(-1, leaves, n), spare)
        # the group's total goes ahead of the next group's leaves
        sums[0] = np.add.accumulate(block, out=block)[-1]
    return sums[0].copy()  # not a view that would keep the buffer


def _pass_shape(d: int, m: int, n: int) -> tuple[int, int]:
    """The suffix length ``s`` and the prefixes per pass with which
    :func:`injective_sum` takes a table of ``d`` branches on ``m >= d``
    children over ``n`` columns (see there); one pass of all maps when
    ``s = d``."""
    # s >= 1: a suffix of one child has at most m*N leaves, one table row
    s, k = d, m  # k = m - t children are left to each prefix's suffix
    while s > 1 and 4 * math.perm(k, s) * n > _BLOCK_VALUES:
        s, k = s - 1, k - 1
    if s == d:
        return s, 1
    return s, min(math.perm(m, d - s), max(1, _BLOCK_VALUES // (math.perm(k, s) * n)))


def _write_leaves(
    table: np.ndarray,
    chosen: np.ndarray | None,
    t: int,
    k: int,
    out: np.ndarray,
    spare: np.ndarray | None,
) -> None:
    """Write the products of one group's maps into ``out``, ``(g, perm(k, s), N)``.

    ``chosen`` holds the group's prefix rows (see :func:`_prefix_groups`),
    or is None for the one group of a sum without prefixes (``t = 0``).
    Level ``j`` of the tree holds the product of each ``j``-prefix of the
    suffix, in permutations order; the next level repeats it once per
    unused child and multiplies in that child's factor, and the last level
    is the leaves.  Without ``spare`` the levels are fresh arrays: a call
    without prefixes has one group and can afford them, and on the tiny
    tables of fuzz instances they take fewer steps than the buffer does;
    with ``k <= 2`` no level is repeated and the leaves' factors are taken
    straight into ``out``.  With ``spare``, each level is formed in ``out``
    itself, so that a group allocates nothing the size of its leaves: the
    level is repeated into ``spare`` before the factors are taken into
    ``out`` (where one child is left, ``k - j = 1``, the level keeps its
    place in ``out`` and the factors go to ``spare``).
    """
    s = len(table) - t
    if t:  # suffix rows on each prefix's unused children; its product scales the first
        rows = table[t:].take(chosen[:, t:], axis=1)
        product = table[0].take(chosen[:, 0], axis=0)
        for b in range(1, t):  # branch order
            product *= table[b].take(chosen[:, b], axis=0)
        level = np.multiply(product[:, None], rows[0], out=out if s == 1 else rows[0])
    else:
        rows = table[:, None]
        level = rows[0]
        if s == 1:  # d = 1: the one row is the leaves
            out[...] = level
    (g, _, n), flat = out.shape, out.reshape(-1)
    for j in range(1, s):  # each j-prefix of the suffix extends to its k - j unused children
        prefixes, children = _extensions(k, j)
        # "clip" takes into out without a copy (every index is in range)
        if spare is None:  # fresh levels; the leaves' factors are taken into out
            if j < k - 1:
                level = level.take(prefixes, axis=1)
            last = out if j == s - 1 else None
            factors = rows[j].take(children, axis=1, out=last, mode="clip")
            level = np.multiply(level, factors, out=factors)
        else:
            size = level.size * (k - j)
            here, there = flat[:size].reshape(g, -1, n), spare[:size].reshape(g, -1, n)
            if j < k - 1:
                level = level.take(prefixes, axis=1, out=there, mode="clip")
                factors = rows[j].take(children, axis=1, out=here, mode="clip")
            else:  # j >= 2, so the level is in out already
                factors = rows[j].take(children, axis=1, out=there, mode="clip")
            level = np.multiply(level, factors, out=here)


def _prefix_groups(m: int, t: int, size: int) -> Iterator[np.ndarray]:
    """Consecutive groups of ``size`` injective ``t``-prefixes of ``range(m)``,
    in permutations order, as rows of each prefix's chosen children followed
    by its unused ones ascending (the last group may be shorter).

    The rows of all prefixes are cached, one read-only table per ``(m, t)``
    kept for the life of the process, unless they would hold over
    ``_PREFIX_TABLE_VALUES`` values; slicing the table costs less than
    building each group's rows.  A wider join builds each group's rows as
    it goes, so that a star of hundreds of children holds no table of every
    prefix.
    """
    count = math.perm(m, t)
    if count * m <= _PREFIX_TABLE_VALUES:
        rows = _prefix_table(m, t)
        return (rows[i : i + size] for i in range(0, count, size))
    prefixes = itertools.permutations(range(m), t)
    chunks = iter(lambda: list(itertools.islice(prefixes, size)), [])
    return (_prefix_rows(chunk, m) for chunk in chunks)


def _prefix_rows(prefixes: list[tuple[int, ...]], m: int) -> np.ndarray:
    """Each prefix's chosen children, then its unused children of ``range(m)`` ascending."""
    chosen = np.array(prefixes, np.intp)  # (g, t)
    unused = np.ones((len(chosen), m), bool)
    unused[np.arange(len(chosen))[:, None], chosen] = False
    return np.concatenate((chosen, unused.nonzero()[1].reshape(len(chosen), -1)), axis=1)


@cache
def _prefix_table(m: int, t: int) -> np.ndarray:
    """:func:`_prefix_rows` of every injective ``t``-prefix of ``range(m)``, read-only."""
    rows = _prefix_rows(list(itertools.permutations(range(m), t)), m)
    rows.setflags(write=False)
    return rows


@cache
def _extensions(k: int, j: int) -> tuple[np.ndarray, np.ndarray]:
    """Each injective ``j``-prefix of ``range(k)`` extended by each of its unused
    children, ascending, prefixes in permutations order: the prefix's position
    and the child, as two flat read-only indexes."""
    prefixes = enumerate(itertools.permutations(range(k), j))
    pairs = [(i, c) for i, p in prefixes for c in range(k) if c not in p]
    index = np.array(pairs, np.intp).T.copy()
    index.setflags(write=False)
    return index[0], index[1]


def orbit_size(config: Configuration) -> int:
    return shape_orbit_size(config.shape, config.tree.arity)


def orbit_enumerate(config: Configuration) -> Iterator[Configuration]:
    """Yield every ordered tuple in the orbit exactly once.

    Works by scanning ordered tuples of leaves below the base and keeping
    those whose pairs join at the levels of ``config``'s.  Refuses up
    front when either the orbit size estimate or the count of all ordered
    tuples exceeds ``DEFAULT_ENUMERATION_GUARD`` (10**7), before any leaf
    is listed, since a filter scan must not silently hang.
    """
    guard = DEFAULT_ENUMERATION_GUARD
    estimate = orbit_size(config)
    if estimate > guard:
        raise EnumerationGuardError(
            f"estimated orbit size {estimate} exceeds the enumeration guard {guard}; "
            "use the factorized evaluator instead",
            estimate,
        )
    tree = config.tree
    scan = math.perm(tree.arity ** (tree.depth - config.base.level), config.n)
    if scan > guard:
        raise EnumerationGuardError(
            f"scanning {scan} ordered tuples exceeds the enumeration guard {guard}; "
            "use the factorized evaluator instead",
            scan,
        )
    return _filtered_orbit(config, list(tree.leaves_below(config.base)))


def _filtered_orbit(config: Configuration, pool: list[Vertex]) -> Iterator[Configuration]:
    """Tuples of ``pool`` in ``itertools.permutations`` order whose every pair
    joins at the level of the same pair of ``config``: exactly its orbit.

    Tuples grow depth-first in pool order, and a prefix is dropped as soon
    as one of its pairs joins at another level; the pair test is exact (see
    the module docstring), so every completed tuple is a member.  A repeated
    leaf joins itself at the leaf level, below every pair of distinct
    particles, so the test refuses it too.
    """
    levels = [[join(a, b).level for b in config.particles] for a in config.particles]
    m, depth = config.tree.arity, config.tree.depth

    def join_level(a: int, b: int) -> int:
        # pool indices are the leaves' ranks below the base
        level = depth
        while a != b:
            a, b, level = a // m, b // m, level - 1
        return level

    def candidates(i: int) -> Iterable[int]:
        """Pool indices that join the deepest-joining earlier particle at its level."""
        if not chosen:
            return range(len(pool))
        h = max(range(i), key=lambda h: levels[h][i])
        width = m ** (depth - levels[h][i])
        block = chosen[h] // width * width
        inner = chosen[h] // (width // m) * (width // m)
        return itertools.chain(range(block, inner), range(inner + width // m, block + width))

    chosen: list[int] = []

    def extend() -> Iterator[Configuration]:
        i = len(chosen)
        if i == config.n:
            yield Configuration(config.tree, config.base, tuple(pool[j] for j in chosen))
            return
        for j in candidates(i):
            for h, c in enumerate(chosen):
                if join_level(c, j) != levels[h][i]:
                    break
            else:
                chosen.append(j)
                yield from extend()
                chosen.pop()

    return extend()
