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
and the factorized energy recursion are judged against an independent
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
from functools import cache, cached_property

import numpy as np

from .tree import (
    ConfigurationError,
    TreeParams,
    Vertex,
    Word,
    join,
    join_multiset,
)

DEFAULT_ENUMERATION_GUARD = 10_000_000
# injective_sum adds about 5 * 10**7 terms per second; refuse sums of over a few s
MAX_INJECTIVE_TERMS = 10**8
# values per block of maps evaluated at once by injective_sum
_BLOCK_VALUES = 2**14


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
        self.tree.validate_vertex(self.base)
        particles = tuple(self.particles)
        if not particles:
            raise ConfigurationError("a configuration needs at least one particle")
        for p in particles:
            self.tree.validate_vertex(p)
            if not self.tree.is_leaf(p):
                raise ConfigurationError(f"particle {p!r} is not a leaf")
            if not self.base.ancestor_of(p):
                raise ConfigurationError(f"particle {p!r} does not descend from {self.base!r}")
        if len(set(particles)) != len(particles):
            raise ConfigurationError("particles must be pairwise distinct")
        object.__setattr__(self, "particles", particles)

    @property
    def n(self) -> int:
        return len(self.particles)

    def join_multiset(self) -> dict[Vertex, int]:
        return join_multiset(self.particles)

    @cached_property
    def shape(self) -> JoinShape:
        """Canonical join shape (see :func:`extract_shape`), extracted once."""
        return extract_shape(self)

    def to_text(self) -> str:
        return "(" + ", ".join(p.to_text() for p in self.particles) + ")"


@dataclass(frozen=True)
class ShapeLeaf:
    """A branch holding a single particle.

    ``gap`` counts the levels from the owning join point (or the base, for a
    one-particle configuration) down to the free level.
    """

    gap: int
    index: int

    @property
    def min_index(self) -> int:
        return self.index

    @property
    def n_particles(self) -> int:
        return 1

    @property
    def indices(self) -> frozenset[int]:
        return frozenset((self.index,))

    @property
    def skeleton(self) -> str:
        return f"{self.gap}#"

    @property
    def serialized(self) -> str:
        return f"{self.gap}#{self.index}"

    @property
    def join_nodes(self) -> tuple["JoinNode", ...]:
        return ()


@dataclass(frozen=True)
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
    # set by __post_init__ from the branches; not part of equality, hash or repr
    skeleton: str = field(init=False, repr=False, compare=False)
    serialized: str = field(init=False, repr=False, compare=False)
    indices: frozenset[int] = field(init=False, repr=False, compare=False)
    min_index: int = field(init=False, repr=False, compare=False)
    n_particles: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.branches) < 2:
            raise ConfigurationError("a join node needs at least two branches")
        keys = [_branch_key(b) for b in self.branches]
        if keys != sorted(keys):
            raise ConfigurationError("branches are not in canonical order")
        indices = frozenset().union(*[b.indices for b in self.branches])
        if len(indices) != sum([b.n_particles for b in self.branches]):
            raise ConfigurationError("branch index sets overlap")
        skeletons = ",".join([skeleton for skeleton, _ in keys])
        serials = ",".join([b.serialized for b in self.branches])
        object.__setattr__(self, "skeleton", f"{self.gap}({skeletons})")
        object.__setattr__(self, "serialized", f"{self.gap}({serials})")
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "min_index", min(indices))
        object.__setattr__(self, "n_particles", len(indices))

    @property
    def degree(self) -> int:
        return len(self.branches)

    @property
    def multiplicity(self) -> int:
        return len(self.branches) - 1

    @cached_property
    def join_nodes(self) -> tuple["JoinNode", ...]:
        """Every join node of the shape with its slots, children first (post-order)."""
        return _join_nodes(self)


JoinShape = ShapeLeaf | ShapeNode


def _branch_key(shape: JoinShape) -> tuple[str, int]:
    return (shape.skeleton, shape.min_index)


def extract_shape(config: Configuration) -> JoinShape:
    """Canonical join shape of a configuration; equal across exactly one orbit."""
    items = [(index, p.word) for index, p in enumerate(config.particles)]
    level = config.base.level
    return _shape_of(items, level, level, config.tree.depth)


def _shape_of(
    items: list[tuple[int, Word]], parent_level: int, level: int, depth: int
) -> JoinShape:
    """Shape of distinct leaf words that agree above ``level``, hung ``parent_level`` down."""
    if len(items) == 1:
        return ShapeLeaf(gap=depth - parent_level, index=items[0][0])
    first = items[0][1]
    while all(word[level] == first[level] for _, word in items):
        level += 1
    parts: dict[int, list[tuple[int, Word]]] = {}
    for item in items:
        parts.setdefault(item[1][level], []).append(item)
    branches = sorted(
        (_shape_of(part, level, level + 1, depth) for part in parts.values()),
        key=_branch_key,
    )
    return ShapeNode(gap=level - parent_level, branches=tuple(branches))


@dataclass(frozen=True)
class JoinNode:
    """A join node, its branch ``path`` from the top node, its depth ``offset``
    in levels below the base, and the ``multiplicity`` exponent slots it owns.

    Slots are numbered in preorder over join nodes, a node's before its branches'.
    """

    node: ShapeNode
    path: tuple[int, ...]
    offset: int
    slots: range


def _join_nodes(top: ShapeNode) -> tuple[JoinNode, ...]:
    records: list[JoinNode] = []
    next_slot = 0

    def walk(node: ShapeNode, path: tuple[int, ...], offset: int) -> None:
        nonlocal next_slot
        offset += node.gap
        slots = range(next_slot, next_slot + node.multiplicity)
        next_slot = slots.stop
        for j, branch in enumerate(node.branches):
            if isinstance(branch, ShapeNode):
                walk(branch, path + (j,), offset)
        records.append(JoinNode(node, path, offset, slots))

    walk(top, (), 0)
    return tuple(records)


def checked_join_nodes(shape: JoinShape, arity: int) -> tuple[JoinNode, ...]:
    """The shape's join nodes, refusing a node with more branches than ``arity``."""
    for record in shape.join_nodes:
        if record.node.degree > arity:
            raise ConfigurationError(
                f"join node with {record.node.degree} branches exceeds arity {arity}"
            )
    return shape.join_nodes


def shape_join_levels(shape: JoinShape, base_level: int) -> list[int]:
    """Join levels with multiplicity, one per slot, in canonical slot order."""
    levels = [0] * (shape.n_particles - 1)
    for record in shape.join_nodes:
        for slot in record.slots:
            levels[slot] = base_level + record.offset
    return levels


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
    free; the top's gap starts at the base and has no such level.
    """
    m = arity
    if isinstance(shape, ShapeLeaf):
        return m**shape.gap
    free_levels, assignments = 1, 1
    for record in checked_join_nodes(shape, m):
        node = record.node
        assignments *= math.perm(m, node.degree)
        free_levels += node.gap - 1
        free_levels += sum(b.gap - 1 for b in node.branches if isinstance(b, ShapeLeaf))
    return m**free_levels * assignments


def injective_sum(table: np.ndarray) -> np.ndarray:
    """Per column, the sum over injective maps ``c`` of ``prod_b table[b, c(b)]``.

    ``table`` has shape ``(d, m, N)``: row ``b`` holds branch ``b``'s value
    on each of ``m`` children, for ``N`` independent columns.  This is the
    join-point sum of the factorized energy and, with ``d = m``, the
    symmetric sum of the constant estimator.

    Factors multiply in branch order and terms add one at a time in
    ``itertools.permutations`` order, so the result rounds exactly as a loop
    over the maps.  Maps run in blocks, one per prefix of ``d - s`` children,
    with the largest ``s`` whose block holds at most ``_BLOCK_VALUES`` values,
    or 1.  A block is a tree of partial products: level ``j`` holds the
    prefix's product times ``j`` suffix factors, extended by unused children
    in ascending order.  Over ``MAX_INJECTIVE_TERMS`` terms are refused.
    """
    d, m, n = table.shape
    terms = math.perm(m, d) * n
    if terms > MAX_INJECTIVE_TERMS:
        raise ConfigurationError(
            f"summing {terms} injective assignments ({d} branches on {m} children, "
            f"{n} join vertices) exceeds the limit of {MAX_INJECTIVE_TERMS} terms"
        )
    if d == 0 or d > m:
        return np.full(n, float(d == 0))  # one empty map (product 1) or none: form no product
    # s >= 1: a block of one suffix child holds at most m*N values, one table row
    s, k = d, m  # k = m - d + s children are left to each block's suffix
    while s > 1 and math.perm(k, s) * n > _BLOCK_VALUES:
        s, k = s - 1, k - 1
    total = np.zeros(n)
    for prefix in itertools.permutations(range(m), d - s):
        rows, level = table[d - s :], table[d - s]
        if prefix:  # unused children ascending; the prefix's product scales the first factor
            rows = rows.take([c for c in range(m) if c not in prefix], axis=1)
            level = math.prod(table[b, c] for b, c in enumerate(prefix)) * rows[0]
        for j in range(1, s):
            if j < k - 1:  # each prefix extends to its k - j unused children
                level = level.repeat(k - j, axis=0)
            level = level * rows[j].take(_children(k, j), axis=0)
        sums = np.concatenate((total[None], level))
        total = np.add.accumulate(sums, out=sums)[-1]
    return total


@cache
def _children(k: int, j: int) -> np.ndarray:
    """The unused children of each injective ``j``-prefix of ``range(k)``, ascending,
    prefixes in permutations order: a flat read-only index into a suffix row."""
    prefixes = itertools.permutations(range(k), j)
    index = np.array([[c for c in range(k) if c not in p] for p in prefixes], np.intp).ravel()
    index.setflags(write=False)
    return index


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
