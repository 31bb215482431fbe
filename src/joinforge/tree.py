"""Symbolic regular rooted trees.

A tree of arity ``m`` and depth ``k`` has vertices addressed by words over
the symbols ``1..m`` of length 0 (the root) up to ``k`` (the free vertices,
or leaves).  The word doubles as the path from the root, so the ancestor
relation is the prefix relation and the join of two vertices is their
longest common prefix.  Leaves carry nonnegative weights; the mass of the
cylinder below an arbitrary vertex is the sum of the leaf weights under it.

Everything here is immutable after construction and all operations are
pure, so values can be shared freely between threads or processes.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass
from functools import reduce


class ConfigurationError(ValueError):
    """Malformed tree data: bad vertices, weights, or particle tuples."""


Word = tuple[int, ...]


@dataclass(frozen=True, order=True)
class Vertex:
    """A vertex of the tree, addressed by its word.

    The root is the empty word.  The level of a vertex equals the length of
    its word.  Vertices are tree-agnostic; arity and depth constraints are
    enforced where a :class:`TreeParams` is in scope.
    """

    word: Word = ()

    @property
    def level(self) -> int:
        return len(self.word)

    @property
    def is_root(self) -> bool:
        return not self.word

    def child(self, symbol: int) -> "Vertex":
        return Vertex(self.word + (symbol,))

    def ancestor_of(self, other: "Vertex") -> bool:
        """Prefix relation: True when ``self`` lies on the root path of ``other``."""
        return other.word[: len(self.word)] == self.word

    def to_text(self) -> str:
        """Dot-separated encoding used in files and CLI arguments; root is ''."""
        return ".".join(str(s) for s in self.word)

    @classmethod
    def from_text(cls, text: str) -> "Vertex":
        text = text.strip()
        if not text:
            return cls()
        try:
            return cls(tuple(int(part) for part in text.split(".")))
        except ValueError as exc:
            raise ConfigurationError(f"bad vertex encoding {text!r}") from exc

    @classmethod
    def from_symbols(cls, symbols: Sequence[int]) -> "Vertex":
        return cls(tuple(int(s) for s in symbols))

    def __repr__(self) -> str:  # compact in test output
        return f"Vertex({self.to_text()!r})"


ROOT = Vertex()


@dataclass(frozen=True)
class TreeParams:
    """Arity and depth of the regular rooted tree.

    ``arity >= 2`` children per internal vertex; leaves sit ``depth >= 1``
    levels below the root.
    """

    arity: int
    depth: int

    def __post_init__(self) -> None:
        if not (isinstance(self.arity, int) and self.arity >= 2):
            raise ConfigurationError(f"arity must be an integer >= 2, got {self.arity!r}")
        if not (isinstance(self.depth, int) and self.depth >= 1):
            raise ConfigurationError(f"depth must be an integer >= 1, got {self.depth!r}")

    @property
    def leaf_count(self) -> int:
        return self.arity**self.depth

    @property
    def vertex_count(self) -> int:
        return (self.arity ** (self.depth + 1) - 1) // (self.arity - 1)

    def symbols(self) -> range:
        return range(1, self.arity + 1)

    def validate_vertex(self, v: Vertex) -> Vertex:
        if v.level > self.depth:
            raise ConfigurationError(f"{v!r} lies below depth {self.depth}")
        if any(s < 1 or s > self.arity for s in v.word):
            raise ConfigurationError(f"{v!r} uses symbols outside 1..{self.arity}")
        return v

    def is_leaf(self, v: Vertex) -> bool:
        return v.level == self.depth

    def children(self, v: Vertex) -> list[Vertex]:
        if v.level >= self.depth:
            return []
        return [v.child(s) for s in self.symbols()]

    def vertices_at(self, level: int) -> Iterator[Vertex]:
        """All vertices at a given level, in lexicographic order."""
        if level < 0 or level > self.depth:
            raise ConfigurationError(f"level {level} outside 0..{self.depth}")
        for word in itertools.product(self.symbols(), repeat=level):
            yield Vertex(word)

    def vertices(self) -> Iterator[Vertex]:
        for level in range(self.depth + 1):
            yield from self.vertices_at(level)

    def leaves(self) -> Iterator[Vertex]:
        return self.vertices_at(self.depth)

    def descendants_at(self, v: Vertex, level: int) -> Iterator[Vertex]:
        """Vertices at absolute ``level`` lying below ``v`` (inclusive of ``v``)."""
        if level < v.level or level > self.depth:
            raise ConfigurationError(
                f"level {level} outside {v.level}..{self.depth} for {v!r}"
            )
        for suffix in itertools.product(self.symbols(), repeat=level - v.level):
            yield Vertex(v.word + suffix)

    def leaves_below(self, v: Vertex) -> Iterator[Vertex]:
        return self.descendants_at(v, self.depth)


def join(a: Vertex, b: Vertex) -> Vertex:
    """Longest common prefix of two vertices: their deepest common ancestor."""
    n = 0
    for x, y in zip(a.word, b.word):
        if x != y:
            break
        n += 1
    return Vertex(a.word[:n])


def common_join(vertices: Sequence[Vertex]) -> Vertex:
    """Deepest common ancestor of a nonempty collection of vertices."""
    if not vertices:
        raise ConfigurationError("common_join of an empty collection")
    return reduce(join, vertices)


def join_multiset(particles: Sequence[Vertex]) -> dict[Vertex, int]:
    """Join points of a tuple of distinct leaves, with multiplicities.

    A vertex has multiplicity ``r`` when ``r + 1`` of the particles pairwise
    join there, which equals the number of its occupied children minus one.
    The multiplicities always total ``n - 1`` for ``n`` particles.
    """
    ps = list(particles)
    if len(ps) < 2:
        raise ConfigurationError("join_multiset needs at least two particles")
    if len(set(ps)) != len(ps):
        raise ConfigurationError("particles must be pairwise distinct leaves")

    mult: dict[Vertex, int] = {}

    def split(group: list[Vertex]) -> None:
        if len(group) == 1:
            return
        w = common_join(group)
        parts: dict[int, list[Vertex]] = {}
        for v in group:
            parts.setdefault(v.word[w.level], []).append(v)
        mult[w] = len(parts) - 1
        for part in parts.values():
            split(part)

    split(ps)
    return mult


def _check_weight(v: Vertex, value: float) -> float:
    value = float(value)
    if not value >= 0.0:  # also rejects NaN
        raise ConfigurationError(f"weight at {v!r} must be >= 0, got {value!r}")
    return value


@dataclass(frozen=True)
class WeightAssignment:
    """Nonnegative weight for every leaf of the tree."""

    tree: TreeParams
    leaf_weights: Mapping[Vertex, float]

    def __post_init__(self) -> None:
        weights = {v: _check_weight(v, w) for v, w in self.leaf_weights.items()}
        expected = set(self.tree.leaves())
        if set(weights) != expected:
            missing = sorted(expected - set(weights))[:3]
            extra = sorted(set(weights) - expected)[:3]
            raise ConfigurationError(
                f"leaf weights must cover every leaf exactly once "
                f"(missing {missing}, unexpected {extra})"
            )
        object.__setattr__(self, "leaf_weights", weights)

    @classmethod
    def constant(cls, tree: TreeParams, value: float = 1.0) -> "WeightAssignment":
        return cls(tree, {leaf: value for leaf in tree.leaves()})

    @classmethod
    def from_mapping(
        cls,
        tree: TreeParams,
        mapping: Mapping[Vertex, float],
        default: float = 1.0,
    ) -> "WeightAssignment":
        """Fill unmentioned leaves with ``default``; other keys fail coverage."""
        return cls(tree, {**{leaf: default for leaf in tree.leaves()}, **mapping})

    def weight(self, leaf: Vertex) -> float:
        return self.leaf_weights[leaf]

    def total(self) -> float:
        return sum(self.leaf_weights.values())

    def scaled(self, factor: float) -> "WeightAssignment":
        return WeightAssignment(
            self.tree, {v: w * factor for v, w in self.leaf_weights.items()}
        )


@dataclass(frozen=True)
class CylinderMassTable:
    """Mass of the cylinder below every vertex: the sum of leaf weights under it."""

    tree: TreeParams
    mass_by_vertex: Mapping[Vertex, float]

    def mass(self, v: Vertex) -> float:
        try:
            return self.mass_by_vertex[v]
        except KeyError:
            raise ConfigurationError(f"{v!r} is not a vertex of this tree") from None


def cylinder_masses(tree: TreeParams, weights: WeightAssignment) -> CylinderMassTable:
    """Aggregate leaf weights bottom-up into per-vertex cylinder masses."""
    if weights.tree != tree:
        raise ConfigurationError("weight assignment belongs to a different tree")
    masses: dict[Vertex, float] = dict(weights.leaf_weights)
    for level in range(tree.depth - 1, -1, -1):
        for v in tree.vertices_at(level):
            masses[v] = sum(masses[c] for c in tree.children(v))
    return CylinderMassTable(tree, masses)


def _check_positive(v: Vertex, value: float) -> float:
    value = float(value)
    if not value > 0.0:
        raise ConfigurationError(f"vertex value at {v!r} must be > 0, got {value!r}")
    return value


@dataclass(frozen=True)
class LevelFunction:
    """A positive value attached to every vertex of the tree (all levels)."""

    tree: TreeParams
    values: Mapping[Vertex, float]

    def __post_init__(self) -> None:
        values = {v: _check_positive(v, x) for v, x in self.values.items()}
        expected = set(self.tree.vertices())
        if set(values) != expected:
            missing = sorted(expected - set(values))[:3]
            extra = sorted(set(values) - expected)[:3]
            raise ConfigurationError(
                f"vertex function must cover every vertex exactly once "
                f"(missing {missing}, unexpected {extra})"
            )
        object.__setattr__(self, "values", values)

    @classmethod
    def constant(cls, tree: TreeParams, value: float = 1.0) -> "LevelFunction":
        return cls(tree, {v: value for v in tree.vertices()})

    @classmethod
    def from_mapping(
        cls,
        tree: TreeParams,
        mapping: Mapping[Vertex, float],
        default: float = 1.0,
    ) -> "LevelFunction":
        """Fill unmentioned vertices with ``default``; other keys fail coverage."""
        return cls(tree, {**{v: default for v in tree.vertices()}, **mapping})

    @classmethod
    def by_level(cls, tree: TreeParams, level_values: Sequence[float]) -> "LevelFunction":
        """Constant on each level; ``level_values[l]`` is the value at level ``l``."""
        if len(level_values) != tree.depth + 1:
            raise ConfigurationError(
                f"need {tree.depth + 1} level values, got {len(level_values)}"
            )
        return cls(tree, {v: level_values[v.level] for v in tree.vertices()})

    def __call__(self, v: Vertex) -> float:
        return self.values[v]

    def scaled(self, factor: float) -> "LevelFunction":
        return LevelFunction(self.tree, {v: x * factor for v, x in self.values.items()})
