"""Interaction energies summed over orbits.

The interaction value of a configuration is the product of a positive
vertex function over its join points, one factor per unit of multiplicity;
a single particle interacts trivially (value 1).  The orbit energy is the
sum, over every ordered tuple in the orbit, of the product of the particle
weights times the interaction value.

Two evaluators are provided.  The brute-force one literally enumerates the
orbit and adds terms; it is the oracle.  The factorized one recurses over
the canonical join shape: a join node with ``d`` branches contributes the
vertex value to the power ``d - 1`` and a sum over injective assignments of
branches to children (``orbits.injective_sum``, once for all join vertices
at a level), a descent segment sums the branch value over all
same-level descendants, and a lone particle contributes the cylinder mass
below its anchor.  Both agree to floating-point reassociation.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .orbits import (
    Configuration,
    JoinShape,
    ShapeLeaf,
    ShapeNode,
    injective_sum,
    orbit_enumerate,
    shape_orbit_size,
)
from .tree import (
    ConfigurationError,
    LevelFunction,
    TreeParams,
    Vertex,
    WeightAssignment,
)


_OVERFLOW = "the orbit energy exceeds the float range"


@dataclass(frozen=True)
class EnergyResult:
    """Orbit energy value, the evaluator used, and the orbit cardinality."""

    value: float
    method: str  # "bruteforce" | "factorized"
    terms: int


def interaction_value(f: LevelFunction, config: Configuration) -> float:
    """Product of ``f`` over the join multiset; 1 for a single particle."""
    return math.prod((f(w) ** r for w, r in config.join_multiset().items()), start=1.0)


def orbit_energy_bruteforce(
    config: Configuration, weights: WeightAssignment, f: LevelFunction
) -> EnergyResult:
    """Sum weight products times interaction values over the enumerated orbit.

    Terms are added in enumeration order.  Propagates the enumeration guard
    refusal unchanged, and refuses an energy beyond the float range.
    """
    total = 0.0
    count = 0
    try:
        for member in orbit_enumerate(config):
            term = math.prod(weights.weight(p) for p in member.particles)
            total += term * interaction_value(f, member)
            count += 1
    except OverflowError:
        total = math.inf
    if not math.isfinite(total):
        raise ConfigurationError(_OVERFLOW)
    return EnergyResult(total, "bruteforce", count)


def orbit_energy_factorized(
    config: Configuration, weights: WeightAssignment, f: LevelFunction
) -> EnergyResult:
    """Evaluate the orbit energy by recursion over the cached join shape and masses."""
    tree, shape = config.tree, config.shape
    if weights.tree != tree or f.tree != tree:
        raise ConfigurationError("weights and vertex function must share the tree")
    value = factorized_from_shape(tree, config.base, shape, weights.masses, f)
    return EnergyResult(value, "factorized", shape_orbit_size(shape, tree.arity))


def factorized_from_shape(
    tree: TreeParams,
    base: Vertex,
    shape: JoinShape,
    masses: Sequence[np.ndarray],
    f: LevelFunction,
) -> float:
    """Shape-level evaluator behind :func:`orbit_energy_factorized`.

    Works one level at a time on contiguous rank ranges: each call returns
    one value per vertex of ranks ``lo..hi-1`` at its level, so a descent
    is a block sum over the level below and a leaf branch is a slice of the
    masses.  An energy beyond the float range is refused.
    """
    lo = tree.rank(base.word)
    try:
        with np.errstate(over="raise"):
            value = _over_descents(tree.arity, masses, f, shape, base.level, shape.gap, lo, lo + 1)
            return float(value[0])
    except (FloatingPointError, OverflowError):
        raise ConfigurationError(_OVERFLOW) from None


def _over_descents(
    m: int,
    masses: Sequence[np.ndarray],
    f: LevelFunction,
    node: JoinShape,
    level: int,
    free_levels: int,
    lo: int,
    hi: int,
) -> np.ndarray:
    """One value per vertex of ranks ``lo..hi-1`` at ``level``: ``node``
    hung ``free_levels`` free levels below it."""
    if isinstance(node, ShapeLeaf):
        # every leaf below a start vertex is a valid placement; their
        # weights sum to its cylinder mass regardless of the remaining gap
        return masses[level][lo:hi]
    width = m**free_levels
    joins = _at_join(m, masses, f, node, level + free_levels, lo * width, hi * width)
    if width == 1:  # no free level: each start vertex is its one join vertex
        return joins
    return joins.reshape(-1, width).sum(axis=1)


def _at_join(
    m: int,
    masses: Sequence[np.ndarray],
    f: LevelFunction,
    node: ShapeNode,
    level: int,
    lo: int,
    hi: int,
) -> np.ndarray:
    """One value per join vertex of ranks ``lo..hi-1`` at ``level``."""
    table = np.array(
        [
            _over_descents(m, masses, f, branch, level + 1, branch.gap - 1, lo * m, hi * m)
            .reshape(-1, m)
            .T
            for branch in node.branches
        ]
    )
    values = f.levels[level][lo:hi]
    if node.degree > 2:  # a binary node takes f itself, its power 1 being exact
        # Python's float power: numpy's differs in the last bit on some values
        values = np.array([fw ** (node.degree - 1) for fw in values.tolist()])
    return values * injective_sum(table)
