"""Interaction energies summed over orbits.

The interaction value of a configuration is the product of a positive
vertex function over its join points, one factor per unit of multiplicity;
a single particle interacts trivially (value 1).  The orbit energy is the
sum, over every ordered tuple in the orbit, of the product of the particle
weights times the interaction value.

Two evaluators are provided.  The brute-force one literally enumerates the
orbit and adds terms; it is the oracle.  The factorized one loops over the
shape's join nodes, children first: a join node with ``d`` branches
contributes the vertex value to the power ``d - 1`` and a sum over
injective assignments of branches to children (``orbits.injective_sum``,
once for all join vertices at a level), a descent segment sums the branch
value over all same-level descendants, and a lone particle contributes the
cylinder mass below its anchor.  Both agree to floating-point reassociation.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from typing import NamedTuple

import numpy as np

from .orbits import (
    Configuration,
    JoinShape,
    ShapeLeaf,
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


class EnergyResult(NamedTuple):
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
    """Evaluate the orbit energy over the cached join shape's walk and masses."""
    tree, shape = config.tree, config.shape  # a tuple compares its items by identity first
    if (weights.tree, f.tree) != (tree, tree):
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

    One pass over the shape's join nodes, children first, gives each node
    one value per vertex of its level below the base: a lone-particle branch
    is a slice of the masses (every leaf below a child is a valid placement,
    whatever the branch's gap), a node branch its child's values block-summed
    over the child's free levels.  An energy beyond the float range is refused.
    """
    m, lo = tree.arity, tree.rank(base.word)
    if isinstance(shape, ShapeLeaf):
        return float(masses[base.level][lo])
    records = shape.join_nodes
    values: list[np.ndarray] = []
    try:
        with np.errstate(over="raise"):
            for record in records:
                level, width = base.level + record.offset, m**record.offset
                start, stop = lo * width, (lo + 1) * width
                below = record.offset + 1  # the children's depth below the base
                # every lone-particle branch reads the same row of masses
                if None in record.children:
                    lone = masses[level + 1][start * m : stop * m].reshape(-1, m).T
                # row b: branch b's value on each child of every join vertex
                table = np.array(
                    [
                        lone
                        if c is None
                        else _block_sums(values[c], m ** (records[c].offset - below))
                        .reshape(-1, m)
                        .T
                        for c in record.children
                    ]
                )
                joins = f.levels[level][start:stop]
                if record.degree > 2:  # a binary node takes f itself, its power 1 being exact
                    # Python's float power: numpy's differs in the last bit on some values
                    joins = np.array([fw ** (record.degree - 1) for fw in joins.tolist()])
                values.append(joins * injective_sum(table))
            return float(_block_sums(values[-1], m ** records[-1].offset)[0])
    except (FloatingPointError, OverflowError):
        raise ConfigurationError(_OVERFLOW) from None


def _block_sums(values: np.ndarray, width: int) -> np.ndarray:
    """Sums of consecutive blocks of ``width`` values; the values themselves at width 1."""
    return values if width == 1 else values.reshape(-1, width).sum(axis=1)
