"""The product bound and all of its constant regimes.

The orbit energy is bounded by a constant ``K`` times a product, over the
``n - 1`` exponent slots of the shape, of weighted power sums of the vertex
function across the slot's join level, each raised to the reciprocal of its
exponent.  The exponents are positive reals whose reciprocals sum to one
(or to ``1 - coexponent`` in the recursive form, where a coexponent of zero
encodes the plain statement).

Constant regimes, each read off the shape's join nodes by ``regime_constant``:

* ``general`` — a product of factorial ratios over the distinct join
  nodes; always valid, equal to 1 on binary shapes, never larger than
  ``(m - 1)**(n - 1)``.
* ``binary_optimal`` — the sharp ``2**-(n-1)`` on binary trees (``m = 2``)
  only, when the branch reciprocal sums stay at or below one half at every
  join node (the "halves" condition); falls back to the general binary
  constant 1 otherwise.  A binary shape on a wider tree is refused: the
  sharp constant is no bound there.
* ``inductive`` — the constant that ``k_inductive`` accumulates by the proof
  recursion: one factor per join node built from the symmetric-sum
  constants ``K(m; a)`` together with branch conjugacy bookkeeping.  Nodes
  whose symmetric-sum constant has no closed form take the numeric
  estimator's certified upper end, capped at the bracket's upper end
  ``(m-1)!``, and are flagged, since that end is certified but possibly
  loose; beyond the estimator's arities (``m > 5``) they take ``(m-1)!``
  itself.

The symmetric-sum constant ``K(m; a)`` is the least ``C`` with
``sum over permutations of x_sigma(1)**a_1 ... <= C * (sum x_i)**s`` for
all nonnegative ``x`` (``0**0 = 1``), where ``s = sum(a)``.  Closed forms
cover ``s <= 1``, the well-spread case ``a_i >= (s-1)/m``, the two-variable
case ``(a_1-a_2)**2 <= s``, and equal nonzero exponents of at most 1;
otherwise only the bracket ``[m! m**-s, (m-1)!]`` is known, and a simplex
grid narrows it to a certified interval.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .orbits import (
    JoinNode,
    JoinShape,
    checked_join_nodes,
    injective_sum,
)
from .tree import ConfigurationError, LevelFunction, TreeParams, Vertex, _float_value

CONJUGACY_RTOL = 1e-12
HALF_TOL = 1e-12


@dataclass(frozen=True)
class ExponentAssignment:
    """Exponents bound to slots in canonical order, plus the coexponent 1/alpha.

    A coexponent of 0 encodes alpha = infinity (the plain, non-recursive
    statement); no infinities ever enter the arithmetic.  Values are read by
    the rule of map values (``tree._is_number_type``) and held as floats.
    """

    exponents: tuple[float, ...]
    coexponent: float = 0.0

    def __post_init__(self) -> None:
        # a tuple of floats is kept: _float_value returns a float as it is
        if type(self.exponents) is not tuple or not set(map(type, self.exponents)) <= {float}:
            exponents = tuple(_float_value(p, "an exponent") for p in self.exponents)
            object.__setattr__(self, "exponents", exponents)
        co = _float_value(self.coexponent, "the coexponent")
        if not 0.0 <= co <= 1.0:
            raise ConfigurationError(f"coexponent must lie in [0, 1], got {co!r}")
        object.__setattr__(self, "coexponent", co)

    @property
    def n_slots(self) -> int:
        return len(self.exponents)

    def reciprocals(self) -> tuple[float, ...]:
        return tuple([1.0 / p for p in self.exponents])


@dataclass(frozen=True)
class ExponentViolation:
    """Which exponent constraint failed and by how much."""

    constraint: str  # "count" | "positivity" | "finiteness" | "conjugacy"
    message: str
    residual: float


def validate_exponents(
    shape: JoinShape, pa: ExponentAssignment
) -> ExponentViolation | None:
    """Check slot count, positivity, finiteness and the conjugacy sum; None
    when valid.  An infinite exponent is refused: its reciprocal, 0, would
    count toward conjugacy as if its slot were left out."""
    expected = shape.n_particles - 1
    if pa.n_slots != expected:
        return ExponentViolation(
            "count",
            f"expected {expected} exponents for {shape.n_particles} particles, "
            f"got {pa.n_slots}",
            abs(pa.n_slots - expected),
        )
    bad = [p for p in pa.exponents if not p > 0.0]
    if bad:
        return ExponentViolation(
            "positivity", f"exponents must be positive, found {bad}", float(len(bad))
        )
    if math.inf in pa.exponents:
        infinite = [p for p in pa.exponents if p == math.inf]
        return ExponentViolation(
            "finiteness", f"exponents must be finite, found {infinite}", float(len(infinite))
        )
    residual = abs(sum(1.0 / p for p in pa.exponents) + pa.coexponent - 1.0)
    if residual > CONJUGACY_RTOL:
        return ExponentViolation(
            "conjugacy",
            f"reciprocals plus coexponent must sum to 1, residual {residual:.3e}",
            residual,
        )
    return None


def _require_slot_count(shape: JoinShape, pa: ExponentAssignment) -> None:
    n_slots = shape.n_particles - 1
    if pa.n_slots != n_slots:
        raise ConfigurationError(
            f"exponent assignment has {pa.n_slots} slots, shape needs {n_slots}"
        )


def _reciprocal_sums(
    shape: JoinShape, pa: ExponentAssignment
) -> list[tuple[JoinNode, float, list[float], float]]:
    """Per join node, children first: its own reciprocal sum, each branch's,
    and its subtree's, the own sum plus the branches'.

    A node's own sum adds its slot reciprocals in slot order; a branch's sum
    covers every slot in the branch's subtree, and is 0.0 for a leaf.
    """
    _require_slot_count(shape, pa)
    q = pa.reciprocals()
    totals: list[float] = []  # each node's subtree sum, by record index
    sums = []
    for record in shape.join_nodes:
        own = sum(q[record.slots.start : record.slots.stop])
        branch_sums = [0.0 if c is None else totals[c] for c in record.children]
        totals.append(own + sum(branch_sums))
        sums.append((record, own, branch_sums, totals[-1]))
    return sums


# ---------------------------------------------------------------------------
# Level power sums and the product bound
# ---------------------------------------------------------------------------


def level_power_sum(
    tree: TreeParams,
    masses: Sequence[np.ndarray],
    f: LevelFunction,
    base: Vertex,
    level: int,
    p: float,
) -> float:
    """Sum of ``f(j)**p * mass(j)**(1+p)`` over vertices ``j`` at ``level`` below ``base``.

    A sum beyond the float range is refused.
    """
    log_sums = _log_level_power_sums(tree, masses, f, base, [level - base.level], [p])
    if log_sums is None:
        return 0.0
    value = _exp_or_inf(log_sums[0])
    if value == math.inf:
        raise ConfigurationError("the level power sum exceeds the float range")
    return value


def _exp_or_inf(x: float) -> float:
    """``math.exp``, but ``inf`` where the result lies beyond the float range."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _log_level_power_sums(
    tree: TreeParams,
    masses: Sequence[np.ndarray],
    f: LevelFunction,
    base: Vertex,
    offsets: Sequence[int],
    exponents: Sequence[float],
) -> list[float] | None:
    """log of level_power_sum for each level, ``offsets`` below ``base``, and
    its exponent, or None when one of the levels holds no mass (its sum
    vanishes); safe for extreme exponents.

    Each level and its exponent make a row of the level's vertices below
    ``base``.  The rows are laid end to end, so that each step is one numpy
    call over all of them, except that a row of more than two terms is
    summed by a call of its own.  Each row is reduced on its own (max, then
    exp, then sum), so every value is the float that the row's pass alone
    gives.  A vertex of zero mass adds nothing and is left out of its row.
    """
    if not offsets:  # a shape of one particle has no slot
        return []
    values, weights, sliced = [], [], {}
    for offset in offsets:  # the rows of one level share its slices
        if offset not in sliced:
            level = base.level + offset
            ranks = tree.ranks_below(base, level)
            sliced[offset] = f.levels[level][ranks], masses[level][ranks]
        value, weight = sliced[offset]
        values.append(value)
        weights.append(weight)
    data = np.concatenate(values + weights)
    if np.count_nonzero(data) < data.size:  # f is positive, so some mass is zero
        nonzero = [w != 0.0 for w in weights]
        if not all(keep.any() for keep in nonzero):
            return None
        values = [v[keep] for v, keep in zip(values, nonzero)]
        weights = [w[keep] for w, keep in zip(weights, nonzero)]
        data = np.concatenate(values + weights)
    sizes = [v.size for v in values]
    lengths, bounds = np.array(sizes), [0, *itertools.accumulate(sizes)]
    starts = bounds[:-1]
    # a row of p * log f over a row of (1 + p) * log mass, each exponent repeated
    # over its row's vertices, then the two added
    logs = np.log(data).reshape(2, -1)
    logs *= np.array([exponents, [1.0 + p for p in exponents]]).repeat(lengths, axis=1)
    logs = logs[0] + logs[1]
    top = np.maximum.reduceat(logs, starts)
    terms = np.exp(logs - top.repeat(lengths))
    # reduceat adds left to right, which sums a row of one or two terms as the
    # row alone does; a longer row is summed alone, pairwise as numpy sums an array
    sums = np.add.reduceat(terms, starts)
    for row, (start, stop) in enumerate(itertools.pairwise(bounds)):
        if stop - start > 2:
            sums[row] = np.add.reduce(terms[start:stop])
    return (top + np.log(sums)).tolist()


def rhs_product(
    tree: TreeParams,
    masses: Sequence[np.ndarray],
    f: LevelFunction,
    base: Vertex,
    shape: JoinShape,
    pa: ExponentAssignment,
    k_constant: float,
) -> float:
    """``K`` times the product over slots of the level power sums to ``1/p``.

    A positive coexponent contributes the base cylinder mass to that power.
    Factors are combined in the log domain so large sampled exponents cannot
    overflow intermediate sums.  Where the product alone overflows, ``K``
    joins it in the log domain; a right side beyond the float range is refused.
    Every slot's level power sum comes from one pass over all the slots.
    """
    _require_slot_count(shape, pa)
    offsets = shape.walk.slot_offsets
    log_sums = _log_level_power_sums(tree, masses, f, base, offsets, pa.exponents)
    if log_sums is None:
        return 0.0
    log_total = 0.0
    for log_sum, p in zip(log_sums, pa.exponents):
        log_total += log_sum / p
    if pa.coexponent > 0.0:
        base_mass = float(masses[base.level][tree.rank(base.word)])
        if base_mass == 0.0:
            return 0.0
        log_total += pa.coexponent * math.log(base_mass)
    rhs = k_constant * _exp_or_inf(log_total)
    if rhs == math.inf and 0.0 < k_constant < 1.0:
        # the product alone lies beyond the float range, and K may bring it back
        rhs = _exp_or_inf(math.log(k_constant) + log_total)
    if not math.isfinite(rhs):
        raise ConfigurationError("the right side exceeds the float range")
    return rhs


# ---------------------------------------------------------------------------
# Constant regimes
# ---------------------------------------------------------------------------


FLAG_ESTIMATED_K = "estimated-K"
FLAG_BRACKET_K = "bracket-upper-K"
FLAG_CONDITION_RECURSIVE = "halves-condition-failure"


def regime_constant(
    shape: JoinShape, pa: ExponentAssignment, arity: int, regime: str
) -> tuple[float, tuple[str, ...]]:
    """The constant of a computed regime and its advisory flags.

    * ``general``: the product over distinct join nodes of ``(m-1)!/(m-d)!``,
      exact in integers; 1 on binary shapes.
    * ``binary_optimal``: the sharp ``2**-(n-1)`` on a binary tree (arity 2;
      any other arity is refused) when every branch reciprocal sum is at
      most one half, checked at every join node (for positive exponents the
      deeper checks follow from the top one); otherwise 1, flagged
      ``halves-condition-failure``.
    * ``inductive``: the proof-recursion constant of :func:`k_inductive`,
      flagged ``estimated-K`` and ``bracket-upper-K`` by its ledger.

    Every constant must be finite and > 0; one that overflows or underflows
    the float range is refused.
    """
    flags: list[str] = []
    if regime == "general":
        exact = math.prod(
            math.factorial(arity - 1) // math.factorial(arity - record.degree)
            for record in checked_join_nodes(shape, arity)
        )
        try:
            k = float(exact)
        except OverflowError:
            k = math.inf
    elif regime == "binary_optimal":
        if arity != 2:
            raise ConfigurationError(
                f"the sharp binary constant holds on binary trees only, not arity {arity}"
            )
        checked_join_nodes(shape, arity)
        sums = (s for _, _, branch_sums, _ in _reciprocal_sums(shape, pa) for s in branch_sums)
        if all(s <= 0.5 + HALF_TOL for s in sums):
            k = 2.0 ** -(shape.n_particles - 1)
        else:
            k = 1.0
            flags.append(FLAG_CONDITION_RECURSIVE)
    elif regime == "inductive":
        result = k_inductive(shape, pa, arity)
        k = result.value
        if result.estimated:
            flags.append(FLAG_ESTIMATED_K)
        if any(e.bracket_upper for e in result.ledger):
            flags.append(FLAG_BRACKET_K)
    else:
        raise ConfigurationError(f"regime {regime!r} has no computed constant")
    return _checked_constant(k, regime), tuple(flags)


def _checked_constant(value: float, regime: str) -> float:
    if not (math.isfinite(value) and value > 0):
        raise ConfigurationError(f"{regime} constant must be finite and > 0, got {value!r}")
    return value


# ---------------------------------------------------------------------------
# Symmetric-sum constants K(m; a)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MuirheadSpec:
    """Nonnegative exponent vector of a symmetric sum, with a finite sum.

    The constant machinery needs ``s = sum(a) > 0`` (checked there); the
    symmetric sum itself is total, with the all-zero vector giving ``m!``.
    """

    a: tuple[float, ...]
    # the sum of a, set by __post_init__; not part of equality, hash or repr
    s: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        a = tuple(_float_value(x, "an exponent") for x in self.a)
        if not a:
            raise ConfigurationError("exponent vector must be nonempty")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "s", _exponent_sum(a))

    @property
    def m(self) -> int:
        return len(self.a)


def _exponent_sum(a: tuple[float, ...]) -> float:
    """The sum of a vector of float exponents, refusing a negative or NaN
    entry, then an infinite sum, as :class:`MuirheadSpec` does."""
    s = sum(a)
    if not (math.isfinite(s) and min(a) >= 0.0):  # a finite sum has no NaN entry
        if any(not x >= 0.0 for x in a):
            raise ConfigurationError(f"exponents must be >= 0, got {a}")
        raise ConfigurationError(f"exponents and their sum must be finite, got {a}")
    return s


def symmetric_sum(x: Sequence[float], spec: MuirheadSpec) -> float:
    """Exact sum over all ``m!`` permutations, with the ``0**0 = 1`` convention.

    Each power ``x_j**a_i`` is taken once, as a Python float, and
    :func:`injective_sum` adds the ``m``-row table's terms in
    ``itertools.permutations`` order, so the result rounds as a loop over the
    permutations would.  An overflowing product gives ``inf`` and an infinite
    variable times zero ``nan``, without a warning.  Sums of over
    ``MAX_INJECTIVE_TERMS`` terms (m >= 12) are refused.
    """
    a = spec.a
    if len(x) != len(a):
        raise ConfigurationError(f"need {len(a)} variables, got {len(x)}")
    xs = [float(v) for v in x]
    if any(not v >= 0.0 for v in xs):
        raise ConfigurationError(f"variables must be >= 0, got {xs}")
    table = np.array([[v**ai for v in xs] for ai in a])[:, :, None]
    with np.errstate(over="ignore", invalid="ignore"):
        return float(injective_sum(table)[0])


@dataclass(frozen=True)
class MuirheadValue:
    """Closed-form constant when a case applies, otherwise the known bracket."""

    case: str  # "i" | "iii" | "iv" | "v" exact; "ii" the bracket
    exact: bool
    lower: float
    upper: float

    @property
    def value(self) -> float | None:
        return self.lower if self.exact else None


def muirhead_closed_form(spec: MuirheadSpec) -> MuirheadValue:
    """The closed-form constant of the spec's case, or the bracket in case ii.

    Cases i, iii and v share the uniform value ``m! m**-s``, attained at the
    barycentre; case iv is ``2**(1-s)``.  Outside case iv (m = 2) the values
    need ``m!`` as a float, so an arity whose ``m!`` lies beyond the float
    range (m >= 171) is refused.
    """
    case, m, s = _muirhead_case(spec.a, spec.s), spec.m, spec.s
    if case == "iv":
        v = 2.0 ** (1.0 - s)
        return MuirheadValue("iv", True, v, v)
    try:
        uniform = math.factorial(m) * m ** (-s)
    except OverflowError:
        raise ConfigurationError(f"{m}! lies beyond the float range") from None
    if case == "ii":
        return MuirheadValue("ii", False, uniform, float(math.factorial(m - 1)))
    return MuirheadValue(case, True, uniform, uniform)


def _muirhead_case(a: tuple[float, ...], s: float) -> str:
    """Which closed form applies to a spec's ``a`` and ``s``, tested in this
    order, else "ii" (the bracket only).

    * "i": ``s <= 1``;
    * "iii": every ``a_i >= (s-1)/m``;
    * "iv": ``m = 2`` and ``(a_1-a_2)**2 <= s``;
    * "v": every nonzero ``a_i`` equals one ``c <= 1``.  With ``d`` of them
      the sum is ``d! (m-d)! e_d(x**c)``; Maclaurin's inequality bounds
      ``e_d(y)`` by ``C(m,d) (e_1(y)/m)**d``, and the power mean bounds
      ``sum x_j**c`` by ``m**(1-c)`` on the simplex, so ``K = m! m**-s``.
    """
    m = len(a)
    if not s > 0.0:
        raise ConfigurationError("the constant needs a positive exponent sum")
    if s <= 1.0:
        return "i"
    if min(a) >= (s - 1.0) / m:  # the entries are checked numbers, never NaN
        return "iii"
    if m == 2:
        try:
            if (a[0] - a[1]) ** 2 <= s:
                return "iv"
        except OverflowError:  # a square beyond the float range exceeds every s
            pass
    if max(a) <= 1.0 and len(set(a) - {0.0}) == 1:
        return "v"
    return "ii"


_RESOLUTION = {1: 1, 2: 512, 3: 96, 4: 40, 5: 24}  # the grid's n for each arity
ROUNDING_ALLOWANCE = 1e-12  # relative widening of the certified upper end


@dataclass(frozen=True)
class MuirheadEstimate:
    """Numeric interval for the symmetric-sum constant.

    ``value`` is the maximum of the symmetric sum over the estimator's grid,
    attained at ``maximizer``, so it is a lower bound for the true constant.
    ``uncertainty`` is the radius ``m! * sum_i w(1/n, a_i)`` from the modulus
    of continuity ``w`` of ``x**a`` on [0, 1]: every simplex point lies within
    ``1/n`` per coordinate of a composition, whose sum the grid holds.
    ``upper`` is the certified upper end, ``value + uncertainty`` widened by
    the relative ``ROUNDING_ALLOWANCE``, since computed grid sums can sit a
    few ulps below the true ones.  ``resolution`` is the grid's ``n``, fixed
    by the arity.
    """

    value: float
    maximizer: tuple[float, ...]
    uncertainty: float
    resolution: int

    @property
    def upper(self) -> float:
        return (self.value + self.uncertainty) * (1.0 + ROUNDING_ALLOWANCE)


def muirhead_numeric(spec: MuirheadSpec) -> MuirheadEstimate:
    """Bound the symmetric-sum constant by one pass over its arity's simplex grid.

    Normalizing to the simplex is justified by degree-``s`` homogeneity:
    both sides of the defining inequality scale identically.
    """
    m = spec.m
    if m not in _RESOLUTION:
        raise ConfigurationError(f"numeric estimation is limited to m <= {max(_RESOLUTION)}")
    if not spec.s > 0.0:
        raise ConfigurationError("the constant needs a positive exponent sum")
    n_grid = _RESOLUTION[m]
    if m == 1:
        return MuirheadEstimate(1.0, (1.0,), 0.0, n_grid)

    # each coordinate's power taken once, and laid out by one take as the
    # kernel's table, a row per exponent and a column per point (numpy's 0**0
    # is 1, the sum's convention).  A last row of x**0 = 1 is left out: the
    # (m-1)-prefixes of the permutations are the permutations, in their order,
    # so every term and sum is the same float.  A zero elsewhere stays, since
    # leaving it out would reorder the terms.
    coordinates, index = _grid_coordinates(m)
    a = spec.a[:-1] if spec.a[-1] == 0.0 else spec.a
    values = injective_sum((coordinates ** np.array(a)[:, None]).take(index, axis=1))
    best = int(values.argmax())
    uncertainty = math.factorial(m) * sum(
        _continuity_step(1.0 / n_grid, ai) for ai in spec.a
    )
    return MuirheadEstimate(
        float(values[best]), tuple(coordinates[index[:, best]].tolist()), uncertainty, n_grid
    )


@cache
def _grid_coordinates(m: int) -> tuple[np.ndarray, np.ndarray]:
    """The estimator's simplex grid on ``m`` variables: its distinct
    coordinates, ascending, and the ``(m, P)`` index of each point's
    coordinates into them, both read-only.

    The symmetric sum is invariant under permuting ``x``, so the grid is its
    sorted chamber: the compositions of ``n = _RESOLUTION[m]`` into ``m``
    parts over ``n`` with ``x_1 >= x_2 >= ... >= x_m``, in lexicographic
    order, then the barycentre, ``e_1`` and ``(1/2, 1/2, 0, ...)``.  Every
    composition sorts into the chamber, so its maximum is that of all
    compositions.  At most 820 points are kept (m = 3).  Each coordinate is
    a ``c/n`` or ``1/m`` (``n`` is even): 513, 97, 41 and 26 at m = 2..5.
    """
    n_grid = _RESOLUTION[m]
    count = math.comb(n_grid + m - 1, m - 1)
    flat = itertools.chain.from_iterable(
        itertools.combinations(range(n_grid + m - 1), m - 1)
    )
    bars = np.fromiter(flat, dtype=np.intp, count=count * (m - 1)).reshape(count, m - 1)
    parts = np.diff(bars, axis=1, prepend=-1, append=n_grid + m - 1) - 1
    chamber = parts[(np.diff(parts, axis=1) <= 0).all(axis=1)]
    extras = np.zeros((3, m), dtype=np.intp)  # numerators c of c/n, the barycentre's set below
    extras[1, 0], extras[2, :2] = n_grid, n_grid // 2
    index = np.vstack([chamber, extras]).T.copy()
    coordinates = np.arange(n_grid + 1) / n_grid
    centre = n_grid // m  # where 1/m goes among the c/n: at c = n/m, else after floor(n/m)
    if n_grid % m:
        centre += 1
        coordinates = np.insert(coordinates, centre, 1.0 / m)
        index += index >= centre
    index[:, -3] = centre
    coordinates.setflags(write=False)
    index.setflags(write=False)
    return coordinates, index


def _continuity_step(delta: float, a: float) -> float:
    # one-coordinate variation bound for x**a on [0, 1]
    if a == 0.0:
        return 0.0
    if a >= 1.0:
        return a * delta
    return delta**a


# ---------------------------------------------------------------------------
# The proof-recursion constant
# ---------------------------------------------------------------------------


@dataclass(frozen=True, init=False)
class NodeAccount:
    """Per-node conjugacy bookkeeping and the factor it contributes."""

    node_path: tuple[int, ...]
    level_offset: int  # levels below the base at which the node sits
    degree: int
    alpha_inv: tuple[float, ...]  # one per branch, canonical order
    beta_inv: float
    muirhead_case: str
    log_muirhead: float
    estimated: bool
    log_factor: float

    def __init__(self, node_path, level_offset, degree, alpha_inv, beta_inv,
                 muirhead_case, log_muirhead, estimated, log_factor):
        # one update of the instance dict, at half the cost of a frozen
        # dataclass's __init__, which sets each field by object.__setattr__
        vars(self).update(
            node_path=node_path, level_offset=level_offset, degree=degree,
            alpha_inv=alpha_inv, beta_inv=beta_inv, muirhead_case=muirhead_case,
            log_muirhead=log_muirhead, estimated=estimated, log_factor=log_factor,
        )

    @property
    def factor(self) -> float:
        return math.exp(self.log_factor)

    @property
    def bracket_upper(self) -> bool:
        """The symmetric-sum constant is the bracket's upper end, unestimated."""
        return self.muirhead_case == "ii" and not self.estimated


@dataclass(frozen=True)
class KInductiveResult:
    value: float  # inf beyond the float range
    ledger: tuple[NodeAccount, ...]  # one account per join node, top-down

    @property
    def estimated(self) -> bool:
        """Some node factor rests on the numeric estimator."""
        return any(e.estimated for e in self.ledger)


def k_inductive(shape: JoinShape, pa: ExponentAssignment, arity: int) -> KInductiveResult:
    """Accumulate the recursion constant bottom-up over the shape.

    Each branch carries ``1/alpha = 1 - (reciprocal sum over its subtree
    slots)``, which is 1 for a single-particle branch.  A node with degree
    ``d`` has ``1/beta`` equal to its own slot reciprocals plus the
    inherited ``1/alpha`` and contributes::

        K(m; beta/alpha_1, ..., beta/alpha_d, 0, ..., 0)**(1/beta)
            * (m-1)!**(1 - 1/beta) / (m-d)!

    computed in the log domain.  Nodes falling in the bracket-only case take
    the numeric estimator's certified upper end ``MuirheadEstimate.upper``,
    capped at the bracket's upper end ``(m-1)!``, and mark the result as
    estimated: certified, but possibly loose.  Beyond the estimator's range
    of arities they take ``(m-1)!`` itself and are not estimated (see
    ``NodeAccount.bracket_upper``).
    """
    m = arity
    checked_join_nodes(shape, m)
    log_upper = math.lgamma(m)  # log (m-1)!
    entries: list[NodeAccount] = []
    for record, own, branch_sums, subtree in _reciprocal_sums(shape, pa):
        beta_inv = own + (1.0 - subtree)
        if not beta_inv > 0.0:
            raise ConfigurationError(
                f"nonpositive 1/beta at node {record.path}: exponents are not conjugate"
            )
        d = record.degree
        alpha_inv = tuple([1.0 - s for s in branch_sums])
        a_vec = tuple([ai / beta_inv for ai in alpha_inv]) + (0.0,) * (m - d)
        s = _exponent_sum(a_vec)  # a MuirheadSpec's sum, built only for the estimator
        case = _muirhead_case(a_vec, s)
        estimated = case == "ii" and m in _RESOLUTION
        if case != "ii":
            log_k = _log_closed_form(case, m, s)
        elif not estimated:
            log_k = log_upper
        else:
            log_k = min(math.log(muirhead_numeric(MuirheadSpec(a_vec)).upper), log_upper)
        log_factor = beta_inv * log_k + (1.0 - beta_inv) * log_upper - math.lgamma(m - d + 1)
        entries.append(NodeAccount(
            record.path, record.offset, d, alpha_inv, beta_inv, case, log_k, estimated, log_factor
        ))
    entries.reverse()  # ledger reads top-down; join nodes come children first
    total_log = sum(e.log_factor for e in entries)
    return KInductiveResult(_exp_or_inf(total_log), tuple(entries))


def _log_closed_form(case: str, m: int, s: float) -> float:
    if case in ("i", "iii", "v"):
        return math.lgamma(m + 1) - s * math.log(m)
    if case == "iv":
        return (1.0 - s) * math.log(2.0)
    raise ConfigurationError(f"case {case!r} has no closed form")


# ---------------------------------------------------------------------------
# The hyperbolic-cosine ratio
# ---------------------------------------------------------------------------


def cosh_ratio(r: float, q: float, theta: float) -> float:
    """``cosh((r-q) theta) / cosh(theta)**(r+q)``, evaluated in the log domain.

    At most 1 whenever ``(r-q)**2 <= r+q``, strictly below 1 for nonzero
    ``theta`` except on the degenerate family where the ratio is
    identically 1 (``q = 0`` with ``r in {0, 1}`` and symmetrically).
    """
    if r < 0.0 or q < 0.0:
        raise ConfigurationError(f"r and q must be >= 0, got {(r, q)}")
    log_ratio = _log_cosh((r - q) * theta) - (r + q) * _log_cosh(theta)
    if log_ratio > 700.0:
        return math.inf
    return math.exp(log_ratio)


def _log_cosh(x: float) -> float:
    ax = abs(x)
    return ax + math.log1p(math.exp(-2.0 * ax)) - math.log(2.0)
