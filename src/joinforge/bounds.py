"""The product bound and all of its constant regimes.

The orbit energy is bounded by a constant ``K`` times a product, over the
``n - 1`` exponent slots of the shape, of weighted power sums of the vertex
function across the slot's join level, each raised to the reciprocal of its
exponent.  The exponents are positive reals whose reciprocals sum to one
(or to ``1 - coexponent`` in the recursive form, where a coexponent of zero
encodes the plain statement).

Constant regimes:

* ``k_general`` — a product of factorial ratios over the distinct join
  nodes; always valid, equal to 1 on binary shapes, never larger than
  ``(m - 1)**(n - 1)``.
* ``k_binary`` — the sharp ``2**-(n-1)`` for binary shapes whose branch
  reciprocal sums stay at or below one half at every join node (the
  "halves" condition); falls back to the general constant otherwise.
* ``k_inductive`` — the constant accumulated by the proof recursion: one
  factor per join node built from the symmetric-sum constants ``K(m; a)``
  together with branch conjugacy bookkeeping.  Nodes whose symmetric-sum
  constant has no closed form take the numeric estimator's certified upper
  end, capped at the bracket's upper end ``(m-1)!``, and are flagged, since
  that end is certified but possibly loose; beyond the estimator's arities
  (``m > 5``) they take ``(m-1)!`` itself.

The symmetric-sum constant ``K(m; a)`` is the least ``C`` with
``sum over permutations of x_sigma(1)**a_1 ... <= C * (sum x_i)**s`` for
all nonnegative ``x`` (``0**0 = 1``), where ``s = sum(a)``.  Closed forms
cover ``s <= 1``, the well-spread case ``a_i >= (s-1)/m``, and the two-
variable case ``(a_1-a_2)**2 <= s``; otherwise only the bracket
``[m! m**-s, (m-1)!]`` is known, and a simplex grid narrows it to a certified
interval.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cache
from typing import NamedTuple

import numpy as np

from .orbits import (
    JoinNode,
    JoinShape,
    checked_join_nodes,
    injective_sum,
    shape_join_levels,
)
from .tree import ConfigurationError, LevelFunction, TreeParams, Vertex

CONJUGACY_RTOL = 1e-12
HALF_TOL = 1e-12


@dataclass(frozen=True)
class ExponentAssignment:
    """Exponents bound to slots in canonical order, plus the coexponent 1/alpha.

    A coexponent of 0 encodes alpha = infinity (the plain, non-recursive
    statement); no infinities ever enter the arithmetic.
    """

    exponents: tuple[float, ...]
    coexponent: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "exponents", tuple(float(p) for p in self.exponents))
        co = float(self.coexponent)
        if not 0.0 <= co <= 1.0:
            raise ConfigurationError(f"coexponent must lie in [0, 1], got {co!r}")
        object.__setattr__(self, "coexponent", co)

    @property
    def n_slots(self) -> int:
        return len(self.exponents)

    def reciprocals(self) -> tuple[float, ...]:
        return tuple(1.0 / p for p in self.exponents)


@dataclass(frozen=True)
class ExponentViolation:
    """Which exponent constraint failed and by how much."""

    constraint: str  # "count" | "positivity" | "conjugacy"
    message: str
    residual: float


def validate_exponents(
    shape: JoinShape, pa: ExponentAssignment
) -> ExponentViolation | None:
    """Check slot count, positivity, and the conjugacy sum; None when valid."""
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
) -> list[tuple[JoinNode, float, list[float]]]:
    """Per join node, children first: its own reciprocal sum and each branch's.

    A node's own sum adds its slot reciprocals in slot order; a branch's sum
    covers every slot in the branch's subtree, and is 0.0 for a leaf.
    """
    _require_slot_count(shape, pa)
    q = pa.reciprocals()
    subtree: dict[tuple[int, ...], float] = {}
    sums = []
    for record in shape.join_nodes:
        own = sum(q[slot] for slot in record.slots)
        paths = (record.path + (j,) for j in range(record.node.degree))
        branch_sums = [subtree.get(path, 0.0) for path in paths]
        subtree[record.path] = own + sum(branch_sums)
        sums.append((record, own, branch_sums))
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
    """Sum of ``f(j)**p * mass(j)**(1+p)`` over vertices ``j`` at ``level`` below ``base``."""
    return math.exp(_log_level_power_sum(tree, masses, f, base, level, p))


def _log_level_power_sum(
    tree: TreeParams,
    masses: Sequence[np.ndarray],
    f: LevelFunction,
    base: Vertex,
    level: int,
    p: float,
) -> float:
    """log of level_power_sum, -inf when it vanishes; safe for extreme exponents."""
    ranks = tree.ranks_below(base, level)
    mass = masses[level][ranks]
    nonzero = mass != 0.0
    if not nonzero.any():
        return -math.inf
    logs = p * np.log(f.levels[level][ranks][nonzero]) + (1.0 + p) * np.log(mass[nonzero])
    top = logs.max()
    return float(top + np.log(np.exp(logs - top).sum()))


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
    overflow intermediate sums.
    """
    _require_slot_count(shape, pa)
    log_total = 0.0
    for level, p in zip(shape_join_levels(shape, base.level), pa.exponents):
        log_sum = _log_level_power_sum(tree, masses, f, base, level, p)
        if log_sum == -math.inf:
            return 0.0
        log_total += log_sum / p
    if pa.coexponent > 0.0:
        base_mass = float(masses[base.level][tree.rank(base.word)])
        if base_mass == 0.0:
            return 0.0
        log_total += pa.coexponent * math.log(base_mass)
    return k_constant * math.exp(log_total)


# ---------------------------------------------------------------------------
# Constant regimes
# ---------------------------------------------------------------------------


class KGeneralResult(NamedTuple):
    value: int
    crude_bound: int


def k_general(shape: JoinShape, arity: int) -> KGeneralResult:
    """Product over distinct join nodes of ``(m-1)!/(m-d)!``; exact integers.

    Also returns the cruder bound ``(m-1)**(n-1)``.  Binary shapes give 1.
    """
    value = math.prod(
        math.factorial(arity - 1) // math.factorial(arity - record.node.degree)
        for record in checked_join_nodes(shape, arity)
    )
    return KGeneralResult(value, (arity - 1) ** (shape.n_particles - 1))


@dataclass(frozen=True)
class KBinaryResult:
    """Sharp binary constant and the halves condition at every join node."""

    value: float
    condition_met: bool
    failing_nodes: tuple[tuple[int, ...], ...]


def k_binary(shape: JoinShape, pa: ExponentAssignment) -> KBinaryResult:
    """``2**-(n-1)`` when every branch reciprocal sum is at most one half.

    The condition is checked at every join node; for positive exponents the
    deeper checks follow from the top one.  When the condition fails the
    value falls back to the general binary constant 1.
    """
    if any(record.node.degree != 2 for record in shape.join_nodes):
        raise ConfigurationError("the sharp binary constant needs a binary shape")
    failing = tuple(
        record.path
        for record, _, branch_sums in _reciprocal_sums(shape, pa)
        if any(s > 0.5 + HALF_TOL for s in branch_sums)
    )
    condition_met = not failing
    n_slots = shape.n_particles - 1
    value = 2.0 ** (-n_slots) if condition_met else 1.0
    return KBinaryResult(value, condition_met, failing)


# ---------------------------------------------------------------------------
# Symmetric-sum constants K(m; a)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MuirheadSpec:
    """Nonnegative exponent vector of a symmetric sum.

    The constant machinery needs ``s = sum(a) > 0`` (checked there); the
    symmetric sum itself is total, with the all-zero vector giving ``m!``.
    """

    a: tuple[float, ...]

    def __post_init__(self) -> None:
        a = tuple(float(x) for x in self.a)
        if not a:
            raise ConfigurationError("exponent vector must be nonempty")
        if any(not x >= 0.0 for x in a):
            raise ConfigurationError(f"exponents must be >= 0, got {a}")
        object.__setattr__(self, "a", a)

    @property
    def m(self) -> int:
        return len(self.a)

    @property
    def s(self) -> float:
        return sum(self.a)


def symmetric_sum(x: Sequence[float], spec: MuirheadSpec) -> float:
    """Exact sum over all ``m!`` permutations, with the ``0**0 = 1`` convention.

    Each power ``x_j**a_i`` is taken once.  A zero exponent's factor is
    exactly 1.0, so it is left out; the other factors multiply in row order
    and the terms add in ``itertools.permutations`` order.
    """
    a = spec.a
    if len(x) != len(a):
        raise ConfigurationError(f"need {len(a)} variables, got {len(x)}")
    xs = [float(v) for v in x]
    if any(not v >= 0.0 for v in xs):
        raise ConfigurationError(f"variables must be >= 0, got {xs}")
    rows = [(i, [v**ai for v in xs]) for i, ai in enumerate(a) if ai != 0.0]
    total = 0.0
    for sigma in itertools.permutations(range(len(a))):
        term = 1.0
        for i, powers in rows:
            term *= powers[sigma[i]]
        total += term
    return total


@dataclass(frozen=True)
class MuirheadValue:
    """Closed-form constant when a case applies, otherwise the known bracket."""

    case: str  # "i" | "ii" | "iii" | "iv"
    exact: bool
    lower: float
    upper: float

    @property
    def value(self) -> float | None:
        return self.lower if self.exact else None


def muirhead_closed_form(spec: MuirheadSpec) -> MuirheadValue:
    m, s, a = spec.m, spec.s, spec.a
    if not s > 0.0:
        raise ConfigurationError("the constant needs a positive exponent sum")
    uniform = math.factorial(m) * m ** (-s)
    if s <= 1.0:
        return MuirheadValue("i", True, uniform, uniform)
    if all(ai >= (s - 1.0) / m for ai in a):
        return MuirheadValue("iii", True, uniform, uniform)
    if m == 2 and (a[0] - a[1]) ** 2 <= s:
        v = 2.0 ** (1.0 - s)
        return MuirheadValue("iv", True, v, v)
    return MuirheadValue("ii", False, uniform, float(math.factorial(m - 1)))


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
    if m > 5:
        raise ConfigurationError("numeric estimation is limited to m <= 5")
    if not spec.s > 0.0:
        raise ConfigurationError("the constant needs a positive exponent sum")
    n_grid = _RESOLUTION[m]
    if m == 1:
        return MuirheadEstimate(1.0, (1.0,), 0.0, n_grid)

    points = _simplex_grid(m)
    values = _symmetric_sum_grid(points, spec.a)
    best = int(np.argmax(values))
    uncertainty = math.factorial(m) * sum(
        _continuity_step(1.0 / n_grid, ai) for ai in spec.a
    )
    return MuirheadEstimate(
        float(values[best]), tuple(float(v) for v in points[best]), uncertainty, n_grid
    )


@cache
def _simplex_grid(m: int) -> np.ndarray:
    """The estimator's simplex points on ``m`` variables, a read-only array.

    The symmetric sum is invariant under permuting ``x``, so the grid is its
    sorted chamber: the compositions of ``n = _RESOLUTION[m]`` into ``m``
    parts over ``n`` with ``x_1 >= x_2 >= ... >= x_m``, in lexicographic
    order, then the barycentre, ``e_1`` and ``(1/2, 1/2, 0, ...)``.  Every
    composition sorts into the chamber, so its maximum is that of all
    compositions.  At most 820 points are kept (m = 3).
    """
    n_grid = _RESOLUTION[m]
    count = math.comb(n_grid + m - 1, m - 1)
    flat = itertools.chain.from_iterable(
        itertools.combinations(range(n_grid + m - 1), m - 1)
    )
    bars = np.fromiter(flat, dtype=np.intp, count=count * (m - 1)).reshape(count, m - 1)
    parts = np.diff(bars, axis=1, prepend=-1, append=n_grid + m - 1) - 1
    chamber = parts[(np.diff(parts, axis=1) <= 0).all(axis=1)] / n_grid
    extras = np.zeros((3, m))
    extras[0] = 1.0 / m
    extras[1, 0] = 1.0
    extras[2, :2] = 0.5
    points = np.vstack([chamber, extras])
    points.setflags(write=False)
    return points


def _symmetric_sum_grid(points: np.ndarray, a: tuple[float, ...]) -> np.ndarray:
    # one injective-sum column per point; numpy's 0**0 is 1, the sum's convention
    return injective_sum(points.T[None] ** np.array(a)[:, None, None])


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


@dataclass(frozen=True)
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

    @property
    def factor(self) -> float:
        return math.exp(self.log_factor)

    @property
    def bracket_upper(self) -> bool:
        """The symmetric-sum constant is the bracket's upper end, unestimated."""
        return self.muirhead_case == "ii" and not self.estimated


@dataclass(frozen=True)
class AlphaBetaLedger:
    entries: tuple[NodeAccount, ...]


@dataclass(frozen=True)
class KInductiveResult:
    value: float
    ledger: AlphaBetaLedger
    estimated: bool  # some node factor rests on the numeric estimator


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
    entries: list[NodeAccount] = []
    for record, own, branch_sums in _reciprocal_sums(shape, pa):
        alpha_inv = tuple(1.0 - s for s in branch_sums)
        subtree = own + sum(branch_sums)
        beta_inv = own + (1.0 - subtree)
        if not beta_inv > 0.0:
            raise ConfigurationError(
                f"nonpositive 1/beta at node {record.path}: exponents are not conjugate"
            )
        d = record.node.degree
        a_vec = tuple(ai / beta_inv for ai in alpha_inv) + (0.0,) * (m - d)
        mspec = MuirheadSpec(a_vec)
        closed = muirhead_closed_form(mspec)
        estimated = not closed.exact and m in _RESOLUTION
        log_upper = math.lgamma(m)  # log (m-1)!
        if closed.exact:
            log_k = _log_closed_form(closed.case, m, mspec.s)
        elif not estimated:
            log_k = log_upper
        else:
            log_k = min(math.log(muirhead_numeric(mspec).upper), log_upper)
        log_factor = (
            beta_inv * log_k
            + (1.0 - beta_inv) * log_upper
            - math.lgamma(m - d + 1)
        )
        entries.append(
            NodeAccount(
                node_path=record.path,
                level_offset=record.offset,
                degree=d,
                alpha_inv=alpha_inv,
                beta_inv=beta_inv,
                muirhead_case=closed.case,
                log_muirhead=log_k,
                estimated=estimated,
                log_factor=log_factor,
            )
        )
    entries.reverse()  # ledger reads top-down; join nodes come children first
    total_log = sum(e.log_factor for e in entries)
    return KInductiveResult(
        math.exp(total_log),
        AlphaBetaLedger(tuple(entries)),
        any(e.estimated for e in entries),
    )


def _log_uniform_constant(m: int, s: float) -> float:
    return math.lgamma(m + 1) - s * math.log(m)


def _log_closed_form(case: str, m: int, s: float) -> float:
    if case in ("i", "iii"):
        return _log_uniform_constant(m, s)
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
