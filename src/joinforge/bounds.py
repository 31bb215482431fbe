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
* ``binary_optimal`` — the sharp ``2**-(n-1)`` for binary shapes whose
  branch reciprocal sums stay at or below one half at every join node (the
  "halves" condition); falls back to the general binary constant 1
  otherwise.
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
    shape_join_levels,
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
        paths = (record.path + (j,) for j in range(record.degree))
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
    """Sum of ``f(j)**p * mass(j)**(1+p)`` over vertices ``j`` at ``level`` below ``base``.

    A sum beyond the float range is refused.
    """
    (log_sum,) = _log_level_power_sums(tree, masses, f, base, level, [p])
    value = _exp_or_inf(log_sum)
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
    level: int,
    exponents: Sequence[float],
) -> list[float]:
    """log of level_power_sum for each exponent, -inf when the sum vanishes;
    safe for extreme exponents.

    The level is sliced and its logs are taken once, one row per exponent.
    Each row is reduced on its own (max, then exp, then sum), so every value
    is the float that one exponent's pass alone gives.
    """
    ranks = tree.ranks_below(base, level)
    mass = masses[level][ranks]
    values = f.levels[level][ranks]
    if not mass.all():
        nonzero = mass != 0.0
        if not nonzero.any():
            return [-math.inf] * len(exponents)
        mass, values = mass[nonzero], values[nonzero]
    p = np.array(exponents)[:, None]
    logs = p * np.log(values) + (1.0 + p) * np.log(mass)
    top = logs.max(axis=1)
    return (top + np.log(np.exp(logs - top[:, None]).sum(axis=1))).tolist()


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
    The slots that share a join level take one pass over that level; their
    factors still join the product in slot order.
    """
    _require_slot_count(shape, pa)
    slots_at: dict[int, list[int]] = {}
    for slot, level in enumerate(shape_join_levels(shape, base.level)):
        slots_at.setdefault(level, []).append(slot)
    log_sums = [0.0] * pa.n_slots
    for level, slots in slots_at.items():
        exponents = [pa.exponents[slot] for slot in slots]
        level_sums = _log_level_power_sums(tree, masses, f, base, level, exponents)
        if -math.inf in level_sums:
            return 0.0
        for slot, log_sum in zip(slots, level_sums):
            log_sums[slot] = log_sum
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
    * ``binary_optimal``: the sharp ``2**-(n-1)`` on a binary shape when every
      branch reciprocal sum is at most one half, checked at every join node
      (for positive exponents the deeper checks follow from the top one);
      otherwise 1, flagged ``halves-condition-failure``.
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
        if shape.walk.max_degree > 2:
            raise ConfigurationError("the sharp binary constant needs a binary shape")
        sums = (s for _, _, branch_sums in _reciprocal_sums(shape, pa) for s in branch_sums)
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
        if any(not x >= 0.0 for x in a):
            raise ConfigurationError(f"exponents must be >= 0, got {a}")
        s = sum(a)
        if not math.isfinite(s):
            raise ConfigurationError(f"exponents and their sum must be finite, got {a}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "s", s)

    @property
    def m(self) -> int:
        return len(self.a)


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
    case, m, s = _muirhead_case(spec), spec.m, spec.s
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


def _muirhead_case(spec: MuirheadSpec) -> str:
    """Which closed form applies, tested in this order, else "ii" (the bracket only).

    * "i": ``s <= 1``;
    * "iii": every ``a_i >= (s-1)/m``;
    * "iv": ``m = 2`` and ``(a_1-a_2)**2 <= s``;
    * "v": every nonzero ``a_i`` equals one ``c <= 1``.  With ``d`` of them
      the sum is ``d! (m-d)! e_d(x**c)``; Maclaurin's inequality bounds
      ``e_d(y)`` by ``C(m,d) (e_1(y)/m)**d``, and the power mean bounds
      ``sum x_j**c`` by ``m**(1-c)`` on the simplex, so ``K = m! m**-s``.
    """
    m, s, a = spec.m, spec.s, spec.a
    if not s > 0.0:
        raise ConfigurationError("the constant needs a positive exponent sum")
    if s <= 1.0:
        return "i"
    if all(ai >= (s - 1.0) / m for ai in a):
        return "iii"
    if m == 2 and (a[0] - a[1]) ** 2 <= s:
        return "iv"
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
    for record, own, branch_sums in _reciprocal_sums(shape, pa):
        alpha_inv = tuple(1.0 - s for s in branch_sums)
        subtree = own + sum(branch_sums)
        beta_inv = own + (1.0 - subtree)
        if not beta_inv > 0.0:
            raise ConfigurationError(
                f"nonpositive 1/beta at node {record.path}: exponents are not conjugate"
            )
        d = record.degree
        a_vec = tuple(ai / beta_inv for ai in alpha_inv) + (0.0,) * (m - d)
        mspec = MuirheadSpec(a_vec)
        case = _muirhead_case(mspec)
        estimated = case == "ii" and m in _RESOLUTION
        if case != "ii":
            log_k = _log_closed_form(case, m, mspec.s)
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
                muirhead_case=case,
                log_muirhead=log_k,
                estimated=estimated,
                log_factor=log_factor,
            )
        )
    entries.reverse()  # ledger reads top-down; join nodes come children first
    total_log = sum(e.log_factor for e in entries)
    return KInductiveResult(_exp_or_inf(total_log), tuple(entries))


def _log_uniform_constant(m: int, s: float) -> float:
    return math.lgamma(m + 1) - s * math.log(m)


def _log_closed_form(case: str, m: int, s: float) -> float:
    if case in ("i", "iii", "v"):
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
