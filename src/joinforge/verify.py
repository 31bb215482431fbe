"""Instances, inequality reports, equality checks, and fuzz campaigns.

An instance bundles everything the bound needs: a configuration on a tree,
leaf weights, a positive vertex function, exponents bound to the shape's
slots, and a constant regime.  Checking an instance produces a report with
the left side (orbit energy), the right side (constant times the slot
product), their ratio, and a pass flag at a relative tolerance.

The module also reproduces the worked four-particle example on the binary
depth-3 tree, including the two competing constants (the displayed product
``8 * 8**(1/p1) * 4**(1/p2) * 2**(1/p3)`` and the sharp ``1/8``), builds
deterministic random instances from seeds, and runs seeded campaigns that
must never find a violation.
"""

from __future__ import annotations

import json
import math
import os
from collections import Counter
from dataclasses import dataclass
from typing import Any, NamedTuple, TextIO

import numpy as np

from .bounds import (
    FLAG_CONDITION_RECURSIVE,
    ExponentAssignment,
    _checked_constant,
    regime_constant,
    rhs_product,
    validate_exponents,
)
from .energy import EnergyResult, orbit_energy_bruteforce, orbit_energy_factorized
from .orbits import (
    Configuration,
    EnumerationGuardError,
    JoinShape,
    shape_join_levels,
    shape_orbit_size,
)
from .tree import (
    ROOT,
    ConfigurationError,
    LevelFunction,
    TreeParams,
    Vertex,
    WeightAssignment,
    _float_value,
    _is_int,
    check_tree_size,
    keyed_levels,
    keyed_map,
)

REGIMES = ("general", "binary_optimal", "inductive", "explicit")
DEFAULT_REL_TOL = 1e-9

FLAG_ENUMERATION_GUARD = "enumeration-guard"
FLAG_INVALID_EXPONENTS = "invalid-exponents"
FLAG_SKIPPED = "skipped-condition-not-met"


@dataclass(frozen=True)
class Instance:
    """A full bound-checking problem: configuration, data, exponents, regime.

    A given ``explicit_k`` is read by the rule of map values
    (``tree._float_value``: a string or a boolean is refused) and must be
    finite and > 0 under every regime.
    """

    config: Configuration
    weights: WeightAssignment
    f: LevelFunction
    exponents: ExponentAssignment
    regime: str = "general"
    explicit_k: float | None = None
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.regime not in REGIMES:
            raise ConfigurationError(
                f"regime must be one of {REGIMES}, got {self.regime!r}"
            )
        if self.explicit_k is not None:
            k = _float_value(self.explicit_k, "the explicit constant")
            object.__setattr__(self, "explicit_k", _checked_constant(k, "explicit"))
        elif self.regime == "explicit":
            raise ConfigurationError("explicit regime needs 'K' or 'explicit=VALUE'")
        tree = self.config.tree  # a tuple compares its items by identity before ==
        if (self.weights.tree, self.f.tree) != (tree, tree):
            raise ConfigurationError("weights and vertex function must share the tree")

    @property
    def tree(self) -> TreeParams:
        return self.config.tree

    @property
    def base(self) -> Vertex:
        return self.config.base

    @property
    def shape(self) -> JoinShape:
        return self.config.shape

    def to_json_dict(self) -> dict[str, Any]:
        data: dict[str, Any] = {
            "m": self.tree.arity,
            "k": self.tree.depth,
            "base": self.base.to_text(),
            "config": [list(p.word) for p in self.config.particles],
            "mu": keyed_map(self.tree, (self.weights.leaf_array,)),
            "f": keyed_map(self.tree, self.f.levels),
            "p": list(self.exponents.exponents),
            "regime": self.regime,
        }
        if self.exponents.coexponent:
            data["coexponent"] = self.exponents.coexponent
        if self.explicit_k is not None:
            data["K"] = self.explicit_k
        if self.seed is not None:
            data["seed"] = self.seed
        return data

    @classmethod
    def from_json_dict(cls, data: dict[str, Any]) -> "Instance":
        if not isinstance(data, dict):
            raise ConfigurationError("instance document must be a JSON object")
        tree = TreeParams(_field(data, "m", _integer), _field(data, "k", _integer))
        base = _vertex_field(data.get("base", ""), "base")
        particles = []
        for i, entry in enumerate(_array_field(data, "config")):
            particles.append(_vertex_field(entry, f"config[{i}]"))
        config = Configuration(tree, base, tuple(particles))
        mu = _vertex_values(data.get("mu", {}), "mu", tree, tree.depth)
        weights = WeightAssignment(tree, mu)
        f = LevelFunction(tree, _vertex_values(data.get("f", {}), "f", tree, 0))
        p_list = _array_field(data, "p", lambda x: _float_value(x, "an exponent"))
        slot_map = data.get("slot_assignment")
        exponents = _apply_slot_assignment(p_list, slot_map)
        coexponent = _optional_field(
            data, "coexponent", lambda raw: _float_value(raw, "the coexponent"), 0.0
        )
        k_field = _optional_field(data, "K", lambda raw: _float_value(raw, "the constant"))
        regime, explicit_k = parse_regime(data.get("regime", "general"), k_field)
        inst = cls(
            config=config,
            weights=weights,
            f=f,
            exponents=ExponentAssignment(tuple(exponents), coexponent),
            regime=regime,
            explicit_k=explicit_k,
            seed=_optional_field(data, "seed", _integer),
        )
        if k_field is not None and k_field != explicit_k:
            # a 'K' that 'explicit=V' overrides is checked too
            _checked_constant(k_field, "explicit")
        return inst


def _field(data: dict, name: str, caster) -> Any:
    if name not in data:
        raise ConfigurationError(f"instance field {name!r} is missing")
    try:
        return caster(data[name])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigurationError(f"instance field {name!r}: {exc}") from exc


def _optional_field(data: dict, name: str, caster, default: Any = None) -> Any:
    """Like ``_field``, but an absent or null field gives ``default``."""
    return default if data.get(name) is None else _field(data, name, caster)


def _array_field(data: dict, name: str, item=lambda x: x) -> list:
    """A field that must be a JSON array, each item read by ``item``: a
    string or an object is refused, never read as its characters or keys."""
    if not isinstance(data.get(name, []), list):
        raise ConfigurationError(f"instance field {name!r} must be a list")
    return _field(data, name, lambda raw: [item(x) for x in raw])


def _vertex_field(raw: Any, where: str) -> Vertex:
    try:
        if isinstance(raw, str):
            return Vertex.from_text(raw)
        return Vertex(tuple(_integer(s) for s in raw))
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"instance field {where!r}: {exc}") from exc


def _integer(value: Any) -> int:
    """A JSON integer; a fraction or a boolean is refused, never truncated."""
    if not _is_int(value):
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def _vertex_values(raw: Any, where: str, tree: TreeParams, first_level: int) -> np.ndarray:
    """The buffer of levels ``first_level..k`` from an object keyed by words.

    Unmentioned vertices hold 1.0.  Values are checked where the buffer is
    held.
    """
    if not isinstance(raw, dict):
        raise ConfigurationError(f"instance field {where!r} must be an object")
    try:
        return keyed_levels(tree, first_level, raw, 1.0)
    except ConfigurationError as exc:
        raise ConfigurationError(f"instance field {where!r}: {exc}") from exc


def _apply_slot_assignment(p_list: list[float], slot_map: Any) -> list[float]:
    if slot_map is None:
        return p_list
    if not isinstance(slot_map, dict):
        raise ConfigurationError("instance field 'slot_assignment' must be an object")
    out = list(p_list)
    for slot_key, p_index in slot_map.items():
        try:
            slot = int(slot_key)
            if str(slot) != slot_key:
                raise ValueError(f"a slot key is its decimal spelling, {str(slot)!r}")
            idx = _integer(p_index)
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(
                f"instance field 'slot_assignment'[{slot_key!r}]: {exc}"
            ) from exc
        if not (0 <= slot < len(out) and 0 <= idx < len(p_list)):
            raise ConfigurationError(
                f"instance field 'slot_assignment'[{slot_key!r}]: slot and p index "
                f"must lie in 0..{len(p_list) - 1}, got {slot} -> {idx}"
            )
        out[slot] = p_list[idx]
    return out


def parse_regime(raw: Any, explicit_value: Any = None) -> tuple[str, float | None]:
    """Normalize a regime spelling and read its explicit constant.

    The constant is V of 'explicit=V', else ``explicit_value`` (an
    instance's 'K' field), else None.  ``Instance`` checks it.
    """
    if not isinstance(raw, str):
        raise ConfigurationError(f"regime must be a string, got {raw!r}")
    name, sep, tail = raw.strip().partition("=")
    name = name.replace("-", "_")
    if sep and name != "explicit" or name not in REGIMES:
        raise ConfigurationError(f"unknown regime {raw!r}")
    if not sep:
        return name, explicit_value
    try:
        return name, float(tail)
    except ValueError as exc:
        raise ConfigurationError(f"bad explicit constant {tail!r}") from exc


def load_instance(path: str) -> Instance:
    try:
        data = json.loads(_file_text(path))
    except OSError as exc:
        raise ConfigurationError(f"cannot read instance file {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigurationError(
            f"malformed JSON in {path!r} at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}"
        ) from exc
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"instance file {path!r} is not UTF-8: {exc}") from exc
    except RecursionError:
        raise ConfigurationError(f"instance file {path!r} nests too deeply to read") from None
    return Instance.from_json_dict(data)


def _file_text(path: str) -> str:
    """The file's bytes decoded as UTF-8, each CR LF pair and lone CR read
    as one LF, as a file opened in text mode reads them, so a refusal names
    the same line and column.  The bytes are freed once decoded, so they
    are not held while the text is parsed."""
    with open(path, "rb") as handle:
        text = handle.read().decode("utf-8")
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


class Report(NamedTuple):
    """Outcome of one inequality check."""

    lhs: float
    rhs: float
    k_constant: float
    ratio: float
    passed: bool
    flags: tuple[str, ...]
    metadata: dict[str, Any]

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "lhs": _num_out(self.lhs),
            "rhs": _num_out(self.rhs),
            "K": _num_out(self.k_constant),
            "ratio": _num_out(self.ratio),
            "pass": self.passed,
            "flags": list(self.flags),
            "metadata": dict(self.metadata),
        }


def _num_out(x: float) -> float | None:
    return x if math.isfinite(x) else None  # JSON has no NaN or infinity


def _ratio(lhs: float, rhs: float) -> float:
    if rhs > 0.0:
        return lhs / rhs
    return 1.0 if lhs == 0.0 else math.inf


def resolve_constant(inst: Instance) -> tuple[float, tuple[str, ...]]:
    """Constant for the instance's regime plus any advisory flags.

    Every constant is finite and > 0: an explicit one is checked by
    ``Instance``, a computed one by ``regime_constant``.
    """
    if inst.regime == "explicit":
        return inst.explicit_k, ()  # type: ignore[return-value]
    return regime_constant(inst.shape, inst.exponents, inst.tree.arity, inst.regime)


def bound_sides(
    inst: Instance, method: str | None
) -> tuple[float, tuple[str, ...], EnergyResult | None, float]:
    """The constant and its flags, the orbit energy by ``method`` (none
    when None), and the right side, of an instance whose exponents are
    valid (see ``validate_exponents``).

    They are computed in that order: a constant that is refused is refused
    before any energy is evaluated, and an energy beyond the float range is
    named as such, not by the right side it would also overflow.  A
    brute-force enumeration that ``DEFAULT_ENUMERATION_GUARD`` refuses is
    flagged and falls back to the factorized evaluator.
    """
    k_constant, flags = resolve_constant(inst)
    energy = None
    if method == "brute":
        try:
            energy = orbit_energy_bruteforce(inst.config, inst.weights, inst.f)
        except EnumerationGuardError:
            flags += (FLAG_ENUMERATION_GUARD,)
            energy = orbit_energy_factorized(inst.config, inst.weights, inst.f)
    elif method == "factorized":
        energy = orbit_energy_factorized(inst.config, inst.weights, inst.f)
    elif method is not None:
        raise ConfigurationError(f"unknown energy method {method!r}")
    rhs = rhs_product(
        inst.tree, inst.weights.masses, inst.f, inst.base, inst.shape, inst.exponents, k_constant
    )
    return k_constant, flags, energy, rhs


def check_inequality(inst: Instance, method: str = "factorized") -> Report:
    """Evaluate both sides of the bound and report the outcome.

    The report passes when the left side is at most the right side times
    ``1 + DEFAULT_REL_TOL``.  The sides are those of :func:`bound_sides`,
    the left one by the factorized evaluator unless brute force is
    requested.  Invalid exponents produce a failing report carrying the
    violation instead of raising.
    """
    metadata = _report_metadata(inst.config, inst.regime, inst.seed)
    refusal = _exponent_refusal(inst.shape, inst.exponents, metadata)
    if refusal is not None:
        return refusal
    k_constant, flags, energy, rhs = bound_sides(inst, method)
    lhs = energy.value
    metadata.update(method=energy.method, orbit_terms=energy.terms)
    return Report(
        lhs=lhs,
        rhs=rhs,
        k_constant=k_constant,
        ratio=_ratio(lhs, rhs),
        passed=lhs <= rhs * (1.0 + DEFAULT_REL_TOL),
        flags=flags,
        metadata=metadata,
    )


def _report_metadata(config: Configuration, regime: str, seed: int | None) -> dict[str, Any]:
    return {
        "seed": seed,
        "shape": config.shape.serialized,
        "join_levels": shape_join_levels(config.shape, config.base.level),
        "regime": regime,
    }


def _exponent_refusal(
    shape: JoinShape, exponents: ExponentAssignment, metadata: dict[str, Any]
) -> Report | None:
    """The failing report of exponents that break a constraint, or None when valid."""
    violation = validate_exponents(shape, exponents)
    if violation is None:
        return None
    flag = f"{FLAG_INVALID_EXPONENTS}:{violation.constraint}"
    return _sideless_report(False, flag, {**metadata, "violation": violation.message})


def _sideless_report(passed: bool, flag: str, metadata: dict[str, Any]) -> Report:
    """A report whose sides were never evaluated: sides, constant and ratio NaN."""
    return Report(math.nan, math.nan, math.nan, math.nan, passed, (flag,), metadata)


def check_equality_case(
    config: Configuration,
    exponents: ExponentAssignment,
    seed: int = 0,
) -> Report:
    """Verify the equality case of the sharp binary constant.

    Builds the instance on ``config`` with constant leaf weights, a
    level-constant vertex function (random positive level values from
    ``seed``, a non-negative ``int``) and the given exponents, coexponent included, then
    requires the two sides to agree to ``DEFAULT_REL_TOL``; ``passed`` means
    the ratio equals 1 within tolerance.  Any base works, not only the root.  When the halves
    condition fails the check is skipped with a reason rather than reported
    as a failure.  Invalid exponents give the failing report of
    :func:`check_inequality`.
    """
    tree = config.tree
    if tree.arity != 2:
        raise ConfigurationError("the equality case is specific to binary trees")
    rng = np.random.default_rng(_seed_number(seed, "seed"))
    level_values = [float(10.0 ** rng.uniform(-1.0, 1.0)) for _ in range(tree.depth + 1)]
    inst = Instance(
        config=config,
        weights=WeightAssignment.constant(tree, 1.0),
        f=LevelFunction.by_level(tree, level_values),
        exponents=exponents,
        regime="binary_optimal",
        seed=seed,
    )
    report = check_inequality(inst)
    if FLAG_CONDITION_RECURSIVE in report.flags:
        kept = {key: report.metadata[key] for key in ("seed", "shape", "join_levels")}
        kept["reason"] = "halves condition not satisfied"
        return _sideless_report(True, FLAG_SKIPPED, kept)
    equal = abs(report.ratio - 1.0) <= DEFAULT_REL_TOL
    return report._replace(passed=equal, metadata={**report.metadata, "f_levels": level_values})


# ---------------------------------------------------------------------------
# The worked four-particle example
# ---------------------------------------------------------------------------

FLAG_DISPLAYED_NOT_TIGHT = "displayed-constant-not-tight"
FLAG_BINARY_OPTIMAL_TIGHT = "binary-optimal-tight"


class ExampleReport(NamedTuple):
    """Reproduction of the four-particle example on the binary depth-3 tree."""

    orbit_count: int
    join_points: dict[str, int]
    displayed_constant: float | None  # None when the exponents are invalid
    report_displayed: Report
    report_binary_optimal: Report
    tight_regime: str
    flags: tuple[str, ...]

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "orbit_count": self.orbit_count,
            "join_points": dict(self.join_points),
            "displayed_constant": self.displayed_constant,
            "report_displayed": self.report_displayed.to_json_dict(),
            "report_binary_optimal": self.report_binary_optimal.to_json_dict(),
            "tight_regime": self.tight_regime,
            "flags": list(self.flags),
        }


def worked_example_configuration() -> Configuration:
    tree = TreeParams(2, 3)
    particles = tuple(Vertex(w) for w in ((1, 1, 1), (1, 2, 1), (2, 1, 1), (2, 1, 2)))
    return Configuration(tree, ROOT, particles)


def reproduce_example(p: tuple[float, float, float] = (3.0, 3.0, 3.0)) -> ExampleReport:
    """Check the four-particle example under both published constants.

    With unit weights and a unit vertex function the sharp constant 1/8
    attains equality, while the displayed product constant
    ``8 * 8**(1/p1) * 4**(1/p2) * 2**(1/p3)`` holds with room to spare; the
    report records which one is tight at this symmetric point.  Invalid
    exponents are checked first: both reports are the failing reports of
    :func:`check_inequality`, and the displayed constant is not formed.
    """
    config = worked_example_configuration()
    tree = config.tree
    shape = config.shape
    joins = {v.to_text(): r for v, r in sorted(config.join_multiset().items())}
    pa = ExponentAssignment(tuple(float(x) for x in p))
    weights = WeightAssignment.constant(tree, 1.0)
    f = LevelFunction.constant(tree, 1.0)
    refusal = _exponent_refusal(shape, pa, _report_metadata(config, "explicit", None))
    if refusal is None:
        displayed: float | None = 8.0 * math.prod(
            (2.0 ** (tree.depth - level)) ** (1.0 / pe)
            for level, pe in zip(shape_join_levels(shape, 0), pa.exponents)
        )
        report_displayed = check_inequality(
            Instance(config, weights, f, pa, regime="explicit", explicit_k=displayed)
        )
    else:
        displayed, report_displayed = None, refusal
    report_binary = check_inequality(Instance(config, weights, f, pa, regime="binary_optimal"))
    flags: list[str] = []
    if report_displayed.ratio < 1.0 - DEFAULT_REL_TOL:
        flags.append(FLAG_DISPLAYED_NOT_TIGHT)
    binary_tight = abs(report_binary.ratio - 1.0) <= DEFAULT_REL_TOL
    if binary_tight:
        flags.append(FLAG_BINARY_OPTIMAL_TIGHT)
    return ExampleReport(
        orbit_count=shape_orbit_size(shape, tree.arity),
        join_points=joins,
        displayed_constant=displayed,
        report_displayed=report_displayed,
        report_binary_optimal=report_binary,
        tight_regime="binary_optimal" if binary_tight else "displayed",
        flags=tuple(flags),
    )


# ---------------------------------------------------------------------------
# Random instances and campaigns
# ---------------------------------------------------------------------------


def _seed_number(value: Any, name: str, what: str | None = None) -> int:
    """``value`` where it is a seed or a seed count: an ``int``, never a
    ``bool`` or a numpy integer, and non-negative; ``name`` and ``what``
    name it in the two refusals."""
    if not _is_int(value):
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    if value < 0:
        raise ConfigurationError(f"{what or name} must be non-negative, got {value}")
    return value


# random instances: log-uniform weight and f ranges, and the share of zero weights
WEIGHT_LOW, WEIGHT_HIGH = 1e-3, 1e3
ZERO_WEIGHT_PROB = 0.05
F_LOW, F_HIGH = 1e-3, 1e3


@dataclass(frozen=True)
class InstanceRanges:
    """Sampling ranges for seeded random instances.

    Ranges whose largest tree (the largest arity at ``max_depth``) could not
    be held are refused here, before any seed draws one.
    """

    arities: tuple[int, ...] = (2, 3)
    max_depth: int = 4
    max_particles: int = 6
    regime: str = "general"

    def __post_init__(self) -> None:
        if not self.arities or not all(_is_int(m) and m >= 2 for m in self.arities):
            raise ConfigurationError("arities must be integers >= 2")
        if not (_is_int(self.max_depth) and self.max_depth >= 1):
            raise ConfigurationError("max_depth must be an integer >= 1")
        if not (_is_int(self.max_particles) and self.max_particles >= 2):
            raise ConfigurationError("max_particles must be an integer >= 2")
        if self.regime not in ("general", "binary_optimal", "inductive"):
            raise ConfigurationError(
                f"campaigns sample general, binary_optimal or inductive instances, "
                f"not {self.regime!r}"
            )
        if self.regime == "binary_optimal" and set(self.arities) != {2}:
            raise ConfigurationError("the binary-optimal regime samples binary trees only")
        check_tree_size(TreeParams(max(self.arities), self.max_depth))


def random_instance(seed: int, ranges: InstanceRanges = InstanceRanges()) -> Instance:
    """Deterministic instance from a seed, a non-negative ``int``: same
    seed, same instance.

    Particles are rejection-sampled distinct leaves; weights are log-uniform
    with occasional exact zeros; the vertex function is log-uniform; the
    exponent reciprocals are sampled on the simplex and inverted (or split
    by branch budgets when the binary-optimal regime is requested, so the
    halves condition holds by construction).
    """
    rng = np.random.default_rng(_seed_number(seed, "seed"))
    m = int(ranges.arities[int(rng.integers(0, len(ranges.arities)))])
    k = int(rng.integers(1, ranges.max_depth + 1))
    n = int(rng.integers(2, min(ranges.max_particles, m**k) + 1))
    tree = TreeParams(m, k)

    # The stream is read in the order of one draw after another (particle
    # words, then a zero test and maybe a weight per leaf in rank order,
    # then f level by level), but in whole arrays.  Integer draws under
    # 2**32 continue one 32-bit stream across calls, so n words at once are
    # the first n words drawn one at a time.
    words = dict.fromkeys(map(tuple, rng.integers(1, m + 1, size=(n, k)).tolist()))
    while len(words) < n:
        words.setdefault(tuple(rng.integers(1, m + 1, size=k).tolist()))
    config = Configuration(tree, ROOT, tuple(map(Vertex, words)))

    # A leaf's zero test takes one double and its weight, if any, the next.
    # Read the tests from a saved copy of the stream, then draw the doubles
    # they used through `uniform` itself (lo + (hi-lo)*u recomputed from raw
    # doubles may round differently) and keep those after a nonzero test.
    # Powers are Python's: numpy's differ in the last bit on some values.
    # Each value goes straight into the array the instance holds.
    w_lo, w_hi = math.log10(WEIGHT_LOW), math.log10(WEIGHT_HIGH)
    mu = np.zeros(m**k)
    state = rng.bit_generator.state
    tests = rng.random(2 * mu.size).tolist()
    rng.bit_generator.state = state
    weighted: list[int] = []  # leaves with a nonzero weight
    draws: list[int] = []  # the double that holds each one's weight
    used = 0  # doubles the tests and weights take
    for leaf in range(mu.size):
        if tests[used] >= ZERO_WEIGHT_PROB:
            weighted.append(leaf)
            draws.append(used + 1)
            used += 1
        used += 1
    logs = rng.uniform(w_lo, w_hi, size=used)[draws]
    mu[weighted] = [10.0**x for x in logs.tolist()]
    weights = WeightAssignment(tree, mu)

    f_lo, f_hi = math.log10(F_LOW), math.log10(F_HIGH)
    f_values = [10.0**x for x in rng.uniform(f_lo, f_hi, size=tree.vertex_count).tolist()]
    f = LevelFunction(tree, np.array(f_values))

    return Instance(
        config=config,
        weights=weights,
        f=f,
        exponents=_random_exponents(config, ranges.regime, rng),
        regime=ranges.regime,
        seed=seed,
    )


def _random_exponents(
    config: Configuration, regime: str, rng: np.random.Generator
) -> ExponentAssignment:
    """Slot reciprocals on the simplex, floored at 1e-12 and renormalized; in
    the binary-optimal regime, both top branch budgets capped below one half."""
    if regime != "binary_optimal":
        reciprocals = np.maximum(_flat_dirichlet(rng, len(config.particles) - 1), 1e-12)
        reciprocals = reciprocals / reciprocals.sum()
        return ExponentAssignment(tuple([1.0 / q for q in reciprocals.tolist()]))
    counts = [t for t in (b.n_particles - 1 for b in config.shape.branches) if t > 0]
    budgets = rng.uniform(0.05, 0.495, size=len(counts)).tolist()
    reciprocals: list[float] = [1.0 - sum(budgets)]  # the top node's single slot
    for t, budget in zip(counts, budgets):
        parts = np.maximum(_flat_dirichlet(rng, t), 1e-12)
        reciprocals.extend((parts * (budget / parts.sum())).tolist())
    return ExponentAssignment(tuple([1.0 / q for q in reciprocals]))


def _flat_dirichlet(rng: np.random.Generator, t: int) -> np.ndarray:
    """``rng.dirichlet(np.ones(t))`` bit for bit, without its checks of alpha.

    numpy draws each gamma(1) as its standard exponential, sums the draws
    left to right from 0.0 (``sum`` of floats is compensated from Python
    3.12, so a loop keeps that order) and multiplies each by the reciprocal.
    """
    draws = rng.standard_exponential(t)
    total = 0.0
    for x in draws.tolist():
        total += x
    return draws * (1.0 / total)


@dataclass(frozen=True)
class CampaignSpec:
    """Seed range and settings for a verification campaign.

    ``seed_start``, ``seed_count`` and ``jobs`` are ``int``, never ``bool``.
    Seeds and the seed count must be non-negative, and ``jobs`` must lie
    between 1 and the CPU count; all are refused when the spec is made,
    before any file is opened for it or any worker process starts.
    """

    seed_start: int = 0
    seed_count: int = 10_000
    ranges: InstanceRanges = InstanceRanges()
    jobs: int = 1

    def __post_init__(self) -> None:
        _seed_number(self.seed_start, "seed_start", "seeds")
        _seed_number(self.seed_count, "seed_count", "seed count")
        if not _is_int(self.jobs):
            raise ConfigurationError(f"jobs must be an integer, got {self.jobs!r}")
        cpus = os.cpu_count() or 1
        if not 1 <= self.jobs <= cpus:
            raise ConfigurationError(f"jobs must lie in 1..{cpus}, got {self.jobs}")


class SeedResult(NamedTuple):
    seed: int
    ratio: float
    passed: bool
    flags: tuple[str, ...]
    positive_weights: bool


@dataclass
class CampaignSummary:
    """Aggregated campaign outcome; independent of how seeds were sharded."""

    seed_start: int
    seed_count: int
    count: int
    violations: list[dict[str, Any]]
    min_ratio: float
    median_ratio: float
    min_ratio_positive_weights: float | None
    flag_counts: dict[str, int]
    results: list[SeedResult]

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "seed_start": self.seed_start,
            "seed_count": self.seed_count,
            "count": self.count,
            "pass": self.passed,
            "violations": self.violations,
            "min_ratio": _num_out(self.min_ratio),
            "median_ratio": _num_out(self.median_ratio),
            "min_ratio_positive_weights": (
                None
                if self.min_ratio_positive_weights is None
                else _num_out(self.min_ratio_positive_weights)
            ),
            "flag_counts": dict(self.flag_counts),
        }

    def write_ratio_csv(self, handle: TextIO) -> None:
        """Write ``seed,ratio`` rows to a handle from :func:`open_ratio_csv`, and close it."""
        import csv

        try:
            with handle:
                writer = csv.writer(handle)
                writer.writerow(["seed", "ratio"])
                for result in self.results:
                    writer.writerow([result.seed, repr(result.ratio)])
        except OSError as exc:
            raise ConfigurationError(f"cannot write ratio CSV {handle.name!r}: {exc}") from exc


def open_ratio_csv(path: str) -> TextIO:
    """Open ``path`` for a ratio CSV, refusing a path that cannot be written."""
    try:
        return open(path, "w", newline="", encoding="utf-8")
    except OSError as exc:
        raise ConfigurationError(f"cannot write ratio CSV {path!r}: {exc}") from exc


def _evaluate_seed(args: tuple[int, InstanceRanges]) -> tuple[SeedResult, dict | None]:
    seed, ranges = args
    inst = random_instance(seed, ranges)
    report = check_inequality(inst)
    weights = inst.weights.leaf_array
    positive = np.count_nonzero(weights) == weights.size  # weights are >= 0
    violation = None
    if not report.passed:
        violation = {
            "seed": seed,
            "ratio": _num_out(report.ratio),
            "report": report.to_json_dict(),
            "instance": inst.to_json_dict(),
        }
    return (
        SeedResult(seed, report.ratio, report.passed, report.flags, positive),
        violation,
    )


def fuzz_campaign(spec: CampaignSpec) -> CampaignSummary:
    """Run the campaign over the seed range; workers share nothing."""
    # Campaigns alone use statistics, csv and process pools; each loads
    # where it is used, so other commands start without them.
    import statistics

    seeds = range(spec.seed_start, spec.seed_start + spec.seed_count)
    tasks = [(seed, spec.ranges) for seed in seeds]
    if spec.jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=spec.jobs) as pool:
            outcomes = list(pool.map(_evaluate_seed, tasks, chunksize=64))
    else:
        outcomes = [_evaluate_seed(task) for task in tasks]

    results = [r for r, _ in outcomes]  # pool.map, like the loop, keeps seed order
    violations = [v for _, v in outcomes if v is not None]
    ratios = [r.ratio for r in results]
    positive_ratios = [r.ratio for r in results if r.positive_weights]
    flag_counts = Counter(flag for r in results for flag in r.flags)
    return CampaignSummary(
        seed_start=spec.seed_start,
        seed_count=spec.seed_count,
        count=len(results),
        violations=violations,
        min_ratio=min(ratios) if ratios else math.nan,
        median_ratio=statistics.median(ratios) if ratios else math.nan,
        min_ratio_positive_weights=min(positive_ratios) if positive_ratios else None,
        flag_counts=dict(flag_counts),
        results=results,
    )
