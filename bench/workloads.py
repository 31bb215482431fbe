"""Workload inputs and output checks.

Each workload turns a seed into an endless sequence of operations, one
``joinforge`` command line each, plus the check of that command's output.
Operations come in cycles: ``cycle_len`` consecutive operations hold the
workload's full mix (every tree size, arity and regime in equal shares), and
a run measures whole cycles so that the mix is the same on every run.

Inputs come from the benchmark's own generator (``random.Random`` seeded by
the workload name and seed), never from the library: the library sees only
the command lines and the instance files written here.

Exit code 2 is a refusal (the command rejected its input): its instances
count as failed.  Any other non-zero exit, ``pass`` false, or a fuzz
violation is a wrong output, because the inequality must hold on every
instance the library accepts.

Output checks are of three strengths:

* values that an independent computation gives at any seed: the star
  energy's closed form, orbit sizes and join levels;
* values recorded at the default seed (``reference_seed0.json``), for
  regime-independent outputs: energies to 1e-12 relative, integers and
  shapes exactly, fuzz ratios to 1e-9;
* validity only for regime-dependent values (``K``, ``rhs``, ``ratio``,
  flags): the check passes and every number is finite.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
from dataclasses import dataclass, field
from typing import Callable

DEFAULT_SEED = 0
ENERGY_RTOL = 1e-12
RATIO_RTOL = 1e-9
FLAG_ESTIMATED_K = "estimated-K"
EXIT_REFUSED = 2


@dataclass
class Outcome:
    """What one operation's output says, after checking it."""

    ok: int = 0  # instances checked successfully
    failed: int = 0  # instances refused (exit 2)
    errors: list[str] = field(default_factory=list)  # wrong outputs
    inductive_ok: int = 0  # inductive instances among ``ok``
    estimated: int = 0  # of those, how many carry the estimated-K flag
    reference: dict | None = None  # regime-independent values, for recording


@dataclass
class Op:
    argv: list[str]
    instances: int
    check: Callable[[int, str], Outcome]  # exit code, stdout


@dataclass
class Workload:
    cycle_len: int
    op_at: Callable[[int], Op]
    reference_ops: range  # operations whose outputs the reference file records
    min_instances: int = 0  # a run measures at least this many instances


def _rel_close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


# ---------------------------------------------------------------------------
# Fuzz workloads
# ---------------------------------------------------------------------------

FUZZ_BASE = 1_000_000  # seed n starts its chunks at n * FUZZ_BASE


def _fuzz_op(start: int, count: int, regime: str, arities: list[str], expected) -> Op:
    argv = [
        "fuzz", "--seeds", f"{start}..{start + count}", "--m", *arities,
        "--k", "4", "--n", "6", "--regime", regime, "--jobs", "1",
    ]

    def check(code: int, out: str) -> Outcome:
        if code == EXIT_REFUSED:
            return Outcome(failed=count)
        if code != 0:
            return Outcome(errors=[f"fuzz {start}: exit {code}: {out.strip()[:200]}"])
        doc = json.loads(out)
        violations = len(doc["violations"])
        result = Outcome(ok=doc["count"] - violations)
        if doc["count"] != count or doc["seed_start"] != start:
            result.errors.append(f"fuzz {start}: count {doc['count']} != {count}")
        if doc["pass"] is not True or violations:
            result.errors.append(f"fuzz {start}: {violations} violations, pass {doc['pass']!r}")
        ratios = (doc["min_ratio"], doc["median_ratio"])
        if not all(isinstance(r, float | int) and math.isfinite(r) for r in ratios):
            result.errors.append(f"fuzz {start}: non-finite ratios {ratios}")
        elif expected is not None and not all(
            _rel_close(r, e, RATIO_RTOL) for r, e in zip(ratios, expected)
        ):
            result.errors.append(f"fuzz {start}: ratios {ratios} != recorded {expected}")
        if regime == "inductive":
            result.inductive_ok = result.ok
            result.estimated = doc["flag_counts"].get(FLAG_ESTIMATED_K, 0)
        else:
            result.reference = {"min_ratio": ratios[0], "median_ratio": ratios[1]}
        return result

    return Op(argv, count, check)


def fuzz_small(seed: int, workdir: str, reference: list | None) -> Workload:
    # chunk sizes give both kinds of chunk about the same time, so the
    # latency distribution stays unimodal; chunks of about 0.2 s keep the
    # tail percentile off the few operations a host hiccup slows
    general, binary = 160, 208
    base = seed * FUZZ_BASE

    def op_at(i: int) -> Op:
        start = base + (i // 2) * (general + binary)
        expected = None
        if reference is not None and i < len(reference):
            expected = (reference[i]["min_ratio"], reference[i]["median_ratio"])
        if i % 2 == 0:
            return _fuzz_op(start, general, "general", ["2", "3"], expected)
        return _fuzz_op(start + general, binary, "binary-optimal", ["2"], expected)

    return Workload(2, op_at, range(16))


def fuzz_inductive(seed: int, workdir: str, reference: list | None) -> Workload:
    # The cost of one seed is heavy-tailed: a coefficient of variation near
    # 1.8, and the slowest 5% of seeds (m=3 shapes whose constant needs the
    # numeric maximizer) take over a quarter of the time.  So a run measures
    # at least 1600 seeds, which puts the standard error of the mean cost
    # near 4.5%, whatever --seconds allows.
    chunk = 24
    base = seed * FUZZ_BASE

    def op_at(i: int) -> Op:
        return _fuzz_op(base + i * chunk, chunk, "inductive", ["2", "3"], None)

    return Workload(1, op_at, range(0), min_instances=1600)


# ---------------------------------------------------------------------------
# Instance files
# ---------------------------------------------------------------------------


def _text(word) -> str:
    return ".".join(str(s) for s in word)


def _log_uniform(rng: random.Random) -> float:
    return 10.0 ** rng.uniform(-3.0, 3.0)


def _full_maps(rng: random.Random, m: int, k: int) -> tuple[dict, dict]:
    """Leaf weights (5% exactly zero) and a vertex function on every vertex."""
    symbols = range(1, m + 1)
    mu = {
        _text(w): 0.0 if rng.random() < 0.05 else _log_uniform(rng)
        for w in itertools.product(symbols, repeat=k)
    }
    f = {
        _text(w): _log_uniform(rng)
        for level in range(k + 1)
        for w in itertools.product(symbols, repeat=level)
    }
    return mu, f


def _exponents(rng: random.Random, slots: int) -> list[float]:
    """Exponents whose reciprocals are a Dirichlet(1) draw, so they sum to one."""
    draws = [max(rng.expovariate(1.0), 1e-12) for _ in range(slots)]
    total = sum(draws)
    return [total / x for x in draws]


def _join_levels(particles: list[tuple[int, ...]]) -> list[int]:
    """Join levels with multiplicity, from a trie of the particle words."""
    levels: list[int] = []

    def split(group: list[tuple[int, ...]], level: int) -> None:
        if len(group) < 2:
            return
        parts: dict[int, list] = {}
        for w in group:
            parts.setdefault(w[level], []).append(w)
        if len(parts) > 1:
            levels.extend([level] * (len(parts) - 1))
        for part in parts.values():
            split(part, level + 1)

    split(particles, 0)
    return sorted(levels)


def _write(workdir: str, name: str, doc: dict) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)
    return path


def _verify_op(path: str, regime: str, expect: dict, recorded: dict | None) -> Op:
    """``verify`` on one file; ``expect`` holds values known at any seed."""

    def check(code: int, out: str) -> Outcome:
        if code == EXIT_REFUSED:
            return Outcome(failed=1)
        if code != 0:
            return Outcome(errors=[f"{path}: exit {code}: {out.strip()[:200]}"])
        doc = json.loads(out)
        meta = doc["metadata"]
        errors = []
        if doc["pass"] is not True:
            errors.append("exit 0 without pass")
        for key in ("lhs", "rhs", "K", "ratio"):
            if not (isinstance(doc[key], float | int) and math.isfinite(doc[key])):
                errors.append(f"{key} is not finite: {doc[key]!r}")
        if sorted(meta["join_levels"]) != expect["join_levels"]:
            errors.append(f"join levels {meta['join_levels']} != {expect['join_levels']}")
        if "orbit_terms" in expect and meta["orbit_terms"] != expect["orbit_terms"]:
            errors.append(f"orbit terms {meta['orbit_terms']} != {expect['orbit_terms']}")
        if "lhs" in expect and not _rel_close(doc["lhs"], expect["lhs"], expect["lhs_rtol"]):
            errors.append(f"lhs {doc['lhs']!r} != closed form {expect['lhs']!r}")
        if recorded is not None:
            if not _rel_close(doc["lhs"], recorded["lhs"], ENERGY_RTOL):
                errors.append(f"lhs {doc['lhs']!r} != recorded {recorded['lhs']!r}")
            for key in ("orbit_terms", "join_levels", "shape"):
                if meta[key] != recorded[key]:
                    errors.append(f"{key} {meta[key]!r} != recorded {recorded[key]!r}")
        result = Outcome(ok=1, errors=[f"{path}: {e}" for e in errors])
        if regime == "inductive":
            result.inductive_ok = 1
            result.estimated = int(FLAG_ESTIMATED_K in doc["flags"])
        result.reference = {
            "lhs": doc["lhs"],
            "orbit_terms": meta["orbit_terms"],
            "join_levels": meta["join_levels"],
            "shape": meta["shape"],
        }
        return result

    return Op(["verify", path], 1, check)


def _cycle_workload(ops: list[Op], reference_ops: range) -> Workload:
    return Workload(len(ops), lambda i: ops[i % len(ops)], reference_ops)


DEEP_DEPTHS = (12, 13, 14)
DEEP_REGIMES = ("general", "binary_optimal", "inductive")


def _deep_particles(rng: random.Random, k: int, n: int) -> list[tuple[int, ...]]:
    """Distinct leaves of the binary depth-k tree with joins at mixed depths.

    Every particle branches off the path of the first one at its own level:
    one at level k-1, just above the leaves, and the rest at distinct
    uniform levels in 0..k-6.  A join at level L costs the energy and the
    right side work on the order of 2**L vertices, so the deepest join sets
    most of it; keeping the others at least five levels higher keeps the
    cost of files with equal ``k`` within a few percent of each other.
    """
    first = tuple(rng.randint(1, 2) for _ in range(k))
    levels = [k - 1] + rng.sample(range(k - 5), n - 2)
    particles = [first]
    for level in levels:
        tail = tuple(rng.randint(1, 2) for _ in range(k - level - 1))
        particles.append(first[:level] + (3 - first[level],) + tail)
    rng.shuffle(particles)
    return particles


def deep_binary(seed: int, workdir: str, reference: list | None) -> Workload:
    rng = random.Random(f"deep-binary/{seed}")
    ops = []
    for i, (regime, k) in enumerate(itertools.product(DEEP_REGIMES, DEEP_DEPTHS)):
        n = rng.randint(4, 8)
        particles = _deep_particles(rng, k, n)
        mu, f = _full_maps(rng, 2, k)
        doc = {
            "m": 2, "k": k, "base": "", "config": [list(p) for p in particles],
            "mu": mu, "f": f, "p": _exponents(rng, n - 1), "regime": regime,
        }
        path = _write(workdir, f"deep-{i}.json", doc)
        expect = {"join_levels": _join_levels(particles)}
        recorded = reference[i] if reference is not None else None
        ops.append(_verify_op(path, regime, expect, recorded))
    return _cycle_workload(ops, range(len(ops)))


STAR_SHAPES = tuple((m, d) for m in (7, 8, 9) for d in (m - 2, m - 1, m))
STAR_REGIMES = ("general", "inductive")


def _elementary_symmetric(xs: list[float], d: int) -> float:
    e = [1.0] + [0.0] * d
    for x in xs:
        for j in range(d, 0, -1):
            e[j] += e[j - 1] * x
    return e[d]


def wide_star(seed: int, workdir: str, reference: list | None) -> Workload:
    """Stars: ``d`` particles below distinct children of the root of a k=2 tree.

    The orbit energy is ``f(root)**(d-1) * d! * e_d(M_1..M_m)`` with ``M_c``
    the mass below child ``c``: the injective maps of branches to children,
    each weighted by the product of the chosen masses.  The relative
    tolerance is a few times the worst-case rounding of adding ``m!/(m-d)!``
    positive products of ``d`` factors one at a time.
    """
    rng = random.Random(f"wide-star/{seed}")
    ops = []
    for i, (m, d) in enumerate(STAR_SHAPES):
        children = rng.sample(range(1, m + 1), d)
        particles = [(c, rng.randint(1, m)) for c in children]
        mu, f = _full_maps(rng, m, 2)
        masses = [sum(mu[_text((c, j))] for j in range(1, m + 1)) for c in range(1, m + 1)]
        injective = math.perm(m, d)
        expect = {
            "join_levels": [0] * (d - 1),
            "orbit_terms": injective * m**d,
            "lhs": f[""] ** (d - 1) * math.factorial(d) * _elementary_symmetric(masses, d),
            "lhs_rtol": max(ENERGY_RTOL, 4.0 * (injective + d) * 2.0**-52),
        }
        exponents = _exponents(rng, d - 1)
        recorded = reference[i] if reference is not None else None
        for regime in STAR_REGIMES:
            doc = {
                "m": m, "k": 2, "base": "", "config": [list(p) for p in particles],
                "mu": mu, "f": f, "p": exponents, "regime": regime,
            }
            path = _write(workdir, f"star-{i}-{regime}.json", doc)
            ops.append(_verify_op(path, regime, expect, recorded))
    # one reference entry per star, recorded from its general-regime check
    return _cycle_workload(ops, range(0, len(ops), len(STAR_REGIMES)))


WORKLOADS = {
    "fuzz-small": fuzz_small,
    "fuzz-inductive": fuzz_inductive,
    "deep-binary": deep_binary,
    "wide-star": wide_star,
}
