"""Command-line interface.

Every subcommand prints a JSON document on standard output (keys sorted,
floats in shortest round-trip form, so identical invocations are
byte-identical) and a short human summary on standard error when attached
to a terminal.  Exit status: 0 on success, 1 on an inequality violation or
validation failure, 2 on usage errors or malformed instance files.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import sys
from dataclasses import replace

from .bounds import MuirheadSpec, muirhead_closed_form, muirhead_numeric, validate_exponents
from .energy import orbit_energy_bruteforce, orbit_energy_factorized
from .orbits import (
    EnumerationGuardError,
    orbit_enumerate,
    shape_join_levels,
    shape_orbit_size,
)
from .tree import ConfigurationError
from .verify import (
    CampaignSpec,
    InstanceRanges,
    bound_sides,
    check_equality_case,
    check_inequality,
    fuzz_campaign,
    load_instance,
    open_ratio_csv,
    parse_regime,
    reproduce_example,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2

# `orbit enumerate` encodes and writes its rows this many at a time
_ROWS_PER_WRITE = 1024


def _emit(payload, note: str | None = None) -> None:
    sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")
    if note and sys.stderr.isatty():
        sys.stderr.write(note + "\n")


@functools.cache  # parsing leaves the parser as it was, so one serves every call
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="joinforge",
        description="Orbit interaction energies on regular rooted trees and their bounds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("join-set", help="join points of an instance's configuration")
    ps.add_argument("instance")

    ps = sub.add_parser("orbit", help="orbit size or full enumeration")
    ps.add_argument("action", choices=["size", "enumerate"])
    ps.add_argument("instance")

    ps = sub.add_parser("energy", help="orbit energy of an instance")
    ps.add_argument("instance")
    ps.add_argument("--method", choices=["brute", "factorized"], default="factorized")

    ps = sub.add_parser("bound", help="constant and right-hand side for a regime")
    ps.add_argument("instance")
    ps.add_argument("--regime", default=None, help="general | binary-optimal | inductive | explicit=V")

    ps = sub.add_parser("kconst", help="symmetric-sum constant K(m; a)")
    ps.add_argument("--a", type=float, nargs="+", required=True)
    ps.add_argument("--numeric", action="store_true", help="add the grid's certified interval")

    ps = sub.add_parser("verify", help="check the inequality for an instance")
    ps.add_argument("instance")
    ps.add_argument("--method", choices=["brute", "factorized"], default="factorized")

    ps = sub.add_parser("equality-check", help="equality case for a binary instance's shape")
    ps.add_argument("instance")
    ps.add_argument("--seed", type=int, default=0)

    ps = sub.add_parser("example", help="reproduce the worked four-particle example")
    ps.add_argument("--p", type=float, nargs=3, default=[3.0, 3.0, 3.0])

    ps = sub.add_parser("fuzz", help="seeded verification campaign")
    ps.add_argument("--seeds", default="0..1000", help="seed range A..B (B exclusive)")
    ps.add_argument("--m", type=int, nargs="+", default=[2, 3])
    ps.add_argument("--k", type=int, default=4)
    ps.add_argument("--n", type=int, default=6)
    ps.add_argument("--regime", default="general")
    ps.add_argument("--jobs", type=int, default=1)
    ps.add_argument("--csv", default=None, help="write per-seed ratios to this CSV path")

    return parser


def _seed_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    if not sep:
        raise ConfigurationError(f"seed range must look like A..B, got {text!r}")
    try:
        start, stop = int(lo), int(hi)
    except ValueError as exc:
        raise ConfigurationError(f"bad seed range {text!r}") from exc
    if stop <= start:  # B is exclusive, so A..A holds no seed
        raise ConfigurationError(f"empty seed range {text!r}")
    return start, stop - start


def _cmd_join_set(args) -> int:
    inst = load_instance(args.instance)
    multiset = sorted(inst.config.join_multiset().items())
    joins = {v.to_text(): r for v, r in multiset}
    levels = sorted(level for v, r in multiset for level in [v.level] * r)
    _emit({"joins": joins, "levels": levels, "total_multiplicity": sum(joins.values())})
    return EXIT_OK


def _cmd_orbit(args) -> int:
    inst = load_instance(args.instance)
    if args.action == "size":
        _emit({"size": shape_orbit_size(inst.shape, inst.tree.arity)})
        return EXIT_OK
    # orbit_enumerate runs here, so a guard refusal comes before any output
    rows = ([p.to_text() for p in member.particles] for member in orbit_enumerate(inst.config))
    # the rows stream out a block at a time, in the bytes `_emit` would give
    # the whole document, so memory stays flat in the orbit size
    out = sys.stdout
    out.write(f'{{"count": {shape_orbit_size(inst.shape, inst.tree.arity)}, "tuples": [')
    separator = ""
    while block := list(itertools.islice(rows, _ROWS_PER_WRITE)):
        out.write(separator + json.dumps(block)[1:-1])  # the rows without the list's brackets
        separator = ", "
    out.write("]}\n")
    return EXIT_OK


def _cmd_energy(args) -> int:
    inst = load_instance(args.instance)
    if args.method == "brute":
        result = orbit_energy_bruteforce(inst.config, inst.weights, inst.f)
    else:
        result = orbit_energy_factorized(inst.config, inst.weights, inst.f)
    _emit({"value": result.value, "method": result.method, "terms": result.terms})
    return EXIT_OK


def _cmd_bound(args) -> int:
    inst = load_instance(args.instance)
    if args.regime is not None:
        regime, explicit = parse_regime(args.regime, inst.explicit_k)
        inst = replace(inst, regime=regime, explicit_k=explicit)
    violation = validate_exponents(inst.shape, inst.exponents)
    if violation is not None:
        _emit({"error": violation.message, "constraint": violation.constraint})
        return EXIT_VIOLATION
    k_constant, flags, _, rhs = bound_sides(inst, None)
    _emit(
        {
            "K": k_constant,
            "regime": inst.regime,
            "rhs": rhs,
            "flags": list(flags),
            "join_levels": shape_join_levels(inst.shape, inst.base.level),
        }
    )
    return EXIT_OK


def _cmd_kconst(args) -> int:
    spec = MuirheadSpec(tuple(args.a))
    closed = muirhead_closed_form(spec)
    payload: dict = {"case": closed.case, "exact": closed.exact, "s": spec.s}
    if closed.exact:
        payload["value"] = closed.value
    else:
        payload["lower"] = closed.lower
        payload["upper"] = closed.upper
    if args.numeric:
        estimate = muirhead_numeric(spec)
        payload["numeric"] = {
            "value": estimate.value,
            "maximizer": list(estimate.maximizer),
            "uncertainty": estimate.uncertainty,
            "upper": estimate.upper,
            "resolution": estimate.resolution,
        }
    _emit(payload)
    return EXIT_OK


def _cmd_verify(args) -> int:
    inst = load_instance(args.instance)
    report = check_inequality(inst, method=args.method)
    _emit(report.to_json_dict(), note=f"ratio {report.ratio:.6g} pass={report.passed}")
    return EXIT_OK if report.passed else EXIT_VIOLATION


def _cmd_equality_check(args) -> int:
    inst = load_instance(args.instance)
    report = check_equality_case(inst.config, inst.exponents, seed=args.seed)
    _emit(report.to_json_dict())
    return EXIT_OK if report.passed else EXIT_VIOLATION


def _cmd_example(args) -> int:
    report = reproduce_example(tuple(args.p))
    _emit(report.to_json_dict())
    ok = report.report_displayed.passed and report.report_binary_optimal.passed
    return EXIT_OK if ok else EXIT_VIOLATION


def _cmd_fuzz(args) -> int:
    start, count = _seed_range(args.seeds)
    regime, _ = parse_regime(args.regime)
    ranges = InstanceRanges(
        arities=tuple(args.m),
        max_depth=args.k,
        max_particles=args.n,
        regime=regime,
    )
    spec = CampaignSpec(seed_start=start, seed_count=count, ranges=ranges, jobs=args.jobs)
    # the CSV opens before the campaign, so a path that cannot be written is refused at once
    with open_ratio_csv(args.csv) if args.csv else contextlib.nullcontext() as handle:
        summary = fuzz_campaign(spec)
        if handle:
            summary.write_ratio_csv(handle)
    _emit(summary.to_json_dict())
    return EXIT_OK if summary.passed else EXIT_VIOLATION


_COMMANDS = {
    "join-set": _cmd_join_set,
    "orbit": _cmd_orbit,
    "energy": _cmd_energy,
    "bound": _cmd_bound,
    "kconst": _cmd_kconst,
    "verify": _cmd_verify,
    "equality-check": _cmd_equality_check,
    "example": _cmd_example,
    "fuzz": _cmd_fuzz,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except EnumerationGuardError as exc:
        _emit({"error": str(exc), "estimate": exc.estimate})
        return EXIT_VIOLATION
    except ConfigurationError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
