"""Standing output check: CLI commands on fixed inputs against recorded outputs.

``tests/data/cli_outputs.json`` holds, for every case, its arguments, exit
status, standard error and the JSON document printed on standard output.
The instance files are built here from fixed seeds: the worked example,
stars of arity 7, 8 and 9 under the general and inductive regimes, and a
binary tree of depth 8.  Integers, strings, flags and the layout of every
document must match exactly; floats must agree to ``FLOAT_RTOL``, since
numpy's vectorized log and exp may differ in the last bit between CPUs.

Regenerate the recorded outputs, only when a change of output is intended::

    PYTHONPATH=src python tests/test_cli_outputs.py --write
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random
import sys
import tempfile
from pathlib import Path

import pytest

from joinforge.cli import main

RECORDED = Path(__file__).resolve().parent / "data" / "cli_outputs.json"
FLOAT_RTOL = 1e-12

FILE_COMMANDS = (
    ("verify",),
    ("bound",),
    ("energy",),
    ("join-set",),
    ("orbit", "size"),
    ("equality-check",),
)


def _text(word) -> str:
    return ".".join(map(str, word))


def _log_uniform(rng: random.Random) -> float:
    return 10.0 ** rng.uniform(-3.0, 3.0)


def _full_maps(rng: random.Random, m: int, k: int) -> tuple[dict, dict]:
    """Leaf weights, 5% of them exactly zero, and a value at every vertex."""
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
    draws = [rng.expovariate(1.0) + 1e-3 for _ in range(slots)]
    return [sum(draws) / x for x in draws]


def instance_documents() -> dict[str, dict]:
    """The input files, by name."""
    docs = {
        "worked.json": {
            "m": 2, "k": 3, "base": "", "config": [[1, 1, 1], [1, 2, 1], [2, 1, 1], [2, 1, 2]],
            "p": [3.0, 3.0, 3.0], "regime": "binary_optimal",
        },
    }
    for m, d in ((7, 5), (8, 7), (9, 9)):
        rng = random.Random(f"star-{m}")
        config = [[c, rng.randint(1, m)] for c in rng.sample(range(1, m + 1), d)]
        mu, f = _full_maps(rng, m, 2)
        p = _exponents(rng, d - 1)
        for regime in ("general", "inductive"):
            docs[f"star-{m}-{regime}.json"] = {
                "m": m, "k": 2, "base": "", "config": config, "mu": mu, "f": f, "p": p,
                "regime": regime,
            }
    rng = random.Random("binary-8")
    first = [rng.randint(1, 2) for _ in range(8)]
    config = [first]
    for level in (7, 5, 2, 0):  # one particle branching off the first at each level
        tail = [rng.randint(1, 2) for _ in range(7 - level)]
        config.append(first[:level] + [3 - first[level]] + tail)
    mu, f = _full_maps(rng, 2, 8)
    docs["binary-8.json"] = {
        "m": 2, "k": 8, "base": "", "config": config, "mu": mu, "f": f,
        "p": _exponents(rng, len(config) - 1), "regime": "general",
    }
    return docs


def cases() -> dict[str, list[str]]:
    """Every recorded invocation, by case name; a file argument is its name."""
    out = {}
    for name in instance_documents():
        for command in FILE_COMMANDS:
            out[f"{' '.join(command)} {name}"] = [*command, name]
    for a in (["2", "1", "0"], ["3", "0.5", "0.5"], ["1.5", "1.5"]):
        out[f"kconst {' '.join(a)}"] = ["kconst", "--a", *a, "--numeric"]
    out["example"] = ["example"]
    fuzz_arities = {"general": ["2", "3"], "binary-optimal": ["2"], "inductive": ["2", "3"]}
    for regime, arities in fuzz_arities.items():
        out[f"fuzz {regime}"] = [
            "fuzz", "--seeds", "0..200", "--m", *arities, "--k", "4", "--n", "6",
            "--regime", regime,
        ]
    return out


def run_case(argv: list[str], workdir: Path) -> dict:
    """Exit status, standard error and the parsed standard output of one call."""
    names = instance_documents()
    args = [str(workdir / a) if a in names else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(args)
    stdout = out.getvalue()
    return {
        "argv": argv,
        "exit": code,
        "stderr": err.getvalue(),
        "stdout": json.loads(stdout) if stdout else None,
    }


def write_instances(workdir: Path) -> None:
    for name, doc in instance_documents().items():
        (workdir / name).write_text(json.dumps(doc), encoding="utf-8")


def mismatches(got, want, where: str = "") -> list[str]:
    """Where ``got`` differs from ``want``: a type, key, length or exact
    value, or a float beyond ``FLOAT_RTOL``."""
    if type(got) is not type(want):
        return [f"{where}: {got!r} != {want!r}"]
    if isinstance(want, dict):
        if sorted(got) != sorted(want):
            return [f"{where}: keys {sorted(got)} != {sorted(want)}"]
        return [m for key in want for m in mismatches(got[key], want[key], f"{where}.{key}")]
    if isinstance(want, list):
        if len(got) != len(want):
            return [f"{where}: length {len(got)} != {len(want)}"]
        pairs = enumerate(zip(got, want))
        return [m for i, (g, w) in pairs for m in mismatches(g, w, f"{where}[{i}]")]
    if isinstance(want, float):
        if got == want or math.isclose(got, want, rel_tol=FLOAT_RTOL, abs_tol=0.0):
            return []
        return [f"{where}: {got!r} != {want!r}"]
    return [] if got == want else [f"{where}: {got!r} != {want!r}"]


@pytest.fixture(scope="module")
def recorded() -> dict:
    with open(RECORDED, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def instance_dir(tmp_path_factory) -> Path:
    workdir = tmp_path_factory.mktemp("instances")
    write_instances(workdir)
    return workdir


def test_every_case_is_recorded(recorded):
    assert sorted(recorded) == sorted(cases())


@pytest.mark.parametrize("name", sorted(cases()))
def test_output_matches_the_record(name, recorded, instance_dir):
    want = recorded[name]
    got = run_case(cases()[name], instance_dir)
    assert mismatches(got, want) == []


def write(path: Path = RECORDED) -> None:
    """Run every case and record its outputs at ``path``."""
    with tempfile.TemporaryDirectory() as workdir:
        write_instances(Path(workdir))
        recorded = {name: run_case(argv, Path(workdir)) for name, argv in sorted(cases().items())}
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write  (rewrites {RECORDED.name})")
    write()
