"""Command-line interface: outputs, exit codes, determinism."""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import os
import shutil
import subprocess
import sys
import time
import tracemalloc
import warnings

import pytest

from joinforge import (
    ExponentAssignment,
    Instance,
    LevelFunction,
    WeightAssignment,
    load_instance,
    orbit_enumerate,
    random_instance,
    worked_example_configuration,
)
from joinforge import orbits
import joinforge.cli as cli_mod
import joinforge.energy as energy_mod
import joinforge.verify as verify_mod
from joinforge.cli import main

from conftest import REPO, run_python


@pytest.fixture()
def worked_file(tmp_path):
    config = worked_example_configuration()
    tree = config.tree
    inst = Instance(
        config=config,
        weights=WeightAssignment.constant(tree),
        f=LevelFunction.constant(tree),
        exponents=ExponentAssignment((3.0, 3.0, 3.0)),
        regime="binary_optimal",
    )
    path = tmp_path / "worked.json"
    path.write_text(json.dumps(inst.to_json_dict()))
    return str(path)


def read_json(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def run_cli(capsys, *argv) -> tuple[int, dict]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out else {}


class TestSubcommands:
    def test_orbit_size(self, capsys, worked_file):
        code, payload = run_cli(capsys, "orbit", "size", worked_file)
        assert code == 0 and payload == {"size": 64}

    def test_orbit_enumerate(self, capsys, worked_file):
        code, payload = run_cli(capsys, "orbit", "enumerate", worked_file)
        assert code == 0
        assert payload["count"] == 64
        assert len(payload["tuples"]) == 64
        assert ["1.1.1", "1.2.1", "2.1.1", "2.1.2"] in payload["tuples"]

    def test_join_set(self, capsys, worked_file):
        code, payload = run_cli(capsys, "join-set", worked_file)
        assert code == 0
        assert payload["joins"] == {"": 1, "1": 1, "2.1": 1}
        assert payload["levels"] == [0, 1, 2]

    def test_energy_both_methods(self, capsys, worked_file):
        code, brute = run_cli(capsys, "energy", worked_file, "--method", "brute")
        assert code == 0 and brute["value"] == 64.0 and brute["method"] == "bruteforce"
        code, fact = run_cli(capsys, "energy", worked_file, "--method", "factorized")
        assert code == 0 and fact["value"] == 64.0 and fact["method"] == "factorized"

    def test_bound_regimes(self, capsys, worked_file):
        code, payload = run_cli(capsys, "bound", worked_file)
        assert code == 0 and payload["K"] == 0.125
        code, payload = run_cli(capsys, "bound", worked_file, "--regime", "general")
        assert code == 0 and payload["K"] == 1.0
        code, payload = run_cli(capsys, "bound", worked_file, "--regime", "explicit=0.25")
        assert code == 0 and payload["K"] == 0.25

    def test_kconst_closed_form(self, capsys):
        code, payload = run_cli(capsys, "kconst", "--a", "1", "1")
        assert code == 0
        assert payload["case"] == "iii" and payload["value"] == 0.5

    def test_kconst_equal_exponents_case_v(self, capsys):
        code, payload = run_cli(capsys, "kconst", "--a", "1", "1", "0")
        assert code == 0
        assert payload["case"] == "v" and payload["exact"] is True and payload["s"] == 2.0
        assert payload["value"] == pytest.approx(2.0 / 3.0, rel=1e-15)
        assert "lower" not in payload and "upper" not in payload

    def test_kconst_bracket_and_numeric(self, capsys):
        code, payload = run_cli(capsys, "kconst", "--a", "3", "0", "--numeric")
        assert code == 0
        assert payload["case"] == "ii"
        assert payload["lower"] == 0.25 and payload["upper"] == 1.0
        assert abs(payload["numeric"]["value"] - 1.0) < 1e-6
        assert payload["numeric"]["value"] <= 1.0 <= payload["numeric"]["upper"]

    def test_verify_pass(self, capsys, worked_file):
        code, payload = run_cli(capsys, "verify", worked_file)
        assert code == 0 and payload["pass"] is True

    def test_verify_violation_exit_one(self, capsys, worked_file):
        code, payload = run_cli(capsys, "verify", worked_file, "--method", "factorized")
        assert code == 0
        code, payload = run_cli(capsys, "bound", worked_file, "--regime", "explicit=1e-9")
        assert code == 0  # bound only reports
        # an explicit constant far too small must fail verification
        inst = read_json(worked_file)
        inst["regime"] = "explicit"
        inst["K"] = 1e-9
        import tempfile, os

        with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as handle:
            json.dump(inst, handle)
            bad = handle.name
        try:
            code, payload = run_cli(capsys, "verify", bad)
            assert code == 1 and payload["pass"] is False
        finally:
            os.unlink(bad)

    def test_equality_check(self, capsys, worked_file):
        code, payload = run_cli(capsys, "equality-check", worked_file)
        assert code == 0 and payload["pass"] is True
        assert abs(payload["ratio"] - 1.0) <= 1e-9

    def test_equality_check_off_root(self, capsys, tmp_path):
        doc = {"m": 2, "k": 3, "base": "1", "config": [[1, 1, 1], [1, 2, 1], [1, 2, 2]],
               "p": [2.0, 2.0], "regime": "binary_optimal"}
        path = tmp_path / "off_root.json"
        path.write_text(json.dumps(doc))
        code, payload = run_cli(capsys, "equality-check", str(path))
        assert code == 0 and payload["pass"] is True
        assert abs(payload["ratio"] - 1.0) <= 1e-9
        assert payload["metadata"]["join_levels"] == [1, 2]

    @pytest.mark.parametrize("k, base", [(3, ""), (4, "1")], ids=["root", "below-1"])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_equality_check_keeps_the_coexponent(self, capsys, tmp_path, k, base, seed):
        # recursive form: reciprocals 1/4 + 1/8 + 1/8 = 0.5, plus the coexponent 0.5
        lead = [int(base)] if base else []
        config = [lead + word for word in ([1, 1, 1], [1, 2, 1], [2, 1, 1], [2, 1, 2])]
        doc = {"m": 2, "k": k, "base": base, "config": config,
               "p": [4, 8, 8], "coexponent": 0.5, "regime": "binary_optimal"}
        path = tmp_path / "recursive.json"
        path.write_text(json.dumps(doc))
        code, payload = run_cli(capsys, "equality-check", str(path), "--seed", str(seed))
        assert code == 0 and payload["pass"] is True and payload["flags"] == []
        assert abs(payload["ratio"] - 1.0) <= 1e-15

    def test_example(self, capsys):
        code, payload = run_cli(capsys, "example")
        assert code == 0
        assert payload["orbit_count"] == 64
        assert payload["join_points"] == {"": 1, "1": 1, "2.1": 1}
        assert payload["tight_regime"] == "binary_optimal"

    @pytest.mark.parametrize(
        "p, constraint",
        [
            (["-1", "2", "2"], "positivity"),
            (["0", "1", "1"], "positivity"),  # 1/0 in the displayed constant
            (["nan", "3", "3"], "positivity"),
            (["1e-320", "3", "3"], "conjugacy"),  # 1/p overflows
            (["inf", "2", "2"], "finiteness"),  # 1/inf is 0, and 1/2 + 1/2 is 1
        ],
    )
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_example_invalid_exponents(self, capsys, p, constraint):
        code = main(["example", "--p", *p])
        captured = capsys.readouterr()

        def refuse(constant):
            raise ValueError(f"{constant} is not JSON")

        payload = json.loads(captured.out, parse_constant=refuse)
        assert code == 1 and captured.err == ""
        assert payload["displayed_constant"] is None
        regimes = {"report_displayed": "explicit", "report_binary_optimal": "binary_optimal"}
        for key, regime in regimes.items():
            report = payload[key]
            assert report["flags"] == [f"invalid-exponents:{constraint}"]
            assert report["pass"] is False and report["K"] is None
            assert report["metadata"]["regime"] == regime

    @pytest.mark.parametrize(
        "regime", ["general", "binary-optimal", "inductive", "explicit=2.5"]
    )
    def test_bound_skips_the_energy(self, capsys, worked_file, monkeypatch, regime):
        def no_energy(*args):
            pytest.fail("bound evaluated the orbit energy")

        monkeypatch.setattr(energy_mod, "factorized_from_shape", no_energy)
        code, payload = run_cli(capsys, "bound", worked_file, "--regime", regime)
        assert code == 0 and payload["rhs"] > 0.0
        assert payload["join_levels"] == [0, 1, 2]

    @pytest.mark.parametrize(
        "regime", ["general", "binary-optimal", "inductive", "explicit=2.5"]
    )
    def test_bound_reads_the_shared_sides(self, capsys, worked_file, monkeypatch, regime):
        # bound asks verify's bound_sides for no energy, and prints its
        # constant, flags and right side, which are the verify report's
        shared, methods = verify_mod.bound_sides, []

        def recorded(inst, method):
            methods.append(method)
            return shared(inst, method)

        monkeypatch.setattr(cli_mod, "bound_sides", recorded)
        code, payload = run_cli(capsys, "bound", worked_file, "--regime", regime)
        assert code == 0 and methods == [None]
        inst = load_instance(worked_file)
        name, explicit = verify_mod.parse_regime(regime, inst.explicit_k)
        report = verify_mod.check_inequality(
            dataclasses.replace(inst, regime=name, explicit_k=explicit)
        )
        assert (payload["K"], payload["rhs"], payload["flags"]) == (
            report.k_constant, report.rhs, list(report.flags)
        )

    def test_fuzz(self, capsys, tmp_path):
        csv_path = tmp_path / "r.csv"
        code, payload = run_cli(
            capsys, "fuzz", "--seeds", "0..40", "--m", "2", "3", "--k", "3",
            "--n", "4", "--csv", str(csv_path),
        )
        assert code == 0
        assert payload["pass"] is True and payload["count"] == 40
        assert csv_path.read_text().splitlines()[0] == "seed,ratio"


# the instance file shown in the README
README_INSTANCE = {
    "m": 2, "k": 3, "base": "",
    "config": [[1, 1, 1], [1, 2, 1], [2, 1, 1], [2, 1, 2]],
    "mu": {"1.1.1": 1.0},
    "f": {"2.1": 1.0},
    "p": [3.0, 3.0, 3.0],
    "regime": "binary_optimal",
}


class TestCliContract:
    @pytest.mark.parametrize(
        "fields, code, constraint",
        [
            ({"p": [0, 3, 3]}, 1, "positivity"),
            ({"p": [2, 2]}, 1, "count"),
            ({"p": [2, 2, 2]}, 1, "conjugacy"),
            ({"regime": "general", "K": -1}, 2, None),
            ({"regime": "explicit"}, 2, None),
        ],
        ids=["nonpositive-p", "p-count", "p-not-conjugate", "general-K-negative",
             "explicit-without-K"],
    )
    def test_refused_file_gets_one_verdict_from_every_command(
        self, capsys, tmp_path, fields, code, constraint
    ):
        path = tmp_path / "refused.json"
        path.write_text(json.dumps({**README_INSTANCE, **fields}))
        for command in ("verify", "bound", "equality-check"):
            assert main([command, str(path)]) == code, command
            captured = capsys.readouterr()
            assert "Traceback" not in captured.err
            if code == 2:
                assert captured.out == "" and captured.err.startswith("error: ")
                continue
            payload = json.loads(captured.out)
            if command == "bound":
                assert payload["constraint"] == constraint
            else:
                assert payload["flags"] == [f"invalid-exponents:{constraint}"]
                assert payload["pass"] is False

    @pytest.mark.parametrize("regime", ["general", "binary_optimal", "inductive"])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_infinite_exponent_refused_by_every_command(self, capsys, tmp_path, regime):
        # three particles: 1/inf + 1/1 sums to 1, so only finiteness fails
        doc = {**README_INSTANCE, "config": README_INSTANCE["config"][:3]}
        path = tmp_path / "infinite.json"
        path.write_text(json.dumps({**doc, "p": [math.inf, 1.0], "regime": regime}))
        assert "Infinity" in path.read_text()
        for command in ("verify", "bound", "equality-check"):
            assert main([command, str(path)]) == 1, command
            captured = capsys.readouterr()
            assert captured.err == ""
            payload = json.loads(captured.out)
            if command == "bound":
                assert payload == {
                    "constraint": "finiteness",
                    "error": "exponents must be finite, found [inf]",
                }
            else:
                assert payload["flags"] == ["invalid-exponents:finiteness"]
                assert payload["pass"] is False and payload["rhs"] is None

    @pytest.mark.parametrize("regime", ["general", "binary_optimal", "inductive"])
    def test_one_particle_without_slots(self, capsys, tmp_path, regime):
        # one particle, no exponent and coexponent 1: K = 1, and the right
        # side is the base mass 10 through the log domain
        doc = {
            "m": 2, "k": 3, "base": "", "config": [[1, 2, 1]],
            "mu": {"1.1.1": 1.0, "1.2.1": 3.0}, "f": {"2.1": 1.0},
            "p": [], "coexponent": 1.0, "regime": regime,
        }
        path = tmp_path / "one.json"
        path.write_text(json.dumps(doc))
        code, payload = run_cli(capsys, "bound", str(path))
        assert code == 0
        assert payload == {
            "K": 1.0, "flags": [], "join_levels": [], "regime": regime,
            "rhs": 10.000000000000002,
        }
        code, payload = run_cli(capsys, "verify", str(path))
        assert code == 0 and payload["pass"] is True
        assert (payload["lhs"], payload["rhs"]) == (10.0, 10.000000000000002)

    def test_one_particle_join_set_is_empty(self, capsys, tmp_path):
        doc = {"m": 2, "k": 3, "config": [[1, 2, 1]], "p": [], "coexponent": 1.0}
        path = tmp_path / "one.json"
        path.write_text(json.dumps(doc))
        code, payload = run_cli(capsys, "join-set", str(path))
        assert code == 0
        assert payload == {"joins": {}, "levels": [], "total_multiplicity": 0}

    def test_byte_identical_output(self, capsys, worked_file):
        main(["verify", worked_file])
        first = capsys.readouterr().out
        main(["verify", worked_file])
        second = capsys.readouterr().out
        assert first == second
        main(["example"])
        first = capsys.readouterr().out
        main(["example"])
        second = capsys.readouterr().out
        assert first == second

    def test_sorted_keys(self, capsys, worked_file):
        _, _ = run_cli(capsys, "verify", worked_file)
        main(["verify", worked_file])
        out = capsys.readouterr().out
        parsed = json.loads(out)
        assert out == json.dumps(parsed, sort_keys=True) + "\n"

    def test_malformed_file_exit_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{ not json")
        code = main(["verify", str(bad)])
        err = capsys.readouterr().err
        assert code == 2
        assert "line" in err

    @pytest.mark.parametrize(
        "content, err",
        [
            (
                b'{"m": 2, "k": 1, "config": [[1], [2]], "p": [1.0]}'[:30],
                "malformed JSON in 'in.json' at line 1, column 31: Expecting ',' delimiter",
            ),
            (
                b'{"m": 2, "k": 1, "config": [[1], [2]], "p": [1.0],}',
                "malformed JSON in 'in.json' at line 1, column 51: "
                "Expecting property name enclosed in double quotes",
            ),
            (
                b'{"m": 2, "k": 1, "base": "\xff", "config": [[1], [2]], "p": [1.0]}',
                "instance file 'in.json' is not UTF-8: 'utf-8' codec can't decode "
                "byte 0xff in position 26: invalid start byte",
            ),
            (
                '{"m": 2, "k": 1, "config": [[1], [2]], "p": [1.0]}'.encode("utf-16"),
                "instance file 'in.json' is not UTF-8: 'utf-8' codec can't decode "
                "byte 0xff in position 0: invalid start byte",
            ),
            (
                b'\xef\xbb\xbf{"m": 2, "k": 1, "config": [[1], [2]], "p": [1.0]}',
                "malformed JSON in 'in.json' at line 1, column 1: "
                "Unexpected UTF-8 BOM (decode using utf-8-sig)",
            ),
            (
                b'{\r\n"m": 2,\r\n"k": 1 "config": [[1], [2]],\r\n"p": [1.0]}\r\n',
                "malformed JSON in 'in.json' at line 3, column 8: Expecting ',' delimiter",
            ),
            (
                b'{\r"m": 2,\r"k": 1 "config": [[1], [2]],\r"p": [1.0]}\r',
                "malformed JSON in 'in.json' at line 3, column 8: Expecting ',' delimiter",
            ),
            (
                b'{"m": 2,\r\n"k": "1\r\n2", "config": [[1], [2]], "p": [1.0]}',
                "malformed JSON in 'in.json' at line 2, column 8: Invalid control character at",
            ),
            (b"[" * 100_000, "instance file 'in.json' nests too deeply to read"),
        ],
        ids=[
            "truncated", "trailing-comma", "not-utf8", "utf16", "bom", "crlf", "bare-cr",
            "cr-in-string", "deep-nesting",
        ],
    )
    def test_unreadable_file_exit_two(self, capsys, monkeypatch, tmp_path, content, err):
        # the whole stderr as a text-mode read gave it: CR LF and a lone CR
        # count as one line end, and the bytes are never parsed as they are
        monkeypatch.chdir(tmp_path)
        (tmp_path / "in.json").write_bytes(content)
        code = main(["verify", "in.json"])
        assert (code, capsys.readouterr()) == (2, ("", f"error: {err}\n"))

    def test_lone_cr_line_ends_read(self, capsys, tmp_path):
        path = tmp_path / "cr.json"
        path.write_bytes(b'{\r"m": 2,\r"k": 1, "config": [[1], [2]],\r"p": [1.0]}\r')
        code, report = run_cli(capsys, "verify", str(path))
        assert code == 0 and (report["lhs"], report["rhs"]) == (2.0, 4.0)

    def test_fuzz_unwritable_csv_exit_two(self, capsys, monkeypatch, tmp_path):
        def no_seed(args):
            pytest.fail(f"seed {args[0]} was evaluated before the CSV path was refused")

        monkeypatch.setattr(verify_mod, "_evaluate_seed", no_seed)
        csv_path = tmp_path / "missing" / "r.csv"
        code = main(["fuzz", "--seeds", "0..3", "--csv", str(csv_path)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "" and "r.csv" in captured.err

    @pytest.mark.parametrize("args", [["--seeds=-3..2"], ["--jobs", "0"]], ids=["seed", "jobs"])
    def test_refused_fuzz_leaves_csv_path_untouched(self, capsys, tmp_path, args):
        csv_path = tmp_path / "r.csv"
        code = main(["fuzz", "--seeds", "0..3", *args, "--csv", str(csv_path)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "" and not csv_path.exists()

    def test_missing_field_exit_two(self, capsys, tmp_path):
        bad = tmp_path / "missing.json"
        bad.write_text(json.dumps({"m": 2, "k": 1, "config": [[1], [2]]}))
        code = main(["verify", str(bad)])
        err = capsys.readouterr().err
        assert code == 2 and "'p'" in err

    @pytest.mark.parametrize(
        "argv",
        [["verify"], ["bound", "--regime", "binary-optimal"]],
        ids=["verify", "bound"],
    )
    def test_binary_optimal_off_binary_trees_exit_two(self, capsys, tmp_path, argv):
        # a binary shape on a ternary tree: the sharp 1/2 would give rhs 4.5 under lhs 6
        doc = {"m": 3, "k": 1, "config": [[1], [2]], "p": [1.0], "regime": "binary_optimal"}
        path = tmp_path / "ternary.json"
        path.write_text(json.dumps(doc))
        code = main([argv[0], str(path), *argv[1:]])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "" and "not arity 3" in captured.err

    @pytest.mark.parametrize(
        "field, value",
        [("config", "12"), ("config", {"1": 5, "2": 7}), ("p", "3"), ("p", 3.0)],
        ids=["config-string", "config-object", "p-string", "p-number"],
    )
    def test_field_that_is_not_a_list_exit_two(self, capsys, tmp_path, field, value):
        # a string or an object is refused, never read as its characters or keys
        doc = {"m": 2, "k": 1, "config": [[1], [2]], "p": [1.0], field: value}
        bad = tmp_path / "not-a-list.json"
        bad.write_text(json.dumps(doc))
        code = main(["verify", str(bad)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert f"instance field {field!r} must be a list" in captured.err

    @pytest.mark.parametrize(
        "field, key",
        [("mu", "1"), ("f", "3.1"), ("mu", "1.1.1"), ("f", "1.1.1")],
        ids=["mu-non-leaf", "f-outside-tree", "mu-below-leaves", "f-below-leaves"],
    )
    def test_foreign_vertex_key_exit_two(self, capsys, tmp_path, field, key):
        doc = {"m": 2, "k": 2, "config": [[1, 1], [2, 1]], "p": [1.0], field: {key: 2.0}}
        bad = tmp_path / "foreign.json"
        bad.write_text(json.dumps(doc))
        code = main(["verify", str(bad)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "unexpected" in captured.err

    @pytest.mark.parametrize(
        "m, field, key, value",
        [
            (2, "f", "01.1", 2.0),
            (2, "f", " 1.1", 2.0),
            (2, "f", "+1", 2.0),
            (2, "f", "1..1", 2.0),
            (2, "f", "1.", 2.0),
            (2, "f", ".1", 2.0),
            (2, "f", "1.0", 2.0),
            (2, "f", "\u0661", 2.0),
            (9, "f", "10", 2.0),
            (2, "f", "1.1.1.1", 2.0),
            (2, "mu", "1.1", 2.0),
            (2, "mu", "1.1.1", "2.5"),
            (2, "mu", "1.1.1", True),
            (2, "f", "1.1", None),
        ],
        ids=[
            "leading-zero", "space", "sign", "empty-symbol", "trailing-dot", "leading-dot",
            "zero-symbol", "non-ascii-digit", "two-digits-at-m9", "too-deep", "mu-non-leaf",
            "string-value", "boolean-value", "null-value",
        ],
    )
    def test_malformed_entry_exit_two(self, capsys, tmp_path, m, field, key, value):
        doc = {"m": m, "k": 3, "config": [[1, 1, 1], [2, 1, 1]], "p": [1.0], field: {key: value}}
        bad = tmp_path / "malformed.json"
        bad.write_text(json.dumps(doc))
        code = main(["verify", str(bad)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert repr(key) in captured.err and repr(field) in captured.err

    def test_two_spellings_of_one_leaf_exit_two(self, capsys, tmp_path):
        doc = {
            "m": 2, "k": 3, "config": [[1, 1, 1], [2, 1, 1]], "p": [1.0],
            "mu": {"1.1.1": 1.0, "01.1.1": 2.0},
        }
        bad = tmp_path / "twice.json"
        bad.write_text(json.dumps(doc))
        code = main(["verify", str(bad)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "" and "'01.1.1'" in captured.err

    @pytest.mark.parametrize("field, key", [("mu", "1.2.1"), ("f", "2")], ids=["mu", "f"])
    def test_non_finite_value_exit_two(self, capsys, tmp_path, field, key):
        doc = {"m": 2, "k": 3, "config": [[1, 1, 1], [2, 1, 1]], "p": [1.0], field: {key: math.inf}}
        bad = tmp_path / "infinite.json"
        bad.write_text(json.dumps(doc))  # written as Infinity, which json reads back
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["verify", str(bad)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert f"Vertex({key!r})" in captured.err and "finite" in captured.err

    @pytest.mark.parametrize("symbol", [1.9, "1", True], ids=["fraction", "string", "boolean"])
    def test_non_integer_config_symbol_exit_two(self, capsys, tmp_path, symbol):
        doc = {"m": 2, "k": 3, "config": [[symbol, 1, 1], [2, 1, 1]], "p": [1.0]}
        bad = tmp_path / "symbol.json"
        bad.write_text(json.dumps(doc))
        code = main(["verify", str(bad)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "" and "'config[0]'" in captured.err

    def test_oversized_tree_exit_two_fast(self, capsys, tmp_path):
        doc = {"m": 10, "k": 10, "config": [[1] * 10, [2] * 10], "p": [1.0]}
        bad = tmp_path / "huge.json"
        bad.write_text(json.dumps(doc))
        start = time.perf_counter()
        code = main(["verify", str(bad)])
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "limit" in captured.err and elapsed < 1.0

    def test_oversized_join_sum_exit_two_fast(self, capsys, tmp_path):
        # a full star on 12 children sums 12! = 479,001,600 assignments
        doc = {"m": 12, "k": 1, "config": [[c] for c in range(1, 13)], "p": [11.0] * 11}
        bad = tmp_path / "star.json"
        bad.write_text(json.dumps(doc))
        start = time.perf_counter()
        code = main(["verify", str(bad)])
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "479001600" in captured.err and str(orbits.MAX_INJECTIVE_TERMS) in captured.err
        assert elapsed < 1.0

    def test_fuzz_oversized_tree_exit_two(self, capsys):
        # seed 0 draws k = 35 of 1..40
        code = main(["fuzz", "--seeds", "0..1", "--m", "10", "--k", "40"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "" and "limit" in captured.err

    @pytest.mark.parametrize(
        "m, k, size",
        [("2", "22", "has 8388607"), ("10", "10000000", "has at least 2**30000000")],
        ids=["k22", "k-ten-million"],
    )
    def test_fuzz_oversized_range_refused_before_any_seed(self, capsys, monkeypatch, m, k, size):
        # with k = 22, seeds 7, 15 and 29 draw the admitted k = 21 before seed 39 draws 22
        def no_seed(args):
            pytest.fail(f"seed {args[0]} was evaluated before the ranges were refused")

        monkeypatch.setattr(verify_mod, "_evaluate_seed", no_seed)
        code = main(["fuzz", "--seeds", "0..60", "--m", m, "--k", k, "--n", "3"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert f"error: a tree with m={m}, k={k} {size} vertices, over the limit" in captured.err

    @pytest.mark.parametrize(
        "field, value",
        [("m", 2.7), ("k", 2.5), ("seed", 1.9), ("seed", True), ("p", ["3", True]),
         ("p", [1.0, True]), ("p", [10**400]), ("coexponent", "0.5"), ("K", "2")],
        ids=["m-fraction", "k-fraction", "seed-fraction", "seed-boolean", "p-string",
             "p-boolean", "p-overflow", "coexponent-string", "K-string"],
    )
    def test_non_integer_field_exit_two(self, capsys, tmp_path, field, value):
        doc = {"m": 2, "k": 2, "config": [[1, 1], [2, 1]], "p": [1.0], field: value}
        bad = tmp_path / "fraction.json"
        bad.write_text(json.dumps(doc))
        code = main(["verify", str(bad)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert repr(field) in captured.err

    @pytest.mark.parametrize(
        "slot_map",
        [{"-1": 0}, {"0": -1}, {"3": 0}, {"0": 3}, {"0": 1, "00": 0, "1": 0}, {"+0": 0},
         {" 0": 0}],
        ids=["negative-slot", "negative-p", "slot-out-of-range", "p-out-of-range",
             "two-spellings", "plus-sign", "space"],
    )
    def test_slot_assignment_index_exit_two(self, capsys, tmp_path, slot_map):
        doc = {
            "m": 2, "k": 3, "config": [[1, 1, 1], [1, 2, 1], [2, 1, 1], [2, 1, 2]],
            "p": [2.0, 3.0, 6.0], "slot_assignment": slot_map,
        }
        bad = tmp_path / "slots.json"
        bad.write_text(json.dumps(doc))
        code = main(["verify", str(bad)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "slot_assignment" in captured.err

    @pytest.mark.parametrize(
        "spelling", ["nan", "NaN", "inf", "-inf", "1e999", "-1", "0", "-0.0"]
    )
    def test_explicit_constant_not_finite_positive_bound_exit_two(
        self, capsys, worked_file, spelling
    ):
        code = main(["bound", worked_file, "--regime", f"explicit={spelling}"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "explicit constant must be finite and > 0" in captured.err

    @pytest.mark.parametrize(
        "fields",
        [
            {"regime": "explicit=nan"},
            {"regime": "explicit=inf"},
            {"regime": "explicit=-1"},
            {"regime": "explicit=0"},
            {"regime": "explicit", "K": math.nan},
            {"regime": "explicit", "K": math.inf},
            {"regime": "explicit", "K": -math.inf},
            {"regime": "explicit", "K": -1},
            {"regime": "explicit", "K": 0.0},
            {"regime": "general", "K": math.nan},
            {"regime": "binary_optimal", "K": -1},
            {"regime": "explicit=2", "K": -1},
        ],
        ids=["regime-nan", "regime-inf", "regime-negative", "regime-zero", "K-nan",
             "K-inf", "K-negative-inf", "K-negative", "K-zero", "general-K-nan",
             "binary-K-negative", "K-beside-explicit-value"],
    )
    def test_explicit_constant_not_finite_positive_file_exit_two(
        self, capsys, worked_file, tmp_path, fields
    ):
        doc = {**read_json(worked_file), **fields}
        bad = tmp_path / "explicit.json"
        bad.write_text(json.dumps(doc))  # NaN and Infinity, which json reads back
        for command in ("verify", "bound"):
            code = main([command, str(bad)])
            captured = capsys.readouterr()
            assert code == 2 and captured.out == ""
            assert "explicit constant must be finite and > 0" in captured.err

    @pytest.mark.parametrize("command", ["verify", "bound"])
    @pytest.mark.parametrize(
        "regime, constant",
        [("general", "inf"), ("binary_optimal", "0.0"), ("inductive", "0.0")],
    )
    def test_regime_constant_beyond_float_range_exit_two(
        self, capsys, tmp_path, command, regime, constant
    ):
        if regime == "general":
            # 1093 ternary join nodes of degree 3: K = 2**1093
            m, k = 3, 7
            doc = {"p": [2186.0] * 2186}
        else:
            # 2047 binary join nodes: K = 2**-2047 in the binary-optimal regime,
            # and an f for which the true ratio is about 1
            m, k = 2, 11
            f = 0.5 * 2.0 ** (-1047 / 2047)
            words = (w for level in range(k + 1) for w in itertools.product("12", repeat=level))
            doc = {"p": [2047.0] * 2047, "f": {".".join(w): f for w in words}}
        leaves = [list(w) for w in itertools.product(range(1, m + 1), repeat=k)]
        doc.update(m=m, k=k, config=leaves, regime=regime)
        path = tmp_path / "extreme.json"
        path.write_text(json.dumps(doc))
        code = main([command, str(path)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert f"{regime} constant must be finite and > 0, got {constant}" in captured.err

    @pytest.mark.parametrize("regime", ["general", "binary_optimal", "inductive"])
    def test_right_side_brought_into_range_by_the_constant(self, capsys, tmp_path, regime):
        # every leaf of the depth-10 binary tree, mu = f = 1 and 1023 exponents of
        # 1023: lhs = 2**1023 and the level sums' product is 2**2046, so only a K
        # near 2**-1023 brings the right side into range (binary K = 1 does not)
        leaves = [list(w) for w in itertools.product((1, 2), repeat=10)]
        doc = {"m": 2, "k": 10, "config": leaves, "p": [1023.0] * 1023, "regime": regime}
        path = tmp_path / "edge.json"
        path.write_text(json.dumps(doc))
        code = main(["verify", str(path)])
        captured = capsys.readouterr()
        if regime == "general":
            assert code == 2 and captured.out == ""
            assert "the right side exceeds the float range" in captured.err
        else:
            payload = json.loads(captured.out)
            assert code == 0 and payload["pass"] is True
            assert payload["lhs"] == 2.0**1023
            assert payload["ratio"] == pytest.approx(1.0, rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("command", ["verify", "bound"])
    def test_inductive_arity_past_float_factorials(self, capsys, tmp_path, command):
        # a pair beside a lone particle: the root takes the bracket's upper end
        # 170!, read in logs, and the pair's node the exact 171!/171**2
        doc = {"m": 171, "k": 2, "base": "", "config": [[1, 1], [1, 2], [2, 1]],
               "p": [2.0, 2.0], "regime": "inductive"}
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(doc))
        code, payload = run_cli(capsys, command, str(path))
        assert code == 0
        assert payload["K"] == pytest.approx(170.0 * 170.0 / 171.0, rel=1e-12)
        assert payload["flags"] == ["bracket-upper-K"]

    @pytest.mark.parametrize("command", ["verify", "bound"])
    def test_inductive_gap_past_float_squares(self, capsys, tmp_path, command):
        # the pair's exponent gap has no float square, which exceeds every s,
        # so its node falls in the bracket, not case iv; the estimate's end
        # (about 4e297) lies above (m-1)! = 1, so the node keeps the bracket's end
        doc = {"m": 2, "k": 2, "config": [[1, 1], [1, 2], [2, 1]], "p": [1e300, 1.0],
               "regime": "inductive"}
        path = tmp_path / "gap.json"
        path.write_text(json.dumps(doc))
        code, payload = run_cli(capsys, command, str(path))
        assert code == 0 and payload["flags"] == ["bracket-upper-K"]
        assert math.isfinite(payload["K"]) and payload["K"] > 0.0
        assert payload.get("pass", True) is True

    @pytest.mark.parametrize("numeric", [[], ["--numeric"]], ids=["closed", "numeric"])
    def test_kconst_gap_past_float_squares(self, capsys, numeric):
        code, payload = run_cli(capsys, "kconst", "--a", "1e300", "0", *numeric)
        assert code == 0 and payload["case"] == "ii"

    @pytest.mark.parametrize(
        "a, message",
        [(["1"] * 171, "171! lies beyond the float range"),
         (["inf", "1"], "exponents and their sum must be finite"),
         (["1e308", "1e308"], "exponents and their sum must be finite")],
        ids=["factorial", "infinite-entry", "infinite-sum"],
    )
    def test_kconst_beyond_float_range_exit_two(self, capsys, a, message):
        code = main(["kconst", "--a", *a])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert message in captured.err

    def test_explicit_constant_spellings_accepted(self, capsys, worked_file):
        for spelling in ("0.125", "1e-300", "+2", " 4 "):
            argv = ["bound", worked_file, "--regime", f"explicit={spelling}"]
            code, payload = run_cli(capsys, *argv)
            assert code == 0 and payload["K"] == float(spelling)

    def test_bound_explicit_regime_reads_the_file_constant(self, capsys, worked_file, tmp_path):
        for file_regime in ("explicit", "general"):  # K is kept beside any regime
            doc = {**read_json(worked_file), "regime": file_regime, "K": 0.5}
            path = tmp_path / "with_k.json"
            path.write_text(json.dumps(doc))
            code, payload = run_cli(capsys, "bound", str(path), "--regime", "explicit")
            assert code == 0 and payload["K"] == 0.5 and payload["regime"] == "explicit"
            code, payload = run_cli(capsys, "bound", str(path), "--regime", "explicit=2")
            assert code == 0 and payload["K"] == 2.0
        code = main(["bound", worked_file, "--regime", "explicit"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "" and "needs 'K'" in captured.err

    @pytest.mark.parametrize("command", ["verify", "bound", "energy"])
    @pytest.mark.parametrize(
        "field, keys",
        [
            ("f", ["", "1", "2"] + [f"{a}.{b}" for a in "12" for b in "12"]
             + [f"{a}.{b}.{c}" for a in "12" for b in "12" for c in "12"]),
            ("mu", ["1.1.1", "1.2.1", "2.1.1", "2.1.2"]),
        ],
        ids=["f", "particle-weights"],
    )
    def test_side_beyond_float_range_exit_two(
        self, capsys, worked_file, tmp_path, command, field, keys
    ):
        doc = read_json(worked_file)
        doc[field] = {key: 1e300 for key in keys}
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        code = main([command, str(path)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "exceeds the float range" in captured.err

    def test_star_energy_beyond_float_range_exit_two(self, capsys, tmp_path):
        # nine leaves of weight 1e40 fill a 9-ary star: each term of the
        # injective sum is 1e360, so its products overflow
        doc = {"m": 9, "k": 1, "config": [[c] for c in range(1, 10)], "p": [8.0] * 8,
               "mu": {str(c): 1e40 for c in range(1, 10)}}
        path = tmp_path / "star.json"
        path.write_text(json.dumps(doc))
        code = main(["verify", str(path)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "the orbit energy exceeds the float range" in captured.err

    def test_infinite_ratio_written_as_null(self, capsys, worked_file, tmp_path):
        doc = read_json(worked_file)
        doc["f"] = {v.to_text(): 1e-3 for v in worked_example_configuration().tree.vertices()}
        doc["regime"] = "explicit=5e-324"
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(doc))
        code = main(["verify", str(path)])

        def refuse(constant):
            raise ValueError(f"{constant} is not JSON")

        payload = json.loads(capsys.readouterr().out, parse_constant=refuse)
        assert code == 1 and payload["pass"] is False
        assert payload["rhs"] == 0.0 < payload["lhs"] and payload["ratio"] is None

    def test_parser_built_once_serves_every_call(self, capsys, worked_file):
        from joinforge import cli

        calls = [
            ["fuzz", "--seeds", "0..4", "--m", "3", "--k", "2", "--n", "3"],
            ["example", "--p", "2", "4", "4"],
            ["fuzz", "--seeds", "4..8"],
            ["example"],
            ["bound", worked_file, "--regime", "explicit=0.5"],
            ["bound", worked_file],
        ]

        def stdout_of(argv):
            code = main(argv)
            return code, capsys.readouterr().out

        reused = [stdout_of(argv) for argv in calls]
        assert cli._build_parser() is cli._build_parser()
        for argv, result in zip(calls, reused):
            cli._build_parser.cache_clear()
            assert stdout_of(argv) == result
        parser = cli._build_parser()
        assert parser.parse_args(["fuzz"]).m == [2, 3]
        assert parser.parse_args(["example"]).p == [3.0, 3.0, 3.0]

    def test_usage_error_exit_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["orbit", "nonsense", "whatever.json"])
        assert exc.value.code == 2

    def test_guard_refusal(self, capsys, tmp_path):
        # three leaves of the binary depth-16 tree: an orbit of 2**45 members
        doc = {"m": 2, "k": 16, "config": [[1] * 16, [1, 2] + [1] * 14, [2] * 16],
               "p": [2.0, 2.0]}
        path = tmp_path / "huge_orbit.json"
        path.write_text(json.dumps(doc))
        code, payload = run_cli(capsys, "orbit", "enumerate", str(path))
        assert code == 1
        assert payload["estimate"] == 2**45
        assert "enumeration guard" in payload["error"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "WORKED", "--rel-tol", "1e9"],
            ["verify", "WORKED", "--guard", "1000000000"],
            ["orbit", "enumerate", "WORKED", "--guard", "1000000000"],
            ["energy", "WORKED", "--method", "brute", "--guard", "1000000000"],
            ["equality-check", "WORKED", "--rel-tol", "1"],
            ["fuzz", "--seeds", "0..1", "--rel-tol", "-1"],
            ["kconst", "--m", "2", "--a", "3", "0"],
            ["kconst", "--a", "3", "0", "--numeric", "96"],
        ],
        ids=["verify-rel-tol", "verify-guard", "orbit-guard", "energy-guard",
             "equality-rel-tol", "fuzz-rel-tol", "kconst-arity", "kconst-resolution"],
    )
    def test_tolerance_and_guard_are_not_options(self, capsys, worked_file, argv):
        with pytest.raises(SystemExit) as exc:
            main([worked_file if a == "WORKED" else a for a in argv])
        assert exc.value.code == 2 and capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["fuzz", "--seeds=-3..0"], "non-negative"),
            (["equality-check", "WORKED", "--seed", "-1"], "non-negative"),
            (["fuzz", "--seeds", "0..5", "--jobs", "0"], "jobs"),
            (["fuzz", "--seeds", "3..3"], "empty seed range '3..3'"),
            (["fuzz", "--seeds", "5..3"], "empty seed range '5..3'"),
        ],
        ids=[
            "fuzz-negative-seed", "equality-check-negative-seed", "fuzz-zero-jobs",
            "fuzz-no-seed", "fuzz-reversed-seeds",
        ],
    )
    def test_out_of_range_setting_exit_two(self, capsys, worked_file, argv, message):
        code = main([worked_file if a == "WORKED" else a for a in argv])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "" and message in captured.err

    def test_console_entry_point(self, worked_file):
        exe = shutil.which("joinforge")
        if exe is None:
            result = run_python("-m", "joinforge.cli", "orbit", "size", worked_file)
        else:
            result = subprocess.run(
                [exe, "orbit", "size", worked_file], capture_output=True, text=True
            )
        assert result.returncode == 0
        assert json.loads(result.stdout) == {"size": 64}

    def test_cold_import_loads_no_fuzz_only_module(self):
        # only fuzz uses process pools, CSV output and the median, so verify.py
        # imports them inside the functions that need them, and every other
        # command starts without them
        fuzz_only = ("concurrent.futures", "multiprocessing", "socket", "csv", "statistics")
        result = run_python("-c", (
            "import sys, joinforge, joinforge.cli\n"
            f"loaded = [name for name in {fuzz_only!r} if name in sys.modules]\n"
            "if loaded:\n"
            "    sys.exit(f\"import joinforge, joinforge.cli loaded {', '.join(loaded)}\")\n"
        ))
        assert result.returncode == 0, result.stderr

    def test_one_record_rule(self):
        # a record that only stores its fields is a NamedTuple, which runs no
        # generated dataclass code at import; one that checks, derives or
        # caches is a dataclass
        from joinforge import bounds, energy, tree

        types = {**vars(tree), **vars(orbits), **vars(energy), **vars(bounds), **vars(verify_mod)}
        stores = ("Vertex JoinNode JoinWalk EnergyResult ExponentViolation MuirheadValue "
                  "MuirheadEstimate NodeAccount KInductiveResult Report ExampleReport SeedResult")
        checks = ("TreeParams Configuration ShapeLeaf ShapeNode WeightAssignment LevelFunction "
                  "ExponentAssignment MuirheadSpec Instance InstanceRanges CampaignSpec "
                  "CampaignSummary")
        for name in stores.split():
            record = types[name]
            assert issubclass(record, tuple) and hasattr(record, "_fields"), name
            assert not dataclasses.is_dataclass(record), name
        assert all(dataclasses.is_dataclass(types[name]) for name in checks.split())

    def test_sources_compile_without_warnings(self):
        # a SyntaxWarning, such as the invalid escape sequence that Python 3.12
        # and later report, is an error here, on every supported Python
        tops = ("src", "tests", "bench", "demos")
        sources = [path for top in tops for path in sorted((REPO / top).rglob("*.py"))]
        assert {path.relative_to(REPO).parts[0] for path in sources} == set(tops)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for path in sources:
                compile(path.read_bytes(), str(path), "exec", dont_inherit=True)

    @pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs two CPUs for --jobs 2")
    def test_fuzz_jobs_two_matches_one(self, capsys, tmp_path):
        outputs = []
        for jobs in ("1", "2"):
            csv_path = tmp_path / f"jobs{jobs}.csv"
            code = main(["fuzz", "--seeds", "0..60", "--m", "2", "3", "--k", "3", "--n", "4",
                         "--jobs", jobs, "--csv", str(csv_path)])
            assert code == 0
            outputs.append((capsys.readouterr().out, csv_path.read_bytes()))
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0][0])["count"] == 60
        assert outputs[0][1].count(b"\n") == 61


class TestBruteForceScan:
    def test_pruned_scan_builds_only_the_orbit(self, capsys, tmp_path, monkeypatch):
        # m=3, k=3, n=5: 9,687,600 ordered tuples hold an orbit of 52,488
        path = tmp_path / "seed15.json"
        path.write_text(json.dumps(random_instance(15).to_json_dict()))
        shapes = []
        extract_shape = orbits.extract_shape
        monkeypatch.setattr(
            orbits, "extract_shape", lambda config: shapes.append(config) or extract_shape(config)
        )
        code, brute = run_cli(capsys, "verify", str(path), "--method", "brute")
        assert code == 0 and brute["metadata"]["method"] == "bruteforce"
        assert brute["metadata"]["orbit_terms"] == 52488
        # only the configuration's own shape: members are not re-checked on shape
        assert len(shapes) == 1
        _, factorized = run_cli(capsys, "verify", str(path))
        assert abs(brute["lhs"] - factorized["lhs"]) <= 1e-12 * factorized["lhs"]


def two_leaf_file(tmp_path, k: int) -> str:
    """Leaves 1^k and 2^k of the binary depth-k tree: an orbit of 2**(2k-1)."""
    path = tmp_path / f"two_leaves_{k}.json"
    path.write_text(json.dumps({"m": 2, "k": k, "config": [[1] * k, [2] * k], "p": [1.0]}))
    return str(path)


def whole_orbit_document(path: str) -> str:
    """The output of `orbit enumerate` as one document built in memory."""
    rows = [[p.to_text() for p in member.particles]
            for member in orbit_enumerate(load_instance(path).config)]
    return json.dumps({"count": len(rows), "tuples": rows}, sort_keys=True) + "\n"


class TestOrbitEnumerateStream:
    @pytest.mark.parametrize("rows_per_write", [3, cli_mod._ROWS_PER_WRITE])
    @pytest.mark.parametrize("instance", ["WORKED", 1, 2, 4, 6])
    def test_bytes_match_whole_document(
        self, capsys, monkeypatch, tmp_path, worked_file, instance, rows_per_write
    ):
        # k = 6 has 2048 members, two blocks of the default size
        path = worked_file if instance == "WORKED" else two_leaf_file(tmp_path, instance)
        monkeypatch.setattr(cli_mod, "_ROWS_PER_WRITE", rows_per_write)
        code = main(["orbit", "enumerate", path])
        assert code == 0 and capsys.readouterr().out == whole_orbit_document(path)

    def test_memory_flat_in_orbit_size(self, capsys, monkeypatch, tmp_path, worked_file):
        class Sink:
            """Stdout that counts what is written and keeps none of it."""

            size = 0

            def write(self, text):
                self.size += len(text)

        main(["orbit", "enumerate", worked_file])  # builds the cached parser untraced
        capsys.readouterr()
        peaks = {}
        for k in (6, 8):  # orbits of 2048 and 32768 members
            path = two_leaf_file(tmp_path, k)
            expected = len(whole_orbit_document(path))
            sink = Sink()
            monkeypatch.setattr(sys, "stdout", sink)
            tracemalloc.start()
            try:
                code = main(["orbit", "enumerate", path])
                peaks[k] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
                monkeypatch.undo()
            assert code == 0 and sink.size == expected
        assert peaks[8] <= 2 * peaks[6], peaks
