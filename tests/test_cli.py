"""Command-line interface: outputs, exit codes, determinism."""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import time
import warnings

import pytest

from joinforge import (
    ExponentAssignment,
    Instance,
    LevelFunction,
    WeightAssignment,
    random_instance,
    worked_example_configuration,
)
from joinforge import orbits
import joinforge.energy as energy_mod
import joinforge.verify as verify_mod
from joinforge.cli import main


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
        inst = json.load(open(worked_file))
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

    def test_example(self, capsys):
        code, payload = run_cli(capsys, "example")
        assert code == 0
        assert payload["orbit_count"] == 64
        assert payload["join_points"] == {"": 1, "1": 1, "2.1": 1}
        assert payload["tight_regime"] == "binary_optimal"

    @pytest.mark.parametrize(
        "regime", ["general", "binary-optimal", "inductive", "explicit=2.5"]
    )
    def test_bound_skips_the_energy(self, capsys, worked_file, monkeypatch, regime):
        def no_energy(*args):
            pytest.fail("bound evaluated the orbit energy")

        for module in (energy_mod, verify_mod):
            monkeypatch.setattr(module, "factorized_from_shape", no_energy)
        code, payload = run_cli(capsys, "bound", worked_file, "--regime", regime)
        assert code == 0 and payload["rhs"] > 0.0
        assert payload["join_levels"] == [0, 1, 2]

    def test_fuzz(self, capsys, tmp_path):
        csv_path = tmp_path / "r.csv"
        code, payload = run_cli(
            capsys, "fuzz", "--seeds", "0..40", "--m", "2", "3", "--k", "3",
            "--n", "4", "--csv", str(csv_path),
        )
        assert code == 0
        assert payload["pass"] is True and payload["count"] == 40
        assert csv_path.read_text().splitlines()[0] == "seed,ratio"


class TestCliContract:
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

    def test_missing_field_exit_two(self, capsys, tmp_path):
        bad = tmp_path / "missing.json"
        bad.write_text(json.dumps({"m": 2, "k": 1, "config": [[1], [2]]}))
        code = main(["verify", str(bad)])
        err = capsys.readouterr().err
        assert code == 2 and "'p'" in err

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
        ],
        ids=[
            "leading-zero", "space", "sign", "empty-symbol", "trailing-dot", "leading-dot",
            "zero-symbol", "non-ascii-digit", "two-digits-at-m9", "too-deep", "mu-non-leaf",
            "string-value", "boolean-value",
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
        ],
        ids=["fuzz-negative-seed", "equality-check-negative-seed", "fuzz-zero-jobs"],
    )
    def test_out_of_range_setting_exit_two(self, capsys, worked_file, argv, message):
        code = main([worked_file if a == "WORKED" else a for a in argv])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "" and message in captured.err

    def test_console_entry_point(self, worked_file):
        exe = shutil.which("joinforge")
        if exe is None:
            result = subprocess.run(
                [sys.executable, "-m", "joinforge.cli", "orbit", "size", worked_file],
                capture_output=True, text=True,
            )
        else:
            result = subprocess.run(
                [exe, "orbit", "size", worked_file], capture_output=True, text=True
            )
        assert result.returncode == 0
        assert json.loads(result.stdout) == {"size": 64}


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
        # the orbit size estimate, the target shape, then one per candidate
        assert len(shapes) == 2 + 52488
        _, factorized = run_cli(capsys, "verify", str(path))
        assert abs(brute["lhs"] - factorized["lhs"]) <= 1e-12 * factorized["lhs"]
