"""Instances, reports, equality cases, the worked example, and campaigns."""

from __future__ import annotations

import concurrent.futures
import gc
import json
import math
import os
import types
from dataclasses import replace

import numpy as np
import pytest

from joinforge import (
    CampaignSpec,
    Configuration,
    ConfigurationError,
    ExponentAssignment,
    Instance,
    InstanceRanges,
    LevelFunction,
    ROOT,
    Report,
    TreeParams,
    Vertex,
    WeightAssignment,
    check_equality_case,
    check_inequality,
    extract_shape,
    fuzz_campaign,
    load_instance,
    open_ratio_csv,
    random_instance,
    reproduce_example,
    worked_example_configuration,
)
import joinforge.energy as energy_mod
import joinforge.orbits as orbits_mod
import joinforge.tree as tree_mod
import joinforge.verify as verify_mod

from conftest import REPO, per_vertex, run_python, vx


SHAPE_TYPES = (orbits_mod.ShapeNode, orbits_mod.ShapeLeaf, orbits_mod.JoinNode)


def cyclic_garbage(run) -> list[str]:
    """Names of what ``run()`` leaves in cyclic garbage, objects only the
    cyclic collector would free: joinforge functions, the cells of their
    closures, and shape nodes, leaves and join-node records."""
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        run()
        gc.collect()
        ours = [
            o for o in gc.garbage
            if isinstance(o, types.FunctionType) and o.__module__.startswith("joinforge.")
        ]
        closures = {id(cell) for function in ours for cell in function.__closure__ or ()}
        cells = [o for o in gc.garbage if isinstance(o, types.CellType) and id(o) in closures]
        shapes = [type(o).__name__ for o in gc.garbage if isinstance(o, SHAPE_TYPES)]
        return [o.__qualname__ for o in ours] + ["cell"] * len(cells) + shapes
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()


def refused_instance() -> Instance:
    """Three leaves of the binary depth-16 tree: an orbit of 3.5e13 members,
    refused by the enumeration guard before any tuple is scanned."""
    tree = TreeParams(2, 16)
    particles = (vx(*[1] * 16), vx(1, 2, *[1] * 14), vx(*[2] * 16))
    return Instance(
        config=Configuration(tree, ROOT, particles),
        weights=WeightAssignment.constant(tree),
        f=LevelFunction.constant(tree),
        exponents=ExponentAssignment((2.0, 2.0)),
    )


def worked_instance(regime="binary_optimal", p=(3.0, 3.0, 3.0), **kwargs) -> Instance:
    config = worked_example_configuration()
    tree = config.tree
    return Instance(
        config=config,
        weights=kwargs.pop("weights", WeightAssignment.constant(tree)),
        f=kwargs.pop("f", LevelFunction.constant(tree)),
        exponents=ExponentAssignment(p),
        regime=regime,
        **kwargs,
    )


class TestInstanceJson:
    def test_round_trip(self):
        inst = worked_instance(seed=9)
        data = inst.to_json_dict()
        again = Instance.from_json_dict(json.loads(json.dumps(data)))
        assert again.to_json_dict() == data

    def test_defaults_fill_in(self):
        data = {
            "m": 2,
            "k": 2,
            "base": "",
            "config": [[1, 1], [2, 2]],
            "p": [1.0],
            "regime": "general",
        }
        inst = Instance.from_json_dict(data)
        assert inst.weights.weight(vx(1, 2)) == 1.0
        assert inst.f(ROOT) == 1.0

    def test_slot_assignment_permutes(self):
        data = {
            "m": 2,
            "k": 3,
            "base": "",
            "config": [[1, 1, 1], [1, 2, 1], [2, 1, 1], [2, 1, 2]],
            "p": [2.0, 3.0, 6.0],
            "slot_assignment": {"0": 2, "1": 1, "2": 0},
            "regime": "general",
        }
        inst = Instance.from_json_dict(data)
        assert inst.exponents.exponents == (6.0, 3.0, 2.0)

    @pytest.mark.parametrize("regime", ["general", "binary_optimal", "inductive", "explicit"])
    @pytest.mark.parametrize("k", [math.nan, math.inf, -1.0, 0.0])
    def test_constant_not_finite_positive_refused_under_every_regime(
        self, worked_config, regime, k
    ):
        tree = worked_config.tree
        with pytest.raises(ConfigurationError, match="constant must be finite and > 0"):
            Instance(
                worked_config,
                WeightAssignment.constant(tree),
                LevelFunction.constant(tree),
                ExponentAssignment((3.0, 3.0, 3.0)),
                regime=regime,
                explicit_k=k,
            )

    @pytest.mark.parametrize(
        "k, message",
        [("0.5", "the explicit constant must be a JSON number"),
         (True, "the explicit constant must be a JSON number"),
         (np.bool_(True), "the explicit constant must be a JSON number"),
         (10**400, "the explicit constant is too large for a float")],
        ids=["string", "boolean", "numpy-boolean", "beyond-float-range"],
    )
    def test_constant_read_by_the_file_number_rule(self, worked_config, k, message):
        tree = worked_config.tree
        with pytest.raises(ConfigurationError, match=message):
            Instance(
                worked_config,
                WeightAssignment.constant(tree),
                LevelFunction.constant(tree),
                ExponentAssignment((3.0, 3.0, 3.0)),
                regime="explicit",
                explicit_k=k,
            )

    @pytest.mark.parametrize(
        "k, value", [(np.float32(0.5), 0.5), (np.int64(2), 2.0), (np.float64(0.25), 0.25)],
        ids=["float32", "int64", "float64"],
    )
    def test_constant_takes_numpy_scalars_as_exponents_do(self, k, value):
        inst = replace(worked_instance(), regime="explicit", explicit_k=k)
        assert inst.explicit_k == value and type(inst.explicit_k) is float
        assert check_inequality(inst).k_constant == value

    def test_file_numbers_take_numpy_scalars(self):
        data = {"m": 2, "k": 1, "config": [[1], [2]], "p": [np.float32(2.0)],
                "coexponent": np.int64(1), "regime": "explicit", "K": np.float32(0.5)}
        inst = Instance.from_json_dict(data)
        assert inst.exponents == ExponentAssignment((2.0,), 1.0) and inst.explicit_k == 0.5
        assert json.dumps(inst.to_json_dict())  # held as Python floats

    def test_explicit_regime_needs_a_constant(self, worked_config):
        tree = worked_config.tree
        with pytest.raises(ConfigurationError, match="explicit regime needs 'K'"):
            Instance(
                worked_config,
                WeightAssignment.constant(tree),
                LevelFunction.constant(tree),
                ExponentAssignment((3.0, 3.0, 3.0)),
                regime="explicit",
            )

    def test_explicit_regime_spellings(self):
        base = {
            "m": 2,
            "k": 1,
            "base": "",
            "config": [[1], [2]],
            "p": [1.0],
        }
        one = Instance.from_json_dict({**base, "regime": "explicit", "K": 0.5})
        two = Instance.from_json_dict({**base, "regime": "explicit=0.5"})
        assert one.explicit_k == two.explicit_k == 0.5
        three = Instance.from_json_dict({**base, "regime": "binary-optimal"})
        assert three.regime == "binary_optimal"
        # a K beside another regime is kept for a later explicit one, and written back
        four = Instance.from_json_dict({**base, "regime": "general", "K": 0.5})
        assert four.explicit_k == 0.5 and four.to_json_dict()["K"] == 0.5

    @pytest.mark.parametrize("m, k, base", [(10, 2, ""), (11, 2, "11"), (2, 4, "2.1")])
    def test_level_arrays_written_per_vertex_and_read_back(self, m, k, base):
        tree = TreeParams(m, k)
        rng = np.random.default_rng(m)
        leaves = list(tree.leaves_below(Vertex.from_text(base)))
        particles = tuple(leaves[i] for i in rng.choice(len(leaves), 3, replace=False))
        mu = rng.uniform(0.0, 2.0, tree.leaf_count)
        mu[rng.random(mu.size) < 0.3] = 0.0
        inst = Instance(
            config=Configuration(tree, Vertex.from_text(base), particles),
            weights=WeightAssignment(tree, mu),
            f=LevelFunction(tree, rng.uniform(0.5, 2.0, tree.vertex_count)),
            exponents=ExponentAssignment((2.0, 2.0)),
        )
        data = inst.to_json_dict()
        # every vertex once, level by level in rank order, as weight() and f() read it
        assert list(data["mu"]) == [v.to_text() for v in tree.leaves()]
        assert list(data["f"]) == [v.to_text() for v in tree.vertices()]
        assert data["mu"] == {v.to_text(): inst.weights.weight(v) for v in tree.leaves()}
        assert data["f"] == {v.to_text(): inst.f(v) for v in tree.vertices()}
        assert 0.0 in data["mu"].values()
        again = Instance.from_json_dict(json.loads(json.dumps(data)))
        assert np.array_equal(again.weights.leaf_array, inst.weights.leaf_array)
        assert all(map(np.array_equal, again.f.levels, inst.f.levels))
        assert again.to_json_dict() == data

    def test_integer_numbers_accepted(self):
        data = {"m": 2, "k": 1, "config": [[1], [2]], "p": [2], "coexponent": 1,
                "regime": "explicit", "K": 1}
        inst = Instance.from_json_dict(data)
        assert inst.exponents == ExponentAssignment((2.0,), 1.0) and inst.explicit_k == 1.0
        inst = Instance.from_json_dict({**data, "coexponent": None})
        assert inst.exponents.coexponent == 0.0

    def test_missing_field_diagnostic(self):
        with pytest.raises(ConfigurationError, match="'p'"):
            Instance.from_json_dict({"m": 2, "k": 1, "config": [[1], [2]]})

    def test_bad_vertex_diagnostic(self):
        data = {"m": 2, "k": 1, "base": "", "config": [[1], [7]], "p": [1.0]}
        with pytest.raises(ConfigurationError):
            Instance.from_json_dict(data)


class TestCheckInequality:
    def test_worked_equality(self):
        report = check_inequality(worked_instance())
        assert report.passed
        assert report.lhs == pytest.approx(64.0)
        assert report.rhs == pytest.approx(64.0, rel=1e-12)
        assert report.ratio == pytest.approx(1.0, rel=1e-12)
        assert report.metadata["join_levels"] == [0, 1, 2]

    def test_zero_measure_is_vacuous(self):
        tree = TreeParams(2, 3)
        inst = worked_instance(weights=WeightAssignment.constant(tree, 0.0))
        report = check_inequality(inst)
        assert report.passed and report.lhs == 0.0 and report.rhs == 0.0
        assert report.ratio == 1.0

    def test_invalid_exponents_embedded(self):
        inst = worked_instance(p=(2.0, 2.0))
        report = check_inequality(inst)
        assert not report.passed
        assert any(flag.startswith("invalid-exponents") for flag in report.flags)
        assert math.isnan(report.lhs)

    @pytest.mark.parametrize("regime", ["general", "binary_optimal", "inductive"])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_infinite_exponent_reported_invalid(self, worked_config, regime):
        # 1/inf + 1/1 sums to 1, which conjugacy alone would accept
        tree = worked_config.tree
        inst = Instance(
            config=Configuration(tree, ROOT, worked_config.particles[:3]),
            weights=WeightAssignment.constant(tree),
            f=LevelFunction.constant(tree),
            exponents=ExponentAssignment((math.inf, 1.0)),
            regime=regime,
        )
        report = check_inequality(inst)
        assert report.flags == ("invalid-exponents:finiteness",) and not report.passed
        assert report.metadata["violation"] == "exponents must be finite, found [inf]"
        assert all(math.isnan(x) for x in (report.lhs, report.rhs, report.k_constant))

    def test_bruteforce_method(self):
        report = check_inequality(worked_instance(), method="brute")
        assert report.metadata["method"] == "bruteforce"
        assert report.metadata["orbit_terms"] == 64
        assert report.passed

    def test_guard_falls_back_to_factorized(self):
        report = check_inequality(refused_instance(), method="brute")
        assert "enumeration-guard" in report.flags
        assert report.metadata["method"] == "factorized"
        assert report.passed

    @pytest.mark.parametrize("method", ["factorized", "brute"])
    def test_shape_and_masses_derived_once(self, monkeypatch, method):
        counts = {"extract_shape": 0, "cylinder_masses": 0}
        for module, name in ((orbits_mod, "extract_shape"), (tree_mod, "cylinder_masses")):

            def counted(*args, _name=name, _original=getattr(module, name)):
                counts[_name] += 1
                return _original(*args)

            monkeypatch.setattr(module, name, counted)
        # the orbit exceeds the enumeration guard, so brute falls back to factorized
        report = check_inequality(refused_instance(), method=method)
        assert report.passed and report.metadata["method"] == "factorized"
        assert counts == {"extract_shape": 1, "cylinder_masses": 1}

    def test_shared_weights_give_their_masses_once(self, monkeypatch):
        calls = []
        masses = tree_mod.cylinder_masses
        monkeypatch.setattr(
            tree_mod, "cylinder_masses", lambda *args: calls.append(args) or masses(*args)
        )
        first = worked_instance()
        second = worked_instance(regime="general", weights=first.weights)
        assert check_inequality(first).passed and check_inequality(second).passed
        assert len(calls) == 1

    @pytest.mark.parametrize("regime", ["general", "binary_optimal", "inductive"])
    def test_random_instance_shape_extracted_and_walked_once(self, monkeypatch, regime):
        counts = {}
        for module, name in ((orbits_mod, "extract_shape"), (orbits_mod, "_join_nodes")):

            def counted(*args, _name=name, _original=getattr(module, name)):
                counts[_name] += 1
                return _original(*args)

            monkeypatch.setattr(module, name, counted)
        arities = (2,) if regime == "binary_optimal" else (2, 3)
        ranges = InstanceRanges(arities=arities, max_particles=7, regime=regime)
        for seed in range(30):
            counts.update(extract_shape=0, _join_nodes=0)
            report = check_inequality(random_instance(seed, ranges))
            assert report.passed
            assert counts == {"extract_shape": 1, "_join_nodes": 1}

    def test_condition_failure_flag_and_fallback(self):
        inst = worked_instance(p=(6.0, 1.5, 6.0))
        report = check_inequality(inst)
        assert "halves-condition-failure" in report.flags
        assert report.k_constant == 1.0
        assert report.passed

    def test_explicit_too_small_fails(self):
        inst = worked_instance(regime="explicit", explicit_k=1e-9)
        report = check_inequality(inst)
        assert not report.passed and report.ratio > 1.0

    def test_inductive_regime_binary(self):
        report = check_inequality(worked_instance(regime="inductive"))
        assert report.passed
        assert report.k_constant == pytest.approx(0.125, rel=1e-9)

    def test_inductive_regime_flags_estimated(self):
        # a pair beside a lone particle: the root's subtree branch puts it in case ii
        tree = TreeParams(3, 2)
        inst = Instance(
            config=Configuration(tree, ROOT, (vx(1, 1), vx(1, 2), vx(2, 1))),
            weights=WeightAssignment.constant(tree),
            f=LevelFunction.constant(tree),
            exponents=ExponentAssignment((2.0, 2.0)),
            regime="inductive",
        )
        report = check_inequality(inst)
        assert report.flags == ("estimated-K",)
        assert report.passed

    def test_inductive_regime_wide_star_beyond_estimator(self):
        # a degree-4 root whose first branch is a pair: no closed form at the root
        tree = TreeParams(7, 2)
        particles = (vx(1, 1), vx(1, 2), vx(2, 2), vx(3, 3), vx(4, 4))
        rng = np.random.default_rng(3)
        inst = Instance(
            config=Configuration(tree, ROOT, particles),
            weights=WeightAssignment(tree, [rng.uniform(0.1, 2.0) for _ in tree.leaves()]),
            f=LevelFunction(tree, per_vertex(tree, lambda: rng.uniform(0.5, 2.0))),
            exponents=ExponentAssignment((4.0,) * 4),
            regime="inductive",
        )
        report = check_inequality(inst)
        assert report.passed and math.isfinite(report.k_constant)
        assert "bracket-upper-K" in report.flags
        assert "estimated-K" not in report.flags

    def test_recursive_form_with_coexponent(self):
        # exponent reciprocals sum to 1 - 1/alpha; the base mass enters the bound
        tree = TreeParams(2, 3)
        config = Configuration(tree, vx(1), (vx(1, 1, 1), vx(1, 2, 2)))
        rng = np.random.default_rng(8)
        weights = WeightAssignment(tree, [rng.uniform(0.1, 2.0) for _ in tree.leaves()])
        f = LevelFunction(tree, per_vertex(tree, lambda: rng.uniform(0.5, 2.0)))
        inst = Instance(
            config=config,
            weights=weights,
            f=f,
            exponents=ExponentAssignment((1.0 / 0.7,), coexponent=0.3),
            regime="general",
        )
        report = check_inequality(inst)
        assert report.passed


class TestNoReferenceCycles:
    # a recursion by nested closures leaves a function-cell cycle per call,
    # which holds the shape and the energy's arrays until the cyclic
    # collector runs; so does a shape whose cached join-node records hold
    # the node that caches them
    @pytest.mark.parametrize("regime", ["general", "binary_optimal", "inductive"])
    def test_seeded_checks(self, regime):
        arities = (2,) if regime == "binary_optimal" else (2, 3)
        ranges = InstanceRanges(arities=arities, regime=regime)

        def run():
            for seed in range(20):
                check_inequality(random_instance(seed, ranges))

        assert cyclic_garbage(run) == []

    @pytest.mark.parametrize("regime", ["general", "inductive"])
    def test_star_file(self, tmp_path, regime):
        tree = TreeParams(8, 2)
        doc = {
            "m": 8, "k": 2, "base": "", "config": [[1, 2], [3, 4], [5, 6], [8, 8]],
            "mu": tree_mod.keyed_map(tree, [np.linspace(0.5, 2.0, 64)]),
            "f": tree_mod.keyed_map(tree, [np.full(8**level, 1.5) for level in range(3)]),
            "p": [3.0, 3.0, 3.0], "regime": regime,
        }
        path = tmp_path / "star.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        reports = []
        assert cyclic_garbage(lambda: reports.append(check_inequality(load_instance(path)))) == []
        assert reports[0].passed


class TestEqualityCase:
    def test_worked_shape_with_levels(self, worked_config):
        report = check_equality_case(worked_config, ExponentAssignment((3.0, 3.0, 3.0)), seed=5)
        assert report.passed
        assert report.ratio == pytest.approx(1.0, rel=1e-9)

    def test_two_particles_depth_one(self):
        config = Configuration(TreeParams(2, 1), ROOT, (vx(1), vx(2)))
        report = check_equality_case(config, ExponentAssignment((1.0,)), seed=3)
        assert report.passed and report.ratio == pytest.approx(1.0, rel=1e-9)

    def test_condition_violation_skipped(self, worked_config):
        report = check_equality_case(worked_config, ExponentAssignment((6.0, 1.5, 6.0)))
        assert report.passed
        assert report.flags == ("skipped-condition-not-met",)
        sides = (report.lhs, report.rhs, report.k_constant, report.ratio)
        assert all(math.isnan(x) for x in sides)
        assert report.metadata == {
            "seed": 0,
            "shape": worked_config.shape.serialized,
            "join_levels": [0, 1, 2],
            "reason": "halves condition not satisfied",
        }

    def test_invalid_exponents_reported_as_verify_reports_them(self, worked_config):
        report = check_equality_case(worked_config, ExponentAssignment((0.0, 3.0, 3.0)))
        assert not report.passed
        assert report.flags == ("invalid-exponents:positivity",)
        assert math.isnan(report.lhs) and math.isnan(report.rhs)

    def test_hundred_random_shapes(self):
        ranges = InstanceRanges(arities=(2,), max_depth=4, max_particles=6,
                                regime="binary_optimal")
        for seed in range(100):
            inst = random_instance(seed, ranges)
            report = check_equality_case(inst.config, inst.exponents, seed=seed)
            assert "skipped-condition-not-met" not in report.flags
            assert report.passed, (seed, report.ratio)
            assert report.ratio == pytest.approx(1.0, rel=1e-9)

    def test_non_binary_rejected(self):
        config = Configuration(TreeParams(3, 1), ROOT, (vx(1), vx(2)))
        with pytest.raises(ConfigurationError):
            check_equality_case(config, ExponentAssignment((1.0,)))

    def test_negative_seed_rejected(self, worked_config):
        with pytest.raises(ConfigurationError, match="non-negative"):
            check_equality_case(worked_config, ExponentAssignment((3.0, 3.0, 3.0)), seed=-1)

    @pytest.mark.parametrize("seed", [1.5, True, "3"])
    def test_non_integer_seed_rejected(self, worked_config, seed):
        with pytest.raises(ConfigurationError, match="seed must be an integer"):
            check_equality_case(worked_config, ExponentAssignment((3.0, 3.0, 3.0)), seed=seed)

    def test_off_root_base(self):
        # configurations below vertex 1.2 of the binary depth-5 tree, with
        # exponents whose top branch budgets meet the halves condition
        tree, base = TreeParams(2, 5), vx(1, 2)
        leaves = list(tree.leaves_below(base))
        rng = np.random.default_rng(19)
        for draw in range(19):
            n = int(rng.integers(2, 7))
            picks = rng.choice(len(leaves), size=n, replace=False)
            config = Configuration(tree, base, tuple(leaves[i] for i in picks))
            exponents = verify_mod._random_exponents(config, "binary_optimal", rng)
            report = check_equality_case(config, exponents, seed=draw)
            assert "skipped-condition-not-met" not in report.flags
            assert report.passed and abs(report.ratio - 1.0) <= 1e-9, (draw, report.ratio)
            assert min(report.metadata["join_levels"]) >= base.level


class TestReproduceExample:
    def test_invariants(self):
        report = reproduce_example()
        assert report.orbit_count == 64
        assert report.join_points == {"": 1, "1": 1, "2.1": 1}
        assert report.displayed_constant == pytest.approx(32.0, rel=1e-12)
        assert report.report_binary_optimal.ratio == pytest.approx(1.0, rel=1e-9)
        assert report.report_displayed.passed
        assert report.report_displayed.ratio == pytest.approx(1.0 / 256.0, rel=1e-9)
        assert report.tight_regime == "binary_optimal"
        assert "displayed-constant-not-tight" in report.flags

    def test_other_conjugate_exponents(self):
        report = reproduce_example(p=(2.5, 4.0, 3.0 + 1.0 / 3.0))
        # reciprocals: 0.4 + 0.25 + 0.3 = 0.95 -- not conjugate, must flag
        assert not report.report_binary_optimal.passed or report.report_binary_optimal.flags

    def test_conjugate_alternative(self):
        report = reproduce_example(p=(2.0, 4.0, 4.0))
        assert report.report_binary_optimal.ratio == pytest.approx(1.0, rel=1e-9)


class TestRandomInstance:
    def test_seed_determinism(self):
        a = random_instance(123).to_json_dict()
        b = random_instance(123).to_json_dict()
        assert a == b

    @pytest.mark.parametrize(
        "seed, message",
        [
            (True, "seed must be an integer, got True"),
            (1.5, "seed must be an integer, got 1.5"),
            (-1, "seed must be non-negative, got -1"),
            (np.int64(3), "seed must be an integer, got "),
        ],
        ids=["boolean", "fractional", "negative", "numpy-integer"],
    )
    def test_seed_refused(self, seed, message):
        # the rule of CampaignSpec's seeds and check_equality_case's seed
        with pytest.raises(ConfigurationError, match=message):
            random_instance(seed)

    def test_all_leaves_when_saturated(self):
        ranges = InstanceRanges(arities=(2,), max_depth=1, max_particles=2)
        inst = random_instance(0, ranges)
        assert set(inst.config.particles) == set(inst.tree.leaves())

    def test_sampled_exponents_validate(self):
        from joinforge import validate_exponents

        for seed in range(100):
            inst = random_instance(seed)
            assert validate_exponents(inst.shape, inst.exponents) is None

    def test_binary_optimal_sampler_meets_condition(self):
        from joinforge import regime_constant

        ranges = InstanceRanges(arities=(2,), regime="binary_optimal")
        for seed in range(50):
            inst = random_instance(seed, ranges)
            _, flags = regime_constant(inst.shape, inst.exponents, 2, "binary_optimal")
            assert "halves-condition-failure" not in flags

    def test_bad_ranges(self):
        with pytest.raises(ConfigurationError):
            InstanceRanges(arities=(2, 3), regime="binary_optimal")
        with pytest.raises(ConfigurationError):
            InstanceRanges(regime="explicit")
        with pytest.raises(ConfigurationError):
            InstanceRanges(max_particles=1)

    @pytest.mark.parametrize(
        "settings, message",
        [
            ({"arities": (2.7,)}, "arities must be integers >= 2"),
            ({"arities": (2, 3.0)}, "arities must be integers >= 2"),
            ({"max_depth": 2.5}, "max_depth must be an integer >= 1"),
            ({"max_depth": True}, "max_depth must be an integer >= 1"),
            ({"max_particles": 4.0}, "max_particles must be an integer >= 2"),
        ],
        ids=["fractional-arity", "float-arity", "fractional-depth", "bool-depth", "float-particles"],
    )
    def test_ranges_are_integers(self, settings, message):
        with pytest.raises(ConfigurationError, match=message):
            InstanceRanges(**settings)

    def test_ranges_refused_by_their_largest_tree(self):
        InstanceRanges(arities=(2,), max_depth=21)  # 4,194,303 vertices: held
        tree = TreeParams(3, 22)
        with pytest.raises(ConfigurationError) as from_arrays:
            tree_mod.keyed_levels(tree, tree.depth, {}, 0.0)
        with pytest.raises(ConfigurationError) as from_ranges:
            InstanceRanges(arities=(2, 3), max_depth=22)
        assert str(from_ranges.value) == str(from_arrays.value)
        assert "m=3, k=22 has 47071589413 vertices, over the limit of" in str(from_ranges.value)


class TestReportJson:
    def test_nan_round_trip_as_null(self):
        report = check_inequality(worked_instance(p=(2.0, 2.0)))
        assert math.isnan(report.lhs)
        data = json.loads(json.dumps(report.to_json_dict()))
        assert data["lhs"] is None and data["rhs"] is None and data["ratio"] is None


class TestFuzzCampaign:
    def test_small_campaign_clean(self):
        summary = fuzz_campaign(CampaignSpec(seed_start=0, seed_count=200))
        assert summary.passed and summary.count == 200
        assert summary.min_ratio >= 0.0
        assert summary.min_ratio_positive_weights > 0.0

    def test_sharding_independent(self):
        spec1 = CampaignSpec(seed_start=50, seed_count=60, jobs=1)
        spec2 = CampaignSpec(seed_start=50, seed_count=60, jobs=2)
        one = fuzz_campaign(spec1)
        two = fuzz_campaign(spec2)
        assert one.to_json_dict() == two.to_json_dict()
        assert [r.ratio for r in one.results] == [r.ratio for r in two.results]

    @pytest.mark.parametrize(
        "settings, message",
        [
            ({"seed_start": -3}, "non-negative"),
            ({"seed_count": -3}, "seed count must be non-negative, got -3"),
            ({"jobs": 0}, "jobs"),
            ({"jobs": (os.cpu_count() or 1) + 1}, "jobs"),
            ({"seed_start": 1.5}, "seed_start must be an integer, got 1.5"),
            ({"seed_count": True}, "seed_count must be an integer, got True"),
            ({"jobs": 1.0}, "jobs must be an integer, got 1.0"),
            ({"jobs": True}, "jobs must be an integer, got True"),
        ],
        ids=["negative-seed", "negative-count", "zero-jobs", "jobs-above-cpu-count",
             "fractional-start", "boolean-count", "float-jobs", "boolean-jobs"],
    )
    def test_out_of_range_refused_before_any_pool(self, monkeypatch, settings, message):
        def no_pool(*args, **kwargs):
            pytest.fail("a process pool was constructed")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        with pytest.raises(ConfigurationError, match=message):
            fuzz_campaign(CampaignSpec(**{"seed_count": 5, **settings}))

    def test_empty_campaign_allowed(self):
        # a count of 0 checks nothing and passes; only a negative count is
        # refused (the command line refuses `fuzz --seeds 5..5` before this)
        summary = fuzz_campaign(CampaignSpec(seed_start=5, seed_count=0))
        assert summary.count == 0 and summary.passed

    def test_csv_output(self, tmp_path):
        summary = fuzz_campaign(CampaignSpec(seed_start=0, seed_count=5))
        path = tmp_path / "ratios.csv"
        summary.write_ratio_csv(open_ratio_csv(str(path)))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "seed,ratio"
        assert len(lines) == 6
        seeds = [int(line.split(",")[0]) for line in lines[1:]]
        assert seeds == [0, 1, 2, 3, 4]

    def test_violation_reporting(self, monkeypatch):
        real = verify_mod.check_inequality

        def rigged(inst, **kwargs):
            report = real(inst, **kwargs)
            if inst.seed == 3:
                return Report(
                    lhs=2.0, rhs=1.0, k_constant=1.0, ratio=2.0, passed=False,
                    flags=report.flags, metadata=report.metadata,
                )
            return report

        monkeypatch.setattr(verify_mod, "check_inequality", rigged)
        summary = fuzz_campaign(CampaignSpec(seed_start=0, seed_count=6))
        assert not summary.passed
        assert len(summary.violations) == 1
        record = summary.violations[0]
        assert record["seed"] == 3
        assert "instance" in record and record["instance"]["m"] in (2, 3)


def test_seed_ladder_runs():
    # the timing script outside pytest's collection, one round per stage
    result = run_python(str(REPO / "tests" / "seed_ladder.py"), "--rounds", "1")
    assert result.returncode == 0, result.stderr
    times = json.loads(result.stdout)
    assert sorted(times) == ["binary_optimal", "general", "inductive"]
    stages = {
        "random_instance", "draw_checks", "exponents", "extract_shape", "join_nodes",
        "cylinder_masses", "factorized_from_shape", "constant", "rhs_product", "check", "seed",
        "interleaved_draw", "interleaved_check",
    }
    for regime, got in times.items():
        extra = set()
        if regime == "inductive":
            extra = {"k_inductive"} | {
                f"{name}{suffix}" for name in ("muirhead_numeric", "numeric_per_seed")
                for suffix in ("", "_m2", "_m3")
            }
        assert set(got) == stages | extra | {"check_glue"}, regime
        assert all(got[stage] > 0.0 for stage in stages | extra), regime
        # a difference of timings, so a single noisy round may leave it at or below 0
        assert math.isfinite(got["check_glue"]), regime
        if regime == "inductive":  # every estimated sum has one of the two arities
            per_arity = got["numeric_per_seed_m2"] + got["numeric_per_seed_m3"]
            assert per_arity == pytest.approx(got["numeric_per_seed"], abs=0.002)
        parts = got["factorized_from_shape"] + got["constant"] + got["rhs_product"]
        assert got["check_glue"] == pytest.approx(got["check"] - parts, abs=0.01), regime
