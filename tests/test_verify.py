"""Instances, reports, equality cases, the worked example, and campaigns."""

from __future__ import annotations

import json
import math
import os

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
    WeightAssignment,
    check_equality_case,
    check_inequality,
    extract_shape,
    fuzz_campaign,
    random_instance,
    reproduce_example,
    worked_example_configuration,
)
import joinforge.energy as energy_mod
import joinforge.orbits as orbits_mod
import joinforge.verify as verify_mod

from conftest import vx


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
        for module in (verify_mod, energy_mod):
            for name in counts:

                def counted(*args, _name=name, _original=getattr(module, name)):
                    counts[_name] += 1
                    return _original(*args)

                monkeypatch.setattr(module, name, counted)
        # the orbit exceeds the enumeration guard, so brute falls back to factorized
        report = check_inequality(refused_instance(), method=method)
        assert report.passed and report.metadata["method"] == "factorized"
        assert counts == {"extract_shape": 1, "cylinder_masses": 1}

    @pytest.mark.parametrize("regime", ["general", "binary_optimal", "inductive"])
    def test_random_instance_shape_extracted_and_walked_once(self, monkeypatch, regime):
        counts = {}
        for module, name in ((verify_mod, "extract_shape"), (orbits_mod, "_join_nodes")):

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
        tree = TreeParams(3, 1)
        inst = Instance(
            config=Configuration(tree, ROOT, (vx(1), vx(2))),
            weights=WeightAssignment.constant(tree),
            f=LevelFunction.constant(tree),
            exponents=ExponentAssignment((1.0,)),
            regime="inductive",
        )
        report = check_inequality(inst)
        assert "estimated-K" in report.flags
        assert report.passed  # estimate equals the sharp constant here

    def test_inductive_regime_wide_star_beyond_estimator(self):
        tree = TreeParams(7, 2)
        particles = tuple(vx(c, c) for c in range(1, 6))
        rng = np.random.default_rng(3)
        inst = Instance(
            config=Configuration(tree, ROOT, particles),
            weights=WeightAssignment(
                tree, {leaf: float(rng.uniform(0.1, 2.0)) for leaf in tree.leaves()}
            ),
            f=LevelFunction(tree, {v: float(rng.uniform(0.5, 2.0)) for v in tree.vertices()}),
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
        weights = WeightAssignment(
            tree, {leaf: float(rng.uniform(0.1, 2.0)) for leaf in tree.leaves()}
        )
        f = LevelFunction(tree, {v: float(rng.uniform(0.5, 2.0)) for v in tree.vertices()})
        inst = Instance(
            config=config,
            weights=weights,
            f=f,
            exponents=ExponentAssignment((1.0 / 0.7,), coexponent=0.3),
            regime="general",
        )
        report = check_inequality(inst)
        assert report.passed


class TestEqualityCase:
    def test_worked_shape_with_levels(self, worked_config):
        shape = extract_shape(worked_config)
        report = check_equality_case(worked_config.tree, shape, (3.0, 3.0, 3.0), seed=5)
        assert report.passed
        assert report.ratio == pytest.approx(1.0, rel=1e-9)

    def test_two_particles_depth_one(self):
        tree = TreeParams(2, 1)
        shape = extract_shape(Configuration(tree, ROOT, (vx(1), vx(2))))
        report = check_equality_case(tree, shape, (1.0,), seed=3)
        assert report.passed and report.ratio == pytest.approx(1.0, rel=1e-9)

    def test_condition_violation_skipped(self, worked_config):
        shape = extract_shape(worked_config)
        report = check_equality_case(worked_config.tree, shape, (6.0, 1.5, 6.0))
        assert report.passed
        assert "skipped-condition-not-met" in report.flags

    def test_hundred_random_shapes(self):
        ranges = InstanceRanges(arities=(2,), max_depth=4, max_particles=6,
                                regime="binary_optimal")
        for seed in range(100):
            inst = random_instance(seed, ranges)
            report = check_equality_case(
                inst.tree, inst.shape, inst.exponents.exponents, seed=seed
            )
            assert "skipped-condition-not-met" not in report.flags
            assert report.passed, (seed, report.ratio)
            assert report.ratio == pytest.approx(1.0, rel=1e-9)

    def test_non_binary_rejected(self):
        tree = TreeParams(3, 1)
        shape = extract_shape(Configuration(tree, ROOT, (vx(1), vx(2))))
        with pytest.raises(ConfigurationError):
            check_equality_case(tree, shape, (1.0,))

    def test_negative_seed_rejected(self, worked_config):
        shape = extract_shape(worked_config)
        with pytest.raises(ConfigurationError, match="non-negative"):
            check_equality_case(worked_config.tree, shape, (3.0, 3.0, 3.0), seed=-1)


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
        from joinforge import k_binary

        ranges = InstanceRanges(arities=(2,), regime="binary_optimal")
        for seed in range(50):
            inst = random_instance(seed, ranges)
            assert k_binary(inst.shape, inst.exponents).condition_met

    def test_bad_ranges(self):
        with pytest.raises(ConfigurationError):
            InstanceRanges(arities=(2, 3), regime="binary_optimal")
        with pytest.raises(ConfigurationError):
            InstanceRanges(regime="explicit")
        with pytest.raises(ConfigurationError):
            InstanceRanges(max_particles=1)


class TestReportJson:
    def test_round_trip(self):
        report = check_inequality(worked_instance())
        data = json.loads(json.dumps(report.to_json_dict()))
        again = Report.from_json_dict(data)
        assert again == report

    def test_nan_round_trip_as_null(self):
        report = check_inequality(worked_instance(p=(2.0, 2.0)))
        data = json.loads(json.dumps(report.to_json_dict()))
        assert data["lhs"] is None
        again = Report.from_json_dict(data)
        assert math.isnan(again.lhs)


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
            ({"jobs": 0}, "jobs"),
            ({"jobs": (os.cpu_count() or 1) + 1}, "jobs"),
        ],
        ids=["negative-seed", "zero-jobs", "jobs-above-cpu-count"],
    )
    def test_out_of_range_refused_before_any_pool(self, monkeypatch, settings, message):
        def no_pool(*args, **kwargs):
            pytest.fail("a process pool was constructed")

        monkeypatch.setattr(verify_mod, "ProcessPoolExecutor", no_pool)
        with pytest.raises(ConfigurationError, match=message):
            fuzz_campaign(CampaignSpec(seed_count=5, **settings))

    def test_csv_output(self, tmp_path):
        summary = fuzz_campaign(CampaignSpec(seed_start=0, seed_count=5))
        path = tmp_path / "ratios.csv"
        summary.write_ratio_csv(str(path))
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
