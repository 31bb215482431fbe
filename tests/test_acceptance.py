"""Acceptance criteria, one test per criterion, at the stated tolerances.

Each test prints a single ``ACCEPTANCE n ... PASS`` line on success (visible
with ``pytest -s``); a failure surfaces through the normal pytest report.
Stated runtime limits are asserted.
"""

from __future__ import annotations

import itertools
import math
import time

import numpy as np
import pytest

from joinforge import (
    CampaignSpec,
    Configuration,
    ExponentAssignment,
    Instance,
    InstanceRanges,
    LevelFunction,
    MuirheadSpec,
    ROOT,
    TreeParams,
    Vertex,
    WeightAssignment,
    check_inequality,
    cosh_ratio,
    cylinder_masses,
    extract_shape,
    factorized_from_shape,
    fuzz_campaign,
    k_inductive,
    muirhead_closed_form,
    muirhead_numeric,
    random_instance,
    regime_constant,
    reproduce_example,
    shape_orbit_size,
)


def test_acceptance_1_worked_example():
    start = time.perf_counter()
    report = reproduce_example()
    elapsed = time.perf_counter() - start
    assert report.orbit_count == 64
    assert report.join_points == {"": 1, "1": 1, "2.1": 1}
    assert elapsed < 1.0
    print(
        f"\nACCEPTANCE 1 (worked example): PASS "
        f"(orbit=64, joins=root:1,1:1,2.1:1, {elapsed:.3f}s)"
    )


def test_acceptance_2_equality_at_symmetric_point():
    start = time.perf_counter()
    tree = TreeParams(2, 3)
    config = Configuration(
        tree, ROOT,
        tuple(Vertex(w) for w in [(1, 1, 1), (1, 2, 1), (2, 1, 1), (2, 1, 2)]),
    )
    rng = np.random.default_rng(2024)

    def exponent_draws():
        yield (3.0, 3.0, 3.0)
        produced = 0
        while produced < 20:
            q = rng.dirichlet(np.ones(3))
            if np.all(q < 0.5):  # every exponent above 2
                produced += 1
                yield tuple(float(1.0 / qi) for qi in q)

    checked = 0
    for p in exponent_draws():
        assert all(pi > 2.0 for pi in p)
        level_values = [float(10.0 ** rng.uniform(-1, 1)) for _ in range(4)]
        inst = Instance(
            config=config,
            weights=WeightAssignment.constant(tree, float(rng.uniform(0.5, 2.0))),
            f=LevelFunction.by_level(tree, level_values),
            exponents=ExponentAssignment(p),
            regime="binary_optimal",
        )
        report = check_inequality(inst)
        assert report.k_constant == 2.0**-3
        assert abs(report.ratio - 1.0) <= 1e-9, (p, report.ratio)
        checked += 1
    elapsed = time.perf_counter() - start
    assert checked == 21
    assert elapsed < 1.0
    print(
        f"\nACCEPTANCE 2 (equality at symmetric point): PASS "
        f"(21 exponent draws, K=1/8, |ratio-1|<=1e-9, {elapsed:.3f}s)"
    )


def _orbit_oracle_family(arity: int, depth: int, max_n: int, draws: int, seed: int):
    """Compare the factorized evaluator with the exact orbit sum on every
    configuration of the family; returns (configs_checked, comparisons)."""
    tree = TreeParams(arity, depth)
    leaves = list(tree.leaves())
    rng = np.random.default_rng(seed)
    configs_checked = 0
    comparisons = 0
    for n in range(1, max_n + 1):
        groups: dict = {}
        for tup in itertools.permutations(leaves, n):
            config = Configuration(tree, ROOT, tup)
            shape = extract_shape(config)
            if n >= 2:
                joins = list(config.join_multiset().items())
            else:
                joins = []
            groups.setdefault(shape, []).append((tup, joins))
            configs_checked += 1
        for shape, members in groups.items():
            assert shape_orbit_size(shape, arity) == len(members)
        for _ in range(draws):
            mu = {leaf: float(10.0 ** rng.uniform(-2, 2)) for leaf in leaves}
            fv = {v: float(10.0 ** rng.uniform(-2, 2)) for v in tree.vertices()}
            weights = WeightAssignment(tree, list(mu.values()))  # leaves in rank order
            f = LevelFunction(tree, [fv[v] for v in tree.vertices()])  # root first
            masses = cylinder_masses(tree, weights)
            for shape, members in groups.items():
                brute = math.fsum(
                    math.prod(mu[p] for p in tup)
                    * math.prod(fv[w] ** r for w, r in joins)
                    for tup, joins in members
                )
                fact = factorized_from_shape(tree, ROOT, shape, masses, f)
                assert abs(fact - brute) <= 1e-12 * brute, (
                    arity, depth, shape.serialized, fact, brute,
                )
                comparisons += 1
    return configs_checked, comparisons


def test_acceptance_3_oracle_equivalence():
    start = time.perf_counter()
    checked_a, comparisons_a = _orbit_oracle_family(2, 3, 4, draws=5, seed=33)
    checked_b, comparisons_b = _orbit_oracle_family(3, 2, 4, draws=5, seed=44)
    elapsed = time.perf_counter() - start
    assert checked_a == 8 + 8 * 7 + 8 * 7 * 6 + 8 * 7 * 6 * 5
    assert checked_b == 9 + 9 * 8 + 9 * 8 * 7 + 9 * 8 * 7 * 6
    assert elapsed < 120.0
    print(
        f"\nACCEPTANCE 3 (oracle equivalence): PASS "
        f"({checked_a + checked_b} configurations, "
        f"{comparisons_a + comparisons_b} orbit comparisons at 1e-12, {elapsed:.1f}s)"
    )


def test_acceptance_4_general_regime_fuzz():
    start = time.perf_counter()
    summary = fuzz_campaign(
        CampaignSpec(
            seed_start=0,
            seed_count=10_000,
            ranges=InstanceRanges(arities=(2, 3), max_depth=4, max_particles=6),
        )
    )
    elapsed = time.perf_counter() - start
    assert summary.count == 10_000
    assert summary.passed, summary.violations[:3]
    assert summary.min_ratio_positive_weights > 0.0
    assert elapsed < 300.0
    print(
        f"\nACCEPTANCE 4 (general-regime fuzz): PASS "
        f"(10000 instances, zero violations, min ratio {summary.min_ratio:.3e}, "
        f"{elapsed:.1f}s)"
    )


def test_acceptance_5_binary_optimal_regime():
    start = time.perf_counter()
    ranges = InstanceRanges(arities=(2,), max_depth=4, max_particles=6,
                            regime="binary_optimal")
    summary = fuzz_campaign(
        CampaignSpec(seed_start=0, seed_count=1_000, ranges=ranges)
    )
    assert summary.count == 1_000
    assert summary.passed, summary.violations[:3]
    assert "halves-condition-failure" not in summary.flag_counts

    mismatches = 0
    for seed in range(1_000):
        inst = random_instance(seed, ranges)
        expected = 2.0 ** (-(inst.config.n - 1))
        assert regime_constant(inst.shape, inst.exponents, 2, "binary_optimal") == (expected, ())
        value = k_inductive(inst.shape, inst.exponents, 2).value
        if abs(value - expected) > 1e-9 * expected:
            mismatches += 1
    elapsed = time.perf_counter() - start
    assert mismatches == 0
    print(
        f"\nACCEPTANCE 5 (binary-optimal regime): PASS "
        f"(1000 instances verified with K=2^-(n-1), recursion constant matches "
        f"to 1e-9, {elapsed:.1f}s)"
    )


def _closed_form_specs(rng: np.random.Generator):
    """50 specs whose constants have closed forms, covering cases i, iii, iv."""
    specs = [
        MuirheadSpec((1.0, 1.0)),              # iii, K = 1/2
        MuirheadSpec((1 / 3, 1 / 3, 1 / 3)),   # i, K = 2
    ]
    while sum(1 for s in specs if muirhead_closed_form(s).case == "i") < 17:
        m = int(rng.integers(2, 5))
        s = float(rng.uniform(0.2, 1.0))
        specs.append(MuirheadSpec(tuple(float(x) for x in s * rng.dirichlet(np.ones(m)))))
    while sum(1 for s in specs if muirhead_closed_form(s).case == "iii") < 17:
        m = int(rng.integers(2, 5))
        s = float(rng.uniform(1.05, 3.0))
        extra = rng.dirichlet(np.ones(m))
        specs.append(
            MuirheadSpec(tuple(float((s - 1.0) / m + e) for e in extra))
        )
    while sum(1 for s in specs if muirhead_closed_form(s).case == "iv") < 16:
        s = float(rng.uniform(1.5, 4.0))
        delta = float(rng.uniform(1.01, math.sqrt(s) - 0.01))
        specs.append(MuirheadSpec(((s + delta) / 2.0, (s - delta) / 2.0)))
    return specs


def _bracket_specs(rng: np.random.Generator):
    """20 specs in the bracket-only case."""
    specs = []
    for _ in range(12):
        s = float(rng.uniform(1.3, 3.5))
        delta = float(rng.uniform(math.sqrt(s) + 0.05, min(s, math.sqrt(s) + 1.0)))
        specs.append(MuirheadSpec(((s + delta) / 2.0, (s - delta) / 2.0)))
    for _ in range(8):
        s = float(rng.uniform(1.2, 3.0))
        split = float(rng.uniform(0.55, 0.95))
        specs.append(MuirheadSpec((s * split, s * (1.0 - split), 0.0)))
    return specs


def test_acceptance_6_muirhead_constants():
    start = time.perf_counter()
    rng = np.random.default_rng(606)

    closed_specs = _closed_form_specs(rng)
    assert len(closed_specs) == 50
    seen = {"i": 0, "iii": 0, "iv": 0}
    for spec in closed_specs:
        closed = muirhead_closed_form(spec)
        assert closed.exact, spec
        seen[closed.case] += 1
        estimate = muirhead_numeric(spec)
        assert abs(estimate.value - closed.value) <= 1e-6, (spec.a, closed.case)
        # the sharp constant lies in the certified interval, up to the grid's rounding
        assert estimate.value <= closed.value * (1.0 + 1e-15) <= estimate.upper, spec.a
    assert min(seen.values()) >= 10

    named = muirhead_closed_form(MuirheadSpec((1.0, 1.0)))
    assert named.case == "iii" and named.value == pytest.approx(0.5)
    named = muirhead_closed_form(MuirheadSpec((1 / 3, 1 / 3, 1 / 3)))
    assert named.case == "i" and named.value == pytest.approx(2.0)

    bracket_specs = _bracket_specs(rng)
    assert len(bracket_specs) == 20
    for spec in bracket_specs:
        closed = muirhead_closed_form(spec)
        assert closed.case == "ii", spec
        estimate = muirhead_numeric(spec)
        assert closed.lower - 1e-9 <= estimate.value <= closed.upper + 1e-9, spec.a

    corner = muirhead_numeric(MuirheadSpec((3.0, 0.0)))
    assert abs(corner.value - 1.0) <= 1e-6
    assert corner.value > 2.0 ** (1.0 - 3.0) + 0.5  # far beyond the symmetric value

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(
        f"\nACCEPTANCE 6 (symmetric-sum constants): PASS "
        f"(50 closed-form specs i/iii/iv={seen['i']}/{seen['iii']}/{seen['iv']} "
        f"at 1e-6, 20 bracket specs contained, corner spec = "
        f"{corner.value:.9f}, {elapsed:.1f}s)"
    )


def test_acceptance_7_cosh_property():
    rng = np.random.default_rng(707)
    checked = 0
    for _ in range(1_000):
        if rng.random() < 0.8:
            q = float(rng.uniform(0.05, 3.0))
        else:
            q = 0.0
        if q > 0.0:
            low = max(-q, (1.0 - math.sqrt(1.0 + 8.0 * q)) / 2.0)
            high = (1.0 + math.sqrt(1.0 + 8.0 * q)) / 2.0
            delta = float(rng.uniform(low, high))
        else:
            delta = float(rng.uniform(0.0, 0.95))
        r = q + delta
        theta = float(rng.uniform(0.1, 5.0)) * (1 if rng.random() < 0.5 else -1)
        assert (r - q) ** 2 <= r + q + 1e-9
        value = cosh_ratio(r, q, theta)
        assert value <= 1.0 + 1e-12, (r, q, theta, value)
        if q > 0.0 or abs((r - q) - 1.0) > 1e-9:
            assert value < 1.0, (r, q, theta, value)
        checked += 1
    assert checked == 1_000
    # the boundary family is identically one and is excluded from strictness
    assert cosh_ratio(1.0, 0.0, 2.0) == pytest.approx(1.0, abs=1e-15)
    print(
        "\nACCEPTANCE 7 (cosh ratio property): PASS "
        "(1000 samples <= 1+1e-12, strict where required)"
    )


def test_acceptance_8_constant_discrepancy_report():
    report = reproduce_example()
    displayed = report.report_displayed
    binary = report.report_binary_optimal
    # both constants give valid upper bounds
    assert displayed.passed and binary.passed
    # the sharp constant attains equality at the symmetric point
    assert abs(binary.ratio - 1.0) <= 1e-9
    # the displayed product constant does not
    assert displayed.ratio < 1.0 - 1e-9
    assert "displayed-constant-not-tight" in report.flags
    assert report.tight_regime == "binary_optimal"
    print(
        f"\nACCEPTANCE 8 (constant discrepancy report): PASS "
        f"(displayed K={report.displayed_constant:.6g} ratio={displayed.ratio:.6g}; "
        f"sharp K=0.125 ratio={binary.ratio:.12g})"
    )
