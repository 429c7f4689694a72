import json
import math
import warnings

import numpy as np
import pytest
from conftest import random_distribution

from plbf import (
    ALGORITHMS,
    LOG2_E,
    BuildConfig,
    InfeasibleError,
    RegionPlan,
    SegmentedDistribution,
    SyntheticSpec,
    ValidationError,
    bloom_memory_bits,
    divergence_table,
    divergence_table_monotone,
    ensure_positive_masses,
    expected_fpr,
    optimal_fprs_for_fpr,
    optimal_fprs_for_memory,
    plan_from_dict,
    plan_to_dict,
    planning_table,
    solve,
    solve_timed,
    zipfian_distribution,
)
from plbf.optimizer import FPR_FLOOR


class TestOptimalFprsForFpr:
    def test_proportional_split_without_clamping(self):
        f = optimal_fprs_for_fpr([0.5, 0.5], [0.25, 0.75], 0.25)
        assert f[0] == 0.5  # 0.5 * 0.25 / 0.25, exact in binary
        assert f[1] == pytest.approx(1 / 6, abs=1e-15)

    def test_budget_spent_exactly(self):
        f = optimal_fprs_for_fpr([0.5, 0.5], [0.25, 0.75], 0.25)
        assert 0.25 * f[0] + 0.75 * f[1] == pytest.approx(0.25, abs=1e-15)

    def test_clamped_region_redistributes_budget(self):
        # unconstrained f2 = 1.5 clamps to 1; f1 re-solves to 1/3 by hand
        f = optimal_fprs_for_fpr([0.25, 0.75], [0.75, 0.25], 0.5)
        assert f[1] == 1.0
        assert f[0] == pytest.approx(1 / 3, abs=1e-15)
        assert 0.75 * f[0] + 0.25 * f[1] == pytest.approx(0.5, abs=1e-15)

    def test_all_clamped_within_budget_is_fine(self):
        # unnormalized masses: every region wants rate > 1 but carries little
        f = optimal_fprs_for_fpr([1.0, 1.0], [0.2, 0.2], 0.5)
        assert f == [1.0, 1.0]

    def test_all_clamped_over_budget_is_infeasible(self):
        with pytest.raises(InfeasibleError):
            optimal_fprs_for_fpr([1.0, 1.0], [0.3, 0.3], 0.5)

    def test_underflowing_target_floors_rates(self):
        # G * F / H can underflow to 0 for a subnormal target; rates must
        # stay positive so plans remain representable
        f = optimal_fprs_for_fpr([1e-12, 1.0], [0.5, 0.5], 5e-312)
        assert all(fi >= FPR_FLOOR for fi in f)
        assert sum(0.5 * fi for fi in f) <= 5e-312 + 1e-9

    def test_random_instances_hold_invariants(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            k = int(rng.integers(1, 8))
            g = rng.uniform(0.05, 1.0, k)
            h = rng.uniform(0.05, 1.0, k)
            g, h = (g / g.sum()).tolist(), (h / h.sum()).tolist()
            target = float(rng.uniform(0.001, 0.5))
            f = optimal_fprs_for_fpr(g, h, target)
            assert all(0.0 < fi <= 1.0 for fi in f)
            spent = sum(hi * fi for hi, fi in zip(h, f))
            assert spent <= target + 1e-9
            assert spent == pytest.approx(target, abs=1e-9)

    def test_validation(self):
        with pytest.raises(ValidationError):
            optimal_fprs_for_fpr([], [], 0.1)
        with pytest.raises(ValidationError):
            optimal_fprs_for_fpr([0.5], [0.5, 0.5], 0.1)
        with pytest.raises(ValidationError):
            optimal_fprs_for_fpr([0.0, 1.0], [0.5, 0.5], 0.1)
        with pytest.raises(ValidationError):
            optimal_fprs_for_fpr([1.0], [1.0], 1.5)


class TestOptimalFprsForMemory:
    def test_single_region_halves_at_one_bit_per_scaled_key(self):
        f = optimal_fprs_for_memory([1.0], [1.0], 1000.0, 1000.0)
        assert f == [0.5]
        assert bloom_memory_bits([1.0], f, 1000.0) == 1000.0

    def test_zero_budget_stores_nothing(self):
        # equal masses: rates are exactly 1 with no clamping round trip
        f = optimal_fprs_for_memory([0.5, 0.5], [0.5, 0.5], 0.0, 1000.0)
        assert f == [1.0, 1.0]
        assert bloom_memory_bits([0.5, 0.5], f, 1000.0) == 0.0
        # asymmetric masses go through the clamp loop; rates end within
        # rounding of 1 and the spend within rounding of zero
        f = optimal_fprs_for_memory([0.75, 0.25], [0.25, 0.75], 0.0, 1000.0)
        assert all(fi >= 1.0 - 1e-12 for fi in f)
        assert bloom_memory_bits([0.75, 0.25], f, 1000.0) <= 1e-6

    def test_budget_spent_exactly_when_memory_is_tight(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            k = int(rng.integers(1, 8))
            g = rng.uniform(0.05, 1.0, k)
            h = rng.uniform(0.05, 1.0, k)
            g, h = (g / g.sum()).tolist(), (h / h.sum()).tolist()
            scaled = float(rng.uniform(100.0, 1e5))
            budget = float(rng.uniform(0.0, 3.0)) * scaled
            f = optimal_fprs_for_memory(g, h, budget, scaled)
            assert all(0.0 < fi <= 1.0 for fi in f)
            used = bloom_memory_bits(g, f, scaled)
            assert used <= budget + 1e-6
            if any(fi < 1.0 for fi in f):
                assert used == pytest.approx(budget, rel=1e-9, abs=1e-6)

    def test_lavish_budget_floors_rates(self):
        # 2**(-beta) underflows once the budget dwarfs the key count; the
        # floor keeps rates positive and leaves the surplus unspent
        f = optimal_fprs_for_memory([0.5, 0.5], [0.5, 0.5], 1e9, 100.0)
        assert f == [FPR_FLOOR, FPR_FLOOR]
        assert bloom_memory_bits([0.5, 0.5], f, 100.0) <= 1e9

    def test_beats_grid_search(self):
        # independent check: no rate split with the same memory does better
        g = [0.7, 0.3]
        h = [0.2, 0.8]
        scaled = 500.0
        budget = 400.0
        best = optimal_fprs_for_memory(g, h, budget, scaled)
        solver_fpr = expected_fpr(h, best)
        grid_best = math.inf
        for f1 in np.linspace(1e-4, 1.0, 4001):
            # memory balance pins the second rate once the first is chosen
            bits_left = budget - scaled * g[0] * math.log2(1.0 / f1)
            if bits_left < 0:
                continue
            f2 = min(1.0, 2.0 ** (-bits_left / (scaled * g[1])))
            grid_best = min(grid_best, h[0] * f1 + h[1] * f2)
        assert solver_fpr <= grid_best + 1e-6

    def test_validation(self):
        with pytest.raises(ValidationError):
            optimal_fprs_for_memory([], [], 10.0, 10.0)
        with pytest.raises(ValidationError):
            optimal_fprs_for_memory([0.5], [0.5], -1.0, 10.0)
        with pytest.raises(ValidationError):
            optimal_fprs_for_memory([0.5], [0.5], 10.0, 0.0)
        with pytest.raises(ValidationError):
            optimal_fprs_for_memory([0.5, 0.0], [0.5, 0.5], 10.0, 10.0)


class TestSpaceAndRate:
    def test_memory_formula(self):
        assert bloom_memory_bits([1.0], [0.5], 1000.0) == 1000.0
        assert bloom_memory_bits([0.5, 0.5], [0.25, 1.0], 1000.0) == 1000.0
        assert bloom_memory_bits([1.0], [1.0], 12345.0) == 0.0

    def test_expected_rate(self):
        assert expected_fpr([0.25, 0.75], [1.0, 1.0]) == 1.0
        assert expected_fpr([0.5, 0.5], [0.01, 0.03]) == pytest.approx(0.02)


class TestBuildConfig:
    def test_rejects_unknown_framework_and_algorithm(self):
        with pytest.raises(ValidationError):
            BuildConfig(framework="speed", n_segments=10, n_regions=3, target_fpr=0.1)
        with pytest.raises(ValidationError):
            BuildConfig(
                framework="fpr", n_segments=10, n_regions=3,
                algorithm="magic", target_fpr=0.1,
            )

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValidationError):
            BuildConfig(framework="fpr", n_segments=10, n_regions=1, target_fpr=0.1)
        with pytest.raises(ValidationError):
            BuildConfig(framework="fpr", n_segments=3, n_regions=3, target_fpr=0.1)

    def test_requires_matching_budget(self):
        with pytest.raises(ValidationError):
            BuildConfig(framework="fpr", n_segments=10, n_regions=3)
        with pytest.raises(ValidationError):
            BuildConfig(framework="fpr", n_segments=10, n_regions=3, target_fpr=1.0)
        with pytest.raises(ValidationError):
            BuildConfig(framework="memory", n_segments=10, n_regions=3)
        with pytest.raises(ValidationError):
            BuildConfig(framework="memory", n_segments=10, n_regions=3, memory_bits=0.0)

    def test_scaled_keys_follow_key_count(self):
        d = SegmentedDistribution.from_masses([1, 1, 1, 1], [1, 1, 1, 1], n_keys=100)
        cfg = BuildConfig(framework="fpr", n_segments=4, n_regions=2, target_fpr=0.1)
        assert cfg.effective_scaled_keys(d) == pytest.approx(100 * LOG2_E)

    def test_zero_key_count_needs_explicit_scaling(self):
        d = SegmentedDistribution.from_masses([1, 1, 1], [1, 1, 1], n_keys=0)
        cfg = BuildConfig(framework="fpr", n_segments=3, n_regions=2, target_fpr=0.1)
        with pytest.raises(ValidationError):
            cfg.effective_scaled_keys(d)

    def test_require_matching(self):
        d = SegmentedDistribution.from_masses([1, 1, 1], [1, 1, 1], n_keys=10)
        cfg = BuildConfig(framework="fpr", n_segments=4, n_regions=2, target_fpr=0.1)
        with pytest.raises(ValidationError):
            cfg.require_matching(d)


class TestRegionPlanValidation:
    def _plan(self, **overrides):
        fields = dict(
            n_regions=2,
            boundaries=(0, 2, 4),
            fprs=(0.1, 0.2),
            key_mass=(0.5, 0.5),
            nonkey_mass=(0.5, 0.5),
            objective=1.0,
            framework="fpr",
            algorithm="fast",
        )
        fields.update(overrides)
        return RegionPlan(**fields)

    def test_valid_plan_builds(self):
        plan = self._plan()
        assert plan.n_segments == 4

    def test_rejects_bad_boundaries(self):
        with pytest.raises(ValidationError):
            self._plan(boundaries=(1, 2, 4))
        with pytest.raises(ValidationError):
            self._plan(boundaries=(0, 2, 2))
        with pytest.raises(ValidationError):
            self._plan(boundaries=(0, 4))

    def test_rejects_bad_rates(self):
        with pytest.raises(ValidationError):
            self._plan(fprs=(0.0, 0.5))
        with pytest.raises(ValidationError):
            self._plan(fprs=(0.5, 1.5))

    def test_rejects_unnormalized_masses(self):
        with pytest.raises(ValidationError):
            self._plan(key_mass=(0.9, 0.5))

    def test_rejects_unknown_framework(self):
        with pytest.raises(ValidationError):
            self._plan(framework="other")


class TestSolve:
    def test_exact_and_fast_agree_on_random_instances(self):
        rng = np.random.default_rng(2)
        for i in range(30):
            n = int(rng.integers(8, 30))
            k = int(rng.integers(2, 6))
            d = random_distribution(rng, n)
            if i % 2:
                cfg = dict(framework="fpr", target_fpr=float(rng.uniform(0.01, 0.3)))
            else:
                cfg = dict(framework="memory", memory_bits=float(rng.uniform(500, 5000)))
            plans = {
                algo: solve(
                    d,
                    BuildConfig(
                        n_segments=n, n_regions=k, algorithm=algo, **cfg
                    ),
                )
                for algo in ("plbf", "fast")
            }
            assert plans["plbf"].boundaries == plans["fast"].boundaries
            assert plans["plbf"].fprs == plans["fast"].fprs
            assert plans["plbf"].objective == plans["fast"].objective

    def test_fastpp_matches_fast_on_ideal_input(self):
        for seed in range(8):
            n = 60 + 20 * seed
            d = zipfian_distribution(
                SyntheticSpec(n, 1000, 1000, zipf_exponent=0.5 + 0.25 * seed)
            )
            a = solve(d, BuildConfig(
                framework="fpr", n_segments=n, n_regions=5,
                algorithm="fast", target_fpr=0.02,
            ))
            b = solve(d, BuildConfig(
                framework="fpr", n_segments=n, n_regions=5,
                algorithm="fastpp", target_fpr=0.02,
            ))
            assert a.boundaries == b.boundaries

    def test_relaxed_never_beats_the_exact_solver(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(8, 25))
            d = random_distribution(rng, n)
            base = dict(framework="fpr", n_segments=n, n_regions=3, target_fpr=0.05)
            exact = solve(d, BuildConfig(algorithm="fast", **base))
            relaxed = solve(d, BuildConfig(algorithm="relaxed", **base))
            assert relaxed.objective >= exact.objective - 1e-9
            assert relaxed.algorithm == "relaxed"

    def test_tied_candidates_resolve_to_smallest_final_region_start(self):
        # uniform dyadic masses make every layout score identically
        d = SegmentedDistribution.from_masses(
            [0.125] * 8, [0.125] * 8, n_keys=64, normalize=False
        )
        for algo in ("plbf", "fast", "fastpp", "relaxed"):
            plan = solve(d, BuildConfig(
                framework="fpr", n_segments=8, n_regions=3,
                algorithm=algo, target_fpr=0.25,
            ))
            assert plan.boundaries == (0, 1, 2, 8), algo
            assert plan.fprs == (0.25, 0.25, 0.25)

    def test_zero_mass_segments_are_floored_not_fatal(self):
        d = SegmentedDistribution.from_masses(
            [0.0, 0.5, 0.5, 0.0], [0.5, 0.0, 0.0, 0.5], n_keys=10, normalize=False
        )
        plan = solve(d, BuildConfig(
            framework="fpr", n_segments=4, n_regions=2, target_fpr=0.1,
        ))
        assert plan.n_regions == 2

    def test_vanishing_nonkey_mass_leaks_no_warning(self):
        # 1e-30 vanishes in the non-key prefix sums: segment 2 alone has
        # infinite divergence, next to unreachable -inf table cells
        d = SegmentedDistribution.from_masses([1, 1, 1], [1, 1e-30, 1], n_keys=100)
        for algo in ALGORITHMS:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                plan = solve(d, BuildConfig(
                    framework="fpr", n_segments=3, n_regions=2,
                    algorithm=algo, target_fpr=0.01,
                ))
            assert plan.boundaries == (0, 1, 3), algo

    def test_layouts_with_an_empty_region_are_skipped(self):
        # segment 3's non-key mass cancels out of the prefix sums, so a
        # region holding only it has mass exactly 0 and no closed-form rate
        d = SegmentedDistribution.from_masses([1, 1, 1, 1], [1, 1, 1e-30, 1], n_keys=100)
        budgets = {"fpr": dict(target_fpr=0.01), "memory": dict(memory_bits=300.0)}
        for framework, budget in budgets.items():
            base = dict(framework=framework, n_segments=4, n_regions=3, **budget)
            for algo in ("plbf", "fast", "fastpp"):
                plan = solve(d, BuildConfig(algorithm=algo, **base))
                assert plan.boundaries == (0, 1, 2, 4), algo
                if framework == "fpr":
                    assert expected_fpr(plan.nonkey_mass, plan.fprs) <= 0.01 + 1e-9
                else:
                    used = bloom_memory_bits(plan.key_mass, plan.fprs, 100 * LOG2_E)
                    assert used <= 300.0 + 1e-6
            # relaxed's single layout is the one with the empty region
            with pytest.raises(InfeasibleError):
                solve(d, BuildConfig(algorithm="relaxed", **base))

    def test_planning_table_per_algorithm(self):
        d = random_distribution(np.random.default_rng(9), 12)
        base = dict(framework="fpr", n_segments=12, n_regions=3, target_fpr=0.05)
        full = divergence_table(d, 3)
        for algo in ("plbf", "fast"):
            table = planning_table(d, BuildConfig(algorithm=algo, **base))
            assert np.array_equal(table.values, full.values)
            assert np.array_equal(table.parents, full.parents)
        table = planning_table(d, BuildConfig(algorithm="fastpp", **base))
        assert np.array_equal(table.values, divergence_table_monotone(d, 3).values)
        table = planning_table(d, BuildConfig(algorithm="relaxed", **base))
        assert table.values.shape == (13, 4)

    def test_mismatched_segment_count_rejected(self):
        d = random_distribution(np.random.default_rng(4), 10)
        cfg = BuildConfig(framework="fpr", n_segments=12, n_regions=3, target_fpr=0.1)
        with pytest.raises(ValidationError):
            solve(d, cfg)

    def test_solve_timed_accounts_for_all_time(self):
        d = random_distribution(np.random.default_rng(5), 40)
        cfg = BuildConfig(framework="fpr", n_segments=40, n_regions=4, target_fpr=0.05)
        plan, stats = solve_timed(d, cfg)
        assert stats.dp_seconds >= 0.0
        assert stats.sweep_seconds >= 0.0
        assert stats.total_seconds == pytest.approx(
            stats.dp_seconds + stats.sweep_seconds, abs=1e-6
        )
        assert plan.boundaries[0] == 0 and plan.boundaries[-1] == 40

    def test_deterministic(self):
        d = random_distribution(np.random.default_rng(6), 25)
        cfg = BuildConfig(framework="memory", n_segments=25, n_regions=4, memory_bits=2500.0)
        assert solve(d, cfg) == solve(d, cfg)


class TestEnsurePositiveMasses:
    def test_positive_input_passes_through(self):
        d = random_distribution(np.random.default_rng(7), 6)
        assert ensure_positive_masses(d) is d

    def test_zeros_get_floored(self):
        d = SegmentedDistribution.from_masses(
            [0.0, 1.0], [1.0, 0.0], n_keys=5, normalize=False
        )
        floored = ensure_positive_masses(d)
        assert floored.g[0] > 0.0
        assert floored.h[1] > 0.0
        assert floored.g[1] == 1.0
        assert floored.n_keys == 5


class TestPlanSerialization:
    def _sample_plan(self):
        d = random_distribution(np.random.default_rng(8), 12)
        return solve(d, BuildConfig(
            framework="fpr", n_segments=12, n_regions=3, target_fpr=0.04,
        ))

    def test_round_trip_preserves_everything_but_algorithm(self):
        plan = self._sample_plan()
        data = json.loads(json.dumps(plan_to_dict(plan)))
        again = plan_from_dict(data, algorithm=plan.algorithm)
        assert again == plan

    def test_thresholds_are_boundary_fractions(self):
        plan = self._sample_plan()
        data = plan_to_dict(plan)
        assert data["thresholds"] == [b / 12 for b in plan.boundaries]
        assert data["n_segments"] == 12

    def test_dict_omits_algorithm_and_timing(self):
        data = plan_to_dict(self._sample_plan())
        assert "algorithm" not in data
        assert not any("time" in key or "_ms" in key for key in data)

    def test_missing_field_rejected(self):
        data = plan_to_dict(self._sample_plan())
        del data["fprs"]
        with pytest.raises(ValidationError):
            plan_from_dict(data)
