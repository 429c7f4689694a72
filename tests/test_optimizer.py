import dataclasses
import hashlib
import json
import math
import warnings

import numpy as np
import pytest
from conftest import random_distribution, underflow_distribution

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
    divergence,
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
from plbf import optimizer, oracle
from plbf.optimizer import FPR_FLOOR, MASS_SUM_TOLERANCE, MAX_SEGMENTS
from plbf.oracle import best_clustering_exhaustive, exhaustive_plan


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

    def test_budget_beyond_float_range_clamps_instead_of_overflowing(self):
        # unnormalized masses give beta < -1023, where 2**(-beta) overflows
        f = optimal_fprs_for_memory(
            [0.081, 0.23, 0.27, 0.061, 0.315, 0.124],
            [0.476, 0.608, 0.904, 0.142, 0.632, 0.019],
            3.5,
            57.5,
        )
        assert f == [1.0] * 6

    def test_no_key_mass_left_to_spend_on_is_infeasible(self):
        # region 0 clamps and carries all the key mass, leaving region 1
        # nothing to divide the budget by
        with pytest.raises(InfeasibleError, match="key mass"):
            optimal_fprs_for_memory([1.0, 1e-12], [1e-12, 1.0], 1e-8, 1000.0)

    def test_validation(self):
        with pytest.raises(ValidationError):
            optimal_fprs_for_memory([], [], 10.0, 10.0)
        with pytest.raises(ValidationError):
            optimal_fprs_for_memory([0.5], [0.5], -1.0, 10.0)
        with pytest.raises(ValidationError):
            optimal_fprs_for_memory([0.5], [0.5], 10.0, 0.0)
        with pytest.raises(ValidationError):
            optimal_fprs_for_memory([0.5, 0.0], [0.5, 0.5], 10.0, 10.0)

    def test_ratio_below_float_range_still_solves(self):
        # G/H underflows to 0 in region 0, which has no log2; floored at
        # 2**-1074, its divergence term is too small to count
        f = optimal_fprs_for_memory([5e-324, 1.0], [4.0, 1.0], 100.0, 10.0)
        assert f == [FPR_FLOOR, 2.0**-10]


@pytest.mark.parametrize(
    "solver",
    [
        lambda g, h: optimal_fprs_for_fpr(g, h, 0.1),
        lambda g, h: optimal_fprs_for_memory(g, h, 100.0, 10.0),
    ],
    ids=["fpr", "memory"],
)
@pytest.mark.parametrize(
    "key_mass, nonkey_mass",
    [
        ([math.nan, 0.5], [0.5, 0.5]),
        ([0.5, 0.5], [math.inf, 0.5]),
        ([0.5, -math.inf], [0.5, 0.5]),
        ([[0.5, 0.5], [0.5, 0.5]], [[0.5, 0.5], [0.5, math.nan]]),
    ],
    ids=["nan-key", "inf-nonkey", "minus-inf-key", "nan-in-batch"],
)
def test_rate_solvers_reject_masses_that_are_not_finite(solver, key_mass, nonkey_mass):
    # NaN <= 0 is false: a sign check alone lets NaN and inf through
    with pytest.raises(ValidationError, match="region masses must be finite and positive"):
        solver(key_mass, nonkey_mass)


@pytest.mark.parametrize("solver, message", [
    (lambda g, h: optimal_fprs_for_fpr(g, h, "0.1"), r"target_fpr must be in \(0, 1\), got '0.1'"),
    (lambda g, h: optimal_fprs_for_fpr(g, h, None), r"target_fpr must be in \(0, 1\), got None"),
    (lambda g, h: optimal_fprs_for_memory(g, h, "5", 10.0), "memory_bits must be nonnegative, got '5'"),
    (lambda g, h: optimal_fprs_for_memory(g, h, math.nan, 10.0), "memory_bits must be nonnegative"),
    (lambda g, h: optimal_fprs_for_memory(g, h, 5.0, "1"), "scaled_keys must be positive, got '1'"),
    (lambda g, h: bloom_memory_bits(g, [0.1, 0.2], "x"), "scaled_keys must be positive, got 'x'"),
], ids=["fpr-text", "fpr-none", "memory-text-bits", "memory-nan-bits", "memory-text-scale",
        "bits-text-scale"])
def test_rate_solvers_reject_reals_that_are_not_real_numbers(solver, message):
    # each reads its real through as_real once: text and None become NaN, which no range holds
    with pytest.raises(ValidationError, match=message):
        solver([0.5, 0.5], [0.5, 0.5])


class TestSpaceAndRate:
    def test_memory_formula(self):
        assert bloom_memory_bits([1.0], [0.5], 1000.0) == 1000.0
        assert bloom_memory_bits([0.5, 0.5], [0.25, 1.0], 1000.0) == 1000.0
        assert bloom_memory_bits([1.0], [1.0], 12345.0) == 0.0

    def test_memory_takes_math_log2(self):
        # np.log2 can round this one to -0.2857627582306667, one ULP off math.log2
        rate = 0.8203077943609558
        assert bloom_memory_bits([1.0], [rate], 1.0) == -math.log2(rate)
        batch = bloom_memory_bits(np.array([[1.0]]), np.array([[rate]]), 1.0)
        assert batch.tolist() == [-math.log2(rate)]

    def test_a_zero_rate_with_keys_needs_infinite_memory(self):
        # log2(0) is -inf in _log2, where math.log2 would raise
        assert bloom_memory_bits([0.5, 0.5], [0.0, 0.5], 10.0) == math.inf
        batch = bloom_memory_bits(np.array([[0.5, 0.5]]), np.array([[0.0, 0.5]]), 10.0)
        assert batch.tolist() == [math.inf]

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
        with pytest.raises(ValidationError, match=r"below n_segments \(3 >= 3\)"):
            BuildConfig(framework="fpr", n_segments=3, n_regions=3, target_fpr=0.1)

    def test_rejects_more_segments_than_a_filter_can_route(self):
        BuildConfig(framework="fpr", n_segments=MAX_SEGMENTS, n_regions=3, target_fpr=0.1)
        too_many = f"at most {MAX_SEGMENTS}, got {MAX_SEGMENTS + 1}"
        with pytest.raises(ValidationError, match=too_many):
            BuildConfig(framework="fpr", n_segments=MAX_SEGMENTS + 1, n_regions=3, target_fpr=0.1)

    def test_requires_matching_budget(self):
        with pytest.raises(ValidationError):
            BuildConfig(framework="fpr", n_segments=10, n_regions=3)
        with pytest.raises(ValidationError):
            BuildConfig(framework="fpr", n_segments=10, n_regions=3, target_fpr=1.0)
        with pytest.raises(ValidationError):
            BuildConfig(framework="memory", n_segments=10, n_regions=3)
        with pytest.raises(ValidationError):
            BuildConfig(framework="memory", n_segments=10, n_regions=3, memory_bits=0.0)

    def test_budget_beyond_float_range_reads_as_infinite(self):
        # float(10**400) raises OverflowError
        cfg = BuildConfig(framework="memory", n_segments=10, n_regions=3, memory_bits=10**400)
        assert cfg.memory_bits == math.inf
        with pytest.raises(ValidationError, match=r"target_fpr in \(0, 1\)"):
            BuildConfig(framework="fpr", n_segments=10, n_regions=3, target_fpr=-(10**400))

    def test_scaled_keys_follow_key_count(self):
        d = SegmentedDistribution.from_masses([1, 1, 1, 1], [1, 1, 1, 1], n_keys=100)
        cfg = BuildConfig(framework="fpr", n_segments=4, n_regions=2, target_fpr=0.1)
        assert cfg.effective_scaled_keys(d) == pytest.approx(100 * LOG2_E)

    def test_zero_key_count_needs_explicit_scaling(self):
        # a distribution refuses a key count below 1, so every one it holds scales
        with pytest.raises(ValidationError, match="n_keys must be at least 1"):
            SegmentedDistribution.from_masses([1, 1, 1], [1, 1, 1], n_keys=0)

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
        with pytest.raises(ValidationError, match="key_mass must sum to 1"):
            self._plan(key_mass=(0.5, 0.5 + 2 * MASS_SUM_TOLERANCE))

    def test_accepts_the_floor_mass_of_empty_segments(self):
        # 1.1 million segments, 1000 of them filled: the floor that planning
        # gives every empty one lifts each total to about 1 + 1.1e-6
        n = 1_100_000
        g = np.zeros(n)
        g[:1000] = 1e-3
        d = ensure_positive_masses(SegmentedDistribution(g, g[::-1].copy(), 1000))
        key_mass, nonkey_mass = d.masses(np.array([0, 1000]), np.array([1000, n]))
        assert sum(key_mass) - 1.0 > 1e-6
        plan = self._plan(boundaries=(0, 1000, n), key_mass=tuple(key_mass.tolist()),
                          nonkey_mass=tuple(nonkey_mass.tolist()))
        assert plan_from_dict(plan_to_dict(plan), "fast") == plan

    @pytest.mark.parametrize("field", ["key_mass", "nonkey_mass", "fprs"])
    def test_rejects_one_entry_short(self, field):
        with pytest.raises(ValidationError, match=f"{field} must have one entry per region"):
            self._plan(**{field: (1.0,)})

    @pytest.mark.parametrize("field", ["key_mass", "nonkey_mass"])
    @pytest.mark.parametrize("masses", [(math.nan, 0.5), (1.5, -0.5)], ids=["nan", "negative"])
    def test_rejects_masses_that_are_not_finite_and_nonnegative(self, field, masses):
        with pytest.raises(ValidationError, match="finite and nonnegative"):
            self._plan(**{field: masses})

    @pytest.mark.parametrize("objective", [math.inf, math.nan, -1.0])
    def test_rejects_objective_that_is_not_finite_and_nonnegative(self, objective):
        with pytest.raises(ValidationError, match="objective"):
            self._plan(objective=objective)

    @pytest.mark.parametrize("field, value, message", [
        ("n_regions", 2.0, "n_regions must be an integer, got 2.0"),
        ("boundaries", (0, 2.0, 4), "boundary must be an integer, got 2.0"),
        ("boundaries", (0, 1.5, 4), "boundary must be an integer, got 1.5"),
        ("fprs", ("0.1", 0.2), r"rate must lie in \(0, 1\], got \('0.1', 0.2\)"),
        ("key_mass", (None, 0.5), r"key_mass must be finite and nonnegative, got \(None, 0.5\)"),
        ("nonkey_mass", ("0.5", 0.5), r"nonkey_mass must be finite and nonnegative, got \('0.5'"),
        ("objective", "1", "objective must be finite and nonnegative, got '1'$"),
        ("objective", None, "objective must be finite and nonnegative, got None"),
        ("algorithm", None, "plan algorithm must be a string, got None"),
    ], ids=["float-n-regions", "float-boundary", "fractional-boundary", "text-rate",
            "none-key-mass", "text-nonkey-mass", "text-objective", "none-objective",
            "none-algorithm"])
    def test_rejects_numbers_and_names_of_the_wrong_type(self, field, value, message):
        # as_real reads text as NaN: the message shows the value given, not nan
        with pytest.raises(ValidationError, match=message):
            self._plan(**{field: value})

    def test_stores_plain_ints_and_floats(self):
        plan = self._plan(
            n_regions=np.int64(2), boundaries=np.array([0, 2, 4]), fprs=np.array([0.1, 0.2]),
            key_mass=np.array([0.5, 0.5]), nonkey_mass=[np.float32(0.5), 0.5],
            objective=np.float64(1.0),
        )
        assert plan == self._plan()
        assert type(plan.n_regions) is int and type(plan.objective) is float
        assert {type(b) for b in plan.boundaries} == {int}
        assert {type(x) for x in plan.fprs + plan.key_mass + plan.nonkey_mass} == {float}

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

    def test_relaxed_takes_the_best_clustering_of_all_segments(self):
        rng = np.random.default_rng(12)
        for _ in range(40):
            n = int(rng.integers(4, 13))
            k = int(rng.integers(2, min(n - 1, 4) + 1))
            d = random_distribution(rng, n)
            plan = solve(d, BuildConfig("fpr", n, k, algorithm="relaxed", target_fpr=0.05))
            bounds = plan.boundaries
            total = sum(divergence(d, a + 1, b) for a, b in zip(bounds, bounds[1:]))
            best = max(
                best_clustering_exhaustive(d, j, k)[0] + divergence(d, j, n)
                for j in range(k, n + 1)
            )
            assert total == pytest.approx(best, rel=1e-9, abs=1e-12), (n, k)

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

    def test_overflowing_mass_ratio_leaks_no_warning(self):
        # a denormal non-key mass next to a floored key mass: G / H overflows
        d = SegmentedDistribution.from_masses(
            [0.0] * 8 + [1.0], [5e-324] + [0.0] * 7 + [1.0], n_keys=1
        )
        for algo in ALGORITHMS:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                plan = solve(d, BuildConfig(
                    framework="fpr", n_segments=9, n_regions=2,
                    algorithm=algo, target_fpr=0.5,
                ))
            assert plan.boundaries == (0, 1, 9), algo

    def test_memory_plan_stays_in_budget_when_a_mass_ratio_overflows(self):
        # G / H of the first region is +inf: it must clamp to rate 1, not
        # make beta infinite and floor every rate
        d = SegmentedDistribution.from_masses(
            [0.0] * 8 + [1.0], [5e-324] + [0.0] * 7 + [1.0], n_keys=1
        )
        for algo in ALGORITHMS:
            plan = solve(d, BuildConfig("memory", 9, 2, algorithm=algo, memory_bits=1.0))
            assert plan.fprs[0] == 1.0, algo
            assert bloom_memory_bits(plan.key_mass, plan.fprs, LOG2_E) <= 1.0 + 1e-9, algo

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

    def test_memory_budget_with_no_key_mass_left_is_infeasible(self):
        d = SegmentedDistribution.from_masses([1, 0, 0, 0], [0, 0, 0, 1], n_keys=1000)
        for algo in ALGORITHMS:
            config = BuildConfig(
                "memory", 4, 3, algorithm=algo, memory_bits=1e-8,
            )
            with pytest.raises(InfeasibleError):
                solve(d, config)

    def test_an_infeasible_layout_is_skipped(self):
        # starts 3 and 4 clamp a first region that holds all the key mass,
        # which leaves the other region no head room; start 2's layout
        # meets the target
        d = SegmentedDistribution.from_masses([0, 3, 0, 0], [0, 0, 0, 3], n_keys=100)
        for algo in ("plbf", "fast", "fastpp"):
            plan = solve(d, BuildConfig("fpr", 4, 2, algorithm=algo, target_fpr=0.01))
            assert plan.boundaries == (0, 1, 4), algo
            assert plan.fprs == (0.01, 0.010000000000000002), algo
        assert exhaustive_plan(d, BuildConfig("fpr", 4, 2, target_fpr=0.01)).boundaries == (
            0, 1, 4,
        )
        # relaxed's one layout starts its final region at 3
        with pytest.raises(InfeasibleError, match="already carry 2e-12$"):
            solve(d, BuildConfig("fpr", 4, 2, algorithm="relaxed", target_fpr=0.01))

    def test_when_every_layout_is_infeasible_the_first_ones_error_is_raised(self):
        d = SegmentedDistribution.from_masses([1, 0, 0, 0], [0, 0, 0, 1], n_keys=1000)
        floored = ensure_positive_masses(d)
        first = (0, 1, 2, 4)  # the layout of the smallest final-region start
        masses = [
            [float(prefix[b] - prefix[a]) for a, b in zip(first, first[1:])]
            for prefix in (floored.g_prefix, floored.h_prefix)
        ]
        with pytest.raises(InfeasibleError) as alone:
            optimal_fprs_for_memory(*masses, 1e-8, 1000 * LOG2_E)
        config = BuildConfig("memory", 4, 3, memory_bits=1e-8)
        for algo in ("plbf", "fast", "fastpp"):
            with pytest.raises(InfeasibleError) as raised:
                solve(d, dataclasses.replace(config, algorithm=algo))
            assert str(raised.value) == str(alone.value), algo
        with pytest.raises(InfeasibleError, match="cannot spend 1e-08 bits"):
            exhaustive_plan(d, config)

    def test_planning_table_per_algorithm(self):
        d = random_distribution(np.random.default_rng(9), 12)
        base = dict(framework="fpr", n_segments=12, n_regions=3, target_fpr=0.05)
        full = divergence_table(d, 3)
        for algo in ("plbf", "fast", "relaxed"):
            table = planning_table(d, BuildConfig(algorithm=algo, **base))
            assert np.array_equal(table.values, full.values)
            assert np.array_equal(table.parents, full.parents)
        table = planning_table(d, BuildConfig(algorithm="fastpp", **base))
        assert np.array_equal(table.values, divergence_table_monotone(d, 3).values)

    def test_mismatched_segment_count_rejected(self):
        d = random_distribution(np.random.default_rng(4), 10)
        cfg = BuildConfig(framework="fpr", n_segments=12, n_regions=3, target_fpr=0.1)
        with pytest.raises(ValidationError):
            solve(d, cfg)
        with pytest.raises(ValidationError, match="config expects 12"):
            planning_table(d, cfg)

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

    def test_underflowed_region_ratio_is_refused_for_every_planner(self):
        # segment 1's G / H underflows only because H sums far above 1: the
        # planners refuse the histogram before a table scores it -inf
        d = underflow_distribution()
        for algorithm in ALGORITHMS:
            cfg = BuildConfig(framework="fpr", n_segments=4, n_regions=2,
                              algorithm=algorithm, target_fpr=0.01)
            with pytest.raises(ValidationError, match=r"key masses sum to 3\.0,"):
                solve(d, cfg)


class TestRankThenSettle:
    """The sweep ranks every layout with numpy's log2 and exp2, then settles
    the ones that can still win with the exact rate solve."""

    CONFIGS = (
        BuildConfig("fpr", 8, 3, target_fpr=0.01),
        BuildConfig("memory", 8, 3, memory_bits=300.0),
    )
    SCALED = 100 * LOG2_E
    # three layouts: the middle one scores best in both frameworks
    KEY_MASS = np.array([[0.1, 0.3, 0.6], [0.05, 0.15, 0.8], [0.3, 0.3, 0.4]])
    NONKEY_MASS = np.array([[0.5, 0.3, 0.2], [0.6, 0.3, 0.1], [0.4, 0.3, 0.3]])

    def exact(self, config, key_mass, nonkey_mass):
        return optimizer._rates_and_score(config, self.SCALED, key_mass, nonkey_mass)

    def settle(self, config, key_mass, nonkey_mass):
        return optimizer._settled_winner(config, self.SCALED, key_mass, nonkey_mass)

    @pytest.mark.parametrize("config", CONFIGS, ids=["fpr", "memory"])
    def test_the_winner_has_the_exact_rates_and_score(self, config):
        fprs, scores = self.exact(config, self.KEY_MASS, self.NONKEY_MASS)
        row, best_fprs, score = self.settle(config, self.KEY_MASS, self.NONKEY_MASS)
        assert row == 1 == np.argmin(scores)
        assert best_fprs.tobytes() == fprs[1].tobytes()
        assert score == scores[1]

    @pytest.mark.parametrize("config", CONFIGS, ids=["fpr", "memory"])
    def test_layouts_tied_on_exact_score_go_to_the_smallest_row(self, config):
        order = [0, 2, 1, 1, 2, 1]  # the best layout at rows 2, 3 and 5
        row, _, _ = self.settle(config, self.KEY_MASS[order], self.NONKEY_MASS[order])
        assert row == 2

    @pytest.mark.parametrize("config", CONFIGS, ids=["fpr", "memory"])
    def test_a_later_round_finds_what_a_wrong_rank_hid(self, config, monkeypatch):
        # ranks that put the worst layout far below the rest: its exact score
        # then admits the others, and the true winner is found
        _, scores = self.exact(config, self.KEY_MASS, self.NONKEY_MASS)
        ranks = scores.copy()
        ranks[np.argmax(scores)] = scores.min() / 4
        monkeypatch.setattr(optimizer, "_ranked_scores", lambda *args: ranks)
        assert self.settle(config, self.KEY_MASS, self.NONKEY_MASS)[0] == 1

    def test_a_ranked_lowest_layout_that_is_infeasible_does_not_end_the_sweep(
        self, monkeypatch
    ):
        # the first layout clamps all its key mass and cannot meet the target
        config = BuildConfig("fpr", 8, 2, target_fpr=0.01)
        key_mass = np.array([[1.0, 1e-12], [0.5, 0.5], [0.25, 0.75]])
        nonkey_mass = np.array([[1e-12, 1.0], [0.5, 0.5], [0.75, 0.25]])
        _, scores = self.exact(config, key_mass, nonkey_mass)
        assert np.isnan(scores[0]) and scores[2] < scores[1]
        ranks = np.array([1.0, 2.0, 3.0])
        monkeypatch.setattr(optimizer, "_ranked_scores", lambda *args: ranks)
        assert self.settle(config, key_mass, nonkey_mass)[0] == 2

    def test_a_layout_ranked_nan_but_exactly_feasible_is_settled(self):
        # at 3000 bits per key 2**-beta is subnormal, so no layout gets a rank
        d = SegmentedDistribution.from_masses(range(1, 9), range(8, 0, -1), n_keys=100)
        config = BuildConfig("memory", 8, 3, algorithm="fastpp", memory_bits=3e5)
        layouts = np.array([[0, 2, 5], [0, 3, 6], [0, 1, 7]])
        key_mass, nonkey_mass = d.masses(layouts, np.c_[layouts[:, 1:], [8, 8, 8]])
        scaled = config.effective_scaled_keys(d)
        ranked = optimizer._ranked_scores(config, scaled, key_mass, nonkey_mass)
        assert np.isnan(ranked).all()
        _, scores = optimizer._rates_and_score(config, scaled, key_mass, nonkey_mass)
        assert not np.isnan(scores).any()
        plan = solve(d, config)
        assert plan.fprs == (FPR_FLOOR,) * 3
        assert plan.boundaries == exhaustive_plan(d, config).boundaries

    @pytest.mark.parametrize("config, error", [
        (BuildConfig("fpr", 4, 3, algorithm="fast", target_fpr=0.01),
         "cannot meet target rate 0.01"),
        (BuildConfig("memory", 4, 3, algorithm="fast", memory_bits=1e-8),
         "cannot spend 1e-08 bits"),
    ], ids=["fpr", "memory"])
    def test_an_all_infeasible_sweep_settles_every_layout(self, monkeypatch, config, error):
        # the first ones' error is then raised, as
        # test_when_every_layout_is_infeasible_the_first_ones_error_is_raised
        # asserts; both frameworks settle through the one exact solve
        d = SegmentedDistribution.from_masses([1, 0, 0, 0], [0, 0, 0, 1], n_keys=1000)
        settled = []
        exact = optimizer._rates_and_score

        def spy(config, scaled, key_mass, nonkey_mass):
            settled.append(len(np.atleast_2d(key_mass)))
            return exact(config, scaled, key_mass, nonkey_mass)

        monkeypatch.setattr(optimizer, "_rates_and_score", spy)
        with pytest.raises(InfeasibleError, match=error):
            solve(d, config)
        assert settled == [2, 1]  # both layouts, then the first one alone

    def test_a_lone_infeasible_layout_settles_to_none(self):
        config = BuildConfig("fpr", 8, 2, target_fpr=0.01)
        key_mass, nonkey_mass = np.array([[1.0, 1e-12]]), np.array([[1e-12, 1.0]])
        assert np.isnan(self.exact(config, key_mass, nonkey_mass)[1][0])
        assert self.settle(config, key_mass, nonkey_mass) is None


class TestPlanningInput:
    """Every planner, planning_table and the oracle refuse unnormalized masses first."""

    @staticmethod
    def _refuse_tables(monkeypatch):
        def no_table(*args, **kwargs):
            raise AssertionError("a table was built")

        monkeypatch.setattr(optimizer, "divergence_table", no_table)
        monkeypatch.setattr(optimizer, "divergence_table_monotone", no_table)
        monkeypatch.setattr(optimizer._TableBuilder, "build", no_table)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_every_planner_refuses_before_any_table(self, monkeypatch, algorithm):
        d = SegmentedDistribution.from_masses([2, 1, 1, 1], [1, 1, 1, 1], 10, normalize=False)
        cfg = BuildConfig("fpr", 4, 2, algorithm=algorithm, target_fpr=0.01)
        self._refuse_tables(monkeypatch)
        with pytest.raises(ValidationError, match=r"^key masses sum to 5\.0, not 1"):
            solve(d, cfg)
        with pytest.raises(ValidationError, match=r"^key masses sum to 5\.0, not 1"):
            planning_table(d, cfg)

    def test_the_oracle_refuses_too(self, monkeypatch):
        d = SegmentedDistribution.from_masses([2, 1, 1, 1], [1, 1, 1, 1], 10, normalize=False)
        monkeypatch.setattr(oracle, "best_clustering_exhaustive", None)  # never reached
        with pytest.raises(ValidationError, match=r"^key masses sum to 5\.0, not 1"):
            exhaustive_plan(d, BuildConfig("memory", 4, 2, memory_bits=100.0))

    def test_names_the_non_key_side(self):
        d = SegmentedDistribution.from_masses([0.5, 0.5, 0.0], [0.25, 0.25, 0.25], 10,
                                              normalize=False)
        for algorithm in ALGORITHMS:
            with pytest.raises(ValidationError, match=r"^non-key masses sum to 0\.75, not 1"):
                solve(d, BuildConfig("fpr", 3, 2, algorithm=algorithm, target_fpr=0.1))

    def test_the_tolerance_bounds_the_total(self):
        # a total off by less than MASS_SUM_TOLERANCE, as floored empty
        # segments and rounding leave it, still plans; a little more does not
        def dist(excess):
            return SegmentedDistribution.from_masses(
                [0.5, 0.25, 0.25 + excess], [0.25, 0.25, 0.5], 10, normalize=False
            )

        for algorithm in ALGORITHMS:
            cfg = BuildConfig("fpr", 3, 2, algorithm=algorithm, target_fpr=0.1)
            assert solve(dist(0.9 * MASS_SUM_TOLERANCE), cfg).n_regions == 2
            assert planning_table(dist(0.9 * MASS_SUM_TOLERANCE), cfg).n_cols == 2
            with pytest.raises(ValidationError, match="^key masses sum to"):
                solve(dist(1.1 * MASS_SUM_TOLERANCE), cfg)
        assert exhaustive_plan(dist(0.9 * MASS_SUM_TOLERANCE), cfg).n_regions == 2


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

    def test_numbers_of_another_type_rejected(self):
        data = {
            "framework": "fpr", "n_regions": 2.7, "n_segments": 20,
            "boundaries": [0, True, 20.9], "thresholds": [0.0, 0.05, 1.0],
            "fprs": [0.1, 0.2], "key_mass": [0.5, 0.5], "nonkey_mass": [0.5, 0.5],
            "objective": 1.0,
        }
        with pytest.raises(ValidationError, match="plan_to_dict"):
            plan_from_dict(data)

    def test_fractional_boundary_rejected(self):
        data = plan_to_dict(self._sample_plan())
        data["boundaries"][1] += 0.9
        with pytest.raises(ValidationError, match="plan_to_dict"):
            plan_from_dict(data)

    def test_document_that_is_not_an_object_rejected(self):
        with pytest.raises(ValidationError, match="malformed plan document"):
            plan_from_dict([plan_to_dict(self._sample_plan())])


def portable_power(u, p):
    """``u ** p`` per element with ``math.pow``, whose result does not depend on
    which SIMD code numpy dispatches to (``np.power``'s does)."""
    return np.array([math.pow(x, p) for x in u.tolist()])


def pinned_histograms():
    """Sixty seeded sparse, skewed histograms, each with a region count and budgets.

    Masses are ``u ** p`` with p up to 30 and a share zeroed, as in the
    property tests; histograms with no key or no non-key mass are redrawn.
    Every power is taken with ``math.pow``, so the inputs, and with them the
    pinned plans, are the same on every CPU.
    """
    rng = np.random.default_rng(20260)
    cases = []
    while len(cases) < 60:
        n = int(rng.integers(3, 31))
        g, h = (portable_power(rng.uniform(size=n), rng.uniform(1.0, 30.0)) for _ in range(2))
        g[rng.uniform(size=n) < 0.4] = 0.0
        h[rng.uniform(size=n) < 0.3] = 0.0
        k = int(rng.integers(2, n))
        n_keys = int(rng.integers(1, 10**5))
        target_fpr = math.pow(10.0, rng.uniform(-5.0, -0.05))
        memory_bits = float(n_keys * math.pow(10.0, rng.uniform(-2.0, 1.3)))
        if g.sum() > 0 and h.sum() > 0:
            d = SegmentedDistribution.from_masses(g, h, n_keys=n_keys)
            cases.append((d, k, target_fpr, memory_bits))
    return cases


class TestPlanPins:
    """Plans of every planner under both frameworks stay byte-identical.

    Each pin is the sha256 of the canonical ``plan_to_dict`` JSON of the
    plans for :func:`pinned_histograms`, one line per histogram, leaving out
    the histograms listed beside it, where that planner must raise
    :class:`InfeasibleError`.
    """

    PINS = {
        ("plbf", "fpr"): (
            "c8ea6d4beaa17743170fda6a1c76072c1ef2decd5bacd6b0df7c5204a83a0b66",
            (4, 7, 8, 10, 15, 19, 21, 25, 27, 33, 38, 39, 41, 49, 50, 53, 55),
        ),
        ("plbf", "memory"): (
            "7e5bbe942efa4e1d1854467ba8ccd3679e36ce041f8e3c32fa6d6c257238ab9c",
            (4, 7, 8, 10, 15, 19, 21, 25, 27, 33, 38, 39, 41, 50, 53, 55),
        ),
        ("fast", "fpr"): (
            "c8ea6d4beaa17743170fda6a1c76072c1ef2decd5bacd6b0df7c5204a83a0b66",
            (4, 7, 8, 10, 15, 19, 21, 25, 27, 33, 38, 39, 41, 49, 50, 53, 55),
        ),
        ("fast", "memory"): (
            "7e5bbe942efa4e1d1854467ba8ccd3679e36ce041f8e3c32fa6d6c257238ab9c",
            (4, 7, 8, 10, 15, 19, 21, 25, 27, 33, 38, 39, 41, 50, 53, 55),
        ),
        ("fastpp", "fpr"): (
            "7dab9f243083c4ee6cd095f1f03279afee72235e71675077042ab7e036962103",
            (4, 7, 8, 10, 15, 19, 21, 25, 27, 33, 38, 39, 41, 49, 50, 53, 55),
        ),
        ("fastpp", "memory"): (
            "6850189e4281ca972ffdf443113ed6b5db44c6ffe8fe1c1193a25bf378bdd3fc",
            (4, 7, 8, 10, 15, 19, 21, 25, 27, 33, 38, 39, 41, 50, 53, 55),
        ),
        ("relaxed", "fpr"): (
            "53856b39c8c5e5ea3041a1c2147cf107cd2bddd90cc5d5d370c0cc2cd41bb46b",
            (
                0, 2, 4, 5, 7, 8, 10, 15, 19, 21, 22, 25, 26, 27, 33, 35, 36, 38, 39, 40,
                41, 42, 43, 44, 46, 49, 50, 52, 53, 55,
            ),
        ),
        ("relaxed", "memory"): (
            "a6b785e8e42af4af74752a9f7cdb4ea752641b58692aaeac3730d826701690e3",
            (
                0, 2, 4, 5, 7, 8, 10, 15, 19, 21, 22, 25, 26, 27, 33, 35, 38, 39, 40, 41,
                42, 44, 46, 50, 52, 53, 55,
            ),
        ),
    }

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("framework", ["fpr", "memory"])
    def test_plans_match_pins(self, algorithm, framework):
        digest, left_out = self.PINS[algorithm, framework]
        lines = []
        for i, (d, k, target_fpr, memory_bits) in enumerate(pinned_histograms()):
            budget = {"fpr": dict(target_fpr=target_fpr), "memory": dict(memory_bits=memory_bits)}
            config = BuildConfig(
                framework, d.n_segments, k, algorithm=algorithm, **budget[framework]
            )
            if i in left_out:
                with pytest.raises(InfeasibleError):
                    solve(d, config)
                continue
            plan = solve(d, config)
            lines.append(json.dumps(plan_to_dict(plan), sort_keys=True))
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == digest
