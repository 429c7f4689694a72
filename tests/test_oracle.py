import numpy as np
import pytest
from conftest import DenseMatrix, random_distribution, underflow_distribution

from plbf import (
    BuildConfig,
    PlbfError,
    SegmentedDistribution,
    ValidationError,
    best_clustering_exhaustive,
    divergence,
    exhaustive_plan,
    naive_row_maxima,
    solve,
)


class TestBestClusteringExhaustive:
    def test_two_regions_have_a_single_candidate(self):
        # k=2 leaves no interior cut: everything before j is one region
        d = SegmentedDistribution.from_masses(
            [0.25, 0.25, 0.5], [0.5, 0.25, 0.25], n_keys=4, normalize=False
        )
        value, ends = best_clustering_exhaustive(d, 3, 2)
        assert ends == (2,)
        assert value == pytest.approx(divergence(d, 1, 2), abs=1e-12)

    def test_three_region_hand_instance(self):
        # strong keys left, strong non-keys right: cut where the ratio flips
        d = SegmentedDistribution.from_masses(
            [0.45, 0.45, 0.05, 0.05], [0.05, 0.05, 0.45, 0.45], n_keys=4,
            normalize=False,
        )
        value, ends = best_clustering_exhaustive(d, 4, 3)
        assert ends == (2, 3)
        assert value == pytest.approx(
            divergence(d, 1, 2) + divergence(d, 3, 3), abs=1e-12
        )

    def test_empty_sides_on_an_unfloored_histogram(self):
        d = SegmentedDistribution.from_masses(
            [0.0, 0.5, 0.5, 0.0], [0.5, 0.25, 0.0, 0.25], n_keys=4, normalize=False
        )
        # no key mass: the region contributes nothing
        assert best_clustering_exhaustive(d, 2, 2) == (0.0, (1,))
        # key mass over no non-key mass: (2, 3) ends in an infinite region
        assert best_clustering_exhaustive(d, 4, 3) == (np.inf, (2, 3))

    def test_start_without_a_finite_clustering_has_none(self):
        # G / H of segment 1 underflows to 0: its only clustering scores -inf
        d = underflow_distribution()
        assert best_clustering_exhaustive(d, 2, 2) == (-np.inf, None)
        assert best_clustering_exhaustive(d, 3, 2)[1] == (2,)

    def test_degenerate_prefix_forces_singletons(self):
        d = random_distribution(np.random.default_rng(0), 6)
        _, ends = best_clustering_exhaustive(d, 3, 3)
        assert ends == (1, 2)

    def test_caps_and_validation(self):
        d = random_distribution(np.random.default_rng(1), 20)
        with pytest.raises(ValidationError):
            best_clustering_exhaustive(d, 13, 3)  # over the segment cap
        with pytest.raises(ValidationError):
            best_clustering_exhaustive(d, 10, 5)  # over the region cap
        small = random_distribution(np.random.default_rng(2), 4)
        with pytest.raises(ValidationError):
            best_clustering_exhaustive(small, 1, 2)


class TestNaiveRowMaxima:
    def test_hand_matrix_with_ties(self):
        matrix = DenseMatrix([[1.0, 7.0, 7.0], [0.0, -1.0, 3.0]])
        assert naive_row_maxima(matrix) == [(1, 7.0), (2, 3.0)]

    def test_single_cell(self):
        assert naive_row_maxima(DenseMatrix([[4.5]])) == [(0, 4.5)]


class TestExhaustivePlan:
    def test_matches_dp_solver_on_random_instances(self):
        rng = np.random.default_rng(3)
        for i in range(100):
            n = int(rng.integers(5, 13))
            k = int(rng.integers(2, min(4, n - 1) + 1))
            d = random_distribution(rng, n)
            if i % 2:
                cfg = dict(framework="fpr", target_fpr=float(rng.uniform(0.01, 0.3)))
            else:
                cfg = dict(
                    framework="memory",
                    memory_bits=float(rng.uniform(200.0, 4000.0)),
                )
            reference = exhaustive_plan(
                d, BuildConfig(n_segments=n, n_regions=k, algorithm="plbf", **cfg)
            )
            solved = solve(
                d, BuildConfig(n_segments=n, n_regions=k, algorithm="plbf", **cfg)
            )
            assert solved.boundaries == reference.boundaries
            assert solved.fprs == pytest.approx(reference.fprs, rel=1e-9)
            assert solved.objective == pytest.approx(reference.objective, rel=1e-9)

    def test_degenerate_single_layout(self):
        d = random_distribution(np.random.default_rng(4), 4)
        cfg = BuildConfig(
            framework="fpr", n_segments=4, n_regions=3, target_fpr=0.1
        )
        plan = exhaustive_plan(d, cfg)
        solved = solve(d, cfg)
        assert plan.boundaries == solved.boundaries
        assert plan.algorithm == "exhaustive"

    def test_size_caps(self):
        d = random_distribution(np.random.default_rng(5), 40)
        cfg = BuildConfig(framework="fpr", n_segments=40, n_regions=3, target_fpr=0.1)
        with pytest.raises(ValidationError):
            exhaustive_plan(d, cfg)

    def test_handles_infinite_divergence_regions(self):
        # a segment with zero non-key mass gets floored, not crashed on
        d = SegmentedDistribution.from_masses(
            [0.2, 0.4, 0.4], [0.5, 0.5, 0.0], n_keys=10, normalize=False
        )
        cfg = BuildConfig(framework="fpr", n_segments=3, n_regions=2, target_fpr=0.05)
        plan = exhaustive_plan(d, cfg)
        solved = solve(d, cfg)
        assert plan.boundaries == solved.boundaries

    @pytest.mark.parametrize("budget", [
        dict(framework="fpr", target_fpr=0.01),
        dict(framework="memory", memory_bits=60000.0),
    ], ids=["fpr", "memory"])
    def test_underflowed_region_ratio_raises_a_plbf_error(self, budget):
        # these masses are unnormalized, so the histogram is refused before
        # any clustering is scored
        cfg = BuildConfig(n_segments=4, n_regions=2, **budget)
        with pytest.raises(PlbfError):
            exhaustive_plan(underflow_distribution(), cfg)
