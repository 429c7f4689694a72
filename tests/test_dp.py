import math

import numpy as np
import pytest
from conftest import CountingMatrix, planted_monotone_matrix, random_distribution

from plbf import (
    DenseMatrix,
    InfeasibleError,
    SegmentedDistribution,
    SyntheticSpec,
    TransitionMatrix,
    ValidationError,
    divergence,
    divergence_table,
    divergence_table_monotone,
    monotone_row_maxima,
    trace_boundaries,
    zipfian_distribution,
)
from plbf.dp import write_table_csv
from plbf.oracle import best_clustering_exhaustive, naive_row_maxima

NEG_INF = float("-inf")


def dyadic_dist():
    # powers of two keep every mass and prefix sum exact in binary
    return SegmentedDistribution.from_masses(
        [0.25, 0.25, 0.5], [0.5, 0.25, 0.25], n_keys=8, normalize=False
    )


class TestDivergence:
    def test_exact_dyadic_values(self):
        d = dyadic_dist()
        assert divergence(d, 1, 1) == -0.25  # 0.25 * log2(1/2)
        assert divergence(d, 2, 2) == 0.0  # equal masses
        assert divergence(d, 3, 3) == 0.5  # 0.5 * log2(2)
        assert divergence(d, 1, 3) == 0.0  # whole range, both masses 1

    def test_matches_scalar_formula(self):
        d = dyadic_dist()
        assert divergence(d, 1, 2) == pytest.approx(0.5 * math.log2(0.5 / 0.75), abs=1e-15)
        assert divergence(d, 2, 3) == pytest.approx(0.75 * math.log2(0.75 / 0.5), abs=1e-15)

    def test_zero_key_mass_contributes_nothing(self):
        d = SegmentedDistribution.from_masses([0, 1], [0.5, 0.5], n_keys=1, normalize=False)
        assert divergence(d, 1, 1) == 0.0

    def test_key_mass_over_empty_nonkeys_is_infinite(self):
        d = SegmentedDistribution.from_masses([0.5, 0.5], [0, 1], n_keys=1, normalize=False)
        assert divergence(d, 1, 1) == math.inf

    def test_rejects_bad_ranges(self):
        d = dyadic_dist()
        for first, last in ((0, 1), (2, 1), (1, 4), (4, 4)):
            with pytest.raises(ValidationError):
                divergence(d, first, last)


class TestDivergenceTable:
    def test_column_one_is_single_region_divergence(self):
        d = dyadic_dist()
        table = divergence_table(d, 2)
        assert table.values[0, 0] == 0.0
        for p in (1, 2):
            assert table.values[p, 1] == pytest.approx(divergence(d, 1, p), abs=1e-12)
            assert table.parents[p, 1] == 1

    def test_unreachable_cells_are_marked(self):
        d = random_distribution(np.random.default_rng(0), 6)
        table = divergence_table(d, 4)
        assert table.values[0, 1] == NEG_INF  # regions but no segments
        assert table.values[1, 2] == NEG_INF  # more regions than segments
        assert table.values[2, 0] == NEG_INF  # segments but no regions
        assert table.parents[1, 2] == -1

    def test_matches_enumeration_on_random_instances(self):
        rng = np.random.default_rng(1)
        for _ in range(60):
            n = int(rng.integers(4, 11))
            k = int(rng.integers(2, min(4, n - 1) + 1))
            d = random_distribution(rng, n)
            table = divergence_table(d, k)
            value, _ = best_clustering_exhaustive(d, n, k)
            assert table.values[n - 1, k - 1] == pytest.approx(value, abs=1e-9)

    def test_values_never_decrease_with_more_regions(self):
        # splitting a region can only raise total divergence (log-sum inequality)
        rng = np.random.default_rng(2)
        for _ in range(20):
            n = int(rng.integers(5, 12))
            d = random_distribution(rng, n)
            table = divergence_table(d, 4)
            for p in range(1, n):
                for q in range(1, 3):
                    lo, hi = table.values[p, q], table.values[p, q + 1]
                    if lo != NEG_INF and hi != NEG_INF:
                        assert hi >= lo - 1e-12

    def test_region_count_validation(self):
        d = dyadic_dist()
        with pytest.raises(ValidationError):
            divergence_table(d, 1)
        with pytest.raises(ValidationError):
            divergence_table(d, 3)  # k must stay below n


class TestTraceBoundaries:
    def test_smallest_feasible_prefix_forces_singletons(self):
        d = random_distribution(np.random.default_rng(5), 9)
        table = divergence_table(d, 4)
        assert trace_boundaries(table, 4, 4) == [1, 2, 3]

    def test_clear_cut_instance(self):
        d = SegmentedDistribution.from_masses(
            [0.45, 0.45, 0.05, 0.05], [0.05, 0.05, 0.45, 0.45], n_keys=4,
            normalize=False,
        )
        table = divergence_table(d, 3)
        assert trace_boundaries(table, 4, 3) == [2, 3]

    def test_unreachable_cell_raises(self):
        d = random_distribution(np.random.default_rng(6), 6)
        table = divergence_table(d, 4)
        with pytest.raises(InfeasibleError):
            trace_boundaries(table, 2, 4)  # 1 segment cannot fill 3 regions

    def test_out_of_range_cell_raises(self):
        d = random_distribution(np.random.default_rng(7), 6)
        table = divergence_table(d, 3)
        with pytest.raises(ValidationError):
            trace_boundaries(table, 9, 3)


class TestMonotoneRowMaxima:
    def test_matches_naive_on_planted_matrices(self):
        rng = np.random.default_rng(8)
        for _ in range(40):
            n = int(rng.integers(1, 40))
            m = int(rng.integers(1, 40))
            matrix, targets = planted_monotone_matrix(rng, n, m)
            result = monotone_row_maxima(matrix)
            assert result == naive_row_maxima(matrix)
            assert [c for c, _ in result] == targets

    def test_single_row_and_single_column(self):
        assert monotone_row_maxima(DenseMatrix([[3.0, 9.0, 1.0]])) == [(1, 9.0)]
        assert monotone_row_maxima(DenseMatrix([[2.0], [5.0]])) == [(0, 2.0), (0, 5.0)]

    def test_ties_resolve_to_smallest_column(self):
        matrix = DenseMatrix([[1.0, 4.0, 4.0], [0.0, 4.0, 4.0]])
        assert monotone_row_maxima(matrix) == [(1, 4.0), (1, 4.0)]

    def test_evaluation_count_is_subquadratic(self):
        rng = np.random.default_rng(9)
        inner, _ = planted_monotone_matrix(rng, 128, 128)
        counted = CountingMatrix(inner)
        monotone_row_maxima(counted)
        n, m = 128, 128
        assert counted.calls <= 4 * (n + m * math.log2(n))
        assert counted.calls < n * m / 4  # far below the full scan


class TestTransitionMatrix:
    def test_entries_follow_the_recurrence(self):
        d = dyadic_dist()
        prev = [0.0, NEG_INF, NEG_INF]
        matrix = TransitionMatrix(d, prev)
        assert matrix.row_count == matrix.col_count == 2
        # start at segment 1 (col 0): prev[0] + divergence(1..row+1)
        assert matrix.value(0, 0) == pytest.approx(divergence(d, 1, 1), abs=1e-12)
        assert matrix.value(1, 0) == pytest.approx(divergence(d, 1, 2), abs=1e-12)

    def test_upper_triangle_is_forbidden(self):
        matrix = TransitionMatrix(dyadic_dist(), [0.0, 0.0, 0.0])
        assert matrix.value(0, 1) == NEG_INF

    def test_unreachable_prefix_propagates(self):
        matrix = TransitionMatrix(dyadic_dist(), [NEG_INF, 0.0, 0.0])
        assert matrix.value(1, 0) == NEG_INF

    def test_zero_key_mass_keeps_previous_value(self):
        d = SegmentedDistribution.from_masses(
            [0.0, 1.0], [0.5, 0.5], n_keys=1, normalize=False
        )
        matrix = TransitionMatrix(d, [0.25])
        assert matrix.value(0, 0) == 0.25

    def test_zero_nonkey_mass_is_infinite(self):
        d = SegmentedDistribution.from_masses(
            [0.5, 0.5], [0.0, 1.0], n_keys=1, normalize=False
        )
        matrix = TransitionMatrix(d, [0.0])
        assert matrix.value(0, 0) == math.inf


class TestMonotoneTable:
    def test_equals_full_table_on_ideal_distribution(self):
        d = zipfian_distribution(SyntheticSpec(100, 1000, 1000))
        full = divergence_table(d, 5)
        mono = divergence_table_monotone(d, 5)
        reachable = full.values != NEG_INF
        assert np.allclose(
            full.values[reachable], mono.values[reachable], rtol=1e-9, atol=1e-12
        )
        for j in range(5, 101):
            assert trace_boundaries(mono, j, 5) == trace_boundaries(full, j, 5)

    def test_never_exceeds_full_table(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            n = int(rng.integers(6, 30))
            d = random_distribution(rng, n)
            full = divergence_table(d, 4)
            mono = divergence_table_monotone(d, 4)
            assert (mono.values <= full.values + 1e-9).all()


class TestTableCsv:
    def test_dump_row_count(self, tmp_path):
        d = dyadic_dist()
        table = divergence_table(d, 2)
        path = tmp_path / "table.csv"
        write_table_csv(table, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "prefix,regions,value,parent"
        assert len(lines) == 1 + table.n_rows * table.n_cols
