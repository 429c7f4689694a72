import gc
import itertools
import math
import re
import weakref

import numpy as np
import pytest
from conftest import (
    CountingMatrix,
    DenseMatrix,
    planted_monotone_matrix,
    random_distribution,
    underflow_distribution,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from plbf import (
    DPTable,
    InfeasibleError,
    SegmentedDistribution,
    SyntheticSpec,
    TransitionMatrix,
    ValidationError,
    divergence,
    divergence_table,
    divergence_table_monotone,
    monotone_row_maxima,
    trace_layouts,
    zipfian_distribution,
)
from plbf.dp import _TableBuilder, divergences, write_table_csv
from plbf.oracle import best_clustering_exhaustive, naive_row_maxima

NEG_INF = float("-inf")


def dyadic_dist():
    # powers of two keep every mass and prefix sum exact in binary
    return SegmentedDistribution.from_masses(
        [0.25, 0.25, 0.5], [0.5, 0.25, 0.25], n_keys=8, normalize=False
    )


def slab_cells(dist):
    """The N x k builder's divergence matrix in one block: (r, c) is segments c+1..r+1."""
    n = dist.n_segments
    div, scratch = np.empty((n - 1, n - 1)), np.empty((n - 1, n - 1))
    _TableBuilder(dist)._slab(1, n, div, scratch)
    return div


# zero masses, subnormals, and masses far enough apart to overflow or
# underflow G / H, unnormalized
EDGE_MASSES = st.sampled_from([0.0, 5e-324, 1e-310, 1e-300, 1e-160, 0.25, 1.0, 3.0, 1e160, 1e300])


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
        for first, last in ((0, 1), (2, 1), (1, 4), (4, 4), (1.5, 2), (1, "2")):
            with pytest.raises(ValidationError):
                divergence(d, first, last)

    def test_underflowed_ratio_is_minus_infinity(self):
        d = underflow_distribution()
        assert divergence(d, 1, 1) == NEG_INF
        got = divergences(d, np.array([0, 0]), np.array([1, 3])).tolist()
        assert got == [NEG_INF, 2.0 * math.log2(2.0 / 1e300)]

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @example(masses=[(1e-300, 1e300), (1.0, 1.0), (1.0, 1.0), (1.0, 1.0)])  # G / H underflows
    @example(masses=[(1e300, 1e-300), (0.25, 0.0), (0.0, 0.25)])  # overflows; zero masses
    @example(masses=[(5e-324, 1e-310), (1e-310, 5e-324), (1.0, 0.0)])  # subnormals
    @given(masses=st.lists(st.tuples(EDGE_MASSES, EDGE_MASSES), min_size=2, max_size=7))
    def test_every_region_gets_the_slabs_value(self, masses):
        g, h = zip(*masses)
        d = SegmentedDistribution.from_masses(g, h, n_keys=1, normalize=False)
        rows, cols = np.tril_indices(d.n_segments - 1)  # every region c+1..r+1
        want = slab_cells(d)[rows, cols]
        got = divergences(d, cols, rows + 1)
        assert [divergence(d, c + 1, r + 1) for r, c in zip(rows, cols)] == got.tolist()
        assert not np.isnan(got).any()
        assert got.tobytes() == want.tobytes()


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
        for build in (divergence_table, divergence_table_monotone):
            with pytest.raises(ValidationError, match="n_regions must be at least 2"):
                build(d, 1)
            with pytest.raises(ValidationError, match=re.escape("below n_segments (3 >= 3)")):
                build(d, 3)  # k must stay below n
            with pytest.raises(ValidationError, match="n_regions must be an integer"):
                build(d, 2.5)


class TestDPTable:
    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ValidationError, match="values and parents must have matching shapes"):
            DPTable(np.zeros((3, 2)), np.zeros((3, 3), dtype=np.int32))


def hand_made_table(shape, parents=()):
    """A table of zero values whose parents are -1 except at the given cells."""
    table = np.full(shape, -1, dtype=np.int32)
    for cell, first in dict(parents).items():
        table[cell] = first
    return DPTable(np.zeros(shape), table)


class TestTraceBoundaries:
    def test_smallest_feasible_prefix_forces_singletons(self):
        d = random_distribution(np.random.default_rng(5), 9)
        table = divergence_table(d, 4)
        assert trace_layouts(table, [4], 4).tolist() == [[0, 1, 2, 3, 9]]

    def test_clear_cut_instance(self):
        d = SegmentedDistribution.from_masses(
            [0.45, 0.45, 0.05, 0.05], [0.05, 0.05, 0.45, 0.45], n_keys=4,
            normalize=False,
        )
        table = divergence_table(d, 3)
        assert trace_layouts(table, [4], 3).tolist() == [[0, 2, 3, 4]]

    def test_unreachable_cell_gets_no_row(self):
        # the others keep their order
        d = random_distribution(np.random.default_rng(6), 6)
        table = divergence_table(d, 4)
        assert trace_layouts(table, [2], 4).shape == (0, 5)  # 1 segment cannot fill 3 regions
        assert trace_layouts(table, [5, 2, 4], 4).tolist() == (
            trace_layouts(table, [5], 4).tolist() + trace_layouts(table, [4], 4).tolist()
        )

    def test_missing_parent_raises(self):
        # the walk once turned this -1 parent into boundary -2
        table = hand_made_table((3, 2))
        with pytest.raises(InfeasibleError, match=r"no clustering recorded at table cell \(2, 1\)"):
            trace_layouts(table, [3], 2)

    def test_parent_chain_must_reach_the_first_segment(self):
        # the one region would start at segment 2, leaving segment 1 over
        table = hand_made_table((3, 2), {(2, 1): 2})
        with pytest.raises(InfeasibleError, match="parent chain did not consume the whole prefix"):
            trace_layouts(table, [3], 2)

    def test_out_of_range_cell_raises(self):
        d = random_distribution(np.random.default_rng(7), 6)
        table = divergence_table(d, 3)
        with pytest.raises(ValidationError, match=r"cell \(8, 2\) outside table of shape \(6, 3\)"):
            trace_layouts(table, [9], 3)

    @pytest.mark.parametrize("starts, n_regions, message", [
        ([0], 3, "cell (-1, 2) outside table"),
        ([3, 7], 3, "cell (6, 2) outside table"),
        ([3], 4, "cell (2, 3) outside table"),
        ([3], 0, "cell (2, -1) outside table"),
        ([], 5, "cell (0, 4) outside table"),
        ([3], 2.5, "n_regions must be an integer, got 2.5"),
        ([3.7], 2, "start must be an integer, got 3.7"),
        ([3, 2.0], 2, "start must be an integer, got 2.0"),
    ], ids=["start-0", "start-past-end", "too-many-regions", "no-regions", "no-starts",
            "fractional-regions", "fractional-start", "float-start"])
    def test_every_start_and_region_count_is_checked(self, starts, n_regions, message):
        d = random_distribution(np.random.default_rng(7), 6)
        table = divergence_table(d, 3)
        with pytest.raises(ValidationError, match=re.escape(message)):
            trace_layouts(table, starts, n_regions)

    def test_parent_past_its_row_raises(self):
        table = hand_made_table((3, 3), {(2, 2): 5})
        with pytest.raises(InfeasibleError, match=r"no clustering recorded at table cell \(2, 2\)"):
            trace_layouts(table, [3], 3)

    def test_zero_width_region_raises(self):
        # parent p + 1 at cell (3, 2) would start a region after its own end
        table = hand_made_table((4, 3), {(3, 2): 4, (3, 1): 1})
        with pytest.raises(InfeasibleError, match=r"no clustering recorded at table cell \(3, 2\)"):
            trace_layouts(table, [4], 3)

    def test_parents_must_be_integers(self):
        with pytest.raises(ValidationError, match="parents must be an integer array"):
            DPTable(np.zeros((3, 2)), np.zeros((3, 2)))


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

    def test_no_rows_gives_no_maxima(self):
        assert monotone_row_maxima(DenseMatrix([])) == []

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

    def test_leaves_no_reference_cycle(self):
        class Matrix:  # DenseMatrix has __slots__, so no weak reference
            row_count = col_count = 6

            def value(self, row, col):
                return -abs(row - col)

        matrix = Matrix()
        alive = weakref.ref(matrix)
        gc.disable()
        try:
            assert monotone_row_maxima(matrix) == [(r, 0) for r in range(6)]
            del matrix
            assert alive() is None
        finally:
            gc.enable()


class TestDenseMatrix:
    def test_rejects_ragged_rows_and_nan(self):
        with pytest.raises(ValidationError):
            DenseMatrix([[1.0], [1.0, 2.0]])
        with pytest.raises(ValidationError):
            DenseMatrix([[math.nan, 1.0], [2.0, 3.0]])

    def test_value_is_elementwise(self):
        matrix = DenseMatrix([[1.0, 2.0], [3.0, 4.0]])
        assert matrix.value(1, 0) == 3.0
        assert matrix.value(np.array([0, 1, 1]), np.array([1, 1, 0])).tolist() == [2.0, 4.0, 3.0]


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
    # The paper's guarantee, to the bit: on an ideal histogram both builders
    # score every region with the one rule, and divide and conquer finds the
    # scan's maxima.  The property for sparse or subnormal ideal histograms
    # waits for exact region masses (ROADMAP direction 8): a mass below one
    # ULP of its prefix sum vanishes from it today, and the two builders'
    # tables can differ.
    def test_equals_full_table_on_ideal_distribution(self):
        for n, k, exponent in itertools.product((300, 1000, 4000), (2, 5, 8), (0.5, 1.0, 2.0)):
            d = zipfian_distribution(SyntheticSpec(n, 1000, 1000, exponent))
            full = divergence_table(d, k)
            mono = divergence_table_monotone(d, k)
            assert mono.values.tobytes() == full.values.tobytes(), (n, k, exponent)
            assert mono.parents.tobytes() == full.parents.tobytes(), (n, k, exponent)

    def test_underflowed_ratio_is_unreachable_in_both_builders(self):
        d = underflow_distribution()
        for k in (2, 3):
            full = divergence_table(d, k)
            mono = divergence_table_monotone(d, k)
            assert full.values[1, 1] == mono.values[1, 1] == NEG_INF  # segment 1 alone
            assert ((full.values == NEG_INF) == (mono.values == NEG_INF)).all()
            assert (full.parents == mono.parents).all()

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

    def test_every_cell_is_a_plain_number(self, tmp_path):
        table = divergence_table(dyadic_dist(), 2)
        path = tmp_path / "table.csv"
        write_table_csv(table, path)
        for line in path.read_text().splitlines()[1:]:
            p, q, value, parent = line.split(",")
            assert float(value) == table.values[int(p), int(q)]
            assert int(parent) == table.parents[int(p), int(q)]
