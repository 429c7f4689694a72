"""The array DP paths against test-local copies of the loops they replaced.

The full and per-start tables are built in row blocks and the row-maxima
solver runs one recursion level at a time; both must give what the plain
algorithms give, byte for byte.  The references below are those plain
algorithms: one (N-1)^2 divergence matrix scanned column by column, and the
scalar divide-and-conquer loop over single-cell ``value`` calls.
"""

import tracemalloc
from itertools import count
from math import inf, isnan

import numpy as np
import pytest
from conftest import CountingMatrix, DenseMatrix, cell
from hypothesis import example, given, settings
from hypothesis import strategies as st

from plbf import (
    SegmentedDistribution,
    SyntheticSpec,
    divergence_table,
    divergence_table_monotone,
    ensure_positive_masses,
    monotone_row_maxima,
    zipfian_distribution,
)
from plbf import dp
from plbf.dp import NEG_INF, _block_rows, _TableBuilder

REFERENCE_SETTINGS = settings(max_examples=12, deadline=None, derandomize=True, database=None)

# the fewest segments whose full table takes three row blocks
THREE_BLOCKS = next(n for n in count(2) if n - 1 > 2 * _block_rows(n))


def reference_table(dist, n_rows, n_cols):
    """The full-matrix algorithm: one divergence matrix, one scan per column."""
    size = dist.n_segments - 1
    gp, hp = dist.g_prefix, dist.h_prefix
    g_mat = gp[1 : size + 1, None] - gp[None, :size]
    div = hp[1 : size + 1, None] - hp[None, :size]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        np.divide(g_mat, div, out=div)
        np.log2(div, out=div)
        np.multiply(g_mat, div, out=div)
    div[np.triu(np.ones((size, size), dtype=bool), 1)] = NEG_INF
    div[np.isnan(div)] = 0.0
    values = np.full((n_rows, n_cols), NEG_INF)
    parents = np.full((n_rows, n_cols), -1, dtype=np.int32)
    values[0, 0] = 0.0
    prev = values[:, 0].copy()
    for q in range(1, n_cols):
        with np.errstate(invalid="ignore"):
            term = div[: n_rows - 1, : n_rows - 1] + prev[None, : n_rows - 1]
        term[np.isnan(term)] = NEG_INF
        col_vals = term.max(axis=1)
        values[1:, q] = col_vals
        parents[1:, q] = np.where(col_vals == NEG_INF, -1, term.argmax(axis=1) + 1)
        prev = values[:, q].copy()
    return values, parents


def reference_row_maxima(matrix):
    """The scalar divide-and-conquer loop: one value() call per cell."""
    n, m = matrix.row_count, matrix.col_count
    out = [(0, NEG_INF)] * n
    if n == 0 or m == 0:
        return out
    stack = [(0, n - 1, 0, m - 1)]
    while stack:
        r_lo, r_hi, c_lo, c_hi = stack.pop()
        if r_lo > r_hi:
            continue
        mid = (r_lo + r_hi) >> 1
        best_c, best_v = c_lo, cell(matrix, mid, c_lo)
        for c in range(c_lo + 1, c_hi + 1):
            v = cell(matrix, mid, c)
            if v > best_v:
                best_v, best_c = v, c
        out[mid] = (best_c, float(best_v))
        stack.append((mid + 1, r_hi, best_c, c_hi))
        stack.append((r_lo, mid - 1, c_lo, best_c))
    return out


class ScalarTransitionMatrix:
    """The candidate matrix of one column update, one Python float at a time.

    A candidate is the previous entry plus the region's divergence; +inf
    plus -inf, the one NaN such a sum can make, is -inf, as in the scan.
    """

    def __init__(self, dist, prev):
        self.gp, self.hp = dist.g_prefix.tolist(), dist.h_prefix.tolist()
        self.prev = list(prev)
        self.row_count = self.col_count = dist.n_segments - 1

    def value(self, rows, counts, cols):
        return np.array([self.entry(r, c) for r, c in zip(np.repeat(rows, counts), cols)])

    def entry(self, row, col):
        if col > row:
            return NEG_INF
        sg = self.gp[row + 1] - self.gp[col]
        sh = self.hp[row + 1] - self.hp[col]
        if sg <= 0.0:
            div = 0.0
        elif sh <= 0.0:
            div = inf
        else:
            with np.errstate(divide="ignore"):  # G / H underflowed to 0
                div = sg * float(np.log2(sg / sh))
        total = self.prev[col] + div
        return NEG_INF if isnan(total) else total


def reference_monotone_table(dist, n_cols):
    n = dist.n_segments
    values = np.full((n, n_cols), NEG_INF)
    parents = np.full((n, n_cols), -1, dtype=np.int32)
    values[0, 0] = 0.0
    for q in range(1, n_cols):
        matrix = ScalarTransitionMatrix(dist, values[:, q - 1].tolist())
        cols, vals = zip(*reference_row_maxima(matrix))
        col_vals = np.array(vals)
        values[1:, q] = col_vals
        parents[1:, q] = np.where(col_vals == NEG_INF, -1, np.array(cols) + 1)
    return values, parents


def sparse_skewed(rng, n, zero_share):
    masses = rng.uniform(0.0, 1.0, n) ** rng.uniform(1.0, 30.0)
    masses[rng.uniform(0.0, 1.0, n) < zero_share] = 0.0
    return masses


@REFERENCE_SETTINGS
@example(n=THREE_BLOCKS, k=2, seed=5)  # the one-region column alone
@example(n=300, k=4, seed=7)  # one block of 299 rows
@example(n=400, k=5, seed=8)  # blocks of 327 and 72 rows
@given(
    n=st.integers(THREE_BLOCKS, THREE_BLOCKS + 300),
    k=st.integers(2, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_row_blocks_equal_the_full_matrix_tables(n, k, seed):
    # a drawn N spans at least three row blocks.  The per-start tables are
    # the longest of one block and those of more blocks that end on both
    # sides of each of their own block boundaries: their last block holds
    # 1, 2, all but one or all of a block's rows
    rng = np.random.default_rng(seed)
    g, h = sparse_skewed(rng, n, 0.4), sparse_skewed(rng, n, 0.3)
    g[0] = h[-1] = 1e-3  # keep both totals positive
    raw = SegmentedDistribution.from_masses(g, h, n_keys=1000)
    starts = {k, n} | {
        j
        for j in range(k, n + 1)
        if _block_rows(j + 1) < j  # table j + 1 takes more than one block
        and (j - 1) % _block_rows(j) in (0, 1, 2, _block_rows(j) - 1)
    }
    for d in (raw, ensure_positive_masses(raw)):
        table = divergence_table(d, k)
        values, parents = reference_table(d, n, k)
        assert table.values.tobytes() == values.tobytes()
        assert table.parents.tobytes() == parents.tobytes()
        builder = _TableBuilder(d)
        for j in sorted(starts):
            window = builder.build(j, k)
            values, parents = reference_table(d, j, k)
            assert window.values.tobytes() == values.tobytes(), j
            assert window.parents.tobytes() == parents.tobytes(), j


@REFERENCE_SETTINGS
@example(n=23, k=2, rows=1, seed=5)  # the one-region column alone
@example(n=23, k=2, rows=5, seed=6)
@given(
    n=st.integers(8, 40),
    k=st.integers(2, 6),
    rows=st.sampled_from([1, 2, 5]),
    seed=st.integers(0, 2**32 - 1),
)
def test_byte_budgeted_blocks_equal_the_full_matrix_tables(n, k, rows, seed):
    # a budget of `rows` table rows per block: every block after the first
    # reuses the scratch buffers at a shape of its own, and the raw
    # histograms' zero masses put +-inf into the columns scanned before the
    # NaN repairs.  Every window length is built, so every block edge has
    # starts on both sides of it.
    rng = np.random.default_rng(seed)
    g, h = sparse_skewed(rng, n, 0.4), sparse_skewed(rng, n, 0.3)
    g[0] = h[-1] = 1e-3  # keep both totals positive
    raw = SegmentedDistribution.from_masses(g, h, n_keys=1000)
    with pytest.MonkeyPatch.context() as mp:
        for d in (raw, ensure_positive_masses(raw)):
            mp.setattr(dp, "SLAB_BYTES", 8 * n * rows)
            table = divergence_table(d, k)
            values, parents = reference_table(d, n, k)
            assert table.values.tobytes() == values.tobytes()
            assert table.parents.tobytes() == parents.tobytes()
            builder = _TableBuilder(d)
            for j in range(k, n + 1):
                mp.setattr(dp, "SLAB_BYTES", 8 * j * rows)
                window = builder.build(j, k)
                values, parents = reference_table(d, j, k)
                assert window.values.tobytes() == values.tobytes(), j
                assert window.parents.tobytes() == parents.tobytes(), j


@pytest.mark.parametrize("rows", [1, 2, 5, None])
@pytest.mark.parametrize("k", [4, 6])
@pytest.mark.parametrize(
    "no_nonkeys",
    [slice(0, 13), slice(20, 21)],
    ids=["-inf prev under +inf slab", "+inf prev under -inf slab"],
)
def test_opposite_infinities_sum_to_unreachable(no_nonkeys, k, rows):
    # a region without non-key mass scores +inf.  Segments 1..13 without it
    # put +inf into the slab columns whose prefixes are still unreachable
    # (-inf); segment 21 without it makes every longer prefix +inf, also
    # under the -inf of starts past the end in each block's corner.  Both
    # sums are NaN and must come out -inf, as the reference makes them.
    n = 40
    g, h = np.linspace(1.0, 2.0, n), np.linspace(2.0, 1.0, n)
    h[no_nonkeys] = 0.0
    d = SegmentedDistribution.from_masses(g, h, n_keys=1000)
    with pytest.MonkeyPatch.context() as mp:
        if rows:  # `rows` table rows a block, else the default budget
            mp.setattr(dp, "SLAB_BYTES", 8 * n * rows)
        table = divergence_table(d, k)
        values, parents = reference_table(d, n, k)
        assert table.values.tobytes() == values.tobytes()
        assert table.parents.tobytes() == parents.tobytes()
        builder = _TableBuilder(d)
        for j in range(k, n + 1):
            if rows:
                mp.setattr(dp, "SLAB_BYTES", 8 * j * rows)
            window = builder.build(j, k)
            values, parents = reference_table(d, j, k)
            assert window.values.tobytes() == values.tobytes(), j
            assert window.parents.tobytes() == parents.tobytes(), j
    table = divergence_table_monotone(d, k)
    values, parents = reference_monotone_table(d, k)
    assert table.values.tobytes() == values.tobytes()
    assert table.parents.tobytes() == parents.tobytes()


def test_infinite_prefix_under_underflowed_region_is_unreachable():
    # segment 1 alone scores +inf and segment 2 alone -inf, so the candidate
    # that extends the one-region prefix 1..1 by the region 2..2 is +inf
    # plus -inf: both builders make it -inf and agree byte for byte
    d = SegmentedDistribution.from_masses(
        [1e-300, 1e-300, 1, 1, 1], [0, 1e300, 1, 1, 1], n_keys=10, normalize=False
    )
    table = divergence_table_monotone(d, 3)
    values, parents = reference_monotone_table(d, 3)
    assert table.values.tobytes() == values.tobytes()
    assert table.parents.tobytes() == parents.tobytes()
    full = divergence_table(d, 3)
    assert table.values.tobytes() == full.values.tobytes()
    assert table.parents.tobytes() == full.parents.tobytes()


def test_block_height_follows_the_byte_budget():
    # a table the budget holds whole is one block of its n - 1 searched rows;
    # a larger one gets the rows that fit, down to one
    assert _block_rows(50) == 49
    assert _block_rows(300) == 299
    assert _block_rows(400) == 327  # and a last block of 72 rows
    assert _block_rows(4000) == dp.SLAB_BYTES // (8 * 4000) == 32
    assert _block_rows(10**6) == 1


def test_table_scratch_stays_within_the_byte_budget():
    # N=4000: blocks of 256 rows would need 8 MB per scratch matrix; the
    # budget holds the two buffers to SLAB_BYTES each
    dist = zipfian_distribution(SyntheticSpec(4000, 100_000, 100_000))
    tracemalloc.start()
    try:
        divergence_table(dist, 5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * dp.SLAB_BYTES + (1 << 20)


@pytest.mark.parametrize("k", [2, 3, 6])
def test_only_columns_after_the_one_region_column_are_searched(monkeypatch, k):
    # column 0 is reachable only at row 0, so column 1 needs no search: the
    # row-maxima table computes one level schedule and solves k - 2 columns
    # with it, one value() call per level, and every block of an N x k build
    # scans k - 2 of its columns
    d = zipfian_distribution(SyntheticSpec(40, 1000, 1000))
    calls = []

    def counted(f):
        def wrapper(*args, **kwargs):
            calls.append(f.__name__)
            return f(*args, **kwargs)

        return wrapper

    levels = len(dp.level_schedule(39))
    monkeypatch.setattr(dp, "level_schedule", counted(dp.level_schedule))
    monkeypatch.setattr(dp, "monotone_row_maxima", counted(monotone_row_maxima))
    monkeypatch.setattr(dp.TransitionMatrix, "value", counted(dp.TransitionMatrix.value))
    monkeypatch.setattr(dp, "_scan", counted(dp._scan))
    monkeypatch.setattr(dp, "SLAB_BYTES", 8 * 40 * 5)  # 5 rows a block: 8 blocks
    divergence_table_monotone(d, k)
    column = ["monotone_row_maxima"] + ["value"] * levels
    assert calls == ["level_schedule"] + column * (k - 2)
    calls.clear()
    divergence_table(d, k)
    assert calls == ["_scan"] * (8 * (k - 2))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(1, 48),
    m=st.integers(1, 48),
    seed=st.integers(0, 2**32 - 1),
)
def test_level_at_a_time_equals_the_scalar_loop(n, m, seed):
    # non-monotone entries from a few values, so ties are common, with
    # rectangles of -inf and a few +inf cells
    rng = np.random.default_rng(seed)
    rows = rng.integers(-3, 4, size=(n, m)).astype(np.float64)
    for _ in range(int(rng.integers(0, 4))):
        r0, c0 = int(rng.integers(0, n)), int(rng.integers(0, m))
        height, width = int(rng.integers(1, n + 1)), int(rng.integers(1, m + 1))
        rows[r0 : r0 + height, c0 : c0 + width] = NEG_INF
    rows[rng.uniform(size=(n, m)) < 0.02] = inf
    matrix = DenseMatrix(rows)
    counted, scalar = CountingMatrix(matrix), CountingMatrix(matrix)
    assert monotone_row_maxima(counted) == reference_row_maxima(scalar)
    assert counted.calls == scalar.calls


def row_maxima_case(n, m, monotone, seed):
    """An n x m DenseMatrix with ties and -inf entries, monotone or not.

    A monotone one peaks on a plateau around sorted targets, so its leftmost
    argmax never decreases, and is -inf past a band beyond each target.
    """
    rng = np.random.default_rng(seed)
    if monotone:
        targets = np.sort(rng.integers(0, max(m, 1), size=(n, 1)), axis=0)
        cols = np.arange(m)
        rows = np.minimum(int(rng.integers(0, 3)) - abs(cols - targets), 0).astype(np.float64)
        rows[cols > targets + int(rng.integers(1, 4))] = NEG_INF
    else:
        rows = rng.integers(-3, 4, size=(n, m)).astype(np.float64)
        rows[rng.uniform(size=(n, m)) < 0.2] = NEG_INF
    matrix = DenseMatrix(rows)
    matrix.row_count, matrix.col_count = n, m  # DenseMatrix([]) reads as 0 x 0
    return matrix


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@example(n=0, m=5, monotone=False, seed=0)
@example(n=4, m=0, monotone=False, seed=0)
@example(n=1, m=1, monotone=True, seed=0)
@example(n=6, m=1, monotone=True, seed=1)
@example(n=6, m=1, monotone=False, seed=2)
@given(
    n=st.integers(0, 40),
    m=st.integers(0, 40),
    monotone=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_array_path_equals_the_list_path(n, m, monotone, seed):
    # the divergence table reads each column's maxima from arrays the solver
    # writes; the list of (column, value) tuples must say the same
    matrix = row_maxima_case(n, m, monotone, seed)
    listed = monotone_row_maxima(matrix)
    out = np.full(n, np.nan), np.full(n, -7, dtype=np.int64)
    assert monotone_row_maxima(matrix, out) is out
    assert out[1].tolist() == [c for c, _ in listed]
    assert out[0].tobytes() == np.array([v for _, v in listed], dtype=np.float64).tobytes()


def reference_case(kind, n, seed):
    """A histogram of n segments: ideal, swapped, noisy, sparse or subnormal.

    A noisy or swapped histogram is not ideal, so its candidate matrices are
    not monotone and the divide and conquer visits differ from a scan.
    Sparse ones hold zero masses; subnormal ones unnormalized subnormal
    masses, so G / H overflows or underflows.
    """
    rng = np.random.default_rng(seed)
    if kind == "ideal":
        return zipfian_distribution(SyntheticSpec(n, 10000, 10000))
    if kind == "swapped":
        return zipfian_distribution(SyntheticSpec(n, 10000, 10000, n_swaps=n // 3, seed=seed))
    if kind == "noisy":
        ideal = zipfian_distribution(SyntheticSpec(n, 10000, 10000))
        samples = int(rng.integers(50, 5000))
        keys = rng.multinomial(samples, ideal.g / ideal.g.sum()) / samples
        nonkeys = rng.multinomial(samples, ideal.h / ideal.h.sum()) / samples
        return SegmentedDistribution.from_masses(keys, nonkeys, samples, normalize=False)
    if kind == "sparse":
        g, h = sparse_skewed(rng, n, 0.3), sparse_skewed(rng, n, 0.3)
        g[0] = h[-1] = 1e-3  # keep both totals positive
        return SegmentedDistribution.from_masses(g, h, n_keys=1000)
    g = rng.choice([5e-324, 1e-310, 1e-300, 0.0, 1.0], n)
    h = rng.choice([5e-324, 1e-310, 1e-300, 0.0, 1.0], n)
    g[0] = h[-1] = 5e-324
    return SegmentedDistribution.from_masses(g, h, n_keys=10, normalize=False)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@example(kind="noisy", n=300, k=2, seed=5)  # the one-region column alone
@example(kind="ideal", n=300, k=8, seed=0)
@example(kind="subnormal", n=3, k=2, seed=1)
@given(
    kind=st.sampled_from(["ideal", "swapped", "noisy", "sparse", "subnormal"]),
    n=st.integers(3, 300),
    k=st.integers(2, 8),
    seed=st.integers(0, 2**32 - 1),
)
def test_monotone_table_equals_the_scalar_reference(kind, n, k, seed):
    # byte for byte, raw and floored: the table's one level schedule and the
    # per-range prefix reads give what single-cell evaluations give
    k = min(k, n - 1)
    raw = reference_case(kind, n, seed)
    for d in (raw, ensure_positive_masses(raw)):
        table = divergence_table_monotone(d, k)
        values, parents = reference_monotone_table(d, k)
        assert table.values.tobytes() == values.tobytes()
        assert table.parents.tobytes() == parents.tobytes()
