"""Divergence dynamic programming over segment clusterings.

The planning objective rewards grouping consecutive segments so that the
summed key mass G and non-key mass H of each region make G * log2(G / H)
large.  ``values[p][q]`` of a table is the maximum total achievable by
clustering the first ``p`` segments into exactly ``q`` consecutive regions:
``values[0][0] == 0`` and the rest of row 0 / column 0 is -inf.
``parents[p][q]`` stores the 1-based first segment of the last region in an
optimal clustering (ties broken toward the smallest index), or -1 where no
clustering exists.

Two builders produce these tables:

* :func:`divergence_table` fills the whole table in O(N^2 k) work, in blocks
  of rows: each block computes its slab of the divergence matrix once and
  fills every column for its rows.  Blocks hold as many rows as a byte
  budget allows, up to the whole table, and reuse the same two scratch
  buffers, so scratch memory stays within ``2 * SLAB_BYTES`` until a single
  row of N float64s outgrows the budget; the budget keeps both buffers in a
  2 MiB L2 cache while a block's columns scan them.
* :func:`divergence_table_monotone` treats each column update as a row-maxima
  problem on an implicit candidate matrix and solves it by divide and
  conquer in O(N log N) evaluations per column, evaluated one recursion
  level at a time: O(log N) array calls per column.  Each column's maxima
  and argmax columns arrive as arrays, written by
  :func:`monotone_row_maxima` into one pair of buffers the table reuses.
  Exact when the candidate matrices are monotone (argmax column
  non-decreasing by row), which holds whenever the score distribution is
  ideal; otherwise entries can fall below the exhaustive table, never above.

Both builders score a region by one rule.  Its masses come from
``SegmentedDistribution.masses`` and its G * log2(G / H) from
``_divergence_rule``, which takes ``np.log2`` in place: 0 without key mass,
+inf when G / H is +inf, -inf when G / H underflows to 0.  The full builder
applies it to its slab, the row-maxima builder, through :func:`divergences`,
to the cells it evaluates, so both give a region the same bits: where the
candidate matrices are monotone the two agree bit for bit, values and
parents.

Both builders also weigh a candidate by one rule: the previous column's
entry plus the region's divergence, added for every cell, with -inf for a
start past the end and for a NaN sum.  The divergence rule leaves no NaN and
a table holds none, so a sum is NaN only as +inf plus -inf.  The full
builder repairs only the candidates whose previous-column entry is
infinite; the row-maxima builder checks every cell it evaluates.
``relaxed`` picks its final region with :func:`_scan` of one more row.

Tables are column-major: both builders write a column at a time and read
the previous one whole, as a contiguous view.

Neither builder searches column 1.  Column 0 is reachable only at row 0, so
a one-region clustering of any prefix starts at segment 1: ``_fill_columns``
writes that column from the divergences of segments 1..p, which each builder
already has (the full builder's slab column 0, the row-maxima builder's
start-0 cells), and searches columns 2..k-1 only.

:func:`trace_layouts` is the one backtrace: it walks ``parents`` back from
many final-region starts at once and checks every step, so a malformed
table raises rather than yielding a layout that is not a clustering.

All functions are pure, apart from the ``out`` arrays a caller hands
:func:`monotone_row_maxima`; tables are immutable once returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Protocol

import numpy as np

from .distribution import SegmentedDistribution
from .errors import InfeasibleError, ValidationError, as_integer

NEG_INF = float("-inf")


def divergence(dist: SegmentedDistribution, first: int, last: int) -> float:
    """G * log2(G / H) over the 1-based inclusive segment range first..last.

    Zero key mass contributes 0 regardless of H; positive key mass over zero
    non-key mass, or a G / H that overflows, returns +inf (such a region
    would need no filter at all); a G / H that underflows to 0 returns -inf.
    """
    first, last = as_integer("first", first), as_integer("last", last)
    if not (1 <= first <= last <= dist.n_segments):
        raise ValidationError(
            f"segment range {first}..{last} out of bounds for {dist.n_segments} segments"
        )
    return float(divergences(dist, first - 1, last))


def _divergence_rule(g: np.ndarray, h: np.ndarray) -> np.ndarray:
    """G * log2(G / H) of the regions with key masses ``g`` and non-key masses ``h``.

    The one rule both builders score regions with, written over ``h``:
    divide, ``np.log2``, multiply, all in place, then NaN becomes 0, since a
    region with no key mass contributes nothing.  G / H is +inf for no
    non-key mass or an overflow, and 0 for an underflow, which scores -inf.
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        np.divide(g, h, out=h)
        np.log2(h, out=h)
        np.multiply(g, h, out=h)
    np.copyto(h, 0.0, where=np.isnan(h))
    return h


def divergences(dist: SegmentedDistribution, lo, hi) -> np.ndarray:
    """:func:`divergence` of segments lo+1..hi, elementwise over index arrays.

    The ranges are not checked.  The rule is the N x k slab's, ``np.log2``
    and -inf for an underflowed G / H included, so an entry here equals the
    slab's entry for the same region to the bit.
    """
    g, h = dist.masses(lo, hi)
    return _divergence_rule(g, np.asarray(h))


@dataclass(frozen=True)
class DPTable:
    """Value and parent matrices of one divergence DP run."""

    values: np.ndarray
    parents: np.ndarray

    def __post_init__(self) -> None:
        if self.values.shape != self.parents.shape:
            raise ValidationError("values and parents must have matching shapes")
        if not np.issubdtype(self.parents.dtype, np.integer):
            raise ValidationError("parents must be an integer array")
        self.values.setflags(write=False)
        self.parents.setflags(write=False)

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_cols(self) -> int:
        return self.values.shape[1]


class MatrixLike(Protocol):
    """Evaluation contract for implicit matrices: entries on demand, no storage.

    ``value`` works elementwise: given equal-shape integer arrays of rows and
    columns it returns the float64 array of their entries, and given two
    ints, one float.  Entries are never NaN.
    """

    row_count: int
    col_count: int

    def value(self, row, col):  # pragma: no cover - protocol
        ...


class TransitionMatrix:
    """Implicit candidate matrix for one DP column update.

    Entry (row, col) is the value of ending the current region at segment
    ``row + 1`` having started it at segment ``col + 1``: the previous
    column's value for the shorter prefix plus the region's divergence,
    the sum the full builder's scan makes.  Every cell is summed; starting
    past the end (col > row) is -inf, and so is +inf plus -inf, so an
    unreachable prefix stays unreachable and no entry is NaN.  An array
    ``prev_column`` is read, not copied.
    """

    __slots__ = ("_dist", "_prev", "row_count", "col_count")

    def __init__(self, dist: SegmentedDistribution, prev_column) -> None:
        self._dist = dist
        self._prev = np.asarray(prev_column, dtype=np.float64)
        self.row_count = dist.n_segments - 1
        self.col_count = dist.n_segments - 1

    def value(self, row, col):
        rows, cols = np.asarray(row), np.asarray(col)
        with np.errstate(invalid="ignore"):
            out = divergences(self._dist, cols, rows + 1)
            out += self._prev[cols]
        out[(cols > rows) | np.isnan(out)] = NEG_INF
        return out if out.ndim else float(out)


def monotone_row_maxima(
    matrix: MatrixLike, out: tuple[np.ndarray, np.ndarray] | None = None
) -> list[tuple[int, float]] | tuple[np.ndarray, np.ndarray]:
    """Per-row maximum and argmax column, assuming row argmaxes never decrease.

    Divide and conquer: solve the middle row by scanning its permitted column
    range, then recurse on the halves with the range split at the argmax.
    O(n + m log n) evaluations for n rows and m columns.  Ties take the
    smallest column.  On non-monotone input the result may be any column
    whose value is >= the entries the scan actually visited.

    The recursion runs one level at a time: every pending (row range, column
    range) segment contributes its middle row's cells to one
    ``matrix.value`` call, so a solve makes O(log n) calls.

    ``out``, a pair of length-n arrays (float64 values, int64 columns),
    receives each row's maximum and its argmax column, and is returned.
    Without it the result is a list of (column, value) tuples, one per row,
    read from the same two arrays.  With no rows or no columns every row
    gets -inf at column 0.
    """
    n, m = matrix.row_count, matrix.col_count
    best, args = (np.empty(n), np.empty(n, dtype=np.int64)) if out is None else out
    if n == 0 or m == 0:
        best.fill(NEG_INF)
        args.fill(0)
    else:
        # argmax[r + 1] is row r's argmax column once found: a pending row
        # range r_lo..r_hi searches the columns from argmax[r_lo] to
        # argmax[r_hi + 2], those of the rows around it, or of the edge
        # columns 0 and m - 1
        argmax = np.empty(n + 2, dtype=np.int64)
        argmax[0], argmax[-1] = 0, m - 1
        r_lo, r_hi = np.array([0]), np.array([n - 1])
        while r_lo.size:  # every row is the middle row of one range
            mid = (r_lo + r_hi) >> 1
            c_lo = argmax[r_lo]
            width = argmax[r_hi + 2] - c_lo + 1
            ends = width.cumsum()
            starts = ends - width
            cols = np.arange(ends[-1]) - (starts - c_lo).repeat(width)
            vals = np.asarray(matrix.value(mid.repeat(width), cols), dtype=np.float64)
            best[mid] = seg_max = np.maximum.reduceat(vals, starts)
            # each segment's first cell holding its maximum
            hits = (vals == seg_max.repeat(width)).nonzero()[0]
            argmax[mid + 1] = cols[hits[hits.searchsorted(starts)]]
            # the rows above the middle one and the rows below it; empty
            # ranges drop out
            r_lo, r_hi = np.concatenate((r_lo, mid + 1)), np.concatenate((mid - 1, r_hi))
            keep = r_lo <= r_hi
            r_lo, r_hi = r_lo[keep], r_hi[keep]
        args[:] = argmax[1:-1]
    if out is None:
        return list(zip(args.tolist(), best.tolist()))
    return out


def _new_table(n_rows: int, n_cols: int) -> tuple[np.ndarray, np.ndarray]:
    # column-major: the builders read and write a table column at a time
    values = np.full((n_rows, n_cols), NEG_INF, dtype=np.float64, order="F")
    parents = np.full((n_rows, n_cols), -1, dtype=np.int32, order="F")
    values[0, 0] = 0.0
    return values, parents


def _fill_columns(values, parents, a: int, b: int, first, row_maxima) -> None:
    """Fill rows a..b-1 of every column after the first, column by column.

    Column 0 is reachable only at row 0, so every one-region clustering
    starts at segment 1: column 1 is ``first``, the divergences of segments
    1..p for table rows p = a..b-1, plus ``values[0, 0]``, and needs no
    search.  For each later column, ``row_maxima(prev)`` receives rows
    0..b-2 of the previous column, final by then, as a view: the table is
    column-major, so the view is contiguous, and no column is written while
    it is read.  It returns, for rows a..b-1, each row's best value and the
    0-based start segment achieving it; unreachable rows carry -inf.
    """
    values[a:b, 1] = first + values[0, 0]  # the add a scan would make: -0.0 becomes 0.0
    parents[a:b, 1] = np.where(values[a:b, 1] == NEG_INF, -1, 1)
    for q in range(2, values.shape[1]):
        col_vals, col_args = row_maxima(values[: b - 1, q - 1])
        values[a:b, q] = col_vals
        parents[a:b, q] = np.where(col_vals == NEG_INF, -1, col_args + 1)


# The bytes each of _TableBuilder's two scratch buffers may hold: a block has
# as many rows of the divergence matrix as fit, at least 1 and at most the
# table's n_rows - 1 searched rows.  Both buffers together fit a 2 MiB L2
# cache, so each column's scan reads them from there.
SLAB_BYTES = 1 << 20


def _block_rows(n_rows: int) -> int:
    """Table rows per block of a table with ``n_rows`` rows."""
    return max(1, min(n_rows - 1, SLAB_BYTES // (8 * n_rows)))


class _TableBuilder:
    """Table construction in row blocks over slabs of one divergence matrix.

    Entry (r, c) of the divergence matrix is G * log2(G / H) of the region
    of segments c + 1 .. r + 1 (1-based).  Table rows a..b-1 read only its
    rows a-1..b-2, and of those only the first b - 1 columns, so each block
    computes that slab once and then fills every column for its rows.  The
    one-region column is the slab's column 0, since only the empty prefix
    is reachable with no regions; every later column is a scan of the slab
    plus the previous column's first b - 1 entries.  The slab and the
    scan's sum live in the heads of two flat scratch arrays that one
    ``build`` allocates and every block reuses; a block has
    ``_block_rows(n_rows)`` rows, so each array holds at most
    ``SLAB_BYTES``.  The slab holds no NaN but may hold +-inf, so a scan's
    sum is NaN only where the previous column is infinite too.  One
    instance serves every prefix length a sweep asks for.
    """

    def __init__(self, dist: SegmentedDistribution) -> None:
        self._dist = dist

    def build(self, n_rows: int, n_cols: int) -> DPTable:
        values, parents = _new_table(n_rows, n_cols)
        rows = _block_rows(n_rows)
        # allocated once per table, and as two arrays: one (2, size) array
        # raised the peak RSS of a 200k-record build and query by about 3 MB
        slab_buf, term_buf = np.empty(rows * (n_rows - 1)), np.empty(rows * (n_rows - 1))
        for a in range(1, n_rows, rows):
            b = min(a + rows, n_rows)
            size = (b - a) * (b - 1)
            slab = slab_buf[:size].reshape(b - a, b - 1)
            term = term_buf[:size].reshape(b - a, b - 1)
            self._slab(a, b, slab, term)
            _fill_columns(values, parents, a, b, slab[:, 0], partial(_scan, slab, term))
        return DPTable(values, parents)

    def _slab(self, a: int, b: int, div: np.ndarray, g_mat: np.ndarray) -> None:
        """Divergence-matrix rows a-1..b-2, columns 0..b-2, written into ``div``.

        ``g_mat``, of the same shape, is scratch for the key masses.
        """
        self._dist.masses(np.s_[: b - 1], np.s_[a:b, None], out=(g_mat, div))
        _divergence_rule(g_mat, div)
        # a start past the end, c >= a + i for table row a + i, needs c >= a:
        # only the block's corner of columns a..b-2 holds one
        div[:, a:][np.arange(a, b - 1) >= np.arange(a, b)[:, None]] = NEG_INF


def _scan(slab: np.ndarray, term: np.ndarray, prev: np.ndarray):
    """Row maxima of one block's column by scanning every candidate start.

    ``term`` is scratch space of the slab's shape, reused for every column.
    Neither the slab nor a table column holds NaN, so a NaN in the sum is
    +inf plus -inf, and only under an infinite ``prev`` entry: those
    columns alone are repaired, to -inf.
    """
    with np.errstate(invalid="ignore"):
        # the same sums as np.add(slab, prev, out=term), faster: numpy adds
        # in place quicker than into a third array
        np.copyto(term, prev)
        term += slab
    cols = np.flatnonzero(np.isinf(prev))
    cut = term[:, cols]
    cut[np.isnan(cut)] = NEG_INF  # unreachable prefix stays unreachable
    term[:, cols] = cut
    args = term.argmax(axis=1)
    return term[np.arange(args.size), args], args


def check_region_count(n_segments: int, n_regions) -> int:
    """``n_regions`` as an int k with 2 <= k < ``n_segments``, else a ValidationError."""
    n_regions = as_integer("n_regions", n_regions)
    if n_regions < 2:
        raise ValidationError("n_regions must be at least 2")
    if n_regions >= n_segments:
        raise ValidationError(f"n_regions must be below n_segments ({n_regions} >= {n_segments})")
    return n_regions


def divergence_table(dist: SegmentedDistribution, n_regions: int) -> DPTable:
    """Full table: rows cover prefixes 0..n_segments-1, columns 0..n_regions-1."""
    n_regions = check_region_count(dist.n_segments, n_regions)
    return _TableBuilder(dist).build(dist.n_segments, n_regions)


def divergence_table_monotone(dist: SegmentedDistribution, n_regions: int) -> DPTable:
    """Table built with the divide-and-conquer row-maxima solver per column.

    Matches :func:`divergence_table` exactly on ideal distributions; on
    arbitrary ones every entry is <= the exhaustive value.
    """
    n_regions = check_region_count(dist.n_segments, n_regions)
    n = dist.n_segments
    # one pair for every column: _fill_columns copies a column's maxima into
    # the table before the next solve writes over them
    out = np.empty(n - 1), np.empty(n - 1, dtype=np.int64)

    def row_maxima(prev: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return monotone_row_maxima(TransitionMatrix(dist, prev), out)

    values, parents = _new_table(n, n_regions)
    # the cells a divide and conquer over column 1 would evaluate: start 0 only
    first = divergences(dist, np.zeros(n - 1, np.int64), np.arange(1, n))
    _fill_columns(values, parents, 1, n, first, row_maxima)
    return DPTable(values, parents)


def trace_layouts(table: DPTable, starts, n_regions: int) -> np.ndarray:
    """Region boundaries of the clusterings the table records, one row per start.

    Row i is ``[0, b_1, ..., b_(n_regions-1), table.n_rows]``: the segments
    1..starts[i]-1 clustered into ``n_regions - 1`` regions ending at b_1 <
    ... < b_(n_regions-1) = starts[i] - 1, then the final region from
    ``starts[i]``.  Starts whose cell (starts[i] - 1, n_regions - 1) is -inf
    have no clustering and get no row; the other rows keep the order of
    ``starts``.  The walk back is one gather of ``parents`` per region.

    A start or region count that is not an integer, or lies outside the
    table, raises ValidationError.  A parent that does not begin a nonempty
    region inside its prefix, or a chain that does not end at the empty
    prefix, raises InfeasibleError.
    """
    p = np.asarray(starts)
    if p.dtype.kind not in "iu":  # a list of Python ints arrives as int64
        p = np.array([as_integer("start", s) for s in starts], dtype=np.int64)
    p = p.astype(np.int64, copy=False) - 1
    n_regions = as_integer("n_regions", n_regions)
    q = n_regions - 1
    outside = (p < 0) | (p >= table.n_rows)
    if outside.any() or not 0 <= q < table.n_cols:
        at = p[outside.argmax()] if p.size else 0
        raise ValidationError(f"cell ({at}, {q}) outside table of shape {table.values.shape}")
    p = p[table.values[p, q] != NEG_INF]
    bounds = np.empty((p.size, n_regions + 1), dtype=np.int64)
    bounds[:, n_regions] = table.n_rows
    for q in range(n_regions - 1, 0, -1):
        bounds[:, q] = p
        first = table.parents[p, q]
        missing = (first < 1) | (first > p)
        if missing.any():
            raise InfeasibleError(
                f"no clustering recorded at table cell ({p[missing.argmax()]}, {q})"
            )
        p = first - 1
    if p.any():
        raise InfeasibleError("parent chain did not consume the whole prefix")
    bounds[:, 0] = 0
    return bounds


def write_table_csv(table: DPTable, path) -> None:
    """Debug dump: one row per table cell with its value and parent.

    Cells are formatted from whole columns, about 2**16 at a time, and each
    value is written as its ``repr``.
    """
    k = table.n_cols
    chunk = max(1, (1 << 16) // max(k, 1))  # table rows per write
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("prefix,regions,value,parent\n")
        for start in range(0, table.n_rows, chunk):
            stop = min(start + chunk, table.n_rows)
            fh.write("".join(map(
                "{},{},{},{}\n".format,
                np.repeat(np.arange(start, stop), k).tolist(),
                np.tile(np.arange(k), stop - start).tolist(),
                map(repr, table.values[start:stop].ravel().tolist()),
                table.parents[start:stop].ravel().tolist(),
            )))
