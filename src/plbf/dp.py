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

* :func:`divergence_table` fills the whole table bottom-up, one column per
  region count, in O(N^2 k) work over one divergence matrix computed once.
* :func:`divergence_table_monotone` treats each column update as a row-maxima
  problem on an implicit candidate matrix and solves it by divide and
  conquer in O(N log N) evaluations per column.  Exact when the candidate
  matrices are monotone (argmax column non-decreasing by row), which holds
  whenever the score distribution is ideal; otherwise entries can fall below
  the exhaustive table, never above.

All functions are pure; tables are immutable once returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf, log2
from typing import Protocol

import numpy as np

from .distribution import SegmentedDistribution
from .errors import InfeasibleError, ValidationError

NEG_INF = float("-inf")


def divergence(dist: SegmentedDistribution, first: int, last: int) -> float:
    """G * log2(G / H) over the 1-based inclusive segment range first..last.

    Zero key mass contributes 0 regardless of H; positive key mass over zero
    non-key mass returns +inf (such a region would need no filter at all).
    """
    if not (1 <= first <= last <= dist.n_segments):
        raise ValidationError(
            f"segment range {first}..{last} out of bounds for {dist.n_segments} segments"
        )
    sg = float(dist.g_prefix[last] - dist.g_prefix[first - 1])
    if sg <= 0.0:
        return 0.0
    sh = float(dist.h_prefix[last] - dist.h_prefix[first - 1])
    if sh <= 0.0:
        return inf
    return sg * log2(sg / sh)


@dataclass(frozen=True)
class DPTable:
    """Value and parent matrices of one divergence DP run."""

    values: np.ndarray
    parents: np.ndarray

    def __post_init__(self) -> None:
        if self.values.shape != self.parents.shape:
            raise ValidationError("values and parents must have matching shapes")
        self.values.setflags(write=False)
        self.parents.setflags(write=False)

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_cols(self) -> int:
        return self.values.shape[1]


class MatrixLike(Protocol):
    """Evaluation contract for implicit matrices: entries on demand, no storage."""

    row_count: int
    col_count: int

    def value(self, row: int, col: int) -> float:  # pragma: no cover - protocol
        ...


class DenseMatrix:
    """Adapter exposing a 2-D sequence through the matrix protocol."""

    __slots__ = ("_rows", "row_count", "col_count")

    def __init__(self, rows) -> None:
        self._rows = [list(map(float, row)) for row in rows]
        self.row_count = len(self._rows)
        self.col_count = len(self._rows[0]) if self._rows else 0
        if any(len(r) != self.col_count for r in self._rows):
            raise ValidationError("ragged rows")

    def value(self, row: int, col: int) -> float:
        return self._rows[row][col]


class TransitionMatrix:
    """Implicit candidate matrix for one DP column update.

    Entry (row, col) is the value of ending the current region at segment
    ``row + 1`` having started it at segment ``col + 1``: the previous
    column's value for the shorter prefix plus the region's divergence.
    Starting past the end (col > row) is -inf, as is any start whose prefix
    was itself unreachable.
    """

    __slots__ = ("_gp", "_hp", "_prev", "row_count", "col_count")

    def __init__(self, dist: SegmentedDistribution, prev_column) -> None:
        self._gp = dist.g_prefix.tolist()
        self._hp = dist.h_prefix.tolist()
        self._prev = list(prev_column)
        self.row_count = dist.n_segments - 1
        self.col_count = dist.n_segments - 1

    def value(self, row: int, col: int) -> float:
        if col > row:
            return NEG_INF
        prev = self._prev[col]
        if prev == NEG_INF:
            return NEG_INF
        sg = self._gp[row + 1] - self._gp[col]
        if sg <= 0.0:
            return prev
        sh = self._hp[row + 1] - self._hp[col]
        if sh <= 0.0:
            return inf
        return prev + sg * log2(sg / sh)


def monotone_row_maxima(matrix: MatrixLike) -> list[tuple[int, float]]:
    """Per-row (argmax column, value), assuming row argmaxes never decrease.

    Divide and conquer: solve the middle row by scanning its permitted column
    range, then recurse on the halves with the range split at the argmax.
    O(n + m log n) evaluations for n rows and m columns.  Ties take the
    smallest column.  On non-monotone input the result may be any column
    whose value is >= the entries the scan actually visited.
    """
    n, m = matrix.row_count, matrix.col_count
    out: list[tuple[int, float]] = [(0, NEG_INF)] * n
    if n == 0 or m == 0:
        return out
    value = matrix.value
    # an explicit stack, not a recursive closure: a closure that calls itself
    # is a reference cycle that would keep ``matrix`` alive after the return
    stack = [(0, n - 1, 0, m - 1)]
    while stack:
        r_lo, r_hi, c_lo, c_hi = stack.pop()
        if r_lo > r_hi:
            continue
        mid = (r_lo + r_hi) >> 1
        best_c = c_lo
        best_v = value(mid, c_lo)
        for c in range(c_lo + 1, c_hi + 1):
            v = value(mid, c)
            if v > best_v:
                best_v = v
                best_c = c
        out[mid] = (best_c, best_v)
        # the upper half is pushed first so the lower half is solved first
        stack.append((mid + 1, r_hi, best_c, c_hi))
        stack.append((r_lo, mid - 1, c_lo, best_c))
    return out


def _fill_columns(n_rows: int, n_cols: int, row_maxima) -> DPTable:
    """The column loop every table builder shares.

    ``row_maxima(prev)`` receives a contiguous copy of the previous column
    and returns, for rows 1..n_rows-1, each row's best value and the 0-based
    start segment achieving it; unreachable rows carry -inf.
    """
    values = np.full((n_rows, n_cols), NEG_INF, dtype=np.float64)
    parents = np.full((n_rows, n_cols), -1, dtype=np.int32)
    values[0, 0] = 0.0
    if n_rows < 2:
        return DPTable(values, parents)
    prev = values[:, 0].copy()
    for q in range(1, n_cols):
        col_vals, col_args = row_maxima(prev)
        values[1:, q] = col_vals
        parents[1:, q] = np.where(col_vals == NEG_INF, -1, col_args + 1)
        prev = values[:, q].copy()
    return DPTable(values, parents)


class _TableBuilder:
    """Columnwise table construction over one divergence matrix.

    A region's G * log2(G / H) depends only on the histogram, so the matrix
    of every region's divergence (row: last segment, column: first, 0-based)
    is computed once; a column update adds the previous column to its leading
    square, so one instance serves every prefix length a sweep asks for.
    """

    def __init__(self, dist: SegmentedDistribution) -> None:
        size = dist.n_segments - 1
        gp = dist.g_prefix
        hp = dist.h_prefix
        g_mat = gp[1 : size + 1, None] - gp[None, :size]
        div = hp[1 : size + 1, None] - hp[None, :size]
        # a tiny non-key mass can overflow G / H to +inf, as in divergence()
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            np.divide(g_mat, div, out=div)
            np.log2(div, out=div)
            np.multiply(g_mat, div, out=div)
        del g_mat  # before the masks below, which would otherwise raise the peak
        div[np.triu(np.ones((size, size), dtype=bool), 1)] = NEG_INF  # start past the end
        div[np.isnan(div)] = 0.0  # zero key mass contributes nothing
        self._div = div

    def build(self, n_rows: int, n_cols: int) -> DPTable:
        return _fill_columns(n_rows, n_cols, self._scan)

    def _scan(self, prev: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Row maxima of one column by scanning every candidate start."""
        size = prev.size - 1
        with np.errstate(invalid="ignore"):
            term = self._div[:size, :size] + prev[None, :size]
        term[np.isnan(term)] = NEG_INF  # unreachable prefix stays unreachable
        return term.max(axis=1), term.argmax(axis=1)


def _validate_regions(dist: SegmentedDistribution, n_regions: int) -> None:
    if n_regions < 2:
        raise ValidationError("n_regions must be at least 2")
    if n_regions >= dist.n_segments:
        raise ValidationError(
            f"n_regions must be below n_segments ({n_regions} >= {dist.n_segments})"
        )


def divergence_table(dist: SegmentedDistribution, n_regions: int) -> DPTable:
    """Full table: rows cover prefixes 0..n_segments-1, columns 0..n_regions-1."""
    _validate_regions(dist, n_regions)
    return _TableBuilder(dist).build(dist.n_segments, n_regions)


def divergence_table_monotone(dist: SegmentedDistribution, n_regions: int) -> DPTable:
    """Table built with the divide-and-conquer row-maxima solver per column.

    Matches :func:`divergence_table` exactly on ideal distributions; on
    arbitrary ones every entry is <= the exhaustive value.
    """
    _validate_regions(dist, n_regions)

    def row_maxima(prev: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # a list, not the array: numpy scalars would slow every entry lookup
        maxima = monotone_row_maxima(TransitionMatrix(dist, prev.tolist()))
        cols, vals = zip(*maxima)
        return np.array(vals, dtype=np.float64), np.array(cols)

    return _fill_columns(dist.n_segments, n_regions, row_maxima)


def trace_boundaries(table: DPTable, boundary_segment: int, n_regions: int) -> list[int]:
    """Region ends for clustering segments 1..boundary_segment-1 into n_regions-1.

    Returns ``n_regions - 1`` ascending 1-based segment indices, the last of
    which is ``boundary_segment - 1``.  Raises when the requested cell is
    unreachable (e.g. fewer segments than regions).
    """
    p, q = boundary_segment - 1, n_regions - 1
    if not (0 <= p < table.n_rows and 0 <= q < table.n_cols):
        raise ValidationError(
            f"cell ({p}, {q}) outside table of shape {table.values.shape}"
        )
    if table.values[p, q] == NEG_INF:
        raise InfeasibleError(
            f"no clustering of {p} segments into {q} regions (table value is -inf)"
        )
    parents = table.parents
    ends: list[int] = []
    while q >= 1:
        ends.append(p)
        start = int(parents[p, q])
        if start < 1:
            raise InfeasibleError(f"no clustering recorded at table cell ({p}, {q})")
        p = start - 1
        q -= 1
    if p != 0:
        raise InfeasibleError("parent chain did not consume the whole prefix")
    ends.reverse()
    return ends


def trace_layouts(table: DPTable, starts, n_regions: int) -> np.ndarray:
    """The layouts :func:`trace_boundaries` traces, for many starts at once.

    Row i of the (len(starts) x (n_regions + 1)) result is
    ``[0, *trace_boundaries(table, starts[i], n_regions), table.n_rows]``:
    each layout's region boundaries, its final region starting at segment
    ``starts[i]``.  Every start's cell must be reachable (not -inf); the
    walk back is one gather of ``parents`` per region.
    """
    p = np.asarray(starts, dtype=np.int64) - 1
    bounds = np.empty((p.size, n_regions + 1), dtype=np.int64)
    bounds[:, n_regions] = table.n_rows
    for q in range(n_regions - 1, 0, -1):
        bounds[:, q] = p
        p = table.parents[p, q] - 1
    bounds[:, 0] = p  # every reachable chain ends at the empty prefix
    return bounds


def write_table_csv(table: DPTable, path) -> None:
    """Debug dump: one row per table cell with its value and parent."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("prefix,regions,value,parent\n")
        for p in range(table.n_rows):
            for q in range(table.n_cols):
                fh.write(
                    f"{p},{q},{float(table.values[p, q])!r},{int(table.parents[p, q])}\n"
                )
