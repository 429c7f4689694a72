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
  region count, in O(N^2 k) work.
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

    def rec(r_lo: int, r_hi: int, c_lo: int, c_hi: int) -> None:
        if r_lo > r_hi:
            return
        mid = (r_lo + r_hi) >> 1
        best_c = c_lo
        best_v = value(mid, c_lo)
        for c in range(c_lo + 1, c_hi + 1):
            v = value(mid, c)
            if v > best_v:
                best_v = v
                best_c = c
        out[mid] = (best_c, best_v)
        rec(r_lo, mid - 1, c_lo, best_c)
        rec(mid + 1, r_hi, best_c, c_hi)

    rec(0, n - 1, 0, m - 1)
    return out


class _TableBuilder:
    """Columnwise table construction over a reusable workspace.

    One instance serves many prefix lengths: buffers are sized once for the
    largest table and sliced per call, so a sweep over prefixes never
    reallocates the O(N^2) scratch matrices.
    """

    def __init__(self, dist: SegmentedDistribution, max_rows: int) -> None:
        if not (2 <= max_rows <= dist.n_segments + 1):
            raise ValidationError("max_rows out of range")
        self._dist = dist
        size = max_rows - 1
        self._work_g = np.empty((size, size), dtype=np.float64)
        self._work_t = np.empty((size, size), dtype=np.float64)
        # entries with start segment past the end segment are forbidden
        self._forbidden = np.triu(np.ones((size, size), dtype=bool), 1)

    def build(self, n_rows: int, n_cols: int) -> DPTable:
        values = np.full((n_rows, n_cols), NEG_INF, dtype=np.float64)
        parents = np.full((n_rows, n_cols), -1, dtype=np.int32)
        values[0, 0] = 0.0
        size = n_rows - 1
        if size < 1:
            return DPTable(values, parents)
        gp = self._dist.g_prefix
        hp = self._dist.h_prefix
        g_mat = self._work_g[:size, :size]
        term = self._work_t[:size, :size]
        forbidden = self._forbidden[:size, :size]
        prev = values[:, 0].copy()
        for q in range(1, n_cols):
            np.subtract(gp[1 : size + 1, None], gp[None, :size], out=g_mat)
            np.subtract(hp[1 : size + 1, None], hp[None, :size], out=term)
            with np.errstate(divide="ignore", invalid="ignore"):
                np.divide(g_mat, term, out=term)
                np.log2(term, out=term)
                np.multiply(g_mat, term, out=term)
                term[forbidden] = NEG_INF
                term[np.isnan(term)] = 0.0  # zero key mass contributes nothing
                np.add(term, prev[None, :size], out=term)
                term[np.isnan(term)] = NEG_INF  # unreachable prefix stays unreachable
            col_vals = term.max(axis=1)
            col_args = term.argmax(axis=1)
            values[1:, q] = col_vals
            parents[1:, q] = np.where(col_vals == NEG_INF, -1, col_args + 1)
            prev = values[:, q].copy()
        return DPTable(values, parents)


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
    return _TableBuilder(dist, dist.n_segments).build(dist.n_segments, n_regions)


def divergence_table_monotone(dist: SegmentedDistribution, n_regions: int) -> DPTable:
    """Table built with the divide-and-conquer row-maxima solver per column.

    Matches :func:`divergence_table` exactly on ideal distributions; on
    arbitrary ones every entry is <= the exhaustive value.
    """
    _validate_regions(dist, n_regions)
    n = dist.n_segments
    values = np.full((n, n_regions), NEG_INF, dtype=np.float64)
    parents = np.full((n, n_regions), -1, dtype=np.int32)
    values[0, 0] = 0.0
    prev = [0.0] + [NEG_INF] * (n - 1)
    for q in range(1, n_regions):
        maxima = monotone_row_maxima(TransitionMatrix(dist, prev))
        cur = [NEG_INF] * n
        for row, (col, val) in enumerate(maxima):
            cur[row + 1] = val
            if val > NEG_INF:
                parents[row + 1, q] = col + 1
        values[1:, q] = cur[1:]
        prev = cur
    return DPTable(values, parents)


def _trace(table: DPTable, p: int, q: int) -> list[int]:
    """Region end positions for the clustering achieving values[p][q]."""
    ends: list[int] = []
    values = table.values
    parents = table.parents
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
    return _trace(table, p, q)


def write_table_csv(table: DPTable, path) -> None:
    """Debug dump: one row per table cell with its value and parent."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("prefix,regions,value,parent\n")
        for p in range(table.n_rows):
            for q in range(table.n_cols):
                fh.write(
                    f"{p},{q},{table.values[p, q]!r},{int(table.parents[p, q])}\n"
                )
