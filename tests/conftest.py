"""Shared test helpers: random inputs, dense and counting matrices, planted matrices."""

import numpy as np

from plbf import SegmentedDistribution, ValidationError


def random_distribution(rng, n_segments, lo=0.05, hi=1.0, n_keys=1000):
    """Strictly positive random masses, normalized."""
    g = rng.uniform(lo, hi, n_segments)
    h = rng.uniform(lo, hi, n_segments)
    return SegmentedDistribution.from_masses(g, h, n_keys=n_keys)


def underflow_distribution():
    """Unnormalized masses, H > 1: G / H of segment 1 underflows to 0."""
    return SegmentedDistribution.from_masses(
        [1e-300, 1, 1, 1], [1e300, 1, 1, 1], n_keys=10, normalize=False
    )


class DenseMatrix:
    """Adapter exposing a 2-D sequence through the matrix protocol."""

    __slots__ = ("_values", "row_count", "col_count")

    def __init__(self, rows) -> None:
        rows = [np.asarray(row, dtype=np.float64) for row in rows]
        self.row_count = len(rows)
        self.col_count = len(rows[0]) if rows else 0
        if any(r.shape != (self.col_count,) for r in rows):
            raise ValidationError("ragged rows")
        self._values = np.array(rows).reshape(self.row_count, self.col_count)
        if np.isnan(self._values).any():
            raise ValidationError("NaN entry: the matrix protocol has none")

    def value(self, row, col):
        return self._values[row, col]


class CountingMatrix:
    """Wraps any matrix and counts the cells its value() calls evaluate."""

    def __init__(self, inner):
        self.inner = inner
        self.row_count = inner.row_count
        self.col_count = inner.col_count
        self.calls = 0

    def value(self, row, col):
        self.calls += np.size(row)
        return self.inner.value(row, col)


def planted_monotone_matrix(rng, n_rows, n_cols):
    """Random matrix with a known, non-decreasing argmax column per row.

    Each row peaks at a planted target and falls off linearly on both sides,
    so the row maximum is unique and row argmaxes are sorted: a monotone
    matrix by construction.
    """
    targets = np.sort(rng.integers(0, n_cols, size=n_rows))
    base = rng.uniform(0.0, 10.0, size=n_rows)
    slope = rng.uniform(0.5, 2.0, size=n_rows)
    cols = np.arange(n_cols, dtype=np.float64)
    rows = base[:, None] - slope[:, None] * np.abs(cols[None, :] - targets[:, None])
    return DenseMatrix(rows.tolist()), targets.tolist()
