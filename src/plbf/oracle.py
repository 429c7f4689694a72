"""Brute-force references for validating the fast paths.

Everything here trades speed for obviousness: clusterings are enumerated
outright, matrices are scanned row by row, and region masses are summed
directly from the raw histograms instead of going through prefix arrays.
Hard size guards keep the combinatorics honest.

Shipped (not test-only) so users can spot-check a build on small inputs.
"""

from __future__ import annotations

from itertools import combinations
from math import inf, log2

import numpy as np

from .distribution import SegmentedDistribution
from .errors import InfeasibleError, ValidationError
from .optimizer import BuildConfig, RegionPlan, _planning_input, _rates_and_score

MAX_ORACLE_SEGMENTS = 12
MAX_ORACLE_REGIONS = 4


def _region_value(dist: SegmentedDistribution, first: int, last: int) -> float:
    # deliberate direct summation: independent of the prefix-sum machinery
    sg = float(np.sum(dist.g[first - 1 : last]))
    if sg <= 0.0:
        return 0.0
    sh = float(np.sum(dist.h[first - 1 : last]))
    if sh <= 0.0:
        return inf
    ratio = sg / sh
    return sg * log2(ratio) if ratio > 0.0 else -inf  # an underflowed G / H, as in the DP


def best_clustering_exhaustive(
    dist: SegmentedDistribution, boundary_segment: int, n_regions: int
) -> tuple[float, tuple[int, ...] | None]:
    """Best clustering of segments 1..boundary_segment-1 into n_regions-1 regions.

    Tries every placement of the interior region ends and returns
    ``(value, ends)`` where ``ends`` lists the 1-based last segment of each
    region (so its final entry is ``boundary_segment - 1``).  Ties resolve to
    the lexicographically smallest ends, matching the smallest-index rule of
    the DP backtraces.  When every clustering scores -inf (or NaN) there is
    none, as at an unreachable DP cell, and ``ends`` is None.
    """
    j, k = boundary_segment, n_regions
    if j > MAX_ORACLE_SEGMENTS:
        raise ValidationError(
            f"exhaustive clustering is capped at {MAX_ORACLE_SEGMENTS} segments"
        )
    if k > MAX_ORACLE_REGIONS:
        raise ValidationError(
            f"exhaustive clustering is capped at {MAX_ORACLE_REGIONS} regions"
        )
    if not (2 <= k <= j <= dist.n_segments):
        raise ValidationError(
            f"need 2 <= n_regions <= boundary_segment <= n_segments, "
            f"got k={k}, j={j}, n={dist.n_segments}"
        )
    segments = j - 1
    best_value = -inf
    best_ends: tuple[int, ...] | None = None
    for cuts in combinations(range(1, segments), k - 2):
        ends = cuts + (segments,)
        value = 0.0
        first = 1
        for last in ends:
            value += _region_value(dist, first, last)
            first = last + 1
        if value > best_value:
            best_value = value
            best_ends = ends
    return best_value, best_ends


def naive_row_maxima(matrix) -> list[tuple[int, float]]:
    """Per-row (argmax column, value) by scanning every entry; smallest-index ties.

    One ``matrix.value`` call per row, over all of that row's columns.
    """
    cols = np.arange(matrix.col_count)
    out = []
    for row in range(matrix.row_count):
        vals = np.asarray(matrix.value(np.full(cols.size, row), cols), dtype=np.float64)
        best = int(np.argmax(vals))
        out.append((best, float(vals[best])))
    return out


def exhaustive_plan(dist: SegmentedDistribution, config: BuildConfig) -> RegionPlan:
    """Reference planner: enumerate every clustering at every final-region start.

    Reads the histogram the solver reads (checked against ``config``, empty
    segments floored at ``MASS_FLOOR``), scores layouts with the solver's
    own rate solve, and mirrors its selection rule (skip starts with no
    clustering and infeasible layouts, minimize the framework objective,
    ties to the smallest final-region start; when every layout is
    infeasible, raise the first one's error), but never touches the DP
    tables.
    The size caps are those of :func:`best_clustering_exhaustive`.
    """
    n, k = dist.n_segments, config.n_regions
    dist = _planning_input(dist, config)
    scaled = config.effective_scaled_keys(dist)
    best = None
    errors = []
    for j in range(k, n + 1):
        _, ends = best_clustering_exhaustive(dist, j, k)
        if ends is None:
            continue  # no clustering: the DP sweep traces no layout here either
        bounds = (0,) + ends + (n,)
        key_mass = [float(np.sum(dist.g[lo:hi])) for lo, hi in zip(bounds, bounds[1:])]
        nonkey_mass = [float(np.sum(dist.h[lo:hi])) for lo, hi in zip(bounds, bounds[1:])]
        try:
            fprs, score = _rates_and_score(config, scaled, key_mass, nonkey_mass)
        except InfeasibleError as exc:
            errors.append(exc)
            continue
        if best is None or score < best[0]:
            best = (score, bounds, fprs, key_mass, nonkey_mass)
    if best is None:
        raise errors[0] if errors else InfeasibleError("no feasible region layout")
    score, bounds, fprs, key_mass, nonkey_mass = best
    return RegionPlan(
        n_regions=k,
        boundaries=bounds,
        fprs=fprs,
        key_mass=key_mass,
        nonkey_mass=nonkey_mass,
        objective=score,
        framework=config.framework,
        algorithm="exhaustive",
    )
