"""Region planning: thresholds from the DP tables, rates from closed forms.

A plan fixes (a) region boundaries, by backtracing the divergence table from
every possible first segment of the final region (``relaxed``: only from the
one that clusters all segments with the most divergence), and (b) one
false-positive rate per region, from the closed-form optimum of the framework:

* ``fpr`` framework: meet an overall target rate F while minimizing memory.
  The unconstrained optimum is f_i = G_i * F / H_i; rates that land above 1
  are clamped there and the remainder re-solved until all lie in (0, 1].
* ``memory`` framework: spend a bit budget M while minimizing the expected
  rate.  With c|S| denoting keys scaled by the filter's bits-per-key factor,
  the optimum is f_i = 2^(-beta) * G_i / H_i with beta chosen to spend M
  exactly, under the same clamping loop: each framework supplies only its
  scale of G_i / H_i.  A region whose G_i / H_i overflows would make beta
  infinite, so it starts clamped at 1.

The sweep gathers every candidate layout first with ``dp.trace_layouts``,
which skips starts the table cannot reach: ``fast``, ``fastpp`` and
``relaxed`` trace all their final-region starts from one table at once
(``plbf`` re-plans each start and traces it alone), and layouts with a
region of zero mass are dropped.  One call of the framework's rate solver
then takes all layouts as a (layouts x regions) batch, and the scores are
computed as arrays: total filter memory (``fpr`` framework) or expected
false-positive rate (``memory`` framework).  A layout the closed form finds
infeasible gets NaN rates and is skipped; only when every layout is
infeasible does the solve raise, with the first layout's own error.  The
lowest score wins, and ties go to the smallest final-region start, so
results are deterministic.  The sweep first ranks every layout with numpy's
``log2`` and ``exp2``, which are fast but can differ from ``math.log2`` and
``2.0 **`` in the last bit.  It then settles, with the exact solve, only the
layouts whose ranked score lies within the proven ``RANK_RTOL`` bound of the
best.  The exact solve sums each row left to right and takes ``math.log2``
and ``2.0 **`` entry by entry, so the plan holds the rates and objective a
one-layout call gives the winner, to the bit, whatever numpy's SIMD dispatch.
"""

from __future__ import annotations

import json
import operator
import time
from dataclasses import dataclass
from itertools import repeat
from math import inf, log2, nan
from numbers import Real

import numpy as np

from .bloom import LOG2_E
from .distribution import SegmentedDistribution
from .dp import (
    NEG_INF,
    DPTable,
    _scan,
    _TableBuilder,
    divergence_table,
    divergence_table_monotone,
    divergences,
    trace_layouts,
)
from .errors import InfeasibleError, ValidationError

ALGORITHMS = ("plbf", "fast", "fastpp", "relaxed")
FRAMEWORKS = ("fpr", "memory")

# Segments with zero mass would make region rates degenerate (0/H or G/0),
# so loads give them this floor before planning.
MASS_FLOOR = 1e-12

# A lavish budget can push 2**(-beta) below float range; a rate of exactly 0
# would claim an impossible filter, so rates bottom out at the smallest
# normal double and the surplus budget goes unspent.
FPR_FLOOR = 2.0**-1022

# The most segments a plan may have.  A filter's region table holds a byte or
# four per segment, so this caps it at 64 MB however large a number of
# segments a plan, or a crafted file, claims; configs above it are refused
# before any histogram is made.
MAX_SEGMENTS = 1 << 24

# How far a plan's region masses may sum from 1: rounding, plus the floor
# mass ensure_positive_masses gives every empty segment of the largest plan.
# A constant, so a file claiming more segments cannot widen it.
MASS_SUM_TOLERANCE = 1e-6 + MAX_SEGMENTS * MASS_FLOOR

# How far a ranked score (np.log2 and np.exp2 in place of math.log2 and
# 2.0 ** e) may lie from the exact score S of a k-region layout: at most
# k * RANK_RTOL * S + RANK_ATOL.  np.log2 is within 1 ULP of math.log2, and
# np.exp2 within 2.2e-16 of pow, relative; that was measured over 4e6 doubles,
# subnormals included, with numpy's AVX-512 loops on and off.
# * ``fpr``: the rates hold no log or pow, so the exact ones are ranked.  The
#   score sums k nonnegative terms c|S| G_i log2(1/f_i), each within two
#   ULPs, so the two sums lie within (k + 1) * 2.2e-16 * S of each other.
# * ``memory``: each term G_i log2(G_i / H_i) of K is at most 1074 G_i in
#   size.  The free G_i sum to the head room that beta divides by when the
#   masses sum to 1; the ranked rates are NaN where they sum to more than
#   twice it, and where 2**-beta would be subnormal, which loses precision.
#   So beta, at most 1023 in size, moves by at most (k + 3) * 4.8e-13.  Each
#   free rate moves by ln 2 times that, relative, and so does the score,
#   sum H_i f_i.  A rate that crosses the clamp at 1 moves the result
#   continuously: clamping a rate of exactly 1 leaves beta as it was.
# The worst case, (k + 3) * 3.4e-13 * S, stays over 1,000 times below the bound.
# Products that underflow to subnormals err by up to 2**-1074 per region
# beyond that, which RANK_ATOL covers for every allowed k.
RANK_RTOL = 1e-9
RANK_ATOL = 2.0**-1000


@dataclass(frozen=True)
class RegionPlan:
    """Planned regions: boundaries, per-region masses and rates, objective.

    ``boundaries`` holds ``n_regions + 1`` ascending segment counts starting
    at 0 and ending at the segment total; region r covers 0-based segments
    ``boundaries[r] .. boundaries[r+1] - 1``.  ``objective`` is total filter
    memory in bits under the ``fpr`` framework and expected false-positive
    rate under ``memory``; it and the masses are finite and nonnegative, and
    each mass vector sums to 1 within ``MASS_SUM_TOLERANCE``.  A
    rate of exactly 1.0 marks a region that stores nothing and answers true;
    clamping inside the rate optimizers is the only way a region earns it.
    """

    n_regions: int
    boundaries: tuple[int, ...]
    fprs: tuple[float, ...]
    key_mass: tuple[float, ...]
    nonkey_mass: tuple[float, ...]
    objective: float
    framework: str
    algorithm: str

    def __post_init__(self) -> None:
        k = self.n_regions
        if k < 1 or len(self.boundaries) != k + 1:
            raise ValidationError("boundaries must have n_regions + 1 entries")
        if self.boundaries[0] != 0:
            raise ValidationError("boundaries must start at 0")
        if any(a >= b for a, b in zip(self.boundaries, self.boundaries[1:])):
            raise ValidationError("boundaries must be strictly increasing")
        for name, masses in (("key_mass", self.key_mass), ("nonkey_mass", self.nonkey_mass)):
            if len(masses) != k:
                raise ValidationError(f"{name} must have one entry per region")
            if not all(0.0 <= x < inf for x in masses):
                raise ValidationError(f"{name} must be finite and nonnegative")
            if abs(sum(masses) - 1.0) > MASS_SUM_TOLERANCE:
                raise ValidationError(f"{name} must sum to 1")
        if len(self.fprs) != k:
            raise ValidationError("fprs must have one entry per region")
        if any(not (0.0 < f <= 1.0) for f in self.fprs):
            raise ValidationError("every region rate must lie in (0, 1]")
        if not (0.0 <= self.objective < inf):
            raise ValidationError(
                f"plan objective must be finite and nonnegative, got {self.objective!r}"
            )
        if self.framework not in FRAMEWORKS:
            raise ValidationError(f"unknown framework {self.framework!r}")

    @property
    def n_segments(self) -> int:
        return self.boundaries[-1]


def _as_float(value) -> float:
    """A real number as a float, +-inf beyond float's range; anything else NaN."""
    try:
        return float(value) if isinstance(value, Real) else nan
    except OverflowError:  # an int or fraction too large for a float
        return inf if value > 0 else -inf


@dataclass(frozen=True)
class BuildConfig:
    """Planner configuration.

    The counts are integers, stored as ints (numpy integers pass).  Exactly
    one budget is given, a real number stored as a float: ``target_fpr`` in
    (0, 1) under the ``fpr`` framework, ``memory_bits`` > 0 under ``memory``.
    """

    framework: str
    n_segments: int
    n_regions: int
    algorithm: str = "fast"
    target_fpr: float | None = None
    memory_bits: float | None = None

    def __post_init__(self) -> None:
        if self.framework not in FRAMEWORKS:
            raise ValidationError(
                f"framework must be one of {FRAMEWORKS}, got {self.framework!r}"
            )
        if self.algorithm not in ALGORITHMS:
            raise ValidationError(
                f"algorithm must be one of {ALGORITHMS}, got {self.algorithm!r}"
            )
        for name in ("n_segments", "n_regions"):
            value = getattr(self, name)
            try:
                object.__setattr__(self, name, operator.index(value))
            except TypeError:
                raise ValidationError(f"{name} must be an integer, got {value!r}") from None
        if self.n_regions < 2:
            raise ValidationError("n_regions must be at least 2")
        if self.n_segments <= self.n_regions:
            raise ValidationError(
                f"n_segments must exceed n_regions "
                f"({self.n_segments} <= {self.n_regions})"
            )
        if self.n_segments > MAX_SEGMENTS:
            raise ValidationError(
                f"n_segments must be at most {MAX_SEGMENTS}, got {self.n_segments}"
            )
        if self.framework == "fpr":
            if self.memory_bits is not None:
                raise ValidationError("memory_bits only applies to the memory framework")
            object.__setattr__(self, "target_fpr", _as_float(self.target_fpr))
            if not (0.0 < self.target_fpr < 1.0):
                raise ValidationError("fpr framework needs target_fpr in (0, 1)")
        else:
            if self.target_fpr is not None:
                raise ValidationError("target_fpr only applies to the fpr framework")
            object.__setattr__(self, "memory_bits", _as_float(self.memory_bits))
            if not (self.memory_bits > 0):
                raise ValidationError("memory framework needs memory_bits > 0")

    def require_matching(self, dist: SegmentedDistribution) -> None:
        if dist.n_segments != self.n_segments:
            raise ValidationError(
                f"distribution has {dist.n_segments} segments, "
                f"config expects {self.n_segments}"
            )

    def effective_scaled_keys(self, dist: SegmentedDistribution) -> float:
        """Key count times the classic Bloom backend's bits-per-key factor, log2 e."""
        scaled = LOG2_E * dist.n_keys
        if scaled <= 0:
            raise ValidationError("distribution has no key count")
        return scaled


@dataclass(frozen=True)
class SolveStats:
    """Wall-clock breakdown of one solve, in seconds (monotonic clock)."""

    dp_seconds: float
    sweep_seconds: float
    total_seconds: float


def ensure_positive_masses(dist: SegmentedDistribution) -> SegmentedDistribution:
    """Return ``dist`` with zero-mass segments floored to a tiny constant.

    Planning formulas divide by region masses, so loads floor empty segments
    at MASS_FLOOR instead of special-casing zeros everywhere.  Distributions
    that are already strictly positive come back unchanged (same object).
    """
    if float(dist.g.min(initial=np.inf)) > 0 and float(dist.h.min(initial=np.inf)) > 0:
        return dist
    g = np.where(dist.g <= 0, MASS_FLOOR, dist.g)
    h = np.where(dist.h <= 0, MASS_FLOOR, dist.h)
    return SegmentedDistribution(g, h, dist.n_keys)


def _positive_masses(key_mass, nonkey_mass) -> tuple[np.ndarray, np.ndarray, bool]:
    """Mass vectors as (layouts x regions) arrays, and whether they came as a batch."""
    g = np.asarray(key_mass, dtype=np.float64)
    h = np.asarray(nonkey_mass, dtype=np.float64)
    if g.ndim not in (1, 2) or g.shape[-1] < 1 or h.shape != g.shape:
        raise ValidationError("mass vectors must be equally sized and nonempty")
    if not (((0.0 < g) & (g < inf)).all() and ((0.0 < h) & (h < inf)).all()):
        raise ValidationError("region masses must be finite and positive")
    return g.reshape(-1, g.shape[-1]), h.reshape(-1, h.shape[-1]), g.ndim == 2


def _log2(x: np.ndarray) -> np.ndarray:
    """``math.log2`` of every entry: ``np.log2`` can differ from it by one ULP.

    A zero entry gives -inf, as in ``np.log2``, where ``math.log2`` raises.
    A memoryview hands out one Python float at a time, as fast as a list
    would and without holding them all.
    """
    zero = x == 0.0
    if not zero.any():
        return np.fromiter(map(log2, memoryview(x.ravel())), np.float64, x.size).reshape(x.shape)
    out = _log2(np.where(zero, 1.0, x))
    out[zero] = NEG_INF
    return out


def _row_sums(x: np.ndarray, mask: np.ndarray | None = None) -> np.ndarray:
    """Each row's sum (of the entries ``mask`` marks), added left to right.

    That is the order in which Python's ``sum`` adds a list; numpy sums eight
    or more entries pairwise, which can round differently.
    """
    total = np.zeros(len(x))
    for i in range(x.shape[1]):
        total += x[:, i] if mask is None else np.where(mask[:, i], x[:, i], 0.0)
    return total


def _clamped_rates(g: np.ndarray, h: np.ndarray, closed_form, clamped: np.ndarray):
    """Clamp rates above 1 and re-solve the rest until all lie in (0, 1].

    ``g`` and ``h`` hold one layout's region masses per row, and ``clamped``
    marks the regions that start at rate 1; it is updated in place.  Each
    pass gives the layouts ``rows`` the rate G_i * num / (H_i * den) in their
    free regions and 1 in their clamped ones, where
    ``closed_form(rows, free, head_room, h_clamped)`` is the framework's
    scale: it returns ``num``, ``den`` and whether each layout is feasible,
    given its free regions, the key mass 1 - G_clamped left to them and the
    non-key mass of its clamped regions.  A layout with free regions and no
    key mass left is infeasible too.  Returns the rates, NaN across an
    infeasible layout's row, and where each layout stopped: its clamped
    regions and their key and non-key mass.
    """
    rows = np.arange(len(g))
    g_clamped = _row_sums(g, clamped)
    h_clamped = _row_sums(h, clamped)
    f = np.empty(g.shape)
    while rows.size:
        free = ~clamped[rows]
        head_room = 1.0 - g_clamped[rows]
        num, den, feasible = closed_form(rows, free, head_room, h_clamped[rows])
        feasible &= ~free.any(axis=1) | (head_room > 0.0)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            for i in range(g.shape[1]):  # by column: a large batch needs no big temporaries
                f[rows, i] = np.where(free[:, i], g[rows, i] * num / (h[rows, i] * den), 1.0)
        f[rows[~feasible]] = np.nan
        newly = ~clamped & (f > 1.0)  # NaN > 1 is false: infeasible rows stop
        rows = np.flatnonzero(newly.any(axis=1))
        clamped |= newly
        g_clamped[rows] = _row_sums(g[rows], clamped[rows])
        h_clamped[rows] = _row_sums(h[rows], clamped[rows])
    return np.maximum(f, FPR_FLOOR, out=f), clamped, g_clamped, h_clamped


def _one_or_batch(fprs: np.ndarray, batch: bool, error):
    """A batch's rates as they are; one layout's as a list, or ``error()`` raised."""
    if batch:
        return fprs
    if np.isnan(fprs[0, 0]):
        raise error()
    return fprs[0].tolist()


def optimal_fprs_for_fpr(
    key_mass, nonkey_mass, target_fpr: float
) -> list[float] | np.ndarray:
    """Per-region rates meeting an overall target rate with minimal memory.

    Starts from f_i = G_i * F / H_i, clamps rates above 1, and re-solves the
    rest against the budget left after the clamped regions until every rate
    lies in (0, 1].  With mass vectors summing to 1 the result always spends
    the budget exactly: sum(H_i * f_i) == F.

    The masses are one layout's regions, for a list of rates, or a (layouts x
    regions) batch, for an array of rates with one row per layout.  A layout
    whose clamped regions leave no budget (or no key mass) raises
    :class:`InfeasibleError` alone and gets a row of NaN in a batch.
    """
    g, h, batch = _positive_masses(key_mass, nonkey_mass)
    if not (0.0 < target_fpr < 1.0):
        raise ValidationError(f"target_fpr must be in (0, 1), got {target_fpr!r}")

    def closed_form(rows, free, head_room, h_clamped):
        budget = target_fpr - h_clamped
        feasible = np.where(free.any(axis=1), budget > 0.0, h_clamped <= target_fpr)
        return budget, head_room, feasible

    fprs, clamped, _, h_clamped = _clamped_rates(
        g, h, closed_form, np.zeros(g.shape, dtype=bool)
    )

    def error():
        if clamped[0].all():
            return InfeasibleError(
                f"clamped regions alone carry rate {h_clamped[0]:.6g} > "
                f"target {target_fpr:.6g}"
            )
        return InfeasibleError(
            f"cannot meet target rate {target_fpr:.6g}: clamped regions "
            f"already carry {h_clamped[0]:.6g}"
        )

    return _one_or_batch(fprs, batch, error)


def _pow2(exponents: np.ndarray) -> np.ndarray:
    """``2.0 ** e`` of every entry: ``np.exp2`` can differ from it in the last bit."""
    powers = map(pow, repeat(2.0), memoryview(exponents))
    return np.fromiter(powers, np.float64, len(exponents))


def _memory_rates(g, h, memory_bits: float, scaled_keys: float, log2, pow2):
    """The ``memory`` framework's rates, clamped regions and their key mass.

    ``log2`` and ``pow2`` take an array and return it mapped entry by entry.
    """
    with np.errstate(over="ignore"):
        ratio = g / h
    # a region whose G/H overflowed would make beta infinite for every other
    # region, so it starts clamped
    overflowed = ratio == inf
    # a ratio that underflowed to 0 has no log2; 2**-1074 is the least positive one
    region_div = g * log2(np.maximum(ratio, 2.0**-1074, out=ratio))
    del ratio  # a large batch's working set stays smaller without it

    def closed_form(rows, free, head_room, _h_clamped):
        k_sum = _row_sums(region_div[rows], free)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            beta = (memory_bits + scaled_keys * k_sum) / (scaled_keys * head_room)
            # 2**1023 is the largest finite power of two: capping the exponent
            # turns a beta below -1023 into rates far above 1, which clamp
            exponents = np.minimum(-beta, 1023.0)
        return pow2(exponents), 1.0, np.ones(len(rows), bool)

    fprs, clamped, g_clamped, _ = _clamped_rates(g, h, closed_form, overflowed)
    return fprs, clamped, g_clamped


def optimal_fprs_for_memory(
    key_mass, nonkey_mass, memory_bits: float, scaled_keys: float
) -> list[float] | np.ndarray:
    """Per-region rates spending a bit budget with minimal expected rate.

    The unclamped optimum is f_i = 2^(-beta) * G_i / H_i with
    beta = (M + c|S| * K) / (c|S|), K being the summed G*log2(G/H) of the
    rates still in play; clamping and re-solving proceeds as in the rate
    framework, and a region whose G/H overflows to +inf clamps first.  A
    budget of 0 simply clamps everything to 1.

    The masses are one layout's regions, for a list of rates, or a (layouts x
    regions) batch, for an array of rates with one row per layout.  A layout
    whose clamped regions leave no key mass raises :class:`InfeasibleError`
    alone and gets a row of NaN in a batch.
    """
    g, h, batch = _positive_masses(key_mass, nonkey_mass)
    if memory_bits < 0:
        raise ValidationError("memory_bits must be nonnegative")
    if not (scaled_keys > 0):
        raise ValidationError("scaled_keys must be positive")
    fprs, _, g_clamped = _memory_rates(g, h, memory_bits, scaled_keys, _log2, _pow2)
    return _one_or_batch(fprs, batch, lambda: InfeasibleError(
        f"cannot spend {memory_bits:.6g} bits: clamped regions "
        f"already carry key mass {g_clamped[0]:.6g}"
    ))


def bloom_memory_bits(key_mass, fprs, scaled_keys: float) -> float | np.ndarray:
    """Total backing-filter memory: sum of c|S| * G_i * log2(1 / f_i) bits.

    One layout's masses and rates give a float; a (layouts x regions) batch
    gives one total per row, NaN where the row's rates are NaN.
    """
    return _memory_bits(key_mass, fprs, scaled_keys, _log2)


def _memory_bits(key_mass, fprs, scaled_keys: float, log2) -> float | np.ndarray:
    f = np.asarray(fprs, dtype=np.float64)
    g_cols, f_cols = np.broadcast_arrays(
        np.atleast_2d(np.asarray(key_mass, dtype=np.float64)), np.atleast_2d(f)
    )
    total = np.zeros(len(f_cols))
    # by column, added left to right as in _row_sums: a large batch needs no
    # temporaries of its own size
    for g, fi in zip(g_cols.T, f_cols.T):
        stores = (fi < 1.0) & (g > 0.0) | np.isnan(fi)
        bits = log2(np.where(stores, fi, 1.0))
        np.negative(bits, out=bits)
        bits *= scaled_keys * g
        total += np.where(stores, bits, 0.0)
    return total if f.ndim == 2 else float(total[0])


def expected_fpr(nonkey_mass, fprs) -> float | np.ndarray:
    """Overall false-positive rate implied by per-region rates: sum H_i * f_i.

    One layout's masses and rates give a float; a (layouts x regions) batch
    gives one rate per row.
    """
    f = np.asarray(fprs, dtype=np.float64)
    total = _row_sums(np.atleast_2d(np.asarray(nonkey_mass, dtype=np.float64) * f))
    return total if f.ndim == 2 else float(total[0])


def _rates_and_score(config, scaled, key_mass, nonkey_mass):
    if config.framework == "fpr":
        fprs = optimal_fprs_for_fpr(key_mass, nonkey_mass, config.target_fpr)
        return fprs, bloom_memory_bits(key_mass, fprs, scaled)
    fprs = optimal_fprs_for_memory(key_mass, nonkey_mass, config.memory_bits, scaled)
    return fprs, expected_fpr(nonkey_mass, fprs)


def _ranked_pow2(exponents: np.ndarray) -> np.ndarray:
    """``np.exp2`` of every entry, NaN where 2**e is subnormal and so imprecise."""
    powers = np.exp2(exponents)
    powers[exponents < -1022] = nan
    return powers


def _ranked_scores(config, scaled, key_mass, nonkey_mass):
    """Each layout's score with numpy's log2 and exp2, and the exact solve.

    A ranked score lies within the RANK_ bounds of the exact one, or is NaN.
    The exact solve takes an index array of layouts and returns their rates
    and scores.
    """
    if config.framework == "fpr":
        # these rates hold no log or pow, so they are the exact ones already
        fprs = optimal_fprs_for_fpr(key_mass, nonkey_mass, config.target_fpr)

        def exact(rows):
            return fprs[rows], bloom_memory_bits(key_mass[rows], fprs[rows], scaled)

        return _memory_bits(key_mass, fprs, scaled, np.log2), exact
    fprs, clamped, g_clamped = _memory_rates(
        key_mass, nonkey_mass, config.memory_bits, scaled, np.log2, _ranked_pow2
    )
    # RANK_RTOL's bound holds while the free key mass is at most twice the head room
    fprs[_row_sums(key_mass, ~clamped) > 2.0 * (1.0 - g_clamped)] = nan

    def exact(rows):
        return _rates_and_score(config, scaled, key_mass[rows], nonkey_mass[rows])

    return expected_fpr(nonkey_mass, fprs), exact


def _settled_winner(config, scaled, key_mass, nonkey_mass):
    """The batch's layout of lowest exact score: its row, rates and score, or None.

    Every layout is ranked by :func:`_ranked_scores`; only the ones that can
    still win are settled, by the exact solve.  First those within the
    RANK_ bounds of the lowest ranked score, or ranked NaN; then any others
    within the bounds of the best exact score found, which is every other
    layout when none settled so far is feasible.  Ties go to the smallest
    row, and None means that no layout is feasible.
    """
    ranked, exact = _ranked_scores(config, scaled, key_mass, nonkey_mass)
    slack = 1.0 + 2.0 * config.n_regions * RANK_RTOL
    pending = np.ones(len(ranked), dtype=bool)
    bound = np.min(ranked, initial=inf, where=~np.isnan(ranked))
    best = None
    while True:
        rows = np.flatnonzero(pending & ~(ranked > bound * slack + 2.0 * RANK_ATOL))
        if not rows.size:
            return best
        pending[rows] = False
        fprs, scores = exact(rows)
        feasible = np.flatnonzero(~np.isnan(scores))
        if feasible.size:
            i = feasible[np.argmin(scores[feasible])]
            if best is None or (scores[i], rows[i]) < (best[2], best[0]):
                best = rows[i], fprs[i], scores[i]
        bound = inf if best is None else best[2]


def solve(dist: SegmentedDistribution, config: BuildConfig) -> RegionPlan:
    """Plan regions and rates for ``dist`` under ``config``."""
    plan, _ = solve_timed(dist, config)
    return plan


def _planning_input(
    dist: SegmentedDistribution, config: BuildConfig
) -> SegmentedDistribution:
    """The histogram a planner reads: ``dist`` checked against ``config``, floored.

    Every planner, :func:`planning_table` and the oracle start here, so the
    table ``--dump-dp`` writes is the one a plan was traced from.  A mass
    vector whose floored total is more than ``MASS_SUM_TOLERANCE`` from 1
    is refused here, before any table is built, rather than by the plan.
    """
    config.require_matching(dist)
    dist = ensure_positive_masses(dist)
    for name, total in (("key", dist.g_prefix[-1]), ("non-key", dist.h_prefix[-1])):
        if abs(total - 1.0) > MASS_SUM_TOLERANCE:
            raise ValidationError(
                f"{name} masses sum to {float(total)!r}, not 1 within "
                f"{MASS_SUM_TOLERANCE:g}: normalize the histogram"
            )
    return dist


def planning_table(dist: SegmentedDistribution, config: BuildConfig) -> DPTable:
    """The divergence table the configured planner traces.

    The table is built over the histogram the planner reads: ``dist``
    checked against ``config`` (a ValidationError if their segment counts
    differ), with empty segments floored at ``MASS_FLOOR``.  ``fastpp`` uses
    the row-maxima table; every other planner uses the full N x k table
    (``plbf``'s per-start tables are windows of it, and ``relaxed`` picks
    the start of its final region from it).
    """
    dist = _planning_input(dist, config)
    if config.algorithm == "fastpp":
        return divergence_table_monotone(dist, config.n_regions)
    return divergence_table(dist, config.n_regions)


def solve_timed(
    dist: SegmentedDistribution, config: BuildConfig
) -> tuple[RegionPlan, SolveStats]:
    """Like :func:`solve`, also reporting the DP/sweep wall-time split."""
    dist = _planning_input(dist, config)
    scaled = config.effective_scaled_keys(dist)
    n, k = dist.n_segments, config.n_regions
    started = time.perf_counter()

    if config.algorithm == "plbf":
        # re-plan from scratch for every final-region start: the cubic baseline
        builder = _TableBuilder(dist)
        dp_seconds = time.perf_counter() - started
        layouts = []
        for j in range(k, n + 1):
            t0 = time.perf_counter()
            table = builder.build(j, k)
            dp_seconds += time.perf_counter() - t0
            layouts.append(trace_layouts(table, [j], k))
        bounds = np.concatenate(layouts)
        bounds[:, k] = n  # each table ends where its final region begins
    else:
        table = planning_table(dist, config)
        dp_seconds = time.perf_counter() - started
        starts = np.arange(k, n + 1)
        if config.algorithm == "relaxed":
            # the start whose layout has the most divergence, whatever the rate
            # cap makes of it: the scan of the row n the table lacks
            tail = divergences(dist, np.arange(n), n)[None]
            starts = _scan(tail, np.empty_like(tail), table.values[:, k - 1])[1] + 1
        bounds = trace_layouts(table, starts, k)
    del table  # no longer needed: the rate solves below peak lower without it

    key_mass, nonkey_mass = dist.masses(bounds[:, :-1], bounds[:, 1:])
    # prefix sums never decrease, so a region that cancellation emptied has
    # mass exactly 0 and no closed-form rate
    solvable = (key_mass != 0.0).all(axis=1) & (nonkey_mass != 0.0).all(axis=1)
    bounds = bounds[solvable]
    key_mass = key_mass[solvable]
    nonkey_mass = nonkey_mass[solvable]
    winner = _settled_winner(config, scaled, key_mass, nonkey_mass)
    if winner is None:
        if len(bounds):
            # every layout is infeasible: the first one's own error says why
            _rates_and_score(config, scaled, key_mass[0], nonkey_mass[0])
        raise InfeasibleError("no feasible region layout")
    best, fprs, score = winner  # ties go to the smallest start
    plan = RegionPlan(
        n_regions=k,
        boundaries=tuple(bounds[best].tolist()),
        fprs=tuple(fprs.tolist()),
        key_mass=tuple(key_mass[best].tolist()),
        nonkey_mass=tuple(nonkey_mass[best].tolist()),
        objective=float(score),
        framework=config.framework,
        algorithm=config.algorithm,
    )
    total = time.perf_counter() - started
    return plan, SolveStats(dp_seconds, total - dp_seconds, total)


def plan_to_dict(plan: RegionPlan) -> dict:
    """JSON-ready view of a plan.

    Counts are JSON integers and every other number a JSON real, whatever
    types the plan holds, so :func:`plan_from_dict` reads back an equal plan.
    Thresholds are also given as score-space reals (boundary / n_segments).
    Algorithm and timing are envelope concerns: two algorithms returning the
    same plan serialize identically here.
    """
    n = int(plan.n_segments)
    return {
        "framework": plan.framework,
        "n_regions": int(plan.n_regions),
        "n_segments": n,
        "boundaries": [int(b) for b in plan.boundaries],
        "thresholds": [b / n for b in plan.boundaries],
        "fprs": [float(f) for f in plan.fprs],
        "key_mass": [float(x) for x in plan.key_mass],
        "nonkey_mass": [float(x) for x in plan.nonkey_mass],
        "objective": float(plan.objective),
    }


def plan_from_dict(data: dict, algorithm: str = "unknown") -> RegionPlan:
    """Rebuild a plan from :func:`plan_to_dict` output.

    The document must be exactly what :func:`plan_to_dict` writes for the
    plan it describes: re-encoding the rebuilt plan gives the same JSON, so
    every field has the type ``plan_to_dict`` writes, ``n_segments`` and
    ``thresholds`` agree with the boundaries, and no other field appears.
    """
    try:
        fields = dict(
            n_regions=int(data["n_regions"]),
            boundaries=tuple(int(b) for b in data["boundaries"]),
            fprs=tuple(float(f) for f in data["fprs"]),
            key_mass=tuple(float(x) for x in data["key_mass"]),
            nonkey_mass=tuple(float(x) for x in data["nonkey_mass"]),
            objective=float(data["objective"]),
            framework=str(data["framework"]),
        )
        n_segments, thresholds = data["n_segments"], data["thresholds"]
        encoded = json.dumps(data, sort_keys=True)
    except KeyError as exc:
        raise ValidationError(f"plan document missing field {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"malformed plan document: {exc}") from exc
    plan = RegionPlan(**fields, algorithm=algorithm)
    if n_segments != plan.n_segments:
        raise ValidationError(
            f"plan says {n_segments} segments, its boundaries end at {plan.n_segments}"
        )
    written = plan_to_dict(plan)
    if thresholds != written["thresholds"]:
        raise ValidationError("plan thresholds disagree with boundaries / n_segments")
    if encoded != json.dumps(written, sort_keys=True):
        raise ValidationError("plan document is not what plan_to_dict writes for its plan")
    return plan
