"""Region planning: thresholds from the DP tables, rates from closed forms.

A plan fixes (a) region boundaries, found by sweeping every possible first
segment of the final region and backtracing the divergence tables, and (b)
one false-positive rate per region, from the closed-form optimum of the
chosen framework:

* ``fpr`` framework: meet an overall target rate F while minimizing memory.
  The unconstrained optimum is f_i = G_i * F / H_i; rates that land above 1
  are clamped there and the remainder re-solved until all lie in (0, 1].
* ``memory`` framework: spend a bit budget M while minimizing the expected
  rate.  With c|S| denoting keys scaled by the filter's bits-per-key factor,
  the optimum is f_i = 2^(-beta) * G_i / H_i with beta chosen to spend M
  exactly, re-solved under the same clamping loop.

Candidates are scored by total filter memory (``fpr`` framework) or by
expected false-positive rate (``memory`` framework); the sweep keeps the
smallest final-region start on ties, so results are deterministic.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from math import log2

import numpy as np

from .bloom import LOG2_E
from .distribution import SegmentedDistribution, _build
from .dp import (
    DPTable,
    _TableBuilder,
    _trace,
    divergence_table,
    divergence_table_monotone,
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


@dataclass(frozen=True)
class RegionPlan:
    """Planned regions: boundaries, per-region masses and rates, objective.

    ``boundaries`` holds ``n_regions + 1`` ascending segment counts starting
    at 0 and ending at the segment total; region r covers 0-based segments
    ``boundaries[r] .. boundaries[r+1] - 1``.  ``objective`` is total filter
    memory in bits under the ``fpr`` framework and expected false-positive
    rate under ``memory``.  A rate of exactly 1.0 marks a region that stores
    nothing and answers true; clamping inside the rate optimizers is the only
    way a region earns it.
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
            if abs(sum(masses) - 1.0) > 1e-6:
                raise ValidationError(f"{name} must sum to 1")
        if len(self.fprs) != k:
            raise ValidationError("fprs must have one entry per region")
        if any(not (0.0 < f <= 1.0) for f in self.fprs):
            raise ValidationError("every region rate must lie in (0, 1]")
        if self.framework not in FRAMEWORKS:
            raise ValidationError(f"unknown framework {self.framework!r}")

    @property
    def n_segments(self) -> int:
        return self.boundaries[-1]


@dataclass(frozen=True)
class BuildConfig:
    """Planner configuration.

    Exactly one budget applies: ``target_fpr`` in (0, 1) under the ``fpr``
    framework, ``memory_bits`` > 0 under ``memory``.
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
        if self.n_regions < 2:
            raise ValidationError("n_regions must be at least 2")
        if self.n_segments <= self.n_regions:
            raise ValidationError(
                f"n_segments must exceed n_regions "
                f"({self.n_segments} <= {self.n_regions})"
            )
        if self.framework == "fpr":
            if self.target_fpr is None or not (0.0 < self.target_fpr < 1.0):
                raise ValidationError("fpr framework needs target_fpr in (0, 1)")
        else:
            if self.memory_bits is None or not (self.memory_bits > 0):
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
    return _build(dist.n_segments, g, h, dist.n_keys)


def _positive_masses(key_mass, nonkey_mass) -> tuple[list[float], list[float]]:
    g = list(map(float, key_mass))
    h = list(map(float, nonkey_mass))
    if len(g) < 1 or len(h) != len(g):
        raise ValidationError("mass vectors must be equally sized and nonempty")
    if any(x <= 0 for x in g) or any(x <= 0 for x in h):
        raise ValidationError("region masses must be positive")
    return g, h


def _clamped_rates(g: list[float], h: list[float], free_rates) -> list[float]:
    """Clamp rates above 1 and re-solve the rest until all lie in (0, 1].

    ``free_rates(free, g_clamped, h_clamped)`` is the framework's closed form:
    the rates of the regions listed in ``free`` (index order), given the key
    and non-key mass of the regions already clamped to 1.  The first solve is
    the re-solve with nothing clamped.
    """
    k = len(g)
    f = free_rates(range(k), 0.0, 0.0)
    clamped = [False] * k
    while True:
        newly = [i for i in range(k) if not clamped[i] and f[i] > 1.0]
        if not newly:
            return [fi if fi >= FPR_FLOOR else FPR_FLOOR for fi in f]
        for i in newly:
            clamped[i] = True
            f[i] = 1.0
        free = [i for i in range(k) if not clamped[i]]
        held = [i for i in range(k) if clamped[i]]
        g_clamped = sum([g[i] for i in held])
        h_clamped = sum([h[i] for i in held])
        for i, fi in zip(free, free_rates(free, g_clamped, h_clamped)):
            f[i] = fi


def optimal_fprs_for_fpr(key_mass, nonkey_mass, target_fpr: float) -> list[float]:
    """Per-region rates meeting an overall target rate with minimal memory.

    Starts from f_i = G_i * F / H_i, clamps rates above 1, and re-solves the
    rest against the budget left after the clamped regions until every rate
    lies in (0, 1].  With mass vectors summing to 1 the result always spends
    the budget exactly: sum(H_i * f_i) == F.
    """
    g, h = _positive_masses(key_mass, nonkey_mass)
    if not (0.0 < target_fpr < 1.0):
        raise ValidationError(f"target_fpr must be in (0, 1), got {target_fpr!r}")

    def free_rates(free, g_clamped, h_clamped):
        if not free:
            if h_clamped > target_fpr:
                raise InfeasibleError(
                    f"clamped regions alone carry rate {h_clamped:.6g} > "
                    f"target {target_fpr:.6g}"
                )
            return []
        budget = target_fpr - h_clamped
        head_room = 1.0 - g_clamped
        if budget <= 0.0 or head_room <= 0.0:
            raise InfeasibleError(
                f"cannot meet target rate {target_fpr:.6g}: clamped regions "
                f"already carry {h_clamped:.6g}"
            )
        return [g[i] * budget / (h[i] * head_room) for i in free]

    return _clamped_rates(g, h, free_rates)


def optimal_fprs_for_memory(
    key_mass, nonkey_mass, memory_bits: float, scaled_keys: float
) -> list[float]:
    """Per-region rates spending a bit budget with minimal expected rate.

    The unclamped optimum is f_i = 2^(-beta) * G_i / H_i with
    beta = (M + c|S| * K) / (c|S|), K being the summed G*log2(G/H) of the
    rates still in play; clamping and re-solving proceeds as in the rate
    framework.  A budget of 0 simply clamps everything to 1.
    """
    g, h = _positive_masses(key_mass, nonkey_mass)
    if memory_bits < 0:
        raise ValidationError("memory_bits must be nonnegative")
    if not (scaled_keys > 0):
        raise ValidationError("scaled_keys must be positive")

    def free_rates(free, g_clamped, _h_clamped):
        if not free:
            return []
        k_sum = sum(g[i] * log2(g[i] / h[i]) for i in free)
        beta = (memory_bits + scaled_keys * k_sum) / (scaled_keys * (1.0 - g_clamped))
        return [2.0 ** (-beta) * g[i] / h[i] for i in free]

    return _clamped_rates(g, h, free_rates)


def bloom_memory_bits(key_mass, fprs, scaled_keys: float) -> float:
    """Total backing-filter memory: sum of c|S| * G_i * log2(1 / f_i) bits."""
    total = 0.0
    for gi, fi in zip(key_mass, fprs):
        if fi < 1.0 and gi > 0.0:
            total += scaled_keys * gi * -log2(fi)
    return total


def expected_fpr(nonkey_mass, fprs) -> float:
    """Overall false-positive rate implied by per-region rates: sum H_i * f_i."""
    return float(sum(hi * fi for hi, fi in zip(nonkey_mass, fprs)))


def _rates_and_score(config, scaled, key_mass, nonkey_mass):
    if config.framework == "fpr":
        fprs = optimal_fprs_for_fpr(key_mass, nonkey_mass, config.target_fpr)
        return fprs, bloom_memory_bits(key_mass, fprs, scaled)
    fprs = optimal_fprs_for_memory(key_mass, nonkey_mass, config.memory_bits, scaled)
    return fprs, expected_fpr(nonkey_mass, fprs)


def solve(dist: SegmentedDistribution, config: BuildConfig) -> RegionPlan:
    """Plan regions and rates for ``dist`` under ``config``."""
    plan, _ = solve_timed(dist, config)
    return plan


def planning_table(dist: SegmentedDistribution, config: BuildConfig) -> DPTable:
    """The divergence table the configured planner traces.

    ``fast`` and ``plbf`` share the full table (``plbf``'s per-start tables
    are windows of it), ``fastpp`` uses the row-maxima table, and ``relaxed``
    the (N+1) x (k+1) table that clusters all segments without the rate cap.
    """
    k = config.n_regions
    if config.algorithm == "fastpp":
        return divergence_table_monotone(dist, k)
    if config.algorithm == "relaxed":
        n = dist.n_segments
        return _TableBuilder(dist, n + 1).build(n + 1, k + 1)
    return divergence_table(dist, k)


def solve_timed(
    dist: SegmentedDistribution, config: BuildConfig
) -> tuple[RegionPlan, SolveStats]:
    """Like :func:`solve`, also reporting the DP/sweep wall-time split."""
    config.require_matching(dist)
    dist = ensure_positive_masses(dist)
    scaled = config.effective_scaled_keys(dist)
    n, k = dist.n_segments, config.n_regions
    gp = dist.g_prefix.tolist()
    hp = dist.h_prefix.tolist()
    started = time.perf_counter()

    per_start = config.algorithm == "plbf"
    if per_start:
        # re-plan from scratch for every final-region start: the cubic baseline
        builder = _TableBuilder(dist, n)
    else:
        table = planning_table(dist, config)
    dp_seconds = time.perf_counter() - started

    if config.algorithm == "relaxed":
        # one clustering of all segments into every region at once, sized
        # without the rate cap; clamping still applies to the rates after
        candidates = [(0,) + tuple(_trace(table, n, k))]
    else:
        candidates = []
        for j in range(k, n + 1):
            if per_start:
                t0 = time.perf_counter()
                table = builder.build(j, k)
                dp_seconds += time.perf_counter() - t0
            if table.values[j - 1, k - 1] == float("-inf"):
                continue  # this start is unreachable for the approximate table
            ends = _trace(table, j - 1, k - 1)
            candidates.append(tuple([0] + ends + [n]))

    best = None
    for bounds in candidates:
        key_mass = [gp[b] - gp[a] for a, b in zip(bounds, bounds[1:])]
        nonkey_mass = [hp[b] - hp[a] for a, b in zip(bounds, bounds[1:])]
        if 0.0 in key_mass or 0.0 in nonkey_mass:
            # prefix sums never decrease, so a region that cancellation
            # emptied has mass exactly 0 and no closed-form rate
            continue
        fprs, score = _rates_and_score(config, scaled, key_mass, nonkey_mass)
        if best is None or score < best[0]:
            best = (score, bounds, fprs, key_mass, nonkey_mass)
    if best is None:
        raise InfeasibleError("no feasible region layout")
    score, bounds, fprs, key_mass, nonkey_mass = best
    plan = RegionPlan(
        n_regions=k,
        boundaries=bounds,
        fprs=tuple(fprs),
        key_mass=tuple(key_mass),
        nonkey_mass=tuple(nonkey_mass),
        objective=score,
        framework=config.framework,
        algorithm=config.algorithm,
    )
    total = time.perf_counter() - started
    return plan, SolveStats(dp_seconds, total - dp_seconds, total)


def plan_to_dict(plan: RegionPlan) -> dict:
    """JSON-ready view of a plan.

    Thresholds are also given as score-space reals (boundary / n_segments).
    Algorithm and timing are envelope concerns: two algorithms returning the
    same plan serialize identically here.
    """
    n = plan.n_segments
    return {
        "framework": plan.framework,
        "n_regions": plan.n_regions,
        "n_segments": n,
        "boundaries": list(plan.boundaries),
        "thresholds": [b / n for b in plan.boundaries],
        "fprs": list(plan.fprs),
        "key_mass": list(plan.key_mass),
        "nonkey_mass": list(plan.nonkey_mass),
        "objective": plan.objective,
    }


def plan_from_dict(data: dict, algorithm: str = "unknown") -> RegionPlan:
    """Rebuild a plan from :func:`plan_to_dict` output."""
    try:
        return RegionPlan(
            n_regions=int(data["n_regions"]),
            boundaries=tuple(int(b) for b in data["boundaries"]),
            fprs=tuple(float(f) for f in data["fprs"]),
            key_mass=tuple(float(x) for x in data["key_mass"]),
            nonkey_mass=tuple(float(x) for x in data["nonkey_mass"]),
            objective=float(data["objective"]),
            framework=str(data["framework"]),
            algorithm=algorithm,
        )
    except KeyError as exc:
        raise ValidationError(f"plan document missing field {exc}") from exc
