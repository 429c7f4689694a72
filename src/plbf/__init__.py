"""Partitioned learned Bloom filters.

Scores from a learned model are binned into segments, segments are grouped
into regions by maximizing a divergence objective with dynamic programming,
and each region gets its own Bloom filter with an individually optimized
false-positive rate.  Four planners share one plan format: ``plbf``
(re-solves the table for every candidate final region), ``fast`` (one table,
same plans), ``fastpp`` (divide-and-conquer row maxima; exact when key and
non-key masses have monotone ratios), and ``relaxed`` (single unconstrained
backtrace).
"""

from .bloom import LOG2_E, BloomFilter, bits_for, hashes_for
from .distribution import (
    ScoreRecord,
    SegmentedDistribution,
    SyntheticSpec,
    apply_swaps,
    is_ideal,
    read_records_csv,
    sample_records,
    segment_index,
    segment_scores,
    synthesize_records,
    write_records_csv,
    zipfian_distribution,
)
from .dp import (
    DenseMatrix,
    DPTable,
    TransitionMatrix,
    divergence,
    divergence_table,
    divergence_table_monotone,
    monotone_row_maxima,
    trace_boundaries,
)
from .errors import InfeasibleError, PlbfError, ValidationError
from .filters import PlbfFilter, build_filter, load_filter, region_seed
from .optimizer import (
    ALGORITHMS,
    FRAMEWORKS,
    BuildConfig,
    RegionPlan,
    SolveStats,
    bloom_memory_bits,
    ensure_positive_masses,
    expected_fpr,
    optimal_fprs_for_fpr,
    optimal_fprs_for_memory,
    plan_from_dict,
    plan_to_dict,
    planning_table,
    solve,
    solve_timed,
)
from .oracle import best_clustering_exhaustive, exhaustive_plan, naive_row_maxima

__version__ = "0.1.0"

__all__ = [
    "ALGORITHMS",
    "FRAMEWORKS",
    "LOG2_E",
    "BloomFilter",
    "BuildConfig",
    "DPTable",
    "DenseMatrix",
    "InfeasibleError",
    "PlbfError",
    "PlbfFilter",
    "RegionPlan",
    "ScoreRecord",
    "SegmentedDistribution",
    "SolveStats",
    "SyntheticSpec",
    "TransitionMatrix",
    "ValidationError",
    "apply_swaps",
    "best_clustering_exhaustive",
    "bits_for",
    "bloom_memory_bits",
    "build_filter",
    "divergence",
    "divergence_table",
    "divergence_table_monotone",
    "ensure_positive_masses",
    "exhaustive_plan",
    "expected_fpr",
    "hashes_for",
    "is_ideal",
    "load_filter",
    "monotone_row_maxima",
    "naive_row_maxima",
    "optimal_fprs_for_fpr",
    "optimal_fprs_for_memory",
    "plan_from_dict",
    "plan_to_dict",
    "planning_table",
    "read_records_csv",
    "region_seed",
    "sample_records",
    "segment_index",
    "segment_scores",
    "solve",
    "solve_timed",
    "synthesize_records",
    "trace_boundaries",
    "write_records_csv",
    "zipfian_distribution",
]
