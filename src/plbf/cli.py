"""Command-line surface: gen, build, query, bench.

Every command is deterministic given its seed (``--seed`` flag, else the
``PLBF_SEED`` environment variable, else 0).  Exit codes: 0 success, 1 for
validation problems (bad flags, malformed files), 2 when a plan is
infeasible under the requested budget.

build, query and bench read their CSV once into ``ScoreColumns`` and work
on those columns: the histogram and the key routing are array operations,
and the key and non-key subsets are taken with the label mask.  Each key
is still inserted, and each probe still queried, by its own call.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from statistics import median

import numpy as np

from .bloom import check_seed
from .distribution import (
    SyntheticSpec,
    read_records_csv,
    segment_scores,
    synthesize_records,
    write_records_csv,
)
from .dp import write_table_csv
from .errors import InfeasibleError, ValidationError, as_integer
from .filters import build_filter, load_filter
from .optimizer import (
    ALGORITHMS,
    FRAMEWORKS,
    BuildConfig,
    bloom_memory_bits,
    expected_fpr,
    plan_to_dict,
    planning_table,
    solve_timed,
)

BENCH_SCHEMA = "plbf-bench-v1"


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; 2 is reserved for infeasible plans
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _resolve_seed(value: int | None) -> int:
    if value is None:
        raw = os.environ.get("PLBF_SEED")
        if raw is None:
            return 0
        try:
            value = int(raw)
        except ValueError:
            as_integer("PLBF_SEED", raw)  # text int() refuses: raises, naming the variable
    return check_seed(value)


def _comma_list(text: str, flag: str, convert=int) -> list:
    items = [piece.strip() for piece in text.split(",") if piece.strip()]
    if not items:
        raise ValidationError(f"{flag} needs at least one value")
    try:
        return [convert(piece) for piece in items]
    except ValueError as exc:
        raise ValidationError(f"{flag}: {exc}") from None


def _config(args, n_segments, n_regions, algorithm) -> BuildConfig:
    """The config of one planner run under the budget flags; ``--target-fpr`` defaults to 0.01."""
    target_fpr = args.target_fpr
    if target_fpr is None and args.framework == "fpr":
        target_fpr = 0.01
    return BuildConfig(args.framework, n_segments, n_regions, algorithm,
                       target_fpr=target_fpr, memory_bits=args.memory_bits)


def cmd_gen(args) -> int:
    seed = _resolve_seed(args.seed)
    spec = SyntheticSpec(
        n_segments=args.segments,
        n_keys=args.keys,
        n_nonkeys=args.nonkeys,
        zipf_exponent=args.zipf,
        n_swaps=args.swaps,
        seed=seed,
    )
    write_records_csv(args.out, synthesize_records(spec))
    print(
        f"wrote {args.out}: {args.keys} keys, {args.nonkeys} non-keys, "
        f"{args.segments} segments, seed {seed}"
    )
    return 0


def cmd_build(args) -> int:
    seed = _resolve_seed(args.seed)
    config = _config(args, args.segments, args.regions, args.algorithm)
    columns = read_records_csv(args.data)
    dist = segment_scores(columns, args.segments)
    plan, stats = solve_timed(dist, config)
    keys = columns.subset(columns.is_key)
    t0 = time.perf_counter()
    filt = build_filter(keys, plan, seed)
    insert_seconds = time.perf_counter() - t0
    filt.save(args.out)
    if args.dump_dp:
        write_table_csv(planning_table(dist, config), args.dump_dp)
    report = {
        "algorithm": args.algorithm,
        "framework": args.framework,
        "n_segments": args.segments,
        "n_regions": args.regions,
        "seed": seed,
        "n_keys": len(keys),
        "n_nonkeys": len(columns) - len(keys),
        "objective": plan.objective,
        "expected_fpr": expected_fpr(plan.nonkey_mass, plan.fprs),
        "planned_bits": bloom_memory_bits(
            plan.key_mass, plan.fprs, config.effective_scaled_keys(dist)
        ),
        "filter_bits": filt.total_bits,
        "plan": plan_to_dict(plan),
        "timings": {
            "dp_ms": stats.dp_seconds * 1e3,
            "optimize_ms": stats.sweep_seconds * 1e3,
            "insert_ms": insert_seconds * 1e3,
            "total_ms": (stats.total_seconds + insert_seconds) * 1e3,
        },
    }
    report_path = args.report if args.report else args.out + ".report.json"
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(
        f"wrote {args.out} ({filt.total_bits} bits, {plan.n_regions} regions) "
        f"and {report_path}"
    )
    return 0


def cmd_query(args) -> int:
    filt = load_filter(args.filter)
    columns = read_records_csv(args.data)
    if not columns:
        raise ValidationError(f"query file {args.data} has no records")
    answers = np.fromiter(
        map(filt.query, columns.ids, columns.scores.tolist()), bool, len(columns)
    )
    write = sys.stdout.write
    for ident, answer in zip(columns.ids, answers.tolist()):
        if "," in ident or '"' in ident or "\n" in ident or "\r" in ident:
            # quoted as csv.writer quotes it, so the line parses back
            ident = '"' + ident.replace('"', '""') + '"'
        write(f"{ident},{'true' if answer else 'false'}\n")
    key_answers, nonkey_answers = answers[columns.is_key], answers[~columns.is_key]
    summary = [f"# queried={answers.size}"]
    if key_answers.size:
        summary.append(f"key_false_negatives={np.count_nonzero(~key_answers)}")
    if nonkey_answers.size:
        summary.append(
            f"nonkey_fpr={np.count_nonzero(nonkey_answers) / nonkey_answers.size:.6f}"
        )
    print(" ".join(summary))
    return 0


def cmd_bench(args) -> int:
    seed = _resolve_seed(args.seed)
    if args.repeat < 3:
        raise ValidationError("--repeat must be at least 3 for a stable median")
    algorithms = _comma_list(args.algorithms, "--algorithms", str)
    segment_counts = _comma_list(args.segments, "--segments")
    region_counts = _comma_list(args.regions, "--regions")
    configs = [
        _config(args, n, k, algo)
        for algo in algorithms
        for n in segment_counts
        for k in region_counts
    ]
    columns = read_records_csv(args.data)
    keys = columns.subset(columns.is_key)
    nonkeys = columns.subset(~columns.is_key)
    dists = {n: segment_scores(columns, n) for n in segment_counts}
    lines = [f"# schema: {BENCH_SCHEMA}"]
    lines.append("algorithm,N,k,build_ms,expected_fpr,measured_fpr,memory_bits")
    for config in configs:
        n = config.n_segments
        timings = []
        for _ in range(args.repeat):
            t0 = time.perf_counter()
            plan, _stats = solve_timed(dists[n], config)
            filt = build_filter(keys, plan, seed)
            timings.append(time.perf_counter() - t0)
        lines.append(
            f"{config.algorithm},{n},{config.n_regions},{median(timings) * 1e3:.3f},"
            f"{expected_fpr(plan.nonkey_mass, plan.fprs):.6g},"
            f"{filt.measure_fpr(nonkeys):.6g},{filt.total_bits}"
        )
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.out}: {len(lines) - 2} rows")
    else:
        sys.stdout.write(text)
    return 0


def _add_budget_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--framework", choices=FRAMEWORKS, default="fpr",
        help="optimize memory at a target rate (fpr) or rate at a bit budget (memory)",
    )
    parser.add_argument(
        "--target-fpr", type=float, default=None,
        help="overall false-positive budget for --framework fpr (default 0.01)",
    )
    parser.add_argument(
        "--memory-bits", type=float, default=None,
        help="filter bit budget for --framework memory",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="plbf", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="write a synthetic scored dataset as CSV")
    gen.add_argument("--out", required=True, help="output CSV path")
    gen.add_argument("--segments", type=int, default=1000, help="score segments")
    gen.add_argument("--keys", type=int, default=10000, help="key record count")
    gen.add_argument("--nonkeys", type=int, default=10000, help="non-key record count")
    gen.add_argument("--zipf", type=float, default=1.0, help="Zipf exponent")
    gen.add_argument(
        "--swaps", type=int, default=0,
        help="adjacent segment swaps applied to break ideality",
    )
    gen.add_argument("--seed", type=int, default=None)
    gen.set_defaults(func=cmd_gen)

    build = sub.add_parser("build", help="plan regions and build a filter from a CSV")
    build.add_argument("--data", required=True, help="scored CSV with keys and non-keys")
    build.add_argument("--out", required=True, help="output filter path")
    build.add_argument("--report", default=None, help="report JSON path (default <out>.report.json)")
    build.add_argument("--segments", type=int, default=1000, help="score segments")
    build.add_argument("--regions", type=int, default=5, help="region count")
    build.add_argument("--algorithm", choices=ALGORITHMS, default="fast")
    _add_budget_flags(build)
    build.add_argument("--seed", type=int, default=None)
    build.add_argument("--dump-dp", default=None, help="also write the DP table as CSV")
    build.set_defaults(func=cmd_build)

    query = sub.add_parser("query", help="run a records CSV against a saved filter")
    query.add_argument("--filter", required=True, help="filter file from build")
    query.add_argument("--data", required=True, help="records CSV to query")
    query.set_defaults(func=cmd_query)

    bench = sub.add_parser("bench", help="sweep algorithms and sizes, emit timing CSV")
    bench.add_argument("--data", required=True, help="scored CSV with keys and non-keys")
    bench.add_argument("--out", default=None, help="output CSV path (default stdout)")
    bench.add_argument(
        "--algorithms", default="fast",
        help="comma-separated algorithm list (default fast)",
    )
    bench.add_argument(
        "--segments", default="1000",
        help="comma-separated segment counts (default 1000)",
    )
    bench.add_argument(
        "--regions", default="5",
        help="comma-separated region counts (default 5)",
    )
    _add_budget_flags(bench)
    bench.add_argument("--repeat", type=int, default=3, help="repetitions per point (median)")
    bench.add_argument("--seed", type=int, default=None)
    bench.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 2
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
