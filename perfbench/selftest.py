"""Self-test of the benchmark harness at tiny sizes; takes about a minute.

    python3 perfbench/selftest.py

It shows that every workload passes its output checks at the default seed
and at two others, that a traced run sees every layer the workload reaches
and none it does not, and that the layers account for nearly all of its
time, that a corrupted filter file or a wrong answer is
reported as a failed operation (and a non-zero exit) rather than as a
timing, and that the benchmark refuses to run without the sources.  Prints
one PASS or FAIL line per check and exits non-zero if any failed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

sys.dont_write_bytecode = True
import run  # noqa: E402

sys.path.insert(0, str(run.SRC))
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

PROFILE = "tiny"
SEEDS = (workloads.DEFAULT_SEED, 1, 2)
END_TO_END = {"setup_s", "op_ref", "peak_rss_mb", "fpr", "bits_per_key"}
results: list[bool] = []


def report(name: str, ok: bool, why: str = "") -> None:
    results.append(ok)
    print(f"{'PASS' if ok else 'FAIL'} {name}" + ("" if ok else f": {why}"), flush=True)


def run_benchmark(workload: str, seed: int, trace: int = 0, cwd: Path = run.ROOT):
    done = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--profile", PROFILE],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    lines = done.stdout.strip().splitlines()
    return done.returncode, lines


def check_clean_runs() -> None:
    for seed in SEEDS:
        for name in workloads.WORKLOADS:
            code, lines = run_benchmark(name, seed)
            result = json.loads(lines[-1])
            errors = json.loads(lines[-2])["details"]["errors"]
            ok = (code == 0 and result["correct"] and result["failed"] == 0
                  and set(result["metrics"]) == END_TO_END
                  and all(m["value"] > 0 for m in result["metrics"].values()))
            report(f"{name} seed {seed}", ok, f"exit {code}, {result}, {errors}")


def solver(algo: str) -> set[str]:
    return {"optimizer.self_s", "dp.self_s"} | {
        f"optimizer.{what}.{algo}"
        for what in ("solve.s", "dp.s", "sweep.s", "rate_solves", "rate_solve.s")
    }


# The per-layer metrics each workload reaches, after the layer map in
# README.md: each must be non-zero there and 0 on every other workload, so a
# wrapper that no longer sees its calls (a renamed function, or a caller
# that imported it under its own name) fails here.  trace.overhead_s is left
# out: it is a difference of two timings and may have either sign.
TRACE_ALWAYS = {"trace.untraced_op_s", "trace.traced_op_s", "trace.uncovered_s", "trace.ref_s"}
QUERY_PATH = {
    "bloom.self_s", "filters.self_s", "bloom.contains.calls", "bloom.contains.s",
    "filters.load_filter.s", "filters.query.calls", "filters.query.s",
    "filters.query.hashed_share",
}
TRACE_REACHES = {
    "pipeline-200k": solver("fast") | QUERY_PATH | {
        "cli.self_s", "distribution.self_s", "cli.build.self_s", "cli.query.self_s",
        "distribution.read_records_csv.s", "distribution.read_records_csv.rows",
        "distribution.segment_scores.s", "bloom.insert.calls", "bloom.insert.s",
        "filters.build_filter.s", "filters.save.s",
    },
    "plan-fast-n4000": solver("fast"),
    "plan-fastpp-n4000": solver("fastpp") | {"dp.row_maxima.s", "dp.transition_evals"},
    "plan-relaxed-n4000": solver("relaxed"),
    "query-200k": QUERY_PATH,
}
# The layers' self times must cover all but this share of a traced
# operation.  What they leave is the harness loop, argument parsing and the
# wrappers' own cost outside their timers: under 15% on query-200k, where
# 200k per-element wrappers run, and under 6% elsewhere.
MAX_UNCOVERED_SHARE = 0.25


def check_traced_runs() -> None:
    size = workloads.SIZES[PROFILE]
    probes = size.keys + size.held_out
    for name in workloads.WORKLOADS:
        code, lines = run_benchmark(name, workloads.DEFAULT_SEED, trace=1)
        result = json.loads(lines[-1])
        values = {k: m["value"] for k, m in result["metrics"].items()}
        problems = []
        if set(values) != {n for n, _unit in tracing.PER_LAYER}:
            problems.append(f"reports {sorted(values)}")
        reached = {k for k, v in values.items() if v != 0 and k != "trace.overhead_s"}
        expected = TRACE_REACHES[name] | TRACE_ALWAYS
        if reached != expected:
            problems.append(f"0 but should not be: {sorted(expected - reached)}, "
                            f"non-zero but should be 0: {sorted(reached - expected)}")
        uncovered = values.get("trace.uncovered_s", 0.0)
        traced = values.get("trace.traced_op_s", 0.0)
        if not 0 <= uncovered <= MAX_UNCOVERED_SHARE * traced:
            problems.append(f"layers leave {uncovered} s of {traced} s uncovered")
        # every key and held-out non-key is queried; the build reads every record
        if name in ("pipeline-200k", "query-200k") and values.get("filters.query.calls") != probes:
            problems.append(f"{values.get('filters.query.calls')} queries per op")
        if name == "pipeline-200k":
            rows = size.keys + size.nonkeys + probes
            if values.get("distribution.read_records_csv.rows") != rows:
                problems.append(f"{values.get('distribution.read_records_csv.rows')} "
                                f"CSV rows read per op, not {rows}")
            # keys in a rate-1 region are not inserted anywhere
            if not 0 < values.get("bloom.insert.calls", 0) <= size.keys:
                problems.append(f"{values.get('bloom.insert.calls')} inserts per op")
        ok = code == 0 and result["correct"] and not problems
        report(f"{name} traced", ok, f"exit {code}, {problems}")


def prepared(workload: str, seed: int) -> Path:
    work = run.WORK_ROOT / f"selftest-{workload}-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workloads.WORKLOADS[workload].prepare(work, workloads.SIZES[PROFILE], seed)
    return work


def check_corrupt_filter() -> None:
    """Flip one byte of the prepared filter file, in its bit arrays and in its header."""
    for where in ("bits", "header"):
        work = prepared("query-200k", 1)
        path = work / workloads.FILTER
        data = bytearray(path.read_bytes())
        at = len(data) - 10 if where == "bits" else 12
        data[at] ^= 0xFF
        path.write_bytes(bytes(data))
        result, details = run.measure("query-200k", 1, 0.5, 0, PROFILE, work,
                                      time.monotonic() + 120)
        shutil.rmtree(work, ignore_errors=True)
        ok = not result["correct"] and result["failed"] > 0
        report(f"flipped filter byte in its {where} is a failure", ok,
               f"{result}, {details['errors']}")


@contextmanager
def wrong_answer(victim: str):
    """Make one inserted key answer false."""
    from plbf.filters import PlbfFilter

    original = PlbfFilter.query

    def query(self, element_id, score):
        answer = original(self, element_id, score)
        return (not answer) if element_id == victim else answer

    PlbfFilter.query = query
    try:
        yield
    finally:
        PlbfFilter.query = original


def check_wrong_answer() -> None:
    for name in ("pipeline-200k", "query-200k"):
        work = prepared(name, 2)
        args = worker.parse_args([
            "--workload", name, "--work", str(work), "--profile", PROFILE,
            "--seed", "2", "--seconds", "0.2",
        ])
        with wrong_answer("k00000000"):
            out = worker.measure(args)
        shutil.rmtree(work, ignore_errors=True)
        ok = out["failed"] > 0 and any("answered false" in e for e in out["errors"])
        report(f"{name}: a wrong answer is a failure", ok, f"{out['errors']}")


def check_needs_sources() -> None:
    """Only BENCHMARK.json and perfbench/: exit non-zero without a result line."""
    bare = run.WORK_ROOT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    code, lines = run_benchmark("pipeline-200k", 3, cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    report("refuses to run without src/", code != 0 and not lines, f"exit {code}, {lines}")


def main() -> int:
    check_clean_runs()
    check_traced_runs()
    check_corrupt_filter()
    check_wrong_answer()
    check_needs_sources()
    print(f"{sum(results)} of {len(results)} checks passed")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
