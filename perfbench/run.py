"""Run one plbf benchmark workload and print its metrics as the last output line.

    python3 perfbench/run.py --workload pipeline-200k --seed 7 --seconds 20 --trace 0

Run it from the root of a checkout: plbf is imported from ``src/`` without
being installed.  A run prepares its inputs from ``--seed`` in a work
directory under ``.perfbench-work/``, times set-up in several fresh
processes, then starts one fresh, single-threaded process that performs and
checks the workload's operations for ``--seconds`` (``worker.py``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer ones with ``--trace 1``.  The line
before it records provenance and the digests of the outputs.  The exit code
is 0 only when every operation succeeded and passed its output checks.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench-work"
# Set-up is timed in this many fresh processes, half of them before the
# measured process and half after it, so that the median spans the whole run
# and not one slow or fast second of a shared machine.
SETUP_RUNS = 6
# Every run must end within 180 s; children get what is left of this.
DEADLINE_S = 170.0
SINGLE_THREADED = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
    "PYTHONDONTWRITEBYTECODE": "1",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None, help="input seed (default 7)")
    parser.add_argument("--seconds", type=float, default=10.0, help="measuring time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--profile", choices=("full", "tiny"), default="full",
        help="input sizes; tiny runs in seconds and serves the self-test",
    )
    return parser.parse_args(argv)


def child_env() -> dict[str, str]:
    env = dict(os.environ, **SINGLE_THREADED)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(argv: list[str], deadline: float) -> tuple[dict | None, str]:
    """Run ``worker.py`` with ``argv``; its last stdout line parsed, and why not."""
    try:
        done = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *argv],
            env=child_env(), capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        return None, "timed out"
    lines = done.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]), done.stderr[-2000:]
    except (IndexError, json.JSONDecodeError):
        return None, f"exit {done.returncode}: {done.stderr[-2000:]}"


def measure(workload: str, seed: int, seconds: float, trace: int, profile: str,
            work: Path, deadline: float) -> tuple[dict, dict]:
    """Time set-up and run the worker on prepared inputs: (result, details)."""
    common = ["--workload", workload, "--work", str(work), "--profile", profile,
              "--seed", str(seed)]
    errors = []
    setups = []

    def time_setup(runs: int) -> None:
        for _ in range(runs):
            probe, why = run_child([*common, "--setup-probe"], deadline)
            if probe is None:
                errors.append(f"set-up probe failed: {why}")
            else:
                setups.append(probe["setup_s"])

    time_setup(SETUP_RUNS // 2)
    trace_out = WORK_ROOT / "traces" / f"{workload}-seed{seed}.json"
    out, why = run_child(
        [*common, "--seconds", str(seconds), "--trace", str(trace),
         "--trace-out", str(trace_out)],
        deadline,
    )
    if out is None:
        out = {"attempted": 1, "failed": 1, "errors": [f"worker failed: {why}"]}
    errors += out["errors"]
    time_setup(SETUP_RUNS - SETUP_RUNS // 2)
    attempted = out["attempted"] + SETUP_RUNS
    failed = out["failed"] + SETUP_RUNS - len(setups)

    metrics = {}
    if trace:
        import tracing

        units = dict(tracing.PER_LAYER)
        metrics = {name: {"value": value, "unit": units[name]}
                   for name, value in out.get("per_layer", {}).items()}
    else:
        values = {"setup_s": (statistics.median(setups) if setups else None, "s"),
                  "op_ref": (statistics.median(out["op_ref"]) if out.get("op_ref") else None,
                             "ref"),
                  "peak_rss_mb": (out.get("peak_rss_mb"), "MB")}
        quality = out.get("quality", {})
        values["fpr"] = (quality.get("fpr"), "ratio")
        values["bits_per_key"] = (quality.get("bits_per_key"), "bits")
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in values.items() if value is not None}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    details = {"errors": errors, "digests": out.get("digests"), "setup_runs_s": setups,
               "op_runs_s": out.get("op_s"), "op_runs_ref": out.get("op_ref"),
               "worker_setup_s": out.get("setup_s")}
    return result, details


def provenance(seed: int, trace: int, profile: str) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "git_commit": git_commit(),
        "src_sha256": src_digest(),
        "seed": seed,
        "traced": bool(trace),
        "profile": profile,
    }


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str | None:
    """HEAD of the checkout, or None where it is not a git repository."""
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def src_digest() -> str:
    """One digest of the package sources, for checkouts without git."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "plbf").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "plbf" / "__init__.py").is_file():
        print(f"error: {SRC / 'plbf'} not found; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    started = time.monotonic()
    os.environ.update(SINGLE_THREADED)
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
    work = WORK_ROOT / f"{args.workload}-seed{seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        try:
            workloads.WORKLOADS[args.workload].prepare(
                work, workloads.SIZES[args.profile], seed
            )
        except Exception as exc:
            result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
            details = {"errors": [f"preparing inputs raised {exc!r}"]}
        else:
            result, details = measure(args.workload, seed, args.seconds, args.trace,
                                      args.profile, work, started + DEADLINE_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"provenance": provenance(seed, args.trace, args.profile),
                      "details": details}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
