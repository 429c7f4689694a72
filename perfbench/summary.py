"""Run every workload once and print each metric by name, value and unit.

    python3 perfbench/summary.py                # end-to-end metrics
    python3 perfbench/summary.py --trace 1      # per-layer metrics

Each workload runs through ``run.py`` exactly as a single benchmark run
does, one after another, at the default seed for ``run_seconds`` of
``BENCHMARK.json``; call ``run.py`` for another seed, length or size.
Exits non-zero if any run failed an output check.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

from run import HERE, ROOT


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    all_correct = True
    print(f"{'workload':20} {'metric':36} {'value':>14} unit")
    for workload in (w["name"] for w in bench["workloads"]):
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True,
        )
        lines = done.stdout.strip().splitlines()
        if not lines:
            print(f"{workload:20} no result: {done.stderr.strip()[-500:]}")
            all_correct = False
            continue
        result = json.loads(lines[-1])
        all_correct &= result["correct"]
        for name, metric in result["metrics"].items():
            print(f"{workload:20} {name:36} {metric['value']:14.6g} {metric['unit']}")
        print(f"{workload:20} {'correct':36} {str(result['correct']):>14} "
              f"({result['failed']} of {result['attempted']} operations failed)")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
