"""Write the CLI outputs that a refactor must leave byte-identical.

    python3 tools/identity.py OUT [--size tiny]

Run it in each of two checkouts and compare the two trees with
``diff -r OUT_A OUT_B``: an empty diff is the identity proof.  plbf is
imported from the ``src/`` next to this script, so each checkout writes its
own outputs, in-process through ``plbf.cli.main``.  ``OUT`` must not exist
yet.  It receives:

* ``gen/``: ``plbf gen`` at fixed seeds, Zipf exponents 1 and 1.3, with and
  without adjacent swaps;
* ``build/``: ``plbf build`` of two of those data sets (ideal and swapped)
  with every planner under both frameworks, each with its filter, its
  ``--dump-dp`` table and its report with ``timings`` removed (the only
  field that changes from run to run);
* ``query/``: ``plbf query`` of every built filter over a held-out data set,
  the answers and the summary line exactly as printed.

The default size finishes in well under a minute; ``--size tiny`` in a few
seconds.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from plbf import ALGORITHMS, FRAMEWORKS  # noqa: E402
from plbf.cli import main  # noqa: E402

# records per side, data segments, planning segments, regions
SIZES = {"full": (20_000, 1000, 400, 5), "tiny": (200, 60, 24, 3)}
DATA_SETS = {  # name: (Zipf exponent, adjacent swaps, seed)
    "zipf1": ("1.0", 0, 11),
    "zipf1-swapped": ("1.0", 40, 12),
    "zipf1.3": ("1.3", 0, 13),
    "zipf1.3-swapped": ("1.3", 40, 14),
}
BUILT = ("zipf1", "zipf1.3-swapped")
HELD_OUT_SEED = 15
FILTER_SEED = 7
TARGET_FPR = "0.01"
MEMORY_BITS_PER_KEY = 6


def run(argv: list[str]) -> str:
    """``plbf`` with ``argv``, in-process; its standard output, or SystemExit if it fails."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    if code != 0:
        raise SystemExit(f"plbf {' '.join(argv)} exited with {code}")
    return out.getvalue()


def write_identity_set(out: Path, size: str) -> None:
    records, segments, plan_segments, regions = SIZES[size]
    gen, build, query = out / "gen", out / "build", out / "query"
    for folder in (gen, build, query):
        folder.mkdir(parents=True)

    def generate(path: Path, zipf: str, swaps: int, seed: int) -> None:
        run([
            "gen", "--out", str(path), "--segments", str(segments), "--keys", str(records),
            "--nonkeys", str(records), "--zipf", zipf, "--swaps", str(swaps),
            "--seed", str(seed),
        ])

    for name, (zipf, swaps, seed) in DATA_SETS.items():
        generate(gen / f"{name}.csv", zipf, swaps, seed)
    held_out = out / "held-out.csv"
    generate(held_out, "1.0", 0, HELD_OUT_SEED)
    budgets = {
        "fpr": ["--target-fpr", TARGET_FPR],
        "memory": ["--memory-bits", str(MEMORY_BITS_PER_KEY * records)],
    }
    for name in BUILT:
        for algorithm in ALGORITHMS:
            for framework in FRAMEWORKS:
                stem = f"{name}-{algorithm}-{framework}"
                filt, report = build / f"{stem}.plbf", build / f"{stem}.report.json"
                run([
                    "build", "--data", str(gen / f"{name}.csv"), "--out", str(filt),
                    "--report", str(report), "--segments", str(plan_segments),
                    "--regions", str(regions), "--algorithm", algorithm,
                    "--framework", framework, *budgets[framework],
                    "--seed", str(FILTER_SEED), "--dump-dp", str(build / f"{stem}.dp.csv"),
                ])
                fields = json.loads(report.read_text(encoding="utf-8"))
                del fields["timings"]
                report.write_text(json.dumps(fields, indent=2, sort_keys=True) + "\n",
                                  encoding="utf-8")
                answers = run(["query", "--filter", str(filt), "--data", str(held_out)])
                (query / f"{stem}.txt").write_text(answers, encoding="utf-8")


def main_cli(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path, help="output directory; must not exist")
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    args = parser.parse_args(argv)
    if args.out.exists():
        parser.error(f"{args.out} exists")
    write_identity_set(args.out, args.size)
    return 0


if __name__ == "__main__":
    sys.exit(main_cli())
