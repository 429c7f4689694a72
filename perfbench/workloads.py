"""Benchmark workloads: inputs made from a seed, one timed operation, output checks.

Every workload class has the same parts:

* ``prepare`` runs untimed in the orchestrating process and writes the
  workload's inputs into a work directory.  They depend only on the seed and
  the size profile.
* ``setup`` is the set-up a user of the system pays before the first
  operation; the measured process times it together with ``import plbf``.
* The constructor loads the prepared inputs, untimed.
* ``reference`` names what the operation's time is divided by
  (``worker.Reference``): ``"python"``, a Python loop timed before, between
  and after the operation's stages, for workloads that are mostly
  interpreted loops; ``None``, one second of wall time, for the others.
* ``stages`` are the steps of the timed operation, run in order; the
  operation's result is the tuple of their results.  ``summarize`` turns it
  into digests, untimed; every operation of a run must summarize
  identically.
* ``check`` verifies the first operation's outputs against the invariants
  of the system and returns the quality figures the benchmark reports.

The plbf modules are used through their module attributes (``cli.main``,
``optimizer.solve``, ``filters.load_filter``) so that the tracer in
``tracing.py`` sees every call it patches.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from plbf import cli, distribution, filters, optimizer
from plbf.bloom import LOG2_E

DEFAULT_SEED = 7
TARGET_FPR = 0.01
N_REGIONS = 5
MEMORY_BITS_PER_KEY = 2.0  # budget of the memory-framework plans
# Budgets hold up to float rounding: a plan may exceed its budget by this
# share and no more.
BUDGET_RTOL = 1e-9
# A held-out positive count passes when it lies within BAND_SIGMAS binomial
# standard deviations of the count the plan's rates predict, widened by
# BAND_SLACK of that count for the gap between a planned rate and the rate
# its rounded filter size gives.  Six sigma keeps chance failures below one
# in 10**8 runs, so a failure means the filter is wrong, not unlucky.
BAND_SIGMAS = 6.0
BAND_SLACK = 0.05

PINS = json.loads(Path(__file__).with_name("pins.json").read_text(encoding="utf-8"))

RECORDS = "records.csv"
PROBES = "probes.csv"
PROBE_IDS = "probe_ids.txt"  # the probes in columns, for query-200k
PROBE_COLUMNS = "probe_columns.npz"
FILTER = "filter.plbf"
REPORT = "filter.report.json"
ANSWERS = "answers.txt"
EXPECT = "expect.json"


@dataclass(frozen=True)
class Size:
    """Input sizes of one profile; ``full`` is what the benchmark measures."""

    segments: int  # histogram bins of the pipeline and query workloads
    keys: int
    nonkeys: int
    held_out: int  # non-keys the planner never sees, probed to measure the rate
    plan_segments: int
    plan_keys: int  # key count behind the ideal planner histogram
    plan_nonkeys: int
    noisy_samples: int  # keys, and non-keys, sampled for the noisy histogram


SIZES = {
    "full": Size(1000, 100_000, 100_000, 100_000, 4000, 100_000, 100_000, 1_000_000),
    "tiny": Size(100, 2000, 2000, 2000, 200, 2000, 2000, 20_000),
}


def derive_seed(seed: int, stream: int) -> int:
    """An independent 64-bit seed for one input stream of a run."""
    return int(np.random.SeedSequence([seed, stream]).generate_state(1, np.uint64)[0])


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def canonical(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


def run_cli(argv: list[str], stdout_path: Path) -> int:
    """Run one ``plbf`` command in-process with its standard output in a file."""
    with open(stdout_path, "w", encoding="utf-8") as fh, contextlib.redirect_stdout(fh):
        return cli.main(argv)


def build_argv(work: Path, size: Size, seed: int) -> list[str]:
    return [
        "build", "--data", str(work / RECORDS), "--out", str(work / FILTER),
        "--report", str(work / REPORT), "--algorithm", "fast", "--framework", "fpr",
        "--target-fpr", repr(TARGET_FPR), "--segments", str(size.segments),
        "--regions", str(N_REGIONS), "--seed", str(seed),
    ]


def write_records_and_probes(work: Path, size: Size, seed: int) -> list:
    """Records to build from, probes to query, and the held-out histogram.

    The probes are every key plus ``held_out`` non-keys drawn from the ideal
    histogram, shuffled.  Held-out ids start with ``h`` so they never
    collide with the records' ``k``/``q`` ids.  Returns the probes in the
    order they were written.
    """
    records = distribution.synthesize_records(
        distribution.SyntheticSpec(size.segments, size.keys, size.nonkeys, seed=seed)
    )
    distribution.write_records_csv(work / RECORDS, records)
    ideal = distribution.zipfian_distribution(
        distribution.SyntheticSpec(size.segments, size.keys, size.nonkeys)
    )
    held_out = distribution.sample_records(
        ideal, 0, size.held_out, seed=derive_seed(seed, 1), nonkey_prefix="h"
    )
    probes = [rec for rec in records if rec.is_key] + held_out
    order = np.random.default_rng(derive_seed(seed, 2)).permutation(len(probes))
    probes = [probes[i] for i in order.tolist()]
    distribution.write_records_csv(work / PROBES, probes)
    segments = np.bincount(
        [distribution.segment_index(rec.score, size.segments) for rec in held_out],
        minlength=size.segments,
    )
    (work / EXPECT).write_text(json.dumps({"held_out_segments": segments.tolist()}))
    return probes


def read_expect(work: Path) -> dict:
    return json.loads((work / EXPECT).read_text())


def band_errors(filt, held_out_segments, positives: int) -> list[str]:
    """Check a held-out positive count against the count the plan predicts."""
    plan = filt.plan
    per_region = np.add.reduceat(np.asarray(held_out_segments), list(plan.boundaries[:-1]))
    expected = variance = 0.0
    for r, count in enumerate(per_region.tolist()):
        if filt.region_filters[r] is None:
            rate = 1.0 if plan.fprs[r] >= 1.0 else 0.0  # stores nothing
        else:
            rate = plan.fprs[r]
        expected += count * rate
        variance += count * rate * (1.0 - rate)
    width = BAND_SIGMAS * math.sqrt(variance) + BAND_SLACK * expected
    if abs(positives - expected) > width:
        return [f"held-out positives {positives} outside the plan's "
                f"{expected:.1f} +- {width:.1f}"]
    return []


def target_errors(plan) -> list[str]:
    fpr = optimizer.expected_fpr(plan.nonkey_mass, plan.fprs)
    if fpr > TARGET_FPR + 1e-9:
        return [f"expected fpr {fpr!r} above the target {TARGET_FPR}"]
    return []


class Pipeline:
    """``plbf build`` then ``plbf query`` over 200k probes, both through ``cli.main``."""

    name = "pipeline-200k"
    reference = "python"
    setup = staticmethod(lambda work: None)

    @staticmethod
    def prepare(work: Path, size: Size, seed: int) -> None:
        write_records_and_probes(work, size, seed)

    def __init__(self, work: Path, size: Size, seed: int, state) -> None:
        self.work, self.size, self.seed = work, size, seed
        self.expect = read_expect(work)
        self.stages = (self.build, self.query)

    def build(self) -> int:
        return run_cli(build_argv(self.work, self.size, self.seed), self.work / "build.out")

    def query(self) -> int:
        return run_cli(
            ["query", "--filter", str(self.work / FILTER), "--data", str(self.work / PROBES)],
            self.work / ANSWERS,
        )

    def summarize(self, result) -> dict:
        report = json.loads((self.work / REPORT).read_text())
        return {
            "exit_codes": list(result),
            "filter_sha256": sha256((self.work / FILTER).read_bytes()),
            "plan_sha256": sha256(canonical(report["plan"])),
            "answers_sha256": sha256((self.work / ANSWERS).read_bytes()),
        }

    def check(self, summary: dict) -> tuple[list[str], dict]:
        if summary["exit_codes"] != [0, 0]:
            return [f"plbf build, query exited {summary['exit_codes']}"], {}
        report = json.loads((self.work / REPORT).read_text())
        filt = filters.load_filter(self.work / FILTER)
        errors = target_errors(filt.plan)
        lines = (self.work / ANSWERS).read_text().splitlines()
        answers = dict(line.split(",") for line in lines[:-1])
        footer = dict(item.split("=") for item in lines[-1].lstrip("# ").split())
        key_negatives = sum(1 for i, a in answers.items() if i[0] == "k" and a != "true")
        held_out = [a for i, a in answers.items() if i[0] == "h"]
        positives = held_out.count("true")
        if len(answers) != self.size.keys + self.size.held_out:
            errors.append(f"{len(answers)} distinct answers for "
                          f"{self.size.keys + self.size.held_out} probes")
        if key_negatives or footer.get("key_false_negatives") != "0":
            errors.append(f"{key_negatives} inserted keys answered false, summary says "
                          f"key_false_negatives={footer.get('key_false_negatives')}")
        errors += band_errors(filt, self.expect["held_out_segments"], positives)
        quality = {
            "fpr": positives / len(held_out),
            "bits_per_key": report["filter_bits"] / report["n_keys"],
        }
        return errors, quality


class Query:
    """Online membership checks: one caller, 200k ``PlbfFilter.query`` calls in turn."""

    name = "query-200k"
    reference = "python"

    @staticmethod
    def prepare(work: Path, size: Size, seed: int) -> None:
        # The measured process reads the probes as columns, not as CSV
        # records, so that its peak memory is the query path's and not that
        # of 200k record objects.  The CSV writes scores with repr, so both
        # forms hold the same floats.
        probes = write_records_and_probes(work, size, seed)
        (work / PROBE_IDS).write_text("\n".join(rec.element_id for rec in probes))
        np.savez(work / PROBE_COLUMNS,
                 scores=np.array([rec.score for rec in probes], dtype=np.float64),
                 is_key=np.array([rec.is_key for rec in probes], dtype=bool))
        code = run_cli(build_argv(work, size, seed), work / "build.out")
        if code != 0:
            raise RuntimeError(f"preparing the filter: plbf build exited {code}")
        expect = read_expect(work)
        expect["filter_sha256"] = sha256((work / FILTER).read_bytes())
        (work / EXPECT).write_text(json.dumps(expect))

    @staticmethod
    def setup(work: Path):
        """The user-visible set-up: load the saved filter."""
        return filters.load_filter(work / FILTER)

    def __init__(self, work: Path, size: Size, seed: int, state) -> None:
        self.work, self.size = work, size
        self.filt = state
        self.expect = read_expect(work)
        self.ids = (work / PROBE_IDS).read_text().split("\n")
        with np.load(work / PROBE_COLUMNS) as columns:
            self.scores = columns["scores"].tolist()
            self.is_key = columns["is_key"].tolist()
        self.stages = (self.query_probes,)

    def query_probes(self) -> bytes:
        return bytes(map(self.filt.query, self.ids, self.scores))

    def summarize(self, result: tuple[bytes]) -> dict:
        (self.answers,) = result
        return {
            "filter_sha256": sha256((self.work / FILTER).read_bytes()),
            "answers_sha256": sha256(self.answers),
        }

    def check(self, summary: dict) -> tuple[list[str], dict]:
        errors = target_errors(self.filt.plan)
        if summary["filter_sha256"] != self.expect["filter_sha256"]:
            errors.append("filter file differs from the one that was built")
        resaved = self.work / "resaved.plbf"
        self.filt.save(resaved)
        if resaved.read_bytes() != (self.work / FILTER).read_bytes():
            errors.append("saving the loaded filter does not reproduce its file")
        key_negatives = sum(1 for a, k in zip(self.answers, self.is_key) if k and not a)
        positives = sum(1 for a, k in zip(self.answers, self.is_key) if a and not k)
        if key_negatives:
            errors.append(f"{key_negatives} inserted keys answered false")
        errors += band_errors(self.filt, self.expect["held_out_segments"], positives)
        quality = {
            "fpr": positives / self.size.held_out,
            "bits_per_key": self.filt.total_bits / self.size.keys,
        }
        return errors, quality


class Plan:
    """One planner on two N=4000 histograms: ideal under ``fpr``, noisy under ``memory``."""

    algorithm = ""
    reference = None
    setup = staticmethod(lambda work: None)
    prepare = staticmethod(lambda work, size, seed: None)

    def __init__(self, work: Path, size: Size, seed: int, state) -> None:
        self.size = size
        self.ideal = ideal_histogram(size)
        self.noisy = noisy_histogram(self.ideal, size.noisy_samples, seed)
        n = size.plan_segments
        self.by_rate = optimizer.BuildConfig(
            "fpr", n, N_REGIONS, algorithm=self.algorithm, target_fpr=TARGET_FPR
        )
        self.by_memory = optimizer.BuildConfig(
            "memory", n, N_REGIONS, algorithm=self.algorithm,
            memory_bits=MEMORY_BITS_PER_KEY * size.noisy_samples,
        )
        self.stages = (self.solve_ideal, self.solve_noisy)

    def solve_ideal(self):
        return optimizer.solve(self.ideal, self.by_rate)

    def solve_noisy(self):
        return optimizer.solve(self.noisy, self.by_memory)

    def summarize(self, plans) -> dict:
        self.plans = plans
        ideal, noisy = plans
        return {
            "ideal_plan_sha256": sha256(canonical(optimizer.plan_to_dict(ideal))),
            "noisy_plan_sha256": sha256(canonical(optimizer.plan_to_dict(noisy))),
        }

    def check(self, summary: dict) -> tuple[list[str], dict]:
        ideal, noisy = self.plans
        errors = target_errors(ideal)
        # fast and fastpp are exact on ideal input, so both must return the
        # one pinned plan; relaxed has a plan of its own.
        family = "relaxed" if self.algorithm == "relaxed" else "exact"
        profile = next(name for name, size in SIZES.items() if size == self.size)
        if summary["ideal_plan_sha256"] != PINS[profile]["ideal_plan_sha256"][family]:
            errors.append(f"ideal-histogram plan differs from the pinned {family} plan")
        bits = optimizer.bloom_memory_bits(
            noisy.key_mass, noisy.fprs, LOG2_E * self.noisy.n_keys
        )
        budget = self.by_memory.memory_bits
        if bits > budget * (1.0 + BUDGET_RTOL):
            errors.append(f"memory plan uses {bits!r} bits, over its {budget} budget")
        quality = {
            "fpr": optimizer.expected_fpr(noisy.nonkey_mass, noisy.fprs),
            "bits_per_key": ideal.objective / self.size.plan_keys,
        }
        return errors, quality


def ideal_histogram(size: Size):
    return distribution.zipfian_distribution(
        distribution.SyntheticSpec(size.plan_segments, size.plan_keys, size.plan_nonkeys)
    )


def noisy_histogram(ideal, samples: int, seed: int):
    """Histogram of ``samples`` keys and as many non-keys drawn from ``ideal``.

    These are the counts ``sample_records`` draws before it makes records,
    normalized as ``segment_scores`` would; the records themselves are never
    needed.  Sampling noise makes the histogram non-ideal.
    """
    rng = np.random.default_rng(seed)
    keys = rng.multinomial(samples, ideal.g / ideal.g.sum())
    nonkeys = rng.multinomial(samples, ideal.h / ideal.h.sum())
    return distribution.SegmentedDistribution.from_masses(
        keys / samples, nonkeys / samples, samples, normalize=False
    )


def _planner_workload(algorithm: str) -> type:
    name = f"plan-{algorithm}-n4000"
    # fastpp's DP and sweep are interpreted loops; the others are array code
    reference = "python" if algorithm == "fastpp" else None
    return type(name, (Plan,), {"name": name, "algorithm": algorithm, "reference": reference})


WORKLOADS = {
    wl.name: wl
    for wl in (Pipeline, *map(_planner_workload, ("fast", "fastpp", "relaxed")), Query)
}


def pin_errors(workload: str, profile: str, seed: int, summary: dict) -> list[str]:
    """At the default seed, every digest pinned for the workload must match."""
    if seed != DEFAULT_SEED:
        return []
    pinned = PINS[profile]["default_seed"].get(workload)
    if pinned is None:
        return [f"no digests pinned for {workload} at seed {DEFAULT_SEED}"]
    return [
        f"{key} differs from the digest pinned for seed {DEFAULT_SEED}"
        for key, digest in pinned.items()
        if summary.get(key) != digest
    ]
