"""The measured process of one benchmark run.

``run.py`` starts this script in a fresh, single-threaded interpreter, so
``import plbf`` is timed cold.  With ``--setup-probe`` it only times set-up
(``import plbf`` plus the workload's own set-up) and prints it.  Otherwise it
times set-up, loads the prepared inputs, and performs timed operations for
``--seconds``; with ``--trace 1`` the first half runs plain and the second
half through the tracer, and the difference is the tracing overhead.  It
prints one JSON line with the operation times, the failures, the quality
figures and the digests of the outputs.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

MIN_OPS = 3
MAX_ERRORS = 20


class Reference:
    """Fixed interpreted work whose time tracks the machine's speed.

    On a shared machine the same Python loop can take twice as long for
    seconds or minutes at a time, and a 20 s run can fall mostly in a slow
    or a fast stretch.  Interpreted code suffers most, so for workloads that
    are mostly interpreted loops this reference (BLAKE2b digests in a Python
    loop, like plbf's per-element paths, about 80 ms: shorter ones jitter
    enough to add noise of their own) is timed between the stages of each
    operation, and the operation's time is divided by it.  The planners'
    array code follows no such loop; their reference is one second of wall
    time.
    It runs with the collector off so that the workload's live heap does
    not slow it.
    """

    def __init__(self, kind: str | None) -> None:
        self.keys = [b"ref%d" % i for i in range(80_000)] if kind == "python" else None

    def __call__(self) -> float:
        if self.keys is None:
            return 1.0
        blake2b = hashlib.blake2b
        gc.disable()
        try:
            started = time.perf_counter()
            for key in self.keys:
                blake2b(key, digest_size=16).digest()
            return time.perf_counter() - started
        finally:
            gc.enable()


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--work", required=True, type=Path, help="prepared input directory")
    parser.add_argument("--profile", default="full")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", type=Path, help="where to write the spans")
    parser.add_argument("--setup-probe", action="store_true")
    return parser.parse_args(argv)


def timed_setup(workload: str, work: Path):
    """Seconds for ``import plbf`` plus the workload's set-up, and its result."""
    started = time.perf_counter()
    import plbf  # noqa: F401 - importing is the set-up being timed
    imported = time.perf_counter()
    import workloads  # the benchmark's own code, not timed

    cls = workloads.WORKLOADS[workload]
    resumed = time.perf_counter()
    state = cls.setup(work)
    return (imported - started) + (time.perf_counter() - resumed), cls, state


class Loop:
    """Timed operations of one run, each checked against the first one's outputs."""

    def __init__(self, workload, args) -> None:
        import workloads

        self.workload = workload
        self.args = args
        self.pin_errors = workloads.pin_errors
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.first = None
        self.first_ok = False
        self.quality: dict = {}
        self.reference = Reference(workload.reference)
        self.ref_times: list[float] = []

    def phase(self, seconds: float, tracer=None) -> tuple[list[float], list[float]]:
        """Run operations until the next one would end past ``seconds``.

        Returns each operation's time, the sum of its stages' times, and that
        time divided by the mean of the reference times taken just before
        it, between its stages and just after it.
        """
        times: list[float] = []
        ratios: list[float] = []
        refs = [self.reference()]
        started = time.perf_counter()
        ran = 0
        while ran < MIN_OPS or (
            time.perf_counter() - started + (times[-1] if times else 0.0) <= seconds
        ):
            ran += 1
            gc.collect()
            self.attempted += 1
            if tracer is not None:
                tracer.op = self.attempted
            took = 0.0
            results = []
            try:
                for stage in self.workload.stages:
                    t0 = time.perf_counter()
                    results.append(stage())
                    took += time.perf_counter() - t0
                    refs.append(self.reference())
            except (Exception, SystemExit) as exc:
                self._fail([f"operation {self.attempted} raised {exc!r}"])
                refs = refs[-1:]
                continue
            times.append(took)
            ratios.append(took / statistics.fmean(refs))
            self.ref_times.extend(refs[1:])
            refs = refs[-1:]
            self._fail(self._check(tuple(results)))
        return times, ratios

    def _check(self, result) -> list[str]:
        try:
            summary = self.workload.summarize(result)
            if self.first is None:
                errors, self.quality = self.workload.check(summary)
                errors += self.pin_errors(self.args.workload, self.args.profile,
                                          self.args.seed, summary)
                self.first, self.first_ok = summary, not errors
                return errors
        except Exception as exc:
            return [f"checking operation {self.attempted} raised {exc!r}"]
        if summary != self.first:
            return [f"operation {self.attempted} output differs from the first operation's"]
        if not self.first_ok:
            return ["later operations repeat the first operation's failed output"]
        return []

    def _fail(self, errors: list[str]) -> None:
        if errors:
            self.failed += 1
            new = [e for e in errors if e not in self.errors]
            self.errors.extend(new[: MAX_ERRORS - len(self.errors)])


def measure(args) -> dict:
    setup_s, cls, state = timed_setup(args.workload, args.work)
    import workloads

    workload = cls(args.work, workloads.SIZES[args.profile], args.seed, state)
    loop = Loop(workload, args)
    seconds = args.seconds / 2 if args.trace else args.seconds
    op_times, op_ratios = loop.phase(seconds)
    out = {"setup_s": setup_s, "op_s": op_times, "op_ref": op_ratios}
    if args.trace:
        out["per_layer"] = traced_phase(args, cls, loop, seconds, op_times)
        out["per_layer"]["trace.ref_s"] = statistics.median(loop.ref_times)
    out.update(
        attempted=loop.attempted,
        failed=loop.failed,
        errors=loop.errors,
        quality=loop.quality,
        digests=loop.first,
        peak_rss_mb=peak_rss_mb(),
    )
    return out


def peak_rss_mb() -> float:
    """The most resident memory this process has held since it started.

    Read from ``VmHWM`` where there is one: Linux's ``ru_maxrss`` carries
    over, through the exec, the memory of the parent the process was forked
    from, here ``run.py`` holding the inputs it prepared.
    """
    try:
        with open("/proc/self/status", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def traced_phase(args, cls, loop: Loop, seconds: float, untraced: list[float]) -> dict:
    import tracing

    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        tracer.op = "setup"
        cls.setup(args.work)
        load = tracer.stats.get("filters.load_filter")
        setup_load_s = load[1] if load else None
        tracer.reset()
        traced, _ratios = loop.phase(seconds, tracer)
    if args.trace_out is not None:
        args.trace_out.parent.mkdir(parents=True, exist_ok=True)
        doc = {"workload": args.workload, "seed": args.seed,
               "fields": ["name", "start", "end", "parent", "op"], "spans": tracer.spans}
        args.trace_out.write_text(json.dumps(doc))
    if not (traced and untraced):
        return {}
    return tracer.per_layer(
        len(traced), statistics.fmean(untraced), statistics.fmean(traced), setup_load_s
    )


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        setup_s, _cls, _state = timed_setup(args.workload, args.work)
        print(json.dumps({"setup_s": setup_s}))
        return 0
    try:
        out = measure(args)
    except Exception as exc:
        out = {"attempted": 1, "failed": 1, "errors": [f"the measured process raised {exc!r}"]}
    print(json.dumps(out))
    return 0 if out["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
