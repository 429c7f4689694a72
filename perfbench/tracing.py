"""Per-layer tracing of plbf, installed from outside the package.

``installed(tracer)`` replaces the module and class attributes of ``plbf``
that the CLI, the optimizer and the benchmark's own loop look up at call
time, so no file under ``src/`` changes.  Coarse calls (a command, a solve,
a table, a file) are recorded as spans: name, start, end, parent span and
operation id.  Per-element calls (Bloom insert and contains, filter queries,
transition-matrix entries, rate solves) are kept only as a count and a total
time, so memory stays bounded however many elements a run touches.  Every
wrapper charges its duration to its caller, which gives each layer's self
time: its own time minus the time of the calls it made into other wrappers.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict

LAYERS = ("cli", "distribution", "dp", "optimizer", "bloom", "filters")
ALGORITHMS = ("fast", "fastpp", "relaxed")

# Every per-layer metric with its unit.  Times and counts are per timed
# operation, except filters.load_filter.s on query-200k, which is the one
# load of its set-up.
PER_LAYER = (
    [(f"{layer}.self_s", "s") for layer in LAYERS]
    + [
        ("cli.build.self_s", "s"),
        ("cli.query.self_s", "s"),
        ("distribution.read_records_csv.s", "s"),
        ("distribution.read_records_csv.rows", "count"),
        ("distribution.segment_scores.s", "s"),
    ]
    + [
        (f"optimizer.{what}.{algo}", unit)
        for algo in ALGORITHMS
        for what, unit in (
            ("solve.s", "s"), ("dp.s", "s"), ("sweep.s", "s"),
            ("rate_solves", "count"), ("rate_solve.s", "s"),
        )
    ]
    + [
        ("dp.row_maxima.s", "s"),
        ("dp.transition_evals", "count"),
        ("bloom.insert.calls", "count"),
        ("bloom.insert.s", "s"),
        ("bloom.contains.calls", "count"),
        ("bloom.contains.s", "s"),
        ("filters.build_filter.s", "s"),
        ("filters.save.s", "s"),
        ("filters.load_filter.s", "s"),
        ("filters.query.calls", "count"),
        ("filters.query.s", "s"),
        ("filters.query.hashed_share", "ratio"),
        ("trace.untraced_op_s", "s"),
        ("trace.traced_op_s", "s"),
        ("trace.overhead_s", "s"),
        ("trace.uncovered_s", "s"),
        ("trace.ref_s", "s"),
    ]
)


class Tracer:
    """Call statistics by name, spans of coarse calls, and derived figures.

    ``figures`` holds what a plain call count cannot give: per-planner
    totals and the rows ``read_records_csv`` returned.
    """

    def __init__(self) -> None:
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # name -> calls, total s, self s
        self.figures = defaultdict(float)
        self.spans = []  # [name, start, end, parent span index or -1, op id]
        self.op = None
        self.algorithm = None
        self._stack = []  # frames: [start, time of traced callees, span index or -1]

    def reset(self) -> None:
        """Forget the statistics gathered so far; spans are kept."""
        for stat in self.stats.values():
            stat[:] = [0, 0.0, 0.0]
        self.figures.clear()

    def wrap(self, name: str, fn, span: bool):
        stats = self.stats
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        if span:
            def traced(*args, **kwargs):
                parent = next((f[2] for f in reversed(stack) if f[2] >= 0), -1)
                spans.append([name, 0.0, 0.0, parent, self.op])
                frame = [clock(), 0.0, len(spans) - 1]
                stack.append(frame)
                try:
                    return fn(*args, **kwargs)
                finally:
                    end = clock()
                    _close(stats[name], stack, frame, end)
                    spans[frame[2]][1:3] = frame[0], end
        else:
            def traced(*args, **kwargs):
                frame = [clock(), 0.0, -1]
                stack.append(frame)
                try:
                    return fn(*args, **kwargs)
                finally:
                    _close(stats[name], stack, frame, clock())

        return functools.wraps(fn)(traced)

    def wrap_solve(self, fn):
        """solve_timed: the planner's total plus the DP/sweep split it reports."""
        traced = self.wrap("optimizer.solve", fn, span=True)
        total = self.stats["optimizer.solve"]
        figures = self.figures

        @functools.wraps(fn)
        def solve_timed(dist, config):
            before, outer = total[1], self.algorithm
            self.algorithm = algo = config.algorithm
            try:
                plan, stats = traced(dist, config)
            finally:
                self.algorithm = outer
            figures[f"optimizer.solve.s.{algo}"] += total[1] - before
            figures[f"optimizer.dp.s.{algo}"] += stats.dp_seconds
            figures[f"optimizer.sweep.s.{algo}"] += stats.sweep_seconds
            return plan, stats

        return solve_timed

    def wrap_rate_solve(self, fn):
        """Closed-form rate solves, counted under the planner that asked for them."""
        traced = self.wrap("optimizer.rate_solve", fn, span=False)
        total = self.stats["optimizer.rate_solve"]
        figures = self.figures

        @functools.wraps(fn)
        def rate_solve(*args, **kwargs):
            before = total[1]
            try:
                return traced(*args, **kwargs)
            finally:
                figures[f"optimizer.rate_solves.{self.algorithm}"] += 1
                figures[f"optimizer.rate_solve.s.{self.algorithm}"] += total[1] - before

        return rate_solve

    def wrap_read_records(self, fn):
        traced = self.wrap("distribution.read_records_csv", fn, span=True)

        @functools.wraps(fn)
        def read_records_csv(*args, **kwargs):
            records = traced(*args, **kwargs)
            self.figures["distribution.read_records_csv.rows"] += len(records)
            return records

        return read_records_csv

    def per_layer(self, n_ops: int, untraced_op_s: float, traced_op_s: float,
                  setup_load_s: float | None = None) -> dict[str, float]:
        """Every metric of PER_LAYER, per operation."""
        def total(name, field=1):
            return self.stats[name][field] if name in self.stats else 0.0

        layer_self = {layer: 0.0 for layer in LAYERS}
        for name, (_calls, _total, self_s) in self.stats.items():
            layer_self[name.split(".")[0]] += self_s
        values = {f"{layer}.self_s": s for layer, s in layer_self.items()}
        values.update({
            "cli.build.self_s": total("cli.build", 2),
            "cli.query.self_s": total("cli.query", 2),
            "distribution.read_records_csv.s": total("distribution.read_records_csv"),
            "distribution.segment_scores.s": total("distribution.segment_scores"),
            "dp.row_maxima.s": total("dp.row_maxima"),
            "dp.transition_evals": total("dp.transition_eval", 0),
            "bloom.insert.calls": total("bloom.insert", 0),
            "bloom.insert.s": total("bloom.insert"),
            "bloom.contains.calls": total("bloom.contains", 0),
            "bloom.contains.s": total("bloom.contains"),
            "filters.build_filter.s": total("filters.build_filter"),
            "filters.save.s": total("filters.save"),
            "filters.load_filter.s": total("filters.load_filter"),
            "filters.query.calls": total("filters.query", 0),
            "filters.query.s": total("filters.query"),
        })
        values.update(self.figures)
        values = {name: values.get(name, 0.0) / n_ops for name, _unit in PER_LAYER}
        if setup_load_s is not None:
            values["filters.load_filter.s"] = setup_load_s
        queries = values["filters.query.calls"]
        values["filters.query.hashed_share"] = (
            values["bloom.contains.calls"] / queries if queries else 0.0
        )
        covered = sum(layer_self.values()) / n_ops
        values["trace.untraced_op_s"] = untraced_op_s
        values["trace.traced_op_s"] = traced_op_s
        values["trace.overhead_s"] = traced_op_s - untraced_op_s
        values["trace.uncovered_s"] = traced_op_s - covered
        return values


def _close(stat, stack, frame, end) -> None:
    stack.pop()
    took = end - frame[0]
    stat[0] += 1
    stat[1] += took
    stat[2] += took - frame[1]
    if stack:
        stack[-1][1] += took


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Patch plbf so that every traced call goes through ``tracer``; undo on exit."""
    from plbf import bloom, cli, distribution, dp, filters, optimizer

    wrap = tracer.wrap
    patches = [
        ((cli,), "cmd_build", lambda f: wrap("cli.build", f, True)),
        ((cli,), "cmd_query", lambda f: wrap("cli.query", f, True)),
        ((cli, distribution), "read_records_csv", tracer.wrap_read_records),
        ((cli, distribution), "segment_scores",
         lambda f: wrap("distribution.segment_scores", f, True)),
        ((cli, optimizer), "solve_timed", tracer.wrap_solve),
        ((optimizer,), "optimal_fprs_for_fpr", tracer.wrap_rate_solve),
        ((optimizer,), "optimal_fprs_for_memory", tracer.wrap_rate_solve),
        ((optimizer, dp), "divergence_table",
         lambda f: wrap("dp.divergence_table", f, True)),
        ((optimizer, dp), "divergence_table_monotone",
         lambda f: wrap("dp.divergence_table_monotone", f, True)),
        ((dp,), "monotone_row_maxima", lambda f: wrap("dp.row_maxima", f, True)),
        # relaxed builds its table here directly; fast builds through it too
        ((dp._TableBuilder,), "build", lambda f: wrap("dp.table_build", f, True)),
        ((dp.TransitionMatrix,), "value", lambda f: wrap("dp.transition_eval", f, False)),
        ((bloom.BloomFilter,), "insert", lambda f: wrap("bloom.insert", f, False)),
        ((bloom.BloomFilter,), "contains", lambda f: wrap("bloom.contains", f, False)),
        ((cli, filters), "build_filter", lambda f: wrap("filters.build_filter", f, True)),
        ((cli, filters), "load_filter", lambda f: wrap("filters.load_filter", f, True)),
        ((filters.PlbfFilter,), "save", lambda f: wrap("filters.save", f, True)),
        ((filters.PlbfFilter,), "query", lambda f: wrap("filters.query", f, False)),
    ]
    saved = []
    try:
        for owners, attr, make in patches:
            original = getattr(owners[0], attr)
            replacement = make(original)
            for owner in owners:
                saved.append((owner, attr, getattr(owner, attr)))
                setattr(owner, attr, replacement)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
