"""Property tests over sparse, skewed histograms.

Masses are ``u ** p`` with p up to 30, and a share of them is zeroed, so
inputs mix near-empty, empty and dominant segments: the shapes where
floored masses and prefix-sum cancellation used to crash the planners.
Runs are derandomized so the suite stays deterministic.
"""

import dataclasses
import tempfile
from fractions import Fraction
from functools import cache
from math import isnan
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from plbf import (
    ALGORITHMS,
    LOG2_E,
    BuildConfig,
    DPTable,
    InfeasibleError,
    SegmentedDistribution,
    SyntheticSpec,
    ValidationError,
    apply_swaps,
    bloom_memory_bits,
    build_filter,
    divergence,
    divergence_table,
    divergence_table_monotone,
    ensure_positive_masses,
    expected_fpr,
    load_filter,
    optimal_fprs_for_fpr,
    optimal_fprs_for_memory,
    planning_table,
    sample_records,
    segment_scores,
    solve,
    trace_layouts,
    zipfian_distribution,
)
from plbf import optimizer
from plbf.dp import NEG_INF, _TableBuilder

PROPERTY_SETTINGS = settings(max_examples=120, deadline=None, derandomize=True, database=None)


@st.composite
def sparse_skewed_masses(draw, n, zero_share):
    p = draw(st.floats(1.0, 30.0))
    entries = draw(st.lists(
        st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)), min_size=n, max_size=n,
    ))
    return [0.0 if z < zero_share else u**p for u, z in entries]


@st.composite
def planning_inputs(draw, max_segments=40):
    n = draw(st.integers(3, max_segments))
    g = draw(sparse_skewed_masses(n, 0.4))
    h = draw(sparse_skewed_masses(n, 0.3))
    assume(sum(g) > 0 and sum(h) > 0)
    return {
        "g": g,
        "h": h,
        "n_regions": draw(st.integers(2, n - 1)),
        "n_keys": draw(st.integers(1, 10**6)),
        "target_fpr": draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
        "memory_bits": draw(st.floats(0.0, exclude_min=True)),
        "spelling": {
            "n_segments": draw(st.sampled_from(list(COUNT_SPELLINGS))),
            "n_regions": draw(st.sampled_from(list(COUNT_SPELLINGS))),
            "budget": draw(st.sampled_from(list(BUDGET_SPELLINGS))),
        },
    }


def configs(case, n_segments):
    for algo in ALGORITHMS:
        base = dict(n_segments=n_segments, n_regions=case["n_regions"], algorithm=algo)
        yield BuildConfig("fpr", target_fpr=case["target_fpr"], **base)
        yield BuildConfig("memory", memory_bits=case["memory_bits"], **base)


# ways to write a count or a budget; BuildConfig takes the integer counts
# and the real budgets and stores them as ints and floats
COUNT_SPELLINGS = {
    "int": int,
    "numpy int64": np.int64,
    "numpy uint16": np.uint16,
    "integral float": float,
    "fractional float": lambda n: n + 0.5,
    "bool": lambda n: n % 2 == 1,
    "string": str,
}
INTEGER_SPELLINGS = ("int", "numpy int64", "numpy uint16")
BUDGET_SPELLINGS = ("float", "fraction", "string", "both budgets")
REAL_SPELLINGS = ("float", "fraction")


def spelled(config, case):
    """``config``'s fields with its counts and budget written as ``case`` draws them."""
    spelling = case["spelling"]
    fields = dataclasses.asdict(config)
    for name in ("n_segments", "n_regions"):
        fields[name] = COUNT_SPELLINGS[spelling[name]](fields[name])
    budget = "target_fpr" if config.framework == "fpr" else "memory_bits"
    if spelling["budget"] == "fraction":
        fields[budget] = Fraction(fields[budget])
    elif spelling["budget"] == "string":
        fields[budget] = str(fields[budget])
    elif spelling["budget"] == "both budgets":
        fields.update(target_fpr=case["target_fpr"], memory_bits=case["memory_bits"])
    return fields


@PROPERTY_SETTINGS
@given(case=planning_inputs())
def test_accepted_input_gets_a_plan_or_infeasible_error(case):
    # every spelling is refused when the config is built, or plans as the
    # plain config does: no other exception escapes
    spelling = case["spelling"]
    accepted = (spelling["n_segments"] in INTEGER_SPELLINGS
                and spelling["n_regions"] in INTEGER_SPELLINGS
                and spelling["budget"] in REAL_SPELLINGS)
    d = SegmentedDistribution.from_masses(case["g"], case["h"], n_keys=case["n_keys"])
    for plain in configs(case, d.n_segments):
        try:
            config = BuildConfig(**spelled(plain, case))
        except ValidationError:
            assert not accepted, spelling
            config = plain
        try:
            plan = solve(d, config)
        except InfeasibleError:
            plan = None
        # the reprs match only if the counts are stored as ints, the budget as a float
        assert repr(config) == repr(plain), spelling
        if plan is not None:
            assert plan.n_regions == config.n_regions
            assert plan.n_segments == d.n_segments


@PROPERTY_SETTINGS
@given(case=planning_inputs())
def test_per_start_tables_are_windows_of_the_full_table(case):
    # plbf re-plans every start j from a j-row table and must agree with fast,
    # which traces the same start in the first j rows of one N-row table
    raw = SegmentedDistribution.from_masses(case["g"], case["h"], n_keys=case["n_keys"])
    k = case["n_regions"]
    for d in (raw, ensure_positive_masses(raw)):
        full = divergence_table(d, k)
        builder = _TableBuilder(d)
        for j in range(k, d.n_segments + 1):
            table = builder.build(j, k)
            assert table.values.tobytes() == full.values[:j].tobytes()
            assert table.parents.tobytes() == full.parents[:j].tobytes()


# masses from the subnormal to near the top of float64: regions score 0,
# +-inf and finite divergences, and prefix sums cancel
MASS_POOL = [0.0, 5e-324, 1e-310, 1e-300, 1e-20, 1.0, 1e20, 1e300]


@st.composite
def extreme_histograms(draw):
    n = draw(st.integers(3, 12))
    g = draw(st.lists(st.sampled_from(MASS_POOL), min_size=n, max_size=n))
    h = draw(st.lists(st.sampled_from(MASS_POOL), min_size=n, max_size=n))
    if draw(st.booleans()):  # ideal: G / H never falls from one segment to the next
        g.sort()
        h.sort(reverse=True)
    return g, h, draw(st.integers(2, n - 1))


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
# segment 1 alone scores +inf and segment 2 alone -inf: the candidate that
# extends the one prefix by the other sums the two
@example(case=([1e-300, 1e-300, 1, 1, 1], [0, 1e300, 1, 1, 1], 3))
@given(case=extreme_histograms())
def test_both_builders_follow_one_candidate_rule(case):
    # Both builders sum every candidate and make +inf plus -inf -inf, so
    # neither table holds NaN or warns, and the row-maxima table never rises
    # above the exhaustive one.  On ideal draws the two are not always equal
    # byte for byte: a segment mass below one ULP of its prefix sum drops out
    # of the region masses, so a candidate matrix need not be monotone.
    # Equality there waits for exact region masses (ROADMAP direction 8).
    g, h, k = case
    d = SegmentedDistribution.from_masses(g, h, n_keys=10, normalize=False)
    fast, fastpp = divergence_table(d, k), divergence_table_monotone(d, k)
    for table in (fast, fastpp):
        assert not np.isnan(table.values).any()
        # column 0 is the empty clustering's: no region, so no parent
        unreachable = table.values[:, 1:] == NEG_INF
        assert ((table.parents[:, 1:] == -1) == unreachable).all()
    assert (fastpp.values <= fast.values).all()


def one_walk(table, boundary_segment, n_regions):
    """Region ends of one start's clustering, read one parent at a time.

    The scalar walk the batched ``trace_layouts`` replaced, kept as its
    reference: ``n_regions - 1`` ascending 1-based segment indices, the last
    of which is ``boundary_segment - 1``.  The start's cell must be reachable.
    """
    p, q = boundary_segment - 1, n_regions - 1
    assert table.values[p, q] != NEG_INF
    ends = []
    while q >= 1:
        ends.append(p)
        start = int(table.parents[p, q])
        assert 1 <= start <= p
        p = start - 1
        q -= 1
    assert p == 0
    ends.reverse()
    return ends


@PROPERTY_SETTINGS
@given(case=planning_inputs())
def test_traced_layouts_match_one_walk_per_start(case):
    # every start is traced; the unreachable ones get no row
    raw = SegmentedDistribution.from_masses(case["g"], case["h"], n_keys=case["n_keys"])
    k = case["n_regions"]
    for d in (raw, ensure_positive_masses(raw)):
        for table in (divergence_table(d, k), divergence_table_monotone(d, k)):
            starts = range(k, d.n_segments + 1)
            reachable = [j for j in starts if table.values[j - 1, k - 1] != NEG_INF]
            layouts = trace_layouts(table, starts, k).tolist()
            assert layouts == [[0, *one_walk(table, j, k), d.n_segments] for j in reachable]


@PROPERTY_SETTINGS
@given(case=planning_inputs(max_segments=60))
def test_planning_table_traces_back_to_the_plan(case):
    # the table --dump-dp writes is the one each planner traced: walking it
    # back from the plan's final-region start gives the plan's boundaries
    d = SegmentedDistribution.from_masses(case["g"], case["h"], n_keys=case["n_keys"])
    k = case["n_regions"]
    for config in configs(case, d.n_segments):
        try:
            plan = solve(d, config)
        except InfeasibleError:
            continue
        start = plan.boundaries[-2] + 1
        layouts = trace_layouts(planning_table(d, config), [start], k)
        assert layouts.tolist() == [list(plan.boundaries)], config


def relaxed_start_reference(floored, table, k):
    """The first start s in k..n with the largest sum of table entry
    (s-1, k-1) and the divergence of segments s..n, summed as Python floats
    with NaN read as -inf."""
    n = floored.n_segments
    totals = []
    for s in range(k, n + 1):
        total = float(table.values[s - 1, k - 1]) + divergence(floored, s, n)
        totals.append(NEG_INF if isnan(total) else total)
    return k + totals.index(max(totals))


@PROPERTY_SETTINGS
# every region scores 0: all starts tie, and the smallest wins
@example(case=dict(g=[1.0] * 8, h=[1.0] * 8, n_regions=3, n_keys=64, target_fpr=0.25))
# segments 2..5 have no non-key mass left after cancellation: the final
# regions from starts 3, 4 and 5 score +inf, and 3 wins; start 2's +inf
# region over its -inf prefix sums to NaN, which must lose
@example(case=dict(
    g=[1.0] * 5, h=[1.0, 1e-20, 1e-20, 1e-20, 1e-20], n_regions=3, n_keys=50, target_fpr=0.1,
))
@given(case=planning_inputs())
def test_relaxed_start_matches_a_scalar_reference(case):
    # relaxed traces the one start the reference picks, ties to the smallest.
    # Starts below k have a -inf prefix in the table; floored masses leave no
    # longer prefix unreachable, so the reference's best is never -inf
    d = SegmentedDistribution.from_masses(case["g"], case["h"], n_keys=case["n_keys"])
    k = case["n_regions"]
    config = BuildConfig(
        "fpr", d.n_segments, k, algorithm="relaxed", target_fpr=case["target_fpr"]
    )
    start = relaxed_start_reference(ensure_positive_masses(d), planning_table(d, config), k)
    traced = []

    def spy(table, starts, n_regions):
        traced.append(np.asarray(starts).tolist())
        return trace_layouts(table, starts, n_regions)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(optimizer, "trace_layouts", spy)
        try:
            solve(d, config)
        except InfeasibleError:
            pass
    assert traced == [[start]]


def mostly_inside(lo, hi):
    """Integers in lo..hi, and rarely one just outside."""
    return st.sampled_from([*range(lo, hi + 1)] * 4 + [lo - 1, hi + 1])


@st.composite
def hand_made_tables(draw):
    """Tables with arbitrary -inf cells and parents, and a trace request on them."""
    n_rows, n_cols = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    cells = n_rows * n_cols
    values = draw(st.lists(st.sampled_from([0.0, 0.0, NEG_INF]), min_size=cells, max_size=cells))
    # the parent of a cell in row p is valid in 1..p
    parents = [draw(mostly_inside(1, p)) for p in range(n_rows) for _ in range(n_cols)]
    table = DPTable(
        np.array(values).reshape(n_rows, n_cols),
        np.array(parents, dtype=np.int32).reshape(n_rows, n_cols),
    )
    starts = draw(st.lists(mostly_inside(1, n_rows), min_size=1, max_size=3))
    return table, starts, draw(mostly_inside(1, n_cols))


@PROPERTY_SETTINGS
@given(request=hand_made_tables())
def test_walk_on_any_table_raises_or_yields_clusterings(request):
    # a malformed table raises a planning error; whatever the walk returns
    # is a clustering that rises strictly from 0 to n_rows, one per
    # reachable start, in the order of the starts
    table, starts, k = request
    try:
        bounds = trace_layouts(table, starts, k)
    except (ValidationError, InfeasibleError):
        return
    assert bounds.shape[1] == k + 1
    assert (bounds[:, 0] == 0).all() and (bounds[:, -1] == table.n_rows).all()
    assert (np.diff(bounds, axis=1) > 0).all()
    reachable = [j for j in starts if table.values[j - 1, k - 1] != NEG_INF]
    assert (bounds[:, -2] + 1).tolist() == reachable


@PROPERTY_SETTINGS
@given(case=planning_inputs())
def test_batched_rates_equal_one_call_per_layout(case):
    # the layouts a sweep rate-solves: every reachable start of the table;
    # each batch row must be the one-layout result to the bit, and NaN
    # exactly where the one-layout call raises
    d = ensure_positive_masses(
        SegmentedDistribution.from_masses(case["g"], case["h"], n_keys=case["n_keys"])
    )
    k = case["n_regions"]
    table = divergence_table(d, k)
    bounds = trace_layouts(table, range(k, d.n_segments + 1), k)
    key_mass, nonkey_mass = np.diff(d.g_prefix[bounds]), np.diff(d.h_prefix[bounds])
    solvable = (key_mass != 0.0).all(axis=1) & (nonkey_mass != 0.0).all(axis=1)
    key_mass, nonkey_mass = key_mass[solvable], nonkey_mass[solvable]
    scaled = LOG2_E * d.n_keys
    solvers = {
        "fpr": lambda gm, hm: optimal_fprs_for_fpr(gm, hm, case["target_fpr"]),
        "memory": lambda gm, hm: optimal_fprs_for_memory(gm, hm, case["memory_bits"], scaled),
    }

    def score(framework, gm, hm, fprs):
        if framework == "fpr":
            return bloom_memory_bits(gm, fprs, scaled)
        return expected_fpr(hm, fprs)

    for framework, rates in solvers.items():
        batch = rates(key_mass, nonkey_mass)
        assert batch.shape == key_mass.shape
        scores = score(framework, key_mass, nonkey_mass, batch)
        for row, (gm, hm) in enumerate(zip(key_mass.tolist(), nonkey_mass.tolist())):
            try:
                one = rates(gm, hm)
            except InfeasibleError:
                assert np.isnan(batch[row]).all(), (framework, row)
                assert np.isnan(scores[row]), (framework, row)
                continue
            assert isinstance(one, list)
            assert np.array(one).tobytes() == batch[row].tobytes(), (framework, row)
            alone = score(framework, gm, hm, one)
            assert np.float64(alone).tobytes() == scores[row].tobytes(), (framework, row)


@PROPERTY_SETTINGS
@given(
    case=planning_inputs(max_segments=20),
    n_keys=st.integers(1, 300),
    n_nonkeys=st.integers(1, 300),
    seed=st.integers(0, 2**64 - 1),
    pick=st.integers(0, 2 * len(ALGORITHMS) - 1),
)
def test_built_filters_hold_their_keys_and_round_trip(case, n_keys, n_nonkeys, seed, pick):
    source = SegmentedDistribution.from_masses(case["g"], case["h"], n_keys=n_keys)
    records = sample_records(source, n_keys, n_nonkeys, seed)
    keys = [rec for rec in records if rec.is_key]
    d = segment_scores(records, source.n_segments)
    # one planner and framework per example: a lavish budget gives every
    # key about a thousand probes, too slow to repeat for all eight
    config = list(configs(case, d.n_segments))[pick]
    try:
        plan = solve(d, config)
    except InfeasibleError:
        return
    filt = build_filter(keys, plan, seed)
    assert all(filt.query(rec.element_id, rec.score) for rec in keys)
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "a.plbf", Path(tmp) / "b.plbf"
        filt.save(first)
        loaded = load_filter(first)
        assert loaded == filt
        loaded.save(second)
        assert first.read_bytes() == second.read_bytes()


@cache
def saved_filter_bytes() -> bytes:
    """A saved filter with stored and empty regions, built once."""
    d = zipfian_distribution(SyntheticSpec(12, 300, 300, n_swaps=3, seed=1))
    plan = solve(d, BuildConfig("fpr", n_segments=12, n_regions=4, target_fpr=0.05))
    keys = [rec for rec in sample_records(d, 300, 0, seed=2) if rec.score >= 0.5]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "f.plbf"
        build_filter(keys, plan, seed=3).save(path)
        return path.read_bytes()


JSON_TEXT = st.text('{}[]",:-+.0123456789eEtruefalsn ', min_size=1, max_size=8)
FILE_EDITS = st.one_of(
    st.tuples(st.just("flip"), st.integers(0), st.integers(0, 7)),
    st.tuples(st.just("truncate"), st.integers(0)),
    st.tuples(st.just("insert"), st.integers(0), st.binary(min_size=1, max_size=8)),
    st.tuples(st.just("overwrite"), st.integers(0), JSON_TEXT.map(str.encode)),
)


def edited(data: bytes, edits) -> bytes:
    out = bytearray(data)
    for kind, where, *arg in edits:
        at = where % (len(out) + 1)
        if kind == "flip":
            if at < len(out):
                out[at] ^= 1 << arg[0]
        elif kind == "truncate":
            del out[at:]
        elif kind == "insert":
            out[at:at] = arg[0]
        else:
            out[at:at + len(arg[0])] = arg[0]
    return bytes(out)


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(edits=st.lists(FILE_EDITS, min_size=1, max_size=3))
def test_corrupt_filter_file_is_rejected_or_round_trips(edits):
    data = edited(saved_filter_bytes(), edits)
    with tempfile.TemporaryDirectory() as tmp:
        path, again = Path(tmp) / "edited.plbf", Path(tmp) / "again.plbf"
        path.write_bytes(data)
        try:
            loaded = load_filter(path)
        except ValidationError:
            return
        loaded.save(again)
        assert again.read_bytes() == data


@st.composite
def candidate_rule_inputs(draw):
    """A sparse, swapped-Zipf or subnormal histogram, with both budgets."""
    kind = draw(st.sampled_from(["sparse", "swapped zipf", "subnormal"]))
    n = draw(st.integers(4, 24))
    if kind == "swapped zipf":
        spec = SyntheticSpec(n, 1000, 1000, zipf_exponent=draw(st.floats(0.3, 2.5)))
        d = apply_swaps(zipfian_distribution(spec), draw(st.integers(0, 3 * n)),
                        seed=draw(st.integers(0, 2**16)))
        g, h = d.g.tolist(), d.h.tolist()
    else:
        if kind == "sparse":  # u**6, about half of them zeroed
            entry = st.tuples(st.floats(0.0, 1.0), st.booleans()).map(
                lambda e: 0.0 if e[1] else e[0] ** 6)
        else:
            entry = st.one_of(st.floats(0.01, 1.0), st.integers(1, 1000).map(lambda m: m * 5e-324))
        g = draw(st.lists(entry, min_size=n, max_size=n))
        h = draw(st.lists(entry, min_size=n, max_size=n))
    assume(sum(g) > 0 and sum(h) > 0)
    n_keys = draw(st.integers(1, 10**6))
    return {
        "g": g,
        "h": h,
        "n_regions": draw(st.integers(2, min(5, n - 1))),
        "n_keys": n_keys,
        "target_fpr": 10 ** draw(st.floats(-12.0, -0.05)),
        # up to thousands of bits per key, where 2**-beta is subnormal
        "memory_bits": n_keys * 10 ** draw(st.floats(-3.0, 3.5)),
    }


def exact_scores(config, scaled, key_mass, nonkey_mass):
    """Every layout's rates and score from the public exact functions."""
    if config.framework == "fpr":
        fprs = optimal_fprs_for_fpr(key_mass, nonkey_mass, config.target_fpr)
        return fprs, bloom_memory_bits(key_mass, fprs, scaled)
    fprs = optimal_fprs_for_memory(key_mass, nonkey_mass, config.memory_bits, scaled)
    return fprs, expected_fpr(nonkey_mass, fprs)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
# 2**-beta is subnormal at 3000 bits per key, so every layout ranks NaN
@example(case=dict(g=[1, 2, 3, 4, 5, 6, 7, 8], h=[8, 7, 6, 5, 4, 3, 2, 1], n_regions=3,
                   n_keys=100, target_fpr=0.01, memory_bits=3e5))
# every layout clamps all its key mass: all infeasible under both budgets
@example(case=dict(g=[1, 0, 0, 0], h=[0, 0, 0, 1], n_regions=3, n_keys=1000,
                   target_fpr=1e-12, memory_bits=1e-8))
@given(case=candidate_rule_inputs())
def test_sweep_picks_the_all_exact_argmin(case):
    # The sweep ranks layouts with numpy's log2 and exp2 and settles only the
    # near-best exactly; its plan or error must be the one that scoring every
    # layout exactly gives: the lowest score, ties to the first layout.
    d = SegmentedDistribution.from_masses(case["g"], case["h"], n_keys=case["n_keys"])
    batches = []
    settle = optimizer._settled_winner

    def spy(config, scaled, key_mass, nonkey_mass):
        batches.append((config, scaled, key_mass, nonkey_mass))
        return settle(config, scaled, key_mass, nonkey_mass)

    with mock.patch.object(optimizer, "_settled_winner", spy):
        for config in configs(case, d.n_segments):
            batches.clear()
            try:
                plan, error = solve(d, config), None
            except InfeasibleError as exc:
                plan, error = None, str(exc)
            [(_, scaled, key_mass, nonkey_mass)] = batches
            fprs, scores = exact_scores(config, scaled, key_mass, nonkey_mass)
            ranked, _ = optimizer._ranked_scores(config, scaled, key_mass, nonkey_mass)
            both = ~np.isnan(ranked) & ~np.isnan(scores)
            slack = config.n_regions * optimizer.RANK_RTOL * scores + optimizer.RANK_ATOL
            assert (np.abs(ranked - scores) <= slack)[both].all(), config
            feasible = np.flatnonzero(~np.isnan(scores))
            if not feasible.size:
                assert plan is None, config
                if len(key_mass):
                    with pytest.raises(InfeasibleError) as first:
                        exact_scores(config, scaled, key_mass[0], nonkey_mass[0])
                    assert error == str(first.value), config
                else:
                    assert error == "no feasible region layout", config
                continue
            best = feasible[np.argmin(scores[feasible])]
            assert error is None, config
            assert plan.fprs == tuple(fprs[best].tolist()), config
            assert plan.objective == float(scores[best]), config
            assert plan.key_mass == tuple(key_mass[best].tolist()), config
            assert plan.nonkey_mass == tuple(nonkey_mass[best].tolist()), config
