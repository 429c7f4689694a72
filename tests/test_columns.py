"""Columns against records: the array path must match a per-record reference.

``segment_scores`` and ``build_filter`` work on :class:`ScoreColumns`; here
their results are compared with histograms and filters built one record at
a time, on scores that sit at 0, at 1 and on or next to the bin edges.
The synthetic generators and ``write_records_csv`` must give the records
and the file bytes of a per-record generator and writer.
``read_records_csv`` must round-trip ids that need quoting and report the
first bad row of a file at the line the csv module counts, however many
lines the quoted ids before it span.  Runs are derandomized so the suite
stays deterministic.
"""

import csv
import io
import math
import re
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from plbf import (
    BloomFilter,
    PlbfFilter,
    RegionPlan,
    ScoreColumns,
    ScoreRecord,
    SyntheticSpec,
    ValidationError,
    build_filter,
    read_records_csv,
    region_seed,
    sample_records,
    segment_index,
    segment_scores,
    synthesize_records,
    write_records_csv,
    zipfian_distribution,
)
from plbf.distribution import CSV_HEADER, _apportion, _fill_segments, _swap_adjacent, _zipf_base

PROPERTY_SETTINGS = settings(max_examples=120, deadline=None, derandomize=True, database=None)

# ids mix plain characters with every character that forces csv quoting
ID_TEXT = st.text(st.sampled_from('ab7é,"\n\r'), max_size=6)


def edge_scores(n):
    """Scores at 0, at 1, on a bin edge k/n or a float away from it, or anywhere."""
    edge = st.integers(0, n).map(lambda k: k / n)
    return st.one_of(
        st.sampled_from([0.0, 1.0, math.nextafter(1.0, 0.0)]),
        edge,
        edge.map(lambda x: math.nextafter(x, 0.0)).filter(lambda x: x >= 0.0),
        edge.map(lambda x: math.nextafter(x, 1.0)).filter(lambda x: x <= 1.0),
        st.floats(0.0, 1.0),
    )


@st.composite
def scored_records(draw, n):
    labelled = draw(st.lists(st.tuples(edge_scores(n), st.booleans()), min_size=1, max_size=60))
    return [ScoreRecord(f"r{i}", score, is_key) for i, (score, is_key) in enumerate(labelled)]


@st.composite
def region_plans(draw, n):
    """A plan over ``n`` segments whose rates include 1 now and then."""
    k = draw(st.integers(1, min(n, 5)))
    inner = draw(st.lists(st.integers(1, n - 1), min_size=k - 1, max_size=k - 1, unique=True))
    fprs = draw(st.lists(
        st.one_of(st.just(1.0), st.floats(0.001, 0.5)), min_size=k, max_size=k,
    ))
    return RegionPlan(
        n_regions=k, boundaries=(0, *sorted(inner), n), fprs=tuple(fprs),
        key_mass=(1.0 / k,) * k, nonkey_mass=(1.0 / k,) * k, objective=1.0,
        framework="fpr", algorithm="fast",
    )


def reference_filter(records, plan, seed):
    """``build_filter`` one record at a time: segment, then region, then insert."""
    groups = [[] for _ in range(plan.n_regions)]
    for rec in records:
        seg = segment_index(rec.score, plan.n_segments)
        groups[bisect_right(plan.boundaries, seg) - 1].append(rec.element_id)
    filters = []
    for r, ids in enumerate(groups):
        if plan.fprs[r] >= 1.0 or not ids:
            filters.append(None)
            continue
        filt = BloomFilter.for_capacity(len(ids), plan.fprs[r], region_seed(seed, r))
        for element_id in ids:
            filt.insert(element_id)
        filters.append(filt)
    return PlbfFilter(plan, tuple(filters), seed)


def per_record_fill(rng, counts, n_segments, is_key, prefix):
    """``_fill_segments`` one record at a time, one ``rng.random`` call per segment.

    Its nudge only steps toward 0, which never ends for a score that rounds
    below its bin; with 2 to 13 segments no bin edge rounds that way.
    """
    records = []
    serial = 0
    for seg, count in enumerate(counts):
        if not count:
            continue
        for u in rng.random(count):
            score = (seg + float(u)) / n_segments
            while segment_index(score, n_segments) != seg:
                score = math.nextafter(score, 0.0)
            records.append(ScoreRecord(f"{prefix}{serial:08d}", score, is_key))
            serial += 1
    return records


def per_record_csv(path, records):
    """``write_records_csv`` one row at a time."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for rec in records:
            ident = rec.element_id
            if isinstance(ident, bytes):
                ident = ident.decode("utf-8")
            writer.writerow((ident, repr(float(rec.score)), "1" if rec.is_key else "0"))


def assert_same_csv(tmp_path_factory, written, records):
    """``write_records_csv(written)`` holds the bytes ``per_record_csv(records)`` does."""
    tmp = tmp_path_factory.mktemp("csv")
    write_records_csv(tmp / "got.csv", written)
    per_record_csv(tmp / "expected.csv", records)
    assert (tmp / "got.csv").read_bytes() == (tmp / "expected.csv").read_bytes()


class OffsetStream:
    """An rng stand-in whose ``random`` hands out fixed offsets in order."""

    def __init__(self, offsets):
        self.offsets = offsets
        self.used = 0

    def random(self, count):
        self.used += count
        return np.array(self.offsets[self.used - count : self.used], dtype=np.float64)


# offsets just under 1 put the score on or past its bin's top edge, where it is nudged back
OFFSETS = st.one_of(
    st.floats(0.0, 1.0, exclude_max=True),
    st.sampled_from([0.0, 1 - 2**-53, 1 - 2**-52, 1 - 2**-50]),
)


class TestScoreColumns:
    def test_from_records_round_trips(self):
        records = [ScoreRecord("a", 0.25, True), ScoreRecord(b"b", 1.0, False)]
        columns = ScoreColumns.from_records(iter(records))
        assert len(columns) == 2
        assert columns.ids == ["a", b"b"]
        assert columns.scores.tolist() == [0.25, 1.0]
        assert columns.is_key.tolist() == [True, False]
        assert list(columns) == records

    def test_subset_keeps_order(self):
        columns = ScoreColumns.from_records(
            ScoreRecord(f"r{i}", i / 10, i % 3 == 0) for i in range(10)
        )
        keys = columns.subset(columns.is_key)
        assert keys.ids == ["r0", "r3", "r6", "r9"]
        assert keys.scores.tolist() == [0.0, 0.3, 0.6, 0.9]
        assert keys.is_key.all()

    def test_arrays_are_read_only(self):
        columns = ScoreColumns.from_records([ScoreRecord("a", 0.5, True)])
        with pytest.raises(ValueError):
            columns.scores[0] = 0.7

    @pytest.mark.parametrize("scores, is_key", [
        (np.zeros(2), np.zeros(1, dtype=bool)),
        (np.zeros(1, dtype=np.float32), np.zeros(1, dtype=bool)),
        (np.zeros(1), np.zeros(1, dtype=np.int64)),
    ])
    def test_rejects_mismatched_columns(self, scores, is_key):
        with pytest.raises(ValidationError):
            ScoreColumns(["a"], scores, is_key)

    @pytest.mark.parametrize("score", [math.nan, -0.0001, 1.0000001, math.inf, -math.inf])
    @pytest.mark.parametrize("entry", [
        "ScoreColumns", "from_records", "write_records_csv", "build_filter", "measure_fpr",
    ])
    def test_every_entry_names_the_first_record_out_of_range(self, tmp_path, entry, score):
        # build_filter takes keys only, measure_fpr non-keys only
        is_key = entry == "build_filter"
        records = [ScoreRecord("a", 0.5, is_key), ScoreRecord("bad", score, is_key),
                   ScoreRecord("worse", 2.0, is_key)]
        plan = RegionPlan(
            n_regions=2, boundaries=(0, 2, 4), fprs=(0.02, 0.5), key_mass=(0.5, 0.5),
            nonkey_mass=(0.5, 0.5), objective=1.0, framework="fpr", algorithm="fast",
        )
        path = tmp_path / "records.csv"
        call = {
            "ScoreColumns": lambda: ScoreColumns(
                [r.element_id for r in records], np.array([r.score for r in records]),
                np.full(len(records), is_key)),
            "from_records": lambda: ScoreColumns.from_records(iter(records)),
            "write_records_csv": lambda: write_records_csv(path, iter(records)),
            "build_filter": lambda: build_filter(iter(records), plan),
            "measure_fpr": lambda: PlbfFilter(plan, (None, None)).measure_fpr(iter(records)),
        }[entry]
        message = f"record 'bad' has score {score!r} outside [0, 1]"
        with pytest.raises(ValidationError, match=re.escape(message)):
            call()
        assert not path.exists()


@PROPERTY_SETTINGS
@given(data=st.data(), n=st.integers(2, 40))
def test_segment_scores_match_the_per_record_histogram(data, n):
    records = data.draw(scored_records(n))
    n_keys = sum(rec.is_key for rec in records)
    assume(0 < n_keys < len(records))
    key_counts, nonkey_counts = [0] * n, [0] * n
    for rec in records:
        (key_counts if rec.is_key else nonkey_counts)[segment_index(rec.score, n)] += 1
    for d in (segment_scores(ScoreColumns.from_records(records), n),
              segment_scores(records, n)):
        assert d.n_keys == n_keys
        assert d.g.tolist() == [c / n_keys for c in key_counts]
        assert d.h.tolist() == [c / (len(records) - n_keys) for c in nonkey_counts]


@PROPERTY_SETTINGS
@given(data=st.data(), n=st.integers(2, 40), seed=st.integers(0, 2**64 - 1))
def test_build_filter_writes_the_per_record_bytes(tmp_path_factory, data, n, seed):
    keys = [ScoreRecord(rec.element_id, rec.score, True) for rec in data.draw(scored_records(n))]
    plan = data.draw(region_plans(n))
    tmp = tmp_path_factory.mktemp("filters")
    expected, from_columns, from_records = tmp / "ref", tmp / "columns", tmp / "records"
    reference_filter(keys, plan, seed).save(expected)
    build_filter(ScoreColumns.from_records(keys), plan, seed).save(from_columns)
    build_filter(keys, plan, seed).save(from_records)
    assert from_columns.read_bytes() == expected.read_bytes()
    assert from_records.read_bytes() == expected.read_bytes()


@PROPERTY_SETTINGS
@given(
    ids=st.lists(ID_TEXT, min_size=1, max_size=20),
    scores=st.lists(st.floats(0.0, 1.0), min_size=20, max_size=20),
    labels=st.lists(st.booleans(), min_size=20, max_size=20),
)
def test_csv_round_trips_ids_that_need_quoting(tmp_path_factory, ids, scores, labels):
    records = [ScoreRecord(*fields) for fields in zip(ids, scores, labels)]
    path = tmp_path_factory.mktemp("csv") / "records.csv"
    write_records_csv(path, records)
    assert list(read_records_csv(path)) == records
    assert_same_csv(tmp_path_factory, records, records)
    as_bytes = [ScoreRecord(rec.element_id.encode(), rec.score, rec.is_key) for rec in records]
    assert_same_csv(tmp_path_factory, as_bytes, records)


@PROPERTY_SETTINGS
@given(data=st.data(), n=st.integers(2, 13), is_key=st.booleans())
def test_fill_segments_matches_the_per_record_loop(tmp_path_factory, data, n, is_key):
    counts = data.draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
    offsets = data.draw(st.lists(OFFSETS, min_size=sum(counts), max_size=sum(counts)))
    columns = _fill_segments(OffsetStream(offsets), counts, n, is_key, "p")
    records = per_record_fill(OffsetStream(offsets), counts, n, is_key, "p")
    assert list(columns) == records
    assert_same_csv(tmp_path_factory, columns, records)


@PROPERTY_SETTINGS
@given(
    n=st.integers(2, 13),
    n_keys=st.integers(0, 60),
    n_nonkeys=st.integers(0, 60),
    zipf=st.floats(0.1, 3.0),
    n_swaps=st.integers(0, 30),
    seed=st.integers(0, 2**32 - 1),
)
def test_generators_match_the_per_record_loop(
    tmp_path_factory, n, n_keys, n_nonkeys, zipf, n_swaps, seed
):
    spec = SyntheticSpec(n, max(n_keys, 1), max(n_nonkeys, 1), zipf, n_swaps, seed)
    g, h = _zipf_base(n, zipf)
    key_counts = np.sort(_apportion(spec.n_keys, g)).tolist()
    nonkey_counts = np.sort(_apportion(spec.n_nonkeys, h))[::-1].tolist()
    rng = np.random.default_rng(seed)
    if n_swaps:
        _swap_adjacent(rng, n_swaps, key_counts, nonkey_counts)
    expected = (per_record_fill(rng, key_counts, n, True, "k")
                + per_record_fill(rng, nonkey_counts, n, False, "q"))
    columns = synthesize_records(spec)
    assert list(columns) == expected
    assert_same_csv(tmp_path_factory, columns, expected)

    dist = zipfian_distribution(spec)
    rng = np.random.default_rng(seed)
    expected = []
    if n_keys:
        counts = rng.multinomial(n_keys, dist.g / dist.g.sum()).tolist()
        expected += per_record_fill(rng, counts, n, True, "k")
    if n_nonkeys:
        counts = rng.multinomial(n_nonkeys, dist.h / dist.h.sum()).tolist()
        expected += per_record_fill(rng, counts, n, False, "b")
    sampled = sample_records(dist, n_keys, n_nonkeys, seed, nonkey_prefix="b")
    assert sampled == expected
    assert_same_csv(tmp_path_factory, sampled, expected)


def csv_row(element_id, score_text, label):
    """One row as ``csv.writer`` writes it, quoting the id when it must."""
    if any(c in element_id for c in ',"\r\n'):
        element_id = '"' + element_id.replace('"', '""') + '"'
    return f"{element_id},{score_text},{label}\r\n"


BAD_ROWS = {
    "score": ("x", "half", "1", "score 'half' is not a number"),
    "range": ("x", "1.5", "0", "record 'x' has score 1.5 outside [0, 1]"),
    "nan": ("x", "nan", "0", "record 'x' has score nan outside [0, 1]"),
    "label": ("x", "0.5", "2", "label must be 0 or 1, got '2'"),
}


@PROPERTY_SETTINGS
@given(
    before=st.lists(st.tuples(ID_TEXT, st.floats(0.0, 1.0), st.booleans()), max_size=8),
    after=st.lists(st.sampled_from(["x,2,1", "y,0.5", "z,0.5,7"]), max_size=3),
    kind=st.sampled_from([*BAD_ROWS, "two fields", "four fields"]),
)
def test_first_bad_row_is_reported_at_its_line(tmp_path_factory, before, after, kind):
    head = "element_id,score,label\r\n" + "".join(
        csv_row(element_id, repr(score), "1" if is_key else "0")
        for element_id, score, is_key in before
    )
    if kind in BAD_ROWS:
        *fields, message = BAD_ROWS[kind]
        bad = csv_row(*fields)
    else:
        n_fields = 2 if kind == "two fields" else 4
        bad = ",".join(["x", "0.5", "1", "9"][:n_fields]) + "\r\n"
        message = f"expected 3 fields, got {n_fields}"
    path = tmp_path_factory.mktemp("csv") / "bad.csv"
    path.write_bytes((head + bad + "\r\n".join(after)).encode("utf-8"))
    # the csv module counts the lines the file yields in newline="" mode
    line = len(io.StringIO(head + bad, newline="").readlines())
    with pytest.raises(ValidationError) as exc:
        read_records_csv(path)
    assert str(exc.value) == f"{path}:{line}: {message}"
