"""Columns against records: the array path must match a per-record reference.

``segment_scores`` and ``build_filter`` work on :class:`ScoreColumns`; here
their results are compared with histograms and filters built one record at
a time, on scores that sit at 0, at 1 and on or next to the bin edges.
``read_records_csv`` must round-trip ids that need quoting and report the
first bad row of a file at the line the csv module counts, however many
lines the quoted ids before it span.  Runs are derandomized so the suite
stays deterministic.
"""

import io
import math
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
    ValidationError,
    build_filter,
    read_records_csv,
    region_seed,
    segment_index,
    segment_scores,
    write_records_csv,
)

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
