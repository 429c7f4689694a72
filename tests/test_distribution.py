import hashlib
import math

import numpy as np
import pytest

from plbf import (
    ScoreRecord,
    SegmentedDistribution,
    SyntheticSpec,
    ValidationError,
    apply_swaps,
    ensure_positive_masses,
    is_ideal,
    read_records_csv,
    sample_records,
    segment_index,
    segment_indices,
    segment_scores,
    synthesize_records,
    write_records_csv,
    zipfian_distribution,
)
from plbf.distribution import _fill_segments, _zipf_base


class TestSegmentIndex:
    def test_corners(self):
        assert segment_index(0.0, 10) == 0
        assert segment_index(1.0, 10) == 9  # top score folds into the last bin
        assert segment_index(0.05, 10) == 0
        assert segment_index(0.35, 10) == 3
        assert segment_index(0.999, 1000) == 999
        top = np.array([1.0, math.nextafter(1.0, 0.0)])
        for n in range(2, 2**16 + 1):
            assert segment_indices(top, n).tolist() == [n - 1, n - 1], n

    def test_bin_edges_belong_to_upper_bin(self):
        assert segment_index(0.5, 2) == 1
        assert segment_index(0.25, 4) == 1

    def test_every_segment_reachable(self):
        n = 7
        hits = {segment_index((i + 0.5) / n, n) for i in range(n)}
        assert hits == set(range(n))


class TestSegmentedDistribution:
    def test_from_masses_normalizes(self):
        d = SegmentedDistribution.from_masses([2.0, 2.0], [1.0, 3.0], n_keys=10)
        assert d.g.tolist() == [0.5, 0.5]
        assert d.h.tolist() == [0.25, 0.75]
        assert d.n_keys == 10

    def test_prefix_sums(self):
        d = SegmentedDistribution.from_masses([1, 1, 2], [1, 2, 1], n_keys=5)
        assert d.g_prefix.tolist() == pytest.approx([0.0, 0.25, 0.5, 1.0])
        assert d.h_prefix.tolist() == pytest.approx([0.0, 0.25, 0.75, 1.0])

    def test_arrays_frozen(self):
        d = SegmentedDistribution.from_masses([1, 1], [1, 1], n_keys=1)
        with pytest.raises(ValueError):
            d.g[0] = 0.7

    def test_rejects_negative_mass(self):
        with pytest.raises(ValidationError):
            SegmentedDistribution.from_masses([1.0, -0.1], [1, 1], n_keys=1)

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValidationError):
            SegmentedDistribution.from_masses([1.0], [0.5, 0.5], n_keys=1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    def test_rejects_mass_that_is_not_finite(self, bad):
        with pytest.raises(ValidationError, match="mass vectors must be finite"):
            SegmentedDistribution.from_masses([1.0, 1.0], [1.0, bad], n_keys=1)

    def test_rejects_side_without_mass(self):
        with pytest.raises(ValidationError, match="each mass vector needs positive total mass"):
            SegmentedDistribution.from_masses([0.0, 0.0], [1.0, 1.0], n_keys=1)

    @pytest.mark.parametrize("normalize", [True, False], ids=["normalized", "raw"])
    @pytest.mark.parametrize("side", ["keys", "nonkeys"])
    def test_rejects_total_that_overflows(self, side, normalize):
        # each mass is finite, the sum is not: no warning, no normalization to 0
        huge, small = [1.7e308, 1.7e308, 1.0], [1.0, 1.0, 1.0]
        g, h = (huge, small) if side == "keys" else (small, huge)
        with pytest.raises(ValidationError, match="^mass vectors must have finite totals$"):
            SegmentedDistribution.from_masses(g, h, n_keys=10, normalize=normalize)

    @pytest.mark.parametrize("g, h", [
        (np.ones((2, 2)), np.ones((2, 2))),
        (np.ones(3), np.ones(2)),
        (np.ones(0), np.ones(0)),
    ], ids=["2-D", "mismatched", "empty"])
    def test_constructor_rejects_bad_shapes(self, g, h):
        with pytest.raises(ValidationError, match="^mass vectors must be 1-D and equally sized$"):
            SegmentedDistribution(g, h, 1)

    def test_constructor_rejects_prefix_sum_that_overflows(self):
        with pytest.raises(ValidationError, match="^mass vectors must have finite totals$"):
            SegmentedDistribution(np.array([1.7e308, 1.7e308]), np.array([0.5, 0.5]), 1)

    @pytest.mark.parametrize("n_keys", ["3", 2.5, 0, -5])
    def test_constructor_takes_a_positive_integer_key_count(self, n_keys):
        g, h = np.array([0.25, 0.75]), np.array([0.5, 0.5])
        expected = "n_keys must be " + ("an integer" if not isinstance(n_keys, int) else "at least 1")
        with pytest.raises(ValidationError, match=expected):
            SegmentedDistribution(g, h, n_keys)
        assert type(SegmentedDistribution(g, h, np.int64(7)).n_keys) is int

    def test_constructor_derives_read_only_arrays(self):
        d = SegmentedDistribution(np.array([0.25, 0.75]), np.array([0.5, 0.5]), 4)
        assert (d.n_segments, d.n_keys) == (2, 4)
        assert d.g_prefix.tolist() == [0.0, 0.25, 1.0]
        assert d.h_prefix.tolist() == [0.0, 0.5, 1.0]
        for arr in (d.g, d.h, d.g_prefix, d.h_prefix):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.7

    @pytest.mark.parametrize("producer", [
        lambda: SegmentedDistribution.from_masses([3, 0, 1, 2], [1, 1, 0, 5], n_keys=6),
        lambda: SegmentedDistribution.from_masses([0.1, 0.2, 0.7], [0.6, 0.3, 0.1], n_keys=9,
                                                  normalize=False),
        lambda: segment_scores(synthesize_records(SyntheticSpec(13, 50, 40, seed=2)), 13),
        lambda: zipfian_distribution(SyntheticSpec(20, 100, 100)),
        lambda: apply_swaps(zipfian_distribution(SyntheticSpec(20, 100, 100)), 7, seed=3),
        lambda: ensure_positive_masses(
            SegmentedDistribution.from_masses([1, 0, 2, 0], [0, 2, 1, 1], n_keys=3)),
    ], ids=["from_masses", "from_masses-raw", "segment_scores", "zipfian", "apply_swaps",
            "ensure_positive_masses"])
    def test_every_producer_derives_the_same_prefixes(self, producer):
        d = producer()
        assert d.n_segments == d.g.size == d.h.size
        for mass, prefix in ((d.g, d.g_prefix), (d.h, d.h_prefix)):
            expected = np.concatenate(([0.0], np.cumsum(mass)))
            assert prefix.tobytes() == expected.tobytes()


class TestMasses:
    def dist(self):
        return apply_swaps(zipfian_distribution(SyntheticSpec(30, 100, 100)), 9, seed=4)

    def test_layout_masses_are_the_prefix_differences(self):
        d = self.dist()
        bounds = np.array([[0, 4, 11, 30], [0, 1, 29, 30], [0, 15, 16, 30]])
        g, h = d.masses(bounds[:, :-1], bounds[:, 1:])
        assert g.tobytes() == np.diff(d.g_prefix[bounds]).tobytes()
        assert h.tobytes() == np.diff(d.h_prefix[bounds]).tobytes()

    @pytest.mark.parametrize("lo, hi", [
        (np.arange(19), np.arange(7, 20)[:, None]),
        (np.s_[:19], np.s_[7:20, None]),
    ], ids=["index-arrays", "slices"])
    def test_broadcast_block_is_written_into_out(self, lo, hi):
        d = self.dist()
        out = (np.empty((13, 19)), np.empty((13, 19)))
        g, h = d.masses(lo, hi, out=out)
        assert g is out[0] and h is out[1]
        assert g.tobytes() == (d.g_prefix[7:20, None] - d.g_prefix[None, :19]).tobytes()
        assert h.tobytes() == (d.h_prefix[7:20, None] - d.h_prefix[None, :19]).tobytes()


class TestSegmentScores:
    def test_counts_mass_per_segment(self):
        records = [
            ScoreRecord("a", 0.05, True),
            ScoreRecord("b", 0.05, True),
            ScoreRecord("c", 0.95, True),
            ScoreRecord("x", 0.05, False),
            ScoreRecord("y", 0.55, False),
        ]
        d = segment_scores(records, 2)
        assert d.g.tolist() == pytest.approx([2 / 3, 1 / 3])
        assert d.h.tolist() == pytest.approx([0.5, 0.5])
        assert d.n_keys == 3

    def test_rejects_single_segment(self):
        records = [ScoreRecord("a", 0.5, True), ScoreRecord("x", 0.5, False)]
        with pytest.raises(ValidationError, match="n_segments must be at least 2"):
            segment_scores(records, 1)

    @pytest.mark.parametrize("n", [2.5, 10.0, "10"])
    def test_rejects_non_integer_segment_count(self, n):
        records = [ScoreRecord("a", 0.5, True), ScoreRecord("x", 0.5, False)]
        with pytest.raises(ValidationError, match="n_segments must be an integer"):
            segment_scores(records, n)
        assert segment_scores(records, np.int64(10)).n_segments == 10

    def test_requires_keys(self):
        with pytest.raises(ValidationError, match="no key records"):
            segment_scores([ScoreRecord("x", 0.5, False)], 4)

    def test_requires_nonkeys(self):
        with pytest.raises(ValidationError, match="no non-key records"):
            segment_scores([ScoreRecord("a", 0.5, True)], 4)

    def test_rejects_out_of_range_score(self):
        bad = [ScoreRecord("a", 1.5, True), ScoreRecord("x", 0.5, False)]
        with pytest.raises(ValidationError):
            segment_scores(bad, 4)

    @pytest.mark.parametrize("score", [math.nan, -0.0001, 1.0000001, math.inf, -math.inf])
    def test_names_the_first_record_out_of_range(self, score):
        records = [ScoreRecord("a", 0.5, True), ScoreRecord("bad", score, False),
                   ScoreRecord("worse", 2.0, False)]
        with pytest.raises(ValidationError, match=f"record 'bad' has score {score!r}"):
            segment_scores(iter(records), 4)

    @pytest.mark.parametrize("n", [2, 3, 10, 7, 1000, 4099])
    def test_counts_equal_the_per_record_loop_at_bin_edges(self, n):
        scores = [1.0, math.nextafter(1.0, 0.0)]
        for seg in range(n):
            scores += [seg / n, math.nextafter(seg / n, 0.0)]
        records = [ScoreRecord(f"r{i}", s, i % 3 != 0) for i, s in enumerate(scores)]
        key_counts = [0] * n
        nonkey_counts = [0] * n
        for rec in records:
            counts = key_counts if rec.is_key else nonkey_counts
            counts[segment_index(rec.score, n)] += 1
        d = segment_scores((rec for rec in records), n)
        assert d.n_keys == sum(key_counts)
        assert d.g.tolist() == [c / sum(key_counts) for c in key_counts]
        assert d.h.tolist() == [c / sum(nonkey_counts) for c in nonkey_counts]


class TestIsIdeal:
    def test_monotone_ratio_is_ideal(self):
        d = SegmentedDistribution.from_masses([1, 2, 4], [4, 2, 1], n_keys=1)
        assert is_ideal(d)

    def test_ratio_dip_is_not_ideal(self):
        d = SegmentedDistribution.from_masses([1, 4, 2], [4, 1, 2], n_keys=1)
        assert not is_ideal(d)

    def test_zero_nonkey_mass_tail_is_ideal(self):
        d = SegmentedDistribution.from_masses([1, 2], [1, 0], n_keys=1, normalize=False)
        assert is_ideal(d)


class TestZipfianDistribution:
    def test_unswapped_is_always_ideal(self):
        for exponent in (0.4, 1.0, 2.5):
            for n in (2, 17, 400):
                spec = SyntheticSpec(n, 100, 100, zipf_exponent=exponent)
                assert is_ideal(zipfian_distribution(spec))

    def test_masses_are_normalized_and_mirrored(self):
        spec = SyntheticSpec(50, 100, 100, zipf_exponent=1.3)
        d = zipfian_distribution(spec)
        assert d.g.sum() == pytest.approx(1.0)
        assert d.h.sum() == pytest.approx(1.0)
        assert d.g.tolist() == pytest.approx(d.h[::-1].tolist())

    def test_masses_do_not_depend_on_numpy_simd_dispatch(self):
        # numpy's AVX-512 power loop rounds rank**-e otherwise than its
        # other loops; these are the bits without it, pinned
        pins = {1.3: "3cfa5a6af874a5b2251f3bc571899094aaa387f72366c1bd0a2031d3fab58100",
                0.7: "356f45fb35599b0e72f77b2ad7ea2cbe440d48cd3e2ed3933b67c3c830cba41e"}
        for exponent, digest in pins.items():
            g, h = _zipf_base(4000, exponent)
            assert hashlib.sha256(g.tobytes() + h.tobytes()).hexdigest() == digest, exponent

    def test_heavy_swapping_breaks_ideality(self):
        spec = SyntheticSpec(1000, 100, 100, n_swaps=10_000, seed=0)
        assert not is_ideal(zipfian_distribution(spec))


class TestApplySwaps:
    def test_zero_swaps_returns_input(self):
        d = zipfian_distribution(SyntheticSpec(20, 10, 10))
        assert apply_swaps(d, 0, seed=3) is d

    def test_preserves_mass_multiset(self):
        d = zipfian_distribution(SyntheticSpec(30, 10, 10))
        swapped = apply_swaps(d, 500, seed=9)
        assert sorted(swapped.g.tolist()) == pytest.approx(sorted(d.g.tolist()))
        assert sorted(swapped.h.tolist()) == pytest.approx(sorted(d.h.tolist()))

    def test_moves_g_and_h_together(self):
        d = zipfian_distribution(SyntheticSpec(30, 10, 10))
        swapped = apply_swaps(d, 200, seed=4)
        pairs_before = sorted(zip(d.g.tolist(), d.h.tolist()))
        pairs_after = sorted(zip(swapped.g.tolist(), swapped.h.tolist()))
        assert pairs_after == pytest.approx(pairs_before)

    def test_rejects_negative_count(self):
        d = zipfian_distribution(SyntheticSpec(20, 10, 10))
        with pytest.raises(ValidationError, match="n_swaps must be nonnegative"):
            apply_swaps(d, -1, seed=3)

    def test_deterministic(self):
        d = zipfian_distribution(SyntheticSpec(30, 10, 10))
        a = apply_swaps(d, 100, seed=5)
        b = apply_swaps(d, 100, seed=5)
        assert a.g.tolist() == b.g.tolist()
        assert a.h.tolist() == b.h.tolist()


class TestSynthesizeRecords:
    def test_counts_match_spec(self):
        spec = SyntheticSpec(40, 333, 777, seed=1)
        records = synthesize_records(spec)
        assert sum(r.is_key for r in records) == 333
        assert sum(not r.is_key for r in records) == 777

    def test_unswapped_records_rebin_ideal(self):
        spec = SyntheticSpec(100, 5000, 5000, seed=2)
        d = segment_scores(synthesize_records(spec), 100)
        assert is_ideal(d)

    def test_reproducible(self):
        spec = SyntheticSpec(25, 200, 200, n_swaps=50, seed=6)
        assert list(synthesize_records(spec)) == list(synthesize_records(spec))

    def test_seed_changes_output(self):
        a = synthesize_records(SyntheticSpec(25, 200, 200, seed=1))
        b = synthesize_records(SyntheticSpec(25, 200, 200, seed=2))
        assert list(a) != list(b)

    def test_scores_stay_in_declared_segments(self):
        spec = SyntheticSpec(13, 400, 400, seed=3)
        for rec in synthesize_records(spec):
            assert 0.0 <= rec.score <= 1.0


class TestSampleRecords:
    def test_counts_and_prefixes(self):
        d = zipfian_distribution(SyntheticSpec(20, 10, 10))
        records = sample_records(d, 50, 70, seed=8, nonkey_prefix="nn")
        keys = [r for r in records if r.is_key]
        nonkeys = [r for r in records if not r.is_key]
        assert len(keys) == 50 and len(nonkeys) == 70
        assert all(r.element_id.startswith("k") for r in keys)
        assert all(r.element_id.startswith("nn") for r in nonkeys)

    def test_deterministic(self):
        d = zipfian_distribution(SyntheticSpec(20, 10, 10))
        assert sample_records(d, 30, 30, seed=8) == sample_records(d, 30, 30, seed=8)

    @pytest.mark.parametrize("draw, field", [
        (lambda d, n: sample_records(d, n, 0, seed=1), "n_keys"),
        (lambda d, n: sample_records(d, 0, n, seed=1), "n_nonkeys"),
        (lambda d, n: apply_swaps(d, n, seed=1), "n_swaps"),
    ], ids=["n_keys", "n_nonkeys", "n_swaps"])
    @pytest.mark.parametrize("value", [2.5, "3", -1])
    def test_rejects_a_count_that_is_not_a_nonnegative_integer(self, draw, field, value):
        d = zipfian_distribution(SyntheticSpec(20, 10, 10))
        expected = "must be nonnegative" if value == -1 else f"{field} must be an integer"
        with pytest.raises(ValidationError, match=expected):
            draw(d, value)

    def test_nonkeys_only(self):
        d = zipfian_distribution(SyntheticSpec(20, 10, 10))
        records = sample_records(d, 0, 25, seed=8)
        assert len(records) == 25
        assert not any(r.is_key for r in records)


class TestCsvRoundTrip:
    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_bytes(b"")
        expected = "empty file, expected header element_id,score,label"
        with pytest.raises(ValidationError, match=expected):
            read_records_csv(path)

    def test_round_trip_exact(self, tmp_path):
        records = synthesize_records(SyntheticSpec(15, 120, 80, seed=4))
        path = tmp_path / "records.csv"
        write_records_csv(path, records)
        assert list(read_records_csv(path)) == list(records)

    def test_nudged_scores_round_trip(self, tmp_path):
        class TopOfBin:
            def random(self, count):
                return np.full(count, 1 - 2**-53)

        # (1 - 2**-53) / 3 rounds up to the bin edge 1/3 and is nudged back
        records = _fill_segments(TopOfBin(), [1, 0, 0], 3, True, "k")
        assert segment_index(records.scores[0], 3) == 0
        path = tmp_path / "records.csv"
        write_records_csv(path, records)
        assert list(read_records_csv(path)) == list(records)

    def test_score_below_its_bin_is_nudged_up(self):
        class ZeroOffsets:
            def random(self, count):
                return np.zeros(count)

        # 15 / 22 * 22 rounds below 15, so the score would bin into segment 14
        counts = [0] * 22
        counts[15] = 1
        records = _fill_segments(ZeroOffsets(), counts, 22, True, "k")
        assert segment_index(records.scores[0], 22) == 15
        assert records.scores[0] == math.nextafter(15 / 22, 1.0)

    def test_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,value,flag\nx,0.5,1\n")
        with pytest.raises(ValidationError, match="header"):
            read_records_csv(path)

    def test_rejects_bad_label_with_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("element_id,score,label\nx,0.5,2\n")
        with pytest.raises(ValidationError, match=r"bad\.csv:2"):
            read_records_csv(path)

    def test_rejects_unparseable_score(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("element_id,score,label\nx,half,1\n")
        with pytest.raises(ValidationError, match=r"bad\.csv:2"):
            read_records_csv(path)

    def test_rejects_out_of_range_score(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("element_id,score,label\nx,1.25,1\n")
        with pytest.raises(ValidationError):
            read_records_csv(path)

    @pytest.mark.parametrize("rows_before", [0, 5000])
    def test_rejects_bytes_that_are_not_utf8(self, tmp_path, rows_before):
        # 5000 rows put the bad bytes past the first block the decoder reads,
        # so the bulk pass meets them first and the row-by-row re-read reports
        path = tmp_path / "bad.csv"
        rows = b"".join(b"id%d,0.5,1\n" % i for i in range(rows_before))
        path.write_bytes(b"element_id,score,label\n" + rows + b"a\xff\xfeb,0.5,1\n")
        with pytest.raises(ValidationError, match=r"bad\.csv: not UTF-8 text"):
            read_records_csv(path)


    @pytest.mark.parametrize("text, line", [
        ("element_id{long},score,label\nx,0.5,1\n", 1),
        ('element_id,score,label\nx,0.5,1\n"two\nlines",0.5,0\n{long},0.5,1\n', 5),
        ("element_id,score,label\nx,0.5,2\n{long},0.5,1\n", 2),  # the earlier bad row
    ], ids=["header", "row", "earlier-bad-row"])
    def test_rejects_a_field_over_the_csv_limit(self, tmp_path, text, line):
        path = tmp_path / "bad.csv"
        path.write_text(text.format(long="x" * 200_000))
        with pytest.raises(ValidationError, match=rf"bad\.csv:{line}: "):
            read_records_csv(path)


class TestSyntheticSpecValidation:
    def test_rejects_tiny_segment_count(self):
        with pytest.raises(ValidationError):
            SyntheticSpec(1, 10, 10)

    def test_rejects_zero_counts(self):
        with pytest.raises(ValidationError):
            SyntheticSpec(10, 0, 10)

    def test_rejects_nonpositive_exponent(self):
        # a string or None is no real, and 10**400 is beyond float range
        for exponent in (0.0, -1.0, "2", None, 10**400, math.inf, math.nan):
            with pytest.raises(ValidationError, match="zipf_exponent must be a positive"):
                SyntheticSpec(10, 10, 10, zipf_exponent=exponent)
        assert type(SyntheticSpec(10, 10, 10, zipf_exponent=np.int64(2)).zipf_exponent) is float

    def test_rejects_negative_swaps(self):
        with pytest.raises(ValidationError):
            SyntheticSpec(10, 10, 10, n_swaps=-1)

    @pytest.mark.parametrize("field", ["n_segments", "n_keys", "n_nonkeys", "n_swaps"])
    @pytest.mark.parametrize("value", ["50", 50.5, 50.0, None])
    def test_rejects_a_count_that_is_not_an_integer(self, field, value):
        counts = dict(n_segments=50, n_keys=10, n_nonkeys=10, n_swaps=0)
        with pytest.raises(ValidationError, match=f"{field} must be an integer"):
            SyntheticSpec(**{**counts, field: value})

    @pytest.mark.parametrize("draw", [
        lambda d, seed: synthesize_records(SyntheticSpec(20, 10, 10, n_swaps=1, seed=seed)),
        lambda d, seed: apply_swaps(d, 1, seed),
        lambda d, seed: sample_records(d, 1, 1, seed),
    ], ids=["synthetic-spec", "apply-swaps", "sample-records"])
    @pytest.mark.parametrize("seed, message", [
        (-1, "seed must fit in 64 bits"), (1 << 64, "seed must fit in 64 bits"),
        ("x", "seed must be an integer, got 'x'"), (1.5, "seed must be an integer, got 1.5"),
    ], ids=["negative", "past-64-bits", "text", "fractional"])
    def test_every_seed_is_checked_where_it_is_taken(self, draw, seed, message):
        d = zipfian_distribution(SyntheticSpec(20, 10, 10))
        with pytest.raises(ValidationError, match=message):
            draw(d, seed)

    def test_takes_numpy_integer_counts_as_ints(self):
        spec = SyntheticSpec(np.int64(50), np.int32(10), np.uint8(10), n_swaps=np.int64(3))
        assert spec == SyntheticSpec(50, 10, 10, n_swaps=3)
        assert all(type(getattr(spec, f)) is int
                   for f in ("n_segments", "n_keys", "n_nonkeys", "n_swaps"))
