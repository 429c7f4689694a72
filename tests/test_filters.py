import json
import math
import struct
import tracemalloc
from bisect import bisect_right

import numpy as np
import pytest
from conftest import random_distribution

from plbf import (
    BloomFilter,
    BuildConfig,
    PlbfFilter,
    RegionPlan,
    ScoreRecord,
    ValidationError,
    bits_for,
    build_filter,
    load_filter,
    plan_from_dict,
    plan_to_dict,
    region_seed,
    segment_index,
    segment_indices,
    solve,
)
from plbf.optimizer import MAX_SEGMENTS

_PREFIX = struct.Struct("<4sHI")


def make_plan(**overrides):
    fields = dict(
        n_regions=2,
        boundaries=(0, 2, 4),
        fprs=(0.02, 0.5),
        key_mass=(0.5, 0.5),
        nonkey_mass=(0.5, 0.5),
        objective=100.0,
        framework="fpr",
        algorithm="fast",
    )
    fields.update(overrides)
    return RegionPlan(**fields)


def key_records(n, lo=0.0, hi=1.0, prefix="k"):
    scores = np.linspace(lo, hi, n, endpoint=False)
    return [ScoreRecord(f"{prefix}{i}", float(s), True) for i, s in enumerate(scores)]


def solved_filter(seed=0):
    rng = np.random.default_rng(17)
    d = random_distribution(rng, 20)
    plan = solve(d, BuildConfig(
        framework="fpr", n_segments=20, n_regions=4, target_fpr=0.05,
    ))
    keys = key_records(500)
    return build_filter(keys, plan, seed=seed), keys, plan


def _drop(entry, field):
    return {k: v for k, v in entry.items() if k != field}


def _with_plan(header, **fields):
    return dict(header, plan=dict(header["plan"], **fields))


def _retype_blob(header, field, convert):
    """``header`` with ``field`` of the first stored region's entry converted."""
    regions = [dict(e) for e in header["regions"]]
    entry = next(e for e in regions if e["kind"] == "bloom")
    entry[field] = convert(entry[field])
    return dict(header, regions=regions)


def _scalars(node, path=()):
    """``(path, value)`` of every scalar in a JSON document, nested ones included."""
    if isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, value in items:
            yield from _scalars(value, path + (key,))
    else:
        yield path, node


def _replaced(node, path, value):
    if not path:
        return value
    copy = dict(node) if isinstance(node, dict) else list(node)
    copy[path[0]] = _replaced(node[path[0]], path[1:], value)
    return copy


def _retyped(value):
    """A bool, null, and a string or number of the other type in place of ``value``."""
    if isinstance(value, str):
        return [True, None, 1]
    other = float(value) if isinstance(value, int) else int(value)
    return [True, None, str(value), other]


def _claim_segments(n):
    """A header rewrite that stretches the last region to end at segment ``n``."""
    def rewrite(header):
        bounds = header["plan"]["boundaries"][:-1] + [n]
        return dict(_with_plan(
            header, boundaries=bounds, n_segments=n, thresholds=[b / n for b in bounds],
        ), n_segments=n)

    return rewrite


class TestBuildFilter:
    def test_keys_always_answer_true(self):
        filt, keys, _ = solved_filter()
        assert all(filt.query(r.element_id, r.score) for r in keys)

    def test_rejects_nonkey_records(self):
        plan = make_plan()
        with pytest.raises(ValidationError, match="keys only"):
            build_filter([ScoreRecord("x", 0.5, False)], plan)

    def test_rejects_out_of_range_scores(self):
        plan = make_plan()
        with pytest.raises(ValidationError):
            build_filter([ScoreRecord("x", 1.5, True)], plan)

    def test_empty_regions_store_nothing_and_answer_false(self):
        plan = make_plan()
        # all keys land in region 0; region 1 stays empty
        filt = build_filter(key_records(10, 0.0, 0.49), plan)
        assert filt.region_filters[1] is None
        assert not filt.query("anything", 0.9)

    def test_rate_one_regions_store_nothing_and_answer_true(self):
        plan = make_plan(fprs=(0.02, 1.0))
        filt = build_filter(key_records(20), plan)
        assert filt.region_filters[1] is None
        assert filt.query("never-inserted", 0.99)

    def test_no_records_at_all(self):
        filt = build_filter([], make_plan())
        assert filt.total_bits == 0
        assert not filt.query("x", 0.1)

    def test_filters_sized_from_per_region_counts(self):
        plan = make_plan()
        keys = key_records(30, 0.0, 0.49) + key_records(10, 0.5, 0.99, prefix="m")
        filt = build_filter(keys, plan)
        assert filt.region_filters[0].n_bits == bits_for(30, 0.02)
        assert filt.region_filters[1].n_bits == bits_for(10, 0.5)
        assert filt.total_bits == bits_for(30, 0.02) + bits_for(10, 0.5)

    def test_seed_changes_region_filters(self):
        a, _, _ = solved_filter(seed=1)
        b, _, _ = solved_filter(seed=2)
        assert a != b

    def test_deterministic_given_seed(self):
        a, _, _ = solved_filter(seed=3)
        b, _, _ = solved_filter(seed=3)
        assert a == b


class TestEqualityAndRepr:
    def test_never_equals_another_type(self):
        filt, _, plan = solved_filter()
        assert not filt == plan
        assert filt != filt.region_filters

    def test_repr_counts_stored_regions_and_bits(self):
        # region 1 gets no keys and stores nothing; 10 keys at rate 0.02 take 82 bits
        filt = build_filter(key_records(10, 0.0, 0.49), make_plan())
        assert repr(filt) == "PlbfFilter(n_regions=2, stored=1, total_bits=82)"


class TestQueryRouting:
    def test_region_of_matches_boundaries(self):
        filt, _, plan = solved_filter()
        bounds = plan.boundaries
        for seg in range(20):
            expect = max(r for r in range(plan.n_regions) if bounds[r] <= seg)
            score = (seg + 0.5) / 20
            assert filt.region_of(score) == expect
            assert segment_index(score, 20) == seg

    def test_score_validation(self):
        filt, _, _ = solved_filter()
        for bad in (-0.01, 1.01, float("nan")):
            with pytest.raises(ValidationError):
                filt.query("x", bad)

    SHAPES = [(2, 2), (20, 4), (1000, 5), (997, 13), (600, 300)]

    @staticmethod
    def layouts(n, k):
        """Five random boundary tuples of ``k`` regions over ``n`` segments."""
        rng = np.random.default_rng(n * 1000 + k)
        for _ in range(5):
            inner = sorted(rng.choice(np.arange(1, n), size=k - 1, replace=False).tolist())
            yield (0, *inner, n)

    @staticmethod
    def edge_scores(n):
        """Every segment's edge, the double below it and its middle; 1.0 and below."""
        scores = [1.0, math.nextafter(1.0, 0.0)]
        for seg in range(n):
            edge = seg / n
            scores += [edge, math.nextafter(edge, 0.0), (seg + 0.5) / n]
        return scores

    @pytest.mark.parametrize("n, k", SHAPES)
    def test_region_of_is_bisect_of_segment_index(self, n, k):
        scores = self.edge_scores(n)
        assert segment_indices(np.array(scores), n).tolist() == [
            segment_index(s, n) for s in scores
        ]
        for bounds in self.layouts(n, k):
            plan = make_plan(
                n_regions=k, boundaries=bounds, fprs=(0.5,) * k,
                key_mass=(1 / k,) * k, nonkey_mass=(1 / k,) * k,
            )
            filt = PlbfFilter(plan, (None,) * k)
            for score in scores:
                expect = bisect_right(bounds, segment_index(score, n)) - 1
                assert filt.region_of(score) == expect, score

    @pytest.mark.parametrize("n, k", SHAPES)
    def test_query_answers_what_region_of_routes_to(self, n, k):
        # query inlines region_of's rule: over the same scores it must ask
        # the filter region_of names, or answer that region's empty rule.
        # Every third region has rate 1, and the one after it gets no keys.
        fprs = tuple((0.25, 1.0, 0.75)[r % 3] for r in range(k))
        for bounds in self.layouts(n, k):
            plan = make_plan(
                n_regions=k, boundaries=bounds, fprs=fprs,
                key_mass=(1 / k,) * k, nonkey_mass=(1 / k,) * k,
            )
            routing = PlbfFilter(plan, (None,) * k)
            scores = self.edge_scores(n)
            keys = [
                ScoreRecord(f"key-{i}", score, True)
                for i, score in enumerate(scores) if routing.region_of(score) % 3 == 0
            ]
            filt = build_filter(keys, plan, seed=5)
            answers = set()
            for i, score in enumerate(scores):
                region = filt.region_of(score)
                backing = filt.region_filters[region]
                for element_id in (f"key-{i}", f"other-{i}"):
                    if backing is None:
                        expect = fprs[region] >= 1.0
                    else:
                        expect = backing.contains(element_id)
                    assert filt.query(element_id, score) is expect, (element_id, score)
                    answers.add((backing is None, expect))
            kinds = {(False, True), (False, False), (True, True), (True, False)}
            # two regions leave no room for a keyless one
            assert answers == (kinds if k >= 3 else kinds - {(True, False)})

    @pytest.mark.parametrize(
        "score", [math.nan, math.inf, -math.inf, math.nextafter(1.0, 2.0), -5e-324]
    )
    def test_query_and_region_of_refuse_a_score_alike(self, score):
        filt, _, _ = solved_filter()
        with pytest.raises(ValidationError) as routed:
            filt.region_of(score)
        with pytest.raises(ValidationError) as queried:
            filt.query("x", score)
        assert str(queried.value) == str(routed.value)
        assert str(routed.value).startswith("score must lie in [0, 1]")

    def test_rejects_plans_beyond_the_segment_cap(self):
        # the plan refuses the count itself, so no filter is ever built for it
        with pytest.raises(ValidationError, match="more than"):
            make_plan(boundaries=(0, 2, MAX_SEGMENTS + 1))
        data = plan_to_dict(make_plan(boundaries=(0, 2, MAX_SEGMENTS)))
        data["n_segments"] = data["boundaries"][-1] = MAX_SEGMENTS + 1
        data["thresholds"] = [b / (MAX_SEGMENTS + 1) for b in data["boundaries"]]
        with pytest.raises(ValidationError, match="more than"):
            plan_from_dict(data)
        PlbfFilter(make_plan(boundaries=(0, 2, MAX_SEGMENTS)), (None, None))


class TestMeasureFpr:
    def test_matches_manual_count(self):
        filt, _, _ = solved_filter()
        probes = [ScoreRecord(f"p{i}", (i % 97) / 97, False) for i in range(500)]
        manual = sum(filt.query(r.element_id, r.score) for r in probes) / 500
        assert filt.measure_fpr(probes) == manual

    def test_reinserted_ids_measure_as_hits(self):
        filt, keys, _ = solved_filter()
        ghosts = [ScoreRecord(r.element_id, r.score, False) for r in keys[:50]]
        assert filt.measure_fpr(ghosts) == 1.0

    def test_rejects_keys(self):
        filt, keys, _ = solved_filter()
        with pytest.raises(ValidationError, match="non-keys"):
            filt.measure_fpr(keys[:1])

    def test_rejects_empty(self):
        filt, _, _ = solved_filter()
        with pytest.raises(ValidationError):
            filt.measure_fpr([])


class TestConstructorValidation:
    def test_filter_count_must_match_plan(self):
        with pytest.raises(ValidationError):
            PlbfFilter(make_plan(), (None,))

    def test_rate_one_region_must_not_carry_a_filter(self):
        plan = make_plan(fprs=(0.02, 1.0))
        filt = build_filter(key_records(10, 0.0, 0.49), plan)
        stray = filt.region_filters[0]
        with pytest.raises(ValidationError):
            PlbfFilter(plan, (stray, stray))

    def test_seed_range(self):
        with pytest.raises(ValidationError):
            PlbfFilter(make_plan(), (None, None), seed=-1)
        for seed in (-1, 1 << 64):
            with pytest.raises(ValidationError, match="seed must fit in 64 bits"):
                region_seed(seed, 0)

    def test_seed_must_be_an_integer(self):
        with pytest.raises(ValidationError, match="seed must be an integer"):
            PlbfFilter(make_plan(), (None, None), seed=1.5)
        with pytest.raises(ValidationError, match="seed must be an integer"):
            build_filter(key_records(10, 0.0, 0.49), make_plan(), seed=1.5)
        with pytest.raises(ValidationError, match="seed must be an integer"):
            region_seed(1.5, 0)
        with pytest.raises(ValidationError, match="region must be an integer"):
            region_seed(0, 1.5)

    @pytest.mark.parametrize("seed", [3, (1 << 64) - 1])
    def test_numpy_integer_seed_builds_the_int_seed_filter(self, seed):
        keys = key_records(20)  # keys in both regions: both derive a seed
        numpy_seeded = build_filter(keys, make_plan(), seed=np.uint64(seed))
        assert numpy_seeded == build_filter(keys, make_plan(), seed=seed)
        assert type(numpy_seeded.seed) is int

    def test_region_filter_that_would_not_load_is_refused(self, tmp_path):
        # 64 bits and 3 hashes under region 0's seed 1: a filter no key count
        # and rate size, so its saved file would not load
        with pytest.raises(ValidationError, match="region 0 filter seed 1"):
            PlbfFilter(make_plan(), (BloomFilter(64, 3, seed=1), None)).save(
                tmp_path / "f.plbf"
            )
        assert not (tmp_path / "f.plbf").exists()

    @pytest.mark.parametrize("field, value, message", [
        ("n_bits", 64, "has 64 bits"),
        ("n_hashes", 1, "has 1 hashes"),
    ])
    def test_region_filter_sizes_are_checked(self, field, value, message):
        plan = make_plan()  # region 0 receives the 10 keys at rate 0.02
        good = build_filter(key_records(10, 0.0, 0.49), plan).region_filters[0]
        sizes = {"n_bits": good.n_bits, "n_hashes": good.n_hashes, field: value}
        odd = BloomFilter(sizes["n_bits"], sizes["n_hashes"], seed=good.seed)
        odd.n_inserted = good.n_inserted
        with pytest.raises(ValidationError, match=message):
            PlbfFilter(plan, (odd, None))


class TestRegionSeed:
    def test_distinct_per_region(self):
        seeds = {region_seed(42, r) for r in range(16)}
        assert len(seeds) == 16

    def test_fits_64_bits(self):
        for r in range(8):
            assert 0 <= region_seed((1 << 64) - 1, r) < (1 << 64)


class TestSaveLoad:
    def test_round_trip(self, tmp_path):
        filt, keys, _ = solved_filter(seed=9)
        path = tmp_path / "filter.plbf"
        filt.save(path)
        loaded = load_filter(path)
        assert loaded == filt
        for rec in keys[::25]:
            assert loaded.query(rec.element_id, rec.score)

    def test_resave_is_byte_identical(self, tmp_path):
        filt, _, _ = solved_filter(seed=9)
        a, b = tmp_path / "a.plbf", tmp_path / "b.plbf"
        filt.save(a)
        load_filter(a).save(b)
        assert a.read_bytes() == b.read_bytes()

    def test_plan_of_other_numeric_types_round_trips(self, tmp_path):
        plan = make_plan(
            boundaries=(0, np.int64(2), 4), fprs=(0.5, 1), key_mass=(1, 0), objective=100,
        )
        filt = PlbfFilter(plan, (None, None))
        a, b = tmp_path / "a.plbf", tmp_path / "b.plbf"
        filt.save(a)
        loaded = load_filter(a)
        loaded.save(b)
        assert loaded == filt
        assert a.read_bytes() == b.read_bytes()

    def test_load_holds_one_copy_of_the_bits_beyond_the_file(self, tmp_path):
        # two regions of 500k keys each, ~1.5 MB of bits: the load may hold
        # the file and each filter's own bits, not slices or re-encodings
        plan = make_plan(fprs=(0.001, 0.01))
        blooms = []
        for r, rate in enumerate(plan.fprs):
            bloom = BloomFilter.for_capacity(500_000, rate, region_seed(0, r))
            for i in range(1000):  # bits for the reload to carry over
                bloom.insert(f"k{i}")
            bloom.n_inserted = 500_000
            blooms.append(bloom)
        path = tmp_path / "big.plbf"
        PlbfFilter(plan, tuple(blooms)).save(path)
        tracemalloc.start()
        try:
            loaded = load_filter(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert loaded.region_filters == tuple(blooms)
        assert peak <= 2.6 * path.stat().st_size

    def test_rejects_bad_magic(self, tmp_path):
        filt, _, _ = solved_filter()
        path = tmp_path / "f.plbf"
        filt.save(path)
        data = bytearray(path.read_bytes())
        data[:4] = b"WHAT"
        path.write_bytes(bytes(data))
        with pytest.raises(ValidationError, match="magic"):
            load_filter(path)

    def test_rejects_truncated_file(self, tmp_path):
        filt, _, _ = solved_filter()
        path = tmp_path / "f.plbf"
        filt.save(path)
        path.write_bytes(path.read_bytes()[:10])
        with pytest.raises(ValidationError):
            load_filter(path)

    def test_rejects_file_shorter_than_its_prefix(self, tmp_path):
        path = tmp_path / "f.plbf"
        path.write_bytes(b"PLBF\x01")
        with pytest.raises(ValidationError, match="truncated filter file"):
            load_filter(path)

    def test_rejects_header_that_is_not_utf8(self, tmp_path):
        filt, _, _ = solved_filter()
        path = tmp_path / "f.plbf"
        filt.save(path)
        magic, version, _ = _PREFIX.unpack_from(path.read_bytes())
        path.write_bytes(_PREFIX.pack(magic, version, 2) + b"\xff\xfe")
        with pytest.raises(ValidationError, match="unreadable filter header: 'utf-8' codec"):
            load_filter(path)

    def test_rejects_truncated_blobs(self, tmp_path):
        filt, _, _ = solved_filter()
        path = tmp_path / "f.plbf"
        filt.save(path)
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(ValidationError):
            load_filter(path)

    def _rewrite_header(self, path, rewrite):
        data = path.read_bytes()
        magic, version, header_len = _PREFIX.unpack_from(data)
        header = json.loads(data[_PREFIX.size:_PREFIX.size + header_len])
        payload = json.dumps(rewrite(header), sort_keys=True).encode("utf-8")
        path.write_bytes(
            _PREFIX.pack(magic, version, len(payload))
            + payload
            + data[_PREFIX.size + header_len:]
        )

    def _mutate_header(self, path, mutate):
        def rewrite(header):
            mutate(header)
            return header

        self._rewrite_header(path, rewrite)

    def test_rejects_unknown_region_kind(self, tmp_path):
        filt, _, _ = solved_filter()
        path = tmp_path / "f.plbf"
        filt.save(path)
        self._mutate_header(path, lambda h: h["regions"][0].update(kind="mystery"))
        with pytest.raises(ValidationError, match="kind"):
            load_filter(path)

    @pytest.mark.parametrize("rewrite, message", [
        (lambda h: dict(h, regions=[7] + h["regions"][1:]), "list of objects"),
        (lambda h: dict(h, regions=[_drop(e, "offset") for e in h["regions"]]),
         "missing field 'offset'"),
        (lambda h: dict(h, regions=[_drop(e, "length") for e in h["regions"]]),
         "missing field 'length'"),
        (lambda h: [h], "not a JSON object"),
        (lambda h: _drop(h, "plan"), "filter header missing field 'plan'"),
        (lambda h: dict(h, plan=dict(h["plan"], boundaries=None)),
         "malformed plan document"),
        (lambda h: dict(h, plan=dict(h["plan"], fprs=["x"] * len(h["plan"]["fprs"]))),
         "malformed plan document"),
        (lambda h: _with_plan(h, objective=float("nan")), "objective"),
        (lambda h: _with_plan(h, objective=-1.0), "objective"),
        (lambda h: dict(h, algorithm=None), "algorithm"),
        (lambda h: _with_plan(h, thresholds=h["plan"]["thresholds"][::-1]), "thresholds"),
        (lambda h: _with_plan(h, n_segments=h["plan"]["n_segments"] + 1), "21 segments"),
        (_claim_segments(1 << 40), "more than"),
        (lambda h: dict(h, seed=str(h["seed"])), "not the one saving"),
        (lambda h: dict(h, seed=h["seed"] + 0.9), "not the one saving"),
        (lambda h: dict(h, n_segments=float(h["n_segments"])), "not the one saving"),
        (lambda h: _retype_blob(h, "offset", str), "not the one saving"),
        (lambda h: _retype_blob(h, "length", float), "not the one saving"),
        (lambda h: _with_plan(h, n_regions=str(h["plan"]["n_regions"])), "plan_to_dict"),
        (lambda h: _with_plan(h, key_mass=[math.nan] + h["plan"]["key_mass"][1:]),
         "finite and nonnegative"),
        (lambda h: _with_plan(h, key_mass=[1.5, -0.5] + [0.0] * (len(h["plan"]["key_mass"]) - 2)),
         "finite and nonnegative"),
        (lambda h: dict(h, comment="hi"), "not the one saving"),
        (lambda h: _with_plan(h, comment="hi"), "plan_to_dict"),
    ], ids=["entry-not-object", "no-offset", "no-length", "header-list", "no-plan",
            "null-boundaries", "text-fprs", "nan-objective", "negative-objective",
            "null-algorithm", "stray-thresholds", "stray-n-segments", "huge-n-segments",
            "text-seed", "fractional-seed", "float-n-segments", "text-offset",
            "float-length", "text-n-regions", "nan-key-mass", "negative-key-mass",
            "extra-header-field", "extra-plan-field"])
    def test_rejects_malformed_header(self, tmp_path, rewrite, message):
        filt, _, _ = solved_filter()
        path = tmp_path / "f.plbf"
        filt.save(path)
        self._rewrite_header(path, rewrite)
        with pytest.raises(ValidationError, match=message):
            load_filter(path)

    def test_rejects_every_scalar_of_another_type(self, tmp_path):
        filt, _, _ = solved_filter()
        path = tmp_path / "f.plbf"
        filt.save(path)
        saved = path.read_bytes()
        _, _, header_len = _PREFIX.unpack_from(saved)
        header = json.loads(saved[_PREFIX.size:_PREFIX.size + header_len])
        tried = 0
        for where, value in _scalars(header):
            for odd in _retyped(value):
                path.write_bytes(saved)
                self._rewrite_header(path, lambda h: _replaced(h, where, odd))
                with pytest.raises(ValidationError):
                    load_filter(path)
                tried += 1
        assert tried > 100

    def test_rejects_duplicate_keys(self, tmp_path):
        filt, _, _ = solved_filter()
        path = tmp_path / "f.plbf"
        filt.save(path)
        data = path.read_bytes()
        _, version, header_len = _PREFIX.unpack_from(data)
        header = data[_PREFIX.size:_PREFIX.size + header_len]
        assert b'"seed": 0' in header
        doubled = header.replace(b'"seed": 0', b'"seed": 5, "seed": 0')
        path.write_bytes(
            _PREFIX.pack(b"PLBF", version, len(doubled)) + doubled
            + data[_PREFIX.size + header_len:]
        )
        with pytest.raises(ValidationError, match="not the one saving"):
            load_filter(path)

    def test_rejects_kind_rate_mismatch(self, tmp_path):
        filt, _, _ = solved_filter()
        path = tmp_path / "f.plbf"
        filt.save(path)

        def swap_to_true(header):
            header["regions"][0] = {"kind": "always_true", "offset": 0, "length": 0}

        self._mutate_header(path, swap_to_true)
        with pytest.raises(ValidationError, match="always_true"):
            load_filter(path)

    def test_rejects_trailing_bytes(self, tmp_path):
        filt, _, _ = solved_filter()
        path = tmp_path / "f.plbf"
        filt.save(path)
        path.write_bytes(path.read_bytes() + b"\0")
        with pytest.raises(ValidationError, match="trailing"):
            load_filter(path)

    def test_rejects_regions_sharing_a_blob(self, tmp_path):
        filt, _, _ = solved_filter()
        path = tmp_path / "f.plbf"
        filt.save(path)
        self._mutate_header(path, lambda h: h["regions"][1].update(h["regions"][0]))
        with pytest.raises(ValidationError, match="region 1 blob starts at 0"):
            load_filter(path)

    # region 0's blob opens the blob section; its header is magic (4 bytes),
    # version (u16), bit count (u64), hash count (u32), seed (u64), key count (u64)
    @pytest.mark.parametrize("at, fmt, value, message", [
        (14, "<I", 2**32 - 1, "hashes"),
        (18, "<Q", 12345, "seed"),
        (26, "<Q", 10**6, "bits"),
    ])
    def test_rejects_patched_blob_header(self, tmp_path, at, fmt, value, message):
        filt, _, _ = solved_filter()
        path = tmp_path / "f.plbf"
        filt.save(path)
        data = bytearray(path.read_bytes())
        _, _, header_len = _PREFIX.unpack_from(data)
        at += _PREFIX.size + header_len
        data[at:at + struct.calcsize(fmt)] = struct.pack(fmt, value)
        path.write_bytes(bytes(data))
        with pytest.raises(ValidationError, match=message):
            load_filter(path)

    def test_rejects_wrong_version(self, tmp_path):
        filt, _, _ = solved_filter()
        path = tmp_path / "f.plbf"
        filt.save(path)
        data = bytearray(path.read_bytes())
        data[4:6] = (9).to_bytes(2, "little")
        path.write_bytes(bytes(data))
        with pytest.raises(ValidationError, match="version"):
            load_filter(path)
