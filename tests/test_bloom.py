import copy
import hashlib
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plbf import BloomFilter, ValidationError, bits_for, hashes_for


class TestSizing:
    def test_textbook_point(self):
        # 1000 keys at 1%: ceil(1000 * log2(100) * log2(e)) bits
        assert bits_for(1000, 0.01) == 9586

    def test_rate_one_needs_no_bits(self):
        assert bits_for(1000, 1.0) == 0

    def test_no_keys_need_no_bits(self):
        assert bits_for(0, 0.5) == 0

    def test_rejects_bad_rates(self):
        for bad in (0.0, -0.1, 1.5, float("nan"), "0.1", None):
            with pytest.raises(ValidationError, match=r"fpr must be in \(0, 1\]"):
                bits_for(10, bad)

    def test_rejects_negative_keys(self):
        with pytest.raises(ValidationError):
            bits_for(-1, 0.5)

    def test_hash_count_tracks_rate(self):
        # k = round(ln2 * m/n) lands near log2(1/f)
        m = bits_for(1000, 0.01)
        assert hashes_for(1000, m) == 7
        m = bits_for(1000, 0.5)
        assert hashes_for(1000, m) == 1

    def test_hash_count_is_at_least_one(self):
        assert hashes_for(1000, 1) == 1

    def test_hash_count_needs_keys(self):
        with pytest.raises(ValidationError, match="hashes_for needs positive key and bit counts"):
            hashes_for(0, 8)


class TestBloomFilter:
    def test_no_false_negatives(self):
        filt = BloomFilter.for_capacity(1000, 0.01, seed=1)
        keys = [f"key-{i}" for i in range(1000)]
        for k in keys:
            filt.insert(k)
        assert all(filt.contains(k) for k in keys)

    def test_false_positive_rate_near_target(self):
        target = 0.02
        filt = BloomFilter.for_capacity(2000, target, seed=2)
        for i in range(2000):
            filt.insert(f"key-{i}")
        probes = 20000
        hits = sum(filt.contains(f"other-{i}") for i in range(probes))
        rate = hits / probes
        sigma = math.sqrt(target * (1 - target) / probes)
        assert rate < target + 5 * sigma + 0.005

    def test_accepts_bytes_and_str(self):
        filt = BloomFilter(128, 3, seed=0)
        filt.insert(b"\x00\x01binary")
        assert filt.contains(b"\x00\x01binary")
        filt.insert("text")
        assert filt.contains("text")

    def test_str_and_its_utf8_bytes_agree(self):
        filt = BloomFilter(256, 3, seed=9)
        filt.insert("élan")
        assert filt.contains("élan".encode("utf-8"))

    def test_seed_changes_probes(self):
        a = BloomFilter(512, 4, seed=1)
        b = BloomFilter(512, 4, seed=2)
        a.insert("x")
        b.insert("x")
        assert a.to_bytes() != b.to_bytes()

    def test_deterministic_given_seed(self):
        a = BloomFilter(512, 4, seed=7)
        b = BloomFilter(512, 4, seed=7)
        for item in ("p", "q", "r"):
            a.insert(item)
            b.insert(item)
        assert a == b

    def test_empty_filter_contains_nothing(self):
        filt = BloomFilter(64, 2, seed=0)
        assert not filt.contains("anything")

    def test_never_equals_another_type(self):
        filt = BloomFilter(64, 2, seed=0)
        assert not filt == filt.to_bytes()
        assert filt != "BloomFilter"

    def test_repr_names_its_parameters(self):
        filt = BloomFilter(64, 2, seed=5)
        filt.insert("x")
        assert repr(filt) == "BloomFilter(n_bits=64, n_hashes=2, seed=5, n_inserted=1)"

    def test_for_capacity_rejects_rate_one(self):
        with pytest.raises(ValidationError):
            BloomFilter.for_capacity(10, 1.0)

    def test_constructor_validation(self):
        with pytest.raises(ValidationError):
            BloomFilter(0, 1)
        with pytest.raises(ValidationError):
            BloomFilter(8, 0)
        with pytest.raises(ValidationError):
            BloomFilter(8, 1, seed=-1)
        with pytest.raises(ValidationError):
            BloomFilter(8, 1, seed=1 << 64)

    @pytest.mark.parametrize("make, field", [
        (lambda: BloomFilter(10.0, 3), "n_bits"),
        (lambda: BloomFilter("64", 3), "n_bits"),
        (lambda: BloomFilter(10, 2.5), "n_hashes"),
        (lambda: BloomFilter(10, "3"), "n_hashes"),
        (lambda: bits_for(2.5, 0.1), "n_keys"),
        (lambda: bits_for("5", 0.1), "n_keys"),
        (lambda: hashes_for(2.5, 10), "n_keys"),
        (lambda: hashes_for(10, 2.5), "n_bits"),
        (lambda: BloomFilter.for_capacity(2.5, 0.1), "n_keys"),
    ], ids=["float-bits", "text-bits", "float-hashes", "text-hashes", "bits-for-float-keys",
            "bits-for-text-keys", "hashes-for-float-keys", "hashes-for-float-bits",
            "for-capacity-float-keys"])
    def test_counts_must_be_integers(self, make, field):
        with pytest.raises(ValidationError, match=f"{field} must be an integer"):
            make()
        numpy_counted = BloomFilter(np.int64(64), np.uint8(3))
        assert numpy_counted == BloomFilter(64, 3)
        assert type(numpy_counted.n_bits) is int and type(numpy_counted.n_hashes) is int

    def test_seed_must_be_an_integer(self):
        with pytest.raises(ValidationError, match="seed must be an integer"):
            BloomFilter(64, 3, seed=1.5)
        numpy_seeded = BloomFilter(64, 3, seed=np.uint64(3))
        assert numpy_seeded == BloomFilter(64, 3, seed=3)
        assert type(numpy_seeded.seed) is int


class TestSerialization:
    def test_round_trip(self):
        filt = BloomFilter.for_capacity(500, 0.05, seed=3)
        for i in range(500):
            filt.insert(f"k{i}")
        again = BloomFilter.from_bytes(filt.to_bytes())
        assert again == filt
        assert again.to_bytes() == filt.to_bytes()
        assert all(again.contains(f"k{i}") for i in range(500))

    def test_pickle_and_deepcopy_round_trip(self):
        filt = BloomFilter.for_capacity(50, 0.05, seed=4)
        for i in range(50):
            filt.insert(f"k{i}")
        for again in (pickle.loads(pickle.dumps(filt)), copy.deepcopy(filt)):
            assert again == filt
            assert all(again.contains(f"k{i}") for i in range(50))

    def test_rejects_bad_magic(self):
        blob = bytearray(BloomFilter(8, 1).to_bytes())
        blob[:4] = b"NOPE"
        with pytest.raises(ValidationError, match="magic"):
            BloomFilter.from_bytes(bytes(blob))

    def test_rejects_truncation(self):
        blob = BloomFilter(64, 2).to_bytes()
        with pytest.raises(ValidationError):
            BloomFilter.from_bytes(blob[:-1])
        with pytest.raises(ValidationError):
            BloomFilter.from_bytes(blob[:5])

    def test_rejects_trailing_garbage(self):
        blob = BloomFilter(64, 2).to_bytes()
        with pytest.raises(ValidationError):
            BloomFilter.from_bytes(blob + b"\x00")

    def test_rejects_wrong_version(self):
        blob = bytearray(BloomFilter(8, 1).to_bytes())
        blob[4:6] = (99).to_bytes(2, "little")
        with pytest.raises(ValidationError, match="version"):
            BloomFilter.from_bytes(bytes(blob))


def probes(filt, element_id):
    """Probe positions, from the first probe and stride the filter derives."""
    first, step = filt._first_and_step(element_id)
    return [(first + i * step) % filt.n_bits for i in range(filt.n_hashes)]


def reference_probes(element_id, seed, m, k):
    """``(h1 + i * h2) mod m`` in unbounded integers, from the keyed digest."""
    digest = hashlib.blake2b(
        element_id.encode("utf-8"), digest_size=16, key=seed.to_bytes(8, "little")
    ).digest()
    h1 = int.from_bytes(digest[:8], "little")
    h2 = int.from_bytes(digest[8:], "little") | 1
    return [(h1 + i * h2) % m for i in range(k)]


class TestProbeDistribution:
    def test_probe_positions_cover_the_array(self):
        # double hashing must not degenerate to a few fixed cells
        filt = BloomFilter(101, 5, seed=11)
        seen = set()
        for i in range(200):
            seen.update(probes(filt, f"item-{i}"))
        assert len(seen) > 95

    def test_rng_independence_from_numpy_state(self):
        # hashing is keyed BLAKE2b; global RNG state must not matter
        filt = BloomFilter(128, 3, seed=5)
        np.random.seed(0)
        first = probes(filt, "stable")
        np.random.seed(12345)
        second = probes(filt, "stable")
        assert first == second


class TestProbeWalk:
    """insert and contains walk exactly the probes of (h1 + i * h2) mod m."""

    IDS = ("k00000000", "q00000017", "h00123456", "élan", "")

    @pytest.mark.parametrize("m", [8, 101, 1 << 16, 10**7 + 19])
    def test_first_and_step_give_the_reference_probes(self, m):
        for seed in (0, 7, (1 << 64) - 1):
            for element_id in self.IDS:
                filt = BloomFilter(m, 30, seed=seed)
                assert probes(filt, element_id) == reference_probes(element_id, seed, m, 30)

    # m = 1 reduces every stride to 0; m = 2 and 3 wrap on every probe
    @pytest.mark.parametrize("m", [1, 2, 3, 8, 101, 1 << 16, 10**7 + 19])
    def test_insert_and_contains_walk_the_reference_probes(self, m):
        for k in (1, 2, 7, 30):
            for element_id in self.IDS:
                filt = BloomFilter(m, k, seed=3)
                filt.insert(element_id)
                expected = set(reference_probes(element_id, 3, m, k))
                assert int.from_bytes(filt._bits, "little").bit_count() == len(expected)
                assert filt.contains(element_id)
                for p in expected:
                    filt._bits[p >> 3] ^= 1 << (p & 7)  # a clear bit must decide the answer
                    assert not filt.contains(element_id)
                    filt._bits[p >> 3] ^= 1 << (p & 7)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        m=st.integers(1, 10**7),
        k=st.integers(1, 30),
        seed=st.integers(0, (1 << 64) - 1),
        element_id=st.text(max_size=12),
        data=st.data(),
    )
    def test_contains_is_every_reference_probe_set(self, m, k, seed, element_id, data):
        filt = BloomFilter(m, k, seed=seed)
        expected = reference_probes(element_id, seed, m, k)
        # every probe's bit set but up to three (often none, or the first
        # or the last probe); then some stray bits anywhere
        holes = set(data.draw(st.lists(st.integers(0, k - 1), max_size=3)))
        stray = data.draw(st.lists(st.integers(0, m - 1), max_size=20))
        for p in [p for i, p in enumerate(expected) if i not in holes] + stray:
            filt._bits[p >> 3] |= 1 << (p & 7)
        every_bit_set = all(filt._bits[p >> 3] >> (p & 7) & 1 for p in expected)
        assert filt.contains(element_id) == every_bit_set
