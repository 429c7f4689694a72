"""Classic Bloom filter backend.

A filter is a flat bit array probed at ``n_hashes`` positions derived by
double hashing: one keyed 128-bit BLAKE2b digest per element is split into
two 64-bit halves ``h1`` and ``h2`` (``h2`` forced odd so the stride never
degenerates), and probe ``i`` lands at ``(h1 + i * h2) mod n_bits``.  The
key for the digest is the filter's seed as 8 little-endian bytes, so two
filters with different seeds hash the same element independently.

Each filter keys its BLAKE2b state once, when it is made; an element costs
one copy of that state, one update and one digest.  ``h1`` and ``h2`` are
reduced mod ``n_bits`` once, and the probes are walked by adding the
reduced stride and subtracting ``n_bits`` on wrap-around.  Both terms are
below ``n_bits``, so the walk lands exactly where ``(h1 + i * h2) mod
n_bits`` does with unbounded integers; fixed-width 64-bit arithmetic on the
unreduced halves would not.  ``insert`` takes the first probe and stride
from ``_first_and_step``; ``contains`` derives them in its own body with
the same lines, so that a lookup is one Python frame.  It tests the first
probe before it reduces the stride, since about half the non-keys stop
there (a filter sized for its keys has about half its bits set), and stops
at the first clear bit.

Byte layout of a serialized filter (all integers little-endian)::

    magic   4 bytes  b"PBLM"
    version u16      currently 1
    m       u64      number of bits
    k       u32      number of hash probes
    seed    u64      hash seed
    count   u64      elements inserted so far
    bits    ceil(m / 8) bytes, bit i stored at byte i >> 3, mask 1 << (i & 7)
"""

from __future__ import annotations

import hashlib
import math
import struct

from .errors import ValidationError, as_integer, as_real

LOG2_E = math.log2(math.e)
_LN2 = math.log(2.0)
_HEADER = struct.Struct("<4sHQIQQ")
_HALVES = struct.Struct("<QQ").unpack  # a 16-byte digest as h1, h2
_MAGIC = b"PBLM"
_VERSION = 1
_MASK64 = (1 << 64) - 1


def check_seed(seed) -> int:
    """``seed`` as a Python int in [0, 2**64), else a ValidationError.

    Any integer type passes (numpy integers too, not floats), so every
    filter keys its hashes from the same 8 bytes.
    """
    seed = as_integer("seed", seed)
    if not (0 <= seed <= _MASK64):
        raise ValidationError("seed must fit in 64 bits")
    return seed


def bits_for(n_keys: int, fpr: float) -> int:
    """Bits needed to hold ``n_keys`` at the given false-positive rate.

    ``ceil(n_keys * log2(1/fpr) * log2 e)``; a rate of 1 or an empty key set
    needs no bits at all (such a region stores nothing and answers true).
    """
    n_keys, rate = as_integer("n_keys", n_keys), as_real(fpr)
    if n_keys < 0:
        raise ValidationError("n_keys must be nonnegative")
    if not (0.0 < rate <= 1.0):
        raise ValidationError(f"fpr must be in (0, 1], got {fpr!r}")
    if rate == 1.0 or n_keys == 0:
        return 0
    return math.ceil(n_keys * math.log2(1.0 / rate) * LOG2_E)


def hashes_for(n_keys: int, n_bits: int) -> int:
    """Probe count minimizing the false-positive rate: round(ln2 * m / n), at least 1."""
    n_keys, n_bits = as_integer("n_keys", n_keys), as_integer("n_bits", n_bits)
    if n_keys < 1 or n_bits < 1:
        raise ValidationError("hashes_for needs positive key and bit counts")
    return max(1, round(_LN2 * n_bits / n_keys))


class BloomFilter:
    """Fixed-size Bloom filter; never forgets an inserted element."""

    __slots__ = ("n_bits", "n_hashes", "seed", "n_inserted", "_bits", "_hasher")

    def __init__(self, n_bits: int, n_hashes: int, seed: int = 0) -> None:
        n_bits, n_hashes = as_integer("n_bits", n_bits), as_integer("n_hashes", n_hashes)
        if n_bits < 1 or n_hashes < 1:
            raise ValidationError("n_bits and n_hashes must be positive")
        self.seed = check_seed(seed)
        self.n_bits = n_bits
        self.n_hashes = n_hashes
        self.n_inserted = 0
        self._bits = bytearray((n_bits + 7) >> 3)
        self._hasher = hashlib.blake2b(digest_size=16, key=self.seed.to_bytes(8, "little"))

    @classmethod
    def for_capacity(cls, n_keys: int, fpr: float, seed: int = 0) -> "BloomFilter":
        """Size a filter for ``n_keys`` elements at target rate ``fpr``."""
        m = bits_for(n_keys, fpr)
        if m == 0:
            raise ValidationError(
                "for_capacity needs a sized filter; rate 1 or zero keys store nothing"
            )
        return cls(m, hashes_for(n_keys, m), seed)

    def _first_and_step(self, element_id: bytes | str) -> tuple[int, int]:
        """First probe position and stride of an element, both reduced mod ``n_bits``."""
        if isinstance(element_id, str):
            element_id = element_id.encode("utf-8")
        hasher = self._hasher.copy()
        hasher.update(element_id)
        h1, h2 = _HALVES(hasher.digest())
        m = self.n_bits
        return h1 % m, (h2 | 1) % m

    def insert(self, element_id: bytes | str) -> None:
        bits = self._bits
        m = self.n_bits
        pos, step = self._first_and_step(element_id)
        for _ in range(self.n_hashes):
            bits[pos >> 3] |= 1 << (pos & 7)
            pos += step
            if pos >= m:
                pos -= m
        self.n_inserted += 1

    def contains(self, element_id: bytes | str) -> bool:
        # _first_and_step's lines, inline: a lookup is one Python frame
        if isinstance(element_id, str):
            element_id = element_id.encode("utf-8")
        hasher = self._hasher.copy()
        hasher.update(element_id)
        h1, h2 = _HALVES(hasher.digest())
        m = self.n_bits
        bits = self._bits
        pos = h1 % m
        # about half the non-keys stop here, before the stride is reduced
        if not bits[pos >> 3] >> (pos & 7) & 1:
            return False
        step = (h2 | 1) % m
        # a countdown, not range(self.n_hashes - 1): query-200k read 5% lower
        # with it in 10 of 10 alternated pairs on a 2-core VM
        # (BENCH_scalar-probe.json)
        left = self.n_hashes
        while left > 1:
            pos += step
            if pos >= m:
                pos -= m
            if not bits[pos >> 3] >> (pos & 7) & 1:
                return False
            left -= 1
        return True

    @property
    def blob_length(self) -> int:
        """``len(self.to_bytes())``, without serializing the bits."""
        return _HEADER.size + len(self._bits)

    def to_bytes(self) -> bytes:
        header = _HEADER.pack(
            _MAGIC, _VERSION, self.n_bits, self.n_hashes, self.seed, self.n_inserted
        )
        return header + bytes(self._bits)

    @classmethod
    def from_bytes(cls, blob) -> "BloomFilter":
        """Rebuild a filter from :meth:`to_bytes` output or a view of it.

        The bits are copied once, straight from ``blob`` into the filter.
        """
        if len(blob) < _HEADER.size:
            raise ValidationError("truncated filter blob")
        magic, version, n_bits, n_hashes, seed, count = _HEADER.unpack_from(blob)
        if magic != _MAGIC:
            raise ValidationError(f"bad filter magic {magic!r}")
        if version != _VERSION:
            raise ValidationError(f"unsupported filter version {version}")
        expected = _HEADER.size + ((n_bits + 7) >> 3)
        if len(blob) != expected:
            raise ValidationError(
                f"filter blob length {len(blob)} does not match header ({expected})"
            )
        filt = cls(n_bits, n_hashes, seed)
        filt.n_inserted = count
        # through a view: assigning a slice of the bytearray itself would
        # first copy the bits into a temporary bytearray
        memoryview(filt._bits)[:] = memoryview(blob)[_HEADER.size:]
        return filt

    def __reduce__(self):
        # the keyed hasher cannot be pickled; the bytes rebuild it
        return BloomFilter.from_bytes, (self.to_bytes(),)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BloomFilter):
            return NotImplemented
        return (
            self.n_bits == other.n_bits
            and self.n_hashes == other.n_hashes
            and self.seed == other.seed
            and self.n_inserted == other.n_inserted
            and self._bits == other._bits
        )

    def __repr__(self) -> str:
        return (
            f"BloomFilter(n_bits={self.n_bits}, n_hashes={self.n_hashes}, "
            f"seed={self.seed}, n_inserted={self.n_inserted})"
        )
