"""Region-partitioned filter: one backing Bloom filter per planned region.

A query maps its score to a segment, the segment to a region, and asks that
region's filter about the element.  The segment-to-region map is one table,
built once per filter from the plan's boundaries; ``build_filter`` routes
a whole score array through the same table at once and then inserts each
region's keys in their input order.  Regions whose planned rate is 1 store
nothing and answer true; regions that received no keys store nothing and
answer false.  Keys always answer true: they were inserted into the filter
of the region their score falls in, and Bloom filters have no false
negatives.
"""

from __future__ import annotations

import json
import struct
from array import array
from itertools import compress

import numpy as np

from .bloom import _MASK64, BloomFilter, bits_for, check_seed, hashes_for
from .distribution import ScoreColumns, segment_indices
from .errors import ValidationError, as_integer
from .optimizer import RegionPlan, plan_from_dict, plan_to_dict

_MAGIC = b"PLBF"
_VERSION = 1
_PREFIX = struct.Struct("<4sHI")  # magic, version, header length
_SEED_STRIDE = 0x9E3779B97F4A7C15


def region_seed(seed: int, region: int) -> int:
    """Per-region hash seed: distinct regions must probe independently."""
    return (check_seed(seed) ^ ((as_integer("region", region) + 1) * _SEED_STRIDE)) & _MASK64


def _empty_kind(rate: float) -> str:
    return "always_true" if rate >= 1.0 else "always_false"


def _region_table(plan: RegionPlan) -> array:
    """Region of each segment, indexed by ``int(score * n_segments)``.

    For ``0 <= score <= 1`` the product lies in ``[0, n_segments]``.  It
    reaches ``n_segments`` only for a score of exactly 1: times the largest
    double below 1, every count up to ``MAX_SEGMENTS``, the most a plan may
    have, truncates to ``n_segments - 1``.  Entry ``n_segments`` repeats the last region, so a
    score of 1 lands where ``segment_index`` clamps it, in the last segment.

    The entry stands in for that clamp on the scalar path (``region_of``
    and ``query``), where a ``min`` per probe costs more than the lookup:
    200k lookups in a 1001-entry table took 0.022 s as ``t[int(s * n)]``
    and 0.049 s as ``t[min(int(s * n), n - 1)]`` (CPython 3.11, one Xeon
    core).  ``build_filter`` gathers at :func:`segment_indices`, which
    clamps, and never reads it.
    """
    table = array("B" if plan.n_regions <= 256 else "I")
    bounds = plan.boundaries
    for r in range(plan.n_regions):
        table.extend(array(table.typecode, [r]) * (bounds[r + 1] - bounds[r]))
    table.append(plan.n_regions - 1)
    return table


class PlbfFilter:
    """A region plan plus its backing filters.

    ``region_filters`` has one entry per region; ``None`` marks a region
    that stores nothing (rate-1 regions answer true, keyless ones false).
    Each filter must carry its region's seed and the bit and hash counts
    ``build_filter`` derives from its key count and planned rate, so every
    filter that constructs also saves to a file that loads.
    """

    __slots__ = ("plan", "seed", "region_filters", "_regions", "_n_segments")

    def __init__(
        self,
        plan: RegionPlan,
        region_filters: tuple[BloomFilter | None, ...],
        seed: int = 0,
    ) -> None:
        if len(region_filters) != plan.n_regions:
            raise ValidationError(
                f"expected {plan.n_regions} region filters, got {len(region_filters)}"
            )
        seed = check_seed(seed)
        for r, filt in enumerate(region_filters):
            if filt is None:
                continue
            if plan.fprs[r] >= 1.0:
                raise ValidationError(
                    f"region {r} has rate 1 and must not carry a filter"
                )
            _check_region_filter(filt, r, region_seed(seed, r), plan.fprs[r])
        self.plan = plan
        self.seed = seed
        self.region_filters = tuple(region_filters)
        self._regions = _region_table(plan)
        self._n_segments = plan.n_segments

    @property
    def total_bits(self) -> int:
        """Bits held by the backing filters (headers and plan excluded)."""
        return sum(f.n_bits for f in self.region_filters if f is not None)

    def region_of(self, score: float) -> int:
        if not (0.0 <= score <= 1.0):
            raise ValidationError(f"score must lie in [0, 1], got {score!r}")
        return self._regions[int(score * self._n_segments)]

    def query(self, element_id: bytes | str, score: float) -> bool:
        # region_of's range check and table lookup, inline so that a probe
        # costs one frame less; TestQueryRouting pins the two together
        if not (0.0 <= score <= 1.0):
            raise ValidationError(f"score must lie in [0, 1], got {score!r}")
        region = self._regions[int(score * self._n_segments)]
        filt = self.region_filters[region]
        if filt is None:
            return self.plan.fprs[region] >= 1.0
        return filt.contains(element_id)

    def measure_fpr(self, records) -> float:
        """Fraction of the given non-keys (columns or records) that query positive."""
        columns = ScoreColumns.from_records(records)
        if not len(columns):
            raise ValidationError("measure_fpr needs at least one record")
        if columns.is_key.any():
            key = columns.ids[int(columns.is_key.argmax())]
            raise ValidationError(f"measure_fpr expects non-keys only, got key {key!r}")
        return sum(map(self.query, columns.ids, columns.scores.tolist())) / len(columns)

    def _header(self) -> bytes:
        """The JSON header that :meth:`save` writes before the region blobs."""
        regions = []
        offset = 0
        for rate, filt in zip(self.plan.fprs, self.region_filters):
            if filt is None:
                regions.append({"kind": _empty_kind(rate), "offset": 0, "length": 0})
                continue
            regions.append({"kind": "bloom", "offset": offset, "length": filt.blob_length})
            offset += filt.blob_length
        header = {
            "n_segments": self.plan.n_segments,
            "seed": self.seed,
            "algorithm": self.plan.algorithm,
            "plan": plan_to_dict(self.plan),
            "regions": regions,
        }
        return json.dumps(header, sort_keys=True).encode("utf-8")

    def save(self, path) -> None:
        header = self._header()
        with open(path, "wb") as fh:
            fh.write(_PREFIX.pack(_MAGIC, _VERSION, len(header)))
            fh.write(header)
            for filt in self.region_filters:
                if filt is not None:
                    fh.write(filt.to_bytes())

    def __eq__(self, other) -> bool:
        if not isinstance(other, PlbfFilter):
            return NotImplemented
        return (
            self.plan == other.plan
            and self.seed == other.seed
            and self.region_filters == other.region_filters
        )

    def __repr__(self) -> str:
        stored = sum(1 for f in self.region_filters if f is not None)
        return (
            f"PlbfFilter(n_regions={self.plan.n_regions}, stored={stored}, "
            f"total_bits={self.total_bits})"
        )


def build_filter(records, plan: RegionPlan, seed: int = 0) -> PlbfFilter:
    """Insert keys (columns or records) into per-region filters sized from the plan.

    The region of every key comes from one gather of the region table at
    the keys' :func:`segment_indices`.  Each region's filter is then sized
    from the keys that fall in it and filled with them in their input
    order.  Every element must be a key; non-keys only ever inform the plan.
    """
    seed = check_seed(seed)
    columns = ScoreColumns.from_records(records)
    if not columns.is_key.all():
        non_key = columns.ids[int(columns.is_key.argmin())]
        raise ValidationError(f"build_filter expects keys only, got non-key {non_key!r}")
    regions = np.asarray(_region_table(plan))[segment_indices(columns.scores, plan.n_segments)]
    filters: list[BloomFilter | None] = []
    for r, rate in enumerate(plan.fprs):
        ids = list(compress(columns.ids, (regions == r).tolist())) if rate < 1.0 else []
        if not ids:
            filters.append(None)
            continue
        filt = BloomFilter.for_capacity(len(ids), rate, region_seed(seed, r))
        for element_id in ids:
            filt.insert(element_id)
        filters.append(filt)
    return PlbfFilter(plan, tuple(filters), seed)


def load_filter(path) -> PlbfFilter:
    """Read a filter written by :meth:`PlbfFilter.save`.

    Accepts only a file that saving the loaded filter again reproduces byte
    for byte: the header must be the one ``save`` writes for the plan, seed
    and region filters it describes, and the region blobs lie end to end in
    region order and fill the blob section exactly.  The blobs must also
    pass :class:`PlbfFilter`'s own check of each region filter.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < _PREFIX.size:
        raise ValidationError("truncated filter file")
    magic, version, header_len = _PREFIX.unpack_from(data)
    if magic != _MAGIC:
        raise ValidationError(f"bad file magic {magic!r}")
    if version != _VERSION:
        raise ValidationError(f"unsupported file version {version}")
    # one view of the file: the blobs are read from it, not sliced out of it
    body = memoryview(data)[_PREFIX.size:]
    if len(body) < header_len:
        raise ValidationError("truncated filter header")
    header_bytes = bytes(body[:header_len])
    try:
        header = json.loads(header_bytes.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValidationError(f"unreadable filter header: {exc}") from exc
    if not isinstance(header, dict):
        raise ValidationError("filter header is not a JSON object")
    try:
        plan_doc, algorithm = header["plan"], header["algorithm"]
        seed = int(header["seed"])
        entries = header["regions"]
    except KeyError as exc:
        raise ValidationError(f"filter header missing field {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"malformed filter header: {exc}") from exc
    plan = plan_from_dict(plan_doc, algorithm=algorithm)
    if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
        raise ValidationError("filter header regions must be a list of objects")
    blob_section = body[header_len:]
    filters: list[BloomFilter | None] = []
    blob_end = 0
    for r, (entry, rate) in enumerate(zip(entries, plan.fprs)):
        kind = entry.get("kind")
        if kind != "bloom":
            if kind != _empty_kind(rate):
                raise ValidationError(f"region {r} has kind {kind!r} but rate {rate!r}")
            filters.append(None)
            continue
        try:
            off, length = int(entry["offset"]), int(entry["length"])
        except KeyError as exc:
            raise ValidationError(f"region {r} entry missing field {exc}") from exc
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValidationError(f"region {r} has a malformed blob range: {exc}") from exc
        if off != blob_end:
            raise ValidationError(
                f"region {r} blob starts at {off}, expected {blob_end}"
            )
        if not (0 <= length <= len(blob_section) - off):
            raise ValidationError(f"region {r} blob range out of bounds")
        blob_end = off + length
        filters.append(BloomFilter.from_bytes(blob_section[off:blob_end]))
    if blob_end != len(blob_section):
        raise ValidationError(
            f"{len(blob_section) - blob_end} trailing bytes after the last region blob"
        )
    filt = PlbfFilter(plan, tuple(filters), seed)
    if filt._header() != header_bytes:
        raise ValidationError("filter header is not the one saving its filter writes")
    return filt


def _check_region_filter(filt: BloomFilter, r: int, seed: int, fpr: float) -> None:
    if filt.seed != seed:
        raise ValidationError(f"region {r} filter seed {filt.seed} is not the region's seed")
    n_bits = bits_for(filt.n_inserted, fpr)
    if filt.n_bits != n_bits:
        raise ValidationError(
            f"region {r} has {filt.n_bits} bits, but {filt.n_inserted} keys "
            f"at rate {fpr!r} size it at {n_bits}"
        )
    n_hashes = hashes_for(filt.n_inserted, n_bits)
    if filt.n_hashes != n_hashes:
        raise ValidationError(
            f"region {r} has {filt.n_hashes} hashes, expected {n_hashes}"
        )


__all__ = [
    "PlbfFilter",
    "build_filter",
    "load_filter",
    "region_seed",
]
