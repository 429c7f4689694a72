"""Score histograms over equal-width bins of [0, 1].

Keys are members of the set being represented, non-keys are everything
else.  Everything downstream consumes only the per-segment probability
masses (``g`` for keys, ``h`` for non-keys), so both CSV ingestion and
synthetic generation reduce to producing those two histograms.  A
:class:`SegmentedDistribution` is exactly those two vectors and the key
count; it derives its segment count and prefix sums itself.

Scored elements travel as :class:`ScoreColumns`: a list of ids beside a
float64 score array and a bool key mask.  ``read_records_csv`` parses a
file straight into columns and ``synthesize_records`` generates them, both
with array operations; ``segment_scores`` and ``write_records_csv`` take
them.  :class:`ScoreRecord` is the one-element view that iterating columns
yields; ``ScoreColumns.from_records``, the one adapter, turns records into columns.

Distributions are immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

import csv
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import compress
from math import inf
from operator import attrgetter
from typing import NoReturn

import numpy as np

from .bloom import check_seed
from .errors import ValidationError, as_integer, as_real

CSV_HEADER = ("element_id", "score", "label")


def _rng(seed: int) -> np.random.Generator:
    """PCG64 from ``seed``, so every artifact is reproducible from one integer.

    Swap draws and score jitter come from it.  ``numpy.random`` is looked up
    at the call, so ``import plbf`` does not load it.
    """
    return np.random.default_rng(seed)


def segment_index(score: float, n_segments: int) -> int:
    """Map a score in [0, 1] to its bin; the top edge folds into the last bin."""
    return min(int(score * n_segments), n_segments - 1)


def segment_indices(scores, n_segments: int) -> np.ndarray:
    """:func:`segment_index` of every score in an array, as int64 bins.

    Truncating ``score * n_segments`` as an int64 is ``int()`` on [0, 1],
    and a score of 1 folds into the last bin.
    """
    return np.minimum((np.asarray(scores) * n_segments).astype(np.int64), n_segments - 1)


@dataclass(frozen=True)
class ScoreRecord:
    """One scored element: opaque id, score in [0, 1], key/non-key label."""

    element_id: bytes | str
    score: float
    is_key: bool


@dataclass(frozen=True, eq=False)
class ScoreColumns:
    """Scored elements as three parallel columns, in input order.

    ``ids`` holds the opaque ids, ``scores`` their float64 scores and
    ``is_key`` their bool labels.  The arrays are read-only, and every
    score lies in [0, 1]: construction refuses any other score, NaN too.
    Iterating yields one :class:`ScoreRecord` per element; compare columns
    through ``list(columns)``.
    """

    ids: list
    scores: np.ndarray
    is_key: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.ids)
        if self.scores.dtype != np.float64 or self.scores.shape != (n,):
            raise ValidationError("scores must be a float64 array with one entry per id")
        if self.is_key.dtype != np.bool_ or self.is_key.shape != (n,):
            raise ValidationError("is_key must be a bool array with one entry per id")
        scores = self.scores
        # min and max propagate NaN, and unlike a mask they allocate nothing
        if not (scores.min(initial=0.0) >= 0.0 and scores.max(initial=1.0) <= 1.0):
            i = int((~((scores >= 0.0) & (scores <= 1.0))).argmax())
            raise ValidationError(
                f"record {self.ids[i]!r} has score {float(scores[i])!r} outside [0, 1]"
            )
        scores.setflags(write=False)
        self.is_key.setflags(write=False)

    @classmethod
    def from_records(cls, records) -> "ScoreColumns":
        """Columns holding the given :class:`ScoreRecord`-like items, in order.

        Columns pass through unchanged, so every consumer of scored
        elements can take either form.
        """
        if isinstance(records, ScoreColumns):
            return records
        records = list(records)
        n = len(records)
        return cls(
            list(map(attrgetter("element_id"), records)),
            np.fromiter(map(attrgetter("score"), records), np.float64, n),
            np.fromiter(map(attrgetter("is_key"), records), np.bool_, n),
        )

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self):
        return map(ScoreRecord, self.ids, self.scores.tolist(), self.is_key.tolist())

    def subset(self, mask: np.ndarray) -> "ScoreColumns":
        """The elements where the bool ``mask`` is true, in their order."""
        return ScoreColumns(list(compress(self.ids, mask.tolist())),
                            self.scores[mask], self.is_key[mask])


@dataclass(frozen=True)
class SegmentedDistribution:
    """Per-segment key and non-key probability masses with prefix sums.

    ``g[i]`` (``h[i]``) is the probability that a key (non-key) score lands in
    segment ``i`` of the equal-width bins of [0, 1].  The constructor takes
    the two mass vectors as they are, refusing only a total that overflows;
    :meth:`from_masses` validates and normalizes raw masses first.
    ``n_keys``, an int of at least 1, records how many key elements produced
    ``g``; sizing formulas need it even though the masses are normalized.

    Everything else is derived here, once: ``n_segments`` is the vectors'
    length, and the prefix arrays have ``n_segments + 1`` entries with
    ``prefix[0] == 0``; the package reads region masses from them only
    through :meth:`masses`.  All four arrays are read-only.
    """

    g: np.ndarray
    h: np.ndarray
    n_keys: int
    n_segments: int = field(init=False)
    g_prefix: np.ndarray = field(init=False)
    h_prefix: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        g, h = self.g, self.h
        if g.ndim != 1 or g.shape != h.shape or g.size < 1:
            raise ValidationError("mass vectors must be 1-D and equally sized")
        object.__setattr__(self, "n_keys", as_integer("n_keys", self.n_keys))
        if self.n_keys < 1:
            raise ValidationError(f"n_keys must be at least 1, got {self.n_keys}")
        object.__setattr__(self, "n_segments", int(g.size))
        with np.errstate(over="ignore"):
            g_prefix, h_prefix = np.cumsum(g), np.cumsum(h)
        if not (np.isfinite(g_prefix[-1]) and np.isfinite(h_prefix[-1])):
            raise ValidationError("mass vectors must have finite totals")
        object.__setattr__(self, "g_prefix", np.concatenate(([0.0], g_prefix)))
        object.__setattr__(self, "h_prefix", np.concatenate(([0.0], h_prefix)))
        for arr in (g, h, self.g_prefix, self.h_prefix):
            arr.setflags(write=False)

    def masses(self, lo, hi, out=None, runs=None):
        """Key and non-key masses of the regions of 1-based segments lo+1..hi.

        ``lo`` and ``hi`` are numpy indices into the prefix arrays (ints,
        index arrays, or slices, which make views rather than copies), and
        the result broadcasts: ``g_prefix[hi] - g_prefix[lo]`` and the same
        for ``h``.  Given ``out``, a pair of float64 arrays of the broadcast
        shape, the two differences are written there and that pair is
        returned.

        Given ``runs``, the run form: ``lo`` is a 1-D index array and ``hi``
        holds one index per run of ``runs[i]`` consecutive entries of ``lo``,
        so each ``hi`` entry is read once and repeated across its run.

        Given ``hi=None``, the boundary form: ``lo`` holds boundaries along
        its first axis, and region i runs from ``lo[i]`` to ``lo[i + 1]``,
        so each boundary is read once; the masses have one row fewer.
        """
        gp, hp = self.g_prefix, self.h_prefix
        if hi is None:
            return np.diff(gp[lo], axis=0), np.diff(hp[lo], axis=0)
        if runs is not None:
            g, h = gp[hi].repeat(runs), hp[hi].repeat(runs)
            g -= gp[lo]
            h -= hp[lo]
            return g, h
        if out is None:
            return gp[hi] - gp[lo], hp[hi] - hp[lo]
        np.subtract(gp[hi], gp[lo], out=out[0])
        np.subtract(hp[hi], hp[lo], out=out[1])
        return out

    @classmethod
    def from_masses(
        cls,
        key_mass,
        nonkey_mass,
        n_keys: int,
        *,
        normalize: bool = True,
    ) -> "SegmentedDistribution":
        """Build from raw nonnegative mass vectors with finite totals.

        With ``normalize`` (the default) each vector is scaled to sum to 1;
        callers passing already-normalized masses can switch it off to keep
        their floats bit-exact.
        """
        g = np.array(key_mass, dtype=np.float64)
        h = np.array(nonkey_mass, dtype=np.float64)
        # the constructor checks this too; here it comes before the value checks
        if g.ndim != 1 or g.shape != h.shape or g.size < 1:
            raise ValidationError("mass vectors must be 1-D and equally sized")
        if not (np.isfinite(g).all() and np.isfinite(h).all()):
            raise ValidationError("mass vectors must be finite")
        if (g < 0).any() or (h < 0).any():
            raise ValidationError("mass vectors must be nonnegative")
        if normalize:
            with np.errstate(over="ignore"):
                gs, hs = g.sum(), h.sum()
            if not (np.isfinite(gs) and np.isfinite(hs)):
                raise ValidationError("mass vectors must have finite totals")
            if gs <= 0 or hs <= 0:
                raise ValidationError("each mass vector needs positive total mass")
            g = g / gs
            h = h / hs
        return cls(g, h, n_keys)


def segment_scores(records, n_segments: int) -> SegmentedDistribution:
    """Bin scored elements into ``n_segments`` equal-width histograms.

    ``records`` is :class:`ScoreColumns` or an iterable of records.  Raises
    distinct validation errors when the key side or the non-key side is
    empty.  Scores fall into bins by :func:`segment_indices`.
    """
    n_segments = as_integer("n_segments", n_segments)
    if n_segments < 2:
        raise ValidationError("n_segments must be at least 2")
    columns = ScoreColumns.from_records(records)
    bins = segment_indices(columns.scores, n_segments)
    counts = np.bincount(bins + n_segments * columns.is_key, minlength=2 * n_segments)
    nonkey_counts, key_counts = counts[:n_segments], counts[n_segments:]
    n_keys = int(key_counts.sum())
    n_nonkeys = int(nonkey_counts.sum())
    if n_keys == 0:
        raise ValidationError("no key records: at least one record must have label 1")
    if n_nonkeys == 0:
        raise ValidationError("no non-key records: at least one record must have label 0")
    return SegmentedDistribution(key_counts / n_keys, nonkey_counts / n_nonkeys, n_keys)


def is_ideal(dist: SegmentedDistribution) -> bool:
    """True when key/non-key mass ratios are non-decreasing across segments.

    Compared cross-multiplied (g[i]*h[i+1] <= g[i+1]*h[i]) so segments with
    zero non-key mass need no special casing.
    """
    g, h = dist.g, dist.h
    return bool(np.all(g[:-1] * h[1:] <= g[1:] * h[:-1]))


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters for the synthetic workload generator.

    Key mass per segment is proportional to rank**(-zipf_exponent), arranged
    non-decreasing across segments; non-key mass mirrors it non-increasing.
    ``n_swaps`` then exchanges adjacent segments at uniformly drawn positions,
    which dials in how far the artifact sits from the ideal shape.  The
    counts are integers, stored as ints (numpy integers pass), the seed is
    one :func:`bloom.check_seed` takes, and the exponent a positive, finite
    real, stored as a float.
    """

    n_segments: int
    n_keys: int
    n_nonkeys: int
    zipf_exponent: float = 1.0
    n_swaps: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("n_segments", "n_keys", "n_nonkeys", "n_swaps"):
            object.__setattr__(self, name, as_integer(name, getattr(self, name)))
        if self.n_segments < 2:
            raise ValidationError("n_segments must be at least 2")
        if self.n_keys < 1 or self.n_nonkeys < 1:
            raise ValidationError("n_keys and n_nonkeys must be positive")
        object.__setattr__(self, "zipf_exponent", as_real(self.zipf_exponent))
        if not (0.0 < self.zipf_exponent < inf):
            raise ValidationError("zipf_exponent must be a positive, finite real")
        if self.n_swaps < 0:
            raise ValidationError("n_swaps must be nonnegative")
        object.__setattr__(self, "seed", check_seed(self.seed))


def _zipf_base(n_segments: int, exponent: float) -> tuple[np.ndarray, np.ndarray]:
    """Masses proportional to rank**(-exponent), bit for bit whatever numpy's SIMD dispatch.

    numpy's power loop rounds otherwise under AVX-512; Python's ``pow`` per rank gives
    its bits with AVX-512 off, and ``1.0 / ranks`` its ``** -1.0`` on both.
    """
    if exponent == 1:
        weights = 1.0 / np.arange(1, n_segments + 1, dtype=np.float64)
    else:
        weights = np.fromiter((pow(r, -exponent) for r in range(1, n_segments + 1)), np.float64)
    weights /= weights.sum()
    return weights[::-1].copy(), weights.copy()  # keys ascending, non-keys descending


def _swap_adjacent(rng, n_swaps: int, *columns: list) -> None:
    """Exchange entries i and i + 1 of every column at ``n_swaps`` spots ``rng`` draws."""
    for i in rng.integers(0, len(columns[0]) - 1, size=n_swaps).tolist():
        for col in columns:
            col[i], col[i + 1] = col[i + 1], col[i]


def zipfian_distribution(spec: SyntheticSpec) -> SegmentedDistribution:
    """Analytic Zipf-over-segments masses, optionally perturbed by swaps.

    Deterministic for a fixed spec; with ``n_swaps == 0`` the result always
    satisfies :func:`is_ideal`.
    """
    g, h = _zipf_base(spec.n_segments, spec.zipf_exponent)
    dist = SegmentedDistribution(g, h, spec.n_keys)
    if spec.n_swaps:
        dist = apply_swaps(dist, spec.n_swaps, spec.seed)
    return dist


def apply_swaps(dist: SegmentedDistribution, n_swaps: int, seed: int) -> SegmentedDistribution:
    """Exchange the (g, h) pairs of adjacent segments at seeded random spots.

    Each swap picks i uniformly from {0, .., n_segments - 2} and exchanges
    segments i and i + 1 wholesale, so the multiset of (g, h) pairs is
    preserved.  ``n_swaps == 0`` returns the input unchanged.
    """
    n_swaps, seed = as_integer("n_swaps", n_swaps), check_seed(seed)
    if n_swaps < 0:
        raise ValidationError("n_swaps must be nonnegative")
    if n_swaps == 0:
        return dist
    g = dist.g.tolist()
    h = dist.h.tolist()
    _swap_adjacent(_rng(seed), n_swaps, g, h)
    return SegmentedDistribution(np.asarray(g, dtype=np.float64),
                                 np.asarray(h, dtype=np.float64), dist.n_keys)


def _apportion(total: int, masses: np.ndarray) -> np.ndarray:
    """Split ``total`` into integer counts proportional to ``masses``.

    Largest-remainder rounding; remainder ties go to the lowest index so the
    result is deterministic.
    """
    quotas = masses * total
    counts = np.floor(quotas).astype(np.int64)
    short = total - int(counts.sum())
    if short:
        order = np.argsort(-(quotas - counts), kind="stable")
        counts[order[:short]] += 1
    return counts


def synthesize_records(spec: SyntheticSpec) -> ScoreColumns:
    """Materialize a synthetic workload as scored columns, keys first.

    Counts per segment are apportioned from the analytic masses and nudged
    monotone (ascending keys, descending non-keys) before any swaps, so an
    unswapped artifact re-binned at ``spec.n_segments`` is ideal by
    construction rather than only in expectation.  Swaps then move the
    contents of adjacent segments, drawn from the same positions
    :func:`apply_swaps` would use for this seed.
    """
    g, h = _zipf_base(spec.n_segments, spec.zipf_exponent)
    key_counts = np.sort(_apportion(spec.n_keys, g)).tolist()
    nonkey_counts = np.sort(_apportion(spec.n_nonkeys, h))[::-1].tolist()
    rng = _rng(spec.seed)
    if spec.n_swaps:
        _swap_adjacent(rng, spec.n_swaps, key_counts, nonkey_counts)
    keys = _fill_segments(rng, key_counts, spec.n_segments, True, "k")
    nonkeys = _fill_segments(rng, nonkey_counts, spec.n_segments, False, "q")
    return ScoreColumns(keys.ids + nonkeys.ids, np.concatenate((keys.scores, nonkeys.scores)),
                        np.concatenate((keys.is_key, nonkeys.is_key)))


def sample_records(
    dist: SegmentedDistribution,
    n_keys: int,
    n_nonkeys: int,
    seed: int,
    *,
    nonkey_prefix: str = "q",
) -> list[ScoreRecord]:
    """Draw iid records from a distribution (multinomial over segments).

    Unlike :func:`synthesize_records` this is plain sampling: the empirical
    histogram only approaches ``dist`` as the counts grow.  Useful for
    held-out evaluation sets.  Key ids start with ``k``.  Returns a list,
    not columns, so callers can concatenate it with other lists of records.
    """
    n_keys, n_nonkeys = as_integer("n_keys", n_keys), as_integer("n_nonkeys", n_nonkeys)
    if n_keys < 0 or n_nonkeys < 0:
        raise ValidationError("n_keys and n_nonkeys must be nonnegative")
    rng = _rng(check_seed(seed))
    out: list[ScoreRecord] = []
    if n_keys:
        counts = rng.multinomial(n_keys, dist.g / dist.g.sum())
        out.extend(_fill_segments(rng, counts, dist.n_segments, True, "k"))
    if n_nonkeys:
        counts = rng.multinomial(n_nonkeys, dist.h / dist.h.sum())
        out.extend(_fill_segments(rng, counts, dist.n_segments, False, nonkey_prefix))
    return out


def _fill_segments(rng, counts, n_segments, is_key, prefix) -> ScoreColumns:
    """``counts[s]`` elements scored uniformly in segment ``s``; one draw of all offsets."""
    seg = np.repeat(np.arange(n_segments), counts)
    scores = (seg + rng.random(seg.size)) / n_segments
    # Float rounding can put a score just outside its bin; nudge it toward the centre.
    while (out := np.flatnonzero(segment_indices(scores, n_segments) != seg)).size:
        scores[out] = np.nextafter(scores[out], (seg[out] + 0.5) / n_segments)
    ids = [f"{prefix}{serial:08d}" for serial in range(seg.size)]
    return ScoreColumns(ids, scores, np.full(seg.size, is_key))


def read_records_csv(path) -> ScoreColumns:
    """Parse ``element_id,score,label`` rows into columns; label 1 marks keys.

    Rows stream into three lists with no object kept per row; the scores
    are then parsed and the rows checked in bulk.  Malformed rows raise a
    validation error naming the first bad row's line, as the csv module
    counts lines (a quoted id spanning lines advances the count).  A
    header-only file yields empty columns.
    """
    with _open_csv(path) as reader:
        ids, score_texts, labels = [], [], []
        add_id, add_score, add_label = ids.append, score_texts.append, labels.append
        try:
            for element_id, score_text, label in reader:
                add_id(element_id)
                add_score(score_text)
                add_label(label)
        except (ValueError, csv.Error):  # not three fields, not UTF-8, or too long a field
            _raise_first_bad_row(path)
    try:
        scores = np.fromiter(map(float, score_texts), np.float64, len(score_texts))
    except ValueError:
        _raise_first_bad_row(path)
    del score_texts  # the score strings outweigh the parsed array; free them first
    if not set(labels) <= {"0", "1"}:
        _raise_first_bad_row(path)
    # each label is now one ASCII character, so the joined bytes line up with the rows
    is_key = np.frombuffer("".join(labels).encode("ascii"), np.uint8) == ord("1")
    try:
        return ScoreColumns(ids, scores, is_key)
    except ValidationError:  # a score outside [0, 1]
        _raise_first_bad_row(path)


@contextmanager
def _open_csv(path):
    """A csv reader over ``path`` positioned after its checked header.

    Bytes that are not UTF-8, and rows the csv module rejects (such as a
    field longer than ``csv.field_size_limit()``), raise a validation error.
    """
    try:
        fh = open(path, "r", newline="", encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise ValidationError(f"{path}: empty file, expected header "
                                      f"{','.join(CSV_HEADER)}")
            if tuple(header) != CSV_HEADER:
                raise ValidationError(
                    f"{path}: bad header {header!r}, expected {list(CSV_HEADER)}"
                )
            yield reader
        except UnicodeDecodeError as exc:
            bad = exc.object[exc.start : exc.end]
            raise ValidationError(f"{path}: not UTF-8 text ({exc.reason}: {bad!r})") from None
        except csv.Error as exc:
            raise ValidationError(f"{path}:{reader.line_num}: {exc}") from None


def _raise_first_bad_row(path) -> NoReturn:
    """Re-read ``path`` row by row and raise the error of its first bad row."""
    with _open_csv(path) as reader:
        for row in reader:
            line = reader.line_num
            if len(row) != 3:
                raise ValidationError(f"{path}:{line}: expected 3 fields, got {len(row)}")
            element_id, score_text, label = row
            try:
                score = float(score_text)
            except ValueError:
                raise ValidationError(f"{path}:{line}: score {score_text!r} is not a number") from None
            if not (0.0 <= score <= 1.0):
                raise ValidationError(
                    f"{path}:{line}: record {element_id!r} has score {score} outside [0, 1]"
                )
            if label not in ("0", "1"):
                raise ValidationError(f"{path}:{line}: label must be 0 or 1, got {label!r}")
    raise ValidationError(f"{path}: file changed while it was read")


def write_records_csv(path, records) -> None:
    """Write columns or records as ``element_id,score,label`` rows; bytes ids as UTF-8."""
    columns = ScoreColumns.from_records(records)
    ids = (i.decode("utf-8") if isinstance(i, bytes) else i for i in columns.ids)
    labels = np.where(columns.is_key, "1", "0").tolist()
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        writer.writerows(zip(ids, map(repr, columns.scores.tolist()), labels))
