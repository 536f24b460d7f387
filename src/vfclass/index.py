"""Embedded caption corpus: build, query, and persist.

The index stores unit-normalized caption vectors, so inner product equals
cosine similarity. Two search structures are available:

- ``flat``: exact scan over all rows (the correctness baseline).
- ``partitioned``: an inverted-list layout whose partition centroids are
  learned by seeded k-means; queries probe the nearest partitions, and
  ``probes="all"`` recovers exact results.

The partitioned build picks farthest-point seeds by inner product (on unit
rows the farthest row is the one least similar to every seed so far), runs
``KMEANS_ITERS`` Lloyd steps, and lists each partition's members in
ascending row order. Seeding and every assignment are float32 products over
the unit float32 rows the build already holds, so no float64 copy of them is
made: a step is one product of the rows with ``-2 C``, plus the squared
centroid norms, into one (rows x partitions) buffer that every step reuses,
then an argmin. The centroids ``C`` are float64: one stable argsort of a
step's assignments gives each partition its rows as one ascending slice, and
each centroid is the float64 mean of its rows. A row almost equidistant from
two centroids may take the other one than float64 products would give it
(71 of corpus-partitioned's 100k rows in 32 partitions, and 121 of 50k
isotropic rows in 256). A partition that empties is reseeded during
refinement, each empty one in a step onto its own farthest row, but may
still end empty after the final assignment.

Records are kept in ascending-id order, so builds ignore input order and
row order is id order: score ties break by row, that is, by ascending id.

An index is immutable: its fields cannot be replaced, and
``dataclasses.replace`` derives a new index, which makes its own scan copy
and starts with an empty ``row_tokens`` memo (the candidate tokens of the
rows queries hit; see ``scoring``).

Retrieval scans in float32 and decides in float64, with one cut per
window of queries (:func:`retrieve_topk` is a window of one).
``index.vectors`` stays in id order, and the scan layout reads it through
its scan order: partition order, a flat index's one list in row order.
Each probed list is scanned by one float32 product over the window's
queries that probe it, ``Q @ C`` for the list's (width x rows) block of
columns ``C`` (the inverted-file layout). A partitioned index copies each
list's rows column-major, each list one C-contiguous block, on its first
full-width scan (n * dim * 4 bytes); a flat index's rows are already in
scan order, so its block is the transpose of ``index.vectors`` in place,
and the product is ``V @ Q.T``: either way BLAS gets the rows as they lie.
Column-major reads fastest, or as fast, at the projected width (below), and
for one query at full width, as a partitioned index's full-width scan
mostly is; row-major reads fastest for several queries at full width, as a
flat index's one list, probed by every query of a window, is (README's
retrieval notes give the measured products). The window's float32 scores
are one (queries x rows) array, each query's lists end to end and padded
with -inf to the longest.

Each scan pass keeps the (query, scan position) pairs whose float32 score
reaches the query's :func:`_floor`, one rule for every pass: a float64
value at most each of the query's top-k scores, less the pass's proven
bound, rounded to a float32 and one step down. :func:`_scan` then cuts the
window once, over the pairs of every pass: one gather and one row-wise
``einsum`` rescore them in float64, and one ``np.lexsort`` by (query,
-score, row) orders them, so each query's first k are exactly its float64
brute-force top k. The rescore is a row-wise ``einsum`` and not a BLAS
product: a row's float64 score is the same bits whichever pass or window
kept it. A window gives each query its hits as two arrays, rows and
scores; :func:`retrieved` makes them captions.

An index of at least ``PROJECT_MIN`` rows x dim values first scans a
projected copy of its rows (a lower-dimensional filter with a proven
bound, refined exactly). On the first query that needs it, the scan layout
takes an orthonormal basis ``P`` (dim x width) from an SVD of
``PROJECT_SAMPLE`` rows taken at a stride: the fewest singular vectors
that hold half of the sample's energy, rounded up so that a projected row
is a whole number of 16-byte words (width 51 of 128 on the seeded 100k x
128 corpus). It stores each row, in scan order, as the float32 column
``[P.T x | ||x - P P.T x||]`` of its list's column-major block: n *
(width + 1) * 4 bytes more (20.8 MB for that corpus), made once in about
0.1 s. The product of such a column with the query's own projected row
bounds the row's score from above, to within the float32 error of
:func:`_projected_bound`, which counts ``P``'s measured departure from
orthonormality. The window's nearest lists, one per query, are scanned
first as one window: the floor's value is the lowest float64 score of a
query's k rows of highest upper bound, and its bound is that error. The
nearest list alone decides: a query that keeps more than
``FALLBACK_SHARE`` of its nearest list's rows, or whose nearest list has
fewer than k rows and so gives no floor, falls back to the full-width
scan (where the bound prunes nothing, a partitioned query so scans one
projected list more; a flat index's nearest list is all of it). The
others scan their other probed lists as a second window. The one cut
takes the kept pairs of both windows and the full-width pairs of the
queries that fell back. An index of fewer than ``PROJECT_MIN_DIM``
dimensions scans its full-width rows only.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .embedding import (
    _embed_chunks,
    _Reader,
    as_vector,
    body_crc,
    check_count,
    check_flag,
    is_count,
    pack_string,
    read_store_payload,
    row_norms,
    store_payload,
    write_file,
)
from .errors import (
    CorruptFileError,
    DimensionMismatchError,
    DuplicateIdError,
    EmptyCorpusError,
    EmptyIndexError,
    EmptyInputError,
    ZeroVectorError,
)

INDEX_MAGIC = b"VFCI"
INDEX_VERSION = 1
STRUCTURE_FLAT = 0
STRUCTURE_PARTITIONED = 1

KMEANS_ITERS = 25
DEFAULT_PROBES = 8
# values one block holds at most: a retrieval window's float32 scores, or rows
# x dim of a scan copy's step, of the oracle's rescore or of score/fuse
SCAN_BLOCK = 1 << 20
# an index of fewer rows x dim values (16 MiB of float32 rows) scans its
# full-width rows only: below it, the rows a query scans were not read faster
# through the projection (seeded clusters of 50 rows, 32 lists, probes 8,
# one thread: partitioned 16k x 128 took 58 -> 69 us/query and 100k x 32
# 80 -> 104; partitioned 64k x 128 213 -> 151, and flat 32k x 256 340 -> 150)
PROJECT_MIN = 1 << 22
# an index of fewer dimensions scans its full-width rows only, however many
# rows it has: its rows are narrow enough that the pruned scan's fixed cost
# per query outweighs the bytes it saves (200k rows in clusters of 50, 32
# lists, probes 8, windows of 8, one thread, hits equal on both paths:
# full-width against projected 200 -> 249 us/query at d=32, 206 -> 218 at
# d=36, 280 -> 238 at d=40, 336 -> 245 at d=48, 403 -> 291 at d=64)
PROJECT_MIN_DIM = 40
PROJECT_SAMPLE = 4096  # rows, taken at a stride, whose SVD gives the basis
# a query keeping more of its scanned rows than this falls back to the
# full-width scan: a kept row costs a gather and a float64 rescore, 17 times
# a row of the full-width float32 scan (25k of 100k x 128 rows, one thread),
# so at this share the two cost about the same
FALLBACK_SHARE = 1 / 16


@dataclass(frozen=True)
class CaptionRecord:
    """One corpus entry: unique id, raw text, and a source tag."""

    id: str
    text: str
    source: str = ""


@dataclass
class RetrievedCaption:
    record: CaptionRecord
    score: float
    row: int  # position of the record in the index


@dataclass(frozen=True)
class _ScanLayout:
    """The scan order of an index's ``vectors``: scan position ``i`` holds
    index row ``rows[i]``, and partition ``c`` is scan positions
    ``offsets[c]`` to ``offsets[c + 1]``; ``max_norm`` is the largest row
    norm."""

    vectors: np.ndarray
    rows: np.ndarray
    offsets: list[int]
    max_norm: float

    @cached_property
    def columns(self) -> list[np.ndarray]:
        """Each list's full-width rows as a (dim x rows) array, for
        :class:`_Window`. Rows already in scan order (a flat index) are
        scanned in place, as the transpose of the row-major rows; other
        rows are copied column-major by :func:`_columns` on the first
        full-width scan."""
        if np.array_equal(self.rows, np.arange(len(self.rows))):
            return [self.vectors.T[:, a:b] for a, b in zip(self.offsets, self.offsets[1:])]
        return _columns(self.vectors, self.rows, self.offsets, self.vectors.shape[1],
                        lambda rows: rows)

    @cached_property
    def projection(self) -> _Projection:
        """The projected copy of the rows, made on the first query that
        scans it."""
        return _Projection.of(self.vectors, self.rows, self.offsets,
                              _basis(self.vectors, self.rows), self.max_norm)


def _per_block(size: int) -> int:
    """How many items of ``size`` values each one block holds: at most
    ``SCAN_BLOCK`` values, and at least one item."""
    return max(1, SCAN_BLOCK // max(1, size))


def _columns(vectors: np.ndarray, rows: np.ndarray, offsets: list[int], width: int,
             convert) -> list[np.ndarray]:
    """Each list of a scan layout as one C-contiguous (width x rows)
    float32 block, a column per row in scan order: ``convert`` of that row
    of ``vectors``, which it gets a block of rows at a time, so no float64
    copy of them all is made. Each list is a block of its own, not a slice
    of one array of all the lists: with 128 columns, such a slice took up
    to 1.9 times as long per product of 3 to 8 queries."""
    step = _per_block(vectors.shape[1])
    blocks = []
    for start, stop in zip(offsets, offsets[1:]):
        block = np.empty((width, stop - start), dtype=np.float32)
        for at in range(start, stop, step):
            block[:, at - start : at - start + step] = convert(
                vectors[rows[at : min(at + step, stop)]]).T
        blocks.append(block)
    return blocks


@dataclass(frozen=True)
class _Projection:
    """The rows of a scan layout as ``[P.T @ x | ||x - P @ P.T @ x||]`` in
    float32, a column-major block per list as :func:`_columns` makes them,
    for an orthonormal basis ``P`` (dim x width, float64), and the bound of
    :func:`_projected_bound` on what the product of :meth:`queries` with
    such a column may fall short of the row's float64 score."""

    basis: np.ndarray
    columns: list[np.ndarray]
    bound: float

    @classmethod
    def of(cls, vectors: np.ndarray, rows: np.ndarray, offsets: list[int],
           basis: np.ndarray, max_norm: float) -> _Projection:
        width = basis.shape[1]
        # PᵀP - I is measured, not assumed, and so is the float64 rounding
        # of that product (each entry errs by at most dim * 2**-53)
        eta = (np.linalg.norm(basis.T @ basis - np.eye(width))
               + width * basis.shape[0] * 2.0**-52)
        columns = _columns(vectors, rows, offsets, width + 1,
                           lambda chunk: _project(chunk.astype(np.float64), basis))
        return cls(basis, columns, _projected_bound(width, eta, max_norm))

    def queries(self, queries: np.ndarray) -> np.ndarray:
        """The float32 rows ``[P.T @ q | ||q - P @ P.T @ q||]`` of ``queries``."""
        return _project(queries, self.basis).astype(np.float32)


def _project(x: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """``[x @ P | ||x - x @ P @ P.T||]`` in float64; the residual is formed,
    not taken as ``||x||² - ||x @ P||²``, which cancels for rows near the
    span of ``P``."""
    low = x @ basis
    return np.hstack([low, np.linalg.norm(x - low @ basis.T, axis=1)[:, None]])


def _basis(vectors: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The top right singular vectors of ``PROJECT_SAMPLE`` of ``vectors``'
    ``rows``, taken in scan order at a stride: the fewest that hold at least
    half of the sample's energy, and then more, up to 3 short of a multiple
    of 4, so that a projected row (with its residual column) is a whole
    number of 16-byte words."""
    sample = vectors[rows[:: max(1, len(rows) // PROJECT_SAMPLE)]].astype(np.float64)
    _, sigma, vt = np.linalg.svd(sample, full_matrices=False)
    energy = np.cumsum(sigma**2)
    half = int(np.searchsorted(energy, energy[-1] / 2)) + 1
    return np.ascontiguousarray(vt[: -(-(half + 1) // 4) * 4 - 1].T)


@dataclass(frozen=True)
class CaptionIndex:
    """Immutable search structure over an embedded corpus."""

    dim: int
    records: list[CaptionRecord]
    vectors: np.ndarray  # count x dim float32, unit rows
    structure: str = "flat"
    centroids: np.ndarray | None = None
    partitions: list[np.ndarray] = field(default_factory=list)
    provider_identity: str = ""

    def __len__(self) -> int:
        return len(self.records)

    @property
    def num_partitions(self) -> int:
        return len(self.partitions)

    @cached_property
    def row_tokens(self) -> dict[tuple, dict[int, tuple]]:
        """The memo of candidate stages 1-2: stage-1/2 settings -> {row:
        the row's interned tokens}, filled on the query path one hit row at
        a time."""
        return {}

    @cached_property
    def _layout(self) -> _ScanLayout:
        """The scan order of the rows, made on the first query; a flat index
        is one list."""
        lists = [np.arange(len(self))] if self.structure == "flat" else self.partitions
        rows = np.concatenate([np.empty(0, np.int64), *lists])
        max_norm = float(np.sqrt(_squared_norms(self.vectors).max(initial=0.0)))
        return _ScanLayout(self.vectors, rows,
                           [0, *np.cumsum([m.size for m in lists]).tolist()], max_norm)


def _embed_records(records: list[CaptionRecord], provider) -> np.ndarray:
    """Unit float32 rows for ``records``, embedded a chunk at a time."""
    def embed(chunk):
        texts = [r.text for r in chunk]
        if hasattr(provider, "embed_records"):
            return provider.embed_records([r.id for r in chunk], texts)
        return provider.embed_texts(texts)

    out, start = None, 0
    for matrix in _embed_chunks(embed, records, "record embeddings", provider.dim):
        chunk = records[start : start + len(matrix)]
        norms = row_norms(matrix, [r.id for r in chunk], "record embeddings")
        if out is None:  # a remote client learns its dim from the first reply
            out = np.empty((len(records), matrix.shape[1]), dtype=np.float32)
        np.divide(matrix, norms[:, None], out=out[start : start + len(chunk)])
        start += len(chunk)
    return out


def _partition(
    vectors: np.ndarray, k: int, seed: int
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Seeded k-means over the unit float32 ``vectors``: float32 products
    for seeding and assignment, float64 centroid means (see the module
    docstring). Returns (float64 centroids, ascending member rows per
    partition)."""
    n = vectors.shape[0]
    k = min(k, n)  # at most one partition per row
    chosen = [int(np.random.default_rng(seed).integers(n))]
    # farthest-point seeds: rows are unit, so ||x - c||^2 = 2 - 2 x.c and the
    # farthest row is the one whose highest inner product with a seed is lowest
    nearest = vectors @ vectors[chosen[0]]
    while len(chosen) < k:
        nxt = int(np.argmin(nearest))  # argmin takes the lowest index on ties
        chosen.append(nxt)
        np.maximum(nearest, vectors @ vectors[nxt], out=nearest)
    centroids = vectors[chosen].astype(np.float64)
    d2 = np.empty((n, k), dtype=np.float32)  # one buffer for every step
    for step in range(KMEANS_ITERS + 1):
        # squared distance: ||x||^2 - 2 x.c + ||c||^2; rows are unit so the
        # first term is constant and can be dropped from the argmin
        np.matmul(vectors, (-2.0 * centroids).T.astype(np.float32), out=d2)
        d2 += np.einsum("ij,ij->i", centroids, centroids).astype(np.float32)
        assign = np.argmin(d2, axis=1)
        # a stable sort gives each partition its rows as one ascending slice;
        # on the narrowest integer type that holds k, numpy sorts by radix
        order = np.argsort(assign.astype(np.min_scalar_type(k)), kind="stable")
        partitions = np.split(order, np.cumsum(np.bincount(assign, minlength=k))[:-1])
        if step == KMEANS_ITERS:
            return centroids, partitions
        spread = None
        for c, members in enumerate(partitions):
            if spread is not None:  # drop the rows an earlier reseed took
                members = members[assign[members] == c]
            if members.size:
                # members are rows by construction: "clip" skips the bounds check
                rows = vectors.take(members, axis=0, mode="clip")
                centroids[c] = rows.mean(axis=0, dtype=np.float64)
            else:
                # reseed an empty partition with the point farthest from its
                # centroid that no other partition took in this step
                # (deterministic: lowest index wins)
                if spread is None:
                    spread = d2[np.arange(n), assign]
                far = int(np.argmax(spread))
                spread[far] = -np.inf
                centroids[c] = vectors[far]
                assign[far] = c


def build_index(
    records,
    provider,
    structure: str = "flat",
    num_partitions: int = 16,
    seed: int = 42,
    dedup: bool = False,
) -> CaptionIndex:
    """Embed ``records`` via ``provider`` and assemble a searchable index.

    Records are validated (non-empty corpus, unique non-empty ids, non-blank
    text), sorted by id, optionally deduplicated on identical text, embedded,
    and normalized. ``structure="partitioned"`` additionally learns
    ``num_partitions`` centroids (an ``int`` >= 1, clamped to one per record)
    by k-means seeded with ``seed`` (an ``int`` >= 0).
    """
    if structure not in ("flat", "partitioned"):
        raise EmptyInputError(f"unknown index structure {structure!r}")
    if structure == "partitioned":
        check_count(num_partitions, "num_partitions")
    check_count(seed, "seed", low=0)
    check_flag(dedup, "dedup")
    records = list(records)
    if not records:
        raise EmptyCorpusError("cannot build an index from an empty corpus")
    seen: set[str] = set()
    for rec in records:
        if not rec.id:
            raise DuplicateIdError("record with empty id")
        if rec.id in seen:
            raise DuplicateIdError(f"duplicate record id {rec.id!r}")
        seen.add(rec.id)
        if not rec.text.strip():
            raise EmptyCorpusError(f"record {rec.id!r} has empty text")
    records.sort(key=lambda r: r.id)
    if dedup:
        kept: list[CaptionRecord] = []
        texts_seen: set[str] = set()
        for rec in records:
            if rec.text in texts_seen:
                continue
            texts_seen.add(rec.text)
            kept.append(rec)
        records = kept

    vectors = _embed_records(records, provider)
    centroids, partitions = None, []
    if structure == "partitioned":
        centroids, partitions = _partition(vectors, num_partitions, seed)
    return CaptionIndex(
        dim=provider.dim, records=records, vectors=vectors, structure=structure,
        centroids=centroids, partitions=partitions,
        provider_identity=getattr(provider, "identity", ""),
    )


def check_query(index: CaptionIndex, query, k: int) -> np.ndarray:
    """The unit float64 vector of ``query``, checked against ``index`` and
    ``k``."""
    if len(index) == 0:
        raise EmptyIndexError("index contains no records")
    check_count(k, "k")
    q = as_vector(query, "query")
    if q.shape[0] != index.dim:
        raise DimensionMismatchError(
            f"query dim {q.shape[0]} != index dim {index.dim}"
        )
    # normalize(q) would check q again
    norm = float(np.linalg.norm(q))
    if norm == 0.0:
        raise ZeroVectorError("cannot normalize a zero vector")
    return q / norm


def check_probes(probes) -> None:
    """Accept None (the default), "all" or an ``int`` >= 1 that is not a
    ``bool``; any other value is an :class:`EmptyInputError`."""
    if not (probes is None or probes == "all" or is_count(probes)):
        raise EmptyInputError(
            f"probes must be 'all' or an integer >= 1, got {probes!r}"
        )


def _squared_norms(vectors: np.ndarray) -> np.ndarray:
    """Each row's squared norm, summed in float64; einsum casts the rows
    through its own small buffer, so no float64 copy of them is made."""
    return np.einsum("ij,ij->i", vectors, vectors, dtype=np.float64)


def _score_bound(dim: int, max_norm: float) -> float:
    """Bound on ``|s32 - s64|`` for every row ``x`` with ``||x|| <= max_norm``.

    ``s32`` is the float32 product of ``x`` with ``q32``, the unit float64
    query ``q`` rounded to float32; ``s64`` is the float64 product of ``x``
    with ``q``. With ``u = 2**-24`` and ``g(n) = n*u / (1 - n*u)`` (Higham,
    *Accuracy and Stability of Numerical Algorithms*, 2002, sec. 3.1):

    - rounding ``q`` moves each ``q_j`` by at most ``u*|q_j|``, so
      ``|x.q32 - x.q| <= u * sum|x_j q_j|``;
    - a float32 dot product of length ``dim``, in any summation order and
      with or without fused multiply-add, errs by at most
      ``g(dim) * sum|x_j q32_j| <= g(dim) * (1 + u) * sum|x_j q_j|``;
    - ``u + g(dim) * (1 + u) <= g(dim + 1)``, and by Cauchy-Schwarz
      ``sum|x_j q_j| <= ||x|| * ||q||``;
    - the float64 product errs by at most ``dim * 2**-53 / (1 - dim * 2**-53)``,
      below ``u / 2`` for ``dim < 2**28``, and ``||q||`` is 1 to within a few
      float64 ulps; one more ``u`` covers both, underflow in float32 (at
      most ``(dim + 1) * 2**-149``) and the float64 rounding of the
      full-width floor, a k-th float32 score less this bound twice, which
      :func:`_floor` then rounds down to a float32.

    So ``|s32 - s64| <= g(dim + 2) * max_norm``: about ``(dim + 2) * 2**-24``
    for unit rows. ``max_norm`` is measured on the rows, so the bound holds
    for the 1e-5 norm slack that ``load_index`` accepts and for any finite
    rows an index is made with.
    """
    g = (dim + 2) * 2.0**-24
    return g / (1.0 - g) * max_norm


def _projected_bound(width: int, eta: float, max_norm: float) -> float:
    """Bound on ``s64 - ub32`` for every row ``x`` with ``||x|| <= max_norm``.

    ``s64`` is the float64 score of ``x`` as :func:`_score_bound` has it;
    ``ub32`` is the float32 product of the row's projection
    ``[P.T x | ||r_x||]`` with the query's ``[P.T q | ||r_q||]``, each
    computed in float64 and rounded to float32 (``r_x = x - P P.T x``, and
    ``r_q`` likewise). ``P`` is dim x ``width``, ``E = P.T P - I`` and
    ``eta >= ||E||``. With ``a = P.T x``, ``b = P.T q`` and ``u``, ``g`` as
    in :func:`_score_bound`:

    - ``P.T r_x = -E a`` and ``P.T r_q = -E b``, so
      ``x.q = a.b - a.E b + r_x.r_q <= a.b + ||r_x|| ||r_q|| + eta (1 + eta)``
      ``* ||x|| ||q||`` by Cauchy-Schwarz and ``||a|| <= ||P|| ||x||``,
      ``||P||² <= 1 + eta``;
    - ``||[a, ||r_x||]||² = ||x||² + a.E a <= (1 + eta)² ||x||²``, and the
      same for the query, so the product below has the form of a dot of
      ``x`` with ``q``, over ``width + 1`` columns;
    - rounding both projected rows to float32 moves the product by at most
      ``(2u + u²) * sum|y_j w_j|``, and the float32 dot of length
      ``width + 1`` errs by at most ``g(width + 1) (1 + u)² * sum|y_j w_j|``;
      together that is at most ``g(width + 3) * (1 + eta)² * ||x||``;
    - the float64 products and norms that form both projected rows err by
      at most ``3 dim^1.5 * 2**-53 * ||x||`` (``dim <= 2**16``) and move the
      product by less than one ``u``; one more ``u`` covers the float64
      score, ``||q||``, the float64 threshold and float32 underflow, as in
      :func:`_score_bound`.

    So ``s64 <= ub32 + (g(width + 5) (1 + eta)² + eta (1 + eta)) * max_norm``.
    A row whose ``ub32`` is below a float64 score less this bound scores
    below it in float64, whatever ``P`` is, as long as ``eta`` is measured.
    """
    g = (width + 5) * 2.0**-24
    return (g / (1.0 - g) * (1.0 + eta) ** 2 + eta * (1.0 + eta)) * max_norm


def retrieve_topk(
    index: CaptionIndex, query, k: int, probes: int | str | None = None
) -> list[RetrievedCaption]:
    """Return the k highest-cosine captions, ties broken by ascending id.

    For a flat index (or ``probes="all"``) results are exactly the
    brute-force top-k. For a partitioned index, only the ``probes`` nearest
    partitions are scanned (default 8). A hit's score is the same bits
    whichever scan finds it (see the module docstring). This is
    :func:`retrieve_window` over a window of one.
    """
    [(rows, scores)] = retrieve_window(index, [check_query(index, query, k)], k, probes)
    return retrieved(index, rows, scores)


def retrieved(index: CaptionIndex, rows, scores) -> list[RetrievedCaption]:
    """The :class:`RetrievedCaption` of each of ``rows``, arrays of index
    rows and their scores."""
    return [RetrievedCaption(index.records[row], score, row)
            for row, score in zip(rows.tolist(), scores.tolist())]


def retrieve_window(
    index: CaptionIndex, queries, k: int, probes: int | str | None = None
) -> list[tuple[np.ndarray, np.ndarray]]:
    """The :func:`retrieve_topk` hits of each of ``queries``, the unit
    vectors :func:`check_query` returns for ``k``, in order, as a pair of
    arrays: the hit rows and their scores, best first.

    The queries are cut into windows of at most ``SCAN_BLOCK`` float32
    scores (:func:`_per_block` of the index's rows); each window is scanned
    and cut once (see the module docstring).
    """
    check_probes(probes)
    step = _per_block(len(index))
    chunks = (np.array(queries[start : start + step])
              for start in range(0, len(queries), step))
    return [hits for chunk in chunks for hits in _scan(index, chunk, k, probes)]


def _scan(index: CaptionIndex, queries: np.ndarray, k: int, probes) -> list:
    """The hits of a window: the pairs every scan pass keeps, cut once."""
    layout = index._layout
    if index.structure == "partitioned":  # nearest list first
        n_probe = index.num_partitions
        if probes != "all":
            n_probe = min(n_probe, DEFAULT_PROBES if probes is None else probes)
        d2 = np.sum((index.centroids - queries[:, None]) ** 2, axis=2)
        probed = np.argsort(d2, axis=1, kind="stable")[:, :n_probe]
    else:  # a flat index is one list
        probed = np.zeros((len(queries), 1), dtype=np.int64)
    if len(index) * index.dim < PROJECT_MIN or index.dim < PROJECT_MIN_DIM:
        return _top(layout, queries, *_scan_full_width(layout, queries, probed, k), k)
    qi, positions, full = _scan_projected(layout, queries, probed, k)
    if full.size:  # the queries that fell back, mapped back into the window
        fi, more = _scan_full_width(layout, queries[full], probed[full], k)
        qi, positions = np.concatenate([qi, full[fi]]), np.concatenate([positions, more])
    return _top(layout, queries, qi, positions, k)


def _floor(value: np.ndarray, bound: float) -> np.ndarray:
    """``value - bound`` rounded to a float32 and one step down, so at most
    it: for a float64 ``value`` at most each of a query's top-k scores, and
    a ``bound`` on how far a row's float32 score falls below its float64
    one, every top-k row's float32 score reaches it. A value of -inf gives
    the lowest float32, which keeps every row scanned and no padding."""
    return np.nextafter((value - bound).astype(np.float32), np.finfo(np.float32).min)


def _scan_full_width(layout: _ScanLayout, queries, probed, k: int) -> tuple:
    """The (query, scan position) pairs of the full-width rows that can
    reach each query's float64 top k. The k rows of highest float32 score
    each score at least the k-th of them less :func:`_score_bound` in
    float64: that is the :func:`_floor`'s value, and the bound its bound."""
    window = _Window.of(layout.columns, layout.offsets, queries.astype(np.float32), probed)
    if window.scores.shape[1] > k:
        top = window.scores.copy()
        top.partition(top.shape[1] - k, axis=1)
        kth = top[:, -k]
    else:  # every row scanned is in the top k
        kth = np.full(len(queries), -np.inf, dtype=np.float32)
    bound = _score_bound(queries.shape[1], layout.max_norm)
    return window.above(_floor(np.subtract(kth, bound, dtype=np.float64), bound))


def _scan_projected(layout: _ScanLayout, queries, probed, k: int) -> tuple:
    """The (query, scan position) pairs the projection keeps for the
    queries it prunes, and the queries that fall back to the full-width
    scan, in order.

    Each query's nearest list is scanned first, as one window. The lowest
    float64 score of its k rows of highest upper bound is the value of its
    :func:`_floor`, and the bound of :func:`_projected_bound` the bound: a
    row whose upper bound is below that floor cannot reach the top k. The
    nearest list alone decides: a query falls back when more than
    ``FALLBACK_SHARE`` of that list's rows are at or above its floor, or
    the list has fewer than k rows and so no floor. The others scan their
    other probed lists as a second window, and the kept pairs of both are
    returned together.
    """
    projection = layout.projection
    zq = projection.queries(queries)
    near = _Window.of(projection.columns, layout.offsets, zq, probed[:, :1])
    kth = np.full(len(queries), -np.inf)
    if near.scores.shape[1] >= k:
        top = near.scores.argpartition(-k, axis=1)[:, -k:]
        # a query of fewer than k rows gathers padding, clipped: it falls back
        rows = layout.rows.take(top + np.take(layout.offsets, probed[:, :1]), mode="clip")
        exact = _rescore(layout.vectors, rows.ravel(), queries.repeat(k, axis=0))
        # the lowest of k rows' float64 scores is at most the k-th of all rows
        kth = exact.reshape(-1, k).min(axis=1)
    floor = _floor(kth, projection.bound)
    qi, positions = near.above(floor)
    # a nearest list of fewer than k rows gives no floor: an empty one would
    # keep every row of the other lists
    full = (near.counts < k) | (np.bincount(qi, minlength=len(queries))
                                > FALLBACK_SHARE * near.counts)
    live = np.flatnonzero(~full)
    rest = _Window.of(projection.columns, layout.offsets, zq[live], probed[live, 1:])
    ri, rest_positions = rest.above(floor[live])
    kept = ~full[qi]
    return (np.concatenate([qi[kept], live[ri]]),
            np.concatenate([positions[kept], rest_positions]), np.flatnonzero(full))


@dataclass(frozen=True)
class _Window:
    """A window's float32 products with the rows of the lists each query
    probes: row ``u`` of ``scores`` holds query ``u``'s lists end to end,
    in probe order, and, where they are shorter than the longest, -inf;
    ``counts`` is the number of rows each query scanned.
    A (query, list) segment starts at flat index ``begin[i]`` of
    ``scores``, and ``shift[i]`` added to a flat index in it gives the
    scan position. The projected scan makes two: the nearest lists, which
    alone decide fallback, then the other probed lists of the queries that
    stay (see :func:`_scan_projected`)."""

    scores: np.ndarray
    counts: np.ndarray
    begin: list[int]
    shift: np.ndarray

    @classmethod
    def of(cls, columns: list[np.ndarray], offsets: list[int], q32: np.ndarray,
           probed: np.ndarray) -> _Window:
        """One product per list, of the queries that probe it with the
        list's ``columns`` (width x rows, a row per column, in scan order)."""
        segments, counts = [], []  # (query, list, first column) in probe order
        users: dict[int, list[tuple[int, int]]] = {}
        for u, lists in enumerate(probed.tolist()):
            col = 0
            for c in lists:
                segments.append((u, c, col))
                users.setdefault(c, []).append((u, col))
                col += offsets[c + 1] - offsets[c]
            counts.append(col)
        width = max(counts, default=0)
        scores = np.empty((len(counts), width), dtype=np.float32)
        for u, count in enumerate(counts):
            if count < width:
                scores[u, count:] = -np.inf
        for c, us in users.items():
            q, block = q32[[u for u, _ in us]], columns[c]
            # BLAS gets the list's rows as they lie: a column-major block as
            # Q @ C, rows in place (a transposed view) as V @ Q.T; the other
            # way round, either took up to 3.6 times as long
            product = q @ block if block.flags.c_contiguous else (block.T @ q.T).T
            for (u, col), row in zip(us, product):
                scores[u, col : col + len(row)] = row
        begin = [u * width + col for u, _, col in segments]
        shift = [offsets[c] - b for (_, c, _), b in zip(segments, begin)]
        return cls(scores, np.array(counts), begin, np.array(shift, dtype=np.int64))

    def above(self, floor: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The queries and scan positions of the scores at or above each
        query's float32 ``floor``, a :func:`_floor`."""
        flat = (self.scores >= floor[:, None]).ravel().nonzero()[0]
        qi = flat // self.scores.shape[1]
        segment = qi  # with one list per query, a query's segment is the query
        if len(self.begin) != len(self.scores):
            segment = np.searchsorted(self.begin, flat, side="right") - 1
        return qi, flat + self.shift[segment]


def _rescore(vectors: np.ndarray, rows: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """The float64 score of each of ``vectors``' ``rows`` against its row of
    ``queries``: a row-wise einsum, whose bits do not depend on the other
    rows, where a BLAS product's may."""
    return np.einsum("ij,ij->i", vectors.take(rows, axis=0).astype(np.float64), queries)


def _top(layout: _ScanLayout, queries, qi: np.ndarray, positions: np.ndarray,
         k: int) -> list[tuple]:
    """The one cut of a window: the rows and float64 scores of each query's
    top k among its pairs (``qi``, ``positions``), in any order, a
    shortlist that holds every row that can reach the query's float64 top
    k; its first k in (-score, row) order are those in (-score, id)
    order."""
    rows = layout.rows[positions]
    exact = _rescore(layout.vectors, rows, queries.take(qi, axis=0))
    order = np.lexsort((rows, -exact, qi))
    rows, exact = rows[order], exact[order].clip(-1.0, 1.0)
    hits, start = [], 0
    for count in np.bincount(qi, minlength=len(queries)).tolist():
        stop = start + min(count, k)
        hits.append((rows[start:stop], exact[start:stop]))
        start += count
    return hits


def exact_topk(index: CaptionIndex, query, k: int) -> list[RetrievedCaption]:
    """Linear-scan oracle: every row scored by :func:`_rescore`, in the bits
    retrieval gives, a block at a time; then the rows at or above the k-th
    score, ties included, sorted by (-score, id)."""
    q = check_query(index, query, k)
    scores, step = np.empty(len(index)), _per_block(index.dim)
    for start in range(0, len(index), step):
        rows = np.arange(start, min(start + step, len(index)))
        scores[rows] = _rescore(index.vectors, rows, np.broadcast_to(q, (len(rows), len(q))))
    kth = np.partition(scores, -k)[-k] if k < len(scores) else -np.inf
    top = sorted(np.flatnonzero(scores >= kth).tolist(),
                 key=lambda r: (-scores[r], index.records[r].id))[:k]
    return retrieved(index, np.array(top, dtype=np.int64), scores[top].clip(-1.0, 1.0))


def _index_body(index: CaptionIndex) -> list:
    """The body of a ``VFCI`` file, as parts to write in order."""
    parts = [
        *store_payload(index.dim, index.vectors, [rec.id for rec in index.records]),
        pack_string(index.provider_identity),
    ]
    parts.extend(pack_string(s) for rec in index.records for s in (rec.text, rec.source))
    if index.structure == "partitioned":
        parts.append(struct.pack("<B", STRUCTURE_PARTITIONED))
        parts.append(struct.pack("<I", index.num_partitions))
        parts.append(index.centroids.astype("<f8").tobytes())
        for members in index.partitions:
            parts.append(struct.pack("<Q", members.size))
            parts.append(members.astype("<u4").tobytes())
    else:
        parts.append(struct.pack("<B", STRUCTURE_FLAT))
    return parts


def save_index(index: CaptionIndex, path) -> None:
    """Write the ``VFCI`` file: magic, version, body, trailing CRC32."""
    body = _index_body(index)
    write_file(path, INDEX_MAGIC, struct.pack("<I", INDEX_VERSION), *body,
               struct.pack("<I", body_crc(body)))


def load_index(path) -> CaptionIndex:
    """Read a ``VFCI`` file, verifying magic, version, CRC, and layout."""
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 12:
        raise CorruptFileError("file too short to be an index")
    if data[:4] != INDEX_MAGIC:
        raise CorruptFileError(f"bad magic {data[:4]!r}, expected {INDEX_MAGIC!r}")
    version = struct.unpack("<I", data[4:8])[0]
    if version != INDEX_VERSION:
        raise CorruptFileError(f"unsupported index version {version}")
    if body_crc([memoryview(data)[8:-4]]) != struct.unpack("<I", data[-4:])[0]:
        raise CorruptFileError("CRC mismatch: file is corrupt or truncated")

    reader = _Reader(data, 8, len(data) - 4)
    dim, vectors, ids = read_store_payload(reader)
    count = len(ids)
    # ties break by row, which is the id order only for ascending ids
    if any(a >= b for a, b in zip(ids, ids[1:])):
        raise CorruptFileError("index record ids are not in ascending order")
    if count and not np.allclose(np.sqrt(_squared_norms(vectors)), 1.0, atol=1e-5):
        raise CorruptFileError("index rows are not unit-normalized")
    identity = reader.string("provider identity")
    records = [CaptionRecord(rid, reader.string("caption text"),
                             reader.string("caption source")) for rid in ids]
    structure_code = reader.u8()
    centroids, partitions = None, []
    if structure_code == STRUCTURE_PARTITIONED:
        num_partitions = reader.u32()
        centroids = np.frombuffer(
            reader.take(num_partitions * dim * 8), dtype="<f8"
        ).reshape(num_partitions, dim).copy()
        for _ in range(num_partitions):
            size = reader.u64()
            members = np.frombuffer(reader.take(size * 4), dtype="<u4")
            partitions.append(members.astype(np.int64))
        covered = np.concatenate(partitions) if partitions else np.empty(0, np.int64)
        # every row in exactly one list, and no member past the last row
        hits = np.bincount(covered, minlength=count)
        if hits.size != count or not (hits == 1).all():
            raise CorruptFileError("partition member lists do not cover the corpus")
    elif structure_code != STRUCTURE_FLAT:
        raise CorruptFileError(f"unknown structure code {structure_code}")
    if reader.offset != reader.end:
        raise CorruptFileError("trailing bytes in index body")
    return CaptionIndex(
        dim=dim, records=records, vectors=vectors,
        structure="flat" if centroids is None else "partitioned",
        centroids=centroids, partitions=partitions, provider_identity=identity,
    )
