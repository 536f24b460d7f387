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
``index.vectors`` stays in id order; on its first query, and only then, a
partitioned index makes one copy of its rows in partition order, so each
probed list is one contiguous slice (the inverted-file layout), scanned by
one float32 product over the window's queries that probe it. A flat index
scans ``index.vectors`` as one list, with no copy. The window's float32
scores are one (queries x rows) array, each query's lists end to end and
padded with -inf to the longest. The cut takes every query's k-th score
with one ``np.partition`` along the rows; keeps, with one float32
comparison, every row within the layout's ``slack`` of it (twice the
rounding bound of ``_score_bound``, plus the rounding of the subtraction);
rescores those (query, row) pairs in float64 with one gather and one
row-wise ``einsum``; and orders them with one ``np.lexsort`` by (query,
-score, row), so each query's first k are exactly its float64 brute-force
top k. The rescore is a row-wise ``einsum`` and not a BLAS product: a
row's float64 score is the same bits whichever scan or window found it. A
window gives each query its hits as two arrays, rows and scores;
:func:`retrieved` makes them captions.

An index of at least ``PROJECT_MIN`` rows x dim values first scans a
projected copy of its rows (a lower-dimensional filter with a proven
bound, refined exactly). On the first query that needs it, the scan layout
takes an orthonormal basis ``P`` (dim x width) from an SVD of
``PROJECT_SAMPLE`` rows taken at a stride: the fewest singular vectors
that hold half of the sample's energy, rounded up so that a projected row
is a whole number of 16-byte words (width 51 of 128 on the seeded 100k x
128 corpus). It stores each row, in scan order, as the float32 row
``[P.T x | ||x - P P.T x||]``: n * (width + 1) * 4 bytes more (20.8 MB for
that corpus), made once in about 0.1 s. The product of such a row with the
query's own projected row bounds the row's score from above, to within the
float32 error of :func:`_projected_bound`, which counts ``P``'s measured
departure from orthonormality. A query's nearest list is scanned first:
the k-th float64 score among its ``PRUNE_ROWS`` rows of highest upper
bound, less that error, is the floor, and every row of the probed lists
whose upper bound reaches it (the floor rounded down to a float32) is
rescored in float64, the window's kept (query, row) pairs in one cut as
above. So the top k are the same rows and the same bits. A query that
keeps more than ``FALLBACK_SHARE`` of the rows it scanned, in its nearest
list or in all of them, falls back to the full-width scan, so on data
where the bound prunes nothing a partitioned query costs one projected
list more than before (a flat index's nearest list is all of it). An
index of fewer than ``PROJECT_MIN_DIM`` dimensions scans its full-width
rows only.
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
SCAN_BLOCK = 1 << 20  # float32 scores one retrieval product holds at most (4 MiB)
# a list that fewer queries probe gets one matrix-vector product per query:
# with OpenBLAS, a float32 product over 2 or 3 query columns took longer
# than 2 or 3 matrix-vector products (3,125 x 128 rows, one thread)
GEMM_QUERIES = 4
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
PRUNE_ROWS = 32  # rows, at least k, rescored for the lower bound
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
    """Rows in scan order: partition ``c`` is ``vectors[offsets[c]:offsets[c + 1]]``,
    scan position ``i`` holds index row ``rows[i]``, ``max_norm`` is the
    largest row norm, and ``slack`` what a floor is below a k-th float32
    score: twice the bound of ``_score_bound`` for these rows, plus
    ``2**-23 * max_norm`` for the float32 rounding of the subtraction (a
    score and the slack together are at most ``2 * max_norm``), rounded up
    to a float32."""

    vectors: np.ndarray
    rows: np.ndarray
    offsets: list[int]
    slack: np.float32
    max_norm: float

    @cached_property
    def projection(self) -> _Projection:
        """The projected copy of the rows, made on the first query that
        scans it."""
        return _Projection.of(self.vectors, _basis(self.vectors), self.max_norm)


@dataclass(frozen=True)
class _Projection:
    """The rows in scan order as ``[P.T @ x | ||x - P @ P.T @ x||]`` in
    float32, for an orthonormal basis ``P`` (dim x width, float64), and the
    bound of :func:`_projected_bound` on what the product of such a row
    with :meth:`queries` may fall short of the row's float64 score."""

    basis: np.ndarray
    vectors: np.ndarray
    bound: float

    @classmethod
    def of(cls, vectors: np.ndarray, basis: np.ndarray, max_norm: float) -> _Projection:
        width = basis.shape[1]
        # PᵀP - I is measured, not assumed, and so is the float64 rounding
        # of that product (each entry errs by at most dim * 2**-53)
        eta = (np.linalg.norm(basis.T @ basis - np.eye(width))
               + width * basis.shape[0] * 2.0**-52)
        out = np.empty((len(vectors), width + 1), dtype=np.float32)
        # SCAN_BLOCK values at a time: no float64 copy of all the rows is made
        step = max(1, SCAN_BLOCK // max(1, vectors.shape[1]))
        for start in range(0, len(vectors), step):
            out[start : start + step] = _project(
                vectors[start : start + step].astype(np.float64), basis)
        return cls(basis, out, _projected_bound(width, eta, max_norm))

    def queries(self, queries: np.ndarray) -> np.ndarray:
        """The float32 rows ``[P.T @ q | ||q - P @ P.T @ q||]`` of ``queries``."""
        return _project(queries, self.basis).astype(np.float32)


def _project(x: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """``[x @ P | ||x - x @ P @ P.T||]`` in float64; the residual is formed,
    not taken as ``||x||² - ||x @ P||²``, which cancels for rows near the
    span of ``P``."""
    low = x @ basis
    return np.hstack([low, np.linalg.norm(x - low @ basis.T, axis=1)[:, None]])


def _basis(vectors: np.ndarray) -> np.ndarray:
    """The top right singular vectors of ``PROJECT_SAMPLE`` rows taken at a
    stride: the fewest that hold at least half of the sample's energy, and
    then more, up to 3 short of a multiple of 4, so that a projected row
    (with its residual column) is a whole number of 16-byte words."""
    sample = vectors[:: max(1, len(vectors) // PROJECT_SAMPLE)].astype(np.float64)
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
        """The rows in scan order, made on the first query; a flat index is
        one list, scanned in place."""
        flat = self.structure == "flat"
        lists = [np.arange(len(self))] if flat else self.partitions
        rows = np.concatenate([np.empty(0, np.int64), *lists])
        vectors = self.vectors if flat else self.vectors[rows]
        max_norm = float(np.sqrt(_squared_norms(vectors).max(initial=0.0)))
        return _ScanLayout(
            vectors, rows, [0, *np.cumsum([m.size for m in lists]).tolist()],
            np.nextafter(np.float32(2 * _score_bound(self.dim, max_norm) + 2.0**-23 * max_norm),
                         np.float32(np.inf)),
            max_norm,
        )


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
      float64 ulps; one more ``u`` covers both and underflow in float32 (at
      most ``(dim + 1) * 2**-149``). The float32 rounding of the floor, a
      k-th score less twice this bound, is the scan layout's to cover.

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

    The queries are cut at most ``SCAN_BLOCK // len(index)`` at a time, so
    that no window of float32 scores holds more than ``SCAN_BLOCK`` of
    them. Each probed list is scanned by one float32 product over the
    window's queries that probe it, and the window's top k are taken by
    one cut: one partition for every query's k-th float32 score, one
    float32 comparison for the shortlist, one row-wise float64 rescore of
    the shortlist's (query, row) pairs and one lexsort (see the module
    docstring).
    """
    check_probes(probes)
    step = max(1, SCAN_BLOCK // max(1, len(index)))
    chunks = (np.array(queries[start : start + step])
              for start in range(0, len(queries), step))
    return [hits for chunk in chunks for hits in _scan(index, chunk, k, probes)]


def _scan(index: CaptionIndex, queries: np.ndarray, k: int, probes) -> list:
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
        return _scan_full_width(layout, queries, probed, k)
    out: list = [None] * len(queries)
    full = _scan_projected(layout, queries, probed, k, out)
    if full.size:
        for u, hits in zip(full.tolist(),
                           _scan_full_width(layout, queries[full], probed[full], k)):
            out[u] = hits
    return out


def _scan_full_width(layout: _ScanLayout, queries, probed, k: int) -> list:
    """The hits of each query from its float32 products with the full-width
    rows: the rows within the layout's ``slack`` of its k-th float32 score
    are rescored in float64."""
    window = _Window.of(layout.vectors, layout.offsets, queries.astype(np.float32), probed)
    scores = window.scores
    if scores.shape[1] > k:
        top = scores.copy()
        top.partition(scores.shape[1] - k, axis=1)
        kth = top[:, -k]
    else:  # every row scanned is in the top k
        kth = np.full(len(queries), -np.inf, dtype=np.float32)
    qi, positions = window.above(kth - layout.slack)
    return _top(layout, queries, qi, positions, k)


def _scan_projected(layout: _ScanLayout, queries, probed, k: int, out) -> np.ndarray:
    """Fill ``out`` with the hits of each query the projection prunes, and
    return the others, in order.

    Each query's nearest list is scanned first, and the k-th float64 score
    of its ``max(k, PRUNE_ROWS)`` rows of highest upper bound, less the
    bound of :func:`_projected_bound`, is the floor: a row whose upper bound
    is below it cannot reach the top k. A query keeps every row at or above
    its floor, unless the rows kept, in its nearest list or in all its
    lists, are more than ``FALLBACK_SHARE`` of those scanned. The kept
    queries' lists are one window, cut once.
    """
    projection = layout.projection
    zq = projection.queries(queries)
    near = _Window.of(projection.vectors, layout.offsets, zq, probed[:, :1])
    kth = np.full(len(queries), -np.inf)
    for u, (ub, count, c) in enumerate(zip(near.scores, near.counts, probed[:, 0].tolist())):
        if count >= k:
            m = min(count, max(k, PRUNE_ROWS))
            top = ub[:count].argpartition(count - m)[count - m :]
            exact = _rescore(layout, top + layout.offsets[c], queries[u : u + 1].repeat(m, axis=0))
            # the k-th of these float64 scores is at most the k-th of all rows
            kth[u] = np.partition(exact, m - k)[m - k]
    # rounded to a float32 and one step down: at most the float64 floor
    floor = np.nextafter((kth - projection.bound).astype(np.float32), -np.inf)
    full = (np.count_nonzero(near.scores >= floor[:, None], axis=1)
            > FALLBACK_SHARE * np.array(near.counts))
    live = np.flatnonzero(~full)
    window = _Window.of(projection.vectors, layout.offsets, zq[live], probed[live],
                        first=near.scores[live])
    qi, positions = window.above(floor[live])
    full[live] = np.bincount(qi, minlength=live.size) > FALLBACK_SHARE * np.array(window.counts)
    kept = ~full[live[qi]]
    hits = _top(layout, queries[live], qi[kept], positions[kept], k)
    for u, query_hits in zip(live.tolist(), hits):
        if not full[u]:
            out[u] = query_hits
    return np.flatnonzero(full)


@dataclass(frozen=True)
class _Window:
    """A window's float32 products with the rows of the lists each query
    probes: row ``u`` of ``scores`` holds query ``u``'s lists end to end,
    in probe order, and, where they are shorter than the longest, -inf
    (``padded``); ``counts`` is the number of rows each query scanned.
    A (query, list) segment starts at flat index ``begin[i]`` of
    ``scores``, and ``shift[i]`` added to a flat index in it gives the
    scan position."""

    scores: np.ndarray
    counts: list[int]
    padded: bool
    begin: list[int]
    shift: np.ndarray

    @classmethod
    def of(cls, vectors, offsets: list[int], q32: np.ndarray, probed: np.ndarray,
           first: np.ndarray | None = None) -> _Window:
        """One product per list over the queries that probe it; with
        ``first``, the scores of a window of each query's first list, that
        list's products are copied from it."""
        segments, counts = [], []  # (query, list, first column) in probe order
        users: dict[int, list[tuple[int, int]]] = {}
        for u, lists in enumerate(probed.tolist()):
            col = 0
            for j, c in enumerate(lists):
                segments.append((u, c, col))
                if j or first is None:
                    users.setdefault(c, []).append((u, col))
                col += offsets[c + 1] - offsets[c]
            counts.append(col)
        width = max(counts, default=0)
        scores = np.empty((len(counts), width), dtype=np.float32)
        for u, count in enumerate(counts):
            if count < width:
                scores[u, count:] = -np.inf
        if first is not None:  # past a query's first list, written over or padding
            scores[:, : first.shape[1]] = first[:, :width]
        for c, us in users.items():
            block = vectors[offsets[c] : offsets[c + 1]]
            if len(us) < GEMM_QUERIES:
                for u, col in us:
                    np.dot(block, q32[u], out=scores[u, col : col + len(block)])
            else:
                # V @ Q.T: with a few queries, Q @ V.T is about twice as slow
                product = block @ q32.take([u for u, _ in us], axis=0).T
                for j, (u, col) in enumerate(us):
                    scores[u, col : col + len(block)] = product[:, j]
        begin = [u * width + col for u, _, col in segments]
        shift = [offsets[c] - b for (_, c, _), b in zip(segments, begin)]
        return cls(scores, counts, min(counts, default=width) < width, begin,
                   np.array(shift, dtype=np.int64))

    def above(self, floor: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The queries and scan positions of the scores at or above each
        query's float32 ``floor``. In a padded window a floor of -inf is
        raised to the lowest float32: the query keeps every row it scanned
        and no padding."""
        if self.padded:
            floor = np.maximum(floor, -np.finfo(np.float32).max)
        flat = (self.scores >= floor[:, None]).ravel().nonzero()[0]
        qi = flat // self.scores.shape[1]
        segment = qi  # with one list per query, a query's segment is the query
        if len(self.begin) != len(self.scores):
            segment = np.searchsorted(self.begin, flat, side="right") - 1
        return qi, flat + self.shift[segment]


def _rescore(layout: _ScanLayout, positions: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """The float64 score of each row at ``positions`` against its row of
    ``queries``: a row-wise einsum, whose bits do not depend on the other
    rows, where a BLAS product's may."""
    rows = layout.vectors.take(positions, axis=0).astype(np.float64)
    return np.einsum("ij,ij->i", rows, queries)


def _top(layout: _ScanLayout, queries, qi: np.ndarray, positions: np.ndarray,
         k: int) -> list[tuple]:
    """The rows and float64 scores of each query's top k among its pairs
    (``qi``, ``positions``), a shortlist that holds every row that can
    reach the query's float64 top k; its first k in (-score, row) order
    are those in (-score, id) order."""
    exact = _rescore(layout, positions, queries.take(qi, axis=0))
    rows = layout.rows[positions]
    order = np.lexsort((rows, -exact, qi))
    rows, exact = rows[order], exact[order].clip(-1.0, 1.0)
    hits, start = [], 0
    for count in np.bincount(qi, minlength=len(queries)).tolist():
        stop = start + min(count, k)
        hits.append((rows[start:stop], exact[start:stop]))
        start += count
    return hits


def exact_topk(index: CaptionIndex, query, k: int) -> list[RetrievedCaption]:
    """Linear-scan oracle: full sort of every record by (-score, id)."""
    q = check_query(index, query, k)
    scores = [float(np.dot(row.astype(np.float64), q)) for row in index.vectors]
    top = sorted(range(len(index)), key=lambda r: (-scores[r], index.records[r].id))[:k]
    return retrieved(index, np.array(top), np.clip([scores[r] for r in top], -1.0, 1.0))


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
    identity = reader.string()
    records = [CaptionRecord(rid, reader.string(), reader.string()) for rid in ids]
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
