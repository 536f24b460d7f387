"""Embedded caption corpus: build, query, and persist.

The index stores unit-normalized caption vectors, so inner product equals
cosine similarity. Two search structures are available:

- ``flat``: exact scan over all rows (the correctness baseline).
- ``partitioned``: an inverted-list layout whose partition centroids are
  learned by seeded k-means; queries probe the nearest partitions, and
  ``probes="all"`` recovers exact results.

The partitioned build picks farthest-point seeds by inner product (on unit
rows the farthest row is the one least similar to every seed so far), runs
``KMEANS_ITERS`` Lloyd steps in float64, and lists each partition's members
in ascending row order. A partition that empties is reseeded during
refinement, each empty one in a step onto its own farthest row, but may
still end empty after the final assignment.

Records are kept in ascending-id order, so builds ignore input order and
row order is id order: score ties break by row, that is, by ascending id.

An index is immutable: its fields cannot be replaced, and
``dataclasses.replace`` derives a new index, which makes its own scan copy
and starts with an empty ``row_tokens`` memo (the candidate tokens of the
rows queries hit; see ``scoring``).

Retrieval scans in float32 and decides in float64. ``index.vectors`` stays
in id order; on its first query, and only then, a partitioned index makes
one copy of its rows in partition order, so each probe is one float32
product over a contiguous slice (the inverted-file layout). A flat index
scans ``index.vectors`` as one partition, with no copy. Every row whose
float32 score is within twice the rounding bound of ``_score_bound`` of the
k-th float32 score is rescored in float64, one row at a time, and the top
k of that shortlist are exactly the float64 brute-force top k. Each row's
float64 score is the same bits whichever scan found it.
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
    is_count,
    normalize,
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
)

INDEX_MAGIC = b"VFCI"
INDEX_VERSION = 1
STRUCTURE_FLAT = 0
STRUCTURE_PARTITIONED = 1

KMEANS_ITERS = 25
DEFAULT_PROBES = 8


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
    scan position ``i`` holds index row ``rows[i]``, and ``bound`` is the
    float32 rounding bound of ``_score_bound`` for these rows."""

    vectors: np.ndarray
    rows: np.ndarray
    offsets: list[int]
    bound: float


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
    def row_tokens(self) -> dict[tuple, dict[int, tuple[str, ...]]]:
        """The memo of candidate stages 1-2: stage-1/2 settings -> {row:
        tokens}, filled on the query path one hit row at a time."""
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
            _score_bound(self.dim, max_norm),
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
    """Seeded k-means; returns (centroids, ascending member rows per partition)."""
    data = vectors.astype(np.float64)
    n = data.shape[0]
    k = min(k, n)  # at most one partition per row
    chosen = [int(np.random.default_rng(seed).integers(n))]
    # farthest-point seeds: rows are unit, so ||x - c||^2 = 2 - 2 x.c and the
    # farthest row is the one whose highest inner product with a seed is lowest
    nearest = data @ data[chosen[0]]
    while len(chosen) < k:
        nxt = int(np.argmin(nearest))  # argmin takes the lowest index on ties
        chosen.append(nxt)
        np.maximum(nearest, data @ data[nxt], out=nearest)
    centroids = data[chosen]
    for _ in range(KMEANS_ITERS):
        # squared distance: ||x||^2 - 2 x.c + ||c||^2; rows are unit so the
        # first term is constant and can be dropped from the argmin
        d2 = -2.0 * (data @ centroids.T) + np.sum(centroids**2, axis=1)
        assign = np.argmin(d2, axis=1)
        spread = d2[np.arange(n), assign]
        for c in range(k):
            members = np.flatnonzero(assign == c)
            if members.size:
                centroids[c] = data[members].mean(axis=0)
            else:
                # reseed an empty partition with the point farthest from its
                # centroid that no other partition took in this step
                # (deterministic: lowest index wins)
                far = int(np.argmax(spread))
                spread[far] = -np.inf
                centroids[c] = data[far]
                assign[far] = c
    d2 = -2.0 * (data @ centroids.T) + np.sum(centroids**2, axis=1)
    assign = np.argmin(d2, axis=1)
    # a stable sort keeps each partition's rows in ascending order
    order = np.argsort(assign, kind="stable")
    return centroids, np.split(order, np.cumsum(np.bincount(assign, minlength=k))[:-1])


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
    if structure == "partitioned" and not is_count(num_partitions):
        raise EmptyInputError(
            f"num_partitions must be an integer >= 1, got {num_partitions!r}"
        )
    if not is_count(seed, low=0):
        raise EmptyInputError(f"seed must be an integer >= 0, got {seed!r}")
    if not isinstance(dedup, bool):
        raise EmptyInputError(f"dedup must be True or False, got {dedup!r}")
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


def _check_query(index: CaptionIndex, query, k: int) -> np.ndarray:
    if len(index) == 0:
        raise EmptyIndexError("index contains no records")
    if not is_count(k):
        raise EmptyInputError(f"k must be an integer >= 1, got {k!r}")
    q = as_vector(query, "query")
    if q.shape[0] != index.dim:
        raise DimensionMismatchError(
            f"query dim {q.shape[0]} != index dim {index.dim}"
        )
    return normalize(q)


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
      float64 ulps; one more ``u`` covers both, the float64 rounding of the
      threshold, and underflow in float32 (at most ``(dim + 1) * 2**-149``).

    So ``|s32 - s64| <= g(dim + 2) * max_norm``: about ``(dim + 2) * 2**-24``
    for unit rows. ``max_norm`` is measured on the rows, so the bound holds
    for the 1e-5 norm slack that ``load_index`` accepts and for any finite
    rows an index is made with.
    """
    g = (dim + 2) * 2.0**-24
    return g / (1.0 - g) * max_norm


def retrieve_topk(
    index: CaptionIndex, query, k: int, probes: int | str | None = None
) -> list[RetrievedCaption]:
    """Return the k highest-cosine captions, ties broken by ascending id.

    For a flat index (or ``probes="all"``) results are exactly the
    brute-force top-k. For a partitioned index, only the ``probes`` nearest
    partitions are scanned (default 8). A hit's score is the same bits
    whichever scan finds it (see the module docstring).
    """
    q = _check_query(index, query, k)
    check_probes(probes)
    layout = index._layout
    probe_ids = range(len(layout.offsets) - 1)  # all; a flat index is one list
    if index.structure == "partitioned" and probes != "all":
        n_probe = DEFAULT_PROBES if probes is None else probes
        if n_probe < index.num_partitions:
            d2 = np.sum((index.centroids - q) ** 2, axis=1)
            probe_ids = np.argsort(d2, kind="stable")[:n_probe]
    spans = [(layout.offsets[c], layout.offsets[c + 1]) for c in probe_ids]
    q32 = q.astype(np.float32)
    scores = np.concatenate([layout.vectors[a:b] @ q32 for a, b in spans])
    positions = np.concatenate([np.arange(a, b) for a, b in spans])
    if scores.size > k:
        kth = scores.size - k
        # a float64 threshold, so that the comparison is made in float64
        floor = np.float64(np.partition(scores, kth)[kth]) - 2 * layout.bound
        positions = positions[scores >= floor]
    # the shortlist holds every row within 2b of the k-th score, so the
    # exact top k are its first k in (-score, row) order, which is (-score, id)
    exact = np.einsum("ij,j->i", layout.vectors[positions].astype(np.float64), q)
    rows = layout.rows[positions]
    order = np.lexsort((rows, -exact))[:k]
    return [
        RetrievedCaption(index.records[row], score, row)
        for row, score in zip(rows[order].tolist(),
                              np.clip(exact[order], -1.0, 1.0).tolist())
    ]


def exact_topk(index: CaptionIndex, query, k: int) -> list[RetrievedCaption]:
    """Linear-scan oracle: full sort of every record by (-score, id)."""
    q = _check_query(index, query, k)
    scored = []
    for row, rec in enumerate(index.records):
        score = float(np.dot(index.vectors[row].astype(np.float64), q))
        scored.append((rec, score, row))
    scored.sort(key=lambda item: (-item[1], item[0].id))
    return [
        RetrievedCaption(rec, max(-1.0, min(1.0, score)), row)
        for rec, score, row in scored[:k]
    ]


def _index_body(index: CaptionIndex) -> bytes:
    parts = [
        store_payload(index.dim, index.vectors, [rec.id for rec in index.records]),
        pack_string(index.provider_identity),
    ]
    for rec in index.records:
        parts.append(pack_string(rec.text))
        parts.append(pack_string(rec.source))
    if index.structure == "partitioned":
        parts.append(struct.pack("<B", STRUCTURE_PARTITIONED))
        parts.append(struct.pack("<I", index.num_partitions))
        parts.append(index.centroids.astype("<f8").tobytes())
        for members in index.partitions:
            parts.append(struct.pack("<Q", members.size))
            parts.append(members.astype("<u4").tobytes())
    else:
        parts.append(struct.pack("<B", STRUCTURE_FLAT))
    return b"".join(parts)


def save_index(index: CaptionIndex, path) -> None:
    """Write the ``VFCI`` file: magic, version, body, trailing CRC32."""
    body = _index_body(index)
    # the parts go out one by one: joining them would copy the whole body
    write_file(path, INDEX_MAGIC, struct.pack("<I", INDEX_VERSION), body,
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
    body = data[8:-4]
    stored_crc = struct.unpack("<I", data[-4:])[0]
    if body_crc(body) != stored_crc:
        raise CorruptFileError("CRC mismatch: file is corrupt or truncated")

    reader = _Reader(body)
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
    if reader.offset != len(body):
        raise CorruptFileError("trailing bytes in index body")
    return CaptionIndex(
        dim=dim, records=records, vectors=vectors,
        structure="flat" if centroids is None else "partitioned",
        centroids=centroids, partitions=partitions, provider_identity=identity,
    )
