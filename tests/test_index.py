"""Index build, retrieval exactness, and serialization."""

import dataclasses
import hashlib
import json
import os
import struct
import subprocess
import sys
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest

import vfclass
import vfclass.embedding as embedding_mod
import vfclass.index as index_mod
from reference import kmeans_partition
from vfclass.benchmark import make_benchmark, make_noisy_benchmark
from vfclass.embedding import HashEmbedder, PrecomputedStore, hashed_vector
from vfclass.errors import (
    CorruptFileError,
    DimensionMismatchError,
    DuplicateIdError,
    EmptyCorpusError,
    EmptyIndexError,
    EmptyInputError,
    ProviderUnavailableError,
    ZeroVectorError,
)
from vfclass.index import (
    CaptionIndex,
    CaptionRecord,
    build_index,
    exact_topk,
    check_query,
    load_index,
    retrieve_topk,
    retrieve_window,
    save_index,
)


def brute_force_ids(vectors, ids, query, k):
    """Independent oracle: per-row dot products, full sort by (-score, id)."""
    q = np.asarray(query, dtype=np.float64)
    q = q / np.linalg.norm(q)
    scored = []
    for row, rid in enumerate(ids):
        scored.append((float(np.dot(vectors[row].astype(np.float64), q)), rid))
    scored.sort(key=lambda pair: (-pair[0], pair[1]))
    return [rid for _, rid in scored[:k]]


def random_corpus(rng, size, dim, prefix="rec"):
    ids = [f"{prefix}-{i:05d}" for i in range(size)]
    records = [CaptionRecord(rid, f"caption {rid}") for rid in ids]
    vectors = rng.standard_normal((size, dim))
    vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    store = PrecomputedStore(dim)
    for rid, vec in zip(ids, vectors):
        store.add(rid, vec)
    return records, store


def clustered_rows(seed, size, dim, clusters=200):
    """Unit float32 rows in ``clusters`` seeded clusters, noise of norm
    about 0.5 around each direction."""
    rng = np.random.default_rng(seed)
    directions = rng.standard_normal((clusters, dim))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    rows = directions[rng.integers(clusters, size=size)]
    rows += 0.5 / np.sqrt(dim) * rng.standard_normal((size, dim))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    return rows.astype(np.float32)


# builds a partitioned index of 20,000 clustered rows and saves it to argv[1]
BUILD_AND_SAVE = """
import sys
import numpy as np
from vfclass.embedding import PrecomputedStore
from vfclass.index import CaptionRecord, build_index, save_index
rng = np.random.default_rng(21)
directions = rng.standard_normal((200, 64))
rows = directions[rng.integers(200, size=20000)] + 0.1 * rng.standard_normal((20000, 64))
records = [CaptionRecord(f"r{i:05d}", f"caption {i}") for i in range(len(rows))]
store = PrecomputedStore(64)
store.add_many(zip((r.id for r in records), rows))
save_index(build_index(records, store, structure="partitioned", num_partitions=32), sys.argv[1])
"""


def basis_index():
    records = [
        CaptionRecord("a", "first caption"),
        CaptionRecord("b", "second caption"),
        CaptionRecord("c", "third caption"),
    ]
    store = PrecomputedStore(3)
    store.add("a", [1.0, 0.0, 0.0])
    store.add("b", [0.0, 1.0, 0.0])
    store.add("c", [0.0, 0.0, 1.0])
    return build_index(records, store)


class TestBuildIndex:
    def test_basis_counts(self):
        index = basis_index()
        assert len(index) == 3
        assert index.dim == 3
        assert [r.id for r in index.records] == ["a", "b", "c"]

    def test_duplicate_ids_rejected(self):
        records = [CaptionRecord("a", "x"), CaptionRecord("a", "y")]
        store = PrecomputedStore(2)
        store.add("a", [1.0, 0.0])
        with pytest.raises(DuplicateIdError):
            build_index(records, store)

    def test_empty_corpus_rejected(self):
        with pytest.raises(EmptyCorpusError):
            build_index([], PrecomputedStore(2))

    def test_rows_unit_normalized(self):
        rng = np.random.default_rng(10)
        records, store = random_corpus(rng, 50, 8)
        # overwrite with unnormalized vectors; build must normalize
        for rid in store.keys():
            store.add(rid, store.vector(rid) * 3.7)
        index = build_index(records, store)
        norms = np.linalg.norm(index.vectors.astype(np.float64), axis=1)
        assert np.allclose(norms, 1.0, atol=1e-5)

    def test_partitioned_membership_is_complete(self):
        rng = np.random.default_rng(11)
        records, store = random_corpus(rng, 1000, 16)
        index = build_index(records, store, structure="partitioned",
                            num_partitions=16, seed=7)
        assert index.num_partitions == 16
        members = np.concatenate(index.partitions)
        assert sorted(members.tolist()) == list(range(1000))

    @pytest.mark.parametrize("num_partitions", [0, -5, 2.5, True])
    def test_partition_count_below_one_rejected(self, num_partitions):
        rng = np.random.default_rng(13)
        records, store = random_corpus(rng, 30, 4)
        with pytest.raises(EmptyInputError, match="num_partitions"):
            build_index(records, store, structure="partitioned",
                        num_partitions=num_partitions)

    @pytest.mark.parametrize("build,digest", [
        (lambda: build_index(*random_corpus(np.random.default_rng(11), 1000, 16),
                             structure="partitioned", num_partitions=16, seed=7),
         "25f06a6a25cfef5116ce0b63e86cae312d200a96967c63fa22594bb6f072cb17"),
        (lambda: make_benchmark(seed=7).build_index(structure="partitioned",
                                                    num_partitions=8),
         "5830e87629a849280c2236a0bdffe813f260c12b46fd623803feb0c2c3765803"),
    ], ids=["random-1000x16", "benchmark-seed-7"])
    def test_partition_members_pinned(self, build, digest):
        # member lists as JSON ints: no float bytes, so the pin holds the
        # seeding, the Lloyd steps and the member order, not the centroids
        members = json.dumps([p.tolist() for p in build().partitions])
        assert hashlib.sha256(members.encode()).hexdigest() == digest

    @pytest.mark.parametrize("size,dim,lists", [(20000, 64, 16), (10000, 128, 32)])
    def test_partition_agrees_with_float64_kmeans(self, size, dim, lists):
        # the build's float32 assignments may flip rows the float64 products
        # would put in the other list, but only a few, at no cost in spread
        rows = clustered_rows(size, size, dim)
        centroids, members = index_mod._partition(rows, lists, seed=3)
        ref_centroids, ref_members = kmeans_partition(rows, lists, 3, index_mod.KMEANS_ITERS)
        assert np.array_equal(np.sort(np.concatenate(members)), np.arange(size))
        assert all(np.all(np.diff(m) > 0) for m in members)

        def labels(parts):
            out = np.empty(size, dtype=np.intp)
            for c, m in enumerate(parts):
                out[m] = c
            return out

        def spread(cents, parts):
            return sum(np.sum((rows[m].astype(np.float64) - c) ** 2)
                       for c, m in zip(cents, parts))

        assert np.count_nonzero(labels(members) != labels(ref_members)) <= 0.005 * size
        assert spread(centroids, members) <= 1.0001 * spread(ref_centroids, ref_members)

    def test_partitioned_build_makes_no_float64_copy_of_the_rows(self):
        size, dim = 50000, 64
        records = [CaptionRecord(f"r{i:05d}", f"caption {i}") for i in range(size)]
        store = PrecomputedStore(dim)
        store.add_many(zip((r.id for r in records), clustered_rows(5, size, dim)))
        store.vector(records[0].id)  # the store joins its rows on first read
        tracemalloc.start()
        try:
            build_index(records, store, structure="partitioned", num_partitions=16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < size * dim * 8

    def test_partitioned_file_same_at_one_and_two_blas_threads(self, tmp_path):
        src = str(Path(vfclass.__file__).resolve().parents[1])
        digests = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
                   "PYTHONPATH": os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")]))}
            path = tmp_path / f"threads-{threads}.vfci"
            proc = subprocess.run([sys.executable, "-c", BUILD_AND_SAVE, str(path)],
                                  env=env, capture_output=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            digests.append(hashlib.sha256(path.read_bytes()).hexdigest())
        assert digests[0] == digests[1]

    def test_duplicate_rows_reseed_empty_partitions(self):
        # 16 partitions over 5 distinct vectors: refinement must reseed
        # partitions that empty, and the members still cover every row once
        basis = np.random.default_rng(15).standard_normal((5, 6))
        records = [CaptionRecord(f"dup-{i:02d}", f"caption {i}") for i in range(40)]
        store = PrecomputedStore(6)
        for i, rec in enumerate(records):
            store.add(rec.id, basis[i % 5])
        first, second = (
            build_index(records, store, structure="partitioned", num_partitions=16)
            for _ in range(2)
        )
        assert first.num_partitions == 16
        assert sorted(np.concatenate(first.partitions).tolist()) == list(range(40))
        assert [p.tolist() for p in first.partitions] == [
            p.tolist() for p in second.partitions
        ]
        for query in [*basis, *np.random.default_rng(16).standard_normal((5, 6))]:
            via_probe = retrieve_topk(first, query, 12, probes="all")
            via_scan = exact_topk(first, query, 12)
            assert [h.row for h in via_probe] == [h.row for h in via_scan]

    def test_partitions_emptied_in_one_step_reseed_onto_different_rows(self):
        # 4 basis rows, each twice, into 6 partitions: seeds 5 and 6 repeat
        # row 0, so every Lloyd step empties partitions 4 and 5. All rows sit
        # on a centroid and tie as the farthest, so the two partitions take
        # rows 0 and 1, not row 0 twice
        records = [CaptionRecord(f"r{i}", f"caption {i}") for i in range(8)]
        store = PrecomputedStore(4)
        for i, rec in enumerate(records):
            store.add(rec.id, np.eye(4)[i % 4])
        index = build_index(records, store, structure="partitioned",
                            num_partitions=6)
        assert np.array_equal(index.centroids[4:], index.vectors[[0, 1]])
        assert sorted(np.concatenate(index.partitions).tolist()) == list(range(8))

    def test_more_partitions_than_records_clamps(self):
        rng = np.random.default_rng(14)
        records, store = random_corpus(rng, 5, 4)
        index = build_index(records, store, structure="partitioned",
                            num_partitions=16)
        assert index.num_partitions == 5

    def test_short_provider_reply_rejected(self):
        class ShortProvider(HashEmbedder):
            def embed_texts(self, texts):
                return super().embed_texts(texts)[:-1]

        records = [CaptionRecord(f"r{i}", f"caption {i}") for i in range(4)]
        with pytest.raises(ProviderUnavailableError, match="3 vectors for 4"):
            build_index(records, ShortProvider(8))

    @pytest.mark.parametrize("provider,method", [
        (HashEmbedder(8), "embed_texts"), (PrecomputedStore(8), "embed_records"),
    ], ids=["embed_texts", "embed_records"])
    def test_provider_fault_is_provider_unavailable(self, provider, method,
                                                    monkeypatch):
        def crash(*args):
            raise RuntimeError("model crashed")

        monkeypatch.setattr(provider, method, crash)
        with pytest.raises(ProviderUnavailableError, match="model crashed") as err:
            build_index([CaptionRecord("a", "a dog")], provider)
        assert isinstance(err.value.__cause__, RuntimeError)

    @pytest.mark.parametrize("structure", ["flat", "partitioned"])
    @pytest.mark.parametrize("seed", [-1, 1.5, True, "1", None])
    def test_seed_other_than_an_integer_from_zero_rejected(self, seed, structure):
        records, store = random_corpus(np.random.default_rng(15), 30, 4)
        with pytest.raises(EmptyInputError, match="seed must be an integer >= 0"):
            build_index(records, store, structure=structure, seed=seed)

    def test_seed_zero_builds(self):
        records, store = random_corpus(np.random.default_rng(15), 30, 4)
        index = build_index(records, store, structure="partitioned",
                            num_partitions=4, seed=0)
        assert sorted(np.concatenate(index.partitions).tolist()) == list(range(30))

    def test_zero_embedding_names_its_record(self):
        store = PrecomputedStore(2)
        store.add("a", [1.0, 0.0])
        store.add("b", [0.0, 0.0])
        records = [CaptionRecord("a", "x"), CaptionRecord("b", "y")]
        with pytest.raises(ZeroVectorError, match="'b'"):
            build_index(records, store)

    def test_provider_called_in_bounded_chunks(self, monkeypatch):
        class RecordingProvider(HashEmbedder):
            def __init__(self, dim):
                super().__init__(dim)
                self.calls = []

            def embed_texts(self, texts):
                self.calls.append(len(texts))
                return super().embed_texts(texts)

        count = 2 * embedding_mod.EMBED_CHUNK + 7
        records = [CaptionRecord(f"r{i:05d}", f"caption {i}") for i in range(count)]
        chunked = RecordingProvider(8)
        index = build_index(records, chunked)
        assert max(chunked.calls) <= embedding_mod.EMBED_CHUNK
        assert sum(chunked.calls) == count

        monkeypatch.setattr(embedding_mod, "EMBED_CHUNK", count)
        single = RecordingProvider(8)
        reference = build_index(records, single)
        assert single.calls == [count]
        assert np.array_equal(index.vectors, reference.vectors)

    def test_dedup_drops_repeated_text(self):
        records = [
            CaptionRecord("a", "same text"),
            CaptionRecord("b", "same text"),
            CaptionRecord("c", "other text"),
        ]
        store = PrecomputedStore(2)
        for rid in "abc":
            store.add(rid, [1.0, 0.0])
        index = build_index(records, store, dedup=True)
        assert [r.id for r in index.records] == ["a", "c"]

    @pytest.mark.parametrize("value", ["no", 1, None])
    def test_dedup_must_be_a_bool(self, value):
        store = PrecomputedStore(2)
        store.add("a", [1.0, 0.0])
        with pytest.raises(EmptyInputError, match="dedup"):
            build_index([CaptionRecord("a", "text")], store, dedup=value)

    def test_insertion_order_irrelevant(self):
        rng = np.random.default_rng(12)
        records, store = random_corpus(rng, 200, 8)
        shuffled = list(records)
        rng.shuffle(shuffled)
        a = build_index(records, store, structure="partitioned",
                        num_partitions=8, seed=3)
        b = build_index(shuffled, store, structure="partitioned",
                        num_partitions=8, seed=3)
        query = rng.standard_normal(8)
        hits_a = retrieve_topk(a, query, 10, probes="all")
        hits_b = retrieve_topk(b, query, 10, probes="all")
        assert [h.record.id for h in hits_a] == [h.record.id for h in hits_b]


class TestRetrieveTopk:
    def test_basis_query(self):
        index = basis_index()
        hits = retrieve_topk(index, [0.0, 1.0, 0.0], 1)
        assert hits[0].record.id == "b"
        assert hits[0].score == pytest.approx(1.0, abs=1e-6)

    def test_k_clamped_to_corpus(self):
        index = basis_index()
        hits = retrieve_topk(index, [1.0, 1.0, 1.0], 10)
        assert len(hits) == 3
        scores = [h.score for h in hits]
        assert scores == sorted(scores, reverse=True)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            retrieve_topk(basis_index(), [1.0, 0.0], 1)

    def test_empty_index(self):
        empty = CaptionIndex(dim=2, records=[],
                             vectors=np.empty((0, 2), dtype=np.float32))
        with pytest.raises(EmptyIndexError):
            retrieve_topk(empty, [1.0, 0.0], 1)

    def test_flat_matches_brute_force(self):
        rng = np.random.default_rng(20)
        for trial in range(20):
            size = int(rng.integers(50, 400))
            records, store = random_corpus(rng, size, 16)
            index = build_index(records, store)
            ids = [r.id for r in index.records]
            for _ in range(5):
                query = rng.standard_normal(16)
                got = [h.record.id for h in retrieve_topk(index, query, 10)]
                want = brute_force_ids(index.vectors, ids, query, 10)
                assert got == want

    def test_partitioned_probes_all_is_exact(self):
        rng = np.random.default_rng(21)
        records, store = random_corpus(rng, 500, 16)
        index = build_index(records, store, structure="partitioned",
                            num_partitions=10, seed=5)
        ids = [r.id for r in index.records]
        for _ in range(20):
            query = rng.standard_normal(16)
            got = [h.record.id for h in retrieve_topk(index, query, 10, probes="all")]
            want = brute_force_ids(index.vectors, ids, query, 10)
            assert got == want

    def test_probes_all_equals_exact_topk(self):
        rng = np.random.default_rng(22)
        records, store = random_corpus(rng, 300, 8)
        index = build_index(records, store, structure="partitioned",
                            num_partitions=12, seed=9)
        for _ in range(10):
            query = rng.standard_normal(8)
            via_probe = retrieve_topk(index, query, 7, probes="all")
            via_scan = exact_topk(index, query, 7)
            assert [h.record.id for h in via_probe] == [h.record.id for h in via_scan]

    def test_exact_topk_scores_a_block_at_a_time(self, monkeypatch):
        """With blocks of 2**14 values, the oracle's peak memory is well
        under one float64 copy of the rows, and its hits and score bits
        equal those of one block; each query ties with a twin row in
        another block."""
        rng = np.random.default_rng(24)
        rows = unit_rows(rng, 4096, 64)
        index = hand_index(np.concatenate([rows, rows[:40]]))
        queries = [*rows[:40:8], *rng.standard_normal((5, 64))]

        def oracle(k):
            return [[(h.row, h.score.hex()) for h in exact_topk(index, q, k)]
                    for q in queries]

        whole = {k: oracle(k) for k in (1, 10, len(index))}
        monkeypatch.setattr(index_mod, "SCAN_BLOCK", 1 << 14)
        tracemalloc.start()
        try:
            blocks = oracle(10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < index.vectors.nbytes / 2
        assert blocks == whole[10]
        assert {k: oracle(k) for k in (1, len(index))} == {
            k: whole[k] for k in (1, len(index))}
        assert all(hits[1][0] == hits[0][0] + 4096 for hits in whole[10][:5])  # twins

    def test_limited_probes_returns_sorted_subset(self):
        rng = np.random.default_rng(23)
        records, store = random_corpus(rng, 400, 8)
        index = build_index(records, store, structure="partitioned",
                            num_partitions=16, seed=1)
        query = rng.standard_normal(8)
        hits = retrieve_topk(index, query, 10, probes=2)
        scores = [h.score for h in hits]
        assert scores == sorted(scores, reverse=True)
        all_ids = {r.id for r in index.records}
        assert all(h.record.id in all_ids for h in hits)

    def test_prefix_property(self):
        rng = np.random.default_rng(24)
        records, store = random_corpus(rng, 200, 8)
        index = build_index(records, store)
        for _ in range(10):
            query = rng.standard_normal(8)
            small = [h.record.id for h in retrieve_topk(index, query, 4)]
            large = [h.record.id for h in retrieve_topk(index, query, 9)]
            assert large[:4] == small

    def test_tie_break_ascending_id(self):
        records = [CaptionRecord(rid, f"text {rid}") for rid in ("z", "m", "a")]
        store = PrecomputedStore(2)
        for rid in ("z", "m", "a"):
            store.add(rid, [1.0, 0.0])
        index = build_index(records, store)
        hits = retrieve_topk(index, [1.0, 0.0], 3)
        assert [h.record.id for h in hits] == ["a", "m", "z"]

    @pytest.mark.parametrize("probes,k", [(2, 3), ("all", 3), (2, 1)])
    def test_ties_across_probed_partitions_break_by_id(self, probes, k):
        # rows 0 and 3 hold the same vector; the probed lists give rows in
        # the order 3, 4, 0, ... so ties must not follow scan position
        records = [CaptionRecord(rid, f"text {rid}") for rid in "abcde"]
        vectors = np.array([[1.0, 0.0], [0.0, 1.0], [0.6, 0.8], [1.0, 0.0],
                            [0.8, 0.6]], dtype=np.float32)
        index = CaptionIndex(
            dim=2, records=records, vectors=vectors, structure="partitioned",
            centroids=np.array([[1.0, 0.0], [0.0, 1.0], [0.7, 0.7]]),
            partitions=[np.array([3, 4]), np.array([1]), np.array([0, 2])],
        )
        hits = retrieve_topk(index, [1.0, 0.1], k, probes=probes)
        assert [h.record.id for h in hits] == ["a", "d", "e"][:k]
        assert [h.row for h in hits] == [0, 3, 4][:k]
        if k > 1:
            assert hits[0].score == hits[1].score


def hand_index(vectors, partitions=None, centroids=None):
    """An index over ``vectors`` as given, flat or with these member lists."""
    vectors = np.asarray(vectors, dtype=np.float32)
    records = [CaptionRecord(f"r{i:04d}", f"caption {i}") for i in range(len(vectors))]
    if partitions is None:
        return CaptionIndex(dim=vectors.shape[1], records=records, vectors=vectors)
    return CaptionIndex(
        dim=vectors.shape[1], records=records, vectors=vectors,
        structure="partitioned",
        centroids=np.asarray(centroids, dtype=np.float64),
        partitions=[np.array(p, dtype=np.int64) for p in partitions],
    )


def hit_keys(hits):
    return [(h.record.id, h.row) for h in hits]


def unit_rows(rng, count, dim):
    rows = rng.standard_normal((count, dim))
    return (rows / np.linalg.norm(rows, axis=1, keepdims=True)).astype(np.float32)


class TestImmutableIndex:
    def test_fields_cannot_be_assigned(self):
        index = basis_index()
        with pytest.raises(dataclasses.FrozenInstanceError):
            index.vectors = index.vectors * np.float32(2.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            index.partitions = [np.arange(len(index))]

    def test_replace_after_a_first_query_scans_the_new_fields(self):
        rng = np.random.default_rng(31)
        records, store = random_corpus(rng, 200, 8)
        index = build_index(records, store, structure="partitioned",
                            num_partitions=6, seed=3)
        queries = rng.standard_normal((10, 8))
        before = [hit_keys(retrieve_topk(index, q, 5, probes="all")) for q in queries]
        # even rows in one list, odd rows in the other; every query is
        # nearest the first centroid, so one probe scans the even rows only
        halves = dataclasses.replace(
            index, partitions=[np.arange(0, 200, 2), np.arange(1, 200, 2)],
            centroids=np.array([np.zeros(8), np.full(8, 100.0)]),
        )
        flipped = dataclasses.replace(index, vectors=-index.vectors)
        evens = [r.id for r in index.records[::2]]
        for q, hits in zip(queries, before):
            for derived in (halves, flipped):
                assert hit_keys(retrieve_topk(derived, q, 5, probes="all")) == (
                    hit_keys(exact_topk(derived, q, 5)))
            assert [h.record.id for h in retrieve_topk(halves, q, 5, probes=1)] == (
                brute_force_ids(index.vectors[::2], evens, q, 5))
            assert hit_keys(retrieve_topk(flipped, q, 5, probes="all")) != hits
            assert hit_keys(retrieve_topk(index, q, 5, probes="all")) == hits


class TestFloat32Shortlist:
    """The float32 scan keeps every row that can reach the float64 top k."""

    def test_rows_one_ulp_apart_around_the_kth_score(self):
        rng = np.random.default_rng(40)
        base = unit_rows(rng, 1, 16)[0]
        nudged = []
        for j in range(16):  # one coordinate moved by -3..3 float32 ulps
            for steps in range(-3, 4):
                row = base.copy()
                row[j] += np.float32(steps) * np.spacing(base[j])
                nudged.append(row)
        vectors = np.concatenate([nudged, unit_rows(rng, 50, 16)])
        vectors = vectors[rng.permutation(len(vectors))]
        flat = hand_index(vectors)
        part = hand_index(vectors, [np.arange(c, len(vectors), 5) for c in range(5)],
                          np.zeros((5, 16)))
        float32_order_wrong = 0
        for _ in range(30):
            query = base + 0.01 * rng.standard_normal(16)
            for k in (1, 7, 40):
                want = hit_keys(exact_topk(flat, query, k))
                assert hit_keys(retrieve_topk(flat, query, k)) == want
                assert hit_keys(retrieve_topk(part, query, k, probes="all")) == want
                q32 = (query / np.linalg.norm(query)).astype(np.float32)
                naive = np.lexsort((np.arange(len(vectors)), -(vectors @ q32)))[:k]
                float32_order_wrong += naive.tolist() != [row for _, row in want]
        assert float32_order_wrong  # the float64 rescore decided some order

    def test_duplicate_rows_in_different_partitions(self):
        rng = np.random.default_rng(41)
        originals = unit_rows(rng, 20, 8)
        # rows 20..29 and 30..39 repeat rows 0..9, each copy in its own list
        vectors = np.concatenate([originals, originals[:10], originals[:10]])
        lists = [np.arange(0, 20), np.arange(20, 30), np.arange(30, 40)]
        part = hand_index(vectors, lists, [vectors[m].mean(axis=0) for m in lists])
        flat = hand_index(vectors)
        for query in [*originals[:5], *rng.standard_normal((10, 8))]:
            every_row = {h.row: h.score for h in retrieve_topk(flat, query, 40)}
            for k in (1, 2, 3, 5, 12):
                want = hit_keys(exact_topk(flat, query, k))
                assert hit_keys(retrieve_topk(flat, query, k)) == want
                assert hit_keys(retrieve_topk(part, query, k, probes="all")) == want
                for probes in (1, 2, 3):
                    for hit in retrieve_topk(part, query, k, probes=probes):
                        assert hit.score == every_row[hit.row]

    def test_k_larger_than_the_rows_scanned(self):
        rng = np.random.default_rng(42)
        vectors = unit_rows(rng, 30, 8)
        lists = [np.arange(0, 10), np.arange(10, 30)]
        part = hand_index(vectors, lists, [vectors[m].mean(axis=0) for m in lists])
        flat = hand_index(vectors)
        for _ in range(10):
            query = rng.standard_normal(8)
            want = hit_keys(exact_topk(flat, query, 30))
            assert hit_keys(retrieve_topk(flat, query, 50)) == want
            probed = np.argmin(np.sum((part.centroids - query / np.linalg.norm(query))
                                      ** 2, axis=1))
            scanned = [key for key in want if key[1] in lists[probed]]
            assert hit_keys(retrieve_topk(part, query, 25, probes=1)) == scanned

    def test_empty_partitions(self):
        rng = np.random.default_rng(43)
        vectors = unit_rows(rng, 24, 6)
        lists = [[], np.arange(0, 12), [], np.arange(12, 24), []]
        flat = hand_index(vectors)
        for _ in range(10):
            query = rng.standard_normal(6)
            aim = query / np.linalg.norm(query)
            # the empty lists' centroids sit on the query, so they are probed
            # first; the fourth probe takes the nearer of the other two
            centroids = [aim, vectors[:12].mean(axis=0), aim,
                         vectors[12:].mean(axis=0), aim]
            part = hand_index(vectors, lists, centroids)
            assert retrieve_topk(part, query, 5, probes=3) == []
            nearer = 1 if (np.sum((centroids[1] - aim) ** 2)
                           <= np.sum((centroids[3] - aim) ** 2)) else 3
            everything = hit_keys(exact_topk(flat, query, 24))
            assert hit_keys(retrieve_topk(part, query, 5, probes=4)) == [
                key for key in everything if key[1] in lists[nearer]
            ][:5]
            for k in (1, 5, 24, 30):
                assert hit_keys(retrieve_topk(part, query, k, probes="all")) == (
                    everything[:k])

    def test_flat_and_probes_all_give_the_same_bits(self):
        bench = make_noisy_benchmark(seed=7)
        flat = build_index(bench.records, bench.store)
        part = build_index(bench.records, bench.store, structure="partitioned",
                           num_partitions=8)
        for _, ref in bench.queries:
            query = bench.store.vector(ref)
            via_scan = retrieve_topk(flat, query, 10)
            via_probe = retrieve_topk(part, query, 10, probes="all")
            assert [(h.record.id, h.row, h.score) for h in via_scan] == [
                (h.record.id, h.row, h.score) for h in via_probe
            ]
            every_row = {h.row: h.score for h in retrieve_topk(flat, query, len(flat))}
            for probes in (1, 2, 4):
                for hit in retrieve_topk(part, query, 10, probes=probes):
                    assert hit.score == every_row[hit.row]



def probed_oracle_ids(index, query, k, probes):
    """Independent oracle for a limited probe: the partitions nearest the
    unit query in float64, ties to the lower partition, then a brute-force
    top k over their rows by (-score, id)."""
    q = np.asarray(query, dtype=np.float64)
    q = q / np.linalg.norm(q)
    nearest = np.argsort(np.sum((index.centroids - q) ** 2, axis=1), kind="stable")
    rows = np.sort(np.concatenate([index.partitions[c] for c in nearest[:probes]]))
    return brute_force_ids(index.vectors[rows], [index.records[r].id for r in rows],
                           query, k)


def in_windows(index, units, k, probes, window):
    """The hits of ``units`` from :func:`retrieve_window`, ``window`` at a
    time, as (rows, float.hex of scores) per query."""
    return [(rows.tolist(), list(map(float.hex, scores.tolist())))
            for start in range(0, len(units), window)
            for rows, scores in retrieve_window(index, units[start:start + window], k, probes)]


def alone(index, queries, k, probes):
    """Each query's own :func:`retrieve_topk` hits, in the form of
    :func:`in_windows`."""
    return [([h.row for h in hits], [h.score.hex() for h in hits])
            for hits in (retrieve_topk(index, q, k, probes) for q in queries)]


def alone_oracle(index, queries, k):
    """Each query's :func:`exact_topk` hits, in the form of :func:`in_windows`."""
    return [([h.row for h in hits], [h.score.hex() for h in hits])
            for hits in (exact_topk(index, q, k) for q in queries)]


class TestRetrieveWindow:
    """A window of queries gives each query the hits of its own
    ``retrieve_topk``, whatever the window's size or the product used."""

    @pytest.fixture(scope="class")
    def world(self):
        rng = np.random.default_rng(50)
        records, store = random_corpus(rng, 300, 16)
        # every fifth caption has a twin: the same vector under the next id,
        # so the float64 scores tie and k cuts through the twins by id
        for rec in records[::5]:
            records.append(CaptionRecord(rec.id + "+", rec.text))
            store.add(rec.id + "+", store.vector(rec.id))
        flat = build_index(records, store)
        part = build_index(records, store, structure="partitioned",
                           num_partitions=8, seed=5)
        # queries on a twin (an exact tie at the top) and random ones
        queries = [*flat.vectors[:120:6], *rng.standard_normal((60, 16))]
        return flat, part, queries

    @pytest.mark.parametrize("window", [1, 2, 7, 40])
    @pytest.mark.parametrize("structure, probes", [
        ("flat", None), ("partitioned", 1), ("partitioned", 2),
        ("partitioned", None), ("partitioned", "all")])
    @pytest.mark.parametrize("k", [1, 10])
    def test_window_equals_each_query_alone(self, world, window, structure,
                                            probes, k):
        flat, part, queries = world
        index = flat if structure == "flat" else part
        units = [check_query(index, q, k) for q in queries]
        got = [hits for start in range(0, len(units), window)
               for hits in retrieve_window(index, units[start:start + window], k,
                                           probes)]
        ties = 0
        for query, (rows, scores) in zip(queries, got, strict=True):
            alone = retrieve_topk(index, query, k, probes)
            ids = [index.records[row].id for row in rows.tolist()]
            assert list(zip(ids, rows.tolist(), map(float.hex, scores.tolist()))) == [
                (h.record.id, h.row, h.score.hex()) for h in alone]
            if structure == "flat" or probes == "all":
                assert ids == [h.record.id for h in exact_topk(index, query, k)]
            else:
                n_probe = index_mod.DEFAULT_PROBES if probes is None else probes
                assert ids == probed_oracle_ids(index, query, k, n_probe)
            ties += bool((scores[1:] == scores[:-1]).any())
        assert ties or k == 1  # the twins put exact ties in the windows

    @pytest.mark.parametrize("window", [8, 40])
    @pytest.mark.parametrize("structure, probes", [
        ("flat", None), ("partitioned", 1), ("partitioned", "all")])
    def test_the_same_query_twice_in_a_window(self, world, window, structure, probes):
        """A query given twice in one window, side by side or apart, gets
        its own hits both times."""
        flat, part, queries = world
        index = flat if structure == "flat" else part
        twice = [q for pair in zip(queries[:12], queries[:12]) for q in pair]
        twice += [*queries[20:26], *queries[20:26]]
        units = [check_query(index, q, 10) for q in twice]
        assert in_windows(index, units, 10, probes, window) == alone(index, twice, 10, probes)

    @pytest.mark.parametrize("window", [8, 40])
    @pytest.mark.parametrize("structure, probes, k", [
        ("flat", None, 360), ("flat", None, 400), ("partitioned", 1, 45),
        ("partitioned", 2, 90), ("partitioned", "all", 360)])
    def test_k_at_or_above_the_rows_scanned(self, world, window, structure, probes, k):
        """At k of at least the rows a query scans, the query keeps all of
        them; with one or two probes of lists of 35 to 59 rows, a window
        mixes such queries with queries that scan more than k rows."""
        flat, part, queries = world
        index = flat if structure == "flat" else part
        units = [check_query(index, q, k) for q in queries]
        got = in_windows(index, units, k, probes, window)
        assert got == alone(index, queries, k, probes)
        kept = {len(rows) for rows, _ in got}
        if structure == "flat" or probes == "all":
            assert kept == {len(index)}
        else:
            assert min(kept) < k == max(kept)

    def test_scan_block_of_one_query(self, world, monkeypatch):
        """With room for one query's scores, a window is scanned a query at
        a time, and the hits do not change."""
        flat, part, queries = world
        for index, probes in ((flat, None), (part, 2)):
            units = [check_query(index, q, 10) for q in queries]
            whole = retrieve_window(index, units, 10, probes)
            monkeypatch.setattr(index_mod, "SCAN_BLOCK", 1)
            assert [(r.dtype, r.tobytes(), s.dtype, s.tobytes()) for r, s in
                    retrieve_window(index, units, 10, probes)] == [
                (r.dtype, r.tobytes(), s.dtype, s.tobytes()) for r, s in whole]
            monkeypatch.undo()

    def test_empty_window(self, world):
        flat, part, _ = world
        assert retrieve_window(flat, [], 10) == []
        assert retrieve_window(part, [], 10, probes=2) == []


def planted(rng, basis, query, count):
    """Unit float32 rows whose residual off ``basis`` is parallel to that of
    ``query``, so that ``||r_x|| ||r_q||`` equals ``r_x.r_q``: the
    projected upper bound is as tight as it can be."""
    t = query - basis @ (basis.T @ query)
    low = rng.standard_normal((count, basis.shape[1]))
    rows = low @ basis.T + rng.uniform(0.1, 2.0, (count, 1)) * (t / np.linalg.norm(t))
    return unit_rows_of(rows)


def unit_rows_of(rows):
    return (rows / np.linalg.norm(rows, axis=1, keepdims=True)).astype(np.float32)


def shortfall(rows, basis, query):
    """Each row's float64 score less its float32 projected upper bound, and
    the projection of the rows."""
    max_norm = float(np.sqrt(index_mod._squared_norms(rows).max()))
    projection = index_mod._Projection.of(rows, np.arange(len(rows)), [0, len(rows)],
                                          basis, max_norm)
    [columns] = projection.columns
    ub = projection.queries(query[None])[0] @ columns
    return np.einsum("ij,j->i", rows.astype(np.float64), query) - ub, projection


class TestProjectedBound:
    """The float32 product of projected rows, plus the bound of
    ``_projected_bound``, is never below a row's float64 score."""

    def test_rows_planted_at_the_bound(self):
        rng = np.random.default_rng(60)
        basis = np.linalg.qr(rng.standard_normal((64, 15)))[0]
        worst = 0.0
        for _ in range(20):
            query = rng.standard_normal(64)
            query /= np.linalg.norm(query)
            short, projection = shortfall(planted(rng, basis, query, 200), basis, query)
            assert short.max() <= projection.bound
            worst = max(worst, short.max())
        assert worst > 0  # the float32 product alone falls short of some scores

    def test_departure_from_orthonormality_is_measured(self):
        """A basis 1e-5 off orthonormal: rows whose projection lies along
        ``-E b`` score above the float32 product by more than the bound
        without ``eta``, and within the bound with it."""
        rng = np.random.default_rng(61)
        exact = np.linalg.qr(rng.standard_normal((64, 15)))[0]
        basis = exact + 1e-5 * rng.standard_normal((64, 15))
        departure = basis.T @ basis - np.eye(15)
        for _ in range(10):
            query = rng.standard_normal(64)
            query /= np.linalg.norm(query)
            b = basis.T @ query
            t = query - basis @ b
            aim = -departure @ b
            low = (aim / np.linalg.norm(aim) * rng.uniform(0.5, 1.0, (100, 1))
                   + 0.1 * rng.standard_normal((100, 15)))
            rows = unit_rows_of(low @ basis.T + rng.uniform(0.1, 1.0, (100, 1))
                                * (t / np.linalg.norm(t)))
            short, projection = shortfall(rows, basis, query)
            assert short.max() > index_mod._projected_bound(15, 0.0, 1.0)
            assert short.max() <= projection.bound

    def test_zero_residual_rows(self):
        rng = np.random.default_rng(62)
        basis = np.linalg.qr(rng.standard_normal((32, 7)))[0]
        rows = unit_rows_of(rng.standard_normal((300, 7)) @ basis.T)
        for _ in range(10):
            query = rng.standard_normal(32)
            query /= np.linalg.norm(query)
            short, projection = shortfall(rows, basis, query)
            assert projection.columns[0][-1].max() < 1e-6
            assert short.max() <= projection.bound


@pytest.fixture
def projected(monkeypatch):
    """Every index takes the projected scan. Returns a list that gets, per
    window, the number of queries and the number that fell back to the
    full-width scan."""
    monkeypatch.setattr(index_mod, "PROJECT_MIN", 0)
    monkeypatch.setattr(index_mod, "PROJECT_MIN_DIM", 0)
    counts = []
    scan = index_mod._scan_projected

    def counted(layout, queries, probed, k):
        qi, positions, full = scan(layout, queries, probed, k)
        counts.append((len(queries), len(full)))
        return qi, positions, full

    monkeypatch.setattr(index_mod, "_scan_projected", counted)
    return counts


def full_width_hits(index, units, k, probes, monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(index_mod, "PROJECT_MIN", float("inf"))
        return bits(retrieve_window(index, units, k, probes))


def bits(hits):
    return [(rows.tolist(), scores.tobytes()) for rows, scores in hits]


@pytest.mark.parametrize("dim, rows, takes", [
    (32, 1 << 17, False), (36, -(-(1 << 22) // 36), False),
    (40, (1 << 22) // 40, False), (40, -(-(1 << 22) // 40), True),
    (48, -(-(1 << 22) // 48), True)])
def test_which_indexes_scan_projected_rows(monkeypatch, dim, rows, takes):
    """Only an index of at least ``PROJECT_MIN`` values and
    ``PROJECT_MIN_DIM`` dimensions scans projected rows: at 32 and 36
    dimensions the full-width scan was the faster."""
    assert (index_mod.PROJECT_MIN, index_mod.PROJECT_MIN_DIM) == (1 << 22, 40)
    calls = []
    scan = index_mod._scan_projected
    monkeypatch.setattr(index_mod, "_scan_projected",
                        lambda *args: calls.append(1) or scan(*args))
    rng = np.random.default_rng(75)
    index = hand_index(np.resize(unit_rows(rng, 1024, dim), (rows, dim)))
    retrieve_topk(index, rng.standard_normal(dim), 5)
    assert bool(calls) == takes


class TestProjectedScan:
    """The projected scan gives the hits of the full-width scan, to the
    bits of each score, whether it prunes a query or falls back."""

    def test_clustered_rows_are_pruned(self, projected, monkeypatch):
        rng = np.random.default_rng(70)
        centres = unit_rows(rng, 300, 32)
        vectors = unit_rows_of(np.repeat(centres, 20, axis=0)
                               + 0.05 * rng.standard_normal((6000, 32)))
        records = [CaptionRecord(f"r{i:05d}", "x") for i in range(6000)]
        store = PrecomputedStore(32)
        store.add_many((r.id, v) for r, v in zip(records, vectors))
        index = build_index(records, store, structure="partitioned", num_partitions=4)
        units = [check_query(index, q, 10) for q in
                 [*centres[:40] + 0.02 * rng.standard_normal((40, 32)),
                  *vectors[:600:30]]]
        for probes, k in ((1, 10), (2, 1), ("all", 10)):
            want = full_width_hits(index, units, k, probes, monkeypatch)
            assert bits(retrieve_window(index, units, k, probes)) == want
            for query, (rows, _) in zip(units, want):
                if probes == "all":
                    assert rows == [h.row for h in exact_topk(index, query, k)]
        assert sum(n for n, _ in projected) == 3 * len(units)
        assert sum(full for _, full in projected) == 0  # every query was pruned

    @pytest.mark.parametrize("share", [index_mod.FALLBACK_SHARE, 1.0])
    def test_rows_in_the_span_of_the_basis(self, projected, monkeypatch, share):
        """Rows of rank 3 in 16 dimensions: the basis spans them, so every
        residual column is 0, and rows repeat, so scores tie."""
        monkeypatch.setattr(index_mod, "FALLBACK_SHARE", share)
        rng = np.random.default_rng(71)
        vectors = unit_rows_of(rng.standard_normal((150, 3)) @ rng.standard_normal((3, 16)))
        vectors = np.concatenate([vectors, vectors[::3]])
        flat = hand_index(vectors)
        part = hand_index(vectors, [np.arange(c, len(vectors), 4) for c in range(4)],
                          rng.standard_normal((4, 16)))
        queries = [*vectors[:10], *rng.standard_normal((10, 16))]
        for k in (1, 5, 40):
            for index, probes in ((flat, None), (part, 2), (part, "all")):
                units = [check_query(index, q, k) for q in queries]
                want = full_width_hits(index, units, k, probes, monkeypatch)
                assert bits(retrieve_window(index, units, k, probes)) == want
        assert max(block[-1].max() for block in part._layout.projection.columns) < 1e-6

    @pytest.mark.parametrize("share", [index_mod.FALLBACK_SHARE, 1.0])
    def test_k_at_least_the_rows_scanned(self, projected, monkeypatch, share):
        monkeypatch.setattr(index_mod, "FALLBACK_SHARE", share)
        rng = np.random.default_rng(72)
        vectors = unit_rows(rng, 30, 8)
        lists = [np.arange(0, 10), np.arange(10, 30)]
        part = hand_index(vectors, lists, [vectors[m].mean(axis=0) for m in lists])
        for _ in range(10):
            query = rng.standard_normal(8)
            for k, probes in ((25, 1), (30, 2), (50, "all")):
                units = [check_query(part, query, k)]
                assert bits(retrieve_window(part, units, k, probes)) == (
                    full_width_hits(part, units, k, probes, monkeypatch))
            assert hit_keys(retrieve_topk(part, query, 50, "all")) == hit_keys(
                exact_topk(part, query, 30))

    @pytest.mark.parametrize("share", [index_mod.FALLBACK_SHARE, 1.0])
    def test_ties_across_lists_break_by_id(self, projected, monkeypatch, share):
        """Against the first axis, a row's float64 score is its first
        coordinate; rows that share it, spread over lists, tie exactly."""
        monkeypatch.setattr(index_mod, "FALLBACK_SHARE", share)
        rng = np.random.default_rng(73)
        first = rng.choice([0.9, 0.6, 0.3], 400)
        rest = unit_rows(rng, 400, 11) * np.sqrt(1 - first**2)[:, None]
        vectors = np.column_stack([first, rest]).astype(np.float32)
        lists = [np.arange(c, 400, 5) for c in range(5)]
        part = hand_index(vectors, lists, rng.standard_normal((5, 12)))
        axis = np.eye(12)[0]
        for k in (1, 7, 200):
            hits = retrieve_topk(part, axis, k, probes="all")
            assert hit_keys(hits) == hit_keys(exact_topk(part, axis, k))
            tied = [h.row for h in hits if h.score == hits[0].score]
            assert tied == sorted(tied)
            assert k == 1 or len({row % 5 for row in tied}) == 5  # over every list

    @pytest.mark.parametrize("window", [8, 40])
    def test_window_mixes_pruned_and_full_width_queries(self, projected, window):
        """Queries near a cluster are pruned and random ones fall back to
        the full-width scan; interleaved in one window, each gets its own
        hits, and so does a query given twice."""
        rng = np.random.default_rng(76)
        centres = unit_rows(rng, 300, 32)
        vectors = unit_rows_of(np.repeat(centres, 20, axis=0)
                               + 0.05 * rng.standard_normal((6000, 32)))
        records = [CaptionRecord(f"r{i:05d}", "x") for i in range(6000)]
        store = PrecomputedStore(32)
        store.add_many((r.id, v) for r, v in zip(records, vectors))
        index = build_index(records, store, structure="partitioned", num_partitions=4)
        near = centres[:20] + 0.02 * rng.standard_normal((20, 32))
        queries = [q for pair in zip(near, rng.standard_normal((20, 32))) for q in pair]
        queries[3] = queries[0]  # a pruned query twice in a window
        queries[6] = queries[1]  # and one that falls back
        for probes, k in ((1, 10), (2, 1), ("all", 10)):
            units = [check_query(index, q, k) for q in queries]
            projected.clear()
            got = in_windows(index, units, k, probes, window)
            assert all(0 < full < n for n, full in projected)  # every window mixes both
            assert got == alone(index, queries, k, probes)

    @pytest.mark.parametrize("window", [8, 40])
    @pytest.mark.parametrize("share", [index_mod.FALLBACK_SHARE, 1.0])
    def test_k_at_least_the_rows_scanned_in_windows(self, projected, monkeypatch, window,
                                                    share):
        """Lists of 10 and 20 rows: at k of 15, a query nearest the short
        list has no floor, and a window mixes it with queries that have one."""
        monkeypatch.setattr(index_mod, "FALLBACK_SHARE", share)
        rng = np.random.default_rng(77)
        vectors = unit_rows(rng, 30, 8)
        lists = [np.arange(0, 10), np.arange(10, 30)]
        part = hand_index(vectors, lists, [vectors[m].mean(axis=0) for m in lists])
        queries = list(rng.standard_normal((60, 8)))
        for k, probes in ((15, 1), (25, 1), (30, 2), (50, "all")):
            units = [check_query(part, q, k) for q in queries]
            assert in_windows(part, units, k, probes, window) == alone(part, queries, k, probes)

    def test_nearest_list_alone_decides_fallback(self, projected, monkeypatch):
        """The nearest list keeps fewer than ``FALLBACK_SHARE`` of its rows,
        and the other probed list, whose rows all outscore the nearest
        list's k-th, keeps every row, more than ``FALLBACK_SHARE`` of the
        rows both lists hold: the queries stay on the projected scan."""
        rng = np.random.default_rng(80)
        axis = np.eye(16)[0]
        vectors = unit_rows_of(np.concatenate([
            axis + 0.05 * rng.standard_normal((10, 16)),  # the nearest list's best
            rng.standard_normal((990, 16)),
            axis + 0.02 * rng.standard_normal((200, 16))]))  # the other list
        part = hand_index(vectors, [np.arange(1000), np.arange(1000, 1200)],
                          [axis, np.eye(16)[1]])
        k = 5
        queries = axis + 0.01 * rng.standard_normal((6, 16))
        units = [check_query(part, q, k) for q in queries]
        for unit in units:
            scores = vectors.astype(np.float64) @ unit
            assert (np.count_nonzero(scores[1000:] >= np.sort(scores[:1000])[-k])
                    > index_mod.FALLBACK_SHARE * len(vectors))
        for probes in (2, "all"):
            want = full_width_hits(part, units, k, probes, monkeypatch)
            assert bits(retrieve_window(part, units, k, probes)) == want
            assert bits(retrieve_window(part, units[:1], k, probes)) == want[:1]
        assert projected == [(6, 0), (1, 0)] * 2  # no query fell back

    def test_empty_nearest_list_falls_back(self, projected, monkeypatch):
        """A query whose nearest list is empty has no floor: it falls back
        and does not rescore every row of its other lists, even where no
        share of kept rows would make it."""
        monkeypatch.setattr(index_mod, "FALLBACK_SHARE", 1.0)
        rng = np.random.default_rng(81)
        vectors = unit_rows(rng, 600, 16)
        queries = rng.standard_normal((4, 16))
        aim = queries[0] / np.linalg.norm(queries[0])
        lists = [[], np.arange(0, 300), np.arange(300, 600)]
        part = hand_index(vectors, lists, [aim, vectors[:300].mean(axis=0),
                                           vectors[300:].mean(axis=0)])
        units = [check_query(part, q, 5) for q in queries]
        for probes in (2, "all"):
            want = full_width_hits(part, units, 5, probes, monkeypatch)
            assert bits(retrieve_window(part, units, 5, probes)) == want
        assert [full for _, full in projected] == [1, 1]  # the first query

    def test_one_cut_per_window(self, projected, monkeypatch):
        """Queries near the first list's few rows on the axis are pruned,
        and queries nearest the other, isotropic list fall back; a window
        of both is cut once, and each query gets the hits and score bits
        of a window of one and of the full-width scan."""
        rng = np.random.default_rng(82)
        axis = np.eye(16)[0]
        vectors = unit_rows_of(np.concatenate([
            axis + 0.05 * rng.standard_normal((10, 16)), rng.standard_normal((1990, 16))]))
        part = hand_index(vectors, [np.arange(1000), np.arange(1000, 2000)], [axis, -axis])
        queries = [q for pair in zip(axis + 0.01 * rng.standard_normal((5, 16)),
                                     rng.standard_normal((5, 16)) - 2 * axis) for q in pair]
        calls = []
        scan, top = index_mod._scan, index_mod._top
        monkeypatch.setattr(index_mod, "_scan", lambda *args: calls.append("scan") or scan(*args))
        monkeypatch.setattr(index_mod, "_top", lambda *args: calls.append("top") or top(*args))
        for k, probes in ((5, 1), (10, 2), (5, "all")):
            units = [check_query(part, q, k) for q in queries]
            with monkeypatch.context() as patch:
                patch.setattr(index_mod, "PROJECT_MIN", float("inf"))
                want = in_windows(part, units, k, probes, len(units))
            assert in_windows(part, units, k, probes, 1) == want
            projected.clear()
            calls.clear()
            assert in_windows(part, units, k, probes, len(units)) == want
            assert projected == [(10, 5)]  # the window mixes both
            assert calls == ["scan", "top"]

    def test_isotropic_rows_fall_back(self, projected, monkeypatch):
        rng = np.random.default_rng(74)
        records, store = random_corpus(rng, 4000, 32)
        index = build_index(records, store, structure="partitioned", num_partitions=4)
        units = [check_query(index, q, 10) for q in rng.standard_normal((30, 32))]
        for probes in (1, 2, "all"):
            want = full_width_hits(index, units, 10, probes, monkeypatch)
            assert bits(retrieve_window(index, units, 10, probes)) == want
        assert projected == [(30, 30)] * 3  # every query fell back


def one_list_world():
    """An index of 4 lists of 100 clustered rows in 48 dimensions, hand
    built so that each list is one cluster, of every fourth row, and 8
    queries nearest the first list's centroid, so that with one probe they
    all probe it."""
    rng = np.random.default_rng(78)
    centres = unit_rows(rng, 4, 48)
    vectors = unit_rows_of(np.tile(centres, (100, 1))
                           + 0.1 * rng.standard_normal((400, 48)))
    lists = [np.arange(c, 400, 4) for c in range(4)]
    part = hand_index(vectors, lists, [vectors[m].mean(axis=0) for m in lists])
    queries = list(centres[0] + 0.05 * rng.standard_normal((8, 48)))
    return part, queries


@pytest.mark.parametrize("path", ["full-width", "projected"])
@pytest.mark.parametrize("count", [1, 2, 3, 4, 5, 8])
def test_one_list_probed_by_many_queries(monkeypatch, path, count):
    """A window in which one list is probed by 1 to 8 queries, all of
    them in one product: each query gets the hits of a window of one, to
    the bits of each score, and at ``probes="all"`` the oracle's rows and
    score bits."""
    if path == "projected":
        monkeypatch.setattr(index_mod, "PROJECT_MIN", 0)
        monkeypatch.setattr(index_mod, "PROJECT_MIN_DIM", 0)
        monkeypatch.setattr(index_mod, "FALLBACK_SHARE", 1.0)  # every query prunes
    part, queries = one_list_world()
    queries = queries[:count]
    for k, probes in ((10, 1), (10, "all"), (150, "all")):
        units = [check_query(part, q, k) for q in queries]
        probed = np.argsort(
            np.sum((part.centroids - np.array(units)[:, None]) ** 2, axis=2), axis=1)
        assert (probed[:, 0] == 0).all()  # every query probes the first list
        got = in_windows(part, units, k, probes, count)
        assert got == alone(part, queries, k, probes)
        if probes == "all":
            assert got == alone_oracle(part, queries, k)
    assert ("projection" in part._layout.__dict__) == (path == "projected")


class TestScanCopies:
    """A partitioned index scans ``index.vectors`` through its scan order,
    with no row-major copy of them; a flat index scans them in place."""

    def test_partitioned_layout_holds_the_index_rows(self):
        part, queries = one_list_world()
        retrieve_topk(part, queries[0], 5, probes=2)
        assert part._layout.vectors is part.vectors
        assert [block.flags.c_contiguous for block in part._layout.columns] == [True] * 4
        assert [block.shape for block in part._layout.columns] == [(48, 100)] * 4

    def test_flat_index_scans_its_rows_in_place(self):
        rng = np.random.default_rng(79)
        flat = hand_index(unit_rows(rng, 300, 16))
        retrieve_topk(flat, rng.standard_normal(16), 5)
        [block] = flat._layout.columns
        assert block.base is flat.vectors

    def test_no_full_width_copy_while_every_query_prunes(self, projected, monkeypatch):
        monkeypatch.setattr(index_mod, "FALLBACK_SHARE", 1.0)
        part, queries = one_list_world()
        for probes in (1, 2, "all"):
            units = [check_query(part, q, 10) for q in queries]
            retrieve_window(part, units, 10, probes)
        assert sum(full for _, full in projected) == 0  # every query was pruned
        assert part._layout.vectors is part.vectors
        assert "projection" in part._layout.__dict__
        assert "columns" not in part._layout.__dict__


class TestFloat32ShortlistProjected(TestFloat32Shortlist):
    """The shortlist cases again, each query pruned by the projected scan."""

    @pytest.fixture(autouse=True)
    def pruned(self, projected, monkeypatch):
        monkeypatch.setattr(index_mod, "FALLBACK_SHARE", 1.0)


@pytest.mark.parametrize("value", [0, 2.5, True])
@pytest.mark.parametrize("name,call", [
    ("k", lambda v: retrieve_topk(basis_index(), [1.0, 0.0, 0.0], v)),
    ("k", lambda v: exact_topk(basis_index(), [1.0, 0.0, 0.0], v)),
    ("dim", PrecomputedStore),
    ("dim", HashEmbedder),
    ("dim", lambda v: hashed_vector("x", dim=v)),
], ids=["retrieve_topk", "exact_topk", "PrecomputedStore", "HashEmbedder",
        "hashed_vector"])
def test_count_arguments_reject_other_values(name, call, value):
    with pytest.raises(EmptyInputError, match=f"^{name} must be an integer >= 1"):
        call(value)


class TestExactTopk:
    def test_empty_index(self):
        empty = CaptionIndex(dim=2, records=[],
                             vectors=np.empty((0, 2), dtype=np.float32))
        with pytest.raises(EmptyIndexError):
            exact_topk(empty, [1.0, 0.0], 1)

    def test_single_record(self):
        records = [CaptionRecord("only", "lone caption")]
        store = PrecomputedStore(2)
        store.add("only", [0.0, 1.0])
        index = build_index(records, store)
        hits = exact_topk(index, [1.0, 1.0], 1)
        assert hits[0].record.id == "only"


class TestSerialization:
    def test_flat_roundtrip_bit_exact(self, tmp_path):
        index = basis_index()
        path = tmp_path / "small.vfci"
        save_index(index, path)
        loaded = load_index(path)
        assert loaded.dim == index.dim
        assert loaded.structure == "flat"
        assert [r.id for r in loaded.records] == [r.id for r in index.records]
        assert [r.text for r in loaded.records] == [r.text for r in index.records]
        assert np.array_equal(loaded.vectors, index.vectors)
        assert loaded.provider_identity == index.provider_identity

    def test_truncated_file_rejected(self, tmp_path):
        index = basis_index()
        path = tmp_path / "small.vfci"
        save_index(index, path)
        path.write_bytes(path.read_bytes()[:-7])
        with pytest.raises(CorruptFileError):
            load_index(path)

    def test_corrupted_byte_rejected(self, tmp_path):
        index = basis_index()
        path = tmp_path / "small.vfci"
        save_index(index, path)
        data = bytearray(path.read_bytes())
        data[20] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(CorruptFileError):
            load_index(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.vfci"
        path.write_bytes(b"XXXX" + b"\x00" * 64)
        with pytest.raises(CorruptFileError):
            load_index(path)

    @pytest.mark.parametrize("spoil, message", [
        (lambda head, body: (head[:11], None), "file too short to be an index"),
        (lambda head, body: (head[:4] + struct.pack("<I", 2), body),
         "unsupported index version 2"),
        (lambda head, body: (head, body[:-1] + b"\x07"), "unknown structure code 7"),
        (lambda head, body: (head, body + b"\x00"), "trailing bytes in index body"),
        (lambda head, body: (head, body.replace(b"precomputed", b"pr\xffcomputed")),
         "malformed UTF-8 in provider identity"),
        (lambda head, body: (head, body.replace(b"second", b"s\xffcond")),
         "malformed UTF-8 in caption text"),
    ], ids=["too-short", "version", "structure", "trailing", "identity-utf8",
            "text-utf8"])
    def test_malformed_file_with_a_good_crc_rejected(self, tmp_path, spoil, message):
        """Each check past the CRC, on a file whose CRC is recomputed."""
        path = tmp_path / "small.vfci"
        save_index(basis_index(), path)
        data = path.read_bytes()
        head, body = spoil(data[:8], data[8:-4])
        path.write_bytes(head if body is None
                         else head + body + struct.pack("<I", zlib.crc32(body)))
        with pytest.raises(CorruptFileError, match=f"^{message}$"):
            load_index(path)

    def test_ten_thousand_record_corpus_roundtrips_unchanged(self, tmp_path):
        import json

        from vfclass.ingestion import canonical_jsonl, ingest_corpus

        rng = np.random.default_rng(31)
        corpus_path = tmp_path / "big.jsonl"
        with open(corpus_path, "w") as fh:
            for i in range(10_000):
                fh.write(json.dumps({"id": f"r{i:05d}",
                                     "text": f"caption number {i}",
                                     "source": "bulk"}) + "\n")
        records = ingest_corpus(corpus_path)
        store = PrecomputedStore(8)
        for rec in records:
            store.add(rec.id, rng.standard_normal(8))
        index = build_index(records, store)
        path = tmp_path / "big.vfci"
        save_index(index, path)
        loaded = load_index(path)
        assert loaded.records == index.records
        assert canonical_jsonl(loaded.records) == corpus_path.read_text()

    def test_denormalized_rows_rejected_on_load(self, tmp_path):
        index = basis_index()
        index = dataclasses.replace(index, vectors=index.vectors * np.float32(1.5))
        path = tmp_path / "bad.vfci"
        save_index(index, path)
        with pytest.raises(CorruptFileError, match="normalized"):
            load_index(path)

    def test_failed_save_keeps_previous_file(self, tmp_path, monkeypatch):
        """A save that fails mid-write, its new file written but not yet
        synced, leaves the old file as it was and no partial file."""
        path = tmp_path / "small.vfci"
        save_index(basis_index(), path)
        before = path.read_bytes()
        written = []

        def fail(fd):
            written.append(embedding_mod.os.fstat(fd).st_size)
            raise OSError("crash while syncing")

        monkeypatch.setattr(embedding_mod.os, "fsync", fail)
        other = dataclasses.replace(basis_index(), provider_identity="another provider")
        with pytest.raises(OSError, match="crash while syncing"):
            save_index(other, path)
        assert written[0] > len(before)  # the new file was written when the save failed
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["small.vfci"]

    def test_partitioned_roundtrip_preserves_retrieval(self, tmp_path):
        rng = np.random.default_rng(30)
        records, store = random_corpus(rng, 1000, 16)
        index = build_index(records, store, structure="partitioned",
                            num_partitions=16, seed=2)
        path = tmp_path / "big.vfci"
        save_index(index, path)
        loaded = load_index(path)
        assert np.array_equal(loaded.vectors, index.vectors)
        for _ in range(10):
            query = rng.standard_normal(16)
            before = retrieve_topk(index, query, 10, probes=4)
            after = retrieve_topk(loaded, query, 10, probes=4)
            assert [h.record.id for h in before] == [h.record.id for h in after]
            assert [h.score for h in before] == [h.score for h in after]
