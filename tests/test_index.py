"""Index build, retrieval exactness, and serialization."""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

import vfclass.embedding as embedding_mod
import vfclass.index as index_mod
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
        path = tmp_path / "small.vfci"
        save_index(basis_index(), path)
        before = path.read_bytes()

        def fail(data):
            raise RuntimeError("crash while writing")

        monkeypatch.setattr(index_mod, "body_crc", fail)
        with pytest.raises(RuntimeError):
            save_index(basis_index(), path)
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
