"""Acceptance suite: one test per release criterion, tolerances pinned.

Each test prints a timing line; the conftest terminal summary adds a
PASS/FAIL line per criterion at the end of every run.
"""

import itertools
import time
from pathlib import Path

import numpy as np
import pytest

from vfclass.benchmark import make_benchmark
from vfclass.candidates import FilterConfig, LexiconTagger, extract_candidates
from vfclass.embedding import (
    PrecomputedStore,
    RemoteEmbeddingClient,
    hashed_vector,
)
from vfclass.evaluation import (
    LabeledPrediction,
    cluster_accuracy,
    hungarian,
    semantic_iou,
)
from vfclass.index import (
    CaptionRecord,
    build_index,
    load_index,
    retrieve_topk,
    save_index,
)
from vfclass.ingestion import ingest_corpus
from vfclass.scoring import ClassifierConfig, classify, classify_batch, fuse
from vfclass.stubserver import running_stub

DATA_DIR = Path(__file__).parent / "data"

TAGGER = LexiconTagger()


def brute_force_ids(vectors, ids, query, k):
    q = np.asarray(query, dtype=np.float64)
    q = q / np.linalg.norm(q)
    scored = [
        (float(np.dot(vectors[row].astype(np.float64), q)), ids[row])
        for row in range(len(ids))
    ]
    scored.sort(key=lambda pair: (-pair[0], pair[1]))
    return [rid for _, rid in scored[:k]]


def random_corpus(rng, size, dim):
    ids = [f"rec-{i:05d}" for i in range(size)]
    records = [CaptionRecord(rid, f"caption {rid}") for rid in ids]
    store = PrecomputedStore(dim)
    vectors = rng.standard_normal((size, dim))
    vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    for rid, vec in zip(ids, vectors):
        store.add(rid, vec)
    return records, store


def check_exactness(index, rng, queries=3, k=10, probes=None):
    ids = [r.id for r in index.records]
    for _ in range(queries):
        query = rng.standard_normal(index.dim)
        if probes is None:
            got = retrieve_topk(index, query, k)
        else:
            got = retrieve_topk(index, query, k, probes=probes)
        want = brute_force_ids(index.vectors, ids, query, k)
        assert [h.record.id for h in got] == want


def test_criterion_1_retrieval_exactness():
    """Flat and probes=all retrieval match brute force on 100 random corpora."""
    start = time.monotonic()
    rng = np.random.default_rng(100)
    for trial in range(100):
        dim = 8 if trial % 2 == 0 else 32
        size = int(rng.integers(100, 2001))
        records, store = random_corpus(rng, size, dim)
        flat = build_index(records, store)
        check_exactness(flat, rng, queries=3, k=10)
        partitioned = build_index(
            records, store, structure="partitioned", num_partitions=16,
            seed=trial,
        )
        check_exactness(partitioned, rng, queries=3, k=10, probes="all")
    elapsed = time.monotonic() - start
    print(f"criterion 1: 100 corpora exact, {elapsed:.1f}s")
    assert elapsed < 30.0


def assignment_oracle(cost):
    """Enumerate assignments; totals summed in row order like the solver."""
    cost = np.asarray(cost, dtype=np.float64)
    n, m = cost.shape
    best = None
    if n <= m:
        assignments = (
            tuple((i, p[i]) for i in range(n))
            for p in itertools.permutations(range(m), n)
        )
    else:
        assignments = (
            tuple(sorted((p[j], j) for j in range(m)))
            for p in itertools.permutations(range(n), m)
        )
    for pairs in assignments:
        total = sum(cost[r, c] for r, c in pairs)
        if best is None or total < best:
            best = total
    return best


def test_criterion_2_hungarian_exactness():
    """100 random cost matrices up to 7x7 equal the enumeration oracle."""
    start = time.monotonic()
    rng = np.random.default_rng(200)
    for _ in range(100):
        n = int(rng.integers(1, 8))
        m = int(rng.integers(1, 8))
        cost = rng.uniform(-10, 10, (n, m))
        pairs = hungarian(cost)
        total = sum(cost[r, c] for r, c in pairs)
        assert total == assignment_oracle(cost)
    elapsed = time.monotonic() - start
    print(f"criterion 2: 100 assignments exact, {elapsed:.1f}s")
    assert elapsed < 5.0


def golden_fixture():
    rows = (
        [("s%02d" % i, "wolf", "arctic wolf") for i in range(1, 5)]
        + [("s05", "crow", "arctic wolf")]
        + [("s%02d" % i, "crow", "crow") for i in range(6, 9)]
        + [("s%02d" % i, "wolf", "crow") for i in range(9, 11)]
        + [("s%02d" % i, "fern", "green fern") for i in range(11, 16)]
        + [("s%02d" % i, "moss", "moss") for i in range(16, 19)]
        + [("s19", "fern", "moss"), ("s20", "crow", "moss")]
    )
    return [LabeledPrediction(*row) for row in rows]


def test_criterion_3_metric_kernels():
    """IoU fixtures, the golden cluster fixture, and relabeling invariance."""
    assert semantic_iou("stanford cars", "cars") == 0.5
    assert semantic_iou("dog", "cat") == 0.0
    assert semantic_iou("cassowary", "cassowary") == 1.0
    assert semantic_iou("great white shark", "white shark") == 2 / 3

    preds = golden_fixture()
    assert cluster_accuracy(preds) == 0.75  # hand-computed: 15 of 20 matched

    rng = np.random.default_rng(300)
    names = sorted({p.predicted for p in preds})
    baseline = cluster_accuracy(preds, mode="one-to-one")
    for trial in range(50):
        shuffled = list(names)
        rng.shuffle(shuffled)
        mapping = dict(zip(names, [f"renamed-{w}-{trial}" for w in shuffled]))
        renamed = [
            LabeledPrediction(p.id, mapping[p.predicted], p.truth) for p in preds
        ]
        assert cluster_accuracy(renamed, mode="one-to-one") == baseline
    print("criterion 3: metric kernels exact")


def test_criterion_4_fusion_endpoints_and_invariance():
    """Endpoint rankings, unit sum, and additive shift invariance."""

    def softmax(x):
        e = np.exp(np.asarray(x) - np.max(x))
        return e / e.sum()

    rng = np.random.default_rng(400)
    for _ in range(100):
        n = int(rng.integers(2, 15))
        vis = rng.uniform(-1, 1, n)
        tex = rng.uniform(-1, 1, n)
        alpha = float(rng.uniform(0, 1))

        visual_only = fuse(vis, tex, 1.0)
        assert np.array_equal(np.argsort(-np.asarray(visual_only)),
                              np.argsort(-softmax(vis)))
        textual_only = fuse(vis, tex, 0.0)
        assert np.array_equal(np.argsort(-np.asarray(textual_only)),
                              np.argsort(-softmax(tex)))

        fused = fuse(vis, tex, alpha)
        assert sum(fused) == pytest.approx(1.0, abs=1e-9)

        shifted = fuse(vis + 3.1, tex - 0.9, alpha)
        assert shifted == pytest.approx(fused, abs=1e-9)
        assert int(np.argmax(shifted)) == int(np.argmax(fused))
    print("criterion 4: fusion endpoints and invariance hold")


def test_criterion_5_candidate_pipeline_stages():
    """The four filter configurations on the bundled noisy-caption fixture."""
    captions = ingest_corpus(DATA_DIR / "noisy_captions.jsonl")
    results = {
        stage: extract_candidates(captions, TAGGER, FilterConfig(stages=stage))
        for stage in ("none", "remove", "standardize", "all")
    }
    nothing = results["none"]
    everything = results["all"]
    assert len(everything) < len(nothing)
    for name in everything.entries:
        assert name.isalpha()
        assert name == name.lower()
    # raw fixture text carries uppercase, digits, and symbols
    assert any(not name.isalpha() or name != name.lower()
               for name in nothing.entries)
    # case variants collapse once standardization runs
    assert "Cassowary" in results["remove"].entries
    assert "cassowary" in results["remove"].entries
    assert "Cassowary" not in results["standardize"].entries
    assert everything.entries == {"cassowary": 6, "bird": 2}
    print("criterion 5: filter stages constructible and clean")


def test_criterion_6_end_to_end_benchmark():
    """Planted 10-class benchmark: >=95% label recovery with defaults."""
    start = time.monotonic()
    bench = make_benchmark(
        num_classes=10, captions_per_class=500, num_queries=500,
        dim=32, caption_noise=0.1, image_noise=0.1, seed=42,
    )
    index = bench.build_index()
    config = ClassifierConfig()  # alpha=0.7, k=10 defaults
    assert config.alpha == 0.7 and config.k == 10
    results = classify_batch(bench.queries, index, bench.store, TAGGER, config)
    labeled = [
        LabeledPrediction(item.id, item.prediction.label, bench.truths[item.id])
        for item in results
        if item.prediction is not None
    ]
    assert len(labeled) == 500
    exact = sum(1 for p in labeled if p.predicted == p.truth)
    accuracy = cluster_accuracy(labeled)
    elapsed = time.monotonic() - start
    print(f"criterion 6: {exact}/500 planted labels, CA={accuracy:.3f}, "
          f"{elapsed:.1f}s")
    assert exact >= 475  # 95% of 500
    assert accuracy >= 0.95
    assert elapsed < 60.0


def test_criterion_7_caption_count_trend():
    """CA(k=10) >= CA(k=1); CA(k=20) within 2 points of CA(k=10), 5 seeds."""
    means = {1: [], 10: [], 20: []}
    for seed in range(5):
        bench = make_benchmark(
            num_classes=10, captions_per_class=500, num_queries=150,
            dim=32, seed=seed,
        )
        index = bench.build_index()
        for k in (1, 10, 20):
            results = classify_batch(
                bench.queries, index, bench.store, TAGGER, ClassifierConfig(k=k)
            )
            labeled = [
                LabeledPrediction(i.id, i.prediction.label, bench.truths[i.id])
                for i in results
                if i.prediction is not None
            ]
            means[k].append(cluster_accuracy(labeled))
    ca1 = float(np.mean(means[1]))
    ca10 = float(np.mean(means[10]))
    ca20 = float(np.mean(means[20]))
    print(f"criterion 7: CA(1)={ca1:.3f} CA(10)={ca10:.3f} CA(20)={ca20:.3f}")
    assert ca10 >= ca1
    assert abs(ca20 - ca10) <= 0.02


def test_criterion_8_serialization_behavior(tmp_path):
    """Round-tripped indexes are bit-identical and behave identically."""
    rng = np.random.default_rng(800)
    for trial in range(10):
        dim = 8 if trial % 2 == 0 else 32
        size = int(rng.integers(100, 2001))
        records, store = random_corpus(rng, size, dim)
        structure = "flat" if trial % 2 == 0 else "partitioned"
        index = build_index(records, store, structure=structure,
                            num_partitions=16, seed=trial)
        path = tmp_path / f"roundtrip-{trial}.vfci"
        save_index(index, path)
        loaded = load_index(path)
        assert loaded.vectors.tobytes() == index.vectors.tobytes()
        probes = None if structure == "flat" else "all"
        check_exactness(loaded, rng, queries=3, k=10, probes=probes)
    print("criterion 8: save/load round trips are behavior-identical")


def test_criterion_9_provider_equivalence():
    """Classify via the stub HTTP service == classify via a dumped store."""
    texts = []
    class_words = ["otter", "falcon", "lantern"]
    for c, word in enumerate(class_words):
        for i in range(12):
            texts.append(f"a {word} near the old {['pier', 'tower'][i % 2]}")
    records = [CaptionRecord(f"cap-{i:03d}", t) for i, t in enumerate(texts)]
    refs = [f"img/{i}" for i in range(9)]

    # every word the pipeline could ever embed: per-caption candidates
    # without the count threshold form a superset of any query's candidates
    vocabulary = set()
    loose = FilterConfig(min_count=1)
    for rec in records:
        vocabulary |= set(
            extract_candidates([rec], TAGGER, loose).entries
        )

    dim = 16
    with running_stub(dim=dim) as url:
        remote = RemoteEmbeddingClient(url)
        remote_index = build_index(records, remote, seed=1)
        remote_preds = classify_batch(
            [(r, r) for r in refs], remote_index, remote, TAGGER,
            ClassifierConfig(),
        )

    dumped = PrecomputedStore(dim, identity="dumped-stub")
    for rec in records:
        dumped.add(rec.text, hashed_vector(rec.text, "text", dim))
    for word in sorted(vocabulary):
        dumped.add(word, hashed_vector(word, "text", dim))
    for ref in refs:
        dumped.add(ref, hashed_vector(ref, "image", dim))

    store_index = build_index(records, dumped, seed=1)
    store_preds = classify_batch(
        [(r, r) for r in refs], store_index, dumped, TAGGER, ClassifierConfig()
    )

    assert len(remote_preds) == len(store_preds) == 9
    for a, b in zip(remote_preds, store_preds):
        assert a.prediction is not None and b.prediction is not None
        assert a.prediction.label == b.prediction.label
        assert [x.candidate for x in a.prediction.ranked] == [
            x.candidate for x in b.prediction.ranked
        ]
        assert [x.fused for x in a.prediction.ranked] == pytest.approx(
            [x.fused for x in b.prediction.ranked], abs=1e-12
        )
        assert [h.record.id for h in a.prediction.retrieved] == [
            h.record.id for h in b.prediction.retrieved
        ]
    print("criterion 9: stub service and dumped store agree")
