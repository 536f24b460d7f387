"""The classifier against the plain-Python CaSED of ``reference.py`` over
many small seeded worlds, and batch invariance with faulty queries mixed in."""

import math
from itertools import product

import numpy as np
import pytest

from reference import NoCandidates, Reference
from vfclass.benchmark import make_benchmark, make_noisy_benchmark
from vfclass.candidates import FilterConfig, LexiconTagger
from vfclass.errors import VfcError
import vfclass.index as index_mod
from vfclass.index import CaptionRecord, build_index
from vfclass.scoring import ClassifierConfig, classify_batch

PROMPT = "a photo of a {}"
KS = (1, 3, 10, 25)
ALPHAS = (0.0, 0.3, 0.7, 1.0)
STAGES = ("all", "standardize", "remove", "none")
# kind, seed, classes, dim; only the noisy generator embeds the raw tokens
# that the stage configurations other than "all" keep
WORLDS = [("clean", 1, 3, 8), ("clean", 2, 5, 16), ("clean", 3, 4, 12),
          ("noisy", 4, 3, 8), ("noisy", 5, 4, 16), ("noisy", 6, 2, 12)]


@pytest.fixture(scope="module")
def tagger():
    return LexiconTagger()


def make_world(kind, seed, classes, dim):
    """A planted benchmark whose every third caption has a twin (same text,
    same vector, the next id), so retrieval has exact ties for k to cut
    through; a caption of a word the store lacks, at the opposite of the
    first class; and a prompted vector for every key. Returns the flat and
    the partitioned index, the store and the queries, with the vector of the
    caption of the missing word."""
    make = make_benchmark if kind == "clean" else make_noisy_benchmark
    bench = make(num_classes=classes, captions_per_class=10, num_queries=8,
                 dim=dim, seed=seed)
    store, records = bench.store, list(bench.records)
    for rec in bench.records[::3]:
        records.append(CaptionRecord(rec.id + "+", rec.text, rec.source))
        store.add(rec.id + "+", store.vector(rec.id))
    orphan = -store.vector(bench.class_names[0])
    records.append(CaptionRecord("orphan", "quokka quokka"))
    store.add("orphan", orphan)
    for key in store.keys():
        store.add(PROMPT.format(key), np.roll(store.vector(key), 1))
    flat = build_index(records, store)
    partitioned = build_index(records, store, structure="partitioned",
                              num_partitions=4, seed=seed)
    return flat, partitioned, store, bench.queries, orphan


def config_at(i, kind, k, alpha, probes):
    stages = STAGES[i % 4] if kind == "noisy" else "all"
    return ClassifierConfig(k=k, alpha=alpha, probes=probes,
                            prompt_template=PROMPT if i // 4 % 2 else "",
                            filter=FilterConfig(stages=stages))


def assert_agrees(item, ref, query, config):
    try:
        label, fallback, ranked, retrieved = ref.classify(query, config)
    except NoCandidates:
        assert item.error_code == "empty-candidate-set"
        return
    except VfcError as err:
        assert item.error_code == err.code
        return
    pred = item.prediction
    assert pred is not None, item.error
    assert (pred.label, pred.fallback) == (label, fallback)
    assert [b.candidate for b in pred.ranked] == [r[0] for r in ranked]
    assert [h.record.id for h in pred.retrieved] == [rid for rid, _ in retrieved]
    got = [v for b in pred.ranked for v in (b.visual, b.textual, b.fused)]
    want = [v for r in ranked for v in r[1:]]
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    np.testing.assert_allclose([h.score for h in pred.retrieved],
                               [s for _, s in retrieved], rtol=0, atol=1e-12)


@pytest.mark.parametrize("kind, seed, classes, dim", WORLDS)
def test_classifier_equals_the_reference(tagger, kind, seed, classes, dim):
    flat, partitioned, store, queries, _ = make_world(kind, seed, classes, dim)
    outcomes = set()
    for index, probes, shift in ((flat, None, 0), (partitioned, "all", 1)):
        ref = Reference(index, store, tagger)
        for i, (k, alpha) in enumerate(product(KS, ALPHAS)):
            config = config_at(i + shift, kind, k, alpha, probes)
            for item, (_, query) in zip(
                    classify_batch(queries, index, store, tagger, config), queries):
                assert_agrees(item, ref, query, config)
                outcomes.add(item.error_code or item.prediction.fallback)
    # every world reaches ranked labels and the missing word; a clean
    # world's single caption (k=1) also reaches the fallback
    reached = {False, "unknown-image-ref"} | ({True} if kind == "clean" else set())
    assert reached <= outcomes


@pytest.mark.parametrize("kind, seed, classes, dim", WORLDS[::2])
def test_windows_equal_the_whole_list(tagger, kind, seed, classes, dim):
    flat, partitioned, store, queries, orphan = make_world(kind, seed, classes, dim)
    faulty = [("unknown", "img/none"), ("wrong-dim", [0.1] * (dim + 1)),
              ("nan", [math.nan] * dim), ("missing-word", orphan.tolist())]
    rng = np.random.default_rng(seed)
    mixed = list(queries)
    for pair in faulty:
        mixed.insert(int(rng.integers(len(mixed) + 1)), pair)
    for index, probes in ((flat, None), (partitioned, 2)):
        config = ClassifierConfig(k=int(rng.choice(KS)), alpha=float(rng.choice(ALPHAS)),
                                  probes=probes)
        whole = classify_batch(mixed, index, store, tagger, config)
        errors = {item.id: item.error_code for item in whole}
        assert [errors[qid] for qid, _ in faulty] == [
            "unknown-image-ref", "dimension-mismatch", "empty-input",
            "unknown-image-ref"]
        for _ in range(4):
            cuts = sorted(rng.choice(np.arange(1, len(mixed)), 3, replace=False))
            windows = []
            for a, b in zip([0, *cuts], [*cuts, len(mixed)]):
                windows += classify_batch(mixed[a:b], index, store, tagger, config)
            assert windows == whole


@pytest.fixture(params=[index_mod.FALLBACK_SHARE, 1.0], ids=["share", "no-fallback"])
def projected(request, monkeypatch):
    """Every index takes the projected scan, whose queries fall back to
    the full-width scan past ``FALLBACK_SHARE`` or never."""
    monkeypatch.setattr(index_mod, "PROJECT_MIN", 0)
    monkeypatch.setattr(index_mod, "PROJECT_MIN_DIM", 0)
    monkeypatch.setattr(index_mod, "FALLBACK_SHARE", request.param)


@pytest.mark.parametrize("kind, seed, classes, dim", WORLDS)
def test_projected_scan_equals_the_reference(projected, tagger, kind, seed, classes,
                                             dim):
    test_classifier_equals_the_reference(tagger, kind, seed, classes, dim)


@pytest.mark.parametrize("kind, seed, classes, dim", WORLDS[::2])
def test_projected_windows_equal_the_whole_list(projected, tagger, kind, seed,
                                                classes, dim):
    test_windows_equal_the_whole_list(tagger, kind, seed, classes, dim)
