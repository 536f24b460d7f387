"""Score fusion and the end-to-end classifier on planted worlds."""

import dataclasses
import hashlib
import json
import math
from collections import Counter

import numpy as np
import pytest

from vfclass.benchmark import make_benchmark, make_noisy_benchmark
from vfclass.candidates import (
    FilterConfig,
    LexiconTagger,
    default_stop_words,
    extract_candidates,
    token_settings,
)
import vfclass.embedding as embedding_mod
from vfclass.embedding import EMBED_CHUNK, PrecomputedStore, cosine_similarity
from vfclass.errors import (
    DimensionMismatchError,
    EmptyCandidateSetError,
    EmptyInputError,
    ProviderUnavailableError,
    SchemaError,
    UnknownKeyError,
    VfcError,
    ZeroVectorError,
)
import vfclass.index as index_mod
from vfclass.cli import _prediction_json
from vfclass.index import CaptionRecord, build_index, retrieve_topk, retrieve_window
import vfclass.scoring as scoring_mod
from vfclass.scoring import (
    ClassifierConfig,
    classify,
    classify_batch,
    fuse,
)


def softmax_oracle(values):
    top = max(values)
    exp = [math.exp(v - top) for v in values]
    total = sum(exp)
    return [e / total for e in exp]


@pytest.fixture(scope="module")
def tagger():
    return LexiconTagger()


@pytest.fixture(scope="module")
def scored(tagger):
    """A small planted benchmark classified in one batch at k=5, with the
    image vector and the retrieved rows' float64 mean of each prediction."""
    bench = make_benchmark(num_classes=4, captions_per_class=15, num_queries=12,
                           dim=8, seed=3)
    index, store = bench.build_index(), bench.store
    items = classify_batch(bench.queries, index, store, tagger, ClassifierConfig(k=5))
    refs = dict(bench.queries)
    return store, [
        (item.prediction, store.vector(refs[item.id]),
         index.vectors[[h.row for h in item.prediction.retrieved]]
         .astype(np.float64).mean(axis=0))
        for item in items]


def two_class_world(store):
    """Captions about dog and cat at e0, about whale and shark at e1 (the
    caller adds ``shark``); a query at e0, one at e1 and one more near e0,
    each retrieving two captions."""
    e = np.eye(4)
    records = []
    for i, (text, vec) in enumerate([("a dog and a cat", e[0])] * 2
                                    + [("a whale and a shark", e[1])] * 2):
        records.append(CaptionRecord(f"cap-{i}", text))
        store.add(f"cap-{i}", vec)
    for word, vec in [("dog", e[0]), ("cat", e[2]), ("whale", e[1])]:
        store.add(word, vec)
    queries = [("q0", e[0]), ("q1", e[1]), ("q2", e[0] + 0.1 * e[3])]
    return build_index(records, store), queries


class TestVisualScores:
    """The image-to-text cosine of each candidate, seen through ``classify``."""

    def test_identical_vector_scores_one(self, tagger):
        index, store = planted_world(np.eye(4)[0])
        pred = classify(np.eye(4)[0], index, store, tagger, ClassifierConfig(k=4))
        visual = {b.candidate: b.visual for b in pred.ranked}
        assert visual["dog"] == pytest.approx(1.0)
        assert visual["cat"] == pytest.approx(0.0)

    def test_matches_pairwise_cosine(self, scored):
        store, preds = scored
        for pred, image, _ in preds:
            for b in pred.ranked:
                want = cosine_similarity(image, store.vector(b.candidate))
                assert abs(b.visual - want) <= 1e-12

    def test_dimension_mismatch(self, tagger):
        """A text dim other than the image dim fails only its own query."""
        store = PrecomputedStore(4)
        store.add("shark", np.eye(4)[3])
        index, queries = two_class_world(store)
        config = ClassifierConfig(k=2)
        plain = classify_batch(queries, index, store, tagger, config)
        assert all(item.error is None for item in plain)

        class LongWhales:
            """The store, with one more dimension on the sea animals' rows:
            a call that mixes them with others is ragged, so it is split."""

            dim = 4

            def embed_images(self, refs):
                return store.embed_images(refs)

            def embed_texts(self, texts):
                return [np.append(v, 0.0) if t in ("whale", "shark") else v
                        for t, v in zip(texts, store.embed_texts(texts))]

        got = classify_batch(queries, index, LongWhales(), tagger, config)
        assert (got[1].error_code, got[1].error) == (
            "dimension-mismatch", "image dim 4 != candidate dim 5")
        assert [got[0], got[2]] == [plain[0], plain[2]]
        with pytest.raises(DimensionMismatchError):
            classify(queries[1][1], index, LongWhales(), tagger, config)

    def test_zero_candidate_vector_fails_only_its_query(self, tagger):
        store = PrecomputedStore(4)
        store.add("shark", np.zeros(4))
        index, queries = two_class_world(store)
        config = ClassifierConfig(k=2)
        got = classify_batch(queries, index, store, tagger, config)
        assert got[1].error_code == "zero-vector"
        assert [got[0].prediction.label, got[2].prediction.label] == ["dog", "dog"]
        with pytest.raises(ZeroVectorError):
            classify(queries[1][1], index, store, tagger, config)

    def test_centroid_parallel_candidate(self, tagger):
        index, store = planted_world([1.0, 1.0, 0.0, 0.0])
        store.add("park", [1.0, 1.0, 0.0, 0.0])
        store.add("cat", [1.0, -1.0, 0.0, 0.0])
        pred = classify(np.eye(4)[0], index, store, tagger, ClassifierConfig(k=4))
        textual = {b.candidate: b.textual for b in pred.ranked}
        assert textual["park"] == pytest.approx(1.0)
        assert textual["cat"] == pytest.approx(0.0)


class TestCaptionCentroid:
    """The text-to-text cosine, against the mean of the retrieved captions."""

    def test_identical_vectors_mean_is_vector(self, tagger):
        v = np.array([0.2, 0.4, 0.6, 0.0])
        index, store = planted_world(v)
        pred = classify(np.eye(4)[0], index, store, tagger, ClassifierConfig(k=4))
        for b in pred.ranked:
            want = cosine_similarity(v, store.vector(b.candidate))
            assert b.textual == pytest.approx(want, abs=1e-7)  # rows are float32

    def test_two_basis_vectors(self, tagger):
        e = np.eye(4)
        _, store = planted_world(e[0])
        store.add("park", [1.0, 1.0, 0.0, 0.0])
        records = [CaptionRecord(f"cap-{i}", "a dog and a cat in a park")
                   for i in range(4)]
        for i, rec in enumerate(records):
            store.add(rec.id, e[i % 2])
        index = build_index(records, store)
        pred = classify(e[0] + e[1], index, store, tagger, ClassifierConfig(k=4))
        textual = {b.candidate: b.textual for b in pred.ranked}
        assert textual["park"] == pytest.approx(1.0)
        assert textual["dog"] == pytest.approx(math.sqrt(0.5))

    def test_coordinate_wise_mean(self, scored):
        store, preds = scored
        for pred, _, centroid in preds:
            for b in pred.ranked:
                want = cosine_similarity(centroid, store.vector(b.candidate))
                assert abs(b.textual - want) <= 1e-12

    def test_zero_centroid_fails_only_its_query(self, tagger):
        store = PrecomputedStore(3)
        e = np.eye(3)
        records = []
        for i, (text, vec) in enumerate([("a dog", e[0]), ("a dog", -e[0]),
                                         ("a cat", e[1]), ("a cat", e[1])]):
            records.append(CaptionRecord(f"cap-{i}", text))
            store.add(f"cap-{i}", vec)
        store.add("dog", e[0])
        store.add("cat", e[1])
        index = build_index(records, store)
        # q0 scores 0 against every caption, so it retrieves the first two
        # by id, the opposite ones, whose mean is zero
        got = classify_batch([("q0", e[2]), ("q1", e[1])], index, store, tagger,
                             ClassifierConfig(k=2))
        assert got[0].error_code == "zero-vector"
        assert got[1].prediction.label == "cat"


class TestFuse:
    def test_alpha_one_is_visual_softmax(self):
        vis = [0.9, 0.1, 0.4]
        tex = [0.2, 0.8, 0.3]
        assert fuse(vis, tex, 1.0) == pytest.approx(softmax_oracle(vis), abs=1e-12)

    def test_alpha_zero_is_textual_softmax(self):
        vis = [0.9, 0.1, 0.4]
        tex = [0.2, 0.8, 0.3]
        assert fuse(vis, tex, 0.0) == pytest.approx(softmax_oracle(tex), abs=1e-12)

    def test_singleton_is_one(self):
        for alpha in (0.0, 0.3, 1.0):
            assert fuse([0.7], [0.1], alpha) == [1.0]

    def test_frozen_hand_oracle(self):
        got = fuse([0.9, 0.1], [0.2, 0.8], 0.7)
        vis = softmax_oracle([0.9, 0.1])
        tex = softmax_oracle([0.2, 0.8])
        want = [0.7 * v + 0.3 * t for v, t in zip(vis, tex)]
        assert got == pytest.approx(want, abs=1e-9)
        assert got == pytest.approx([0.5892852449215901, 0.4107147550784099],
                                    abs=1e-9)

    def test_sums_to_one(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            n = int(rng.integers(1, 12))
            vis = rng.uniform(-1, 1, n)
            tex = rng.uniform(-1, 1, n)
            alpha = float(rng.uniform(0, 1))
            assert sum(fuse(vis, tex, alpha)) == pytest.approx(1.0, abs=1e-9)

    def test_shift_invariance(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            n = int(rng.integers(2, 10))
            vis = rng.uniform(-1, 1, n)
            tex = rng.uniform(-1, 1, n)
            alpha = float(rng.uniform(0, 1))
            base = fuse(vis, tex, alpha)
            shifted = fuse(vis + 0.37, tex - 0.21, alpha)
            assert shifted == pytest.approx(base, abs=1e-9)

    def test_length_mismatch(self):
        with pytest.raises(EmptyInputError):
            fuse([0.1, 0.2], [0.3], 0.5)

    @pytest.mark.parametrize("alpha", [True, False, "0.5", None, 1.5, -0.1,
                                       math.nan])
    def test_alpha_other_than_a_number_in_range_is_rejected(self, alpha):
        with pytest.raises(EmptyInputError, match="alpha must be a number"):
            fuse([0.1, 0.2], [0.3, 0.4], alpha)

    @pytest.mark.parametrize("visual, textual, error", [
        ([0.1, math.nan], [0.3, 0.4], EmptyInputError),
        ([0.1, 0.2], [math.inf, 0.4], EmptyInputError),
        ([], [], EmptyInputError),
        ([[0.1, 0.2]], [[0.3, 0.4]], EmptyInputError),
        (["a"], ["b"], SchemaError),
        (["1", "2"], [True, False], SchemaError),
        ([0.1, 0.2], [True, False], SchemaError),
    ], ids=["nan", "inf", "empty", "two-d", "text", "numeric-text", "bools"])
    def test_bad_scores_are_rejected(self, visual, textual, error):
        with pytest.raises(error):
            fuse(visual, textual, 0.5)

    def test_fuse_is_the_classifier_fusion(self, scored):
        """Each prediction's fused scores are ``fuse`` of its cosines in
        name order, bit for bit: the window path and ``fuse`` are one
        implementation."""
        _, preds = scored
        for pred, _, _ in preds:
            by_name = sorted(pred.ranked, key=lambda b: b.candidate)
            assert fuse([b.visual for b in by_name], [b.textual for b in by_name],
                        ClassifierConfig().alpha) == [b.fused for b in by_name]


def planted_world(caption_vec, captions=None):
    """Corpus of four captions mentioning dog/cat/park, embeddings planted."""
    captions = captions or ["a dog and a cat in a park"] * 4
    store = PrecomputedStore(4)
    e = np.eye(4)
    store.add("dog", e[0])
    store.add("cat", e[1])
    store.add("park", e[2])
    records = []
    for i, text in enumerate(captions):
        rid = f"cap-{i}"
        records.append(CaptionRecord(rid, text))
        store.add(rid, caption_vec)
    return build_index(records, store), store


class TestClassifierConfig:
    @pytest.mark.parametrize("name,value", [
        ("k", 0), ("k", 2.5), ("k", True), ("k", "3"),
        ("alpha", "0.5"), ("alpha", True), ("alpha", 1.5), ("alpha", math.nan),
        ("probes", "abc"), ("probes", True), ("probes", 2.7), ("probes", 0),
        ("prompt_template", "a {} and {}"), ("prompt_template", "a {x} {}"),
        ("prompt_template", 5), ("filter", None), ("filter", {"min_count": 1}),
        ("prompt_template", None), ("prompt_template", 0),
        ("prompt_template", False), ("prompt_template", []),
    ])
    def test_bad_value_is_rejected(self, name, value):
        with pytest.raises(EmptyInputError, match=name):
            ClassifierConfig(**{name: value})
        if name == "probes":
            index, _ = planted_world(np.eye(4)[0])
            with pytest.raises(EmptyInputError, match=name):
                retrieve_topk(index, np.eye(4)[0], 2, value)

    def test_good_values_are_kept(self):
        config = ClassifierConfig(k=3, alpha=np.float64(0.25), probes="all",
                                  prompt_template="a photo of a {}")
        assert (config.k, config.alpha, config.probes) == (3, 0.25, "all")
        assert ClassifierConfig(alpha=1, probes=2).probes == 2

    @pytest.mark.parametrize("make", [ClassifierConfig, FilterConfig])
    def test_assigning_any_field_raises(self, make):
        config = make()
        before = dataclasses.astuple(config)
        for f in dataclasses.fields(config):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(config, f.name, getattr(make(), f.name))
        assert dataclasses.astuple(config) == before

    def test_a_checked_value_cannot_be_replaced(self):
        config = ClassifierConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.alpha = 5.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.filter.stages = "bogus"
        assert (config.alpha, config.filter.stages) == (0.7, "all")
        # a variant is made, and checked, by dataclasses.replace
        with pytest.raises(EmptyInputError, match="stages"):
            dataclasses.replace(config.filter, stages="bogus")
        variant = dataclasses.replace(config, alpha=0.25)
        assert (variant.alpha, config.alpha) == (0.25, 0.7)


class TestClassify:
    def test_visual_only_picks_image_aligned_candidate(self, tagger):
        index, store = planted_world(np.eye(4)[0])
        config = ClassifierConfig(k=4, alpha=1.0)
        pred = classify(np.eye(4)[0], index, store, tagger, config)
        assert pred.label == "dog"
        assert pred.ranked[0].candidate == "dog"
        assert not pred.fallback

    def test_textual_only_follows_centroid(self, tagger):
        # captions embed at cat's vector, image at dog's: alpha=0 - cat
        index, store = planted_world(np.eye(4)[1])
        config = ClassifierConfig(k=4, alpha=0.0)
        pred = classify(np.eye(4)[0], index, store, tagger, config)
        assert pred.label == "cat"

    def test_ranked_covers_candidates_and_is_sorted(self, tagger):
        index, store = planted_world(np.eye(4)[0])
        pred = classify(np.eye(4)[0], index, store, tagger,
                        ClassifierConfig(k=4))
        names = sorted(b.candidate for b in pred.ranked)
        assert names == ["cat", "dog", "park"]
        fused = [b.fused for b in pred.ranked]
        assert fused == sorted(fused, reverse=True)
        assert pred.label == pred.ranked[0].candidate

    def test_fused_is_probability_vector(self, tagger):
        index, store = planted_world(np.eye(4)[0])
        pred = classify(np.eye(4)[0], index, store, tagger,
                        ClassifierConfig(k=4))
        assert sum(b.fused for b in pred.ranked) == pytest.approx(1.0, abs=1e-9)

    def test_deterministic(self, tagger):
        index, store = planted_world(np.eye(4)[0])
        config = ClassifierConfig(k=4, alpha=0.7)
        a = classify(np.eye(4)[0], index, store, tagger, config)
        b = classify(np.eye(4)[0], index, store, tagger, config)
        assert a.label == b.label
        assert [x.fused for x in a.ranked] == [x.fused for x in b.ranked]

    def test_tie_breaks_lexicographically(self, tagger):
        store = PrecomputedStore(4)
        e = np.eye(4)
        store.add("ant", e[0])
        store.add("bee", e[0])  # identical embedding: guaranteed tie
        records = []
        for i in range(2):
            rid = f"cap-{i}"
            records.append(CaptionRecord(rid, "an ant and a bee"))
            store.add(rid, e[0])
        index = build_index(records, store)
        pred = classify(e[0], index, store, tagger, ClassifierConfig(k=2))
        assert pred.label == "ant"

    def test_image_ref_query(self, tagger):
        index, store = planted_world(np.eye(4)[0])
        store.add("img/77", np.eye(4)[0])
        pred = classify("img/77", index, store, tagger, ClassifierConfig(k=4))
        assert pred.label == "dog"

    def test_fallback_label_from_pre_threshold_counts(self, tagger):
        store = PrecomputedStore(4)
        e = np.eye(4)
        store.add("cassowary", e[0])
        records = [CaptionRecord("cap-0", "a spotted cassowary")]
        store.add("cap-0", e[0])
        store.add("spotted", e[1])
        index = build_index(records, store)
        pred = classify(e[0], index, store, tagger, ClassifierConfig(k=1))
        assert pred.fallback
        assert pred.label == "cassowary"  # tie on count 1, lexicographic
        assert len(pred.ranked) == 1

    def test_no_tokens_at_all_raises(self, tagger):
        store = PrecomputedStore(4)
        records = [CaptionRecord("cap-0", "of the and")]
        store.add("cap-0", np.eye(4)[0])
        index = build_index(records, store)
        with pytest.raises(EmptyCandidateSetError):
            classify(np.eye(4)[0], index, store, tagger, ClassifierConfig(k=1))

    def test_prompt_template_changes_lookup_key(self, tagger):
        store = PrecomputedStore(4)
        e = np.eye(4)
        store.add("a photo of a dog", e[0])
        store.add("a photo of a cat", e[1])
        store.add("a photo of a park", e[2])
        records = []
        for i in range(2):
            rid = f"cap-{i}"
            records.append(CaptionRecord(rid, "a dog and a cat in a park"))
            store.add(rid, e[0])
        index = build_index(records, store)
        config = ClassifierConfig(k=2, prompt_template="a photo of a {}")
        pred = classify(e[0], index, store, tagger, config)
        assert pred.label == "dog"


class TestClassifyBatch:
    def world(self):
        rng = np.random.default_rng(50)
        store = PrecomputedStore(4)
        e = np.eye(4)
        store.add("dog", e[0])
        store.add("cat", e[1])
        store.add("park", e[2])
        records = []
        for i in range(6):
            rid = f"cap-{i}"
            records.append(CaptionRecord(rid, "a dog and a cat in a park"))
            vec = e[0] if i % 2 == 0 else e[1]
            store.add(rid, vec)
        index = build_index(records, store)
        queries = []
        for i in range(12):
            qid = f"q{i:02d}"
            vec = e[i % 3] + 0.01 * rng.standard_normal(4)
            queries.append((qid, vec))
        return index, store, queries

    def test_batch_of_one_equals_single(self, tagger):
        index, store, queries = self.world()
        config = ClassifierConfig(k=4)
        [item] = classify_batch(queries[:1], index, store, tagger, config)
        single = classify(queries[0][1], index, store, tagger, config)
        assert item.prediction.label == single.label

    def test_batch_equals_sequential(self, tagger):
        index, store, queries = self.world()
        config = ClassifierConfig(k=4)
        batch = classify_batch(queries, index, store, tagger, config)
        for (qid, q), item in zip(queries, batch):
            assert item.id == qid
            single = classify(q, index, store, tagger, config)
            assert item.prediction.label == single.label
            assert [b.fused for b in item.prediction.ranked] == [
                b.fused for b in single.ranked
            ]

    def test_permuted_batch_permutes_results(self, tagger):
        index, store, queries = self.world()
        config = ClassifierConfig(k=4)
        forward = classify_batch(queries, index, store, tagger, config)
        backward = classify_batch(list(reversed(queries)), index, store, tagger,
                                  config)
        assert [i.prediction.label for i in backward] == list(
            reversed([i.prediction.label for i in forward])
        )

    def test_errors_collected_not_fatal(self, tagger):
        index, store, queries = self.world()
        mixed = [("good", queries[0][1]), ("bad", "missing/ref")]
        results = classify_batch(mixed, index, store, tagger,
                                 ClassifierConfig(k=4))
        assert results[0].prediction is not None
        assert results[1].prediction is None
        assert results[1].error_code == "unknown-image-ref"

    @pytest.mark.parametrize("bad", [["1", "0", "0", "0"], [True, False, False, False],
                                     np.array(["1.5", "0", "0", "0"]), [0.5, True, 0.0, 0.0]],
                             ids=["str", "bool", "str-array", "mixed-bool"])
    def test_vector_of_strings_or_bools_fails_alone(self, tagger, bad):
        index, store, queries = self.world()
        config = ClassifierConfig(k=4)
        clean = classify_batch(queries, index, store, tagger, config)
        mixed = classify_batch(queries[:5] + [("bad", bad)] + queries[5:], index, store,
                               tagger, config)
        assert mixed[5].prediction is None
        assert mixed[5].error_code == "schema-violation"
        assert "query embedding is not a numeric vector" in mixed[5].error
        assert mixed[:5] + mixed[6:] == clean

    @pytest.mark.parametrize("entry", ["ab", ("a",), 1, (5, "missing/ref"),
                                       ("a", "b", "c"), None],
                             ids=["str", "1-tuple", "int", "int-id", "3-tuple", "None"])
    def test_malformed_entry_is_a_schema_error_before_any_call(self, tagger, entry):
        """An entry is an (id, query) pair; a string of two characters is
        not read as one."""
        index, _, queries = self.world()

        class Untouched:
            def __getattr__(self, name):
                raise AssertionError(f"provider.{name} used")

        with pytest.raises(SchemaError, match=r"^queries\[1\] must be an \(id, query\)"):
            classify_batch([queries[0], entry], index, Untouched(), tagger)

    def test_entry_may_be_a_list(self, tagger):
        index, store, queries = self.world()
        config = ClassifierConfig(k=4)
        assert classify_batch([list(q) for q in queries], index, store, tagger,
                              config) == classify_batch(queries, index, store,
                                                        tagger, config)

    def test_non_numeric_image_vector_fails_only_its_query(self, tagger):
        index, store, queries = self.world()

        class BadImageProvider:
            dim = store.dim
            embed_texts = staticmethod(store.embed_texts)

            def embed_images(self, refs):
                return [["x", 0.0, 0.0, 0.0] for _ in refs]

        mixed = [("before", queries[0][1]), ("bad", "img/0"),
                 ("after", queries[1][1])]
        results = classify_batch(mixed, index, BadImageProvider(), tagger,
                                 ClassifierConfig(k=4))
        assert [r.error_code for r in results] == [None, "schema-violation", None]
        for item, (_, query) in zip(results[::2], mixed[::2]):
            assert item.prediction.label == classify(
                query, index, store, tagger, ClassifierConfig(k=4)).label

    def test_image_vector_beyond_float64_fails_only_its_query(self, tagger):
        # 10**400 has no float64 value: it must fail like 1e400, not raise
        # OverflowError out of the batch
        index, store, queries = self.world()
        store.add("img/ok", np.eye(4)[0])

        class HugeImageProvider:
            dim = store.dim
            embed_texts = staticmethod(store.embed_texts)

            def embed_images(self, refs):
                return [[10**400, 0, 0, 0] if ref == "img/huge"
                        else store.embed_image(ref).tolist() for ref in refs]

        mixed = [("before", "img/ok"), ("huge", "img/huge"), ("after", "img/ok")]
        results = classify_batch(mixed, index, HugeImageProvider(), tagger,
                                 ClassifierConfig(k=4))
        assert [r.error_code for r in results] == [None, "empty-input", None]
        assert "non-finite" in results[1].error
        expected = classify("img/ok", index, store, tagger, ClassifierConfig(k=4))
        for item in results[::2]:
            assert item.prediction == expected


    def test_provider_fault_fails_only_its_query(self, tagger):
        index, store, queries = self.world()
        store.add("img/ok", np.eye(4)[0])

        class CrashingProvider:
            dim = store.dim
            embed_texts = staticmethod(store.embed_texts)

            def embed_images(self, refs):
                if "img/crash" in refs:
                    raise RuntimeError("model crashed")
                return store.embed_images(refs)

        mixed = [("before", "img/ok"), ("crash", "img/crash"), ("after", "img/ok")]
        results = classify_batch(mixed, index, CrashingProvider(), tagger,
                                 ClassifierConfig(k=4))
        assert [r.error_code for r in results] == [None, "provider-unavailable", None]
        with pytest.raises(ProviderUnavailableError) as err:
            classify("img/crash", index, CrashingProvider(), tagger)
        assert isinstance(err.value.__cause__, RuntimeError)


class CountingStore:
    """Provider proxy recording the texts of each ``embed_texts`` call."""

    def __init__(self, store):
        self.store = store
        self.dim = store.dim
        self.calls = []

    def embed_texts(self, texts):
        self.calls.append(list(texts))
        return self.store.embed_texts(texts)

    def embed_images(self, refs):
        return self.store.embed_images(refs)


class CountingImages(CountingStore):
    """CountingStore that also records the refs of each ``embed_images``
    call."""

    def __init__(self, store):
        super().__init__(store)
        self.image_calls = []

    def embed_images(self, refs):
        self.image_calls.append(list(refs))
        return self.store.embed_images(refs)


@pytest.fixture(scope="module")
def noisy_bench():
    return make_noisy_benchmark(num_queries=300, seed=7)


class TestBatchPath:
    @pytest.fixture(scope="class", params=["flat", "partitioned"])
    def index(self, request, noisy_bench):
        return build_index(noisy_bench.records, noisy_bench.store,
                           structure=request.param, num_partitions=8)

    def test_prediction_does_not_depend_on_its_batch(self, noisy_bench, index,
                                                     tagger):
        queries, store = noisy_bench.queries, noisy_bench.store
        config = ClassifierConfig()
        whole = classify_batch(queries, index, store, tagger, config)
        windows = [item for start in range(0, len(queries), 8)
                   for item in classify_batch(queries[start:start + 8], index,
                                              store, tagger, config)]
        single = [classify(q, index, store, tagger, config) for _, q in queries]
        # dataclass equality: every float score compared with ==
        assert [item.prediction for item in whole] == single
        assert [item.prediction for item in windows] == single
        assert [item.id for item in whole] == [qid for qid, _ in queries]

    @pytest.mark.parametrize("chunk", [EMBED_CHUNK, 16])
    def test_each_distinct_text_embedded_once_per_batch(
        self, noisy_bench, index, tagger, monkeypatch, chunk
    ):
        monkeypatch.setattr(embedding_mod, "EMBED_CHUNK", chunk)
        provider = CountingStore(noisy_bench.store)
        items = classify_batch(noisy_bench.queries, index, provider, tagger)
        names = {b.candidate for item in items for b in item.prediction.ranked}
        sent = [text for call in provider.calls for text in call]
        assert sorted(sent) == sorted(names)
        assert len(provider.calls) == -(-len(names) // chunk)
        assert max(len(call) for call in provider.calls) <= chunk

    @pytest.mark.parametrize("chunk", [EMBED_CHUNK, 16])
    def test_each_distinct_ref_embedded_once_per_batch(
        self, noisy_bench, index, tagger, monkeypatch, chunk
    ):
        monkeypatch.setattr(embedding_mod, "EMBED_CHUNK", chunk)
        queries, store = noisy_bench.queries, noisy_bench.store
        refs = [ref for _, ref in queries]
        batch = queries + [(f"again-{qid}", ref) for qid, ref in queries]
        provider = CountingImages(store)
        items = classify_batch(batch, index, provider, tagger)
        assert [ref for call in provider.image_calls for ref in call] == refs
        assert len(provider.image_calls) == -(-len(refs) // chunk)
        single = [classify(ref, index, store, tagger) for ref in refs]
        assert [item.prediction for item in items] == single + single
        assert items == classify_batch(batch, index, store, tagger)

    def test_vector_and_ref_queries_keep_input_order(self, noisy_bench, index,
                                                     tagger):
        store = noisy_bench.store
        batch = [(qid, store.vector(ref) if i % 3 else ref)
                 for i, (qid, ref) in enumerate(noisy_bench.queries[:30])]
        provider = CountingImages(store)
        items = classify_batch(batch, index, provider, tagger)
        assert [item.id for item in items] == [qid for qid, _ in batch]
        assert [item.prediction for item in items] == [
            classify(q, index, store, tagger) for _, q in batch
        ]
        assert provider.image_calls == [[q for _, q in batch if isinstance(q, str)]]

    def test_window_of_vectors_makes_no_image_call(self, noisy_bench, index,
                                                   tagger):
        store = noisy_bench.store
        batch = [(qid, store.vector(ref)) for qid, ref in noisy_bench.queries[:30]]
        provider = CountingImages(store)
        items = classify_batch(batch, index, provider, tagger)
        assert provider.image_calls == []
        assert items == classify_batch(batch, index, store, tagger)

    def test_provider_without_embed_images_fails_only_its_ref_queries(
        self, noisy_bench, index, tagger
    ):
        store = noisy_bench.store

        class TextsOnly:
            dim = store.dim
            embed_texts = staticmethod(store.embed_texts)

        batch = [(qid, store.vector(ref) if i % 2 else ref)
                 for i, (qid, ref) in enumerate(noisy_bench.queries[:10])]
        items = classify_batch(batch, index, TextsOnly(), tagger)
        assert [item.error_code for item in items] == [
            None if i % 2 else "provider-unavailable" for i in range(10)]
        assert "embed_images" in items[0].error
        assert [item.prediction for item in items[1::2]] == [
            classify(q, index, store, tagger) for _, q in batch[1::2]]

    def test_missing_word_fails_only_the_queries_that_need_it(
        self, noisy_bench, index, tagger
    ):
        queries, full_store = noisy_bench.queries, noisy_bench.store
        config = ClassifierConfig()
        full = [item.prediction for item in
                classify_batch(queries, index, full_store, tagger, config)]
        counts = Counter(b.candidate for pred in full for b in pred.ranked)
        word = min(name for name, n in counts.items() if n < len(full) // 2)
        store = PrecomputedStore(full_store.dim)
        store.add_many((key, full_store.vector(key))
                       for key in full_store.keys() if key != word)
        items = classify_batch(queries, index, store, tagger, config)
        failed = 0
        for (_, query), item, want in zip(queries, items, full):
            if word in {b.candidate for b in want.ranked}:
                with pytest.raises(UnknownKeyError) as err:
                    classify(query, index, store, tagger, config)
                assert (item.error_code, item.error) == (err.value.code,
                                                         str(err.value))
                failed += 1
            else:
                assert item.prediction == want
        assert 0 < failed < len(queries)

    def test_batch_mixing_fallbacks_equals_single_calls(self, noisy_bench, index,
                                                        tagger):
        queries, store = noisy_bench.queries, noisy_bench.store
        config = ClassifierConfig(k=3, filter=FilterConfig(min_count=5))
        items = classify_batch(queries, index, store, tagger, config)
        assert {item.prediction.fallback for item in items} == {False, True}
        same_as_alone(items, queries, index, store, tagger, config)

    def test_empty_batch(self, noisy_bench, index, tagger):
        provider = CountingStore(noisy_bench.store)
        assert classify_batch([], index, provider, tagger) == []
        assert provider.calls == []

    def test_prompt_template_through_a_batch(self, tagger):
        store = PrecomputedStore(4)
        e = np.eye(4)
        for name, vec in [("dog", e[0]), ("cat", e[1]), ("park", e[2])]:
            store.add(f"a photo of a {name}", vec)
        records = []
        for i in range(4):
            records.append(CaptionRecord(f"cap-{i}", "a dog and a cat in a park"))
            store.add(f"cap-{i}", e[i % 2])
        index = build_index(records, store)
        queries = [(f"q{i}", e[i % 3] + 0.1 * e[3]) for i in range(6)]
        config = ClassifierConfig(k=2, prompt_template="a photo of a {}")
        provider = CountingStore(store)
        items = classify_batch(queries, index, provider, tagger, config)
        assert [item.prediction for item in items] == [
            classify(q, index, store, tagger, config) for _, q in queries
        ]
        assert [item.prediction.label for item in items[:3]] == ["dog", "cat", "park"]
        assert len(provider.calls) == 1
        assert sorted(provider.calls[0]) == [
            "a photo of a cat", "a photo of a dog", "a photo of a park"
        ]


def fault_world():
    """Four caption groups, one per basis direction: one whose candidates
    the store knows, one missing two candidate words, one missing one, and
    one whose captions yield no token; plus one known image ref."""
    e = np.eye(6)
    store = PrecomputedStore(6)
    for word, vec in [("dog", e[0]), ("cat", e[0] + e[4]), ("park", e[5]),
                      ("lion", e[2])]:
        store.add(word, vec)
    store.add("img/dog", e[0] + 0.1 * e[5])
    groups = ["a dog and a cat in a park", "a zebra near a giraffe",
              "a lion in a cave", "1234 the of"]
    records = []
    for g, text in enumerate(groups):
        for i in range(4):
            records.append(CaptionRecord(f"cap-{g}-{i}", text))
            store.add(f"cap-{g}-{i}", e[g])
    return build_index(records, store), store


def same_as_alone(items, queries, index, store, tagger, config):
    """Each item equals a single ``classify`` of its query: the prediction,
    or the error's code and message."""
    for item, (qid, query) in zip(items, queries, strict=True):
        assert item.id == qid
        try:
            want = classify(query, index, store, tagger, config)
        except VfcError as err:
            assert (item.error_code, item.error) == (err.code, str(err)), qid
            assert item.prediction is None
        else:
            assert item.prediction == want and item.error is None, qid


class TestFaultIsolation:
    """A fault fails only its own query, at the cost of a bisection of the
    failed provider call, not a rerun of the batch."""

    @pytest.fixture(scope="class")
    def world(self):
        bench = make_noisy_benchmark(num_queries=1000, seed=7)
        return bench, build_index(bench.records, bench.store)

    @pytest.fixture(scope="class")
    def clean(self, world, tagger):
        bench, index = world
        return classify_batch(bench.queries, index, bench.store, tagger)

    @pytest.mark.parametrize("position", [0, 1, 511, 512, 767, 999])
    def test_one_unknown_ref_costs_a_bisection(self, world, clean, tagger,
                                               position):
        bench, index = world
        queries = list(bench.queries)
        queries[position] = ("bad", "img/unknown")
        provider = CountingImages(bench.store)
        items = classify_batch(queries, index, provider, tagger)
        assert len(provider.image_calls) <= 2 * math.ceil(math.log2(1000)) + 1
        assert len(provider.calls) == 1
        with pytest.raises(UnknownKeyError) as err:
            classify("img/unknown", index, bench.store, tagger)
        assert (items[position].error_code, items[position].error) == (
            err.value.code, str(err.value))
        assert items[:position] == clean[:position]
        assert items[position + 1:] == clean[position + 1:]

    def test_bisection_cost_at_every_position(self):
        size, worst = 1000, 0
        for bad in range(size):
            calls = []

            def embed(items):
                calls.append(items)
                if bad in items:
                    raise UnknownKeyError(f"no vector for {bad}")
                return np.ones((len(items), 2))

            slots = scoring_mod._embed_each(embed, [[i] for i in range(size)], "x")
            assert [isinstance(s, UnknownKeyError) for s in slots] == [
                i == bad for i in range(size)]
            assert [bad] in calls
            worst = max(worst, len(calls))
        assert worst == 2 * math.ceil(math.log2(size)) + 1

    def test_all_failing_refs_cost_at_most_2q_minus_1_calls(self, world,
                                                            tagger):
        bench, index = world
        queries = [(f"q{i}", f"img/unknown-{i}") for i in range(40)]
        provider = CountingImages(bench.store)
        items = classify_batch(queries, index, provider, tagger)
        assert len(provider.image_calls) <= 2 * len(queries) - 1
        assert provider.calls == []
        same_as_alone(items, queries, index, bench.store, tagger,
                      ClassifierConfig())

    def test_all_failing_texts_cost_one_image_call(self, world, tagger):
        bench, index = world
        queries = bench.queries[:40]
        known = {ref for _, ref in queries} | {r.id for r in bench.records}
        store = PrecomputedStore(bench.store.dim)
        store.add_many((key, bench.store.vector(key)) for key in known)
        provider = CountingImages(store)
        items = classify_batch(queries, index, provider, tagger)
        assert {item.error_code for item in items} == {"unknown-image-ref"}
        assert len(provider.image_calls) == 1
        assert len(provider.calls) <= 2 * len(queries) - 1
        same_as_alone(items, queries, index, store, tagger, ClassifierConfig())

    def test_missing_word_retrieves_once_per_query(self, world, clean, tagger,
                                                   monkeypatch):
        bench, index = world
        counts = Counter(b.candidate for item in clean
                         for b in item.prediction.ranked)
        word = min(name for name, n in counts.items() if n < len(clean) // 2)
        store = PrecomputedStore(bench.store.dim)
        store.add_many((key, bench.store.vector(key))
                       for key in bench.store.keys() if key != word)
        retrieved = []

        def counting_retrieve(*args, **kwargs):
            retrieved.extend(args[1])
            return retrieve_window(*args, **kwargs)

        monkeypatch.setattr(scoring_mod, "retrieve_window", counting_retrieve)
        items = classify_batch(bench.queries, index, store, tagger)
        assert len(retrieved) == len(bench.queries)
        failed = [item for item in items if item.error is not None]
        assert 0 < len(failed) < len(items)
        assert {item.error_code for item in failed} == {"unknown-image-ref"}

    def test_query_missing_two_words_keeps_its_message(self, tagger):
        index, store = fault_world()
        e = np.eye(6)
        queries = [(f"q{i}", e[0] + 0.01 * i * e[5]) for i in range(16)]
        queries[9] = ("zoo", e[1])
        provider = CountingStore(store)
        config = ClassifierConfig(k=4)
        items = classify_batch(queries, index, provider, tagger, config)
        assert len(provider.calls) <= 2 * math.ceil(math.log2(len(queries))) + 1
        assert "2 key(s)" in items[9].error
        assert [item.error is None for item in items] == [
            qid != "zoo" for qid, _ in queries]
        same_as_alone(items, queries, index, store, tagger, config)

    def test_mixed_faults_each_fail_only_their_query(self, tagger):
        index, store = fault_world()
        e = np.eye(6)
        queries = [
            ("good-vec", e[0] + 0.01 * e[3]),
            ("nan", [math.nan, 0, 0, 0, 0, 0]),
            ("good-ref", "img/dog"),
            ("non-numeric", ["x", 0, 0, 0, 0, 0]),
            ("wrong-dim", [1.0, 0.0, 0.0]),
            ("unknown-ref", "img/unknown"),
            ("two-missing", e[1]),
            ("good-again", e[0] + 0.02 * e[5]),
            ("one-missing", e[2]),
            ("no-candidates", e[3]),
            ("good-ref-again", "img/dog"),
        ]
        config = ClassifierConfig(k=4)
        items = classify_batch(queries, index, store, tagger, config)
        assert [item.error_code for item in items] == [
            None, "empty-input", None, "schema-violation", "dimension-mismatch",
            "unknown-image-ref", "unknown-image-ref", None, "unknown-image-ref",
            "empty-candidate-set", None,
        ]
        same_as_alone(items, queries, index, store, tagger, config)
        for start in range(len(queries)):
            window = queries[start:] + queries[:start]
            assert classify_batch(window, index, store, tagger, config) == (
                items[start:] + items[:start])

    def test_chunk_of_another_dim_fails_only_its_query(self, tagger,
                                                       monkeypatch):
        index, store = fault_world()

        class OddDimImages:
            """The store's vectors, but a 5-d one for ``img/odd``."""
            dim = store.dim
            embed_texts = store.embed_texts

            def embed_images(self, refs):
                return [np.ones(5) if ref == "img/odd" else store.vector(ref)
                        for ref in refs]

        monkeypatch.setattr(embedding_mod, "EMBED_CHUNK", 1)
        queries = [("dog", "img/dog"), ("odd", "img/odd"),
                   ("dog-again", "img/dog")]
        config = ClassifierConfig(k=4)
        provider = OddDimImages()
        for start in range(len(queries)):
            window = queries[start:] + queries[:start]
            items = classify_batch(window, index, provider, tagger, config)
            assert {item.id: item.error_code for item in items} == {
                "dog": None, "odd": "dimension-mismatch", "dog-again": None}
            same_as_alone(items, window, index, provider, tagger, config)


class TestWindowScoring:
    """Score/fuse runs over a window's candidate rows at once, and each
    query's outcome is still the one it has alone."""

    def test_zero_vectors_fail_only_their_own_query(self, noisy_bench, tagger):
        """A zero image vector, and a provider row of zeros for one
        candidate, each fail their own query with ZeroVectorError; the rest
        of the window equals each query run alone."""
        bench = noisy_bench
        index = build_index(bench.records, bench.store)
        clean = classify_batch(bench.queries[:40], index, bench.store, tagger)
        counts = Counter(b.candidate for item in clean for b in item.prediction.ranked)
        word = min(name for name, n in counts.items() if n < len(clean) // 2)
        store = PrecomputedStore(bench.store.dim)
        store.add_many((key, np.zeros(store.dim) if key == word
                        else bench.store.vector(key)) for key in bench.store.keys())
        queries = list(bench.queries[:40])
        queries.insert(13, ("zero-image", [0.0] * store.dim))
        items = classify_batch(queries, index, store, tagger)
        failed = {item.id for item in items if item.error_code == "zero-vector"}
        assert "zero-image" in failed and len(failed) > 1
        assert failed - {"zero-image"} == {
            item.id for item in clean
            if word in {b.candidate for b in item.prediction.ranked}}
        assert all(item.error is None for item in items if item.id not in failed)
        same_as_alone(items, queries, index, store, tagger, ClassifierConfig())

    @pytest.mark.parametrize("module, limits", [
        pytest.param(index_mod, {"SCAN_BLOCK": 1}, id="vfclass.index-SCAN_BLOCK"),
        pytest.param(index_mod, {"PROJECT_MIN": 0, "PROJECT_MIN_DIM": 0},
                     id="vfclass.index-PROJECT_MIN"),
    ])
    def test_block_of_one_query_gives_the_same_bytes(self, noisy_bench, tagger,
                                                     monkeypatch, module, limits):
        """With room for one query's block, a window runs a query at a time,
        and with projection thresholds of 0 every index scans its projected
        rows first; the prediction JSON does not change by a byte."""
        bench = noisy_bench
        queries = [*bench.queries[:60], ("unknown", "img/none"),
                   ("zero", [0.0] * bench.store.dim)]
        for index, probes in ((build_index(bench.records, bench.store), None),
                              (build_index(bench.records, bench.store,
                                           structure="partitioned",
                                           num_partitions=8), 2)):
            config = ClassifierConfig(probes=probes)

            def run():
                return "".join(json.dumps(_prediction_json(item)) + "\n" for item in
                               classify_batch(queries, index, bench.store, tagger,
                                              config))

            whole = run()
            for name, value in limits.items():
                monkeypatch.setattr(module, name, value)
            assert run() == whole
            monkeypatch.undo()


class VerbTagger:
    """Tags every word a verb, so no token passes the default POS filter."""

    def tag(self, word):
        return "verb"


class TestTokenMemo:
    """Stages 1-2 run at most once per index row and stage-1/2 settings."""

    @pytest.fixture
    def index(self, noisy_bench):  # a fresh index, with an empty memo
        return build_index(noisy_bench.records, noisy_bench.store)

    @pytest.fixture
    def tokenized(self, monkeypatch):
        texts = []
        original = scoring_mod.caption_tokens

        def spy(text, config):
            texts.append(text)
            return original(text, config)

        monkeypatch.setattr(scoring_mod, "caption_tokens", spy)
        return texts

    def test_each_hit_row_tokenized_once(self, noisy_bench, index, tagger,
                                         tokenized):
        queries, store = noisy_bench.queries, noisy_bench.store
        first = classify_batch(queries, index, store, tagger)
        assert classify_batch(queries, index, store, tagger) == first
        rows = {h.row for item in first for h in item.prediction.retrieved}
        assert Counter(tokenized) == Counter(index.records[r].text for r in rows)
        assert len(rows) < len(index)

    def test_one_query_tokenizes_at_most_k_rows(self, tagger, tokenized):
        bench = make_noisy_benchmark(captions_per_class=250, num_queries=1, seed=3)
        index = build_index(bench.records, bench.store)
        assert len(index) >= 1000
        classify(bench.queries[0][1], index, bench.store, tagger)
        assert 0 < len(tokenized) <= ClassifierConfig().k
        assert sum(map(len, index.row_tokens.values())) == len(tokenized)

    @pytest.mark.parametrize("other", [
        FilterConfig(stop_words=default_stop_words() | {"airplane", "dolphin"}),
        FilterConfig(stages="remove"),
        FilterConfig(stages="none"),
        FilterConfig(split_compounds=False),
    ])
    def test_settings_that_differ_give_fresh_results(self, noisy_bench, index,
                                                     tagger, other):
        queries, store = noisy_bench.queries, noisy_bench.store
        classify_batch(queries, index, store, tagger)  # fill the default entry
        config = ClassifierConfig(filter=other)
        warm = classify_batch(queries, index, store, tagger, config)
        fresh = classify_batch(queries, dataclasses.replace(index), store,
                               tagger, config)
        assert warm == fresh
        assert len(index.row_tokens) == 2
        for item in warm:
            pred = item.prediction
            if pred is not None:
                names = extract_candidates(
                    [h.record for h in pred.retrieved], tagger, other).names()
                assert sorted(b.candidate for b in pred.ranked) == names

    def test_query_path_looks_up_only_its_hit_rows(self, noisy_bench, index, tagger):
        """The memo is filled by one lookup per hit row, never by walking it:
        it grows with every row the index has been asked about."""
        class Unwalkable(dict):
            def __iter__(self):
                raise AssertionError("the memo was walked")

            keys = values = items = __iter__

        queries, store = noisy_bench.queries, noisy_bench.store
        want = classify_batch(queries, dataclasses.replace(index), store, tagger)
        index.row_tokens[token_settings(FilterConfig())] = Unwalkable()
        assert [classify(q, index, store, tagger) for _, q in queries[:10]] == [
            item.prediction for item in want[:10]]
        for _ in range(2):  # a memo partly filled, then one holding every hit row
            assert classify_batch(queries, index, store, tagger) == want
        assert type(index.row_tokens[token_settings(FilterConfig())]) is Unwalkable

    def test_replaced_index_starts_empty(self, noisy_bench, index, tagger):
        classify_batch(noisy_bench.queries[:5], index, noisy_bench.store, tagger)
        assert index.row_tokens
        assert dataclasses.replace(index).row_tokens == {}

    def test_tagger_swapped_between_calls_is_honoured(self, noisy_bench, index,
                                                      tagger):
        queries, store = noisy_bench.queries[:20], noisy_bench.store
        before = classify_batch(queries, index, store, tagger)
        verbs = classify_batch(queries, index, store, VerbTagger())
        assert {item.error_code for item in verbs} == {"empty-candidate-set"}
        assert classify_batch(queries, index, store, tagger) == before

    def test_each_token_tagged_once_per_batch(self, noisy_bench, index):
        calls = []

        class CountingTagger(LexiconTagger):
            def tag(self, word):
                calls.append(word)
                return super().tag(word)

        queries, store = noisy_bench.queries, noisy_bench.store
        counting = CountingTagger()
        classify_batch(queries, index, store, counting)
        assert calls and len(calls) == len(set(calls))
        tagged = len(calls)
        classify_batch(queries, index, store, counting)
        assert calls[tagged:] == calls[:tagged]  # nothing kept between calls


class TestPredictionPins:
    """Each query's label, fallback flag, ranked candidate names and
    retrieved ids on ``make_noisy_benchmark(seed=7)``, pinned by hash; no
    float score is pinned."""

    PINS = {
        ("flat", None): (
            "a312e9c468bb43dacddd37538a53618f5ad636d2b2994d41a0197d96f35287ea"
        ),
        ("partitioned", None): (
            "a312e9c468bb43dacddd37538a53618f5ad636d2b2994d41a0197d96f35287ea"
        ),
        ("partitioned", 2): (
            "cbf688f8731ea46144207dfdef8efd8075a59a0076ae918775916f400aa63a9e"
        ),
    }

    @pytest.fixture(scope="class")
    def bench(self):
        return make_noisy_benchmark(num_queries=300, seed=7)

    @pytest.mark.parametrize("structure,probes", list(PINS))
    def test_predictions_pinned(self, bench, tagger, structure, probes):
        index = build_index(bench.records, bench.store, structure=structure,
                            num_partitions=8)
        items = classify_batch(bench.queries, index, bench.store, tagger,
                               ClassifierConfig(probes=probes))
        rows = [
            [item.id, item.prediction.label, item.prediction.fallback,
             [b.candidate for b in item.prediction.ranked],
             [h.record.id for h in item.prediction.retrieved]]
            for item in items
        ]
        digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
        assert digest == self.PINS[structure, probes]
