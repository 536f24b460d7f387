"""Synthetic benchmark generators."""

import numpy as np
import pytest

from vfclass.benchmark import make_benchmark, make_noisy_benchmark
from vfclass.candidates import FilterConfig, LexiconTagger
from vfclass.evaluation import LabeledPrediction, cluster_accuracy
from vfclass.ingestion import validate_manifest
from vfclass.scoring import ClassifierConfig, classify_batch


@pytest.fixture(scope="module")
def tagger():
    return LexiconTagger()


class TestMakeBenchmark:
    def test_deterministic_for_seed(self):
        a = make_benchmark(num_classes=3, captions_per_class=10, num_queries=5,
                           dim=8, seed=5)
        b = make_benchmark(num_classes=3, captions_per_class=10, num_queries=5,
                           dim=8, seed=5)
        assert [r.text for r in a.records] == [r.text for r in b.records]
        assert a.truths == b.truths
        for key in a.store.keys():
            assert np.array_equal(a.store.vector(key), b.store.vector(key))

    def test_seed_changes_world(self):
        a = make_benchmark(num_classes=3, captions_per_class=10, num_queries=5,
                           dim=8, seed=5)
        b = make_benchmark(num_classes=3, captions_per_class=10, num_queries=5,
                           dim=8, seed=6)
        assert any(
            not np.array_equal(a.store.vector(n), b.store.vector(n))
            for n in a.class_names
        )

    def test_class_vectors_orthonormal(self):
        bench = make_benchmark(num_classes=6, captions_per_class=5,
                               num_queries=5, dim=16, seed=1)
        matrix = np.stack([bench.store.vector(n) for n in bench.class_names])
        # vectors round-trip through float32 storage
        assert np.allclose(matrix @ matrix.T, np.eye(6), atol=1e-6)

    def test_every_caption_mentions_its_class(self):
        bench = make_benchmark(num_classes=4, captions_per_class=20,
                               num_queries=5, dim=8, seed=2)
        for rec in bench.records:
            class_idx = int(rec.id.split("-")[1])
            assert bench.class_names[class_idx] in rec.text

    def test_manifest_resolves_against_store(self):
        bench = make_benchmark(num_classes=3, captions_per_class=10,
                               num_queries=8, dim=8, seed=3)
        assert validate_manifest(bench.manifest(), bench.store) == []

    def test_too_many_classes_rejected(self):
        with pytest.raises(ValueError):
            make_benchmark(num_classes=99)


class TestNoisyBenchmark:
    def test_filter_stages_are_ordered(self, tagger):
        bench = make_noisy_benchmark(num_queries=60, seed=42)
        index = bench.build_index()
        scores = {}
        for stages in ("none", "remove", "standardize", "all"):
            config = ClassifierConfig(filter=FilterConfig(stages=stages))
            results = classify_batch(bench.queries, index, bench.store, tagger,
                                     config)
            labeled = [
                LabeledPrediction(r.id, r.prediction.label,
                                  bench.truths[r.id])
                for r in results
                if r.prediction is not None
            ]
            assert len(labeled) == 60  # raw tokens all resolvable
            scores[stages] = cluster_accuracy(labeled, mode="one-to-one")
        assert scores["all"] >= max(scores.values()) - 1e-12
        assert scores["all"] > scores["none"]
        assert scores["remove"] > scores["none"]
