"""Metric kernels: assignment solver, cluster accuracy, semantic scores."""

import itertools
import json

import numpy as np
import pytest

from vfclass.embedding import EMBED_CHUNK, HashEmbedder
from vfclass.errors import (
    EmptyInputError,
    MissingTruthError,
    ProviderUnavailableError,
    SchemaError,
)
from vfclass.evaluation import (
    _assignment_value,
    EvaluationReport,
    LabeledPrediction,
    aggregate_reports,
    cluster_accuracy,
    evaluate_predictions,
    ground_to_vocabulary,
    hungarian,
    join_predictions,
    load_predictions,
    load_truths,
    semantic_iou,
    semantic_similarity,
)


def assignments(n, m):
    """Every injective assignment of min(n, m) pairs, each sorted by row."""
    if n <= m:
        return (
            tuple((i, p[i]) for i in range(n))
            for p in itertools.permutations(range(m), n)
        )
    return (
        tuple(sorted((p[j], j) for j in range(m)))
        for p in itertools.permutations(range(n), m)
    )


def assignment_oracle(cost):
    """Brute force over every injective assignment of min(n, m) pairs.

    Totals are summed in row-pair order, matching how the solver reports
    costs, so equality checks are exact.
    """
    cost = np.asarray(cost, dtype=np.float64)
    return min(sum(cost[r, c] for r, c in pairs) for pairs in assignments(*cost.shape))


def lexicographic_oracle(cost):
    """The lexicographically smallest optimal pair list, by enumeration."""
    cost = np.asarray(cost, dtype=np.float64)
    return list(min((sum(cost[r, c] for r, c in pairs), pairs)
                    for pairs in assignments(*cost.shape))[1])


class PlantedEmbedder:
    """Text embedder with hand-placed vectors, for exact metric fixtures."""

    identity = "planted"

    def __init__(self, table):
        self.table = {k: np.asarray(v, dtype=np.float64) for k, v in table.items()}

    def embed_texts(self, texts):
        return [self.table[t] for t in texts]


class CountingEmbedder(HashEmbedder):
    """Hash embedder that records the size of every ``embed_texts`` call."""

    def __init__(self, dim):
        super().__init__(dim)
        self.calls = []

    def embed_texts(self, texts):
        self.calls.append(len(texts))
        return super().embed_texts(texts)


class ShortReplyEmbedder(HashEmbedder):
    """Hash embedder whose replies leave out the last vector."""

    def embed_texts(self, texts):
        return super().embed_texts(texts)[:-1]


class TestSemanticIou:
    def test_identical(self):
        assert semantic_iou("cassowary", "cassowary") == 1.0

    def test_forced_half(self):
        assert semantic_iou("stanford cars", "cars") == 0.5

    def test_forced_two_thirds(self):
        assert semantic_iou("great white shark", "white shark") == 2 / 3

    def test_disjoint(self):
        assert semantic_iou("dog", "cat") == 0.0

    def test_case_insensitive(self):
        assert semantic_iou("Wolf", "wolf") == 1.0

    def test_hyphen_splits_like_whitespace(self):
        assert semantic_iou("red-winged blackbird", "red winged blackbird") == 1.0

    def test_symmetric(self):
        pairs = [("a b", "b c"), ("dog park", "dog"), ("x", "y z")]
        for a, b in pairs:
            assert semantic_iou(a, b) == semantic_iou(b, a)

    def test_one_iff_equal_sets(self):
        assert semantic_iou("white shark", "shark white") == 1.0
        assert semantic_iou("white shark", "white sharks") < 1.0


class TestSemanticSimilarity:
    def test_identical_strings(self):
        emb = HashEmbedder(16)
        assert semantic_similarity("dog", "dog", emb) == pytest.approx(1.0)

    def test_orthogonal_planted_vectors(self):
        emb = PlantedEmbedder({"dog": [1, 0], "cat": [0, 1]})
        assert semantic_similarity("dog", "cat", emb) == 0.0

    def test_sixty_degrees(self):
        emb = PlantedEmbedder(
            {"a": [1.0, 0.0], "b": [0.5, np.sqrt(3) / 2.0]}
        )
        assert semantic_similarity("a", "b", emb) == pytest.approx(0.5, abs=1e-9)

    def test_negative_cosine_floored_at_zero(self):
        emb = PlantedEmbedder({"a": [1.0, 0.0], "b": [-1.0, 0.0]})
        assert semantic_similarity("a", "b", emb) == 0.0

    def test_short_reply_is_provider_unavailable(self):
        with pytest.raises(ProviderUnavailableError, match="1 vectors for 2"):
            semantic_similarity("dog", "cat", ShortReplyEmbedder(8))


class TestHungarian:
    def test_assignment_value_matches_scipy(self):
        optimize = pytest.importorskip("scipy.optimize")
        rng = np.random.default_rng(61)
        for n, m in [(50, 50), (80, 120), (200, 200), (150, 60)]:
            cost = rng.integers(-40, 40, (n, m)).astype(np.float64)
            rows, cols = optimize.linear_sum_assignment(cost)
            assert _assignment_value(cost) == cost[rows, cols].sum()

    @pytest.mark.parametrize("n, m", [(60, 60), (40, 70), (70, 40)])
    def test_chance_level_contingency_matches_scipy(self, n, m):
        # -counts of labels drawn at chance: most cells tie at 0 or -1, so
        # the solver's searches meet tied minima at every step
        optimize = pytest.importorskip("scipy.optimize")
        rng = np.random.default_rng(n * m)
        for size in (n * m // 4, n * m, 4 * n * m):
            counts = np.zeros((n, m))
            np.add.at(counts, (rng.integers(n, size=size), rng.integers(m, size=size)), 1)
            rows, cols = optimize.linear_sum_assignment(-counts)
            assert _assignment_value(-counts) == -counts[rows, cols].sum()

    def test_small_integer_matrices_match_scipy(self):
        optimize = pytest.importorskip("scipy.optimize")
        rng = np.random.default_rng(62)
        for _ in range(300):
            n, m = rng.integers(1, 8, 2)
            cost = rng.integers(0, 3, (n, m)).astype(np.float64)
            rows, cols = optimize.linear_sum_assignment(cost)
            best = cost[rows, cols].sum()
            assert _assignment_value(cost) == best
            assert sum(cost[pair] for pair in hungarian(cost)) == best

    def test_identity_favoring_matrix(self):
        cost = np.ones((3, 3)) - np.eye(3)
        assert hungarian(cost) == [(0, 0), (1, 1), (2, 2)]

    def test_one_by_one(self):
        assert hungarian([[3.5]]) == [(0, 0)]

    def test_empty_matrix_rejected(self):
        with pytest.raises(EmptyInputError):
            hungarian(np.empty((0, 0)))

    def test_non_finite_rejected(self):
        with pytest.raises(EmptyInputError):
            hungarian([[1.0, float("inf")], [0.0, 1.0]])

    def test_random_square_matches_enumeration(self):
        rng = np.random.default_rng(60)
        for _ in range(60):
            n = int(rng.integers(2, 8))
            cost = rng.uniform(0, 1, (n, n))
            pairs = hungarian(cost)
            total = sum(cost[r, c] for r, c in pairs)
            assert total == assignment_oracle(cost)

    def test_random_rectangular_matches_enumeration(self):
        rng = np.random.default_rng(61)
        for _ in range(40):
            n = int(rng.integers(1, 8))
            m = int(rng.integers(1, 8))
            cost = rng.uniform(-5, 5, (n, m))
            pairs = hungarian(cost)
            assert len(pairs) == min(n, m)
            total = sum(cost[r, c] for r, c in pairs)
            assert total == assignment_oracle(cost)

    def test_integer_counts_match_enumeration(self):
        rng = np.random.default_rng(62)
        for _ in range(30):
            counts = rng.integers(0, 10, (5, 4))
            pairs = hungarian(-counts.astype(np.float64))
            total = sum(-float(counts[r, c]) for r, c in pairs)
            assert total == assignment_oracle(-counts.astype(np.float64))

    def test_lexicographic_tie_break_all_zero(self):
        assert hungarian(np.zeros((3, 3))) == [(0, 0), (1, 1), (2, 2)]
        assert hungarian(np.zeros((2, 3))) == [(0, 0), (1, 1)]
        assert hungarian(np.zeros((3, 2))) == [(0, 0), (1, 1)]

    def test_lexicographic_tie_break_rectangular(self):
        # costs of 0-2 tie often; with n > m the refinement skips rows
        rng = np.random.default_rng(67)
        for n, m in itertools.product(range(1, 6), repeat=2):
            for _ in range(6):
                cost = rng.integers(0, 3, (n, m)).astype(np.float64)
                assert hungarian(cost) == lexicographic_oracle(cost)

    def test_refinement_prefers_true_optimum_over_lexicographic(self):
        # (0,0)+(1,1) costs 1; the unique optimum is (0,1)+(1,0) at 0
        assert hungarian([[0.0, 0.0], [0.0, 1.0]]) == [(0, 1), (1, 0)]

    def test_never_worse_than_greedy(self):
        rng = np.random.default_rng(63)
        for _ in range(30):
            n = int(rng.integers(2, 7))
            cost = rng.uniform(0, 1, (n, n))
            pairs = hungarian(cost)
            total = sum(cost[r, c] for r, c in pairs)
            used_r, used_c, greedy = set(), set(), 0.0
            flat = sorted(
                ((cost[r, c], r, c) for r in range(n) for c in range(n))
            )
            for value, r, c in flat:
                if r not in used_r and c not in used_c:
                    used_r.add(r)
                    used_c.add(c)
                    greedy += value
            assert total <= greedy + 1e-12


GOLDEN_PREDS = (
    [("s%02d" % i, "wolf", "arctic wolf") for i in range(1, 5)]
    + [("s05", "crow", "arctic wolf")]
    + [("s%02d" % i, "crow", "crow") for i in range(6, 9)]
    + [("s%02d" % i, "wolf", "crow") for i in range(9, 11)]
    + [("s%02d" % i, "fern", "green fern") for i in range(11, 16)]
    + [("s%02d" % i, "moss", "moss") for i in range(16, 19)]
    + [("s19", "fern", "moss")]
    + [("s20", "crow", "moss")]
)


def golden_fixture():
    return [LabeledPrediction(*row) for row in GOLDEN_PREDS]


def cluster_accuracy_oracle(preds):
    """Enumerate injective cluster-to-label maps, maximize matched samples."""
    clusters = sorted({p.predicted for p in preds})
    labels = sorted({p.truth for p in preds})
    counts = {}
    for p in preds:
        counts[(p.predicted, p.truth)] = counts.get((p.predicted, p.truth), 0) + 1
    best = 0
    if len(clusters) <= len(labels):
        for perm in itertools.permutations(labels, len(clusters)):
            matched = sum(
                counts.get((c, t), 0) for c, t in zip(clusters, perm)
            )
            best = max(best, matched)
    else:
        for perm in itertools.permutations(clusters, len(labels)):
            matched = sum(
                counts.get((c, t), 0) for c, t in zip(perm, labels)
            )
            best = max(best, matched)
    return best / len(preds)


class TestClusterAccuracy:
    def test_perfect_predictions(self):
        preds = [LabeledPrediction(f"i{k}", "dog", "dog") for k in range(5)]
        preds += [LabeledPrediction(f"j{k}", "cat", "cat") for k in range(5)]
        assert cluster_accuracy(preds) == 1.0

    def test_constant_prediction_many_to_one(self):
        preds = [
            LabeledPrediction(f"i{k}", "thing", f"class{k % 4}") for k in range(20)
        ]
        assert cluster_accuracy(preds, mode="many-to-one") == 0.25

    def test_golden_fixture_value(self):
        preds = golden_fixture()
        assert cluster_accuracy(preds) == 0.75
        assert cluster_accuracy(preds) == cluster_accuracy_oracle(preds)

    def test_random_labelings_match_enumeration(self):
        rng = np.random.default_rng(64)
        clusters = [f"c{i}" for i in range(5)]
        labels = [f"t{i}" for i in range(4)]
        for _ in range(50):
            preds = [
                LabeledPrediction(
                    f"s{k}",
                    clusters[int(rng.integers(5))],
                    labels[int(rng.integers(4))],
                )
                for k in range(30)
            ]
            got = cluster_accuracy(preds, mode="one-to-one")
            assert got == cluster_accuracy_oracle(preds)

    def test_invariant_under_bijective_renaming(self):
        rng = np.random.default_rng(65)
        base = golden_fixture()
        value = cluster_accuracy(base, mode="one-to-one")
        names = sorted({p.predicted for p in base})
        for trial in range(50):
            perm = list(names)
            rng.shuffle(perm)
            renaming = dict(zip(names, [f"label-{w}-{trial}" for w in perm]))
            renamed = [
                LabeledPrediction(p.id, renaming[p.predicted], p.truth)
                for p in base
            ]
            assert cluster_accuracy(renamed, mode="one-to-one") == value

    def test_relabeled_truth_partition_scores_one(self):
        preds = [
            LabeledPrediction(f"s{k}", f"name-{k % 3}", f"truth-{k % 3}")
            for k in range(12)
        ]
        assert cluster_accuracy(preds, mode="one-to-one") == 1.0

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            cluster_accuracy([])

    def test_auto_switches_to_many_to_one(self):
        # six clusters over two labels: every cluster is pure
        preds = [
            LabeledPrediction(f"s{k}", f"pred-{k}", f"truth-{k % 2}")
            for k in range(6)
        ]
        assert cluster_accuracy(preds, mode="auto") == 1.0


class TestGroundToVocabulary:
    def test_verbatim_entry_maps_to_itself(self):
        emb = HashEmbedder(16)
        vocab = ["dog", "cat", "bird"]
        assert ground_to_vocabulary("cat", vocab, emb) == "cat"

    def test_single_entry_vocabulary(self):
        emb = HashEmbedder(16)
        assert ground_to_vocabulary("anything", ["only"], emb) == "only"

    def test_planted_nearest_neighbor(self):
        emb = PlantedEmbedder(
            {
                "husky": [0.9, 0.1],
                "dog": [1.0, 0.0],
                "fish": [0.0, 1.0],
            }
        )
        assert ground_to_vocabulary("husky", ["dog", "fish"], emb) == "dog"

    def test_matches_linear_scan_oracle(self):
        rng = np.random.default_rng(66)
        words = [f"w{i}" for i in range(20)]
        table = {w: rng.standard_normal(8) for w in words}
        table["query"] = rng.standard_normal(8)
        emb = PlantedEmbedder(table)

        def cos(a, b):
            return float(np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b)))

        scan = sorted(words, key=lambda w: (-cos(table["query"], table[w]), w))
        assert ground_to_vocabulary("query", words, emb) == scan[0]

    def test_empty_vocabulary_rejected(self):
        with pytest.raises(EmptyInputError):
            ground_to_vocabulary("x", [], HashEmbedder(8))

    def test_one_provider_call(self):
        emb = CountingEmbedder(8)
        vocab = [f"word {i}" for i in range(30)] + ["word 3"]
        ground_to_vocabulary("query", vocab, emb)
        assert emb.calls == [31]

    def test_short_reply_is_provider_unavailable(self):
        with pytest.raises(ProviderUnavailableError, match="3 vectors for 4"):
            ground_to_vocabulary("query", ["a", "b", "c"], ShortReplyEmbedder(8))


def golden_embedder():
    e = np.eye(6)
    return PlantedEmbedder(
        {
            "wolf": e[0],
            "arctic wolf": e[0],
            "crow": e[1],
            "green fern": e[2],
            "fern": 0.5 * e[2] + (np.sqrt(3) / 2.0) * e[3],
            "moss": e[4],
        }
    )


class TestEvaluate:
    def test_perfect_predictions(self):
        preds = [
            LabeledPrediction(f"s{k}", f"class-{k % 3}", f"class-{k % 3}")
            for k in range(9)
        ]
        report = evaluate_predictions(preds, HashEmbedder(16))
        assert report.cluster_accuracy == 1.0
        assert report.semantic_iou == 1.0
        assert report.semantic_similarity == pytest.approx(1.0)

    def test_golden_report(self):
        report = evaluate_predictions(golden_fixture(), golden_embedder())
        # hand computation: 15/20 matched, mean IoU 10.5/20, mean sim 12.5/20
        assert report.cluster_accuracy == 0.75
        assert report.semantic_iou == pytest.approx(0.525, abs=1e-12)
        assert report.semantic_similarity == pytest.approx(0.625, abs=1e-9)
        assert report.mode == "one-to-one"
        assert report.sample_count == 20

    def test_report_names_many_to_one_when_clusters_outnumber_labels(self):
        preds = [
            LabeledPrediction(f"i{k}", f"cluster{k % 3}", f"class{k % 2}")
            for k in range(12)
        ]
        report = evaluate_predictions(preds, HashEmbedder(16))
        assert report.mode == "many-to-one"
        assert report.cluster_accuracy == cluster_accuracy(preds, "many-to-one")

    def test_per_class_breakdown(self):
        report = evaluate_predictions(golden_fixture(), golden_embedder())
        moss = report.per_class["moss"]
        assert moss["samples"] == 5
        # three exact hits, one fern, one crow
        assert moss["semantic_iou"] == pytest.approx(3 / 5, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            evaluate_predictions([], HashEmbedder(8))

    def test_each_distinct_label_embedded_once(self):
        # 1500 distinct predicted labels and 700 distinct truths
        preds = [LabeledPrediction(f"s{k}", f"pred {k}", f"truth {k % 700}")
                 for k in range(1500)]
        emb = CountingEmbedder(8)
        report = evaluate_predictions(preds, emb)
        assert len(emb.calls) == -(-2200 // EMBED_CHUNK)
        assert max(emb.calls) <= EMBED_CHUNK
        assert sum(emb.calls) == 2200
        sims = [semantic_similarity(p.predicted, p.truth, HashEmbedder(8))
                for p in preds]
        assert report.semantic_similarity == pytest.approx(np.mean(sims),
                                                           rel=1e-12)

    def test_each_distinct_pair_scored_once(self, monkeypatch):
        import vfclass.evaluation as evaluation_mod

        calls = []

        def counting_iou(predicted, truth):
            calls.append((predicted, truth))
            return semantic_iou(predicted, truth)

        monkeypatch.setattr(evaluation_mod, "semantic_iou", counting_iou)
        preds = golden_fixture()
        report = evaluate_predictions(preds, golden_embedder())
        distinct = list(dict.fromkeys((p.predicted, p.truth) for p in preds))
        assert calls == distinct
        assert len(calls) < len(preds)
        assert report.semantic_iou == pytest.approx(0.525, abs=1e-12)

    def test_unknown_mode_fails_before_embedding(self):
        emb = CountingEmbedder(8)
        with pytest.raises(EmptyInputError, match="unknown cluster accuracy mode"):
            evaluate_predictions(golden_fixture(), emb, mode="bogus")
        assert emb.calls == []

    def test_per_class_keys_in_first_seen_truth_order(self):
        truths = ["zebra", "ant", "moth", "ant", "zebra", "bee"]
        preds = [LabeledPrediction(f"s{k}", "ant", t) for k, t in enumerate(truths)]
        report = evaluate_predictions(preds, HashEmbedder(8))
        assert list(report.per_class) == ["zebra", "ant", "moth", "bee"]
        assert list(report.to_dict()["per_class"]) == ["zebra", "ant", "moth", "bee"]

    def test_csv_has_overall_and_class_rows(self):
        report = evaluate_predictions(golden_fixture(), golden_embedder())
        lines = report.to_csv().strip().splitlines()
        assert lines[0].startswith("scope,")
        assert lines[1].startswith("overall,")
        assert len(lines) == 2 + len(report.per_class)

    def test_aggregate_is_mean_of_means(self):
        r1 = EvaluationReport(0.5, 0.4, 0.3, "one-to-one", 10)
        r2 = EvaluationReport(1.0, 0.8, 0.5, "one-to-one", 1000)
        agg = aggregate_reports([r1, r2])
        assert agg["cluster_accuracy"] == pytest.approx(0.75)
        assert agg["semantic_similarity"] == pytest.approx(0.6)
        assert agg["semantic_iou"] == pytest.approx(0.4)


class TestPredictionIo:
    def test_roundtrip_with_truths(self, tmp_path):
        preds_path = tmp_path / "preds.jsonl"
        with open(preds_path, "w") as fh:
            fh.write(json.dumps({"id": "a", "label": "dog"}) + "\n")
            fh.write(json.dumps({"id": "b", "label": "cat"}) + "\n")
            fh.write(json.dumps({"id": "c", "error": "empty-candidate-set"}) + "\n")
        truths_path = tmp_path / "truth.jsonl"
        with open(truths_path, "w") as fh:
            fh.write(json.dumps({"id": "a", "label": "dog"}) + "\n")
            fh.write(json.dumps({"id": "b", "label": "lion"}) + "\n")
        pairs = load_predictions(preds_path)
        assert pairs == [("a", "dog"), ("b", "cat")]
        labeled = join_predictions(pairs, load_truths(truths_path))
        assert labeled[1].truth == "lion"

    def test_tsv_truths(self, tmp_path):
        path = tmp_path / "truth.tsv"
        path.write_text("a\tdog\nb\tcat\n")
        assert load_truths(path) == {"a": "dog", "b": "cat"}

    def test_duplicate_truth_id_rejected(self, tmp_path):
        path = tmp_path / "truth.tsv"
        path.write_text("a\tdog\na\tcat\n")
        with pytest.raises(SchemaError):
            load_truths(path)

    @pytest.mark.parametrize("label", [None, 5, ["dog"]])
    def test_non_string_labels_rejected(self, tmp_path, label):
        path = tmp_path / "rows.jsonl"
        path.write_text(json.dumps({"id": "a", "label": "dog"}) + "\n"
                        + json.dumps({"id": "b", "label": label}) + "\n")
        with pytest.raises(SchemaError, match="predictions line 2: 'label'"):
            load_predictions(path)
        with pytest.raises(SchemaError, match="truths line 2: 'label'"):
            load_truths(path)

    def test_missing_truth_raises(self, tmp_path):
        with pytest.raises(MissingTruthError):
            join_predictions([("zz", "dog")], {"a": "dog"})
