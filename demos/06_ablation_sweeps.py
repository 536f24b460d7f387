"""Ablation sweeps over the synthetic benchmarks.

Sweeps the mixing weight, the number of retrieved captions, and the
candidate-filter stages (``FilterConfig.stages``, each value running one
stage more than the one before), printing one metric row per value. The same
sweeps are available from the command line via `vfclass ablate`.

Run: python3 demos/06_ablation_sweeps.py
"""

from vfclass import (
    ClassifierConfig,
    FilterConfig,
    HashEmbedder,
    LabeledPrediction,
    LexiconTagger,
    classify_batch,
    evaluate_predictions,
)
from vfclass.benchmark import make_benchmark, make_noisy_benchmark
from vfclass.candidates import STAGES

tagger = LexiconTagger()
embedder = HashEmbedder(64)


def sweep(bench, index, configs, eval_mode="auto"):
    for name, config in configs:
        results = classify_batch(bench.queries, index, bench.store, tagger,
                                 config)
        labeled = [
            LabeledPrediction(r.id, r.prediction.label, bench.truths[r.id])
            for r in results if r.prediction is not None
        ]
        report = evaluate_predictions(labeled, embedder, mode=eval_mode)
        print(f"  {name:12s} CA={report.cluster_accuracy:.3f}"
              f"  S-Sim={report.semantic_similarity:.3f}"
              f"  S-IoU={report.semantic_iou:.3f}")


bench = make_benchmark(num_classes=10, captions_per_class=300,
                       num_queries=150, dim=32, seed=42)
index = bench.build_index()

print("== mixing weight (0 = text-to-text only, 1 = image-to-text only) ==")
sweep(bench, index, [
    (f"alpha={a}", ClassifierConfig(alpha=a)) for a in (0.0, 0.3, 0.7, 1.0)
])

print("\n== number of retrieved captions ==")
sweep(bench, index, [
    (f"k={k}", ClassifierConfig(k=k)) for k in (1, 2, 5, 10, 20)
])

print("\n== candidate-filter stages (noisy corpus, one-to-one matching) ==")
noisy = make_noisy_benchmark(num_queries=150, seed=42)
noisy_index = noisy.build_index()
sweep(
    noisy,
    noisy_index,
    [(s, ClassifierConfig(filter=FilterConfig(stages=s))) for s in STAGES],
    eval_mode="one-to-one",
)
