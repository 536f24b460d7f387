"""End-to-end open-vocabulary classification on a planted benchmark.

Ten classes, 5,000 captions, noisy query embeddings. Shows per-candidate
score breakdowns and how the visual/textual mixing weight changes ranking.

Run: python3 demos/04_classification.py
"""

from vfclass import ClassifierConfig, LexiconTagger, classify, classify_batch
from vfclass.benchmark import make_benchmark

bench = make_benchmark(
    num_classes=10, captions_per_class=500, num_queries=200, dim=32, seed=42
)
index = bench.build_index()
tagger = LexiconTagger()
print(f"index: {len(index)} captions over classes {bench.class_names}")

qid, ref = bench.queries[0]
truth = bench.truths[qid]
pred = classify(ref, index, bench.store, tagger, ClassifierConfig())
print(f"\nquery {qid} (truth: {truth!r}) -> predicted {pred.label!r}")
print("retrieved captions:")
for hit in pred.retrieved[:4]:
    print(f"  {hit.score:.3f}  {hit.record.text}")
print("candidate scores (visual / textual / fused):")
for b in pred.ranked[:6]:
    print(f"  {b.candidate:12s} {b.visual:+.3f} / {b.textual:+.3f} / {b.fused:.4f}")

print("\n== mixing weight sweep on one query ==")
for alpha in (0.0, 0.3, 0.7, 1.0):
    p = classify(ref, index, bench.store, tagger, ClassifierConfig(alpha=alpha))
    top2 = ", ".join(f"{b.candidate}:{b.fused:.3f}" for b in p.ranked[:2])
    print(f"alpha={alpha:.1f} -> {p.label:12s} ({top2})")

print("\n== batch accuracy with defaults (alpha=0.7, k=10) ==")
results = classify_batch(bench.queries, index, bench.store, tagger,
                         ClassifierConfig())
correct = sum(
    1 for item in results
    if item.prediction is not None
    and item.prediction.label == bench.truths[item.id]
)
fallbacks = sum(1 for item in results
                if item.prediction is not None and item.prediction.fallback)
print(f"exact label recovery: {correct}/{len(results)}"
      f"  (fallback predictions: {fallbacks})")
