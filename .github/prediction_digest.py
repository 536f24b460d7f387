"""Print four sha256 digests of vfclass output, for comparing two commits.

The first hashes ``classify_batch`` output over labels, fallback flags,
ranked names with the bits of their scores, and retrieved ids with the bits
of theirs; a change that keeps every prediction byte prints the same one.
The 40,000 x 128 clustered index is large enough that retrieval scans its
projected rows first (``index.PROJECT_MIN``); it is hashed at the default
probes, at probes = 1, where the projected scan's second window (the lists
past the nearest) is empty, and at "all". It and the flat index are also
hashed at k = 1 and k = 50. The second digest covers every branch of
candidate stage 3: the flat index at stages "none", "remove" and
"standardize", and at "all" with a min_count of 18, where 12 of the 200
queries fall back. The third covers the member lists of both partitioned
indexes, so a row that moves partition shows even where no prediction
changes. The fourth covers evaluation: the ``evaluate_predictions`` report
as ``to_dict()`` JSON and ``to_csv()`` bytes, with ``cluster_accuracy`` in
both modes, over three seeded label sets (fewer clusters than classes,
more, and as many), plus ``hungarian``'s pairs on seeded integer matrices
whose costs tie often.

Run it once per source tree, with that tree's ``src`` first on the path::

    PYTHONPATH=path/to/base/src python3 .github/prediction_digest.py
    PYTHONPATH=src python3 .github/prediction_digest.py
"""

import hashlib
import json

import numpy as np

from vfclass.benchmark import make_noisy_benchmark
from vfclass.candidates import FilterConfig, LexiconTagger
from vfclass.embedding import HashEmbedder, PrecomputedStore
from vfclass.evaluation import (LabeledPrediction, cluster_accuracy,
                                evaluate_predictions, hungarian)
from vfclass.index import CaptionRecord, build_index
from vfclass.scoring import ClassifierConfig, classify_batch


def units(rows):
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def clustered(seed=11, classes=800, per_class=50, dim=128):
    """A 40,000 x 128 partitioned index of captions in clusters of 50, each
    naming its class, its store and 120 query vectors: large enough that
    retrieval scans projected rows first."""
    rng = np.random.default_rng(seed)
    syllables = ["ka", "lo", "mi", "ru", "te", "no", "sa", "bu"]
    words = ["".join(syllables[i >> 3 * j & 7] for j in range(4)) for i in range(classes)]
    directions = units(rng.standard_normal((classes, dim)))
    store = PrecomputedStore(dim)
    store.add_many(zip(words, directions))
    labels = rng.permutation(np.repeat(np.arange(classes), per_class))
    noise = 0.5 / np.sqrt(dim)
    rows = units(directions[labels] + noise * rng.standard_normal((len(labels), dim)))
    records = [CaptionRecord(f"c{i:06d}", f"a {words[c]} near a {words[(c * 7 + i) % classes]}")
               for i, c in enumerate(labels)]
    store.add_many((r.id, row) for r, row in zip(records, rows))
    picks = directions[rng.integers(classes, size=120)]
    queries = [(f"q{i:03d}", row.tolist()) for i, row in
               enumerate(units(picks + noise * rng.standard_normal(picks.shape)))]
    index = build_index(records, store, structure="partitioned", num_partitions=32)
    return index, store, queries


def update(digest, index, store, queries, config):
    """Hash the queries' predictions at windows of all of them, 8 and 1."""
    for window in (len(queries), 8, 1):
        for start in range(0, len(queries), window):
            for item in classify_batch(queries[start:start + window], index,
                                       store, tagger, config):
                p = item.prediction
                line = [item.id, item.error_code, item.error] if p is None else [
                    item.id, p.label, p.fallback,
                    [(b.candidate, b.visual.hex(), b.textual.hex(), b.fused.hex())
                     for b in p.ranked],
                    [(h.record.id, h.score.hex()) for h in p.retrieved]]
                digest.update(repr(line).encode() + b"\n")


def labeled(rng, clusters, classes, count=300):
    """Predictions whose truths spread over ``classes`` labels and whose
    predicted labels, mostly each class's own cluster, over ``clusters``;
    every label and cluster occurs, so ``auto`` sees exactly these counts."""
    words = ["arctic", "wolf", "crow", "green", "fern", "moss", "red", "fox"]

    def names(n):
        return [" ".join(rng.choice(words, 1 + i % 3)) + f" {i}" for i in range(n)]

    truth_names, cluster_names = names(classes), names(clusters)
    span = max(clusters, classes)
    truth = np.concatenate([np.arange(span) % classes,
                            rng.integers(classes, size=count - span)])
    home = rng.integers(clusters, size=classes)
    stray = rng.integers(clusters, size=count - span)
    cluster = np.concatenate([np.arange(span) % clusters,
                              np.where(rng.random(count - span) < 0.7,
                                       home[truth[span:]], stray)])
    order = rng.permutation(count)
    return [LabeledPrediction(f"e{i:04d}", cluster_names[cluster[k]],
                              truth_names[truth[k]]) for i, k in enumerate(order)]


def evaluation_digest(seed=5):
    digest, rng = hashlib.sha256(), np.random.default_rng(seed)
    for clusters, classes in ((8, 11), (14, 9), (12, 12)):
        preds = labeled(rng, clusters, classes)
        report = evaluate_predictions(preds, HashEmbedder(32))
        digest.update(json.dumps(report.to_dict()).encode() + report.to_csv().encode())
        for mode in ("one-to-one", "many-to-one"):
            digest.update(cluster_accuracy(preds, mode).hex().encode() + b"\n")
    for n, m in ((6, 6), (4, 7), (7, 4), (9, 9)):
        cost = rng.integers(0, 4, (n, m)).astype(np.float64)
        digest.update(repr(hungarian(cost)).encode() + b"\n")
    return digest.hexdigest()


bench, tagger, digest = make_noisy_benchmark(seed=7), LexiconTagger(), hashlib.sha256()
flat = build_index(bench.records, bench.store)
part = build_index(bench.records, bench.store, structure="partitioned",
                   num_partitions=8)
big, big_store, big_queries = clustered()
for index, store, queries, probes in (
        (flat, bench.store, bench.queries, None), (part, bench.store, bench.queries, 2),
        (part, bench.store, bench.queries, "all"), (big, big_store, big_queries, None),
        (big, big_store, big_queries, 1), (big, big_store, big_queries, "all")):
    update(digest, index, store, queries, ClassifierConfig(probes=probes))
# the retrieval cut at its smallest and a large k
for index, store, queries in ((flat, bench.store, bench.queries),
                              (big, big_store, big_queries)):
    for k in (1, 50):
        update(digest, index, store, queries, ClassifierConfig(k=k))
stage3 = hashlib.sha256()
for filter_config in (FilterConfig(stages="none"), FilterConfig(stages="remove"),
                      FilterConfig(stages="standardize"), FilterConfig(min_count=18)):
    update(stage3, flat, bench.store, bench.queries,
           ClassifierConfig(filter=filter_config))
members = hashlib.sha256(repr([p.tolist() for index in (part, big)
                               for p in index.partitions]).encode())
print(digest.hexdigest(), stage3.hexdigest(), members.hexdigest(), evaluation_digest())
