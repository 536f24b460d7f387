"""Correctness checks computed apart from the program.

Each check takes the program's outputs plus the generated inputs, computes
its own reference with numpy (and scipy for the assignment), and returns
a list of failure messages; an empty list means the check passed.
"""

from __future__ import annotations

import re

import numpy as np

from gen import unit_rows

K = 10


def softmax(values: np.ndarray) -> np.ndarray:
    exp = np.exp(values - values.max())
    return exp / exp.sum()


def check_rows(index, vectors_by_id: dict) -> list[str]:
    """Index rows are the generated vectors, unit-normalized, at float32."""
    want = unit_rows(np.stack([vectors_by_id[r.id] for r in index.records]))
    err = float(np.abs(index.vectors.astype(np.float64) - want).max())
    return [] if err <= 1e-6 else [f"index rows differ from inputs by {err:.2e}"]


def oracle_topk(index, queries: np.ndarray, k: int = K) -> list[list[str]]:
    """Float64 brute-force top-k over the index rows, ``(-score, id)`` order."""
    rows = index.vectors.astype(np.float64)
    ids = [r.id for r in index.records]
    out = []
    for start in range(0, len(queries), 64):
        scores = unit_rows(queries[start:start + 64]) @ rows.T
        for row in scores:
            part = np.argpartition(-row, k - 1)[:k]
            keep = np.flatnonzero(row >= row[part].min())
            ranked = sorted(keep, key=lambda i: (-row[i], ids[i]))
            out.append([ids[i] for i in ranked[:k]])
    return out


def recall(got: list[list[str]], want: list[list[str]]) -> float:
    hits = sum(len(set(g) & set(w)) for g, w in zip(got, want))
    return hits / sum(len(w) for w in want)


def check_exact(got: list[list[str]], want: list[list[str]], what: str) -> list[str]:
    bad = [i for i, (g, w) in enumerate(zip(got, want)) if g != w]
    if bad:
        return [f"{what}: {len(bad)}/{len(want)} queries differ from brute force, "
                f"first at query {bad[0]}"]
    return []


def check_fused(predictions, alpha: float) -> list[str]:
    """Fused scores follow from the reported cosines; the label is the argmax."""
    failures = 0
    for pred in predictions:
        vis = np.array([b.visual for b in pred.ranked])
        tex = np.array([b.textual for b in pred.ranked])
        fused = np.array([b.fused for b in pred.ranked])
        want = alpha * softmax(vis) + (1.0 - alpha) * softmax(tex)
        best = min(zip(pred.ranked, want), key=lambda bw: (-bw[1], bw[0].candidate))
        if (not np.allclose(fused, want, rtol=0, atol=1e-12)
                or abs(fused.sum() - 1.0) > 1e-9
                or pred.label != best[0].candidate):
            failures += 1
    return [f"fused scores wrong on {failures} predictions"] if failures else []


def label_accuracy(labels: list[str], truths: list[str]) -> float:
    return sum(a == b for a, b in zip(labels, truths)) / len(truths)


# ------------------------------------------------------------- evaluation

_WORDS = re.compile(r"[\s\-]+")


def word_iou(a: str, b: str) -> float:
    wa = {w for w in _WORDS.split(a.lower()) if w}
    wb = {w for w in _WORDS.split(b.lower()) if w}
    return len(wa & wb) / len(wa | wb)


def check_report(report, preds: list[str], truths: list[str], embedder,
                 expected_mode: str) -> list[str]:
    """One evaluation report against scipy / numpy references."""
    # imported here: loading scipy would add about 35 MiB to peak_rss_mb
    from scipy.optimize import linear_sum_assignment

    failures = []
    clusters = {c: i for i, c in enumerate(sorted(set(preds)))}
    labels = {t: j for j, t in enumerate(sorted(set(truths)))}
    counts = np.zeros((len(clusters), len(labels)), dtype=np.int64)
    np.add.at(counts, ([clusters[p] for p in preds], [labels[t] for t in truths]), 1)
    if expected_mode == "one-to-one":
        rows, cols = linear_sum_assignment(counts, maximize=True)
        matched = int(counts[rows, cols].sum())
    else:
        matched = int(counts.max(axis=1).sum())
    if report.mode != expected_mode:
        failures.append(f"mode {report.mode}, expected {expected_mode}")
    if report.cluster_accuracy != matched / len(preds):
        failures.append(f"cluster accuracy {report.cluster_accuracy} != "
                        f"{matched / len(preds)} ({expected_mode})")
    iou = float(np.mean([word_iou(p, t) for p, t in zip(preds, truths)]))
    if not np.isclose(report.semantic_iou, iou, rtol=1e-12, atol=0):
        failures.append(f"semantic IoU {report.semantic_iou} != {iou}")
    vocab = sorted(set(preds) | set(truths))
    vecs = dict(zip(vocab, unit_rows(np.array(embedder.embed_texts(vocab)))))
    sims = [max(0.0, float(vecs[p] @ vecs[t])) for p, t in zip(preds, truths)]
    if not np.isclose(report.semantic_similarity, np.mean(sims), rtol=1e-9, atol=1e-12):
        failures.append(
            f"semantic similarity {report.semantic_similarity} != {np.mean(sims)}")
    return failures
