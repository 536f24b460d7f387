"""Metrics for open-vocabulary predictions.

Three metric kernels:

- semantic IoU: word-set overlap between prediction and truth
  (lowercased, split on whitespace and hyphens).
- semantic similarity: cosine of the two labels under a sentence-level
  text embedder, floored at 0 for reporting.
- cluster accuracy: group samples by predicted label, match groups to
  ground-truth classes (one-to-one via minimum-cost assignment, or
  many-to-one by cluster majority), and score the matched fraction.

The assignment solver is an O(n^3) augmenting-path formulation with a
deterministic tie-break: among all minimum-cost assignments it returns the
lexicographically smallest pair list.
"""

from __future__ import annotations

import csv
import io
import re
from dataclasses import dataclass, field

import numpy as np

from .embedding import cosine_similarity
from .errors import EmptyInputError, MissingTruthError, SchemaError
from .ingestion import json_lines, json_object

_WORD_SPLIT = re.compile(r"[\s\-]+")


@dataclass(frozen=True)
class LabeledPrediction:
    id: str
    predicted: str
    truth: str


def _word_set(label: str) -> set[str]:
    words = {w for w in _WORD_SPLIT.split(label.lower()) if w}
    if not words:
        raise EmptyInputError(f"label {label!r} contains no words")
    return words


def semantic_iou(predicted: str, truth: str) -> float:
    """Intersection-over-union of the two labels' word sets."""
    a = _word_set(predicted)
    b = _word_set(truth)
    return len(a & b) / len(a | b)


def semantic_similarity(predicted: str, truth: str, sentence_embedder) -> float:
    """Embedding cosine of the two labels, clamped to [0, 1] for reporting."""
    vec_p, vec_t = sentence_embedder.embed_texts([predicted, truth])
    return max(0.0, cosine_similarity(vec_p, vec_t))


def _solve_assignment(cost: np.ndarray) -> tuple[float, list[int]]:
    """Minimum-cost assignment for an n x m matrix with n <= m.

    Shortest-augmenting-path formulation with row/column potentials,
    O(n^2 m). Returns (total cost, column index per row).
    """
    n, m = cost.shape
    INF = float("inf")
    u = [0.0] * (n + 1)
    v = [0.0] * (m + 1)
    match = [0] * (m + 1)  # match[j] = row (1-based) assigned to column j
    way = [0] * (m + 1)
    for i in range(1, n + 1):
        match[0] = i
        j0 = 0
        minv = [INF] * (m + 1)
        used = [False] * (m + 1)
        while True:
            used[j0] = True
            i0 = match[j0]
            delta = INF
            j1 = 0
            for j in range(1, m + 1):
                if used[j]:
                    continue
                cur = cost[i0 - 1, j - 1] - u[i0] - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(m + 1):
                if used[j]:
                    u[match[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if match[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            match[j0] = match[j1]
            j0 = j1
    col_of_row = [-1] * n
    for j in range(1, m + 1):
        if match[j]:
            col_of_row[match[j] - 1] = j - 1
    total = float(sum(cost[i, col_of_row[i]] for i in range(n)))
    return total, col_of_row


def _assignment_value(cost: np.ndarray) -> float:
    if cost.size == 0:
        return 0.0
    if cost.shape[0] <= cost.shape[1]:
        return _solve_assignment(cost)[0]
    return _solve_assignment(cost.T)[0]


def hungarian(cost) -> list[tuple[int, int]]:
    """Minimum-cost one-to-one assignment of ``min(n, m)`` pairs.

    Among all optimal assignments, returns the lexicographically smallest
    list of (row, col) pairs: the optimum is computed once, then pairs are
    fixed greedily (smallest row, then smallest column) whenever an optimal
    completion still exists.
    """
    matrix = np.asarray(cost, dtype=np.float64)
    if matrix.ndim != 2 or matrix.size == 0:
        raise EmptyInputError("cost matrix must be non-empty and 2-D",
                              code="empty-matrix")
    if not np.all(np.isfinite(matrix)):
        raise EmptyInputError("cost matrix must be finite")
    n, m = matrix.shape
    total_pairs = min(n, m)
    optimum = _assignment_value(matrix)
    tol = 1e-9 * max(1.0, float(np.abs(matrix).sum()))

    pairs: list[tuple[int, int]] = []
    cols_left = list(range(m))
    fixed_cost = 0.0
    row_start = 0
    for step in range(total_pairs):
        remaining = total_pairs - step
        placed = False
        # rows beyond n - remaining could not leave enough rows for the
        # remaining pairs (the pair list is sorted by row)
        for r in range(row_start, n - remaining + 1):
            for c in cols_left:
                rest_rows = range(r + 1, n)
                rest_cols = [cc for cc in cols_left if cc != c]
                if remaining > 1:
                    sub = matrix[np.ix_(list(rest_rows), rest_cols)]
                    completion = _assignment_value(sub)
                else:
                    completion = 0.0
                candidate = fixed_cost + matrix[r, c] + completion
                if candidate <= optimum + tol:
                    pairs.append((r, c))
                    cols_left.remove(c)
                    fixed_cost += float(matrix[r, c])
                    row_start = r + 1
                    placed = True
                    break
            if placed:
                break
        if not placed:  # pragma: no cover - defended by the solver's optimum
            raise RuntimeError("assignment refinement failed to place a pair")
    return pairs


def contingency(
    preds: list[LabeledPrediction],
) -> tuple[list[str], list[str], np.ndarray]:
    """Cluster-by-truth co-occurrence counts, labels sorted for determinism."""
    if not preds:
        raise EmptyInputError("no predictions to evaluate")
    clusters = sorted({p.predicted for p in preds})
    labels = sorted({p.truth for p in preds})
    row = {c: i for i, c in enumerate(clusters)}
    col = {t: j for j, t in enumerate(labels)}
    counts = np.zeros((len(clusters), len(labels)), dtype=np.int64)
    for p in preds:
        counts[row[p.predicted], col[p.truth]] += 1
    return clusters, labels, counts


def _resolve_mode(preds: list[LabeledPrediction], mode: str) -> str:
    """Map ``auto`` to one-to-one when there are no more clusters than labels."""
    if mode != "auto":
        return mode
    clusters = {p.predicted for p in preds}
    labels = {p.truth for p in preds}
    return "one-to-one" if len(clusters) <= len(labels) else "many-to-one"


def cluster_accuracy(preds: list[LabeledPrediction], mode: str = "auto") -> float:
    """Accuracy after matching predicted-label clusters to truth classes.

    ``one-to-one`` solves a minimum-cost assignment on negated counts;
    ``many-to-one`` maps every cluster to its majority truth label.
    ``auto`` picks one-to-one when there are no more clusters than labels,
    many-to-one otherwise.
    """
    counts = contingency(preds)[2]
    mode = _resolve_mode(preds, mode)
    if mode == "one-to-one":
        # the counts are integers, so the optimum's float64 value is exact
        matched = -_assignment_value(-counts.astype(np.float64))
    elif mode == "many-to-one":
        matched = counts.max(axis=1).sum()
    else:
        raise EmptyInputError(f"unknown cluster accuracy mode {mode!r}")
    return int(matched) / int(counts.sum())


def ground_to_vocabulary(
    predicted_text: str, vocabulary: list[str], text_embedder
) -> str:
    """Map a free-form label to the nearest entry of a fixed vocabulary."""
    if not vocabulary:
        raise EmptyInputError("vocabulary must be non-empty",
                              code="empty-vocabulary")
    query = text_embedder.embed_texts([predicted_text])[0]
    entries = sorted(set(vocabulary))
    vectors = text_embedder.embed_texts(entries)
    scored = [
        (cosine_similarity(query, vec), entry)
        for entry, vec in zip(entries, vectors)
    ]
    scored.sort(key=lambda pair: (-pair[0], pair[1]))
    return scored[0][1]


@dataclass
class EvaluationReport:
    cluster_accuracy: float
    semantic_similarity: float
    semantic_iou: float
    mode: str
    sample_count: int
    per_class: dict[str, dict[str, float]] = field(default_factory=dict)
    config: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "cluster_accuracy": self.cluster_accuracy,
            "semantic_similarity": self.semantic_similarity,
            "semantic_iou": self.semantic_iou,
            "mode": self.mode,
            "sample_count": self.sample_count,
            "per_class": self.per_class,
            "config": self.config,
        }

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(
            ["scope", "class", "samples", "cluster_accuracy",
             "semantic_similarity", "semantic_iou"]
        )
        writer.writerow(
            ["overall", "", self.sample_count, f"{self.cluster_accuracy:.6f}",
             f"{self.semantic_similarity:.6f}", f"{self.semantic_iou:.6f}"]
        )
        for name in sorted(self.per_class):
            stats = self.per_class[name]
            writer.writerow(
                ["class", name, int(stats["samples"]), "",
                 f"{stats['semantic_similarity']:.6f}",
                 f"{stats['semantic_iou']:.6f}"]
            )
        return buf.getvalue()


def evaluate_predictions(
    preds: list[LabeledPrediction],
    sentence_embedder,
    mode: str = "auto",
) -> EvaluationReport:
    """Compute all three metrics plus a per-class breakdown."""
    if not preds:
        raise EmptyInputError("no predictions to evaluate")
    mode = _resolve_mode(preds, mode)
    ious = [semantic_iou(p.predicted, p.truth) for p in preds]
    sims = [
        semantic_similarity(p.predicted, p.truth, sentence_embedder)
        for p in preds
    ]
    accuracy = cluster_accuracy(preds, mode)
    per_class: dict[str, dict[str, float]] = {}
    for p, iou, sim in zip(preds, ious, sims):
        stats = per_class.setdefault(
            p.truth,
            {"samples": 0, "semantic_similarity": 0.0, "semantic_iou": 0.0},
        )
        stats["samples"] += 1
        stats["semantic_similarity"] += sim
        stats["semantic_iou"] += iou
    for stats in per_class.values():
        stats["semantic_similarity"] /= stats["samples"]
        stats["semantic_iou"] /= stats["samples"]
    return EvaluationReport(
        cluster_accuracy=accuracy,
        semantic_similarity=float(np.mean(sims)),
        semantic_iou=float(np.mean(ious)),
        mode=mode,
        sample_count=len(preds),
        per_class=per_class,
        config={"embedder": getattr(sentence_embedder, "identity", "unknown")},
    )


def aggregate_reports(reports: list[EvaluationReport]) -> dict[str, float]:
    """Cross-dataset averaging: the mean of the per-dataset means."""
    if not reports:
        raise EmptyInputError("no reports to aggregate")
    return {
        "cluster_accuracy": float(np.mean([r.cluster_accuracy for r in reports])),
        "semantic_similarity": float(
            np.mean([r.semantic_similarity for r in reports])
        ),
        "semantic_iou": float(np.mean([r.semantic_iou for r in reports])),
        "datasets": len(reports),
    }


def _id_and_label(obj: dict, what: str, lineno: int) -> tuple[str, str]:
    if "id" not in obj or "label" not in obj:
        raise SchemaError(f"{what} line {lineno}: need 'id' and 'label'")
    if not isinstance(obj["label"], str):
        raise SchemaError(f"{what} line {lineno}: 'label' must be a string")
    return str(obj["id"]), obj["label"]


def load_predictions(path) -> list[tuple[str, str]]:
    """Read classifier output JSONL into (id, label) pairs."""
    pairs = []
    for lineno, obj in json_lines(path, "predictions"):
        if "error" not in obj:
            pairs.append(_id_and_label(obj, "predictions", lineno))
    if not pairs:
        raise EmptyInputError("predictions file contains no predictions")
    return pairs


def load_truths(path) -> dict[str, str]:
    """Read ground truths: JSONL {"id", "label"} or two-column TSV."""
    truths: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            if line.lstrip().startswith("{"):
                obj = json_object(line, "truths", lineno)
                key, value = _id_and_label(obj, "truths", lineno)
            else:
                parts = line.split("\t")
                if len(parts) != 2:
                    raise SchemaError(
                        f"truths line {lineno}: expected two tab-separated columns"
                    )
                key, value = parts[0].strip(), parts[1].strip()
            if key in truths:
                raise SchemaError(f"truths line {lineno}: duplicate id {key!r}")
            truths[key] = value
    if not truths:
        raise EmptyInputError("truths file is empty")
    return truths


def join_predictions(
    pairs: list[tuple[str, str]], truths: dict[str, str]
) -> list[LabeledPrediction]:
    """Attach truth labels; every prediction id must have a truth."""
    out = []
    for pid, label in pairs:
        if pid not in truths:
            raise MissingTruthError(f"no ground truth for prediction id {pid!r}")
        out.append(LabeledPrediction(pid, label, truths[pid]))
    return out
