"""Metrics for open-vocabulary predictions.

Three metric kernels:

- semantic IoU: word-set overlap between prediction and truth
  (lowercased, split on whitespace and hyphens).
- semantic similarity: cosine of the two labels under a sentence-level
  text embedder, floored at 0 for reporting.
- cluster accuracy: group samples by predicted label, match groups to
  ground-truth classes (one-to-one via minimum-cost assignment, or
  many-to-one by cluster majority), and score the matched fraction.

The assignment solver is an O(n^2 m) augmenting-path formulation that
returns the optimum's total; ``cluster_accuracy`` makes one solve.
``hungarian`` returns the lexicographically smallest optimal pair list, and
makes up to n * m solves for each pair it fixes, so it is meant for small
matrices.
"""

from __future__ import annotations

import csv
import io
import re
from dataclasses import asdict, dataclass, field

import numpy as np

from .embedding import embed_rows, row_norms, text_lines
from .errors import EmptyInputError, MissingTruthError, SchemaError
from .ingestion import json_object

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


def _similarities(pairs: list[tuple[str, str]], embedder) -> np.ndarray:
    """Embedding cosine of each (predicted, truth) pair, clipped to [0, 1];
    each distinct label is embedded once."""
    labels = sorted({label for pair in pairs for label in pair})
    rows = embed_rows(embedder.embed_texts, labels, "label embeddings")
    norms = row_norms(rows, labels, "label embeddings")
    row_of = {label: i for i, label in enumerate(labels)}
    left, right = ([row_of[pair[k]] for pair in pairs] for k in (0, 1))
    # the dots and the norms come from the same row sum, so a label paired
    # with itself scores exactly 1
    dots = (rows[left] * rows[right]).sum(axis=1)
    return np.clip(dots / (norms[left] * norms[right]), 0.0, 1.0)


def semantic_similarity(predicted: str, truth: str, sentence_embedder) -> float:
    """Embedding cosine of the two labels, clamped to [0, 1] for reporting."""
    return float(_similarities([(predicted, truth)], sentence_embedder)[0])


def _solve_assignment(cost: np.ndarray) -> float:
    """Minimum total cost of assigning every row of an n x m matrix, n <= m.

    Shortest-augmenting-path formulation with row/column potentials,
    O(n^2 m); each step scans the free columns as one array expression.
    """
    n, m = cost.shape
    u = np.zeros(n + 1)
    v = np.zeros(m + 1)
    match = np.zeros(m + 1, dtype=np.intp)  # match[j] = row (1-based) of column j
    way = np.zeros(m + 1, dtype=np.intp)
    unassigned = np.arange(1, m + 1)  # the columns no row holds, ascending
    for i in range(1, n + 1):
        match[0] = i
        j0 = 0
        minv = np.full(m + 1, np.inf)
        used = np.zeros(m + 1, dtype=bool)
        while True:
            used[j0] = True
            i0 = match[j0]
            cur = cost[i0 - 1] - u[i0] - v[1:]
            better = ~used[1:] & (cur < minv[1:])
            minv[1:][better] = cur[better]
            way[1:][better] = j0
            # the free column of least reduced cost: of tied ones the lowest
            # unassigned, which ends the search (Jonker-Volgenant), else the lowest
            free_minv = np.where(used, np.inf, minv)
            j0 = int(np.argmin(free_minv))
            delta = free_minv[j0]
            if match[j0]:
                free = unassigned[free_minv.take(unassigned).argmin()]
                j0 = int(free) if free_minv[free] == delta else j0
            u[match[used]] += delta
            v[used] -= delta
            minv[~used] -= delta
            if match[j0] == 0:
                break
        unassigned = unassigned[unassigned != j0]
        while j0:
            j1 = way[j0]
            match[j0] = match[j1]
            j0 = j1
    # the m - n free columns hold row 0 and sort first; the others follow in
    # row order, so the total is summed row by row
    col_of_row = np.argsort(match[1:], kind="stable")[m - n :]
    return float(sum(cost[np.arange(n), col_of_row].tolist()))


def _assignment_value(cost: np.ndarray) -> float:
    if cost.size == 0:
        return 0.0
    return _solve_assignment(cost if cost.shape[0] <= cost.shape[1] else cost.T)


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
    optimum = _assignment_value(matrix)
    tol = 1e-9 * max(1.0, float(np.abs(matrix).sum()))

    pairs: list[tuple[int, int]] = []
    cols = list(range(m))
    fixed_cost = 0.0

    def completes(r: int, c: int) -> bool:
        """Whether (r, c) after the fixed pairs still allows an optimum; the
        completion of the last pair is empty and worth 0."""
        rest = matrix[np.ix_(range(r + 1, n), [x for x in cols if x != c])]
        return fixed_cost + matrix[r, c] + _assignment_value(rest) <= optimum + tol

    for left in range(min(n, m), 0, -1):
        # the pair list is sorted by row, and a row past n - left would
        # leave too few rows for the other pairs
        first = pairs[-1][0] + 1 if pairs else 0
        pair = next(((r, c) for r in range(first, n - left + 1) for c in cols
                     if completes(r, c)), None)
        if pair is None:  # pragma: no cover - defended by the solver's optimum
            raise RuntimeError("assignment refinement failed to place a pair")
        pairs.append(pair)
        cols.remove(pair[1])
        fixed_cost += float(matrix[pair])
    return pairs


def _columns(
    preds: list[LabeledPrediction],
) -> tuple[list[str], list[str], np.ndarray, np.ndarray]:
    """Intern both label columns: the sorted distinct predicted labels, the
    sorted distinct truths, and each prediction's index into each."""
    if not preds:
        raise EmptyInputError("no predictions to evaluate")
    clusters = sorted({p.predicted for p in preds})
    labels = sorted({p.truth for p in preds})
    cluster_of = {c: i for i, c in enumerate(clusters)}
    label_of = {t: j for j, t in enumerate(labels)}
    ci = np.array([cluster_of[p.predicted] for p in preds], dtype=np.intp)
    li = np.array([label_of[p.truth] for p in preds], dtype=np.intp)
    return clusters, labels, ci, li


def _accuracy(clusters, labels, ci, li, mode: str) -> tuple[float, str]:
    """Cluster accuracy of interned columns, and the mode it used: ``auto``
    is one-to-one when there are no more clusters than labels."""
    if mode == "auto":
        mode = "one-to-one" if len(clusters) <= len(labels) else "many-to-one"
    cells = ci * len(labels) + li
    counts = np.bincount(cells, minlength=len(clusters) * len(labels))
    counts = counts.reshape(len(clusters), len(labels))
    if mode == "one-to-one":
        # the counts are integers, so the optimum's float64 value is exact
        matched = -_assignment_value(-counts.astype(np.float64))
    elif mode == "many-to-one":
        matched = counts.max(axis=1).sum()
    else:
        raise EmptyInputError(f"unknown cluster accuracy mode {mode!r}")
    return int(matched) / len(ci), mode


def cluster_accuracy(preds: list[LabeledPrediction], mode: str = "auto") -> float:
    """Accuracy after matching predicted-label clusters to truth classes.

    ``one-to-one`` solves a minimum-cost assignment on negated counts;
    ``many-to-one`` maps every cluster to its majority truth label.
    ``auto`` picks one-to-one when there are no more clusters than labels,
    many-to-one otherwise.
    """
    return _accuracy(*_columns(preds), mode)[0]


def ground_to_vocabulary(
    predicted_text: str, vocabulary: list[str], text_embedder
) -> str:
    """Map a free-form label to the nearest entry of a fixed vocabulary."""
    if not vocabulary:
        raise EmptyInputError("vocabulary must be non-empty",
                              code="empty-vocabulary")
    labels = [predicted_text] + sorted(set(vocabulary))
    rows = embed_rows(text_embedder.embed_texts, labels, "label embeddings")
    norms = row_norms(rows, labels, "label embeddings")
    scores = np.clip(rows[1:] @ rows[0] / (norms[1:] * norms[0]), -1.0, 1.0)
    return min(zip(-scores, labels[1:]))[1]


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
        return asdict(self)

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
    clusters, labels, ci, li = columns = _columns(preds)
    accuracy, mode = _accuracy(*columns, mode)
    # each distinct (predicted, truth) pair is scored once, in first-seen
    # order; slot maps each pair's cell of the contingency table to its
    # place in that order
    cells = ci * len(labels) + li
    distinct = list(dict.fromkeys(cells.tolist()))
    pairs = [(clusters[c // len(labels)], labels[c % len(labels)]) for c in distinct]
    slot = np.zeros(len(clusters) * len(labels), dtype=np.intp)
    slot[distinct] = np.arange(len(distinct))
    of_pair = slot[cells]
    ious = np.array([semantic_iou(*pair) for pair in pairs])[of_pair]
    sims = _similarities(pairs, sentence_embedder)[of_pair]
    samples = np.bincount(li)
    # bincount sums each class's values in input order
    sim_means = np.bincount(li, weights=sims) / samples
    iou_means = np.bincount(li, weights=ious) / samples
    per_class = {
        labels[j]: {"samples": int(samples[j]),
                    "semantic_similarity": float(sim_means[j]),
                    "semantic_iou": float(iou_means[j])}
        for j in dict.fromkeys(li.tolist())
    }
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
    for key in ("id", "label"):
        if not isinstance(obj[key], str):
            raise SchemaError(f"{what} line {lineno}: {key!r} must be a string")
    return obj["id"], obj["label"]


def load_predictions(path) -> list[tuple[str, str]]:
    """Read classifier output JSONL into (id, label) pairs."""
    pairs = []
    for lineno, line in text_lines(path, "predictions"):
        obj = json_object(line, "predictions", lineno)
        if "error" not in obj:
            pairs.append(_id_and_label(obj, "predictions", lineno))
    if not pairs:
        raise EmptyInputError("predictions file contains no predictions")
    return pairs


def load_truths(path) -> dict[str, str]:
    """Read ground truths: JSONL {"id", "label"} or two-column TSV."""
    truths: dict[str, str] = {}
    for lineno, line in text_lines(path, "truths"):
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
