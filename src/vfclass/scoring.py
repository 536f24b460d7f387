"""Score candidate names against a query and pick the best match.

Each candidate gets two cosine scores: image-to-text (query embedding vs
candidate embedding) and text-to-text (retrieved-caption centroid vs
candidate embedding). A softmax over the candidate axis turns each score
vector into a distribution, and the two are mixed with weight ``alpha`` on
the visual side. The label is the argmax of the fused distribution.

Queries are classified in batches; :func:`classify` is a batch of one.
The batch's distinct image refs are embedded together, ``EMBED_CHUNK`` refs
per provider call. Each query then retrieves its captions and extracts its
candidates on its own. Stages 1-2 of extraction run through the index's
memo (``CaptionIndex.row_tokens``): a hit row is tokenized the first time
a query hits it under the filter's stage-1/2 settings
(:func:`~vfclass.candidates.token_settings`, read at call time), and its
tokens live as long as the index, at most one tuple per row and distinct
settings, with no eviction and no option. The tagger is asked once per
distinct token per batch (:class:`~vfclass.candidates.PosTags`), and
nothing it answers outlives the call. The batch's distinct candidate texts
are embedded together in the same way, and each query is scored from its
own rows in its own candidate order, so a prediction does not depend on
the batch it arrives in. When any query of a batch fails,
:func:`classify_batch` reruns the batch one query at a time, so a fault
fails only its own query, with the error a single :func:`classify` gives.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .candidates import (
    FilterConfig,
    PosTags,
    caption_tokens,
    select_candidates,
    token_settings,
)
from .embedding import as_matrix, as_vector, embed_rows, is_count, is_real
from .errors import (
    DimensionMismatchError,
    EmptyCandidateSetError,
    EmptyInputError,
    VfcError,
    ZeroVectorError,
)
from .index import CaptionIndex, RetrievedCaption, check_probes, retrieve_topk


@dataclass
class ScoreBreakdown:
    """Per-candidate scores: raw cosines plus the fused probability."""

    candidate: str
    visual: float
    textual: float
    fused: float


@dataclass
class ClassifierConfig:
    k: int = 10
    alpha: float = 0.7
    prompt_template: str = ""
    probes: int | str | None = None
    filter: FilterConfig = field(default_factory=FilterConfig)

    def __post_init__(self):
        if not is_count(self.k):
            raise EmptyInputError(f"k must be an integer >= 1, got {self.k!r}")
        if not (is_real(self.alpha) and 0.0 <= self.alpha <= 1.0):
            raise EmptyInputError(
                f"alpha must be a number in [0, 1], got {self.alpha!r}"
            )
        check_probes(self.probes)
        if self.prompt_template and not _fills_one_name(self.prompt_template):
            raise EmptyInputError(
                "prompt_template must be a string with one {} placeholder, "
                f"got {self.prompt_template!r}"
            )


def _fills_one_name(template) -> bool:
    try:
        return "{}" in template and isinstance(template.format("name"), str)
    except (AttributeError, TypeError, IndexError, KeyError, ValueError):
        return False


@dataclass
class Prediction:
    """Chosen label plus the full ranked breakdown and retrieval context."""

    label: str
    ranked: list[ScoreBreakdown]
    retrieved: list[RetrievedCaption]
    fallback: bool = False


@dataclass
class BatchItem:
    id: str
    prediction: Prediction | None = None
    error: str | None = None
    error_code: str | None = None


def visual_scores(image_vec, candidate_vecs) -> list[float]:
    """Cosine of the image vector or caption centroid against each candidate."""
    matrix = as_matrix(candidate_vecs, "candidate vectors")
    query = as_vector(image_vec, "image vector")
    if query.shape[0] != matrix.shape[1]:
        raise DimensionMismatchError(
            f"image dim {query.shape[0]} != candidate dim {matrix.shape[1]}"
        )
    norms = np.linalg.norm(matrix, axis=1) * np.linalg.norm(query)
    if not norms.all():
        raise ZeroVectorError("cosine similarity undefined for zero vectors")
    return np.clip(matrix @ query / norms, -1.0, 1.0).tolist()


def caption_centroid(caption_vecs) -> np.ndarray:
    """Arithmetic mean of the retrieved-caption embeddings (not re-normalized)."""
    return as_matrix(caption_vecs, "caption vectors").mean(axis=0)


def softmax(values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    shifted = arr - arr.max()
    exp = np.exp(shifted)
    return exp / exp.sum()


def fuse(visual, textual, alpha: float) -> list[float]:
    """Mix the two score vectors: ``alpha * s(visual) + (1-alpha) * s(textual)``.

    The softmax ``s`` runs across the candidate set per modality, so the
    result is a probability vector over candidates.
    """
    vis = np.asarray(visual, dtype=np.float64)
    tex = np.asarray(textual, dtype=np.float64)
    if vis.shape != tex.shape or vis.ndim != 1:
        raise EmptyInputError("visual and textual score lists must have equal length")
    if vis.size == 0:
        raise EmptyInputError("score lists must be non-empty")
    if not 0.0 <= alpha <= 1.0:
        raise EmptyInputError("alpha must be in [0, 1]")
    fused = alpha * softmax(vis) + (1.0 - alpha) * softmax(tex)
    return [float(x) for x in fused]


def _embed_distinct(embed, items, name) -> tuple[np.ndarray, dict[str, int]]:
    """Rows of the distinct ``items`` and the row of each; first-seen order,
    so a batch of one sends exactly its own items, in order."""
    distinct = list(dict.fromkeys(items))
    rows = embed_rows(embed, distinct, name)
    return rows, {item: i for i, item in enumerate(distinct)}


def _image_method(provider):
    """``provider.embed_images``, or ``embed_image`` once per ref for a
    provider without it."""
    if hasattr(provider, "embed_images"):
        return provider.embed_images
    return lambda refs: [provider.embed_image(ref) for ref in refs]


def _hit_tokens(index, config: FilterConfig):
    """``caption_tokens`` of a hit's caption, through the index's memo for
    the stage-1/2 settings ``config`` has now."""
    memo = index.row_tokens.setdefault(token_settings(config), {})

    def tokens(hit):
        toks = memo.get(hit.row)
        if toks is None:
            toks = memo[hit.row] = caption_tokens(hit.record.text, config)
        return toks

    return tokens


def _classify_all(queries, index, provider, tagger, config) -> list[Prediction]:
    """Predictions for ``queries`` in order; the first failure raises."""
    template = config.prompt_template or "{}"
    tokens, tags = _hit_tokens(index, config.filter), PosTags(tagger)
    image_rows, image_row = _embed_distinct(
        _image_method(provider), [q for q in queries if isinstance(q, str)],
        "image embeddings")
    staged = []
    for query in queries:
        if isinstance(query, str):
            image_vec = image_rows[image_row[query]]
        else:
            image_vec = as_vector(query, "query embedding")
        hits = retrieve_topk(index, image_vec, config.k, config.probes)
        fallback = False
        try:
            names = select_candidates(
                [(h.record.id, tokens(h)) for h in hits], tags, config.filter
            ).names()
        except EmptyCandidateSetError as err:
            if not err.surviving:
                raise
            names = [min(err.surviving.items(), key=lambda kv: (-kv[1], kv[0]))[0]]
            fallback = True
        texts = [template.format(name) for name in names]
        staged.append((image_vec, hits, names, texts, fallback))
    rows, row_of = _embed_distinct(
        provider.embed_texts, [t for *_, texts, _ in staged for t in texts],
        "candidate vectors")
    predictions = []
    for image_vec, hits, names, texts, fallback in staged:
        cand_vecs = rows[[row_of[t] for t in texts]]
        centroid = caption_centroid(index.vectors[[h.row for h in hits]])
        vis = visual_scores(image_vec, cand_vecs)
        tex = visual_scores(centroid, cand_vecs)
        fused = fuse(vis, tex, config.alpha)
        ranked = sorted(map(ScoreBreakdown, names, vis, tex, fused),
                        key=lambda b: (-b.fused, b.candidate))
        predictions.append(Prediction(ranked[0].candidate, ranked, hits, fallback))
    return predictions


def classify(
    query,
    index: CaptionIndex,
    provider,
    tagger,
    config: ClassifierConfig | None = None,
) -> Prediction:
    """Assign an open-vocabulary label to one query.

    ``query`` is either an embedding vector or an image ref resolvable by
    the provider. When every candidate is filtered away, the most frequent
    token seen before the count threshold becomes the label and the
    prediction is flagged as a fallback.
    """
    config = config or ClassifierConfig()
    return _classify_all([query], index, provider, tagger, config)[0]


def classify_batch(
    queries,
    index: CaptionIndex,
    provider,
    tagger,
    config: ClassifierConfig | None = None,
) -> list[BatchItem]:
    """Classify ``(id, query)`` pairs, collecting per-query errors.

    Results keep input order. If the batch fails, it is rerun one query at
    a time, so a failing query yields a BatchItem with its error recorded
    and the others are classified as usual.
    """
    config = config or ClassifierConfig()
    queries = list(queries)
    try:
        batch = _classify_all([q for _, q in queries], index, provider, tagger, config)
        return [BatchItem(qid, prediction=p) for (qid, _), p in zip(queries, batch)]
    except VfcError:
        pass
    items = []
    for qid, query in queries:
        try:
            prediction = classify(query, index, provider, tagger, config)
            items.append(BatchItem(qid, prediction=prediction))
        except VfcError as err:
            items.append(BatchItem(qid, error=str(err), error_code=err.code))
    return items
