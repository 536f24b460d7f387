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
the batch it arrives in. The provider loop has already checked every row
(:func:`~vfclass.embedding._embed_chunks`), so scoring checks only that the
candidate dim is the image dim, takes the candidate norms once, and computes
both cosines from them. Each query has one slot: its prediction, or the
error that classifying it alone raises. A failed provider call is retried on
each half of its queries, down to one query, which sends what a batch of one does.
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
from .embedding import as_vector, embed_rows, is_count, is_real
from .errors import (
    DimensionMismatchError,
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
        if not isinstance(self.filter, FilterConfig):
            raise EmptyInputError(f"filter must be a FilterConfig, got {self.filter!r}")
        template = self.prompt_template
        if not isinstance(template, str) or (template and not _fills_one_name(template)):
            raise EmptyInputError(
                "prompt_template must be a string with one {} placeholder, "
                f"got {template!r}"
            )


def _fills_one_name(template: str) -> bool:
    try:
        template.format("name")
    except (AttributeError, TypeError, IndexError, KeyError, ValueError):
        return False
    return "{}" in template


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


def _cosines(rows: np.ndarray, norms: np.ndarray, vec: np.ndarray) -> list[float]:
    """Cosine of ``vec`` against each of ``rows``, whose norms are ``norms``."""
    scale = norms * np.linalg.norm(vec)
    if not scale.all():
        raise ZeroVectorError("cosine similarity undefined for zero vectors")
    return np.clip(rows @ vec / scale, -1.0, 1.0).tolist()


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


def _embed_each(embed, groups, name) -> list:
    """Each group's rows, or the :class:`VfcError` embedding that group alone
    raises. The groups' distinct inputs go out together in first-seen order;
    a failed call is retried on each half of the groups, down to one group."""
    distinct = list(dict.fromkeys(item for group in groups for item in group))
    try:
        rows = embed_rows(embed, distinct, name)
    except VfcError as err:
        if len(groups) == 1:
            return [err]
        half = len(groups) // 2
        return (_embed_each(embed, groups[:half], name)
                + _embed_each(embed, groups[half:], name))
    row = {item: i for i, item in enumerate(distinct)}
    return [rows.take([row[item] for item in group], axis=0) for group in groups]


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


def _slot(stage, value, *args):
    """``stage(value, *args)``, or the :class:`VfcError` ``value`` is or it raises."""
    try:
        return value if isinstance(value, VfcError) else stage(value, *args)
    except VfcError as err:
        return err


def _classify_all(queries, index, provider, tagger, config) -> list:
    """One slot per query, in order: its :class:`Prediction`, or the
    :class:`VfcError` that classifying it alone raises."""
    template = config.prompt_template or "{}"
    tokens, tags = _hit_tokens(index, config.filter), PosTags(tagger)
    refs = [[q] for q in queries if isinstance(q, str)]
    images = (rows if isinstance(rows, VfcError) else rows[0] for rows in
              _embed_each(_image_method(provider), refs, "image embeddings"))

    def stage(image_vec):
        hits = retrieve_topk(index, image_vec, config.k, config.probes)
        cands = select_candidates(
            [(h.record.id, tokens(h)) for h in hits], tags, config.filter)
        return image_vec, hits, cands.names(), cands.fallback

    def score(cand_vecs, image_vec, hits, names, fallback):
        if cand_vecs.shape[1] != image_vec.shape[0]:
            raise DimensionMismatchError(
                f"image dim {image_vec.shape[0]} != candidate dim {cand_vecs.shape[1]}"
            )
        norms = np.linalg.norm(cand_vecs, axis=1)
        # the retrieved captions' mean, not re-normalized
        centroid = index.vectors[[h.row for h in hits]].astype(np.float64).mean(axis=0)
        vis = _cosines(cand_vecs, norms, image_vec)
        tex = _cosines(cand_vecs, norms, centroid)
        fused = fuse(vis, tex, config.alpha)
        ranked = sorted(map(ScoreBreakdown, names, vis, tex, fused),
                        key=lambda b: (-b.fused, b.candidate))
        return Prediction(ranked[0].candidate, ranked, hits, fallback)

    slots = [_slot(stage, next(images) if isinstance(q, str)
                   else _slot(as_vector, q, "query embedding")) for q in queries]
    live = [i for i, slot in enumerate(slots) if not isinstance(slot, VfcError)]
    texts = [[template.format(name) for name in slots[i][2]] for i in live]
    for i, rows in zip(live, _embed_each(provider.embed_texts, texts,
                                         "candidate vectors")):
        slots[i] = _slot(score, rows, *slots[i])
    return slots


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
    [slot] = _classify_all([query], index, provider, tagger, config)
    if isinstance(slot, VfcError):
        raise slot
    return slot


def classify_batch(
    queries,
    index: CaptionIndex,
    provider,
    tagger,
    config: ClassifierConfig | None = None,
) -> list[BatchItem]:
    """Classify ``(id, query)`` pairs, collecting per-query errors.

    Results keep input order. A failing query yields a BatchItem with the
    code and message a single :func:`classify` of it raises, and the others
    are classified as usual.
    """
    config = config or ClassifierConfig()
    queries = list(queries)
    slots = _classify_all([q for _, q in queries], index, provider, tagger, config)
    return [BatchItem(qid, error=str(s), error_code=s.code) if isinstance(s, VfcError)
            else BatchItem(qid, prediction=s) for (qid, _), s in zip(queries, slots)]
