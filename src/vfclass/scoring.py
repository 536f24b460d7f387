"""Score candidate names against a query and pick the best match.

Each candidate gets two cosine scores: image-to-text (query embedding vs
candidate embedding) and text-to-text (retrieved-caption centroid vs
candidate embedding). A softmax over the candidate axis turns each score
vector into a distribution, and the two are mixed with weight ``alpha`` on
the visual side. The label is the argmax of the fused distribution.

Queries are classified in windows; :func:`classify` is a window of one.
The window's distinct image refs are embedded together, ``EMBED_CHUNK``
refs per provider call, and its queries retrieve their captions together
(:func:`~vfclass.index.retrieve_window`). Stages 1-2 of extraction run
through the index's memo (``CaptionIndex.row_tokens``): a hit row is
tokenized the first time a query hits it under the filter's stage-1/2
settings (:func:`~vfclass.candidates.token_settings`, read at call time),
and its tokens live as long as the index, at most one tuple per row and
distinct settings, with no eviction and no option. The tagger is asked once
per distinct token per window (:class:`~vfclass.candidates.PosTags`), and
nothing it answers outlives the call. The window's distinct candidate texts
are embedded together in the same way. The provider loop has already
checked every row (:func:`~vfclass.embedding._embed_chunks`), so scoring
checks only that the candidate dim is the query dim.

Score/fuse then runs over the window's candidate rows at once: each row's
two cosines are row-wise products with its own query's unit vector and
caption centroid, and each query's softmaxes run over its own segment of
rows, so a prediction does not depend on the window it arrives in. A
window whose candidate rows times dim exceed ``SCORE_BLOCK`` is scored in
chunks of whole queries. Each query has one slot: its prediction, or the
error that classifying it alone raises. A failed provider call is retried
on each half of its queries, down to one query, which sends what a window
of one does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate
from operator import itemgetter

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
from .index import (
    CaptionIndex,
    RetrievedCaption,
    check_probes,
    check_query,
    retrieve_window,
)

SCORE_BLOCK = 1 << 20  # candidate rows x dim one score/fuse block holds at most


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
        _check_alpha(self.alpha)
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


def _check_alpha(alpha) -> None:
    if not (is_real(alpha) and 0.0 <= alpha <= 1.0):
        raise EmptyInputError(f"alpha must be a number in [0, 1], got {alpha!r}")


def _fuse(scores: np.ndarray, alpha: float, starts, sizes) -> np.ndarray:
    """``alpha * s(visual) + (1-alpha) * s(textual)`` for ``scores`` =
    ``[visual, textual]``, the softmax ``s`` taken over each segment
    ``scores[:, start:start + size]``."""
    top = np.maximum.reduceat(scores, starts, axis=1)
    exp = np.exp(scores - top.repeat(sizes, axis=1))
    visual, textual = exp / np.add.reduceat(exp, starts, axis=1).repeat(sizes, axis=1)
    return alpha * visual + (1.0 - alpha) * textual


def fuse(visual, textual, alpha: float) -> list[float]:
    """Mix the two score vectors: ``alpha * s(visual) + (1-alpha) * s(textual)``.

    The softmax ``s`` runs across the candidate set per modality, so the
    result is a probability vector over candidates. ``alpha`` is a number
    in [0, 1], not a ``bool``; the scores are equal-length, non-empty and
    finite, or the call raises :class:`EmptyInputError` (a value that is
    not a number: :class:`SchemaError`).
    """
    _check_alpha(alpha)
    vis = as_vector(visual, "visual scores")
    tex = as_vector(textual, "textual scores")
    if vis.shape != tex.shape:
        raise EmptyInputError("visual and textual score lists must have equal length")
    return _fuse(np.stack([vis, tex]), alpha, [0], [vis.size]).tolist()


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


def _live(slots) -> list[int]:
    return [i for i, slot in enumerate(slots) if not isinstance(slot, VfcError)]


def _slot(stage, value, *args):
    """``stage(value, *args)``, or the :class:`VfcError` ``value`` is or it raises."""
    try:
        return value if isinstance(value, VfcError) else stage(value, *args)
    except VfcError as err:
        return err


def _score(window, index, alpha: float) -> list:
    """Score/fuse over a window of ``(unit query vector, hits, names,
    fallback, candidate rows)``: each query's :class:`Prediction`, or the
    :class:`ZeroVectorError` that scoring it alone raises."""
    sizes = [len(w[2]) for w in window]
    starts = [0, *accumulate(sizes)][:-1]
    counts = [0, *accumulate(len(w[1]) for w in window)][:-1]
    hit_vecs = index.vectors[[h.row for w in window for h in w[1]]]
    # each query's vector, and the sum of its retrieved captions: a cosine
    # does not depend on scale, so these give the image's and the mean's
    targets = np.array([np.array([w[0] for w in window]),
                        np.add.reduceat(hit_vecs, counts, dtype=np.float64)])
    rows = np.concatenate([w[4] for w in window])
    norms = np.sqrt(np.einsum("kij,kij->ki", targets, targets))
    scale = np.sqrt(np.einsum("ij,ij->i", rows, rows)) * norms.repeat(sizes, axis=1)
    scored = [True] * len(window)
    if not scale.all():
        ok = scale.all(axis=0)
        scale[:, ~ok] = 1.0  # the query fails, and its scores go unused
        scored = np.logical_and.reduceat(ok, starts).tolist()
    cosines = np.einsum("ij,kij->ki", rows, targets.repeat(sizes, axis=1))
    cosines = (cosines / scale).clip(-1.0, 1.0)
    fused = _fuse(cosines, alpha, starts, sizes)
    # a stable sort: within a query, fused ties keep the sorted names' order
    order = np.lexsort((-fused, np.repeat(starts, sizes)))
    names = [name for w in window for name in w[2]]
    ranked = list(map(ScoreBreakdown, [names[i] for i in order.tolist()],
                      *np.concatenate([cosines, fused[None]])[:, order].tolist()))
    return [Prediction(ranked[a].candidate, ranked[a:a + n], w[1], w[3]) if good
            else ZeroVectorError("cosine similarity undefined for zero vectors")
            for w, a, n, good in zip(window, starts, sizes, scored)]


def _classify_all(queries, index, provider, tagger, config) -> list:
    """One slot per query, in order: its :class:`Prediction`, or the
    :class:`VfcError` that classifying it alone raises."""
    template = config.prompt_template or "{}"
    tokens, tags = _hit_tokens(index, config.filter), PosTags(tagger)
    refs = iter(_embed_each(_image_method(provider),
                            [[q] for q in queries if isinstance(q, str)],
                            "image embeddings"))
    images = (_slot(itemgetter(0), next(refs)) if isinstance(q, str)
              else _slot(as_vector, q, "query embedding") for q in queries)

    def unit(image_vec):
        return check_query(index, image_vec, config.k)

    def stage(hits, unit_vec):
        cands = select_candidates(
            [(h.record.id, tokens(h)) for h in hits], tags, config.filter)
        return unit_vec, hits, cands.names(), cands.fallback

    def checked(cand_vecs, unit_vec, hits, names, fallback):
        if cand_vecs.shape[1] != unit_vec.shape[0]:
            raise DimensionMismatchError(
                f"image dim {unit_vec.shape[0]} != candidate dim {cand_vecs.shape[1]}"
            )
        return unit_vec, hits, names, fallback, cand_vecs

    slots = [_slot(unit, image) for image in images]
    live = _live(slots)
    for i, hits in zip(live, retrieve_window(index, [slots[i] for i in live],
                                             config.k, config.probes)):
        slots[i] = _slot(stage, hits, slots[i])
    live = _live(slots)
    texts = [[template.format(name) for name in slots[i][2]] for i in live]
    for i, rows in zip(live, _embed_each(provider.embed_texts, texts,
                                         "candidate vectors")):
        slots[i] = _slot(checked, rows, *slots[i])
    live = _live(slots)
    # whole queries, each block within SCORE_BLOCK candidate rows x dim
    step = max(1, SCORE_BLOCK // max((slots[i][4].size for i in live), default=1))
    for start in range(0, len(live), step):
        window = live[start : start + step]
        for i, slot in zip(window, _score([slots[i] for i in window], index,
                                          config.alpha)):
            slots[i] = slot
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
