"""Score candidate names against a query and pick the best match.

Each candidate gets two cosine scores: image-to-text (query embedding vs
candidate embedding) and text-to-text (retrieved-caption centroid vs
candidate embedding). A softmax over the candidate axis turns each score
vector into a distribution, and the two are mixed with weight ``alpha`` on
the visual side. The label is the argmax of the fused distribution.

Queries are classified in windows; :func:`classify` is a window of one.
The window's distinct image refs are embedded together, ``EMBED_CHUNK``
refs per ``provider.embed_images`` call (a window of vectors makes none),
and its queries retrieve their captions together
(:func:`~vfclass.index.retrieve_window`). Stages 1-2 of extraction run
through the index's memo (``CaptionIndex.row_tokens``): a hit row is
tokenized the first time a query hits it under the filter's stage-1/2
settings (:func:`~vfclass.candidates.token_settings`), and its tokens,
interned, live as long as the index: at most one tuple of tokens per row
and distinct settings, with no eviction and no option.
Stage 3 then runs once over the window's tokens
(:func:`~vfclass.candidates.select_window`). The tagger is asked once per
distinct token per window, and nothing it answers outlives the call. The
window's distinct candidate texts are embedded together in the same way.
The provider loop has already checked every row
(:func:`~vfclass.embedding._embed_chunks`), so scoring checks only that
the candidate dim is the query dim.

Score/fuse then runs over the window's candidate rows at once: each row's
two cosines are row-wise products with its own query's unit vector and
caption centroid, and each query's softmaxes run over its own segment of
rows, so a prediction does not depend on the window it arrives in. A
window whose candidate rows times dim exceed ``index.SCAN_BLOCK`` is
scored in chunks of whole queries. Between the stages a query is one
record of named arrays, or the error that classifying it alone raises,
which the later stages skip. A failed provider call is retried on each
half of its queries, down to one query, which sends what a window of one
does.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from itertools import accumulate, chain

import numpy as np

from .candidates import (
    FilterConfig,
    caption_tokens,
    select_window,
    token_settings,
)
from .embedding import as_vector, check_count, embed_rows, is_real
from .errors import (
    DimensionMismatchError,
    EmptyInputError,
    SchemaError,
    VfcError,
    ZeroVectorError,
)
from .index import (
    CaptionIndex,
    RetrievedCaption,
    _per_block,
    check_probes,
    check_query,
    retrieve_window,
    retrieved,
)


@dataclass
class ScoreBreakdown:
    """Per-candidate scores: raw cosines plus the fused probability."""

    candidate: str
    visual: float
    textual: float
    fused: float


@dataclass(frozen=True)
class ClassifierConfig:
    """A classify call's settings, checked when made; frozen, so a variant
    is ``dataclasses.replace(config, ...)``, checked the same way."""

    k: int = 10
    alpha: float = 0.7
    prompt_template: str = ""
    probes: int | str | None = None
    filter: FilterConfig = field(default_factory=FilterConfig)

    def __post_init__(self):
        check_count(self.k, "k")
        check_alpha(self.alpha)
        check_probes(self.probes)
        if not isinstance(self.filter, FilterConfig):
            raise EmptyInputError(f"filter must be a FilterConfig, got {self.filter!r}")
        check_prompt(self.prompt_template)


def check_prompt(template):
    """``template`` if it is "" (no prompt) or a string that fills one name
    through one ``{}`` placeholder, else an :class:`EmptyInputError`."""
    if not isinstance(template, str) or (template and not _fills_one_name(template)):
        raise EmptyInputError(
            "prompt_template must be a string with one {} placeholder, "
            f"got {template!r}"
        )
    return template


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


def check_alpha(alpha):
    """``alpha`` if it is a number in [0, 1], else an :class:`EmptyInputError`."""
    if not (is_real(alpha) and 0.0 <= alpha <= 1.0):
        raise EmptyInputError(f"alpha must be a number in [0, 1], got {alpha!r}")
    return alpha


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
    check_alpha(alpha)
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


def _hit_tokens(index, found, config: FilterConfig) -> list:
    """Each query's tokens per hit row in ``found``, from the index's memo
    for ``config``'s stage-1/2 settings, where a row's tokens are made on
    its first hit."""
    memo = index.row_tokens.setdefault(token_settings(config), {})
    hit_rows = [rows.tolist() for rows, _ in found]
    for row in chain.from_iterable(hit_rows):
        if row not in memo:
            # interned, so equal tokens of different rows are one object
            memo[row] = tuple(map(sys.intern,
                                  caption_tokens(index.records[row].text, config)))
    return [list(map(memo.__getitem__, rows)) for rows in hit_rows]


@dataclass
class _Query:
    """One query of a window, as far as the stages have taken it; a query
    that failed holds its error, and the later stages skip it."""

    error: VfcError | None = None
    unit: np.ndarray | None = None  # the unit query vector
    rows: np.ndarray | None = None  # the hit rows, best first
    scores: np.ndarray | None = None  # the hits' scores
    names: list[str] | None = None  # the candidate names, in name order
    fallback: bool = False
    vectors: np.ndarray | None = None  # a candidate vector per name
    prediction: Prediction | None = None


def _score(window: list[_Query], index, alpha: float) -> None:
    """Score/fuse over a window: give each query its :class:`Prediction`, or
    the :class:`ZeroVectorError` that scoring it alone raises."""
    sizes = [len(w.names) for w in window]
    starts = [0, *accumulate(sizes)][:-1]
    counts = [0, *accumulate(len(w.rows) for w in window)][:-1]
    hit_vecs = index.vectors[np.concatenate([w.rows for w in window])]
    # each query's vector, and the sum of its retrieved captions: a cosine
    # does not depend on scale, so these give the image's and the mean's
    targets = np.array([np.array([w.unit for w in window]),
                        np.add.reduceat(hit_vecs, counts, dtype=np.float64)])
    cands = np.concatenate([w.vectors for w in window])
    norms = np.sqrt(np.einsum("kij,kij->ki", targets, targets))
    scale = np.sqrt(np.einsum("ij,ij->i", cands, cands)) * norms.repeat(sizes, axis=1)
    scored = [True] * len(window)
    if not scale.all():
        ok = scale.all(axis=0)
        scale[:, ~ok] = 1.0  # the query fails, and its scores go unused
        scored = np.logical_and.reduceat(ok, starts).tolist()
    cosines = np.einsum("ij,kij->ki", cands, targets.repeat(sizes, axis=1))
    cosines = (cosines / scale).clip(-1.0, 1.0)
    fused = _fuse(cosines, alpha, starts, sizes)
    # a stable sort: within a query, fused ties keep the sorted names' order
    order = np.lexsort((-fused, np.repeat(starts, sizes)))
    names = [name for w in window for name in w.names]
    ranked = list(map(ScoreBreakdown, [names[i] for i in order.tolist()],
                      *np.concatenate([cosines, fused[None]])[:, order].tolist()))
    for w, a, n, good in zip(window, starts, sizes, scored):
        if good:
            w.prediction = Prediction(ranked[a].candidate, ranked[a:a + n],
                                      retrieved(index, w.rows, w.scores), w.fallback)
        else:
            w.error = ZeroVectorError("cosine similarity undefined for zero vectors")


def _classify_all(queries, index, provider, tagger, config) -> list:
    """Each query's :class:`Prediction`, in order, or the :class:`VfcError`
    that classifying it alone raises."""
    template = config.prompt_template or "{}"
    window = [_Query() for _ in queries]
    # looked up at the call, which a window without refs never makes, so a
    # provider without embed_images fails only its ref queries
    images = iter(_embed_each(lambda refs: provider.embed_images(refs),
                              [[q] for q in queries if isinstance(q, str)],
                              "image embeddings"))
    for w, q in zip(window, queries):
        try:
            image = (next(images) if isinstance(q, str)
                     else [as_vector(q, "query embedding")])
            if isinstance(image, VfcError):
                raise image
            w.unit = check_query(index, image[0], config.k)
        except VfcError as err:
            w.error = err
    live = [w for w in window if w.error is None]
    found = retrieve_window(index, [w.unit for w in live], config.k, config.probes)
    sets = select_window(_hit_tokens(index, found, config.filter), tagger, config.filter)
    for w, (rows, scores), cands in zip(live, found, sets):
        w.rows, w.scores = rows, scores
        if isinstance(cands, VfcError):
            w.error = cands
        else:
            w.names, w.fallback = cands.names(), cands.fallback
    live = [w for w in live if w.error is None]
    texts = [[template.format(name) for name in w.names] for w in live]
    for w, vectors in zip(live, _embed_each(provider.embed_texts, texts,
                                            "candidate vectors")):
        if isinstance(vectors, VfcError):
            w.error = vectors
        elif vectors.shape[1] != w.unit.shape[0]:
            w.error = DimensionMismatchError(
                f"image dim {w.unit.shape[0]} != candidate dim {vectors.shape[1]}")
        else:
            w.vectors = vectors
    live = [w for w in live if w.error is None]
    # whole queries, each block within index.SCAN_BLOCK candidate rows x dim
    step = _per_block(max((w.vectors.size for w in live), default=1))
    for start in range(0, len(live), step):
        _score(live[start : start + step], index, config.alpha)
    return [w.error or w.prediction for w in window]


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
    [result] = _classify_all([query], index, provider, tagger, config)
    if isinstance(result, VfcError):
        raise result
    return result


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
    are classified as usual. An entry that is not a 2-tuple or 2-list with
    a ``str`` id is a :class:`SchemaError` before any provider call.
    """
    config = config or ClassifierConfig()
    queries = list(queries)
    for i, entry in enumerate(queries):
        if not (isinstance(entry, (tuple, list)) and len(entry) == 2
                and isinstance(entry[0], str)):
            raise SchemaError(f"queries[{i}] must be an (id, query) pair with a "
                              f"string id, got {entry!r:.60}")
    results = _classify_all([q for _, q in queries], index, provider, tagger, config)
    return [BatchItem(qid, error=str(r), error_code=r.code) if isinstance(r, VfcError)
            else BatchItem(qid, prediction=r) for (qid, _), r in zip(queries, results)]
