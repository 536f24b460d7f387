"""Spans recorded around the calls into vfclass, from the benchmark's side.

:class:`Tracer` replaces public functions by module attribute, in every
loaded ``vfclass`` module that binds them, with wrappers that record a span
(name, parent span, start, end, one note) and restores them afterwards. A
provider is wrapped in :class:`TimedProvider`. Spans stay in memory; the
per-layer metrics are computed from them when the run ends. A function the
program no longer has is skipped, so its metrics read zero calls.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
import time

# module -> public functions wrapped there (and wherever they are imported)
WRAPPED = {
    "vfclass.index": ["retrieve_topk", "build_index", "save_index", "load_index"],
    "vfclass.candidates": ["extract_candidates"],
    "vfclass.scoring": ["classify", "visual_scores", "text_scores",
                        "caption_centroid", "fuse"],
    "vfclass.embedding": ["load_store"],
    "vfclass.ingestion": ["ingest_corpus"],
    "vfclass.evaluation": ["evaluate_predictions", "cluster_accuracy", "hungarian",
                           "semantic_similarity", "semantic_iou"],
}
# what a span keeps as its note: the texts embedded, or the names extracted
NOTES = {"embedding.embed_texts": lambda texts: list(texts)}
RESULTS = {"candidates.extract_candidates": len}

NAME, PARENT, START, END, NOTE = range(5)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        note, result = NOTES.get(name), RESULTS.get(name)

        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, 0.0, 0.0,
                   note(*args) if note else None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if result:
                rec[NOTE] = result(out)
            return out

        return traced

    @contextlib.contextmanager
    def patched(self):
        """Wrap every function in :data:`WRAPPED` for the ``with`` body."""
        undo = []
        for module_name, names in WRAPPED.items():
            layer = module_name.split(".")[-1]
            module = importlib.import_module(module_name)
            for fname in names:
                original = getattr(module, fname, None)
                if original is None:
                    continue
                wrapper = self.wrap(f"{layer}.{fname}", original)
                for mod in list(sys.modules.values()):
                    if not getattr(mod, "__name__", "").startswith("vfclass"):
                        continue
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            undo.append((mod, attr, original))
        try:
            yield self
        finally:
            for mod, attr, original in reversed(undo):
                setattr(mod, attr, original)

    def provider(self, inner) -> "TimedProvider":
        return TimedProvider(inner, self)


class TimedProvider:
    """Provider proxy timing ``embed_image``, ``embed_texts`` and, when the
    wrapped provider has it, ``embed_records``; other attributes pass
    through, so the program sees the same capabilities."""

    def __init__(self, inner, tracer: Tracer):
        self.inner = inner
        self.embed_image = tracer.wrap("embedding.embed_image", inner.embed_image)
        self.embed_texts = tracer.wrap("embedding.embed_texts", inner.embed_texts)
        if hasattr(inner, "embed_records"):
            self.embed_records = tracer.wrap(
                "embedding.embed_records", inner.embed_records
            )

    def __getattr__(self, name):
        return getattr(self.inner, name)


PROVIDER_SPANS = {"embedding.embed_image", "embedding.embed_texts",
                  "embedding.embed_records"}
SCORE_FUSE = {"scoring.visual_scores", "scoring.text_scores",
              "scoring.caption_centroid", "scoring.fuse"}


def layer_metrics(spans: list[list], fallback_count: int) -> dict[str, tuple]:
    """Per-layer metrics as ``{name: (value, unit)}`` from one traced set-up
    plus one traced pass over the workload's operations."""
    dur = [s[END] - s[START] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            child[s[PARENT]] += dur[i]

    parents = [spans[s[PARENT]][NAME] if s[PARENT] >= 0 else None for s in spans]

    def select(name, under=None):
        return [i for i, s in enumerate(spans)
                if s[NAME] == name and (under is None or parents[i] == under)]

    def total(name, under=None):
        return sum(dur[i] for i in select(name, under))

    def count(name, under=None):
        return len(select(name, under))

    def self_time(name):
        return sum(dur[i] - child[i] for i in select(name))

    queries = count("scoring.classify")
    per_q = (lambda x: x / queries) if queries else (lambda x: 0.0)
    texts = [t for i in select("embedding.embed_texts", "scoring.classify")
             for t in spans[i][NOTE]]
    seen: set[str] = set()
    repeats = 0
    for t in texts:
        repeats += t in seen
        seen.add(t)
    names = [s[NOTE] or 0 for s in spans if s[NAME] == "candidates.extract_candidates"]
    build_provider = sum(total(n, "index.build_index") for n in PROVIDER_SPANS)
    eval_calls = sum(count(n, "evaluation.semantic_similarity") for n in PROVIDER_SPANS)
    ms = lambda x: 1000.0 * per_q(x)  # noqa: E731
    return {
        "candidates.extract_ms": (ms(total("candidates.extract_candidates")), "ms"),
        "candidates.names_per_query": (per_q(sum(names)), "count"),
        "scoring.classify_ms": (ms(total("scoring.classify")), "ms"),
        "scoring.score_fuse_ms": (
            ms(sum(total(n, "scoring.classify") for n in SCORE_FUSE)), "ms"),
        "scoring.self_ms": (ms(self_time("scoring.classify")), "ms"),
        "scoring.fallback_count": (fallback_count, "count"),
        "index.retrieve_ms": (ms(total("index.retrieve_topk", "scoring.classify")), "ms"),
        "index.build_s": (total("index.build_index"), "s"),
        "index.build_self_s": (total("index.build_index") - build_provider, "s"),
        "index.save_s": (total("index.save_index"), "s"),
        "index.load_s": (total("index.load_index"), "s"),
        "ingestion.ingest_s": (total("ingestion.ingest_corpus"), "s"),
        "embedding.load_store_s": (total("embedding.load_store"), "s"),
        "embedding.image_ms": (
            ms(total("embedding.embed_image", "scoring.classify")), "ms"),
        "embedding.texts_ms": (
            ms(total("embedding.embed_texts", "scoring.classify")), "ms"),
        "embedding.calls_per_query": (per_q(
            count("embedding.embed_image", "scoring.classify")
            + count("embedding.embed_texts", "scoring.classify")), "count"),
        "embedding.texts_per_query": (per_q(len(texts)), "count"),
        "embedding.repeat_share": (repeats / len(texts) if texts else 0.0, "ratio"),
        "evaluation.cluster_accuracy_s": (total("evaluation.cluster_accuracy"), "s"),
        "evaluation.hungarian_s": (total("evaluation.hungarian"), "s"),
        "evaluation.similarity_s": (total("evaluation.semantic_similarity"), "s"),
        "evaluation.iou_s": (total("evaluation.semantic_iou"), "s"),
        "evaluation.embed_calls": (eval_calls, "count"),
        "evaluation.self_s": (self_time("evaluation.evaluate_predictions"), "s"),
    }
