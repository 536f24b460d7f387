"""CaSED as the paper states it, in plain float64 Python: the oracle that
``test_reference.py`` holds the classifier to.

For one query: the K captions with the highest cosine, in (-score, id)
order, by brute force over every row; stages 1-2 of extraction through
``caption_tokens``, which criterion 5 pins; stage 3 counted with a dict (the
POS filter, the ``min_count`` threshold, and, when the threshold leaves
nothing, the lowest name among the highest counts before it); the cosine of
each candidate against the image and against the mean of the retrieved
captions; a softmax over the candidates for each; the fusion
``alpha * visual + (1 - alpha) * textual``; and the ranking in
(-fused, name) order.
"""

import math
from collections import Counter

from vfclass.candidates import caption_tokens, pos_tag


class NoCandidates(Exception):
    """No token got through stages 1-2 and the POS filter."""


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _cosine(a, b):
    value = _dot(a, b) / (math.sqrt(_dot(a, a)) * math.sqrt(_dot(b, b)))
    return max(-1.0, min(1.0, value))


def _softmax(values):
    top = max(values)
    exp = [math.exp(v - top) for v in values]
    return [e / sum(exp) for e in exp]


class Reference:
    """The classifier over one index, provider and tagger."""

    def __init__(self, index, provider, tagger):
        self.records = index.records
        self.rows = index.vectors.astype(float).tolist()
        self.provider = provider
        self.tagger = tagger

    def retrieve(self, image, k):
        """The top ``k`` (score, id, row), ties by ascending id."""
        norm = math.sqrt(_dot(image, image))
        query = [x / norm for x in image]
        ranked = sorted((-_dot(row, query), rec.id, i)
                        for i, (rec, row) in enumerate(zip(self.records, self.rows)))
        return [(max(-1.0, min(1.0, -neg)), rid, i) for neg, rid, i in ranked[:k]]

    def candidates(self, texts, config):
        """Stages 1-3 under the ``FilterConfig`` ``config``: the sorted
        names and the fallback flag."""
        counts = kept = Counter(t for text in texts for t in caption_tokens(text, config))
        if config.stages == "all":
            counts = {t: n for t, n in counts.items()
                      if pos_tag(t, self.tagger) in config.allowed_pos}
            kept = {t: n for t, n in counts.items() if n >= config.min_count}
        if not counts:
            raise NoCandidates
        if kept:
            return sorted(kept), False
        top = max(counts.values())
        return [min(t for t, n in counts.items() if n == top)], True

    def classify(self, query, config):
        """``(label, fallback, ranked, retrieved)``: ``ranked`` holds
        ``(name, visual, textual, fused)`` and ``retrieved`` ``(id, score)``."""
        if isinstance(query, str):
            query = self.provider.embed_images([query])[0]
        image = [float(x) for x in query]
        hits = self.retrieve(image, config.k)
        names, fallback = self.candidates([self.records[i].text for *_, i in hits],
                                          config.filter)
        template = config.prompt_template or "{}"
        vecs = [[float(x) for x in self.provider.embed_texts([template.format(n)])[0]]
                for n in names]
        centroid = [sum(col) / len(hits) for col in zip(*(self.rows[i] for *_, i in hits))]
        visual = [_cosine(image, v) for v in vecs]
        textual = [_cosine(centroid, v) for v in vecs]
        alpha = config.alpha
        fused = [alpha * v + (1 - alpha) * t
                 for v, t in zip(_softmax(visual), _softmax(textual))]
        ranked = sorted(zip(names, visual, textual, fused), key=lambda r: (-r[3], r[0]))
        return ranked[0][0], fallback, ranked, [(rid, s) for s, rid, _ in hits]
