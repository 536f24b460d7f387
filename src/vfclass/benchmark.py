"""Synthetic benchmarks with known ground truth.

``make_benchmark`` plants well-separated class directions, captions whose
embeddings cluster around their class direction and whose text mentions the
class word, and noisy query embeddings per class. Because the geometry is
planted, end-to-end accuracy has a known target.

``make_noisy_benchmark`` additionally pollutes captions with cased
variants, meta words, digit junk, and verbs whose embeddings are placed
adversarially between classes, so the benefit of each candidate-filtering
stage is measurable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embedding import PrecomputedStore, normalize
from .index import CaptionIndex, CaptionRecord, build_index
from .ingestion import DatasetManifest, ManifestEntry

CLASS_POOL = [
    "airplane", "bicycle", "cassowary", "dolphin", "elephant", "flamingo",
    "giraffe", "hedgehog", "iguana", "jaguar", "kangaroo", "lemur",
    "meerkat", "narwhal", "ocelot", "pelican",
]
ADJECTIVE_POOL = [
    "young", "sleepy", "curious", "spotted", "striped", "golden", "gray",
    "small", "large", "wild",
]
OBJECT_POOL = [
    "meadow", "river", "fence", "rock", "tree", "shore", "trail", "garden",
    "cliff", "pond",
]
VERB_POOL = ["resting", "standing", "walking", "grazing"]


def _article(word: str) -> str:
    return "an" if word[0] in "aeiou" else "a"


def _caption_text(rng, name: str) -> str:
    adj = ADJECTIVE_POOL[int(rng.integers(len(ADJECTIVE_POOL)))]
    verb = VERB_POOL[int(rng.integers(len(VERB_POOL)))]
    obj = OBJECT_POOL[int(rng.integers(len(OBJECT_POOL)))]
    style = int(rng.integers(4))
    if style == 0:
        return f"{_article(adj)} {adj} {name} {verb} near the {obj}"
    if style == 1:
        return f"the {adj} {name} by the {obj}"
    if style == 2:
        return f"{_article(name)} {name} {verb} at the {obj}"
    return f"the {name} and the {obj} in {_article(adj)} {adj} scene"


@dataclass
class SyntheticBenchmark:
    dim: int
    class_names: list[str]
    records: list[CaptionRecord]
    store: PrecomputedStore
    queries: list[tuple[str, str]]  # (query id, image ref)
    truths: dict[str, str]

    def manifest(self, name: str = "synthetic") -> DatasetManifest:
        entries = [
            ManifestEntry(qid, ref, self.truths[qid]) for qid, ref in self.queries
        ]
        return DatasetManifest(name, self.store.identity, entries)

    def build_index(self, **kwargs) -> CaptionIndex:
        return build_index(self.records, self.store, **kwargs)


def _orthonormal_directions(dim: int, count: int, rng) -> np.ndarray:
    gauss = rng.standard_normal((dim, count))
    q, r = np.linalg.qr(gauss)
    q = q * np.sign(np.diag(r))  # fix sign so the basis is seed-stable
    return q.T[:count]


def _unit_noise(vec: np.ndarray, sigma: float, rng) -> np.ndarray:
    return normalize(vec + sigma * rng.standard_normal(vec.shape[0]))


def _plant_queries(store, names, class_vecs, num_queries, image_noise, rng):
    """Queries ``query-NNNN`` of random classes, each an ``img/NNNN`` ref
    added to ``store`` near its class direction; returns (queries, truths)."""
    queries = []
    truths = {}
    for i in range(num_queries):
        c = int(rng.integers(len(names)))
        qid = f"query-{i:04d}"
        ref = f"img/{i:04d}"
        store.add(ref, _unit_noise(class_vecs[c], image_noise, rng))
        queries.append((qid, ref))
        truths[qid] = names[c]
    return queries, truths


def make_benchmark(
    num_classes: int = 10,
    captions_per_class: int = 500,
    num_queries: int = 500,
    dim: int = 32,
    caption_noise: float = 0.1,
    image_noise: float = 0.1,
    seed: int = 42,
) -> SyntheticBenchmark:
    """Plant classes, captions, and queries with known labels."""
    if num_classes > len(CLASS_POOL):
        raise ValueError(f"at most {len(CLASS_POOL)} classes supported")
    rng = np.random.default_rng(seed)
    names = CLASS_POOL[:num_classes]
    class_vecs = _orthonormal_directions(dim, num_classes, rng)

    store = PrecomputedStore(dim, identity=f"synthetic:seed={seed}")
    for name, vec in zip(names, class_vecs):
        store.add(name, vec)
    for word in ADJECTIVE_POOL + OBJECT_POOL + ["scene"]:
        store.add(word, normalize(rng.standard_normal(dim)))

    records = []
    for c, name in enumerate(names):
        for i in range(captions_per_class):
            rid = f"cap-{c:02d}-{i:05d}"
            records.append(
                CaptionRecord(rid, _caption_text(rng, name), "synthetic")
            )
            store.add(rid, _unit_noise(class_vecs[c], caption_noise, rng))

    queries, truths = _plant_queries(store, names, class_vecs, num_queries,
                                     image_noise, rng)
    return SyntheticBenchmark(dim, names, records, store, queries, truths)


def _cased_variants(word: str) -> list[str]:
    return [word, word.capitalize(), word.upper()]


def make_noisy_benchmark(
    num_classes: int = 4,
    captions_per_class: int = 120,
    num_queries: int = 200,
    dim: int = 16,
    caption_noise: float = 0.1,
    image_noise: float = 0.35,
    seed: int = 42,
) -> SyntheticBenchmark:
    """Benchmark where unfiltered candidates actively hurt.

    Every caption carries: a randomly cased class-word variant (variants
    embed slightly apart, so skipping standardization splits each class
    across several predicted labels), meta words and digit junk placed
    between class directions (skipping noise removal lets them win for
    queries of several classes at once), and a verb with a similar
    placement (skipping the POS filter keeps it in play).
    """
    if num_classes > len(CLASS_POOL):
        raise ValueError(f"at most {len(CLASS_POOL)} classes supported")
    rng = np.random.default_rng(seed)
    names = CLASS_POOL[:num_classes]
    class_vecs = _orthonormal_directions(dim, num_classes, rng)
    mid_all = normalize(class_vecs.sum(axis=0))

    store = PrecomputedStore(dim, identity=f"synthetic-noisy:seed={seed}")
    # every raw surface form a class word can take in the captions: three
    # casings x three trailing-punctuation forms, plus two compound forms.
    # Each form gets its own slightly jittered copy of the class direction,
    # so unnormalized pipelines fragment one class across many labels. The
    # plain lowercase word keeps the exact direction so the fully filtered
    # pipeline scores it best.
    surface_map: dict[str, np.ndarray] = {}
    mentions: dict[str, list[str]] = {}
    compounds: dict[str, list[str]] = {}
    for c, name in enumerate(names):
        forms = []
        for variant in _cased_variants(name):
            for punct in ("", ".", ","):
                forms.append(variant + punct)
        mentions[name] = forms
        compounds[name] = [f"{name}_pic", f"{name}-shot"]
        for form in forms + compounds[name]:
            surface_map[form] = _unit_noise(class_vecs[c], 0.08, rng)
        surface_map[name] = class_vecs[c]
        surface_map[name.capitalize()] = _unit_noise(class_vecs[c], 0.08, rng)
        surface_map[name.upper()] = _unit_noise(class_vecs[c], 0.08, rng)
    for token, vec in surface_map.items():
        store.add(token, vec)

    attackers = {
        "photo": _unit_noise(mid_all, 0.05, rng),
        "image": _unit_noise(mid_all, 0.05, rng),
        "standing": _unit_noise(mid_all, 0.05, rng),
        "hd1080": normalize(class_vecs[0] + class_vecs[1 % num_classes]),
        "uhd4k": normalize(
            class_vecs[2 % num_classes] + class_vecs[3 % num_classes]
        ),
    }
    for token, vec in attackers.items():
        store.add(token, vec)
    for word in OBJECT_POOL + ["pic", "shot", "near"]:
        store.add(word, normalize(rng.standard_normal(dim)))

    records = []
    for c, name in enumerate(names):
        for i in range(captions_per_class):
            mention = mentions[name][int(rng.integers(len(mentions[name])))]
            compound = compounds[name][int(rng.integers(2))]
            obj = OBJECT_POOL[int(rng.integers(len(OBJECT_POOL)))]
            text = f"{mention} photo image standing hd1080 uhd4k {compound} near {obj}"
            rid = f"noisy-{c:02d}-{i:05d}"
            records.append(CaptionRecord(rid, text, "synthetic-noisy"))
            store.add(rid, _unit_noise(class_vecs[c], caption_noise, rng))

    queries, truths = _plant_queries(store, names, class_vecs, num_queries,
                                     image_noise, rng)
    return SyntheticBenchmark(dim, names, records, store, queries, truths)
