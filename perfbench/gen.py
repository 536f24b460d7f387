"""Seeded input generators for the benchmark workloads.

Every generator takes the seed, writes the files the measured process
reads, and returns a small dict describing them. Nothing here imports
vfclass: a change to the program (its synthetic ``vfclass.benchmark``
module included) cannot shift the inputs. The VFCE store layout follows
the file format in the project README, and :func:`hash_vector` restates
the embedding stub's hashing recipe.
"""

from __future__ import annotations

import hashlib
import json
import struct
from pathlib import Path

import numpy as np

# Nouns and adjectives the bundled lexicon tags as such. Class names are
# singular and no stop or meta word, so the candidate pipeline returns them
# unchanged, and the singularizer maps their "+s" plural back to them.
CLASS_POOL = [
    "badger", "camel", "cheetah", "chipmunk", "dolphin", "eagle",
    "ferret", "flamingo", "hamster", "heron", "iguana", "jaguar", "kangaroo",
    "koala", "lemur", "leopard", "lizard", "meerkat", "narwhal", "ocelot",
    "otter", "panda", "pelican", "penguin", "robin", "sparrow", "toad",
]
ADJECTIVES = [
    "spotted", "striped", "golden", "sleepy", "curious", "furry", "tiny",
    "huge", "wild", "young", "fuzzy", "gentle",
]
PLACES = [
    "meadow", "river", "fence", "rock", "tree", "shore", "trail", "garden",
    "cliff", "pond", "beach", "field",
]
VERBS = ["resting", "standing", "walking", "grazing", "sleeping", "hunting"]
META = ["photo", "stock", "wallpaper", "thumbnail", "picture", "image"]

STUB_DIM = 64  # vfclass serve-stub --dim

CONSONANTS = "bdfgklmnprtvz"
VOWELS = "aeiou"


# ---------------------------------------------------------------- file I/O


def write_vfce(path, keys: list[str], matrix: np.ndarray) -> None:
    """Write a ``VFCE`` store: header, float32 rows, length-prefixed keys."""
    matrix = np.ascontiguousarray(matrix, dtype="<f4")
    count, dim = matrix.shape
    with open(path, "wb") as fh:
        fh.write(b"VFCE" + struct.pack("<IIQB", 1, dim, count, 0))
        fh.write(matrix.tobytes())
        fh.write(b"".join(
            struct.pack("<I", len(b)) + b for b in (k.encode() for k in keys)
        ))


def read_vfce(path) -> tuple[list[str], np.ndarray]:
    """Read back a store written by :func:`write_vfce` (float32 rows)."""
    data = Path(path).read_bytes()
    if data[:4] != b"VFCE":
        raise ValueError(f"{path}: not a VFCE store")
    _, dim, count, _ = struct.unpack("<IIQB", data[4:21])
    end = 21 + count * dim * 4
    matrix = np.frombuffer(data[21:end], dtype="<f4").reshape(count, dim)
    keys, pos = [], end
    for _ in range(count):
        (length,) = struct.unpack("<I", data[pos:pos + 4])
        keys.append(data[pos + 4:pos + 4 + length].decode())
        pos += 4 + length
    return keys, matrix


def write_jsonl(path, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, ensure_ascii=False))
            fh.write("\n")


def read_jsonl(path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


# ------------------------------------------------------------- vectors


def unit_rows(matrix) -> np.ndarray:
    """Rows divided by their Euclidean norm, at float64."""
    matrix = np.asarray(matrix, dtype=np.float64)
    return matrix / np.linalg.norm(matrix, axis=1, keepdims=True)


def noisy(directions: np.ndarray, sigma: float, rng) -> np.ndarray:
    """Unit rows near ``directions``: noise of norm about ``sigma``."""
    noise = rng.standard_normal(directions.shape) / np.sqrt(directions.shape[1])
    return unit_rows(directions + sigma * noise)


def hash_vector(text: str, modality: str, dim: int) -> np.ndarray:
    """The embedding stub's vector: SHA-256 blocks of (modality, text).

    Block ``b`` hashes ``modality NUL text NUL str(b)``; its first 32 bytes
    are four little-endian u64 words, each mapped to ``w / 2**64 * 2 - 1``.
    The raw vector is divided by its Euclidean norm.
    """
    seed = f"{modality}\x00{text}".encode("utf-8")
    words: list[int] = []
    block = 0
    while len(words) < dim:
        digest = hashlib.sha256(seed + b"\x00" + str(block).encode()).digest()
        words.extend(struct.unpack("<4Q", digest[:32]))
        block += 1
    raw = np.array([(w / 2**64) * 2.0 - 1.0 for w in words[:dim]])
    return raw / float(np.linalg.norm(raw))


def pseudo_words(rng, count: int, syllables: int = 3) -> list[str]:
    """``count`` distinct consonant-vowel words (they end in a vowel, so
    they are singular fixed points, tag as nouns and hit no stop list)."""
    table = np.array([c + v for c in CONSONANTS for v in VOWELS])
    seen: dict[str, None] = {}
    while len(seen) < count:
        picks = table[rng.integers(len(table), size=(2 * count, syllables))]
        for word in ("".join(row) for row in picks):
            seen.setdefault(word, None)
    return list(seen)[:count]


# ------------------------------------------------------- planted captions


def noisy_caption(rng, name: str) -> str:
    """A caption mentioning ``name`` amid the noise the filters remove:
    URLs, file names with extensions, digit tokens, meta and stop words,
    and case and plural variants of the class name."""
    pick = lambda pool: pool[int(rng.integers(len(pool)))]  # noqa: E731
    mention = pick([name, name.capitalize(), name.upper(), name + "s",
                    name.capitalize() + "s", name + ","])
    adj = pick(ADJECTIVES)
    adj = adj.capitalize() if rng.random() < 0.3 else adj
    place = pick(PLACES)
    place = place + "s" if rng.random() < 0.3 else place
    words = [pick(["a", "the", "one"]), adj, mention, pick(VERBS),
             pick(["near", "by", "at"]), "the", place]
    extras = [
        f"https://cdn{int(rng.integers(9))}.example.org/photos/"
        f"{int(rng.integers(10**5))}.jpg",
        f"http://wiki.example.com/animals/{name.capitalize()}",
        f"IMG_{int(rng.integers(10**4)):04d}.JPG",
        f"{name}_{int(rng.integers(100))}.jpeg",
        pick(["1080p", "4k", "2019", "x2", "#42"]),
        pick(META),
        pick(META).upper(),
    ]
    chosen = rng.choice(len(extras), size=2, replace=False)
    for i in sorted(chosen):
        words.insert(int(rng.integers(len(words) + 1)), extras[i])
    return " ".join(words)


def _vocabulary(class_names: list[str]) -> list[str]:
    """Every lowercase singular word a planted caption can yield."""
    return sorted(set(class_names) | set(ADJECTIVES) | set(PLACES))


def _planted_corpus(rng, n_classes: int, n_captions: int):
    names = [CLASS_POOL[i] for i in sorted(
        rng.choice(len(CLASS_POOL), size=n_classes, replace=False))]
    classes = rng.integers(n_classes, size=n_captions)
    records = [
        {"id": f"cap-{i:05d}", "text": noisy_caption(rng, names[c]),
         "source": "planted"}
        for i, c in enumerate(classes)
    ]
    return names, classes, records


# -------------------------------------------------------------- workloads


def planted_small(out: Path, seed: int) -> dict:
    """Flat-index workload: a small repeating vocabulary at dimension 32."""
    n_classes, n_captions, n_queries, dim, sigma = 16, 4000, 2000, 32, 0.3
    rng = np.random.default_rng([seed, 1])
    names, classes, records = _planted_corpus(rng, n_classes, n_captions)
    gauss = rng.standard_normal((dim, n_classes))
    q, r = np.linalg.qr(gauss)
    directions = (q * np.sign(np.diag(r))).T  # orthonormal class directions
    vocab = _vocabulary(names)
    vocab_vecs = unit_rows(rng.standard_normal((len(vocab), dim)))
    for i, word in enumerate(vocab):
        if word in names:
            vocab_vecs[i] = directions[names.index(word)]
    caption_vecs = noisy(directions[classes], sigma, rng)
    query_classes = rng.integers(n_classes, size=n_queries)
    query_vecs = noisy(directions[query_classes], sigma, rng)
    queries = [{"id": f"q-{i:05d}", "image_ref": f"img/{i:05d}"}
               for i in range(n_queries)]
    write_jsonl(out / "corpus.jsonl", records)
    write_jsonl(out / "queries.jsonl", queries)
    write_jsonl(out / "truths.jsonl", [
        {"id": q_["id"], "label": names[c]}
        for q_, c in zip(queries, query_classes)
    ])
    keys = [r_["id"] for r_ in records] + vocab + [q_["image_ref"] for q_ in queries]
    write_vfce(out / "store.vfce", keys,
               np.concatenate([caption_vecs, vocab_vecs, query_vecs]))
    return {"captions": n_captions, "queries": n_queries, "dim": dim,
            "classes": n_classes}


def corpus_partitioned(out: Path, seed: int, n_classes=2000, per_class=50,
                       n_queries=240, dim=128) -> dict:
    """Long-tail workload: thousands of pseudo-word classes, 100k captions.

    Each class owns three attribute words; a caption names its class, two
    of the three attributes, and one word from a large shared tail, so a
    query's candidates are mostly words no other query sees.
    """
    sigma, tail_words = 0.5, 20000
    rng = np.random.default_rng([seed, 2])
    words = pseudo_words(rng, n_classes * 4 + tail_words)
    names = words[:n_classes]
    attrs = np.array(words[n_classes:4 * n_classes]).reshape(n_classes, 3)
    tail = words[4 * n_classes:]
    directions = unit_rows(rng.standard_normal((n_classes, dim)))
    n_captions = n_classes * per_class
    classes = rng.permutation(np.repeat(np.arange(n_classes), per_class))
    pairs = np.array([(0, 1), (0, 2), (1, 2)])[rng.integers(3, size=n_captions)]
    tail_pick = rng.integers(len(tail), size=n_captions)
    records = []
    for i, c in enumerate(classes):
        a, b = attrs[c, pairs[i]]
        text = f"the {names[c]} {a} {b} near {tail[tail_pick[i]]} photo"
        records.append({"id": f"c{i:06d}", "text": text, "source": "tail"})
    caption_vecs = noisy(directions[classes], sigma, rng)
    word_vecs = unit_rows(rng.standard_normal((len(words), dim)))
    word_vecs[:n_classes] = directions
    query_classes = rng.integers(n_classes, size=n_queries)
    query_vecs = noisy(directions[query_classes], sigma, rng)
    queries = [{"id": f"q-{i:05d}", "image_ref": f"img/{i:05d}"}
               for i in range(n_queries)]
    write_jsonl(out / "corpus.jsonl", records)
    write_jsonl(out / "queries.jsonl", queries)
    write_jsonl(out / "truths.jsonl", [
        {"id": q_["id"], "label": names[c]}
        for q_, c in zip(queries, query_classes)
    ])
    keys = [r_["id"] for r_ in records] + words + [q_["image_ref"] for q_ in queries]
    write_vfce(out / "store.vfce", keys,
               np.concatenate([caption_vecs, word_vecs, query_vecs]))
    return {"captions": n_captions, "queries": n_queries, "dim": dim,
            "classes": n_classes}


def remote_provider(out: Path, seed: int) -> dict:
    """Planted-style captions whose vectors all come from the stub.

    Also writes ``reference.vfce``: the stub's vectors for every caption
    text, query ref and vocabulary word, computed here, for the
    provider-equivalence check.
    """
    n_classes, n_captions, n_queries = 16, 4000, 300
    rng = np.random.default_rng([seed, 3])
    names, _, records = _planted_corpus(rng, n_classes, n_captions)
    queries = [{"id": f"q-{i:05d}", "image_ref": f"remote/{seed}/{i:05d}"}
               for i in range(n_queries)]
    write_jsonl(out / "corpus.jsonl", records)
    write_jsonl(out / "queries.jsonl", queries)
    texts = sorted({r_["text"] for r_ in records} | set(_vocabulary(names)))
    refs = [q_["image_ref"] for q_ in queries]
    vecs = [hash_vector(t, "text", STUB_DIM) for t in texts]
    vecs += [hash_vector(ref, "image", STUB_DIM) for ref in refs]
    write_vfce(out / "reference.vfce", texts + refs, np.array(vecs))
    return {"captions": n_captions, "queries": n_queries, "dim": STUB_DIM,
            "classes": n_classes}


# (classes, predictions): every evaluate_predictions call takes 0.3-1 s,
# short enough for the pace bursts around it to follow the host's speed
EVAL_ONE_TO_ONE = [(20, 3000), (25, 2500), (30, 2500), (35, 2000), (40, 1500)]
EVAL_MANY_TO_ONE = (12, 3500)


def eval_labels(rng, count: int) -> list[str]:
    """``count`` distinct multi-word labels (space or hyphen separated)."""
    out: dict[str, None] = {}
    while len(out) < count:
        adj = ADJECTIVES[int(rng.integers(len(ADJECTIVES)))]
        noun = (CLASS_POOL + PLACES)[int(rng.integers(len(CLASS_POOL) + len(PLACES)))]
        sep = " " if rng.random() < 0.7 else "-"
        out.setdefault(f"{adj}{sep}{noun}", None)
    return list(out)


def eval_dataset(rng, n_classes: int, n_preds: int, split: bool):
    """Truths and predictions for one dataset.

    Every class has an alias (its words reversed) and a confuser class.
    Half the classes are predicted as their own alias with probability 0.6
    and as their confuser's alias with 0.2; the other half 0.3 and 0.5, so
    that some clusters' majority is another class and a per-cluster
    argmax differs from the optimal assignment. The remaining 0.2 goes to
    a random other class. ``split`` gives every class two aliases, so there
    are more predicted clusters than classes (the many-to-one path).

    The labels, confusers, confused classes and the number of predictions
    in each class's own and confuser cells depend on the dataset's shape
    only; the seed draws the stray 0.2 (which other class), the alias
    variants and the order of the predictions. The cost of the assignment
    search follows the large cells of the contingency table, so it stays
    the same across seeds.
    """
    shape_rng = np.random.default_rng([n_classes, n_preds, split])
    truths = eval_labels(shape_rng, n_classes)
    # "noun adjective": aliases do not sort in the order of their truths
    aliases = [" ".join(reversed(t.replace("-", " ").split())) for t in truths]
    aliases = [[a, a.split()[0]] if split else [a] for a in aliases]
    confuser = (np.arange(n_classes)
                + shape_rng.integers(1, n_classes, size=n_classes)) % n_classes
    confused = shape_rng.random(n_classes) < 0.5
    p_own = np.where(confused, 0.3, 0.6)
    classes = np.arange(n_preds) % n_classes  # the same class sizes every seed
    rank = np.arange(n_preds) // n_classes  # position within the class
    size = np.bincount(classes, minlength=n_classes)[classes]
    share = rank / size
    other = (classes + rng.integers(1, n_classes, size=n_preds)) % n_classes
    pred_class = np.where(share < p_own[classes], classes,
                          np.where(share < 0.8, confuser[classes], other))
    variant = rng.integers(2, size=n_preds) if split else np.zeros(n_preds, int)
    order = rng.permutation(n_preds)
    classes, pred_class, variant = classes[order], pred_class[order], variant[order]
    truth_rows, pred_rows = [], []
    for i in range(n_preds):
        pid = f"p-{i:06d}"
        truth_rows.append({"id": pid, "label": truths[classes[i]]})
        pred_rows.append({"id": pid,
                          "label": aliases[pred_class[i]][variant[i]]})
    return truth_rows, pred_rows


def eval_many_classes(out: Path, seed: int) -> dict:
    """Synthetic predictions/truths: one-to-one sets plus one many-to-one."""
    rng = np.random.default_rng([seed, 4])
    specs = [(c, n, False) for c, n in EVAL_ONE_TO_ONE]
    specs.append((*EVAL_MANY_TO_ONE, True))
    datasets = []
    for i, (n_classes, n_preds, split) in enumerate(specs):
        truths, preds = eval_dataset(rng, n_classes, n_preds, split)
        write_jsonl(out / f"truths-{i}.jsonl", truths)
        write_jsonl(out / f"predictions-{i}.jsonl", preds)
        datasets.append({"classes": n_classes, "predictions": n_preds,
                         "path": "many-to-one" if split else "one-to-one"})
    (out / "datasets.json").write_text(json.dumps(datasets))
    return {"datasets": datasets}


GENERATORS = {
    "planted-small": planted_small,
    "corpus-partitioned": corpus_partitioned,
    "remote-provider": remote_provider,
    "eval-many-classes": eval_many_classes,
}
