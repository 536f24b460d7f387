"""Turn retrieved captions into candidate category names.

Three stages run in sequence. For ablation, ``FilterConfig.stages`` names
the last one that runs, one of :data:`STAGES`; each runs the ones before it:

1. noise removal: drop URLs (keeping the final path segment's stem),
   angle-bracket tokens, file extensions (keeping the stem), short words,
   words with digits or symbols, stop words, and meta words; split
   compounds on dashes and underscores.
2. standardization: lowercase and map plurals to singular via a fixed
   rule table, so surface variants collapse to one name.
3. filtering: keep only allowed part-of-speech categories and drop names
   occurring fewer than ``min_count`` times. If that drops every name,
   the most frequent one (the lowest on a tie) is kept as a fallback.

Stages 1-2 are :func:`caption_tokens`, a pure function of one caption's
text and the settings :func:`token_settings` names, and stage 3 is
:func:`select_window` over a window of queries, whose window of one is
:func:`select_candidates`; :func:`extract_candidates` composes them. The
query path in :mod:`vfclass.scoring` memoizes stages 1-2 per index row,
lazily, keyed by those settings, for as long as the index lives: a
:class:`TokenIds` per settings holds each hit row's tokens as ids into a
vocabulary that grows with it (at most rows x distinct settings entries,
no eviction). Stage 3 ranks a window's distinct tokens in name order and
counts each (query, rank) pair with one ``bincount``, in blocks of whole
queries sized by ``COUNT_SPREAD``, so the POS filter and the threshold are
masks and the fallback an ``argmax``, which takes the first, that is the
lowest, name among the highest counts. A window needs no caption ids: only
:func:`select_candidates` names the captions that hold a kept name.

The part-of-speech tagger is pluggable; the default is an offline lexicon
tagger with closed-class word lists and suffix heuristics. Unknown words
default to ``noun`` because rare class names are exactly the words we most
want to keep.
"""

from __future__ import annotations

import re
import string
from collections.abc import Iterable
from dataclasses import dataclass, field
from functools import lru_cache
from importlib import resources
from itertools import accumulate, chain, pairwise, repeat

import numpy as np

from .embedding import is_count, text_lines
from .errors import (
    EmptyCandidateSetError,
    EmptyInputError,
    SchemaError,
    TaggerUnavailableError,
    VfcError,
)

POS_CATEGORIES = ("noun", "adjective", "verb", "article", "pronoun", "other")
# "none" keeps the raw whitespace tokens; each later value adds one stage
STAGES = ("none", "remove", "standardize", "all")
# stage 3 counts a window in blocks of whole queries whose dense (query,
# token) counts number at most this many per token of the window
COUNT_SPREAD = 8
# a query's stage-3 error, by whether the POS and count filter ran
_EMPTY = ("captions yielded no tokens", "no candidate survived filtering")

_URL_RE = re.compile(r"^(?:[a-z][a-z0-9+.-]*://|www\.)", re.IGNORECASE)
_EXTENSION_RE = re.compile(r"^(.+)\.([A-Za-z0-9]{1,4})$")
_COMPOUND_RE = re.compile(r"[-_]+")
_EDGE_PUNCT = string.punctuation
_DATA = resources.files("vfclass") / "data"  # the bundled word lists and lexicon

ARTICLES = frozenset({"a", "an", "the"})

PRONOUNS = frozenset(
    """i you he she it we they me him her us them my your his its our their
    mine yours hers ours theirs myself yourself himself herself itself
    ourselves themselves this that these those who whom whose which what
    someone anyone everyone nobody something anything everything nothing
    """.split()
)

# prepositions, conjunctions, and common adverbs: closed classes that are
# never class names
FUNCTION_WORDS = frozenset(
    """of in on at by for with about against between into through during
    before after above below from up down out off over under near beside
    behind across along around past toward towards upon within without
    and but or nor so yet because although while if when than then once
    very too also just only not never always often sometimes here there
    now again away back still even more most
    """.split()
)

IRREGULAR_PLURALS = {
    "children": "child",
    "deer": "deer",
    "feet": "foot",
    "fish": "fish",
    "geese": "goose",
    "knives": "knife",
    "lives": "life",
    "men": "man",
    "mice": "mouse",
    "oxen": "ox",
    "people": "person",
    "series": "series",
    "sheep": "sheep",
    "species": "species",
    "teeth": "tooth",
    "wives": "wife",
    "women": "woman",
}

_SUFFIX_RULES = (
    ("ing", "verb"),
    ("ed", "verb"),
    ("ly", "other"),
    ("ness", "noun"),
    ("ment", "noun"),
    ("tion", "noun"),
    ("sion", "noun"),
    ("ity", "noun"),
    ("ism", "noun"),
    ("ship", "noun"),
    ("ous", "adjective"),
    ("ful", "adjective"),
    ("ive", "adjective"),
    ("ish", "adjective"),
    ("less", "adjective"),
    ("able", "adjective"),
    ("ible", "adjective"),
)


def load_word_list(path, what: str = "word list") -> frozenset[str]:
    """Read a word-per-line file (stop words, meta words) into a set."""
    return frozenset(line.strip().lower() for _, line in text_lines(path, what))


@lru_cache(maxsize=None)
def default_stop_words() -> frozenset[str]:
    return load_word_list(_DATA / "stopwords.txt")


@lru_cache(maxsize=None)
def default_meta_words() -> frozenset[str]:
    return load_word_list(_DATA / "metawords.txt")


def _word_set(value, name: str, lower: bool = True) -> frozenset[str]:
    """``value``, a collection of strings, lowercased if ``lower``. A bare
    string is not one: iterating it would give its characters."""
    if isinstance(value, Iterable) and not isinstance(value, str):
        words = list(value)
        if all(isinstance(w, str) for w in words):
            return frozenset(w.lower() if lower else w for w in words)
    raise EmptyInputError(f"{name} must be a collection of strings, got {value!r:.60}")


@dataclass
class FilterConfig:
    """Knobs for the candidate pipeline.

    ``stages`` is the last stage that runs, one of :data:`STAGES`:
    nothing, noise removal, then standardization, then the part-of-speech
    and count filter (``"all"``).
    """

    min_word_length: int = 3
    min_count: int = 2
    meta_words: frozenset[str] | None = None
    stop_words: frozenset[str] | None = None
    allowed_pos: frozenset[str] = frozenset({"noun", "adjective"})
    split_compounds: bool = True
    stages: str = "all"

    def __post_init__(self):
        for name in ("min_word_length", "min_count"):
            if not is_count(value := getattr(self, name)):
                raise EmptyInputError(f"{name} must be an integer >= 1, got {value!r}")
        if not isinstance(self.split_compounds, bool):
            raise EmptyInputError(
                f"split_compounds must be True or False, got {self.split_compounds!r}")
        if not (isinstance(self.stages, str) and self.stages in STAGES):
            raise EmptyInputError(
                f"stages must be one of {STAGES}, got {self.stages!r}")
        self.meta_words = (default_meta_words() if self.meta_words is None
                           else _word_set(self.meta_words, "meta_words"))
        self.stop_words = (default_stop_words() if self.stop_words is None
                           else _word_set(self.stop_words, "stop_words"))
        self.allowed_pos = _word_set(self.allowed_pos, "allowed_pos", lower=False)
        unknown = self.allowed_pos - set(POS_CATEGORIES)
        if unknown:
            raise EmptyInputError(f"unknown POS categories: {sorted(unknown)}")


@dataclass
class CandidateSet:
    """Candidate names with occurrence counts and contributing caption ids
    (from :func:`select_candidates`; a window's sets have none), or stage
    3's one ``fallback`` name when its threshold keeps none."""

    entries: dict[str, int]
    provenance: list[str] = field(default_factory=list)
    fallback: bool = False

    def names(self) -> list[str]:
        return sorted(self.entries)

    def __len__(self) -> int:
        return len(self.entries)


def _strip_url(token: str) -> str:
    """Reduce a URL to its final path segment (it may name a class)."""
    token = token.split("?", 1)[0].split("#", 1)[0]
    if "://" in token:
        token = token.split("://", 1)[1]
    segments = [seg for seg in token.split("/") if seg]
    return segments[-1] if len(segments) > 1 else ""


def remove_noise(caption_text: str, config: FilterConfig | None = None) -> list[str]:
    """Stage 1: reduce a caption to plausible class-name word tokens."""
    config = config or FilterConfig()
    out: list[str] = []
    for raw in caption_text.split():
        if "<" in raw or ">" in raw:
            continue
        token = raw
        if _URL_RE.match(token):
            token = _strip_url(token)
            if not token:
                continue
        token = token.strip(_EDGE_PUNCT)
        match = _EXTENSION_RE.match(token)
        if match:
            token = match.group(1)
        if config.split_compounds:
            pieces = _COMPOUND_RE.split(token)
        else:
            pieces = [token]
        for piece in pieces:
            piece = piece.strip(_EDGE_PUNCT)
            if len(piece) < config.min_word_length:
                continue
            if not piece.isalpha():
                continue
            lowered = piece.lower()
            if lowered in config.stop_words or lowered in config.meta_words:
                continue
            out.append(piece)
    return out


def singularize(word: str) -> str:
    """Map a plural to singular via the fixed rule table.

    Order: irregulars, -ies -> -y, -ves -> -f, -es after a sibilant, then a
    bare trailing -s. Words ending in -ss/-us/-is and words shorter than
    four characters are left alone so that singular forms are fixed points.
    """
    if word in IRREGULAR_PLURALS:
        return IRREGULAR_PLURALS[word]
    if len(word) >= 5 and word.endswith("ies"):
        return word[:-3] + "y"
    if len(word) >= 5 and word.endswith("ves"):
        return word[:-3] + "f"
    if (len(word) >= 4 and word.endswith(("ses", "xes", "zes"))) or (
        len(word) >= 5 and word.endswith(("ches", "shes"))
    ):
        return word[:-2]
    if len(word) >= 4 and word.endswith("s") and not word.endswith(("ss", "us", "is")):
        return word[:-1]
    return word


def standardize(tokens: list[str]) -> list[str]:
    """Stage 2: lowercase and singularize every token."""
    return [singularize(t.lower()) for t in tokens]


class LexiconTagger:
    """Offline part-of-speech tagger.

    Resolution order: articles, pronouns, closed-class function words, the
    bundled (or user-supplied) lexicon, suffix heuristics, default noun.
    """

    def __init__(self, lexicon_path=None):
        self._lexicon: dict[str, str] = {}
        path = _DATA / "lexicon.tsv" if lexicon_path is None else lexicon_path
        try:
            for lineno, line in text_lines(path, "lexicon"):
                line = line.strip()
                if line.startswith("#"):
                    continue
                parts = line.split("\t")
                if len(parts) != 2 or parts[1] not in POS_CATEGORIES:
                    raise TaggerUnavailableError(
                        f"malformed lexicon line {lineno}: {line!r}"
                    )
                self._lexicon[parts[0].lower()] = parts[1]
        except (OSError, SchemaError) as exc:
            raise TaggerUnavailableError(f"cannot load lexicon: {exc}") from exc
        # word -> category: the lexicon is fixed now, so an answer never changes
        self._answers: dict[str, str] = {}

    def tag(self, word: str) -> str:
        category = self._answers.get(word)
        if category is None:
            category = self._answers[word] = self._resolve(word)
        return category

    def _resolve(self, word: str) -> str:
        word = word.strip().lower()
        if not word:
            raise EmptyInputError("cannot tag an empty word")
        if word in ARTICLES:
            return "article"
        if word in PRONOUNS:
            return "pronoun"
        if word in FUNCTION_WORDS:
            return "other"
        if word in self._lexicon:
            return self._lexicon[word]
        for suffix, category in _SUFFIX_RULES:
            if len(word) >= len(suffix) + 3 and word.endswith(suffix):
                return category
        return "noun"


def pos_tag(word: str, tagger) -> str:
    """Tag one word; result is one of :data:`POS_CATEGORIES`."""
    category = tagger.tag(word)
    if category not in POS_CATEGORIES:
        raise TaggerUnavailableError(
            f"tagger returned unknown category {category!r}"
        )
    return category


def token_settings(config: FilterConfig) -> tuple:
    """The settings stages 1-2 read, as a hashable key: configs with equal
    settings give every caption the same tokens."""
    return (config.min_word_length, frozenset(config.stop_words),
            frozenset(config.meta_words), config.split_compounds,
            min(config.stages, "standardize", key=STAGES.index))


def caption_tokens(text: str, config: FilterConfig) -> tuple[str, ...]:
    """Stages 1-2 on one caption: noise removal, then standardization, as
    far as ``config.stages`` goes (the raw whitespace tokens at ``"none"``)."""
    tokens = remove_noise(text, config) if config.stages in STAGES[1:] else text.split()
    if config.stages in STAGES[2:]:
        tokens = standardize(tokens)
    return tuple(tokens)


class TokenIds(dict):
    """Row -> the row's tokens as ids into ``words``, a vocabulary that
    grows as rows are numbered."""

    def __init__(self):
        super().__init__()
        self.words: list[str] = []
        self._ids: dict[str, int] = {}

    def number(self, tokens) -> tuple[int, ...]:
        """``tokens`` as ids, new tokens taking the next ones."""
        for token in tokens:
            if token not in self._ids:
                self._ids[token] = len(self.words)
                self.words.append(token)
        return tuple(map(self._ids.__getitem__, tokens))


def select_window(queries, words, tagger, config: FilterConfig) -> list:
    """Stage 3 over a window: ``queries`` holds each query's captions as
    tuples of token ids, the ids indexing ``words``. ``tagger`` is asked
    only when ``config.stages`` is ``"all"``, once per distinct token of
    the window, and its answers are not kept after the call. One slot per
    query: its :class:`CandidateSet`, without provenance, or the
    :class:`VfcError` that :func:`select_candidates` on it raises.

    The window is counted in blocks of whole queries, each block's (query,
    token) counts at most ``COUNT_SPREAD`` times the window's tokens, so the
    work and memory grow with the tokens, not with queries x vocabulary. A
    window whose queries share most of their tokens is one block.
    """
    tokens = [list(chain.from_iterable(captions)) for captions in queries]
    step = 1
    if len(queries) > 1:  # a window of one query is one block
        size = sum(map(len, tokens))
        step = max(1, COUNT_SPREAD * size // max(1, len(set(chain.from_iterable(tokens)))))
    # a word's category, asked once per window; a fault is not kept
    tags = lru_cache(maxsize=None)(lambda word: pos_tag(word, tagger))
    failed, out = {}, []
    for a in range(0, len(queries), step):
        out += _select_block(tokens[a:a + step], words, tags, config, failed)
    for j, toks in enumerate(tokens) if failed else ():
        # the error of the query's first token that the tagger failed on
        out[j] = next((failed[i] for i in toks if i in failed), out[j])
    return out


def _select_block(tokens, words, tags, config, failed) -> list:
    """:func:`select_window` on a block of queries, each query's token ids
    in ``tokens`` and ``tags`` a word's POS category, apart from tagger
    faults: those go to ``failed``, token id -> error. The block's distinct
    tokens are ranked in name order, and its (query, rank) pairs are counted
    by one ``bincount``."""
    filtered = config.stages == "all"
    flat = list(chain.from_iterable(tokens))
    distinct = sorted(set(flat), key=words.__getitem__)
    if filtered:
        allowed, pos = [], config.allowed_pos
        for i in distinct:
            try:
                if tags(words[i]) in pos:
                    allowed.append(i)
            except VfcError as err:
                failed[i] = err
        distinct = allowed
    # ranks from 1 in name order; rank 0 counts what the POS filter drops
    rank, width = dict(zip(distinct, range(1, len(distinct) + 1))), len(distinct) + 1
    keys = np.fromiter(map(rank.get, flat, repeat(0)), np.intp, len(flat))
    if len(tokens) > 1:  # (query, rank) as one key: query * width + rank
        keys += np.repeat(np.arange(0, len(tokens) * width, width),
                          list(map(len, tokens)))
    full = np.bincount(keys, minlength=len(tokens) * width).reshape(-1, width)
    counts = full[:, 1:]
    kept = counts >= (config.min_count if filtered else 1)
    rows, cols = kept.nonzero()
    names = [words[distinct[r]] for r in cols.tolist()]
    entries = list(zip(names, counts[kept].tolist()))
    nkept = np.bincount(rows, minlength=len(tokens)).tolist()
    out = [CandidateSet(dict(entries[a:b])) for a, b in pairwise([0, *accumulate(nkept)])]
    if bare := [j for j, n in enumerate(nkept) if not n]:
        # the fallback: the lowest name among the highest counts, as (rank,
        # count); column 0 counts what the POS filter dropped
        left = full[bare]
        left[:, 0] = 0
        for j, r, n in zip(bare, left.argmax(axis=1).tolist(), left.max(axis=1).tolist()):
            out[j] = (CandidateSet({words[distinct[r - 1]]: n}, fallback=True) if n
                      else EmptyCandidateSetError(_EMPTY[filtered]))
    return out


def select_candidates(per_caption, tagger, config: FilterConfig) -> CandidateSet:
    """Stage 3 over ``(caption id, tokens)`` pairs; ``tagger`` is asked only
    when ``config.stages`` is ``"all"``. A caption contributes to the set's
    provenance if it holds a kept name.

    If the threshold leaves nothing, the set is the lowest name among the
    highest counts before it, flagged ``fallback``. Raises
    :class:`EmptyCandidateSetError` when no token gets that far. This is
    :func:`select_window` on a window of one query.
    """
    per_caption, vocab = list(per_caption), TokenIds()
    [slot] = select_window([[vocab.number(toks) for _, toks in per_caption]],
                           vocab.words, tagger, config)
    if isinstance(slot, VfcError):
        raise slot
    slot.provenance = [cid for cid, toks in per_caption
                       if not slot.entries.keys().isdisjoint(toks)]
    return slot


def extract_candidates(
    captions, tagger, config: FilterConfig | None = None
) -> CandidateSet:
    """Run the full pipeline over retrieved captions: :func:`caption_tokens`
    on each, then :func:`select_candidates` over them all."""
    config = config or FilterConfig()
    return select_candidates(
        [(rec.id, caption_tokens(rec.text, config)) for rec in captions],
        tagger, config)
