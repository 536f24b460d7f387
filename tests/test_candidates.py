"""Candidate extraction: noise removal, standardization, filtering."""

import random
import tracemalloc
import types

import numpy as np
import pytest

from reference import NoCandidates, Reference
from vfclass.candidates import (
    STAGES,
    FilterConfig,
    LexiconTagger,
    caption_tokens,
    default_meta_words,
    default_stop_words,
    extract_candidates,
    load_word_list,
    pos_tag,
    remove_noise,
    select_candidates,
    select_window,
    singularize,
    standardize,
    token_settings,
)
from vfclass.errors import (
    EmptyCandidateSetError,
    EmptyInputError,
    TaggerUnavailableError,
)
from vfclass.index import CaptionRecord


@pytest.fixture(scope="module")
def tagger():
    return LexiconTagger()


class TestRemoveNoise:
    def test_url_reduced_to_filename_stem(self):
        # the URL's trailing file keeps its stem; whether "img" survives is
        # then up to the meta-word list
        meta_without_img = frozenset(default_meta_words() - {"img"})
        config = FilterConfig(meta_words=meta_without_img)
        got = remove_noise("photo of a <PERSON> at http://x.co/img.jpg", config)
        assert got == ["img"]

    def test_default_meta_list_drops_img(self):
        got = remove_noise("photo of a <PERSON> at http://x.co/img.jpg")
        assert got == []

    def test_compound_split_on_dash(self):
        assert remove_noise("red-winged blackbird") == ["red", "winged", "blackbird"]

    def test_compound_split_on_underscore(self):
        assert remove_noise("forest_path view") == ["forest", "path", "view"]

    def test_short_and_stop_words_removed(self):
        assert remove_noise("a of to") == []

    def test_digits_and_symbols_removed(self):
        assert remove_noise("dog2 c4t 100% river") == ["river"]

    def test_extension_stripped_stem_kept(self):
        assert remove_noise("blackbird.png in flight") == ["blackbird", "flight"]

    def test_angle_tokens_removed(self):
        assert remove_noise("<PERSON> with a <UNK> dog") == ["dog"]

    def test_edge_punctuation_stripped(self):
        assert remove_noise("the dog, the park.") == ["dog", "park"]

    def test_case_preserved(self):
        assert remove_noise("Cassowary walking") == ["Cassowary", "walking"]

    def test_split_compounds_can_be_disabled(self):
        config = FilterConfig(split_compounds=False)
        assert remove_noise("red-winged blackbird", config) == ["blackbird"]

    def test_bare_domain_removed(self):
        # a domain with no path has no filename segment to keep
        assert remove_noise("see www.example.com for details") == ["see", "details"]


class TestStandardize:
    def test_case_variants_collapse(self):
        assert standardize(["Cassowary", "cassowary"]) == ["cassowary", "cassowary"]

    def test_simple_plural(self):
        assert standardize(["cars"]) == ["car"]

    def test_rule_table(self):
        assert standardize(["berries", "boxes", "sheep"]) == ["berry", "box", "sheep"]

    @pytest.mark.parametrize(
        "plural,singular",
        [
            ("dogs", "dog"),
            ("dishes", "dish"),
            ("churches", "church"),
            ("buses", "bus"),
            ("wolves", "wolf"),
            ("leaves", "leaf"),
            ("knives", "knife"),
            ("mice", "mouse"),
            ("geese", "goose"),
            ("children", "child"),
            ("species", "species"),
        ],
    )
    def test_singularize_cases(self, plural, singular):
        assert singularize(plural) == singular

    @pytest.mark.parametrize("word", ["glass", "bus", "iris", "cactus", "dog",
                                      "berry", "box", "sky", "wolf"])
    def test_singular_forms_are_fixed_points(self, word):
        assert singularize(word) == word


class TestPosTag:
    def test_lexicon_noun(self, tagger):
        assert pos_tag("dog", tagger) == "noun"

    def test_article(self, tagger):
        assert pos_tag("the", tagger) == "article"

    def test_unknown_defaults_to_noun(self, tagger):
        assert pos_tag("zzxyq", tagger) == "noun"

    def test_byte_order_mark_is_not_part_of_the_first_word(self, tmp_path):
        path = tmp_path / "lexicon.tsv"
        path.write_text("zorp\tverb\nblick\tadjective\n", encoding="utf-8-sig")
        bom_tagger = LexiconTagger(path)
        assert [pos_tag(w, bom_tagger) for w in ("zorp", "blick")] == ["verb", "adjective"]

    def test_adjective(self, tagger):
        assert pos_tag("blue", tagger) == "adjective"

    def test_suffix_verb(self, tagger):
        assert pos_tag("running", tagger) == "verb"

    def test_pronoun(self, tagger):
        assert pos_tag("they", tagger) == "pronoun"

    def test_empty_word_rejected(self, tagger):
        with pytest.raises(EmptyInputError):
            pos_tag("", tagger)


def test_word_list_byte_order_mark_is_not_part_of_the_first_word(tmp_path):
    path = tmp_path / "stop.txt"
    path.write_text("airplane\nthe\n", encoding="utf-8-sig")
    assert path.read_bytes().startswith(b"\xef\xbb\xbfairplane")
    assert load_word_list(path) == frozenset({"airplane", "the"})


def select(tokens, tagger, config=None):
    """Stage 3 over one caption's ``tokens``."""
    return select_candidates([("c1", tokens)], tagger, config or FilterConfig())


class TestSelectCandidates:
    def test_count_rule_removes_singletons(self, tagger):
        config = FilterConfig(allowed_pos=frozenset({"noun"}))
        result = select(["running", "dog", "dog"], tagger, config)
        assert result.entries == {"dog": 2}
        assert not result.fallback

    def test_pos_rule_removes_adjectives_when_nouns_only(self, tagger):
        config = FilterConfig(allowed_pos=frozenset({"noun"}))
        result = select(["blue", "blue", "sky", "sky"], tagger, config)
        assert result.entries == {"sky": 2}

    def test_empty_tokens_raise(self, tagger):
        with pytest.raises(EmptyCandidateSetError,
                           match="no candidate survived filtering"):
            select([], tagger)
        with pytest.raises(EmptyCandidateSetError,
                           match="captions yielded no tokens"):
            select([], tagger, FilterConfig(stages="none"))

    def test_each_distinct_token_tagged_once(self):
        calls = []

        class CountingTagger(LexiconTagger):
            def tag(self, word):
                calls.append(word)
                return super().tag(word)

        tokens = ["dog", "red", "dog", "cat", "dog", "cat"]
        result = select(tokens, CountingTagger())
        assert sorted(calls) == ["cat", "dog", "red"]
        assert result.entries == {"cat": 2, "dog": 3}

    def test_tie_falls_back_to_the_lowest_name(self, tagger):
        result = select(["zebra", "aardvark", "mole"], tagger)
        assert (result.entries, result.fallback) == ({"aardvark": 1}, True)

    def test_higher_count_beats_a_lower_name(self, tagger):
        result = select(["zebra", "zebra", "aardvark"], tagger,
                        FilterConfig(min_count=3))
        assert (result.entries, result.fallback) == ({"zebra": 2}, True)

    def test_fallback_counts_only_what_the_pos_filter_kept(self, tagger):
        result = select(["running", "running", "running", "dog"], tagger,
                        FilterConfig(min_count=5))
        assert (result.entries, result.fallback) == ({"dog": 1}, True)

    def test_no_fallback_without_the_filter_stage(self, tagger):
        result = select(["zebra", "aardvark"], tagger,
                        FilterConfig(stages="standardize", min_count=5))
        assert (result.entries, result.fallback) == (
            {"aardvark": 1, "zebra": 1}, False)


def caption(text, rid="c1"):
    return CaptionRecord(rid, text)


class TestExtractCandidates:
    def test_two_caption_example(self, tagger):
        caps = [caption("a dog in a park", "c1"), caption("the dog runs", "c2")]
        result = extract_candidates(caps, tagger)
        assert result.entries == {"dog": 2}
        assert result.provenance == ["c1", "c2"]

    def test_all_stop_words_error(self, tagger):
        caps = [caption("a of the", "c1"), caption("to in on", "c2")]
        with pytest.raises(EmptyCandidateSetError):
            extract_candidates(caps, tagger)

    def test_counts_scale_with_repetition(self, tagger):
        caps = [caption("a spotted dog", f"c{i}") for i in range(7)]
        result = extract_candidates(caps, tagger)
        assert result.entries == {"dog": 7, "spotted": 7}

    def test_threshold_leaving_nothing_falls_back(self, tagger):
        caps = [caption("a spotted cassowary", "c1"), caption("of the", "c2")]
        result = extract_candidates(caps, tagger)
        # both words survive POS but fail min_count=2; the tie goes to the
        # lowest name
        assert result.entries == {"cassowary": 1}
        assert result.fallback
        assert result.provenance == ["c1"]

    def test_output_names_are_clean(self, tagger):
        caps = [
            caption("Dogs DOGS dogs <THING> http://a.b/c.jpg 4k-photo", f"c{i}")
            for i in range(3)
        ]
        result = extract_candidates(caps, tagger)
        for name in result.entries:
            assert name == name.lower()
            assert name.isalpha()
            assert " " not in name

    def test_determinism_and_order_independence(self, tagger):
        caps = [caption("a dog in a park", "c1"), caption("dog and park", "c2"),
                caption("the spotted dog", "c3")]
        forward = extract_candidates(caps, tagger)
        backward = extract_candidates(list(reversed(caps)), tagger)
        assert forward.entries == backward.entries

    def test_idempotent_on_clean_names(self, tagger):
        caps = [caption("a striped cassowary near the river", f"c{i}")
                for i in range(2)]
        first = extract_candidates(caps, tagger)
        # feed the clean names back through as captions
        again = extract_candidates(
            [caption(" ".join(first.names()), f"r{i}") for i in range(2)], tagger
        )
        assert set(again.entries) == set(first.entries)

    def test_min_count_monotonicity(self, tagger):
        caps = [caption("dog park dog tree park tree tree", f"c{i}")
                for i in range(2)]
        loose = extract_candidates(caps, tagger, FilterConfig(min_count=2))
        tight = extract_candidates(caps, tagger, FilterConfig(min_count=5))
        assert set(tight.entries) <= set(loose.entries)

    def test_pos_restriction_monotonicity(self, tagger):
        caps = [caption("the blue sky over a blue sea", f"c{i}")
                for i in range(2)]
        both = extract_candidates(
            caps, tagger, FilterConfig(allowed_pos=frozenset({"noun", "adjective"}))
        )
        nouns = extract_candidates(
            caps, tagger, FilterConfig(allowed_pos=frozenset({"noun"}))
        )
        assert set(nouns.entries) <= set(both.entries)


class TestStageConfigurations:
    """The four pipeline configurations are individually constructible."""

    noisy = [
        caption("Cassowary at http://x.co/Cassowary.jpg", "n1"),
        caption("cassowary photo 4k <PERSON>", "n2"),
        caption("big-bird cassowary pic2", "n3"),
    ]

    def test_none_keeps_raw_tokens(self, tagger):
        config = FilterConfig(stages="none")
        result = extract_candidates(self.noisy, tagger, config)
        assert "Cassowary" in result.entries
        assert "photo" in result.entries
        assert "<PERSON>" in result.entries

    def test_remove_strips_noise_but_keeps_case(self, tagger):
        config = FilterConfig(stages="remove")
        result = extract_candidates(self.noisy, tagger, config)
        assert "Cassowary" in result.entries
        assert "cassowary" in result.entries  # case variants still distinct
        assert "photo" not in result.entries
        assert all("<" not in name for name in result.entries)

    def test_standardize_collapses_variants(self, tagger):
        config = FilterConfig(stages="standardize")
        result = extract_candidates(self.noisy, tagger, config)
        assert "Cassowary" not in result.entries
        # one mention per caption plus the stem of Cassowary.jpg in n1
        assert result.entries["cassowary"] == 4

    def test_all_is_strictly_smaller_and_clean(self, tagger):
        nothing = extract_candidates(self.noisy, tagger, FilterConfig(stages="none"))
        everything = extract_candidates(self.noisy, tagger, FilterConfig(stages="all"))
        assert len(everything) < len(nothing)
        for name in everything.entries:
            assert name.isalpha() and name == name.lower()


class TestStageSplit:
    """Stages 1-2 are ``caption_tokens``; the memo key covers their settings
    and no stage-3 setting."""

    text = "Dogs at http://x.co/Dogs.jpg near a red-barn <PERSON> barns"

    @pytest.mark.parametrize("stages", ["none", "remove", "standardize", "all"])
    def test_caption_tokens_per_stage(self, stages):
        config = FilterConfig(stages=stages)
        tokens = self.text.split()
        if stages != "none":
            tokens = remove_noise(self.text, config)
        if stages in ("standardize", "all"):
            tokens = standardize(tokens)
        assert caption_tokens(self.text, config) == tuple(tokens)

    def test_stage_three_settings_share_a_key(self):
        base = token_settings(FilterConfig())
        assert token_settings(FilterConfig(
            min_count=5, allowed_pos=frozenset({"noun"}), stages="standardize",
        )) == base
        assert hash(base) == hash(token_settings(FilterConfig()))

    @pytest.mark.parametrize("change", [
        {"min_word_length": 4},
        {"stop_words": default_stop_words() | {"dog"}},
        {"meta_words": frozenset()},
        {"split_compounds": False},
        {"stages": "remove"},
        {"stages": "none"},
    ])
    def test_stage_one_two_settings_change_the_key(self, change):
        assert token_settings(FilterConfig(**change)) != token_settings(FilterConfig())


class TestFilterConfigTypes:
    @pytest.mark.parametrize("name,value", [
        ("min_word_length", 0), ("min_word_length", 1.5),
        ("min_word_length", True), ("min_word_length", "2"),
        ("min_count", 0), ("min_count", 1.5), ("min_count", True),
        ("min_count", "2"),
        ("stop_words", "the cat"), ("stop_words", 5), ("stop_words", ["the", 5]),
        ("meta_words", "img"), ("meta_words", b"img"), ("meta_words", [None]),
        ("split_compounds", 1), ("split_compounds", "no"),
        ("stages", 3), ("stages", None), ("stages", "ALL"), ("stages", ["all"]),
        ("allowed_pos", 5), ("allowed_pos", "noun"), ("allowed_pos", None),
        ("allowed_pos", ["noun", 3]), ("stages", "filter"),
    ])
    def test_bad_value_is_rejected(self, name, value):
        with pytest.raises(EmptyInputError, match=name):
            FilterConfig(**{name: value})

    def test_pos_categories_are_not_lowercased(self):
        assert FilterConfig(allowed_pos=["noun", "verb"]).allowed_pos == frozenset(
            {"noun", "verb"})
        with pytest.raises(EmptyInputError, match=r"unknown POS categories: \['NOUN'\]"):
            FilterConfig(allowed_pos={"NOUN"})

    def test_word_collections_are_lowercased_sets(self):
        config = FilterConfig(stop_words=["The", "cat"],
                              meta_words=(w for w in ["IMG"]))
        assert config.stop_words == frozenset({"the", "cat"})
        assert config.meta_words == frozenset({"img"})
        assert FilterConfig(stop_words=[]).stop_words == frozenset()


# caption words: nouns, adjectives and a verb the default tagger tells
# apart, stop words, non-ASCII words, and raw tokens that differ only in
# case or by a NUL, which only stages="none" keeps as they are
WORDS = ["dog", "dogs", "cat", "zebra", "aardvark", "red", "blue", "running",
         "the", "of", "éclair", "ça", "Dog", "DOG", "Zebra", "e", "e\x00",
         "\x00e", "x-ray"]


def window_slots(window, tagger, config):
    """Stage 3 over ``window``, each query's ``(caption id, tokens)`` pairs;
    the window takes the token tuples and no caption ids."""
    return select_window([[toks for _, toks in pairs] for pairs in window],
                         tagger, config)


class TestSelectWindow:
    """Stage 3 over a window equals the plain-Python reference and each
    query's stage 3 alone."""

    def test_random_windows_equal_the_reference_and_each_query_alone(
            self, tagger):
        no_index = types.SimpleNamespace(records=[], vectors=np.zeros((0, 1)))
        reference = Reference(no_index, None, tagger)
        seen = set()
        for seed in range(300):
            rnd = random.Random(seed)
            config = FilterConfig(stages=STAGES[seed % 4],
                                  min_count=rnd.choice([1, 2, 3, 5]))
            texts = [[" ".join(rnd.choices(WORDS, k=rnd.randrange(5)))
                      for _ in range(rnd.randrange(5))]
                     for _ in range(rnd.randrange(1, 9))]
            window = [[(f"c{i}", caption_tokens(text, config))
                       for i, text in enumerate(caps)] for caps in texts]
            for caps, pairs, slot in zip(texts, window,
                                         window_slots(window, tagger, config)):
                try:
                    alone = select_candidates(pairs, tagger, config)
                except EmptyCandidateSetError as err:
                    assert (type(slot), str(slot)) == (type(err), str(err))
                    with pytest.raises(NoCandidates):
                        reference.candidates(caps, config)
                    seen.add((config.stages, str(err)))
                    continue
                assert (list(slot.entries.items()), slot.fallback) == (
                    list(alone.entries.items()), alone.fallback)
                assert (slot.names(), slot.fallback) == reference.candidates(caps,
                                                                             config)
                assert list(slot.entries) == slot.names()
                # provenance is select_candidates' own; the window has none
                assert slot.provenance == []
                assert alone.provenance == [cid for cid, toks in pairs
                                            if any(t in alone.entries for t in toks)]
                seen.add((config.stages, slot.fallback))
        assert seen >= {(stages, False) for stages in STAGES} | {
            ("all", True), ("all", "no candidate survived filtering"),
            ("none", "captions yielded no tokens")}

    def test_fallback_tie_goes_to_the_lowest_name_whatever_its_id(self, tagger):
        # first sight in the window (zebra, aardvark, mole, éclair) is
        # against name order
        window = [[("a", ("zebra", "aardvark")), ("b", ("mole",))],
                  [("c", ("éclair", "zebra", "éclair", "zebra"))]]
        first, second = window_slots(window, tagger, FilterConfig(min_count=3))
        assert (first.entries, first.fallback) == ({"aardvark": 1}, True)
        assert (second.entries, second.fallback) == ({"zebra": 2}, True)
        alone = select_candidates(window[0], tagger, FilterConfig(min_count=3))
        assert (alone.entries, alone.fallback, alone.provenance) == (
            {"aardvark": 1}, True, ["a"])

    def test_a_token_counts_only_in_its_own_query(self, tagger):
        window = [[("a", ("dog", "dog"))], [("b", ("walrus", "walrus", "dog"))]]
        first, second = window_slots(window, tagger, FilterConfig())
        assert (first.entries, second.entries) == ({"dog": 2}, {"walrus": 2})
        assert [select_candidates(pairs, tagger, FilterConfig()).provenance
                for pairs in window] == [["a"], ["b"]]

    def test_a_query_without_tokens_fails_alone(self, tagger):
        window = [[("a", ("dog", "dog"))], [("b", ()), ("c", ())], [],
                  [("d", ("blue", "blue"))]]
        for config, message in ((FilterConfig(), "no candidate survived filtering"),
                                (FilterConfig(stages="remove"),
                                 "captions yielded no tokens")):
            first, empty, none, last = window_slots(window, tagger, config)
            assert (first.entries, last.entries) == ({"dog": 2}, {"blue": 2})
            for slot in (empty, none):
                assert isinstance(slot, EmptyCandidateSetError)
                assert str(slot) == message

    def test_raw_tokens_keep_python_order(self, tagger):
        tokens = ("e\x00", "ça", "E", "e", "\x00e", "Zebra", "zebra", "e\x00", "é")
        window = [[("a", tokens)], [("b", ("é", "e\x00", "E"))]]
        first, second = window_slots(window, tagger, FilterConfig(stages="none"))
        assert list(first.entries) == sorted(set(tokens))
        assert first.entries["e\x00"] == 2 and first.entries["e"] == 1
        assert list(second.entries) == ["E", "e\x00", "é"]

    def test_a_tagger_fault_fails_only_the_queries_with_that_token(self):
        asked = []

        class Faulty(LexiconTagger):
            def tag(self, word):
                asked.append(word)
                if word in ("walrus", "zebra"):
                    raise TaggerUnavailableError(f"cannot tag {word}")
                return super().tag(word)

        window = [[("a", ("dog", "dog"))], [("b", ("dog", "zebra", "walrus"))],
                  [("c", ("walrus", "zebra"))]]
        first, second, third = window_slots(window, Faulty(), FilterConfig())
        assert first.entries == {"dog": 2}
        assert (str(second), str(third)) == ("cannot tag zebra", "cannot tag walrus")
        assert sorted(asked) == ["dog", "walrus", "zebra"]

    def test_tagger_asked_once_per_distinct_token_in_name_order(self, tagger):
        """24 queries of 10 tokens each their own, and a token that faults in
        the first, the twelfth and the last: every distinct token is asked
        for once, in name order, the faulty one too, and only the queries
        holding it fail."""
        asked = []

        class Faulty(LexiconTagger):
            def tag(self, word):
                asked.append(word)
                if word == "walrus":
                    raise TaggerUnavailableError("cannot tag walrus")
                return super().tag(word)

        faulty = (0, 11, 23)
        window = [[(f"c{q}", tuple(f"{c}{'abcdefghijklmnopqrstuvwx'[q]}zebra"
                                   for c in "klmnopqrst")),
                   (f"d{q}", ("walrus", "dog") if q in faulty else ("dog",))]
                  for q in range(24)]
        config = FilterConfig(min_count=1)
        slots = window_slots(window, Faulty(), config)
        assert asked == sorted({tok for pairs in window for _, toks in pairs
                                for tok in toks})
        for q, (pairs, slot) in enumerate(zip(window, slots)):
            if q in faulty:
                assert (type(slot), str(slot)) == (TaggerUnavailableError,
                                                   "cannot tag walrus")
            else:
                alone = select_candidates(pairs, tagger, config)
                assert (slot.entries, slot.fallback) == (alone.entries, alone.fallback)
                assert len(slot.entries) == 11

    def test_window_memory_does_not_scale_with_queries_times_vocabulary(self, tagger):
        """1,000 queries of 20 tokens each that no other query has: a dense
        (query, token) count over the window would hold 20 million counts."""
        window = [[tuple(f"walrus{q:03d}{c}" for c in "abcdefghijklmnopqrst")]
                  for q in range(1000)]
        words = {token for (captions,) in window for token in captions}
        dense = 1000 * len(words) * np.dtype(np.intp).itemsize
        tracemalloc.start()
        try:
            slots = select_window(window, tagger, FilterConfig(min_count=1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(words) == 20_000
        assert all(len(slot.entries) == 20 for slot in slots)
        assert peak < dense / 4
