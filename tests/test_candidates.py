"""Candidate extraction: noise removal, standardization, filtering."""

import pytest

from vfclass.candidates import (
    FilterConfig,
    LexiconTagger,
    caption_tokens,
    default_meta_words,
    default_stop_words,
    PosTags,
    extract_candidates,
    pos_tag,
    remove_noise,
    select_candidates,
    singularize,
    standardize,
    token_settings,
)
from vfclass.errors import EmptyCandidateSetError, EmptyInputError
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

    def test_adjective(self, tagger):
        assert pos_tag("blue", tagger) == "adjective"

    def test_suffix_verb(self, tagger):
        assert pos_tag("running", tagger) == "verb"

    def test_pronoun(self, tagger):
        assert pos_tag("they", tagger) == "pronoun"

    def test_empty_word_rejected(self, tagger):
        with pytest.raises(EmptyInputError):
            pos_tag("", tagger)


def select(tokens, tagger, config=None):
    """Stage 3 over one caption's ``tokens``."""
    return select_candidates([("c1", tokens)], PosTags(tagger),
                             config or FilterConfig())


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
