"""Corpus files, manifests, and corpus statistics."""

import json

import pytest

from vfclass.candidates import LexiconTagger
from vfclass.embedding import PrecomputedStore
from vfclass.errors import EmptyInputError, SchemaError
from vfclass.ingestion import (
    canonical_jsonl,
    corpus_stats,
    ingest_corpus,
    load_manifest,
    save_manifest,
    validate_manifest,
    write_corpus,
)


@pytest.fixture(scope="module")
def tagger():
    return LexiconTagger()


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestIngestCorpus:
    def test_three_line_jsonl(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_lines(path, [
            json.dumps({"id": "a", "text": "a dog", "source": "web"}),
            json.dumps({"id": "b", "text": "a cat", "source": "web"}),
            json.dumps({"id": "c", "text": "a bird", "source": "web"}),
        ])
        records = ingest_corpus(path)
        assert [r.id for r in records] == ["a", "b", "c"]
        assert records[0].text == "a dog"

    def test_plain_format_assigns_line_ids(self, tmp_path):
        path = tmp_path / "c.txt"
        write_lines(path, ["first caption", "second caption"])
        records = ingest_corpus(path, fmt="plain")
        assert [r.id for r in records] == ["line-1", "line-2"]

    def test_malformed_line_skipped_by_default(self, tmp_path, caplog):
        path = tmp_path / "c.jsonl"
        write_lines(path, [
            json.dumps({"id": "a", "text": "fine"}),
            "{not json",
            json.dumps({"id": "b", "text": "also fine"}),
        ])
        with caplog.at_level("WARNING"):
            records = ingest_corpus(path)
        assert [r.id for r in records] == ["a", "b"]
        assert any("line 2" in message for message in caplog.messages)

    def test_strict_mode_raises_with_line_number(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_lines(path, [
            json.dumps({"id": "a", "text": "fine"}),
            json.dumps({"id": "b", "text": "   "}),
        ])
        with pytest.raises(SchemaError, match="line 2"):
            ingest_corpus(path, strict=True)

    def test_unknown_format_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text("")
        with pytest.raises(EmptyInputError):
            ingest_corpus(path, fmt="xml")

    def test_canonical_roundtrip_byte_exact(self, tmp_path):
        path = tmp_path / "c.jsonl"
        records = [
            json.dumps({"id": "a", "text": "a dog", "source": "web"},
                       ensure_ascii=False),
            json.dumps({"id": "b", "text": "naïve café", "source": ""},
                        ensure_ascii=False),
        ]
        write_lines(path, records)
        loaded = ingest_corpus(path)
        assert canonical_jsonl(loaded) == path.read_text(encoding="utf-8")

    def test_write_then_ingest_is_lossless(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_lines(path, [
            json.dumps({"id": "x", "text": "some caption", "source": "s"}),
        ])
        records = ingest_corpus(path)
        out = tmp_path / "out.jsonl"
        write_corpus(records, out)
        assert ingest_corpus(out) == records


class TestCorpusStats:
    def test_all_noun_caption(self, tagger):
        from vfclass.index import CaptionRecord

        stats = corpus_stats([CaptionRecord("a", "dog dog cat")], tagger)
        assert stats.caption_count == 1
        assert stats.token_count == 3
        assert stats.unique_word_count == 2
        assert stats.pos_percentages["noun"] == 100.0
        assert sum(stats.pos_percentages.values()) == pytest.approx(100.0, abs=0.1)

    def test_all_tokens_filtered_gives_zero_stats(self, tagger):
        from vfclass.index import CaptionRecord

        stats = corpus_stats([CaptionRecord("a", "of the an")], tagger)
        assert stats.token_count == 0
        assert stats.unique_word_count == 0
        assert all(v == 0.0 for v in stats.pos_percentages.values())

    def test_permutation_invariant(self, tagger):
        from vfclass.index import CaptionRecord

        records = [
            CaptionRecord("a", "a spotted dog running"),
            CaptionRecord("b", "blue sky over the park"),
            CaptionRecord("c", "dogs and cats"),
        ]
        forward = corpus_stats(records, tagger)
        backward = corpus_stats(list(reversed(records)), tagger)
        assert forward.pos_percentages == backward.pos_percentages
        assert forward.unique_word_count == backward.unique_word_count

    def test_known_composition(self, tagger):
        from vfclass.index import CaptionRecord

        # survivors: dog(noun) dog(noun) blue(adj) running(verb)
        records = [CaptionRecord("a", "dog dog blue running")]
        stats = corpus_stats(records, tagger)
        assert stats.token_count == 4
        assert stats.pos_percentages["noun"] == 50.0
        assert stats.pos_percentages["adjective"] == 25.0
        assert stats.pos_percentages["verb"] == 25.0

    def test_empty_corpus_rejected(self, tagger):
        with pytest.raises(EmptyInputError):
            corpus_stats([], tagger)

    def test_each_distinct_token_tagged_once(self):
        from vfclass.index import CaptionRecord

        calls = []

        class CountingTagger(LexiconTagger):
            def tag(self, word):
                calls.append(word)
                return super().tag(word)

        records = [CaptionRecord("a", "dog dog blue"), CaptionRecord("b", "dog blue")]
        stats = corpus_stats(records, CountingTagger())
        assert sorted(calls) == ["blue", "dog"]
        assert stats.token_count == 5
        assert stats.pos_percentages["noun"] == 60.0


def manifest_doc():
    return {
        "name": "tiny",
        "embedder": "test-store",
        "entries": [
            {"id": "q1", "image_ref": "img/1", "label": "dog"},
            {"id": "q2", "image_ref": "img/2", "label": "cat"},
            {"id": "q3", "embedding_ref": "emb/3", "label": "bird"},
            {"id": "q4", "image_ref": "img/4", "label": "fish"},
            {"id": "q5", "image_ref": "img/5", "label": "owl"},
        ],
    }


class TestManifest:
    def test_valid_manifest_loads(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(manifest_doc()))
        manifest = load_manifest(path)
        assert manifest.name == "tiny"
        assert len(manifest.entries) == 5
        assert manifest.entries[2].ref_kind == "embedding_ref"

    def test_validation_lists_dangling_refs(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(manifest_doc()))
        manifest = load_manifest(path)
        store = PrecomputedStore(2)
        for ref in ("img/1", "img/2", "emb/3", "img/5"):
            store.add(ref, [1.0, 0.0])
        assert validate_manifest(manifest, store) == ["q4"]

    def test_validation_empty_when_complete(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(manifest_doc()))
        manifest = load_manifest(path)
        store = PrecomputedStore(2)
        for entry in manifest.entries:
            store.add(entry.ref, [1.0, 0.0])
        assert validate_manifest(manifest, store) == []

    def test_duplicate_ids_rejected(self, tmp_path):
        doc = manifest_doc()
        doc["entries"][1]["id"] = "q1"
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError):
            load_manifest(path)

    def test_missing_ref_rejected(self, tmp_path):
        doc = manifest_doc()
        del doc["entries"][0]["image_ref"]
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError):
            load_manifest(path)

    def test_save_load_roundtrip(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(manifest_doc()))
        manifest = load_manifest(path)
        out = tmp_path / "m2.json"
        save_manifest(manifest, out)
        assert load_manifest(out) == manifest
