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

    @pytest.mark.parametrize("fmt", ["jsonl", "plain"])
    def test_byte_order_mark_is_not_part_of_the_first_line(self, tmp_path, fmt):
        lines = ([json.dumps({"id": "a", "text": "a dog"}),
                  json.dumps({"id": "b", "text": "a cat"})] if fmt == "jsonl"
                 else ["a dog", "a cat"])
        plain, marked = tmp_path / "plain", tmp_path / "marked"
        plain.write_text("\n".join(lines) + "\n", encoding="utf-8")
        marked.write_text("\n".join(lines) + "\n", encoding="utf-8-sig")
        records = ingest_corpus(marked, fmt=fmt, strict=True)
        assert records == ingest_corpus(plain, fmt=fmt, strict=True)
        assert records[0].text == "a dog"

    def test_unknown_format_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text("")
        with pytest.raises(EmptyInputError):
            ingest_corpus(path, fmt="xml")

    @pytest.mark.parametrize("value", ["no", 1, None])
    def test_strict_must_be_a_bool(self, tmp_path, value):
        path = tmp_path / "c.jsonl"
        path.write_text(json.dumps({"id": "a", "text": "fine"}) + "\n")
        with pytest.raises(EmptyInputError, match="strict"):
            ingest_corpus(path, strict=value)

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

    @pytest.mark.parametrize("value", [["x"], 5, None, {}])
    @pytest.mark.parametrize("key", ["name", "embedder"])
    def test_name_or_embedder_that_is_not_a_string(self, tmp_path, key, value):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({**manifest_doc(), key: value}))
        with pytest.raises(SchemaError, match=f"manifest '{key}' must be a string"):
            load_manifest(path)

    @pytest.mark.parametrize("key", ["name", "embedder"])
    def test_absent_name_or_embedder_is_empty(self, tmp_path, key):
        doc = manifest_doc()
        del doc[key]
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        manifest = load_manifest(path)
        assert {"name": manifest.name,
                "embedder": manifest.embedder_identity}[key] == ""


class TestLineEndings:
    """Every text reader splits lines as text-mode iteration does: at
    ``\\n``, ``\\r\\n`` and ``\\r`` only, numbering blank lines too."""

    CORPUS = [json.dumps({"id": "a", "text": "a dog"}),
              json.dumps({"id": "b", "text": "a cat", "source": "web"})]
    QUERIES = [json.dumps({"id": "q1", "image_ref": "img/1"}),
               json.dumps({"id": "q2", "embedding": [0.5, 1]})]
    TRUTHS = [json.dumps({"id": "q1", "label": "dog"}), "q2\tcat"]

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
    def test_each_line_ending_reads_the_same_records(self, tmp_path, end):
        from vfclass.cli import _read_queries
        from vfclass.evaluation import load_truths

        def write(name, lines):
            path = tmp_path / name
            path.write_bytes((end.join(lines) + end).encode("utf-8"))
            return path

        records = ingest_corpus(write("c.jsonl", self.CORPUS))
        assert [(r.id, r.text, r.source) for r in records] == [
            ("a", "a dog", ""), ("b", "a cat", "web")]
        plain = ingest_corpus(write("c.txt", ["a dog", "a cat"]), fmt="plain")
        assert [(r.id, r.text) for r in plain] == [
            ("line-1", "a dog"), ("line-2", "a cat")]
        assert _read_queries(write("q.jsonl", self.QUERIES)) == [
            ("q1", "img/1"), ("q2", [0.5, 1])]
        assert load_truths(write("t.txt", self.TRUTHS)) == {"q1": "dog", "q2": "cat"}

    def test_unicode_line_separators_stay_inside_a_record(self, tmp_path):
        text = "a dog\u2028on a mat\x85today"
        path = tmp_path / "c.jsonl"
        path.write_text(json.dumps({"id": "u", "text": text},
                                   ensure_ascii=False) + "\n", encoding="utf-8")
        assert "\u2028" in path.read_text(encoding="utf-8")
        [record] = ingest_corpus(path)
        assert record.text == text
        plain = tmp_path / "c.txt"
        plain.write_text(f"{text}\x0cand\x1cmore\n", encoding="utf-8")
        assert [r.id for r in ingest_corpus(plain, fmt="plain")] == ["line-1"]

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
    def test_line_numbers_count_blank_lines(self, tmp_path, end):
        path = tmp_path / "c.jsonl"
        path.write_bytes(end.join(["", self.CORPUS[0], "  ", "{bad json", ""])
                         .encode("utf-8"))
        with pytest.raises(SchemaError, match="corpus line 4: invalid JSON"):
            ingest_corpus(path, strict=True)
        plain = tmp_path / "c.txt"
        plain.write_bytes(end.join(["", "a dog", "", "", "a cat"]).encode("utf-8"))
        assert [r.id for r in ingest_corpus(plain, fmt="plain")] == [
            "line-2", "line-5"]


class TestUndecodableLines:
    def test_bad_line_skipped_and_the_rest_kept(self, tmp_path, caplog):
        path = tmp_path / "c.jsonl"
        path.write_bytes(b'{"id": "a", "text": "a dog"}\n\n'
                         b'{"id": "b", "text": "caf\xe9"}\n'
                         b'{"id": "c", "text": "na\xc3\xafve"}\n')
        with caplog.at_level("WARNING"):
            records = ingest_corpus(path)
        assert [(r.id, r.text) for r in records] == [("a", "a dog"), ("c", "naïve")]
        assert caplog.messages == ["skipping corpus line 3: not valid UTF-8"]
        with pytest.raises(SchemaError, match="corpus line 3: not valid UTF-8"):
            ingest_corpus(path, strict=True)

    def test_encoded_surrogate_is_not_utf8(self, tmp_path):
        # CESU-style bytes for U+D800 decode nowhere in strict UTF-8
        path = tmp_path / "c.txt"
        path.write_bytes(b"a dog\n\xed\xa0\x80 cat\n")
        with pytest.raises(SchemaError, match="corpus line 2"):
            ingest_corpus(path, fmt="plain", strict=True)

    @pytest.mark.parametrize("line", [
        '{"id": "a", "text": "t", "n": ' + "1" * 5000 + "}",
        '{"id": "a", "text": "t", "n": ' + "[" * 100_000,
    ], ids=["5000-digit-int", "deep-nesting"])
    def test_json_the_decoder_cannot_take_is_a_schema_error(self, tmp_path, line):
        path = tmp_path / "c.jsonl"
        path.write_text(json.dumps({"id": "b", "text": "ok"}) + "\n" + line + "\n")
        with pytest.raises(SchemaError, match="corpus line 2: invalid JSON"):
            ingest_corpus(path, strict=True)
        assert [r.id for r in ingest_corpus(path)] == ["b"]

    def test_manifest_line_that_is_not_utf8(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(manifest_doc(), indent=2) + "\n")
        lines = path.read_bytes().splitlines(keepends=True)
        at = next(i for i, line in enumerate(lines) if b'"q2"' in line)
        lines[at] = lines[at].replace(b"q2", b"q\xe92")
        path.write_bytes(b"".join(lines))
        with pytest.raises(SchemaError,
                           match=f"manifest line {at + 1}: not valid UTF-8"):
            load_manifest(path)

    def test_manifest_json_error_keeps_the_file_line_number(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"name": "x",\n\n\n  "entries": [}\n')
        with pytest.raises(SchemaError, match=r"manifest line 1: invalid JSON "
                                              r"\(Expecting value: line 4"):
            load_manifest(path)

    def test_manifest_long_int_is_named_at_its_own_line(self, tmp_path):
        # the digits of a string and of a fraction come first and are not it
        path = tmp_path / "m.json"
        path.write_text("\n".join([
            "", "", "{", f'  "note": "{"9" * 5000}",', f'  "ratio": 0.{"5" * 5000},',
            f'  "n": -{"1" * 5000},', '  "entries": []', "}", ""]))
        with pytest.raises(SchemaError, match=r"manifest line 6: invalid JSON "
                                              r"\(Exceeds the limit"):
            load_manifest(path)

    @pytest.mark.parametrize("line", [
        r'{"id": "a\ud800", "text": "a spotted dog"}',
        r'{"id": "a", "text": "a spotted dog", "x\udfff": 1}',
        r'{"id": "a", "text": "a spotted dog", "tags": [["ok", "\ude00\ud83d"]]}',
    ], ids=["value", "key", "nested-reversed-pair"])
    def test_lone_surrogate_escape_is_a_schema_error(self, tmp_path, line):
        path = tmp_path / "c.jsonl"
        path.write_text(json.dumps({"id": "b", "text": "ok"}) + "\n" + line + "\n")
        with pytest.raises(SchemaError, match="corpus line 2: a \\\\u escape "
                                              "decodes to a lone surrogate"):
            ingest_corpus(path, strict=True)
        assert [r.id for r in ingest_corpus(path)] == ["b"]

    def test_surrogate_pair_and_escaped_backslash_are_kept(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(r'{"id": "a\ud83d\ude00", "text": "not \\ud800 but text"}'
                        + "\n")
        [rec] = ingest_corpus(path, strict=True)
        assert (rec.id, rec.text) == ("a\U0001f600", "not \\ud800 but text")
        out = tmp_path / "out.jsonl"
        write_corpus([rec], out)
        assert ingest_corpus(out, strict=True) == [rec]

    def test_manifest_lone_surrogate_is_named_at_its_own_line(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(manifest_doc(), indent=2).replace(
            '"q2"', '"q\\udc802"') + "\n")
        lines = path.read_text().splitlines()
        at = next(i for i, line in enumerate(lines) if "udc80" in line)
        with pytest.raises(SchemaError, match=f"manifest line {at + 1}: a "):
            load_manifest(path)
