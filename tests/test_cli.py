"""CLI subcommands end to end on small synthetic fixtures."""

import csv
import dataclasses
import errno
import inspect
import io
import json
import os
import re
import socket
import stat
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import vfclass
from vfclass import cli
from vfclass.benchmark import make_benchmark, make_noisy_benchmark
from vfclass.candidates import FilterConfig, LexiconTagger
from vfclass.cli import run
from vfclass.embedding import RemoteEmbeddingClient, load_store, save_store
from vfclass.errors import EmptyInputError
from vfclass.ingestion import canonical_jsonl, ingest_corpus, save_manifest, write_corpus
from vfclass.index import (
    CaptionIndex,
    CaptionRecord,
    build_index,
    load_index,
    save_index,
)
from vfclass.scoring import ClassifierConfig, classify_batch
from vfclass.stubserver import make_server, running_stub


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    """Small benchmark with everything serialized to disk."""
    root = tmp_path_factory.mktemp("cli-world")
    bench = make_benchmark(
        num_classes=4, captions_per_class=40, num_queries=24, dim=16, seed=11
    )
    corpus = root / "corpus.jsonl"
    write_corpus(bench.records, corpus)
    store_path = root / "vectors.vfce"
    save_store(bench.store, store_path)
    queries = root / "queries.jsonl"
    with open(queries, "w") as fh:
        for qid, ref in bench.queries:
            fh.write(json.dumps({"id": qid, "image_ref": ref}) + "\n")
    truths = root / "truths.jsonl"
    with open(truths, "w") as fh:
        for qid, label in bench.truths.items():
            fh.write(json.dumps({"id": qid, "label": label}) + "\n")
    manifest = root / "manifest.json"
    save_manifest(bench.manifest("cli-world"), manifest)
    return {
        "root": root,
        "bench": bench,
        "corpus": corpus,
        "store": store_path,
        "queries": queries,
        "truths": truths,
        "manifest": manifest,
    }


@pytest.fixture(scope="module")
def built_index(world):
    out = world["root"] / "index.vfci"
    code = run([
        "build-index", "--corpus", str(world["corpus"]),
        "--embeddings", str(world["store"]), "--out", str(out),
    ])
    assert code == 0
    return out


class TestPackage:
    def test_every_exported_name_resolves(self):
        # a name left in __all__ after its function is gone breaks
        # ``from vfclass import *``
        assert [name for name in vfclass.__all__ if not hasattr(vfclass, name)] == []


class TestExitCodes:
    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            run(["classify", "--no-such-flag"])
        assert excinfo.value.code == 2

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            run(["frobnicate"])
        assert excinfo.value.code == 2

    def test_runtime_error_exits_1_with_json(self, tmp_path, capsys):
        code = run(["build-index", "--corpus", str(tmp_path / "missing.jsonl"),
                    "--embeddings", str(tmp_path / "missing.vfce"),
                    "--out", str(tmp_path / "x.vfci")])
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "io-failure"

    def test_provider_required_for_build(self, world, tmp_path, capsys):
        code = run(["build-index", "--corpus", str(world["corpus"]),
                    "--out", str(tmp_path / "x.vfci")])
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "provider-unavailable"


class TestIngestAndStats:
    def test_ingest_emits_canonical_jsonl(self, world, tmp_path):
        out = tmp_path / "canon.jsonl"
        assert run(["ingest", "--corpus", str(world["corpus"]),
                    "--out", str(out)]) == 0
        assert out.read_text() == world["corpus"].read_text()

    def test_stats_reports_pos_distribution(self, world, tmp_path):
        out = tmp_path / "stats.json"
        assert run(["stats", "--corpus", str(world["corpus"]),
                    "--out", str(out)]) == 0
        stats = json.loads(out.read_text())
        assert stats["caption_count"] == 160
        assert sum(stats["pos_percentages"].values()) == pytest.approx(100.0, abs=0.1)
        assert stats["pos_percentages"]["noun"] > 0

    def test_stats_respects_custom_stop_words(self, world, tmp_path):
        from vfclass.candidates import default_stop_words

        base_out = tmp_path / "base.json"
        assert run(["stats", "--corpus", str(world["corpus"]),
                    "--out", str(base_out)]) == 0
        base = json.loads(base_out.read_text())
        # the custom list replaces the default, so extend it with the class
        # words; every class mention must then disappear from the counts
        stop = tmp_path / "stop.txt"
        words = sorted(default_stop_words() | {"airplane", "bicycle",
                                               "cassowary", "dolphin"})
        stop.write_text("\n".join(words) + "\n")
        custom_out = tmp_path / "custom.json"
        assert run(["stats", "--corpus", str(world["corpus"]),
                    "--stop-words", str(stop), "--out", str(custom_out)]) == 0
        custom = json.loads(custom_out.read_text())
        assert custom["token_count"] < base["token_count"]


class TestBuildIndex:
    def test_index_file_created_and_loadable(self, built_index):
        index = load_index(built_index)
        assert len(index) == 160
        assert index.structure == "flat"

    def test_partitioned_build(self, world, tmp_path):
        out = tmp_path / "part.vfci"
        code = run(["build-index", "--corpus", str(world["corpus"]),
                    "--embeddings", str(world["store"]),
                    "--structure", "partitioned", "--partitions", "8",
                    "--out", str(out)])
        assert code == 0
        assert load_index(out).num_partitions == 8

    @pytest.mark.parametrize("env_seed", [None, "0"])
    def test_unset_options_take_the_library_defaults(self, world, tmp_path,
                                                     monkeypatch, env_seed):
        if env_seed is not None:
            monkeypatch.setenv("VFC_SEED", env_seed)
        out = tmp_path / "part.vfci"
        assert run(["build-index", "--corpus", str(world["corpus"]),
                    "--embeddings", str(world["store"]),
                    "--structure", "partitioned", "--out", str(out)]) == 0
        seed = {} if env_seed is None else {"seed": int(env_seed)}
        library = tmp_path / "library.vfci"
        save_index(build_index(ingest_corpus(world["corpus"]),
                               load_store(world["store"]),
                               structure="partitioned", **seed), library)
        assert out.read_bytes() == library.read_bytes()


class TestClassifyEvaluate:
    def test_classify_writes_predictions(self, world, built_index, tmp_path):
        out = tmp_path / "preds.jsonl"
        code = run(["classify", "--index", str(built_index),
                    "--queries", str(world["queries"]),
                    "--embeddings", str(world["store"]),
                    "--out", str(out)])
        assert code == 0
        lines = [json.loads(l) for l in out.read_text().splitlines()]
        assert len(lines) == 24
        first = lines[0]
        assert {"id", "label", "fallback", "ranked", "retrieved"} <= set(first)
        assert first["ranked"][0]["candidate"] == first["label"]
        assert {"visual", "textual", "fused"} <= set(first["ranked"][0])

    def test_classify_accepts_inline_embeddings(self, world, built_index, tmp_path):
        bench = world["bench"]
        queries = tmp_path / "inline.jsonl"
        with open(queries, "w") as fh:
            for qid, ref in bench.queries[:5]:
                vec = bench.store.vector(ref).tolist()
                fh.write(json.dumps({"id": qid, "embedding": vec}) + "\n")
        out = tmp_path / "preds.jsonl"
        code = run(["classify", "--index", str(built_index),
                    "--queries", str(queries),
                    "--embeddings", str(world["store"]), "--out", str(out)])
        assert code == 0
        assert len(out.read_text().splitlines()) == 5

    def test_classify_is_reproducible(self, world, built_index, tmp_path):
        outs = []
        for name in ("a.jsonl", "b.jsonl"):
            out = tmp_path / name
            assert run(["classify", "--index", str(built_index),
                        "--queries", str(world["queries"]),
                        "--embeddings", str(world["store"]),
                        "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_unknown_ref_fails_only_its_line(self, world, built_index, tmp_path):
        lines = world["queries"].read_text().splitlines()
        bad = json.dumps({"id": "bad", "image_ref": "img/unknown"})
        faulty = tmp_path / "faulty.jsonl"
        faulty.write_text("\n".join(lines[:10] + [bad] + lines[10:]) + "\n")
        outs = []
        for queries in (world["queries"], faulty):
            out = tmp_path / "preds.jsonl"
            assert run(["classify", "--index", str(built_index),
                        "--queries", str(queries),
                        "--embeddings", str(world["store"]),
                        "--out", str(out)]) == 0
            outs.append(out.read_bytes().splitlines(keepends=True))
        clean, mixed = outs
        error = json.loads(mixed.pop(10))
        assert set(error) == {"id", "error", "message"}
        assert (error["id"], error["error"]) == ("bad", "unknown-image-ref")
        assert mixed == clean

    def test_evaluate_report(self, world, built_index, tmp_path):
        preds = tmp_path / "preds.jsonl"
        assert run(["classify", "--index", str(built_index),
                    "--queries", str(world["queries"]),
                    "--embeddings", str(world["store"]),
                    "--out", str(preds)]) == 0
        report_path = tmp_path / "report.json"
        csv_path = tmp_path / "report.csv"
        code = run(["evaluate", "--predictions", str(preds),
                    "--truths", str(world["truths"]),
                    "--out", str(report_path), "--csv", str(csv_path)])
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["cluster_accuracy"] >= 0.9
        assert report["sample_count"] == 24
        rows = list(csv.reader(io.StringIO(csv_path.read_text())))
        assert rows[0][0] == "scope"
        assert rows[1][0] == "overall"


class TestConfigPrecedence:
    def test_env_overrides_file_flag_overrides_env(self, world, built_index,
                                                   tmp_path, monkeypatch):
        conf = tmp_path / "vfc.conf"
        conf.write_text("alpha=0.2\n")

        def alpha_of(args):
            out = tmp_path / "out.jsonl"
            assert run(args + ["--out", str(out)]) == 0
            return out

        base = ["--config", str(conf), "classify",
                "--index", str(built_index),
                "--queries", str(world["queries"]),
                "--embeddings", str(world["store"])]

        file_only = alpha_of(list(base)).read_bytes()
        monkeypatch.setenv("VFC_ALPHA", "0.9")
        env_over_file = alpha_of(list(base)).read_bytes()
        flag_over_env = alpha_of(list(base) + ["--alpha", "0.2"]).read_bytes()
        monkeypatch.delenv("VFC_ALPHA")
        flag_only = alpha_of(list(base) + ["--alpha", "0.9"]).read_bytes()

        assert env_over_file == flag_only  # env 0.9 == flag 0.9
        assert flag_over_env == file_only  # flag 0.2 == file 0.2
        assert file_only != flag_only      # alpha changes fused scores

    def test_unset_options_take_the_library_defaults(self, world, built_index,
                                                     tmp_path):
        out = tmp_path / "preds.jsonl"
        assert run(["classify", "--index", str(built_index),
                    "--queries", str(world["queries"]),
                    "--embeddings", str(world["store"]), "--out", str(out)]) == 0
        bench = world["bench"]
        items = classify_batch(bench.queries, load_index(built_index), bench.store,
                               LexiconTagger(), ClassifierConfig())
        assert out.read_text() == "".join(
            json.dumps(cli._prediction_json(item), ensure_ascii=False) + "\n"
            for item in items)
        args = cli.build_parser().parse_args(
            ["classify", "--index", "i", "--queries", "q", "--embed-url", "u"])
        assert cli._provider(args).timeout == RemoteEmbeddingClient("u").timeout


def handed_over(text, convert):
    """The value a flag's text reaches the library's check as: converted by
    ``convert``, or the text itself if it does not convert."""
    try:
        return convert(text)
    except ValueError:
        return text


def assert_json_error(code, capsys, expected):
    """Exit 1 with one JSON error object on stderr and no traceback."""
    assert code == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert json.loads(err.strip())["error"] == expected


class TestMalformedInput:
    def classify(self, world, built_index, queries):
        return run(["classify", "--index", str(built_index),
                    "--queries", str(queries),
                    "--embeddings", str(world["store"])])

    def test_queries_line_with_bad_json(self, world, built_index, tmp_path,
                                        capsys):
        queries = tmp_path / "queries.jsonl"
        queries.write_text('{"id": "q1", "image_ref": "x"}\n{bad json\n')
        code = self.classify(world, built_index, queries)
        assert_json_error(code, capsys, "schema-violation")

    @pytest.mark.parametrize("query", [
        {"id": "q1", "embedding": "abc"},
        {"id": "q1", "embedding": [0.5, True]},
        {"id": "q1", "image_ref": 5},
    ])
    def test_query_field_of_the_wrong_type(self, world, built_index, tmp_path,
                                           capsys, query):
        queries = tmp_path / "queries.jsonl"
        queries.write_text(json.dumps(query) + "\n")
        code = self.classify(world, built_index, queries)
        assert_json_error(code, capsys, "schema-violation")

    def test_predictions_line_that_is_not_an_object(self, world, tmp_path,
                                                    capsys):
        preds = tmp_path / "preds.jsonl"
        preds.write_text('{"id": "q1", "label": "dog"}\n5\n')
        code = run(["evaluate", "--predictions", str(preds),
                    "--truths", str(world["truths"])])
        assert_json_error(code, capsys, "schema-violation")

    def test_probes_flag_is_a_usage_error(self, world, built_index, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run(["classify", "--index", str(built_index),
                 "--queries", str(world["queries"]),
                 "--embeddings", str(world["store"]), "--probes", "x"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "argument --probes" in err
        assert "Traceback" not in err

    def test_threads_flag_is_gone(self, world, built_index, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run(["classify", "--index", str(built_index),
                 "--queries", str(world["queries"]),
                 "--embeddings", str(world["store"]), "--threads", "2"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --threads" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-5", "x"])
    def test_partitions_below_one_is_a_usage_error(self, world, tmp_path,
                                                   capsys, value):
        out = tmp_path / "part.vfci"
        with pytest.raises(SystemExit) as excinfo:
            run(["build-index", "--corpus", str(world["corpus"]),
                 "--embeddings", str(world["store"]),
                 "--structure", "partitioned", "--partitions", value,
                 "--out", str(out)])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "argument --partitions" in err
        assert "Traceback" not in err
        assert not out.exists()

    @staticmethod
    def seeded(world, tmp_path, command):
        """Arguments of a seeded ``command`` that writes ``tmp_path/out``."""
        if command == "build-index":
            return ["build-index", "--corpus", str(world["corpus"]),
                    "--embeddings", str(world["store"]),
                    "--structure", "partitioned", "--out", str(tmp_path / "out")]
        return ["ablate", "--sweep", "alpha", "--values", "0.5",
                "--num-queries", "10", "--out", str(tmp_path / "out")]

    @pytest.mark.parametrize("value", ["-1", "1.5", "x"])
    @pytest.mark.parametrize("command", ["build-index", "ablate"])
    def test_bad_seed_flag_is_a_usage_error(self, world, tmp_path, capsys,
                                            command, value):
        with pytest.raises(SystemExit) as excinfo:
            run(self.seeded(world, tmp_path, command) + ["--seed", value])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        shown = repr(handed_over(value, int))
        assert f"argument --seed: seed must be an integer >= 0, got {shown}\n" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", ["-2", "1.5", "true"])
    @pytest.mark.parametrize("source", ["env", "config"])
    @pytest.mark.parametrize("command", ["build-index", "ablate"])
    def test_bad_seed_setting_exits_1(self, world, tmp_path, monkeypatch,
                                      capsys, command, source, value):
        conf = tmp_path / "vfc.conf"
        conf.write_text(f"seed={value}\n" if source == "config" else "")
        if source == "env":
            monkeypatch.setenv("VFC_SEED", value)
        code = run(["--config", str(conf)] + self.seeded(world, tmp_path, command))
        assert_json_error(code, capsys, "empty-input")
        assert not (tmp_path / "out").exists()

    def test_null_prediction_label_exits_1(self, world, tmp_path, capsys):
        preds = tmp_path / "preds.jsonl"
        # both ids have truths, so only the null label is at fault
        preds.write_text('{"id": "query-0000", "label": null}\n'
                         '{"id": "query-0001", "label": "bicycle"}\n')
        code = run(["evaluate", "--predictions", str(preds),
                    "--truths", str(world["truths"])])
        assert_json_error(code, capsys, "schema-violation")

    @pytest.mark.parametrize("qid", [None, 7])
    def test_query_id_that_is_not_a_string(self, world, built_index, tmp_path,
                                           capsys, qid):
        ref = world["bench"].queries[0][1]
        queries = tmp_path / "queries.jsonl"
        queries.write_text(json.dumps({"id": qid, "image_ref": ref}) + "\n")
        code = self.classify(world, built_index, queries)
        assert code == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert json.loads(err)["error"] == "schema-violation"
        assert "queries line 1: 'id' must be a string" in err

    @pytest.mark.parametrize("qid", [None, 7])
    def test_prediction_id_that_is_not_a_string(self, world, tmp_path, capsys,
                                                qid):
        preds = tmp_path / "preds.jsonl"
        preds.write_text(json.dumps({"id": qid, "label": "bicycle"}) + "\n")
        code = run(["evaluate", "--predictions", str(preds),
                    "--truths", str(world["truths"])])
        assert code == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert json.loads(err)["error"] == "schema-violation"
        assert "predictions line 1: 'id' must be a string" in err

    def test_query_without_id_is_named_by_line(self, world, built_index,
                                               tmp_path):
        ref = world["bench"].queries[0][1]
        queries = tmp_path / "queries.jsonl"
        queries.write_text(json.dumps({"image_ref": ref}) + "\n")
        out = tmp_path / "preds.jsonl"
        code = run(["classify", "--index", str(built_index),
                    "--queries", str(queries),
                    "--embeddings", str(world["store"]), "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["id"] == "line-1"

    @pytest.mark.parametrize("ids,members", [
        (["a", "b", "c"], [[0, 1], [7]]),  # a member past the last row
        (["b", "a", "c"], None),  # ids out of row order
    ])
    def test_malformed_index_file_exits_1(self, world, tmp_path, capsys, ids,
                                          members):
        index = CaptionIndex(
            dim=16, records=[CaptionRecord(rid, f"a {rid}") for rid in ids],
            vectors=np.eye(16, dtype=np.float32)[:3],
        )
        if members:
            index = dataclasses.replace(
                index, structure="partitioned", centroids=np.eye(16)[:2],
                partitions=[np.array(m) for m in members],
            )
        path = tmp_path / "bad.vfci"
        save_index(index, path)
        queries = tmp_path / "queries.jsonl"
        queries.write_text(json.dumps({"id": "q1", "embedding": [1.0] * 16}) + "\n")
        code = run(["classify", "--index", str(path), "--queries", str(queries),
                    "--probes", "all", "--embeddings", str(world["store"])])
        assert_json_error(code, capsys, "corrupt-file")

    def test_probes_from_env_exits_1(self, world, built_index, monkeypatch,
                                     capsys):
        monkeypatch.setenv("VFC_PROBES", "x")
        code = self.classify(world, built_index, world["queries"])
        assert_json_error(code, capsys, "empty-input")

    def test_probes_from_config_file_exits_1(self, world, built_index,
                                             tmp_path, capsys):
        conf = tmp_path / "vfc.conf"
        conf.write_text("probes=0\n")
        code = run(["--config", str(conf), "classify",
                    "--index", str(built_index),
                    "--queries", str(world["queries"]),
                    "--embeddings", str(world["store"])])
        assert_json_error(code, capsys, "empty-input")

    @pytest.mark.parametrize("flag,value", [
        ("--embed-timeout", "0"), ("--embed-timeout", "-1"),
        ("--embed-timeout", "nan"), ("--embed-timeout", "inf"),
        ("--embed-timeout", "x"), ("--k", "0"), ("--k", "2.5"),
        ("--alpha", "2"), ("--alpha", "-0.1"), ("--alpha", "nan"),
        ("--alpha", "inf"), ("--alpha", "x"),
    ])
    def test_bad_count_or_timeout_flag_is_a_usage_error(self, world, built_index, capsys,
                                             flag, value):
        with pytest.raises(SystemExit) as excinfo:
            run(["classify", "--index", str(built_index),
                 "--queries", str(world["queries"]),
                 "--embed-url", "http://127.0.0.1:1/", flag, value])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("value", ["0", "1", "0.25"])
    def test_alpha_flag_range_is_closed(self, world, built_index, tmp_path,
                                        value):
        assert run(["classify", "--index", str(built_index),
                    "--queries", str(world["queries"]),
                    "--embeddings", str(world["store"]), "--alpha", value,
                    "--out", str(tmp_path / "preds.jsonl")]) == 0

    @pytest.mark.parametrize("name,value", [
        ("embed_timeout", "0"), ("embed_timeout", "nan"),
        ("alpha", "2"), ("alpha", "nan"), ("alpha", "x"),
    ])
    @pytest.mark.parametrize("source", ["env", "config"])
    def test_bad_embed_setting_exits_1(self, world, built_index, tmp_path,
                                       monkeypatch, capsys, name, value, source):
        conf = tmp_path / "vfc.conf"
        conf.write_text(f"{name}={value}\n" if source == "config" else "")
        if source == "env":
            monkeypatch.setenv(f"VFC_{name.upper()}", value)
        code = run(["--config", str(conf), "classify",
                    "--index", str(built_index),
                    "--queries", str(world["queries"]),
                    "--embed-url", "http://127.0.0.1:1/"])
        assert_json_error(code, capsys, "empty-input")

    @pytest.mark.parametrize("text, expected", [
        ("# comment\n\nk=5\nno equals sign\n", "empty-input"),
        (None, "io-failure"),
    ], ids=["line-without-equals", "missing-file"])
    def test_bad_config_file_exits_1(self, world, tmp_path, capsys, text,
                                     expected):
        conf = tmp_path / "vfc.conf"
        if text is not None:
            conf.write_text(text)
        code = run(["--config", str(conf), "stats", "--corpus", str(world["corpus"])])
        assert_json_error(code, capsys, expected)

    def test_config_byte_order_mark_is_not_part_of_the_first_key(self, world,
                                                                 built_index, tmp_path):
        conf = tmp_path / "vfc.conf"
        conf.write_text("k=3\nalpha=0.2\n", encoding="utf-8-sig")
        outs = []
        for args in (["--config", str(conf), "classify"],
                     ["classify", "--k", "3", "--alpha", "0.2"]):
            out = tmp_path / f"preds-{len(outs)}.jsonl"
            assert run(args + ["--index", str(built_index), "--queries",
                               str(world["queries"]), "--embeddings", str(world["store"]),
                               "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        assert len(json.loads(outs[0].splitlines()[0])["retrieved"]) == 3

    def test_unknown_config_key_exits_1(self, world, tmp_path, capsys):
        conf = tmp_path / "vfc.conf"
        conf.write_text("k=5\nalpah=0.2\n")
        code = run(["--config", str(conf), "stats", "--corpus", str(world["corpus"])])
        assert code == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": "empty-input", "message": "config line 2: unknown setting 'alpah'"}


class TestAblate:
    def test_alpha_sweep_rows(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run(["ablate", "--sweep", "alpha", "--values", "0,0.5,1",
                    "--num-queries", "40", "--out", str(out)])
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out.read_text())))
        assert [r["value"] for r in rows] == ["0", "0.5", "1"]
        assert all(0.0 <= float(r["cluster_accuracy"]) <= 1.0 for r in rows)

    def test_alpha_one_equals_visual_scoring_mode(self, tmp_path):
        alpha_out = tmp_path / "alpha.csv"
        mode_out = tmp_path / "mode.csv"
        assert run(["ablate", "--sweep", "alpha", "--values", "1",
                    "--num-queries", "40", "--out", str(alpha_out)]) == 0
        assert run(["ablate", "--sweep", "scoring-mode", "--values", "visual",
                    "--num-queries", "40", "--out", str(mode_out)]) == 0
        alpha_row = next(csv.DictReader(io.StringIO(alpha_out.read_text())))
        mode_row = next(csv.DictReader(io.StringIO(mode_out.read_text())))
        for key in ("cluster_accuracy", "semantic_similarity", "semantic_iou"):
            assert alpha_row[key] == mode_row[key]

    def test_k_sweep_improves_from_one(self, tmp_path):
        out = tmp_path / "k.csv"
        assert run(["ablate", "--sweep", "k", "--values", "1,10",
                    "--num-queries", "60", "--out", str(out)]) == 0
        rows = list(csv.DictReader(io.StringIO(out.read_text())))
        assert float(rows[1]["cluster_accuracy"]) >= float(rows[0]["cluster_accuracy"])

    def test_filter_stage_sweep_all_is_maximal(self, tmp_path):
        out = tmp_path / "stages.csv"
        assert run(["ablate", "--sweep", "filter-stages",
                    "--values", "none,remove,standardize,all",
                    "--num-queries", "60", "--eval-mode", "one-to-one",
                    "--out", str(out)]) == 0
        rows = list(csv.DictReader(io.StringIO(out.read_text())))
        accuracy = {r["value"]: float(r["cluster_accuracy"]) for r in rows}
        assert len(rows) == 4
        assert accuracy["all"] >= max(accuracy.values()) - 1e-12
        assert accuracy["all"] > accuracy["none"]

    def test_filter_stage_sweep_keeps_the_word_lists(self, tmp_path):
        stop_words = tmp_path / "stop.txt"
        stop_words.write_text("airplane\nbicycle\n")
        rows = []
        for extra in ([], ["--stop-words", str(stop_words)]):
            out = tmp_path / "stages.csv"
            assert run(["ablate", "--sweep", "filter-stages", "--values", "all",
                        "--num-queries", "60", *extra, "--out", str(out)]) == 0
            row = next(csv.DictReader(io.StringIO(out.read_text())))
            rows.append([row[key] for key in
                         ("cluster_accuracy", "semantic_similarity", "semantic_iou")])
        assert rows[0] != rows[1]
        base = ClassifierConfig(filter=FilterConfig(stop_words=["airplane", "bicycle"]))
        spec = cli.AblationSpec("filter-stages", ["all"], base)
        assert spec.config_for("all").filter.stop_words == {"airplane", "bicycle"}
        assert spec.config_for("none").filter == dataclasses.replace(
            base.filter, stages="none")

    def test_ablate_single_point_equals_classify_then_evaluate(
        self, world, built_index, tmp_path
    ):
        # integrated run
        sweep_out = tmp_path / "point.csv"
        assert run(["ablate", "--sweep", "alpha", "--values", "0.7",
                    "--benchmark", str(world["manifest"]),
                    "--index", str(built_index),
                    "--embeddings", str(world["store"]),
                    "--out", str(sweep_out)]) == 0
        row = next(csv.DictReader(io.StringIO(sweep_out.read_text())))
        # composed run
        preds = tmp_path / "preds.jsonl"
        report_path = tmp_path / "report.json"
        assert run(["classify", "--index", str(built_index),
                    "--queries", str(world["queries"]),
                    "--embeddings", str(world["store"]), "--alpha", "0.7",
                    "--out", str(preds)]) == 0
        assert run(["evaluate", "--predictions", str(preds),
                    "--truths", str(world["truths"]),
                    "--out", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert float(row["cluster_accuracy"]) == report["cluster_accuracy"]
        assert float(row["semantic_similarity"]) == pytest.approx(
            report["semantic_similarity"], abs=1e-12
        )
        assert float(row["semantic_iou"]) == pytest.approx(
            report["semantic_iou"], abs=1e-12
        )

    @pytest.mark.parametrize("sweep,value", [
        ("alpha", "1.5"), ("alpha", "x"), ("k", "0"), ("k", "2.5"),
        ("scoring-mode", "audio"), ("filter-stages", "filter"),
    ])
    def test_bad_sweep_value_exits_1(self, tmp_path, capsys, sweep, value):
        code = run(["ablate", "--sweep", sweep, "--values", value,
                    "--num-queries", "10", "--out", str(tmp_path / "bad.csv")])
        assert_json_error(code, capsys, "empty-input")

    def test_ablate_reproducible(self, tmp_path):
        outs = []
        for name in ("s1.csv", "s2.csv"):
            out = tmp_path / name
            assert run(["ablate", "--sweep", "alpha", "--values", "0.5",
                        "--num-queries", "30", "--seed", "9",
                        "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


    @pytest.mark.parametrize("value", ["0", "-1", "1.5", "x"])
    def test_num_queries_below_one_is_a_usage_error(self, tmp_path, capsys,
                                                    value):
        with pytest.raises(SystemExit) as excinfo:
            run(["ablate", "--sweep", "alpha", "--values", "0.5",
                 "--num-queries", value, "--out", str(tmp_path / "out")])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        shown = repr(handed_over(value, int))
        assert (f"argument --num-queries: num_queries must be an integer >= 1, "
                f"got {shown}\n") in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", [0, -1, 1.5, True, "10"])
    def test_spec_rejects_a_num_queries_that_is_not_a_count(self, value):
        with pytest.raises(EmptyInputError, match="num_queries"):
            cli.AblationSpec("alpha", ["0.5"], ClassifierConfig(),
                             num_queries=value)


BAD_TEXTS = ["0", "-1", "1.5", "x", "nan", "inf", "70000"]
# typed flag: (its setting in cli.SETTINGS or None, the conversion of its
# text, the library call that checks the value, the texts of BAD_TEXTS
# that are good values)
RULES = {
    "--embed-timeout": ("embed_timeout", float,
                        lambda v: RemoteEmbeddingClient("u", timeout=v), {"1.5", "70000"}),
    "--k": ("k", int, lambda v: ClassifierConfig(k=v), {"70000"}),
    "--alpha": ("alpha", float, lambda v: ClassifierConfig(alpha=v), {"0"}),
    "--probes": ("probes", int, lambda v: ClassifierConfig(probes=v), {"70000"}),
    "--seed": ("seed", int, lambda v: build_index([], None, seed=v), {"0", "70000"}),
    "--partitions": (None, int, lambda v: build_index(
        [], None, structure="partitioned", num_partitions=v), {"70000"}),
    "--num-queries": (None, int, lambda v: cli.AblationSpec(
        "alpha", ["0.5"], ClassifierConfig(), num_queries=v), {"70000"}),
    "--port": (None, int, lambda v: make_server("127.0.0.1", v, 8), {"0"}),
    "--dim": (None, int, lambda v: make_server("127.0.0.1", 0, v), {"70000"}),
    "--prompt": ("prompt", str, lambda v: ClassifierConfig(prompt_template=v), set()),
}
BAD_CASES = [(flag, text) for flag, (*_, good) in RULES.items()
             for text in BAD_TEXTS if text not in good]


def library_message(flag, text):
    """The library's message for the value the text of ``flag`` hands it."""
    _, convert, call, _ = RULES[flag]
    with pytest.raises(EmptyInputError) as excinfo:
        call(handed_over(text, convert))
    return str(excinfo.value)


class TestOneRule:
    """Each typed flag, ``VFC_<NAME>`` and ``--config`` line is checked by
    the library's own rule for its setting."""

    @staticmethod
    def argv(world, built_index, flag):
        """A command that has ``flag`` and would run if its value passed."""
        if flag in ("--seed", "--partitions"):
            return ["build-index", "--corpus", str(world["corpus"]),
                    "--embeddings", str(world["store"]), "--structure",
                    "partitioned", "--out", str(world["root"] / "rule.vfci")]
        if flag == "--num-queries":
            return ["ablate", "--sweep", "alpha", "--values", "0.5", "--out", "-"]
        if flag in ("--port", "--dim"):
            return ["serve-stub"]
        return ["classify", "--index", str(built_index), "--queries",
                str(world["queries"]), "--embeddings", str(world["store"])]

    def test_the_settings_are_the_seven_names(self):
        assert list(cli.SETTINGS) == ["embed_url", "embed_timeout", "k", "alpha",
                                      "probes", "prompt", "seed"]
        assert {s for s, *_ in RULES.values() if s} == set(cli.SETTINGS) - {
            "embed_url"}

    @pytest.mark.parametrize("flag, text", BAD_CASES)
    def test_bad_flag_exits_2_with_the_library_message(
            self, world, built_index, monkeypatch, capsys, flag, text):
        message = library_message(flag, text)
        monkeypatch.setattr(cli, "serve", lambda **kw: pytest.fail("served"))
        with pytest.raises(SystemExit) as excinfo:
            run(self.argv(world, built_index, flag) + [flag, text])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: {message}\n" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("flag, text", [(flag, text) for flag, text in BAD_CASES
                                            if RULES[flag][0]])
    @pytest.mark.parametrize("source", ["env", "config"])
    def test_bad_setting_exits_1_with_the_library_message(
            self, world, built_index, tmp_path, monkeypatch, capsys, flag, text,
            source):
        name = RULES[flag][0]
        message = library_message(flag, text)
        conf = tmp_path / "vfc.conf"
        conf.write_text(f"{name}={text}\n" if source == "config" else "")
        if source == "env":
            monkeypatch.setenv(f"VFC_{name.upper()}", text)
        code = run(["--config", str(conf)] + self.argv(world, built_index, flag))
        assert code == 1
        err = capsys.readouterr().err
        assert json.loads(err) == {"error": "empty-input",
                                   "message": f"bad {name} value {text!r}: {message}"}

    @pytest.mark.parametrize("flag, text", [(flag, text) for flag, (*_, good)
                                            in RULES.items() for text in sorted(good)])
    def test_a_good_text_of_the_table_is_taken(self, world, built_index, flag,
                                               text):
        argv = self.argv(world, built_index, flag) + [flag, text]
        args = cli.build_parser().parse_args(argv)
        dest = flag[2:].replace("-", "_")
        assert getattr(args, dest) == handed_over(text, RULES[flag][1])

    @pytest.mark.parametrize("name, value", [("embed_timeout", "0")])
    @pytest.mark.parametrize("source", ["env", "config"])
    @pytest.mark.parametrize("command", ["classify", "evaluate"])
    def test_bad_embed_setting_is_an_error_though_unused(
            self, world, built_index, tmp_path, monkeypatch, capsys, name,
            value, source, command):
        # --embeddings (classify) or the offline hash embedder (evaluate)
        # leaves the remote client's settings unused; they are checked anyway
        conf = tmp_path / "vfc.conf"
        conf.write_text(f"{name}={value}\n" if source == "config" else "")
        if source == "env":
            monkeypatch.setenv(f"VFC_{name.upper()}", value)
        argv = {"classify": self.argv(world, built_index, "--k"),
                "evaluate": ["evaluate", "--predictions", str(world["truths"]),
                             "--truths", str(world["truths"])]}[command]
        code = run(["--config", str(conf)] + argv)
        assert_json_error(code, capsys, "empty-input")

    def test_prompt_from_env_or_config_equals_the_flag(self, world, built_index,
                                                       tmp_path, monkeypatch):
        conf = tmp_path / "vfc.conf"
        conf.write_text("prompt=a photo of a {}\n")
        outs = {}
        for source in ("none", "flag", "env", "config"):
            out = tmp_path / f"{source}.jsonl"
            argv = self.argv(world, built_index, "--k") + ["--out", str(out)]
            if source == "flag":
                argv += ["--prompt", "a photo of a {}"]
            elif source == "config":
                argv = ["--config", str(conf)] + argv
            with monkeypatch.context() as env:
                if source == "env":
                    env.setenv("VFC_PROMPT", "a photo of a {}")
                assert run(argv) == 0
            outs[source] = out.read_bytes()
        assert outs["env"] == outs["config"] == outs["flag"] != outs["none"]

    def test_embed_dim_is_gone(self, world, built_index, tmp_path, monkeypatch,
                               capsys):
        # the remote client learns its dim from its first reply
        argv = self.argv(world, built_index, "--k")
        with pytest.raises(SystemExit) as excinfo:
            run(argv + ["--embed-dim", "64"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --embed-dim 64" in capsys.readouterr().err
        conf = tmp_path / "vfc.conf"
        conf.write_text("embed_dim=64\n")
        assert run(["--config", str(conf)] + argv) == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": "empty-input",
            "message": "config line 1: unknown setting 'embed_dim'"}
        monkeypatch.setenv("VFC_EMBED_DIM", "0")  # a name vfclass does not read
        assert run(argv + ["--out", str(tmp_path / "preds.jsonl")]) == 0

    def test_readme_names_the_settings_and_their_rules(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text("utf-8")
        precedence = readme[readme.index("Option precedence:"):]
        precedence = precedence[:precedence.index("\n\n")]
        assert re.findall(r"`(VFC_\w+)`", precedence) == [
            f"VFC_{name.upper()}" for name in cli.SETTINGS]
        table = {}
        for line in readme.splitlines():
            row = re.fullmatch(r"\| `(\w+\.check_\w+)` \| (.+) \| (.+) \|", line)
            if row:
                for flag in re.findall(r"`(--[\w-]+)`", row[3]):
                    table[flag] = (row[1], row[2])
        declared = {}
        for parser in cli.build_parser()._subparsers._group_actions[0].choices.values():
            for action in parser._actions:
                rule = action.type
                if getattr(rule, "__qualname__", "") == "_rule.<locals>.parse":
                    bound = inspect.getclosurevars(rule).nonlocals
                    check = bound["check"]
                    module = check.__module__.rsplit(".", 1)[1]
                    declared.update({flag: (f"{module}.{check.__name__}",
                                            bound["check_args"])
                                     for flag in action.option_strings})
        assert table.keys() == declared.keys()
        for flag, (rule, args) in declared.items():
            assert table[flag][0] == rule, flag
            if rule == "embedding.check_count":
                low = args[1] if len(args) > 1 else 1
                assert table[flag][1] == f"an integer >= {low}", flag

    @pytest.mark.parametrize("source", ["env", "config"])
    def test_bad_prompt_setting_exits_1(self, world, built_index, tmp_path,
                                        monkeypatch, capsys, source):
        conf = tmp_path / "vfc.conf"
        conf.write_text("prompt=no placeholder\n" if source == "config" else "")
        if source == "env":
            monkeypatch.setenv("VFC_PROMPT", "no placeholder")
        code = run(["--config", str(conf)] + self.argv(world, built_index, "--k"))
        assert_json_error(code, capsys, "empty-input")


class _Reached(Exception):
    """Raised by a spy once the command has called the library."""


class TestLibraryDefaults:
    """A command given none of these flags calls the library without them,
    so each default is the one the library's signature declares."""

    @staticmethod
    def spy(monkeypatch, name):
        calls = []

        def reached(*args, **kwargs):
            calls.append((args, kwargs))
            raise _Reached

        original = getattr(cli, name)
        monkeypatch.setattr(cli, name, reached)
        return original, calls

    @pytest.mark.parametrize("target,argv,params", [
        ("ingest_corpus", ["ingest"], ["fmt"]),
        ("ingest_corpus", ["stats"], ["fmt"]),
        ("ingest_corpus", ["build-index", "--out", "o"], ["fmt"]),
        ("build_index", ["build-index", "--out", "o"], ["structure"]),
        ("evaluate_predictions", ["evaluate"], ["mode"]),
        ("serve", ["serve-stub"], ["host", "port", "dim"]),
    ])
    def test_unset_flags_reach_the_library_default(self, world, monkeypatch,
                                                   target, argv, params):
        files = {
            "ingest": ["--corpus", str(world["corpus"])],
            "stats": ["--corpus", str(world["corpus"])],
            "build-index": ["--corpus", str(world["corpus"]),
                            "--embeddings", str(world["store"])],
            "evaluate": ["--predictions", str(world["truths"]),
                         "--truths", str(world["truths"])],
            "serve-stub": [],
        }
        original, calls = self.spy(monkeypatch, target)
        with pytest.raises(_Reached):
            run(argv + files[argv[0]])
        (args, kwargs), = calls
        signature = inspect.signature(original)
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        for param in params:
            assert param not in kwargs
            assert bound.arguments[param] == signature.parameters[param].default

    def test_ablate_spec_keeps_its_own_defaults(self, monkeypatch):
        _, calls = self.spy(monkeypatch, "_sweep_rows")
        with pytest.raises(_Reached):
            run(["ablate", "--sweep", "alpha", "--values", "0.5"])
        (spec, *_), _ = calls[0]
        defaults = {f.name: f.default for f in dataclasses.fields(cli.AblationSpec)}
        for name in ("eval_mode", "num_queries", "seed"):
            assert getattr(spec, name) == defaults[name]


class TestHashSeed:
    def test_classify_bytes_do_not_depend_on_the_hash_seed(self, tmp_path):
        # the token memo keys on frozensets: a hash-order leak into the
        # output would show as different bytes under different seeds
        bench = make_noisy_benchmark(num_queries=60, seed=7)
        corpus, store = tmp_path / "corpus.jsonl", tmp_path / "store.vfce"
        write_corpus(bench.records, corpus)
        save_store(bench.store, store)
        queries = tmp_path / "queries.jsonl"
        queries.write_text("".join(
            json.dumps({"id": qid, "image_ref": ref}) + "\n"
            for qid, ref in bench.queries))
        index = tmp_path / "index.vfci"
        assert run(["build-index", "--corpus", str(corpus), "--embeddings",
                    str(store), "--out", str(index)]) == 0
        src = str(Path(vfclass.__file__).resolve().parents[1])
        outs = []
        for seed in ("1", "2"):
            env = {**os.environ, "PYTHONHASHSEED": seed,
                   "PYTHONPATH": os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")]))}
            proc = subprocess.run(
                [sys.executable, "-m", "vfclass", "classify", "--index", str(index),
                 "--queries", str(queries), "--embeddings", str(store)],
                env=env, capture_output=True, check=True, timeout=120)
            outs.append(proc.stdout)
        assert outs[0].count(b"\n") == 60
        assert outs[0] == outs[1]


class TestManifestCli:
    def test_validate_manifest_ok(self, world, capsys):
        code = run(["validate-manifest", "--manifest", str(world["manifest"]),
                    "--embeddings", str(world["store"])])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["dangling"] == []


class TestServeStub:
    def test_port_in_use_reports_error(self, capsys):
        blocker = socket.socket()
        blocker.bind(("127.0.0.1", 0))
        port = blocker.getsockname()[1]
        try:
            code = run(["serve-stub", "--port", str(port)])
        finally:
            blocker.close()
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "port-in-use"
        assert f"cannot bind 127.0.0.1:{port}" in err["message"]

    @pytest.mark.parametrize("value", ["0", "-3", "x"])
    def test_dim_below_one_is_a_usage_error(self, monkeypatch, capsys, value):
        # a --dim that got through would serve until killed
        monkeypatch.setattr(cli, "serve", lambda **kw: pytest.fail("served"))
        with pytest.raises(SystemExit) as excinfo:
            run(["serve-stub", "--port", "0", "--dim", value])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "argument --dim" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("value", ["70000", "65536", "-1", "x"])
    def test_port_out_of_range_is_a_usage_error(self, monkeypatch, capsys,
                                                value):
        # a --port that got through would serve until killed, or die in bind
        monkeypatch.setattr(cli, "serve", lambda **kw: pytest.fail("served"))
        with pytest.raises(SystemExit) as excinfo:
            run(["serve-stub", "--port", value])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "argument --port" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("port", [0, 65535])
    def test_port_range_ends_reach_serve(self, monkeypatch, port):
        served = []
        monkeypatch.setattr(cli, "serve", lambda **kw: served.append(kw["port"]))
        assert run(["serve-stub", "--port", str(port)]) == 0
        assert served == [port]

    @pytest.mark.parametrize("dim", [0, -3, 2.5, True])
    def test_bad_dim_rejected_before_binding(self, dim):
        with pytest.raises(EmptyInputError, match="dim"):
            with running_stub(dim=dim):
                pass

    @pytest.mark.parametrize("port", [70000, -1, 65536, 1.5, True, "80"])
    def test_make_server_rejects_a_bad_port_before_binding(self, port):
        with pytest.raises(EmptyInputError,
                           match="port must be an integer from 0 to 65535"):
            make_server("127.0.0.1", port, 8)


def spoil(src, dst, kind):
    """Copy ``src`` to ``dst`` with line 2 made not UTF-8 (``"byte"``) or,
    for JSON, given a 5,000-digit integer (``"long-int"``) or a first string
    value that starts with the escape of a lone surrogate
    (``"lone-surrogate"``)."""
    lines = Path(src).read_bytes().splitlines(keepends=True)
    if kind == "byte":
        lines[1] = lines[1][:1] + b"\xe9" + lines[1][1:]
    elif kind == "long-int":
        lines[1] = lines[1].rstrip()[:-1] + b', "n": ' + b"1" * 5000 + b"}\n"
    else:
        lines[1] = lines[1].replace(b'": "', b'": "\\ud800', 1)
    Path(dst).write_bytes(b"".join(lines))
    return str(dst)


@pytest.fixture(scope="module")
def inputs(world, built_index):
    """One clean file per input flag, and the paths the commands need."""
    root = world["root"]
    files = {
        "config": "k=5\nalpha=0.5\n",
        "stop-words": "the\nof\nand\n",
        "meta-words": "photo\nimage\n",
        "lexicon": "dog\tnoun\nrun\tverb\n",
    }
    paths = {name: root / f"clean-{name}" for name in files}
    for name, text in files.items():
        paths[name].write_text(text)
    paths["predictions"] = root / "clean-predictions.jsonl"
    assert run(["classify", "--index", str(built_index), "--queries",
                str(world["queries"]), "--embeddings", str(world["store"]),
                "--out", str(paths["predictions"])]) == 0
    return {**{k: str(v) for k, v in paths.items()},
            **{k: str(world[k])
               for k in ("corpus", "queries", "truths", "store", "manifest")},
            "index": str(built_index), "root": root}


# flag: (the file it names, the command with {bad} for the spoiled copy,
# the error code); {name} stands for the clean file of that name
FILE_FLAGS = {
    "corpus-ingest": ("corpus", "ingest --strict --corpus {bad}",
                      "schema-violation"),
    "corpus-build-index": ("corpus", "build-index --strict --corpus {bad} "
                           "--embeddings {store} --out {root}/spoiled.vfci",
                           "schema-violation"),
    "queries": ("queries", "classify --index {index} --queries {bad} "
                "--embeddings {store}", "schema-violation"),
    "predictions": ("predictions", "evaluate --predictions {bad} "
                    "--truths {truths}", "schema-violation"),
    "truths": ("truths", "evaluate --predictions {predictions} --truths {bad}",
               "schema-violation"),
    "manifest": ("manifest", "validate-manifest --manifest {bad} "
                 "--embeddings {store}", "schema-violation"),
    "benchmark": ("manifest", "ablate --sweep alpha --values 0.5 --benchmark "
                  "{bad} --index {index} --embeddings {store}",
                  "schema-violation"),
    "config": ("config", "--config {bad} stats --corpus {corpus}",
               "schema-violation"),
    "stop-words": ("stop-words", "stats --corpus {corpus} --stop-words {bad}",
                   "schema-violation"),
    "meta-words": ("meta-words", "stats --corpus {corpus} --meta-words {bad}",
                   "schema-violation"),
    "lexicon": ("lexicon", "stats --corpus {corpus} --lexicon {bad}",
                "tagger-unavailable"),
}
JSON_INPUTS = ("corpus", "queries", "predictions", "truths", "manifest")
REASONS = {"byte": "not valid UTF-8", "long-int": "4300 digits",
           "lone-surrogate": "lone surrogate, which is not valid UTF-8"}
SPOILED = [(flag, kind) for flag, (name, _, _) in FILE_FLAGS.items()
           for kind in REASONS if kind == "byte" or name in JSON_INPUTS]


class TestUndecodableInput:
    """A line that is not UTF-8, a JSON integer too long to parse, or a JSON
    string that decodes to a lone surrogate is one JSON error naming the
    input and its line, never a traceback."""

    @pytest.mark.parametrize("flag, kind", SPOILED)
    def test_exits_1_naming_the_line(self, inputs, tmp_path, capsys, flag, kind):
        name, command, code = FILE_FLAGS[flag]
        bad = spoil(inputs[name], tmp_path / f"spoiled-{name}", kind)
        assert run(command.format(bad=bad, **inputs).split()) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        [line] = err.splitlines()
        error = json.loads(line)
        assert error["error"] == code
        assert f"{name} line 2:" in error["message"]
        assert REASONS[kind] in error["message"]

    @pytest.mark.parametrize("kind", REASONS)
    @pytest.mark.parametrize("command", [
        "ingest --corpus {bad} --out {root}/kept.jsonl",
        "build-index --corpus {bad} --embeddings {store} --out {root}/kept.vfci",
        "stats --corpus {bad} --out {root}/kept.json",
    ], ids=["ingest", "build-index", "stats"])
    def test_corpus_line_skipped_without_strict(self, inputs, world, tmp_path,
                                                caplog, command, kind):
        bad = spoil(inputs["corpus"], tmp_path / "spoiled.jsonl", kind)
        argv = command.format(bad=bad, **{**inputs, "root": tmp_path}).split()
        with caplog.at_level("WARNING"):
            assert run(argv) == 0
        assert [m.split(":")[0] for m in caplog.messages] == [
            "skipping corpus line 2"]
        kept = world["bench"].records[:1] + world["bench"].records[2:]
        if argv[0] == "ingest":
            assert (tmp_path / "kept.jsonl").read_text() == canonical_jsonl(kept)
        elif argv[0] == "build-index":
            index = load_index(tmp_path / "kept.vfci")
            assert [r.id for r in index.records] == sorted(r.id for r in kept)
        else:
            stats = json.loads((tmp_path / "kept.json").read_text())
            assert stats["caption_count"] == len(kept)

    def test_query_beyond_float64_fails_only_its_line(self, inputs, tmp_path):
        lines = Path(inputs["queries"]).read_text().splitlines()
        huge = ('{"id": "huge", "embedding": [' + "1" * 401
                + ", 0" * (16 - 1) + "]}")
        faulty = tmp_path / "faulty.jsonl"
        faulty.write_text("\n".join(lines[:3] + [huge] + lines[3:]) + "\n")
        outs = []
        for queries in (inputs["queries"], faulty):
            out = tmp_path / "preds.jsonl"
            assert run(["classify", "--index", inputs["index"], "--queries",
                        str(queries), "--embeddings", inputs["store"],
                        "--out", str(out)]) == 0
            outs.append(out.read_bytes().splitlines(keepends=True))
        clean, mixed = outs
        error = json.loads(mixed.pop(3))
        assert (error["id"], error["error"]) == ("huge", "empty-input")
        assert mixed == clean

    @pytest.mark.parametrize("case", [
        ("classify --index {index} --queries {bad} --embeddings {store}", 1),
        ("ingest --corpus {bad} --out {root}/dev.jsonl", 0),
    ], ids=["raised", "skipped"])
    def test_dev_mode_reports_no_unclosed_file(self, inputs, tmp_path, case):
        command, code = case
        bad = spoil(inputs["queries" if code else "corpus"],
                    tmp_path / "spoiled", "byte")
        src = str(Path(vfclass.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        argv = command.format(bad=bad, **{**inputs, "root": tmp_path}).split()
        proc = subprocess.run([sys.executable, "-X", "dev", "-m", "vfclass", *argv],
                              env=env, capture_output=True, timeout=120)
        assert proc.returncode == code
        [line] = proc.stderr.decode().splitlines()
        assert "line 2: not valid UTF-8" in line

    def test_surrogate_pair_round_trips_through_ingest(self, tmp_path):
        corpus = tmp_path / "c.jsonl"
        corpus.write_text(r'{"id": "a", "text": "a grinning \ud83d\ude00 dog"}' + "\n")
        out = tmp_path / "out.jsonl"
        assert run(["ingest", "--strict", "--corpus", str(corpus), "--out", str(out)]) == 0
        assert out.read_bytes() == (
            '{"id": "a", "text": "a grinning \U0001f600 dog", "source": ""}\n'
        ).encode("utf-8")


# output flag: the command, with {out} for the file it writes
OUTPUT_FLAGS = {
    "ingest": "ingest --corpus {corpus} --out {out}",
    "stats": "stats --corpus {corpus} --out {out}",
    "classify": "classify --index {index} --queries {queries} "
                "--embeddings {store} --out {out}",
    "evaluate": "evaluate --predictions {predictions} --truths {truths} --out {out}",
    "evaluate-csv": "evaluate --predictions {predictions} --truths {truths} "
                    "--csv {out}",
    "ablate": "ablate --sweep alpha --values 0.5 --num-queries 20 --out {out}",
}


class TestOutputFiles:
    @pytest.mark.parametrize("flag", OUTPUT_FLAGS)
    def test_failed_write_keeps_the_previous_file(self, inputs, tmp_path,
                                                  monkeypatch, capsys, flag):
        out = tmp_path / "out"
        out.write_bytes(b"a good file from an earlier run\n")

        def disk_full(fd):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(os, "fsync", disk_full)
        assert run(OUTPUT_FLAGS[flag].format(out=out, **inputs).split()) == 1
        [line] = capsys.readouterr().err.splitlines()
        assert json.loads(line)["error"] == "io-failure"
        assert out.read_bytes() == b"a good file from an earlier run\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out"]

    @pytest.mark.parametrize("command", ["ingest", "classify"])
    def test_stdout_is_utf8_whatever_its_encoding(self, inputs, tmp_path, command):
        corpus, queries = tmp_path / "c.jsonl", tmp_path / "q.jsonl"
        corpus.write_text('{"id": "a", "text": "un café", "source": ""}\n',
                          encoding="utf-8")
        queries.write_text("".join(
            json.dumps({**json.loads(line), "id": f"café-{n}"}) + "\n"
            for n, line in enumerate(Path(inputs["queries"]).read_text().splitlines())))
        argv = {"ingest": ["ingest", "--corpus", str(corpus)],
                "classify": ["classify", "--index", inputs["index"], "--queries",
                             str(queries), "--embeddings", inputs["store"]]}[command]
        src = str(Path(vfclass.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONIOENCODING": "ascii", "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        out = tmp_path / "out"
        procs = [subprocess.run([sys.executable, "-m", "vfclass", *argv, "--out", to],
                                env=env, capture_output=True, timeout=120)
                 for to in ("-", str(out))]
        assert [p.returncode for p in procs] == [0, 0], procs[0].stderr
        assert procs[0].stdout == out.read_bytes()
        assert "café".encode("utf-8") in procs[0].stdout

    def test_csv_dash_writes_to_stdout(self, inputs, tmp_path, monkeypatch,
                                       capsys):
        monkeypatch.chdir(tmp_path)
        assert run(["evaluate", "--predictions", inputs["predictions"],
                    "--truths", inputs["truths"], "--out", "report.json",
                    "--csv", "-"]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json"]
        assert run(["evaluate", "--predictions", inputs["predictions"],
                    "--truths", inputs["truths"], "--out", "report.json",
                    "--csv", "report.csv"]) == 0
        assert capsys.readouterr().out.encode("utf-8") == Path("report.csv").read_bytes()

    @pytest.mark.parametrize("how", ["stdout", "fifo", "symlink"])
    def test_out_takes_stdout_a_fifo_or_a_symlink(self, inputs, tmp_path, capsys,
                                                  how):
        want = Path(inputs["corpus"]).read_bytes()  # written canonically
        argv = ["ingest", "--corpus", inputs["corpus"], "--out"]
        if how == "stdout":
            assert run([*argv, "-"]) == 0
            assert capsys.readouterr().out.encode("utf-8") == want
        elif how == "fifo":
            fifo = tmp_path / "fifo"
            os.mkfifo(fifo)
            got = []
            reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()),
                                      daemon=True)
            reader.start()
            assert run([*argv, str(fifo)]) == 0
            reader.join(timeout=30)
            assert got == [want]
            assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        else:
            (tmp_path / "real").mkdir()
            target = tmp_path / "real" / "c.jsonl"
            target.write_bytes(b"old\n")
            link = tmp_path / "link"
            link.symlink_to(target)
            assert run([*argv, str(link)]) == 0
            assert link.is_symlink() and target.read_bytes() == want
            assert [p.name for p in target.parent.iterdir()] == ["c.jsonl"]
