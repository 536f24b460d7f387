"""CLI subcommands end to end on small synthetic fixtures."""

import csv
import dataclasses
import inspect
import io
import json
import os
import socket
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import vfclass
from vfclass import cli
from vfclass.benchmark import make_benchmark, make_noisy_benchmark
from vfclass.candidates import LexiconTagger
from vfclass.cli import run
from vfclass.embedding import PrecomputedStore, RemoteEmbeddingClient, save_store
from vfclass.errors import EmptyInputError
from vfclass.ingestion import ingest_corpus, save_manifest, write_corpus
from vfclass.index import (
    CaptionIndex,
    CaptionRecord,
    build_index,
    load_index,
    save_index,
)
from vfclass.scoring import ClassifierConfig, classify_batch
from vfclass.stubserver import running_stub


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
                               PrecomputedStore.load(world["store"]),
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
        assert cli._provider(args, {}).timeout == RemoteEmbeddingClient("u").timeout


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
        assert "argument --seed: expected an integer >= 0" in err
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
        ("--embed-dim", "0"), ("--embed-dim", "2.5"), ("--embed-dim", "x"),
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
        ("embed_dim", "0"), ("embed_dim", "true"),
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
        ("scoring-mode", "audio"),
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
        assert "argument --num-queries: expected an integer >= 1" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", [0, -1, 1.5, True, "10"])
    def test_spec_rejects_a_num_queries_that_is_not_a_count(self, value):
        with pytest.raises(EmptyInputError, match="num_queries"):
            cli.AblationSpec("alpha", ["0.5"], ClassifierConfig(),
                             num_queries=value)


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
