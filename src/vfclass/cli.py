"""Command-line entry point.

Subcommands: ingest, build-index, classify, evaluate, stats, ablate,
validate-manifest, serve-stub. Option precedence is flags > environment
(``VFC_<NAME>``) > config file (``name=value`` lines via ``--config``,
each name one of :data:`SETTINGS`) > the defaults of the library's
signatures (alpha 0.7, k 10); ``run`` settles the names of
:data:`SETTINGS` once, before the command runs. Each
typed value is checked by the library's own rule for it: a bad flag is a
usage error (exit 2), and every runtime failure, a bad environment or
config-file value too, exits 1 with a machine-readable JSON error on
stderr.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import logging
import os
import sys
from dataclasses import dataclass, replace

from . import benchmark as bench_mod
from .candidates import FilterConfig, LexiconTagger, load_word_list
from .embedding import (
    HashEmbedder,
    RemoteEmbeddingClient,
    check_count,
    check_timeout,
    is_real,
    load_store,
    text_lines,
    write_file,
)
from .errors import EmptyInputError, SchemaError, VfcError
from .evaluation import (
    evaluate_predictions,
    join_predictions,
    load_predictions,
    load_truths,
    LabeledPrediction,
)
from .index import build_index, check_probes, load_index, save_index
from .ingestion import (
    canonical_jsonl,
    corpus_stats,
    ingest_corpus,
    json_object,
    load_manifest,
    validate_manifest,
)
from .scoring import ClassifierConfig, check_alpha, check_prompt, classify_batch
from .stubserver import check_port, serve

log = logging.getLogger("vfclass")


def _load_config_file(path) -> dict[str, str]:
    conf: dict[str, str] = {}
    for lineno, line in text_lines(path, "config"):
        if line.lstrip().startswith("#"):
            continue
        if "=" not in line:
            raise EmptyInputError(f"config line {lineno}: expected key=value")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in SETTINGS:
            raise EmptyInputError(f"config line {lineno}: unknown setting {key!r}")
        conf[key] = value
    return conf


def _rule(convert, check, *check_args):
    """An argparse type that converts the text with ``convert`` and passes
    the value (the text itself if it does not convert, so the message names
    it) to the library's ``check(value, *check_args)``; a value the check
    rejects is a usage error carrying the check's message."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = text
        try:
            check(value, *check_args)
        except VfcError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc
        return value

    return parse


# the settings that a flag, VFC_<NAME> or a --config line sets, and their parsers
SETTINGS = {
    "embed_url": str,
    "embed_timeout": _rule(float, check_timeout),
    "k": _rule(int, check_count, "k"),
    "alpha": _rule(float, check_alpha),
    "probes": _rule(int, check_probes),  # "all" does not convert and passes
    "prompt": _rule(str, check_prompt),
    "seed": _rule(int, check_count, "seed", 0),
}


def _settle(args, file_conf: dict[str, str]) -> None:
    """Set each of the command's settings that no flag set from
    ``VFC_<NAME>``, else from the config file: flags > environment > config
    file. A setting none of them sets stays None."""
    for name, parse in SETTINGS.items():
        if getattr(args, name, "") is not None:
            continue  # not an option of this command, or set by its flag
        raw = os.environ.get(f"VFC_{name.upper()}", file_conf.get(name))
        if raw is None:
            continue
        try:
            setattr(args, name, parse(raw))
        except argparse.ArgumentTypeError as exc:
            raise EmptyInputError(f"bad {name} value {raw!r}: {exc}") from exc


def _given(**options) -> dict:
    """The options that are set; a library call given only these keeps its
    own defaults for the rest."""
    return {name: value for name, value in options.items() if value is not None}


def _output(path, text: str) -> None:
    """Write ``text`` to stdout for ``-``, else to the file at ``path``; as
    UTF-8 either way, whatever encoding stdout has."""
    if path == "-":
        sys.stdout.flush()
        sys.stdout.buffer.write(text.encode("utf-8"))
    else:
        write_file(path, text)


def _provider(args):
    if args.embeddings:
        return load_store(args.embeddings)
    if args.embed_url:
        return RemoteEmbeddingClient(args.embed_url, **_given(timeout=args.embed_timeout))
    raise EmptyInputError(
        "no embedding provider: pass --embeddings or --embed-url",
        code="provider-unavailable",
    )


def _filter_config(args) -> FilterConfig:
    stop, meta = args.stop_words, args.meta_words
    return FilterConfig(
        stop_words=load_word_list(stop, "stop-words") if stop else None,
        meta_words=load_word_list(meta, "meta-words") if meta else None,
    )


def _tagger(args) -> LexiconTagger:
    return LexiconTagger(lexicon_path=args.lexicon)


def _classifier_config(args) -> ClassifierConfig:
    return ClassifierConfig(
        filter=_filter_config(args),
        **_given(k=args.k, alpha=args.alpha, prompt_template=args.prompt,
                 probes=args.probes),
    )


def _prediction_json(item) -> dict:
    if item.error is not None:
        return {"id": item.id, "error": item.error_code, "message": item.error}
    pred = item.prediction
    return {
        "id": item.id,
        "label": pred.label,
        "fallback": pred.fallback,
        "ranked": [
            {
                "candidate": b.candidate,
                "visual": b.visual,
                "textual": b.textual,
                "fused": b.fused,
            }
            for b in pred.ranked
        ],
        "retrieved": [
            {"id": h.record.id, "score": h.score} for h in pred.retrieved
        ],
    }


def _cmd_ingest(args) -> int:
    records = ingest_corpus(args.corpus, strict=args.strict, **_given(fmt=args.format))
    _output(args.out, canonical_jsonl(records))
    log.info("ingested %d records", len(records))
    return 0


def _cmd_stats(args) -> int:
    records = ingest_corpus(args.corpus, **_given(fmt=args.format))
    stats = corpus_stats(records, _tagger(args), _filter_config(args))
    _output(args.out, json.dumps(stats.to_dict(), indent=2) + "\n")
    return 0


def _cmd_build_index(args) -> int:
    records = ingest_corpus(args.corpus, strict=args.strict, **_given(fmt=args.format))
    provider = _provider(args)
    index = build_index(
        records,
        provider,
        dedup=args.dedup,
        **_given(
            structure=args.structure,
            num_partitions=args.partitions,
            seed=args.seed,
        ),
    )
    save_index(index, args.out)
    log.info("built %s index with %d records -> %s",
             index.structure, len(index), args.out)
    return 0


def _read_queries(path) -> list[tuple[str, object]]:
    queries: list[tuple[str, object]] = []
    for lineno, line in text_lines(path, "queries"):
        obj = json_object(line, "queries", lineno)
        qid = obj.get("id", f"line-{lineno}")
        if not isinstance(qid, str):
            raise SchemaError(f"queries line {lineno}: 'id' must be a string")
        if "embedding" in obj:
            query = obj["embedding"]
            if not isinstance(query, list) or not all(map(is_real, query)):
                raise SchemaError(
                    f"queries line {lineno}: 'embedding' must be a list of numbers"
                )
        elif "image_ref" in obj:
            query = obj["image_ref"]
            if not isinstance(query, str):
                raise SchemaError(f"queries line {lineno}: 'image_ref' must be a string")
        else:
            raise EmptyInputError(
                f"queries line {lineno}: need 'embedding' or 'image_ref'"
            )
        queries.append((qid, query))
    if not queries:
        raise EmptyInputError("queries file is empty")
    return queries


def _cmd_classify(args) -> int:
    index = load_index(args.index)
    provider = _provider(args)
    config = _classifier_config(args)
    queries = _read_queries(args.queries)
    results = classify_batch(queries, index, provider, _tagger(args), config)
    _output(args.out, "".join(json.dumps(_prediction_json(item), ensure_ascii=False)
                              + "\n" for item in results))
    failures = sum(1 for r in results if r.error is not None)
    log.info("classified %d queries (%d failures)", len(results), failures)
    return 0


def _make_eval_embedder(args):
    if args.embeddings or args.embed_url:
        return _provider(args)
    return HashEmbedder(64)


def _cmd_evaluate(args) -> int:
    pairs = load_predictions(args.predictions)
    truths = load_truths(args.truths)
    labeled = join_predictions(pairs, truths)
    report = evaluate_predictions(labeled, _make_eval_embedder(args),
                                  **_given(mode=args.mode))
    _output(args.out, json.dumps(report.to_dict(), indent=2) + "\n")
    if args.csv:
        _output(args.csv, report.to_csv())
    return 0


SWEEPS = ("alpha", "k", "database", "scoring-mode", "filter-stages")
SCORING_MODES = ("visual", "textual", "multimodal")
EVAL_MODES = ("auto", "one-to-one", "many-to-one")


@dataclass
class AblationSpec:
    """One sweep variable, its values, and the fixed configuration."""

    sweep: str
    values: list[str]
    base: ClassifierConfig
    eval_mode: str = "auto"
    seed: int = 42
    num_queries: int = 200

    def __post_init__(self):
        if self.sweep not in SWEEPS:
            raise EmptyInputError(f"unknown sweep variable {self.sweep!r}")
        if not self.values:
            raise EmptyInputError("sweep needs at least one value")
        check_count(self.num_queries, "num_queries")

    def config_for(self, value: str) -> ClassifierConfig:
        """The base configuration with the swept variable set to ``value``;
        ``ClassifierConfig`` checks it when it is made."""
        modes = {"visual": 1.0, "textual": 0.0, "multimodal": self.base.alpha}
        try:
            if self.sweep == "filter-stages":
                filters = replace(self.base.filter, stages=value)
                return replace(self.base, filter=filters)
            if self.sweep == "alpha":
                return replace(self.base, alpha=float(value))
            if self.sweep == "k":
                return replace(self.base, k=int(value))
            if self.sweep == "scoring-mode":
                if value not in modes:
                    raise ValueError(f"expected one of {SCORING_MODES}")
                return replace(self.base, alpha=modes[value])
        except (ValueError, EmptyInputError) as exc:
            raise EmptyInputError(f"bad {self.sweep} value {value!r}: {exc}") from exc
        return self.base  # frozen, so it can be shared


def _sweep_rows(spec: AblationSpec, args) -> list[dict]:
    embedder = HashEmbedder(64)
    tagger = _tagger(args)

    if args.benchmark:
        manifest = load_manifest(args.benchmark)
        if not args.index and spec.sweep != "database":
            raise EmptyInputError("--index is required with --benchmark")
        provider = _provider(args)
        queries = [(e.id, e.ref) for e in manifest.entries]
        truths = {e.id: e.label for e in manifest.entries}
        index = load_index(args.index) if args.index else None
    else:
        if spec.sweep == "database":
            raise EmptyInputError(
                "database sweep needs --benchmark and prebuilt index values"
            )
        if spec.sweep == "filter-stages":
            # only the noisy generator registers embeddings for the raw
            # tokens that unfiltered configurations produce
            bench = bench_mod.make_noisy_benchmark(
                num_queries=spec.num_queries, seed=spec.seed
            )
        else:
            bench = bench_mod.make_benchmark(
                num_queries=spec.num_queries, seed=spec.seed
            )
        provider = bench.store
        queries = bench.queries
        truths = bench.truths
        index = bench.build_index(seed=spec.seed)

    rows = []
    for value in spec.values:
        config = spec.config_for(value)
        run_index = load_index(value) if spec.sweep == "database" else index
        results = classify_batch(queries, run_index, provider, tagger, config)
        labeled = [
            LabeledPrediction(item.id, item.prediction.label, truths[item.id])
            for item in results
            if item.prediction is not None
        ]
        report = evaluate_predictions(labeled, embedder, mode=spec.eval_mode)
        rows.append(
            {
                "sweep": spec.sweep,
                "value": value,
                "cluster_accuracy": report.cluster_accuracy,
                "semantic_similarity": report.semantic_similarity,
                "semantic_iou": report.semantic_iou,
                "samples": report.sample_count,
            }
        )
    return rows


def _cmd_ablate(args) -> int:
    spec = AblationSpec(
        sweep=args.sweep,
        values=[v for v in args.values.split(",") if v],
        base=_classifier_config(args),
        **_given(
            eval_mode=args.eval_mode,
            seed=args.seed,
            num_queries=args.num_queries,
        ),
    )
    rows = _sweep_rows(spec, args)
    buf = io.StringIO()
    writer = csv.DictWriter(
        buf,
        fieldnames=["sweep", "value", "cluster_accuracy",
                    "semantic_similarity", "semantic_iou", "samples"],
    )
    writer.writeheader()
    writer.writerows(rows)
    _output(args.out, buf.getvalue())
    return 0


def _cmd_validate_manifest(args) -> int:
    manifest = load_manifest(args.manifest)
    store = load_store(args.embeddings)
    dangling = validate_manifest(manifest, store)
    sys.stdout.write(json.dumps({"entries": len(manifest.entries),
                                 "dangling": dangling}, indent=2) + "\n")
    return 0 if not dangling else 1


def _cmd_serve_stub(args) -> int:
    serve(**_given(host=args.host, port=args.port, dim=args.dim))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vfclass",
        description="Retrieval-based open-vocabulary classification engine",
    )
    parser.add_argument("-v", "--verbose", action="count", default=0,
                        help="-v for info, -vv for debug (stderr)")
    parser.add_argument("--config", help="key=value config file")
    sub = parser.add_subparsers(dest="command", required=True)

    # flag groups shared by several subcommands, declared once
    provider = argparse.ArgumentParser(add_help=False)
    provider.add_argument("--embeddings", help="precomputed store (.vfce)")
    provider.add_argument("--embed-url", help="remote embedding service URL")
    provider.add_argument("--embed-timeout", type=SETTINGS["embed_timeout"])
    words = argparse.ArgumentParser(add_help=False)
    words.add_argument("--lexicon", help="word<TAB>pos lexicon file")
    words.add_argument("--stop-words", help="stop-word list, one word per line")
    words.add_argument("--meta-words", help="meta-word list, one word per line")
    classifier = argparse.ArgumentParser(add_help=False)
    classifier.add_argument("--alpha", type=SETTINGS["alpha"])
    classifier.add_argument("--k", type=SETTINGS["k"])
    classifier.add_argument("--probes", type=SETTINGS["probes"])
    classifier.add_argument("--prompt", type=SETTINGS["prompt"])

    p = sub.add_parser("ingest", help="normalize a corpus to canonical JSONL")
    p.add_argument("--corpus", required=True)
    p.add_argument("--format", choices=["jsonl", "plain"])
    p.add_argument("--strict", action="store_true")
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("stats", help="corpus token and POS statistics",
                       parents=[words])
    p.add_argument("--corpus", required=True)
    p.add_argument("--format", choices=["jsonl", "plain"])
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("build-index", help="embed a corpus and build an index",
                       parents=[provider])
    p.add_argument("--corpus", required=True)
    p.add_argument("--format", choices=["jsonl", "plain"])
    p.add_argument("--strict", action="store_true")
    p.add_argument("--structure", choices=["flat", "partitioned"])
    p.add_argument("--partitions", type=_rule(int, check_count, "num_partitions"))
    p.add_argument("--dedup", action="store_true",
                   help="drop records with duplicate caption text")
    p.add_argument("--seed", type=SETTINGS["seed"])
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_build_index)

    p = sub.add_parser("classify", help="label queries against an index",
                       parents=[provider, classifier, words])
    p.add_argument("--index", required=True)
    p.add_argument("--queries", required=True,
                   help="JSONL of {id, embedding} or {id, image_ref}")
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("evaluate", help="score predictions against truths",
                       parents=[provider])
    p.add_argument("--predictions", required=True)
    p.add_argument("--truths", required=True)
    p.add_argument("--mode", choices=EVAL_MODES)
    p.add_argument("--out", default="-")
    p.add_argument("--csv", help="also write a flat CSV report")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("ablate", help="sweep one variable, emit metric rows",
                       parents=[provider, classifier, words])
    p.add_argument("--sweep", choices=SWEEPS, required=True)
    p.add_argument("--values", required=True, help="comma-separated values")
    p.add_argument("--benchmark", help="dataset manifest (default: synthetic)")
    p.add_argument("--index", help="index for --benchmark runs")
    p.add_argument("--num-queries", type=_rule(int, check_count, "num_queries"))
    p.add_argument("--eval-mode", choices=EVAL_MODES)
    p.add_argument("--seed", type=SETTINGS["seed"])
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_ablate)

    p = sub.add_parser("validate-manifest",
                       help="check manifest refs against a store")
    p.add_argument("--manifest", required=True)
    p.add_argument("--embeddings", required=True)
    p.set_defaults(func=_cmd_validate_manifest)

    p = sub.add_parser("serve-stub", help="run the deterministic embedding stub")
    p.add_argument("--host")
    p.add_argument("--port", type=_rule(int, check_port))
    p.add_argument("--dim", type=_rule(int, check_count, "dim"))
    p.set_defaults(func=_cmd_serve_stub)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    level = logging.WARNING
    if args.verbose == 1:
        level = logging.INFO
    elif args.verbose >= 2:
        level = logging.DEBUG
    logging.basicConfig(stream=sys.stderr, level=level,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        _settle(args, _load_config_file(args.config) if args.config else {})
        return args.func(args)
    except VfcError as err:
        json.dump({"error": err.code, "message": str(err)}, sys.stderr)
        sys.stderr.write("\n")
        return 1
    except OSError as err:
        json.dump({"error": "io-failure", "message": str(err)}, sys.stderr)
        sys.stderr.write("\n")
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
