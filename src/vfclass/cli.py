"""Command-line entry point.

Subcommands: ingest, build-index, classify, evaluate, stats, ablate,
serve-stub. Option precedence is flags > environment (``VFC_`` prefix) >
config file (``key=value`` lines via ``--config``) > the defaults of the
library's signatures (alpha 0.7, k 10). Runtime failures exit 1 with a
machine-readable JSON error on stderr; usage errors exit 2.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import logging
import math
import os
import sys
from dataclasses import dataclass, replace

from . import benchmark as bench_mod
from .candidates import FilterConfig, LexiconTagger, load_word_list
from .embedding import (
    HashEmbedder,
    RemoteEmbeddingClient,
    is_count,
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
from .index import build_index, load_index, save_index
from .ingestion import (
    canonical_jsonl,
    corpus_stats,
    ingest_corpus,
    json_object,
    load_manifest,
    validate_manifest,
)
from .scoring import ClassifierConfig, classify_batch
from .stubserver import serve

log = logging.getLogger("vfclass")


def _load_config_file(path) -> dict[str, str]:
    conf: dict[str, str] = {}
    for lineno, line in text_lines(path, "config"):
        if line.lstrip().startswith("#"):
            continue
        if "=" not in line:
            raise EmptyInputError(f"config line {lineno}: expected key=value")
        key, value = line.split("=", 1)
        conf[key.strip()] = value.strip()
    return conf


def resolve_option(name, flag_value, file_conf, cast=str):
    """flags > VFC_<NAME> env > config file; None if none of them sets it."""
    raw = os.environ.get(f"VFC_{name.upper()}", file_conf.get(name))
    if flag_value is not None or raw is None:
        return flag_value
    try:
        return cast(raw)
    except (ValueError, argparse.ArgumentTypeError) as exc:
        raise EmptyInputError(f"bad {name} value {raw!r}: {exc}") from exc


def _given(**options) -> dict:
    """The options that are set; a library call given only these keeps its
    own defaults for the rest."""
    return {name: value for name, value in options.items() if value is not None}


def _parse_count(value: str, expected: str | None = None, low: int = 1,
                 high: float = math.inf) -> int:
    """An integer from ``low`` to ``high``: by default a count of at least 1."""
    try:
        count = int(value)
    except ValueError:
        count = low - 1
    if not low <= count <= high:
        expected = expected or f"an integer >= {low}"
        raise argparse.ArgumentTypeError(f"expected {expected}, got {value!r}")
    return count


def _parse_seed(value: str) -> int:
    """A random seed: an integer >= 0."""
    return _parse_count(value, low=0)


def _parse_port(value: str) -> int:
    """A TCP port; 0 lets the system choose one."""
    return _parse_count(value, "a port from 0 to 65535", low=0, high=65535)


def _parse_timeout(value: str) -> float:
    """A finite number of seconds above 0."""
    try:
        seconds = float(value)
    except ValueError:
        seconds = 0.0
    if not 0.0 < seconds < math.inf:
        raise argparse.ArgumentTypeError(
            f"expected a finite number of seconds > 0, got {value!r}"
        )
    return seconds


def _parse_alpha(value: str) -> float:
    """The visual weight: a finite number from 0 to 1."""
    try:
        alpha = float(value)
    except ValueError:
        alpha = math.nan
    if not 0.0 <= alpha <= 1.0:
        raise argparse.ArgumentTypeError(
            f"expected a number from 0 to 1, got {value!r}"
        )
    return alpha


def _parse_probes(value: str):
    """``all`` or a partition count of at least 1."""
    return value if value == "all" else _parse_count(value, "'all' or an integer >= 1")


def _output(path, text: str) -> None:
    """Write ``text`` to stdout for ``-``, else to the file at ``path``; as
    UTF-8 either way, whatever encoding stdout has."""
    if path == "-":
        sys.stdout.flush()
        sys.stdout.buffer.write(text.encode("utf-8"))
    else:
        write_file(path, text)


def _provider(args, file_conf):
    embed_url = resolve_option("embed_url", args.embed_url, file_conf)
    if args.embeddings:
        return load_store(args.embeddings)
    if embed_url:
        timeout = resolve_option("embed_timeout", args.embed_timeout, file_conf,
                                 cast=_parse_timeout)
        dim = resolve_option("embed_dim", args.embed_dim, file_conf,
                             cast=_parse_count)
        return RemoteEmbeddingClient(embed_url, **_given(dim=dim, timeout=timeout))
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


def _classifier_config(args, file_conf) -> ClassifierConfig:
    return ClassifierConfig(
        filter=_filter_config(args),
        **_given(
            k=resolve_option("k", args.k, file_conf, cast=_parse_count),
            alpha=resolve_option("alpha", args.alpha, file_conf, cast=_parse_alpha),
            prompt_template=resolve_option("prompt", args.prompt, file_conf),
            probes=resolve_option("probes", args.probes, file_conf,
                                  cast=_parse_probes),
        ),
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


def _cmd_ingest(args, file_conf) -> int:
    records = ingest_corpus(args.corpus, strict=args.strict, **_given(fmt=args.format))
    _output(args.out, canonical_jsonl(records))
    log.info("ingested %d records", len(records))
    return 0


def _cmd_stats(args, file_conf) -> int:
    records = ingest_corpus(args.corpus, **_given(fmt=args.format))
    stats = corpus_stats(records, _tagger(args), _filter_config(args))
    _output(args.out, json.dumps(stats.to_dict(), indent=2) + "\n")
    return 0


def _cmd_build_index(args, file_conf) -> int:
    records = ingest_corpus(args.corpus, strict=args.strict, **_given(fmt=args.format))
    provider = _provider(args, file_conf)
    index = build_index(
        records,
        provider,
        dedup=args.dedup,
        **_given(
            structure=args.structure,
            num_partitions=args.partitions,
            seed=resolve_option("seed", args.seed, file_conf, cast=_parse_seed),
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


def _cmd_classify(args, file_conf) -> int:
    index = load_index(args.index)
    provider = _provider(args, file_conf)
    config = _classifier_config(args, file_conf)
    queries = _read_queries(args.queries)
    results = classify_batch(queries, index, provider, _tagger(args), config)
    _output(args.out, "".join(json.dumps(_prediction_json(item), ensure_ascii=False)
                              + "\n" for item in results))
    failures = sum(1 for r in results if r.error is not None)
    log.info("classified %d queries (%d failures)", len(results), failures)
    return 0


def _make_eval_embedder(args, file_conf):
    if args.embeddings or resolve_option("embed_url", args.embed_url, file_conf):
        return _provider(args, file_conf)
    return HashEmbedder(64)


def _cmd_evaluate(args, file_conf) -> int:
    pairs = load_predictions(args.predictions)
    truths = load_truths(args.truths)
    labeled = join_predictions(pairs, truths)
    report = evaluate_predictions(labeled, _make_eval_embedder(args, file_conf),
                                  **_given(mode=args.mode))
    _output(args.out, json.dumps(report.to_dict(), indent=2) + "\n")
    if args.csv:
        write_file(args.csv, report.to_csv())
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
        if not is_count(self.num_queries):
            raise EmptyInputError(
                f"num_queries must be an integer >= 1, got {self.num_queries!r}"
            )

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
        return replace(self.base)


def _sweep_rows(spec: AblationSpec, args, file_conf) -> list[dict]:
    embedder = HashEmbedder(64)
    tagger = _tagger(args)

    if args.benchmark:
        manifest = load_manifest(args.benchmark)
        if not args.index and spec.sweep != "database":
            raise EmptyInputError("--index is required with --benchmark")
        provider = _provider(args, file_conf)
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


def _cmd_ablate(args, file_conf) -> int:
    spec = AblationSpec(
        sweep=args.sweep,
        values=[v for v in args.values.split(",") if v],
        base=_classifier_config(args, file_conf),
        **_given(
            eval_mode=args.eval_mode,
            seed=resolve_option("seed", args.seed, file_conf, cast=_parse_seed),
            num_queries=args.num_queries,
        ),
    )
    rows = _sweep_rows(spec, args, file_conf)
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


def _cmd_validate_manifest(args, file_conf) -> int:
    manifest = load_manifest(args.manifest)
    store = load_store(args.embeddings)
    dangling = validate_manifest(manifest, store)
    sys.stdout.write(json.dumps({"entries": len(manifest.entries),
                                 "dangling": dangling}, indent=2) + "\n")
    return 0 if not dangling else 1


def _cmd_serve_stub(args, file_conf) -> int:
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
    provider.add_argument("--embed-dim", type=_parse_count)
    provider.add_argument("--embed-timeout", type=_parse_timeout)
    words = argparse.ArgumentParser(add_help=False)
    words.add_argument("--lexicon", help="word<TAB>pos lexicon file")
    words.add_argument("--stop-words", help="stop-word list, one word per line")
    words.add_argument("--meta-words", help="meta-word list, one word per line")
    classifier = argparse.ArgumentParser(add_help=False)
    classifier.add_argument("--alpha", type=_parse_alpha)
    classifier.add_argument("--k", type=_parse_count)
    classifier.add_argument("--probes", type=_parse_probes)
    classifier.add_argument("--prompt")

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
    p.add_argument("--partitions", type=_parse_count)
    p.add_argument("--dedup", action="store_true",
                   help="drop records with duplicate caption text")
    p.add_argument("--seed", type=_parse_seed)
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
    p.add_argument("--num-queries", type=_parse_count)
    p.add_argument("--eval-mode", choices=EVAL_MODES)
    p.add_argument("--seed", type=_parse_seed)
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_ablate)

    p = sub.add_parser("validate-manifest",
                       help="check manifest refs against a store")
    p.add_argument("--manifest", required=True)
    p.add_argument("--embeddings", required=True)
    p.set_defaults(func=_cmd_validate_manifest)

    p = sub.add_parser("serve-stub", help="run the deterministic embedding stub")
    p.add_argument("--host")
    p.add_argument("--port", type=_parse_port)
    p.add_argument("--dim", type=_parse_count)
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
        file_conf = _load_config_file(args.config) if args.config else {}
        return args.func(args, file_conf)
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
