"""Reference series for the README (not part of a benchmark run).

    python3 perfbench/series.py [--seed 1]

Prints markdown tables: partitioned recall@10 against ``probes`` at two
corpus sizes, flat and default-probe retrieval time at two sizes and two
dimensions, and one-to-one cluster-accuracy time against class count. It
reuses the generators of the workloads and writes its scratch files under
``.perfbench_work/``, which it removes at the end.
"""

from __future__ import annotations

import argparse
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402

from vfclass.embedding import load_store  # noqa: E402
from vfclass.evaluation import LabeledPrediction, cluster_accuracy  # noqa: E402
from vfclass.index import build_index, retrieve_topk  # noqa: E402
from vfclass.ingestion import ingest_corpus  # noqa: E402

import checks  # noqa: E402
import gen  # noqa: E402

QUERIES = 200
PER_CLASS = 50


def corpus(work: Path, seed: int, captions: int, dim: int):
    gen.corpus_partitioned(work, seed, n_classes=captions // PER_CLASS,
                           per_class=PER_CLASS, n_queries=QUERIES, dim=dim)
    store = load_store(work / "store.vfce")
    records = ingest_corpus(work / "corpus.jsonl")
    queries = np.stack([store.vector(f"img/{i:05d}") for i in range(QUERIES)])
    return records, store, queries


def per_query_ms(index, queries, probes=None) -> tuple[float, list[list[str]]]:
    got, times = [], []
    for q in queries:
        t0 = time.perf_counter()
        hits = retrieve_topk(index, q, checks.K, probes=probes)
        times.append(time.perf_counter() - t0)
        got.append([h.record.id for h in hits])
    return 1000 * statistics.median(times), got


def retrieval_tables(work: Path, seed: int) -> None:
    print("| captions | dim | flat ms/query | partitioned (32, probes 8) ms/query "
          "| build s |")
    print("|---|---|---|---|---|")
    recall_rows = []
    for captions in (20_000, 100_000):
        for dim in (64, 128):
            records, store, queries = corpus(work, seed, captions, dim)
            flat = build_index(records, store)
            flat_ms, _ = per_query_ms(flat, queries)
            del flat
            t0 = time.perf_counter()
            part = build_index(records, store, structure="partitioned",
                               num_partitions=32)
            build_s = time.perf_counter() - t0
            part_ms, _ = per_query_ms(part, queries)
            print(f"| {captions} | {dim} | {flat_ms:.2f} | {part_ms:.2f} "
                  f"| {build_s:.1f} |", flush=True)
            if dim == 128:
                want = checks.oracle_topk(part, queries)
                row = [captions]
                for probes in (1, 4, 8, "all"):
                    _, got = per_query_ms(part, queries, probes)
                    row.append(checks.recall(got, want))
                recall_rows.append(row)
            del part, records, store
    print()
    print("| captions (dim 128, 32 partitions) | probes 1 | probes 4 | probes 8 "
          "| probes all |")
    print("|---|---|---|---|---|")
    for row in recall_rows:
        print(f"| {row[0]} | " + " | ".join(f"{r:.4f}" for r in row[1:]) + " |")


def cluster_table(seed: int) -> None:
    print()
    print("| classes | predictions | one-to-one cluster_accuracy s |")
    print("|---|---|---|")
    rng = np.random.default_rng([seed, 5])
    for n_classes in (10, 20, 40, 60, 80):
        truths, preds = gen.eval_dataset(rng, n_classes, 5000, split=False)
        labeled = [LabeledPrediction(t["id"], p["label"], t["label"])
                   for t, p in zip(truths, preds)]
        t0 = time.perf_counter()
        cluster_accuracy(labeled)
        print(f"| {n_classes} | 5000 | {time.perf_counter() - t0:.2f} |", flush=True)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    work = HERE.parent / ".perfbench_work" / f"series-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        retrieval_tables(work, args.seed)
        cluster_table(args.seed)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
