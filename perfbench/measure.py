"""The measured process: set up one workload, time it, check it.

Started by ``run.py`` as a fresh process per run, on inputs that
``gen.py`` already wrote to ``--work``. It calls vfclass through module
attributes (so the traced run can wrap them), with one caller in a closed
loop: the next call starts when the previous one returns. The last line of
its standard output is a JSON object with the run's result.
"""

from __future__ import annotations

import argparse
import gc
import json
import re
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402

import vfclass.candidates as vcandidates  # noqa: E402
import vfclass.embedding as vembedding  # noqa: E402
import vfclass.evaluation as vevaluation  # noqa: E402
import vfclass.index as vindex  # noqa: E402
import vfclass.ingestion as vingestion  # noqa: E402
import vfclass.scoring as vscoring  # noqa: E402
from vfclass.errors import VfcError  # noqa: E402

import checks  # noqa: E402
import gen  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402

PARTITIONS = 32
SEGMENTS = 2
clock = time.perf_counter

# The pace burst: a fixed mix of interpreter work (regex, dict, sort) and
# numpy calls, small and large, like the program's hot paths. On a shared
# host the CPU's speed swings by 20-60% within a minute, for interpreter
# and numpy work alike, and the pace burst swings with it. So every timed
# window is scaled by PACE_NOMINAL_S over the mean of the bursts on either
# side of it: the timings are in seconds of a machine where one burst
# takes PACE_NOMINAL_S. The raw timings are kept in the notes.
PACE_NOMINAL_S = 0.002
SETUP_BURSTS = 9  # pace bursts on either side of a set-up
_PACE_RE = re.compile(r"[A-Za-z]+|\d+")
_PACE_TEXT = ("A spotted Otters resting near the rivers "
              "https://cdn3.example.org/photos/1234.jpg IMG_0042.JPG 4k stock")
_PACE_VEC = np.linspace(-1.0, 1.0, 64)
_PACE_ROWS = np.linspace(-1.0, 1.0, 16384 * 64, dtype=np.float32).reshape(16384, 64)


def _pace_work() -> float:
    total, counts = 0.0, {}
    for _ in range(100):
        for word in _PACE_RE.findall(_PACE_TEXT):
            key = word.lower().rstrip("s")
            counts[key] = counts.get(key, 0) + 1
        total += float(np.dot(_PACE_VEC, _PACE_VEC)) / float(np.linalg.norm(_PACE_VEC))
    total += float((_PACE_ROWS @ _PACE_VEC.astype(np.float32)).max())
    return total + len(sorted(counts, key=lambda k: (-counts[k], k)))


class Pace:
    """Pace bursts between timed windows; ``window()`` ends a window and
    returns the factor that turns its raw time into nominal time. Each
    boundary between windows is the median of ``per_boundary`` bursts;
    pass more for a window of seconds, whose ends say less of its pace."""

    def __init__(self, per_boundary: int = 1):
        self.per_boundary = per_boundary
        self.bursts: list[float] = []
        self.mark()

    def boundary(self, count: int | None = None) -> float:
        times = []
        for _ in range(count or self.per_boundary):
            t0 = clock()
            _pace_work()
            times.append(clock() - t0)
        self.bursts += times
        return statistics.median(times)

    def mark(self, count: int | None = None) -> None:
        """Start a window (after untimed work)."""
        self.last = self.boundary(count)

    def window(self, count: int | None = None) -> float:
        before, self.last = self.last, self.boundary(count)
        return PACE_NOMINAL_S / ((before + self.last) / 2)

    def notes(self) -> dict:
        return {"pace_median_ms": 1000 * statistics.median(self.bursts),
                "pace_bursts": len(self.bursts)}


def read_queries(path) -> list[tuple[str, str]]:
    return [(q["id"], q["image_ref"]) for q in gen.read_jsonl(path)]


def item_json(item) -> dict:
    if item.prediction is None:
        return {"id": item.id, "error": item.error_code}
    pred = item.prediction
    return {
        "id": item.id, "label": pred.label, "fallback": pred.fallback,
        "ranked": [[b.candidate, b.visual, b.textual, b.fused] for b in pred.ranked],
        "retrieved": [[h.record.id, h.score] for h in pred.retrieved],
    }


def tail_latency(latencies: list[float]) -> dict:
    """The highest of p99/p95/p90 with at least ten samples beyond it."""
    lat = sorted(latencies)
    note = {"latency_samples": len(lat)}
    for pct in (99, 95, 90):
        if len(lat) * (100 - pct) >= 1000:
            note[f"latency_p{pct}_ms"] = 1000 * lat[int(pct / 100 * (len(lat) - 1))]
            break
    return note


def serialize(items) -> bytes:
    return "\n".join(json.dumps(item_json(i)) for i in items).encode()


class Workload:
    """One workload's set-up, timed round and checks.

    ``setup`` returns the state every later call takes; ``batch`` runs the
    workload's operations once over all of its inputs. A run repeats whole
    rounds, so every run attempts the same operations in the same shares.
    """

    setup_reps = 3  # per half of the run
    pace_bursts = 1  # pace bursts per window boundary

    def __init__(self, work: Path, url: str | None):
        self.work = work
        self.url = url
        # nominal (pace-scaled) and raw figures: items per second, one per
        # timed window, and seconds per call
        self.rates: list[float] = []
        self.latencies: list[float] = []
        self.raw_rates: list[float] = []
        self.raw_latencies: list[float] = []
        self.rounds = 0
        self.outputs = None  # a round's outputs, for the checks

    def end_to_end(self) -> dict:
        """Medians over windows and calls, so that a stretch of the run at
        another machine speed moves them less than a mean."""
        return {
            "throughput": (statistics.median(self.rates), "items/s"),
            "latency_p50_ms": (1000 * statistics.median(self.latencies), "ms"),
        }

    def notes(self) -> dict:
        return {**tail_latency(self.latencies), "rounds": self.rounds,
                "raw_throughput": statistics.median(self.raw_rates),
                "raw_latency_p50_ms": 1000 * statistics.median(self.raw_latencies)}

    def record(self, items: int, seconds: float, latencies: list[float],
               scale: float) -> None:
        """One timed window: ``items`` in ``seconds``, plus single calls."""
        self.rates.append(items / (seconds * scale))
        self.raw_rates.append(items / seconds)
        self.latencies += [x * scale for x in latencies]
        self.raw_latencies += latencies

    def fallback_count(self, outputs) -> int:
        return 0


class ClassifyWorkload(Workload):
    """Queries against a caption index: ``classify_batch`` over windows of
    the query list for throughput, and one ``classify`` per sampled query
    for latency. A round covers every query once."""

    latency_every = 4  # every 4th query is also timed as a single call
    window = 40  # queries per timed window

    def _classify_setup(self, index, provider) -> dict:
        return {
            "index": index, "provider": provider,
            "tagger": vcandidates.LexiconTagger(),
            "config": vscoring.ClassifierConfig(),
            "queries": read_queries(self.work / "queries.jsonl"),
        }

    def batch(self, st, queries=None):
        return vscoring.classify_batch(
            st["queries"] if queries is None else queries,
            st["index"], st["provider"], st["tagger"], st["config"])

    def classify(self, st, query):
        return vscoring.classify(query, st["index"], st["provider"], st["tagger"],
                                 st["config"])

    def warmup(self, st) -> None:
        for _, query in st["queries"][:50]:
            self.classify(st, query)

    def round(self, st, pace: Pace) -> tuple[int, int]:
        """One timed round over every query, in windows of ``window``
        queries: ``classify_batch`` on the window's queries, then one
        ``classify`` call for every fourth of them. Returns (attempted,
        failed)."""
        queries, outputs = st["queries"], []
        attempted = failed = 0
        for start in range(0, len(queries), self.window):
            chunk = queries[start:start + self.window]
            t0 = clock()
            items = self.batch(st, chunk)
            batch_s = clock() - t0
            latencies = []
            for _, query in chunk[::self.latency_every]:
                t0 = clock()
                try:
                    self.classify(st, query)
                except VfcError:
                    failed += 1
                latencies.append(clock() - t0)
            self.record(len(items), batch_s, latencies, pace.window())
            outputs += items
            failed += sum(i.error is not None for i in items)
            attempted += len(items) + len(latencies)
        self.outputs = self.outputs or outputs
        return attempted, failed

    def fallback_count(self, outputs) -> int:
        return sum(i.prediction is not None and i.prediction.fallback for i in outputs)

    # -- checks ------------------------------------------------------------

    def truths(self, items) -> list[str]:
        by_id = {t["id"]: t["label"] for t in gen.read_jsonl(self.work / "truths.jsonl")}
        return [by_id[i.id] for i in items]

    def planted_checks(self, st, items) -> tuple[list[str], dict]:
        """Checks shared by the workloads whose vectors were planted."""
        keys, matrix = gen.read_vfce(self.work / "store.vfce")
        row = {k: i for i, k in enumerate(keys)}
        index = st["index"]
        failures = checks.check_rows(
            index, {r.id: matrix[row[r.id]] for r in index.records})
        preds = [i.prediction for i in items]
        if any(p is None for p in preds):
            return failures + ["some queries failed"], {}
        qvecs = np.stack([matrix[row[q]] for _, q in st["queries"]])
        want = checks.oracle_topk(index, qvecs)
        got = [[h.record.id for h in p.retrieved] for p in preds]
        failures += checks.check_fused(preds, st["config"].alpha)
        accuracy = checks.label_accuracy([p.label for p in preds], self.truths(items))
        if accuracy < 0.95:
            failures.append(f"label accuracy {accuracy:.4f} < 0.95")
        return failures, {"got": got, "want": want, "qvecs": qvecs,
                          "label_accuracy": accuracy}


class PlantedSmall(ClassifyWorkload):
    setup_reps = 5

    def setup(self, wrap) -> dict:
        store = wrap(vembedding.load_store(self.work / "store.vfce"))
        records = vingestion.ingest_corpus(self.work / "corpus.jsonl", strict=True)
        index = vindex.build_index(records, store)
        return self._classify_setup(index, store)

    def check(self, st, items):
        failures, res = self.planted_checks(st, items)
        if not res:
            return failures, {}
        failures += checks.check_exact(res["got"], res["want"], "flat retrieval")
        return failures, {"label_accuracy": res["label_accuracy"],
                          "recall_at_10": checks.recall(res["got"], res["want"])}


class CorpusPartitioned(ClassifyWorkload):
    setup_reps = 1  # a set-up takes about 10 s
    window = 8

    def setup(self, wrap) -> dict:
        records = vingestion.ingest_corpus(self.work / "corpus.jsonl", strict=True)
        store = wrap(vembedding.load_store(self.work / "store.vfce"))
        index = vindex.build_index(records, store, structure="partitioned",
                                   num_partitions=PARTITIONS)
        del records
        path = self.work / "corpus.vfci"
        vindex.save_index(index, path)
        del index  # the CLI builds and classifies in separate processes
        return self._classify_setup(vindex.load_index(path), store)

    def check(self, st, items):
        failures, res = self.planted_checks(st, items)
        if not res:
            return failures, {}
        sample = range(0, len(st["queries"]), 8)
        exact = [[h.record.id for h in vindex.retrieve_topk(
            st["index"], res["qvecs"][i], checks.K, probes="all")] for i in sample]
        failures += checks.check_exact(exact, [res["want"][i] for i in sample],
                                       'probes="all" retrieval')
        return failures, {"label_accuracy": res["label_accuracy"],
                          "recall_at_10": checks.recall(res["got"], res["want"])}


class RemoteProvider(ClassifyWorkload):
    setup_reps = 2
    window = 8

    def setup(self, wrap) -> dict:
        client = wrap(vembedding.RemoteEmbeddingClient(self.url))
        records = vingestion.ingest_corpus(self.work / "corpus.jsonl", strict=True)
        index = vindex.build_index(records, client)
        return self._classify_setup(index, client)

    def check(self, st, items):
        """Provider equivalence: the same run over a store of the stub's
        vectors (computed by the benchmark) gives the same bytes."""
        keys, matrix = gen.read_vfce(self.work / "reference.vfce")
        row = {k: i for i, k in enumerate(keys)}
        index = st["index"]
        failures = checks.check_rows(
            index, {r.id: matrix[row[r.text]] for r in index.records})
        preds = [i.prediction for i in items]
        if any(p is None for p in preds):
            return failures + ["some queries failed"], {}
        want = checks.oracle_topk(
            index, np.stack([matrix[row[q]] for _, q in st["queries"]]))
        got = [[h.record.id for h in p.retrieved] for p in preds]
        failures += checks.check_exact(got, want, "flat retrieval")
        failures += checks.check_fused(preds, st["config"].alpha)
        store = vembedding.load_store(self.work / "reference.vfce")
        records = vingestion.ingest_corpus(self.work / "corpus.jsonl", strict=True)
        ref_st = dict(st, index=vindex.build_index(records, store), provider=store)
        reference = self.batch(ref_st)
        if serialize(reference) != serialize(items):
            failures.append("remote predictions differ from the store run")
        accuracy = checks.label_accuracy(
            [p.label for p in preds], [r.prediction.label for r in reference])
        return failures, {"label_accuracy": accuracy,
                          "recall_at_10": checks.recall(got, want)}


class EvalManyClasses(Workload):
    """``evaluate_predictions`` over every dataset; a round is one pass and
    each call is one timed window and one latency sample."""

    setup_reps = 5
    pace_bursts = 3  # a call lasts 0.3-1 s

    def __init__(self, work: Path, url: str | None):
        super().__init__(work, url)
        self.datasets = json.loads((work / "datasets.json").read_text())

    def setup(self, wrap) -> dict:
        sets = []
        for i in range(len(self.datasets)):
            pairs = vevaluation.load_predictions(self.work / f"predictions-{i}.jsonl")
            truths = vevaluation.load_truths(self.work / f"truths-{i}.jsonl")
            sets.append(vevaluation.join_predictions(pairs, truths))
        return {"sets": sets, "provider": wrap(vembedding.HashEmbedder(64))}

    def batch(self, st):
        return [vevaluation.evaluate_predictions(s, st["provider"]) for s in st["sets"]]

    def warmup(self, st) -> None:
        vevaluation.evaluate_predictions(st["sets"][0][:500], st["provider"])

    def round(self, st, pace: Pace) -> tuple[int, int]:
        """One timed round: each call is its own window; the round's
        throughput is its predictions over its summed nominal time."""
        reports, raw, nominal = [], 0.0, 0.0
        for labeled in st["sets"]:
            t0 = clock()
            reports.append(vevaluation.evaluate_predictions(labeled, st["provider"]))
            seconds = clock() - t0
            scale = pace.window()
            self.latencies.append(seconds * scale)
            self.raw_latencies.append(seconds)
            raw += seconds
            nominal += seconds * scale
        items = sum(len(s) for s in st["sets"])
        self.rates.append(items / nominal)
        self.raw_rates.append(items / raw)
        self.outputs = self.outputs or reports
        return len(reports), 0

    def check(self, st, reports):
        failures = []
        for spec, labeled, report in zip(self.datasets, st["sets"], reports):
            failures += checks.check_report(
                report, [p.predicted for p in labeled], [p.truth for p in labeled],
                st["provider"], spec["path"])
        weighted = sum(r.cluster_accuracy * r.sample_count for r in reports)
        # No retrieval happens here: recall_at_10 reads 1 so that every
        # workload reports the same metric set.
        return failures, {
            "label_accuracy": weighted / sum(r.sample_count for r in reports),
            "recall_at_10": 1.0,
        }


WORKLOADS = {
    "planted-small": PlantedSmall,
    "corpus-partitioned": CorpusPartitioned,
    "remote-provider": RemoteProvider,
    "eval-many-classes": EvalManyClasses,
}


def serialize_output(outputs) -> bytes:
    if outputs and hasattr(outputs[0], "to_dict"):
        return json.dumps([r.to_dict() for r in outputs]).encode()
    return serialize(outputs)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_plain(wl, seconds: float) -> dict:
    """Set-ups and timed rounds in two halves, so the measured time spreads
    over the whole run rather than one stretch of the machine's speed."""
    times: list[float] = []
    raw_times: list[float] = []
    attempted = failed = 0
    pace = Pace(wl.pace_bursts)
    for _ in range(SEGMENTS):
        st = wl.outputs = None
        for _ in range(wl.setup_reps):
            st = None
            gc.collect()
            pace.mark(SETUP_BURSTS)
            t0 = clock()
            st = wl.setup(lambda p: p)
            raw_times.append(clock() - t0)
            times.append(raw_times[-1] * pace.window(SETUP_BURSTS))
        wl.warmup(st)
        gc.collect()
        gc.freeze()
        pace.mark()
        start = clock()
        while True:
            a, f = wl.round(st, pace)
            wl.rounds += 1
            attempted += a
            failed += f
            if clock() - start >= seconds / SEGMENTS:
                break
        gc.unfreeze()
    rss = peak_rss_mb()
    failures, quality = wl.check(st, wl.outputs)
    metrics = {"setup_s": (statistics.median(times), "s"),
               **wl.end_to_end(),
               "peak_rss_mb": (rss, "MiB"),
               "label_accuracy": (quality.get("label_accuracy", 0.0), "ratio"),
               "recall_at_10": (quality.get("recall_at_10", 0.0), "ratio")}
    notes = {"setup_samples_s": times, "raw_setup_s": statistics.median(raw_times),
             **pace.notes(), **wl.notes()}
    return {"attempted": attempted, "failed": failed, "failures": failures,
            "metrics": metrics, "notes": notes}


def timed(fn):
    gc.collect()
    t0 = clock()
    out = fn()
    return out, clock() - t0


def run_traced(wl) -> dict:
    """One traced set-up, then passes over the workload's operations in the
    order untraced, traced, traced, untraced, so that a steady drift in the
    machine's speed cancels from the tracing overhead. The per-layer
    metrics come from the first traced pass, whose output must equal the
    untraced output byte for byte."""
    tracer = Tracer()
    with tracer.patched():
        st = wl.setup(tracer.provider)
    plain = dict(st, provider=st["provider"].inner)
    wl.warmup(plain)
    untraced, u1 = timed(lambda: wl.batch(plain))
    setup_spans = len(tracer.spans)
    with tracer.patched():
        traced, t1 = timed(lambda: wl.batch(st))
        mark = len(tracer.spans)
        traced2, t2 = timed(lambda: wl.batch(st))
        del tracer.spans[mark:]
    untraced2, u2 = timed(lambda: wl.batch(plain))
    same = serialize_output(untraced) == serialize_output(traced)
    failures, _ = wl.check(plain, traced)
    if not same:
        failures.append("prediction output differs with tracing on")
    metrics = layer_metrics(tracer.spans, wl.fallback_count(traced))
    metrics["trace.overhead_share"] = ((t1 + t2 - u1 - u2) / (u1 + u2), "ratio")
    passes = untraced + traced + traced2 + untraced2
    failed = sum(getattr(i, "error", None) is not None for i in passes)
    return {"attempted": len(passes), "failed": failed, "failures": failures,
            "metrics": metrics,
            "notes": {"identical_output": same, "untraced_pass_s": [u1, u2],
                      "traced_pass_s": [t1, t2], "setup_spans": setup_spans,
                      "pass_spans": mark - setup_spans}}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--work", required=True, type=Path)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--url")
    args = parser.parse_args()
    wl = WORKLOADS[args.workload](args.work, args.url)
    result = run_traced(wl) if args.trace else run_plain(wl, args.seconds)
    result["metrics"] = {k: {"value": float(v), "unit": u}
                         for k, (v, u) in result["metrics"].items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
