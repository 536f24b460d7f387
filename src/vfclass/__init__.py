"""Retrieval-based open-vocabulary classification over embedded caption corpora.

Pipeline: retrieve the nearest captions to a query embedding, extract
candidate category names from their text, embed the candidates, and fuse
image-to-text and text-to-text cosine similarities to pick a label. An
evaluation suite (cluster accuracy, semantic similarity, semantic IoU)
scores open-vocabulary predictions against ground truth.
"""

from .candidates import (
    CandidateSet,
    FilterConfig,
    LexiconTagger,
    extract_candidates,
    pos_tag,
    remove_noise,
    singularize,
    standardize,
)
from .embedding import (
    HashEmbedder,
    PrecomputedStore,
    RemoteEmbeddingClient,
    cosine_similarity,
    hashed_vector,
    load_store,
    normalize,
    save_store,
)
from .errors import VfcError
from .evaluation import (
    EvaluationReport,
    LabeledPrediction,
    aggregate_reports,
    cluster_accuracy,
    evaluate_predictions,
    ground_to_vocabulary,
    hungarian,
    semantic_iou,
    semantic_similarity,
)
from .index import (
    CaptionIndex,
    CaptionRecord,
    RetrievedCaption,
    build_index,
    exact_topk,
    load_index,
    retrieve_topk,
    save_index,
)
from .ingestion import (
    CorpusStats,
    DatasetManifest,
    canonical_jsonl,
    corpus_stats,
    ingest_corpus,
    load_manifest,
    save_manifest,
    validate_manifest,
    write_corpus,
)
from .scoring import (
    BatchItem,
    ClassifierConfig,
    Prediction,
    ScoreBreakdown,
    classify,
    classify_batch,
    fuse,
)

__version__ = "0.1.0"

__all__ = [
    "BatchItem",
    "CandidateSet",
    "CaptionIndex",
    "CaptionRecord",
    "ClassifierConfig",
    "CorpusStats",
    "DatasetManifest",
    "EvaluationReport",
    "FilterConfig",
    "HashEmbedder",
    "LabeledPrediction",
    "LexiconTagger",
    "PrecomputedStore",
    "Prediction",
    "RemoteEmbeddingClient",
    "RetrievedCaption",
    "ScoreBreakdown",
    "VfcError",
    "aggregate_reports",
    "build_index",
    "canonical_jsonl",
    "classify",
    "classify_batch",
    "cluster_accuracy",
    "corpus_stats",
    "cosine_similarity",
    "evaluate_predictions",
    "exact_topk",
    "extract_candidates",
    "fuse",
    "ground_to_vocabulary",
    "hashed_vector",
    "hungarian",
    "ingest_corpus",
    "load_index",
    "load_manifest",
    "load_store",
    "normalize",
    "pos_tag",
    "remove_noise",
    "retrieve_topk",
    "save_index",
    "save_manifest",
    "save_store",
    "semantic_iou",
    "semantic_similarity",
    "singularize",
    "standardize",
    "validate_manifest",
    "write_corpus",
]
