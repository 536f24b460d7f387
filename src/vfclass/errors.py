"""Typed errors shared across the engine.

Every error carries a stable machine-readable ``code`` so the CLI can emit
structured diagnostics on stderr without string-matching messages.
"""

from __future__ import annotations


class VfcError(Exception):
    """Base class for all engine errors."""

    code = "error"

    def __init__(self, message: str, code: str | None = None):
        super().__init__(message)
        if code is not None:
            self.code = code


class DimensionMismatchError(VfcError):
    code = "dimension-mismatch"


class ZeroVectorError(VfcError):
    code = "zero-vector"


class EmptyInputError(VfcError):
    code = "empty-input"


class ProviderUnavailableError(VfcError):
    code = "provider-unavailable"


class UnknownKeyError(VfcError):
    """A precomputed store has no entry for the requested key."""

    code = "unknown-image-ref"


class DuplicateIdError(VfcError):
    code = "duplicate-id"


class EmptyCorpusError(VfcError):
    code = "empty-corpus"


class EmptyIndexError(VfcError):
    code = "empty-index"


class CorruptFileError(VfcError):
    code = "corrupt-file"


class TaggerUnavailableError(VfcError):
    code = "tagger-unavailable"


class EmptyCandidateSetError(VfcError):
    """No token got through stages 1-2 and the part-of-speech filter, so
    stage 3 has neither a candidate nor a fallback name."""

    code = "empty-candidate-set"


class MissingTruthError(VfcError):
    code = "missing-truth"


class SchemaError(VfcError):
    code = "schema-violation"
