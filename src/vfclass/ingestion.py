"""Corpus and manifest I/O.

Caption corpora arrive as JSON-lines (``{"id", "text", "source"}``) or as
plain text with one caption per line (ids auto-assigned ``line-<n>``).
Malformed lines are skipped and logged with their line number; a strict
flag turns them into hard errors. Web-scale caption dumps are dirty, so
skip-and-report is the default.
"""

from __future__ import annotations

import json
import logging
import re
import sys
from collections import Counter
from dataclasses import asdict, dataclass, field
from functools import partial

from .candidates import FilterConfig, POS_CATEGORIES, caption_tokens, pos_tag
from .embedding import check_flag, text_lines, write_file
from .errors import EmptyInputError, SchemaError
from .index import CaptionRecord

log = logging.getLogger(__name__)


def ingest_corpus(path, fmt: str = "jsonl", strict: bool = False) -> list[CaptionRecord]:
    """Read caption records from ``path``.

    ``fmt`` is ``jsonl`` or ``plain``. Bad lines are logged and skipped
    unless ``strict`` is set, in which case the first one raises with its
    line number.
    """
    if fmt not in ("jsonl", "plain"):
        raise EmptyInputError(f"unknown corpus format {fmt!r}")
    check_flag(strict, "strict")
    skip = None if strict else partial(log.warning, "skipping %s")
    records: list[CaptionRecord] = []
    for lineno, line in text_lines(path, "corpus", skip):
        try:
            records.append(_parse_line(line, lineno, fmt))
        except SchemaError as err:
            if skip is None:
                raise
            skip(err)
    return records


# a JSON string or number token, so a number inside a string is not one
_JSON_TOKEN = re.compile(r'"(?:[^"\\]|\\.)*"|-?[0-9]+(?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?')
_SURROGATE = re.compile("[\ud800-\udfff]")  # left by a \\u escape that is not a pair


def _long_int(token: str) -> bool:
    """A JSON integer with more digits than ``int`` converts from a string
    (``json`` gives no position for it)."""
    digits = token.lstrip("-")
    return digits.isdigit() and len(digits) > sys.get_int_max_str_digits()


def _lone_surrogate(token: str) -> bool:
    """A JSON string whose escapes decode to a lone surrogate."""
    return token[0] == '"' and bool(_SURROGATE.search(json.loads(token)))


def _line_of(text: str, lineno: int, bad) -> int:
    """The line of the first JSON token in ``text`` that is ``bad``, or 0;
    ``lineno`` is the line of the first non-blank character of ``text``."""
    at = next((t.start() for t in _JSON_TOKEN.finditer(text) if bad(t[0])), None)
    start = len(text) - len(text.lstrip())
    return 0 if at is None else lineno + text.count("\n", start, at)


def json_object(text: str, what: str, lineno: int) -> dict:
    """Parse ``text``, JSON that must hold an object, from ``what`` line
    ``lineno``, the line of its first non-blank character. A fault is named
    at that line; an over-long integer, or a string that decodes to a lone
    surrogate, at its own."""
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also too long or too deep
        if type(exc) is ValueError:  # an integer over the digit limit
            lineno = _line_of(text, lineno, _long_int) or lineno
        raise SchemaError(f"{what} line {lineno}: invalid JSON ({exc})") from exc
    if not isinstance(obj, dict):
        raise SchemaError(f"{what} line {lineno}: expected a JSON object")
    # only an escape decodes to a surrogate: valid UTF-8 text holds none
    if "\\u" in text and (bad := _line_of(text, lineno, _lone_surrogate)):
        raise SchemaError(f"{what} line {bad}: a \\u escape decodes to a lone "
                          "surrogate, which is not valid UTF-8")
    return obj


def _parse_line(line: str, lineno: int, fmt: str) -> CaptionRecord:
    if fmt == "plain":
        return CaptionRecord(id=f"line-{lineno}", text=line.strip(), source="plain")
    obj = json_object(line, "corpus", lineno)
    rid = obj.get("id")
    text = obj.get("text")
    if not isinstance(rid, str) or not rid:
        raise SchemaError(f"corpus line {lineno}: missing or empty 'id'")
    if not isinstance(text, str) or not text.strip():
        raise SchemaError(f"corpus line {lineno}: missing or empty 'text'")
    source = obj.get("source", "")
    if not isinstance(source, str):
        raise SchemaError(f"corpus line {lineno}: 'source' must be a string")
    return CaptionRecord(id=rid, text=text, source=source)


def canonical_jsonl(records) -> str:
    """Serialize records to the canonical byte layout (fixed field order)."""
    lines = []
    for rec in records:
        lines.append(
            json.dumps(
                {"id": rec.id, "text": rec.text, "source": rec.source},
                ensure_ascii=False,
            )
        )
    return "\n".join(lines) + ("\n" if lines else "")


def write_corpus(records, path) -> None:
    write_file(path, canonical_jsonl(records))


@dataclass
class CorpusStats:
    caption_count: int
    token_count: int
    unique_word_count: int
    pos_percentages: dict[str, float]

    def to_dict(self) -> dict:
        return asdict(self)


def corpus_stats(records, tagger, config: FilterConfig | None = None) -> CorpusStats:
    """Token counts and POS distribution of every caption's :func:`caption_tokens`."""
    if not records:
        raise EmptyInputError("corpus is empty")
    config = config or FilterConfig()
    tokens: Counter[str] = Counter()
    for rec in records:
        tokens.update(caption_tokens(rec.text, config))
    pos_counts: Counter[str] = Counter()
    for tok, n in tokens.items():
        pos_counts[pos_tag(tok, tagger)] += n
    total = tokens.total()
    if total:
        percentages = {
            cat: 100.0 * pos_counts.get(cat, 0) / total for cat in POS_CATEGORIES
        }
    else:
        percentages = {cat: 0.0 for cat in POS_CATEGORIES}
    return CorpusStats(
        caption_count=len(records),
        token_count=total,
        unique_word_count=len(tokens),
        pos_percentages=percentages,
    )


@dataclass(frozen=True)
class ManifestEntry:
    id: str
    ref: str
    label: str
    ref_kind: str = "image_ref"  # or "embedding_ref"


@dataclass
class DatasetManifest:
    name: str
    embedder_identity: str
    entries: list[ManifestEntry] = field(default_factory=list)


def load_manifest(path) -> DatasetManifest:
    """Read a dataset manifest (JSON document) and validate its schema."""
    lines = dict(text_lines(path, "manifest"))
    # blank lines put back, so the decoder's line numbers are the file's
    text = "\n".join(lines.get(n, "") for n in range(1, max(lines, default=0) + 1))
    doc = json_object(text, "manifest", min(lines, default=1))
    if not isinstance(doc.get("entries"), list):
        raise SchemaError("manifest must be an object with an 'entries' list")
    name = doc.get("name", "")
    embedder = doc.get("embedder", "")
    for key, value in (("name", name), ("embedder", embedder)):
        if not isinstance(value, str):
            raise SchemaError(f"manifest '{key}' must be a string, got {value!r:.60}")
    entries: list[ManifestEntry] = []
    seen: set[str] = set()
    for pos, raw in enumerate(doc["entries"]):
        if not isinstance(raw, dict):
            raise SchemaError(f"entry {pos} is not an object")
        eid = raw.get("id")
        label = raw.get("label")
        if not isinstance(eid, str) or not eid:
            raise SchemaError(f"entry {pos}: missing or empty 'id'")
        if eid in seen:
            raise SchemaError(f"entry {pos}: duplicate id {eid!r}")
        seen.add(eid)
        if not isinstance(label, str) or not label:
            raise SchemaError(f"entry {pos}: missing or empty 'label'")
        if "image_ref" in raw:
            ref, kind = raw["image_ref"], "image_ref"
        elif "embedding_ref" in raw:
            ref, kind = raw["embedding_ref"], "embedding_ref"
        else:
            raise SchemaError(
                f"entry {pos}: need one of 'image_ref' or 'embedding_ref'"
            )
        if not isinstance(ref, str) or not ref:
            raise SchemaError(f"entry {pos}: ref must be a non-empty string")
        entries.append(ManifestEntry(eid, ref, label, kind))
    return DatasetManifest(name=name, embedder_identity=embedder, entries=entries)


def save_manifest(manifest: DatasetManifest, path) -> None:
    doc = {
        "name": manifest.name,
        "embedder": manifest.embedder_identity,
        "entries": [
            {"id": e.id, e.ref_kind: e.ref, "label": e.label}
            for e in manifest.entries
        ],
    }
    write_file(path, json.dumps(doc, ensure_ascii=False, indent=2), "\n")


def validate_manifest(manifest: DatasetManifest, store) -> list[str]:
    """Return ids of entries whose refs are not keys of ``store``."""
    return [entry.id for entry in manifest.entries if entry.ref not in store]
