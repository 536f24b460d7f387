"""Embedding-space primitives and the providers that produce vectors.

The engine never runs a model itself: every vector enters through a
provider. Two providers are shipped:

- :class:`PrecomputedStore`, a binary dump of vectors keyed by string
  (caption id, caption text, image ref, or candidate word), used for tests
  and offline runs. File format ``VFCE``, see :func:`save_store`.
- :class:`RemoteEmbeddingClient`, an HTTP client speaking a small JSON
  contract (``{"inputs": [...], "modality": "text"|"image"}``), used for
  live runs against an embedding service. It caches the vectors of the
  last ``TEXT_CACHE_ROWS`` texts it used, which assumes the service's text
  vectors stay fixed for the client's lifetime, as a frozen
  vision-language model's do. Image refs are sent on every call.

Vectors are stored at float32; all similarity math runs at float64.
Every file the package writes goes through :func:`write_file`.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import numbers
import os
import secrets
import struct
import threading
import zlib
from collections import OrderedDict
from typing import Iterable, Sequence

import numpy as np
import requests

from .errors import (
    CorruptFileError,
    DimensionMismatchError,
    EmptyInputError,
    ProviderUnavailableError,
    SchemaError,
    UnknownKeyError,
    VfcError,
    ZeroVectorError,
)

STORE_MAGIC = b"VFCE"
STORE_VERSION = 1
DTYPE_F32 = 0
EMBED_CHUNK = 1024  # inputs per provider call when embedding in bulk
TEXT_CACHE_ROWS = 4 * EMBED_CHUNK  # text vectors a remote client keeps


def is_count(value, low: int = 1) -> bool:
    """True for an ``int`` >= ``low`` that is not a ``bool``."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= low


def is_real(value) -> bool:
    """True for a real number that is not a ``bool``."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _as_float64(values, name: str, shape: str) -> np.ndarray:
    try:
        return np.asarray(values, dtype=np.float64)
    except OverflowError as exc:  # an int beyond float64 is as bad as 1e400
        raise EmptyInputError(f"{name} contains non-finite values ({exc})") from exc
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{name} is not a numeric {shape}: {exc}") from exc


def as_vector(values, name: str = "vector") -> np.ndarray:
    """Coerce to a 1-D float64 array, rejecting NaN/Inf and empty input;
    non-numeric values are a :class:`SchemaError`."""
    arr = _as_float64(values, name, "vector")
    if arr.ndim != 1 or arr.size == 0:
        raise EmptyInputError(f"{name} must be a non-empty 1-D sequence")
    if not np.all(np.isfinite(arr)):
        raise EmptyInputError(f"{name} contains non-finite values")
    return arr


def as_matrix(
    values, name: str = "matrix", dim: int | None = None, count: int | None = None
) -> np.ndarray:
    """Coerce to a non-empty ``count x dim`` float64 array of finite values.

    Providers may hand back a list of equal-length vectors or a 2-D array;
    ragged rows or non-numeric values are a :class:`SchemaError`, and a reply
    without ``count`` rows is a :class:`ProviderUnavailableError`.
    """
    arr = _as_float64(values, name, "matrix")
    if count is not None and arr.ndim and len(arr) != count:
        raise ProviderUnavailableError(
            f"{name}: provider returned {len(arr)} vectors for {count}"
        )
    if arr.ndim != 2 or arr.size == 0:
        raise EmptyInputError(f"{name} must be a non-empty count x dim matrix")
    if dim is not None and arr.shape[1] != dim:
        raise DimensionMismatchError(
            f"{name}: rows have dim {arr.shape[1]}, expected {dim}"
        )
    if not np.isfinite(arr).all():
        raise EmptyInputError(f"{name}: non-finite values")
    return arr


def _embed_chunks(embed, inputs: Sequence, name: str, dim: int | None = None):
    """Checked float64 rows of ``dim`` (if given, else the first chunk's)
    for ``inputs``, one matrix per call of ``embed``, a bound provider
    method such as ``provider.embed_texts``, on ``EMBED_CHUNK`` inputs in
    order. A chunk of another dim is a :class:`DimensionMismatchError`.

    A provider fault that is not a :class:`VfcError` is a
    :class:`ProviderUnavailableError`, so it fails like a service fault.
    """
    for start in range(0, len(inputs), EMBED_CHUNK):
        chunk = inputs[start : start + EMBED_CHUNK]
        try:
            vectors = embed(chunk)
        except VfcError:
            raise
        except Exception as exc:
            raise ProviderUnavailableError(
                f"{name}: provider failed: {exc!r}"
            ) from exc
        matrix = as_matrix(vectors, name, dim, count=len(chunk))
        dim = matrix.shape[1]
        yield matrix


def embed_rows(embed, inputs: Sequence[str], name: str) -> np.ndarray:
    """The rows of :func:`_embed_chunks` as one matrix; no inputs, no call."""
    rows = list(_embed_chunks(embed, inputs, name))
    return np.concatenate(rows) if rows else np.empty((0, 0))


def row_norms(matrix: np.ndarray, keys: Sequence[str], name: str) -> np.ndarray:
    """Euclidean norms of ``matrix``'s rows; a zero row raises
    :class:`ZeroVectorError` naming its key."""
    norms = np.linalg.norm(matrix, axis=1)
    if not norms.all():
        key = keys[int(np.argmin(norms))]
        raise ZeroVectorError(f"{name}: the vector for {key!r} is a zero vector")
    return norms


def normalize(v) -> np.ndarray:
    """Scale ``v`` to unit Euclidean norm, preserving direction."""
    arr = as_vector(v)
    norm = float(np.linalg.norm(arr))
    if norm == 0.0:
        raise ZeroVectorError("cannot normalize a zero vector")
    return arr / norm


def cosine_similarity(a, b) -> float:
    """Cosine of the angle between ``a`` and ``b``, clamped to [-1, 1]."""
    va = as_vector(a, "a")
    vb = as_vector(b, "b")
    if va.shape[0] != vb.shape[0]:
        raise DimensionMismatchError(
            f"dimension mismatch: {va.shape[0]} vs {vb.shape[0]}"
        )
    na = float(np.linalg.norm(va))
    nb = float(np.linalg.norm(vb))
    if na == 0.0 or nb == 0.0:
        raise ZeroVectorError("cosine similarity undefined for zero vectors")
    value = float(np.dot(va, vb) / (na * nb))
    return max(-1.0, min(1.0, value))


def hashed_vector(text: str, modality: str = "text", dim: int = 64) -> np.ndarray:
    """Deterministic unit vector derived from SHA-256 of the input.

    The same (text, modality, dim) triple always yields the same vector,
    independent of platform or library version. Used by the stub embedding
    service and as the offline default for semantic-similarity scoring.
    """
    if not is_count(dim):
        raise EmptyInputError(f"dim must be an integer >= 1, got {dim!r}")
    seed = f"{modality}\x00{text}".encode("utf-8")
    digests = [
        hashlib.sha256(seed + b"\x00" + str(block).encode()).digest()
        for block in range(-(-dim // 4))
    ]
    # 4 eight-byte words per digest, mapped into (-1, 1)
    words = np.frombuffer(b"".join(digests), "<u8")[:dim]
    return normalize(words / 2.0**64 * 2.0 - 1.0)


def _check_texts(texts: Sequence[str]) -> list[str]:
    if not texts:
        raise EmptyInputError("texts must be non-empty")
    cleaned = []
    for t in texts:
        if not isinstance(t, str) or not t.strip():
            raise EmptyInputError("each text must be a non-empty string")
        cleaned.append(t)
    return cleaned


def _check_refs(refs: Sequence[str]) -> list[str]:
    refs = list(refs)
    if not refs or not all(refs):
        raise EmptyInputError("image_ref must be non-empty")
    return refs


class PrecomputedStore:
    """Embedding provider backed by an in-memory table of named vectors.

    Keys are free-form strings: caption ids, caption texts, image refs, or
    candidate words. ``embed_texts`` resolves each input string as a key;
    ``embed_images`` and ``embed_image`` resolve refs the same way.
    """

    def __init__(self, dim: int, identity: str = "precomputed"):
        if not is_count(dim):
            raise EmptyInputError(f"dim must be an integer >= 1, got {dim!r}")
        self.dim = dim
        self.identity = identity
        self._keys: list[str] = []
        self._rows: dict[str, int] = {}
        self._chunks: list[np.ndarray] = []
        self._matrix: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, key: str) -> bool:
        return key in self._rows

    def keys(self) -> list[str]:
        return list(self._keys)

    def add(self, key: str, vector) -> None:
        """Register ``vector`` under ``key``; later adds overwrite."""
        arr = as_vector(vector, f"vector for {key!r}")
        if arr.shape[0] != self.dim:
            raise DimensionMismatchError(
                f"vector for {key!r} has dim {arr.shape[0]}, store dim {self.dim}"
            )
        row = arr.astype(np.float32)[None, :]
        if key in self._rows:
            self._materialize()
            self._matrix[self._rows[key]] = row[0]
            return
        self._rows[key] = len(self._keys)
        self._keys.append(key)
        self._chunks.append(row)
        self._matrix = None

    def add_many(self, items: Iterable[tuple[str, np.ndarray]]) -> None:
        for key, vec in items:
            self.add(key, vec)

    def _materialize(self) -> np.ndarray:
        if self._matrix is None:
            if self._chunks:
                self._matrix = np.concatenate(self._chunks, axis=0)
            else:
                self._matrix = np.empty((0, self.dim), dtype=np.float32)
            self._chunks = [self._matrix]
        return self._matrix

    def vector(self, key: str) -> np.ndarray:
        return self._gather([key])[0]

    def _gather(self, keys: list[str]) -> np.ndarray:
        missing = [k for k in keys if k not in self._rows]
        if missing:
            raise UnknownKeyError(
                f"store has no embedding for {len(missing)} key(s), "
                f"first missing: {missing[0]!r}"
            )
        return self._materialize()[[self._rows[k] for k in keys]].astype(np.float64)

    def embed_texts(self, texts: Sequence[str]) -> np.ndarray:
        return self._gather(_check_texts(texts))

    def embed_images(self, image_refs: Sequence[str]) -> np.ndarray:
        return self._gather(_check_refs(image_refs))

    def embed_image(self, image_ref: str) -> np.ndarray:
        return self.embed_images([image_ref])[0]

    def embed_records(self, ids: Sequence[str], texts: Sequence[str]) -> np.ndarray:
        """Resolve caption embeddings by id when present, else by text."""
        return self._gather(
            [rid if rid in self._rows else text for rid, text in zip(ids, texts)]
        )


def pack_string(value: str) -> bytes:
    """A u32 LE byte length followed by the UTF-8 bytes of ``value``."""
    encoded = value.encode("utf-8")
    return struct.pack("<I", len(encoded)) + encoded


def store_payload(dim: int, rows: np.ndarray, keys: Sequence[str]) -> bytes:
    """Serialize ``rows`` (count x dim) keyed by ``keys`` to the ``VFCE`` layout."""
    parts = [
        struct.pack("<4sIIQB", STORE_MAGIC, STORE_VERSION, dim, len(keys), DTYPE_F32),
        rows.astype("<f4").tobytes(),
    ]
    parts.extend(pack_string(key) for key in keys)
    return b"".join(parts)


def write_file(path, *parts) -> None:
    """Write ``parts`` (``bytes``, or ``str`` as UTF-8) to a new file beside
    ``path``, sync it and let it replace ``path`` (a symlink's target), so a
    failed write leaves the old file and no partial one. A path that is not
    a regular file, such as a pipe or ``/dev/stdout``, is written in place."""
    encoded = (p.encode("utf-8") if isinstance(p, str) else p for p in parts)
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "wb") as fh:
            fh.writelines(encoded)
        return
    path = os.path.realpath(path)
    tmp = f"{path}.{secrets.token_hex(4)}.tmp"
    try:
        with open(tmp, "xb") as fh:
            fh.writelines(encoded)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def text_lines(path, what: str, skip=None):
    """Yield ``(lineno, line)``, without its end (``\\n``, ``\\r\\n`` or
    ``\\r``), for each non-blank line of the UTF-8 text file at ``path``;
    blank lines are numbered too. A line that is not UTF-8 is a SchemaError
    naming ``what`` and the line, raised or, if given, passed to ``skip``."""
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.isspace():
                continue
            try:  # an undecodable byte was kept as a lone surrogate
                line.encode("utf-8")
            except UnicodeEncodeError:
                err = SchemaError(f"{what} line {lineno}: not valid UTF-8")
                if skip is None:
                    raise err from None
                skip(err)
            else:
                yield lineno, line.rstrip("\n")


def save_store(store: PrecomputedStore, path) -> None:
    write_file(path, store_payload(store.dim, store._materialize(), store.keys()))


class _Reader:
    """Cursor over a byte buffer that fails loudly on truncation."""

    def __init__(self, data: bytes, offset: int = 0):
        self.data = data
        self.offset = offset

    def take(self, n: int) -> bytes:
        if self.offset + n > len(self.data):
            raise CorruptFileError("unexpected end of file")
        chunk = self.data[self.offset : self.offset + n]
        self.offset += n
        return chunk

    def u8(self) -> int:
        return self.take(1)[0]

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self.take(8))[0]

    def string(self) -> str:
        length = self.u32()
        try:
            return self.take(length).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CorruptFileError("malformed UTF-8 in key table") from exc


def read_store_payload(reader: _Reader) -> tuple[int, np.ndarray, list[str]]:
    """Parse one ``VFCE`` payload into (dim, float32 rows, keys)."""
    magic = reader.take(4)
    if magic != STORE_MAGIC:
        raise CorruptFileError(f"bad magic {magic!r}, expected {STORE_MAGIC!r}")
    version = reader.u32()
    if version != STORE_VERSION:
        raise CorruptFileError(f"unsupported store version {version}")
    dim = reader.u32()
    count = reader.u64()
    dtype = reader.u8()
    if dtype != DTYPE_F32:
        raise CorruptFileError(f"unsupported dtype code {dtype}")
    if dim == 0:
        raise CorruptFileError("store declares dim 0")
    rows = np.frombuffer(reader.take(count * dim * 4), dtype="<f4").reshape(count, dim)
    keys = [reader.string() for _ in range(count)]
    if len(set(keys)) != len(keys):
        raise CorruptFileError("duplicate keys in store file")
    return dim, np.array(rows, dtype=np.float32), keys


def load_store(path, identity: str | None = None) -> PrecomputedStore:
    with open(path, "rb") as fh:
        data = fh.read()
    reader = _Reader(data)
    dim, rows, keys = read_store_payload(reader)
    if reader.offset != len(data):
        raise CorruptFileError("trailing bytes after store payload")
    store = PrecomputedStore(dim, identity=identity or "precomputed")
    store._keys = keys
    store._rows = {k: i for i, k in enumerate(keys)}
    store._matrix = rows
    store._chunks = [rows]
    return store


class RemoteEmbeddingClient:
    """Embedding provider speaking the remote HTTP JSON contract.

    POSTs ``{"inputs": [...], "modality": "text"|"image"}`` to ``base_url``
    and expects ``{"dim": N, "vectors": [[...], ...]}``. The dimension is
    pinned on the first successful response (or up front via ``dim``) and
    any later deviation is a hard error. Every call goes through one
    ``requests.Session``, so calls reuse a kept-alive connection.

    Returned vectors are quantized to float32 (the engine's storage
    precision) so a live run is bit-identical to a run against the same
    vectors dumped to a binary store.

    ``embed_texts`` keeps the float32 rows of the last ``TEXT_CACHE_ROWS``
    distinct texts it was asked for, least recently used out first, and
    sends only the texts it does not hold. This assumes the service's text
    vectors stay fixed for the client's lifetime, as a frozen
    vision-language model's do. A failed call caches nothing. Image refs
    are not cached: a ref names content the client cannot see.
    """

    def __init__(
        self,
        base_url: str,
        dim: int | None = None,
        timeout: float = 10.0,
        identity: str | None = None,
    ):
        if dim is not None and not is_count(dim):
            raise EmptyInputError(f"dim must be an integer >= 1, got {dim!r}")
        if not (is_real(timeout) and 0 < timeout < math.inf):
            raise EmptyInputError(
                f"timeout must be a finite number of seconds > 0, got {timeout!r}"
            )
        self.base_url = base_url
        self.dim = dim
        self.timeout = timeout
        self.identity = identity or f"remote:{base_url}"
        self._session = requests.Session()  # one kept-alive connection
        self._texts: OrderedDict[str, np.ndarray] = OrderedDict()
        self._texts_lock = threading.Lock()  # a client may serve many threads

    def _post(self, inputs: Sequence[str], modality: str) -> np.ndarray:
        try:
            resp = self._session.post(
                self.base_url,
                json={"inputs": list(inputs), "modality": modality},
                timeout=self.timeout,
            )
            resp.raise_for_status()
            body = resp.json()
        except requests.RequestException as exc:
            raise ProviderUnavailableError(
                f"embedding service at {self.base_url} unavailable: {exc}"
            ) from exc
        except ValueError as exc:
            raise ProviderUnavailableError(
                f"embedding service returned invalid JSON: {exc}"
            ) from exc
        if not isinstance(body, dict):
            raise ProviderUnavailableError("embedding service reply is not an object")
        dim = body.get("dim")
        vectors = body.get("vectors")
        if not is_count(dim) or not isinstance(vectors, list):
            raise ProviderUnavailableError("malformed response from embedding service")
        if self.dim is None:
            self.dim = dim
        if dim != self.dim:
            raise DimensionMismatchError(
                f"service returned dim {dim}, expected {self.dim}"
            )
        matrix = as_matrix(vectors, "service vectors", self.dim, count=len(inputs))
        return matrix.astype(np.float32)

    def embed_texts(self, texts: Sequence[str]) -> np.ndarray:
        texts = _check_texts(texts)
        with self._texts_lock:
            found = {t: self._texts[t] for t in texts if t in self._texts}
            for text in found:
                self._texts.move_to_end(text)
        misses = [t for t in dict.fromkeys(texts) if t not in found]
        if misses:
            rows = self._post(misses, "text")
            # own copies: a cached view would keep the whole reply alive
            fetched = {t: row.copy() for t, row in zip(misses, rows)}
            found.update(fetched)
            with self._texts_lock:
                self._texts.update(fetched)
                while len(self._texts) > TEXT_CACHE_ROWS:
                    self._texts.popitem(last=False)
        return np.array([found[t] for t in texts], dtype=np.float64)

    def embed_images(self, image_refs: Sequence[str]) -> np.ndarray:
        return self._post(_check_refs(image_refs), "image").astype(np.float64)

    def embed_image(self, image_ref: str) -> np.ndarray:
        return self.embed_images([image_ref])[0]


class HashEmbedder:
    """Offline provider producing :func:`hashed_vector` embeddings.

    Identical inputs always map to identical vectors, which makes it the
    deterministic default for text-similarity scoring without a service.
    """

    def __init__(self, dim: int = 64):
        if not is_count(dim):
            raise EmptyInputError(f"dim must be an integer >= 1, got {dim!r}")
        self.dim = dim
        self.identity = f"hash-v1:{dim}"

    def embed_texts(self, texts: Sequence[str]) -> np.ndarray:
        return np.array(
            [hashed_vector(t, "text", self.dim) for t in _check_texts(texts)]
        )

    def embed_images(self, image_refs: Sequence[str]) -> list[np.ndarray]:
        return [hashed_vector(r, "image", self.dim) for r in _check_refs(image_refs)]

    def embed_image(self, image_ref: str) -> np.ndarray:
        return self.embed_images([image_ref])[0]


def body_crc(data: bytes) -> int:
    return zlib.crc32(data) & 0xFFFFFFFF
