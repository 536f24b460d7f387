"""Embedding-space primitives and the providers that produce vectors.

The engine never runs a model itself: every vector enters through a
provider. A provider has ``dim`` (a remote client's is None until its
first reply), ``embed_texts(texts)`` and ``embed_images(refs)``, one
vector per input in order, and may have ``embed_records(ids, texts)``,
one per caption, for a store keyed by caption id. Each method takes a
non-empty sequence of ``str`` that is not itself a ``str``
(:func:`_check_inputs`), and the engine checks each reply once
(:func:`as_matrix`). The shipped providers, each with ``embed_image(ref)``
too, are :class:`PrecomputedStore` (vectors keyed by string, dumped to
``VFCE`` files, see :func:`save_store`), :class:`RemoteEmbeddingClient`
(an HTTP client of an embedding service) and :class:`HashEmbedder`
(hash-derived vectors, for offline runs).

Vectors are stored at float32; all similarity math runs at float64.
Every file the package writes goes through :func:`write_file`.
"""

from __future__ import annotations

import base64
import contextlib
import hashlib
import http.client
import json
import math
import numbers
import os
import secrets
import struct
import threading
import weakref
import zlib
from collections import OrderedDict
from collections.abc import Iterable, Sequence
from itertools import chain
from urllib.parse import urlsplit

import numpy as np

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


def check_count(value, name: str, low: int = 1):
    """``value`` if :func:`is_count` holds for it, else an
    :class:`EmptyInputError` naming ``name``."""
    if not is_count(value, low):
        raise EmptyInputError(f"{name} must be an integer >= {low}, got {value!r}")
    return value


def check_flag(value, name: str):
    """``value`` if it is a ``bool``, else an :class:`EmptyInputError`."""
    if not isinstance(value, bool):
        raise EmptyInputError(f"{name} must be True or False, got {value!r}")
    return value


def check_timeout(value):
    """``value`` if it is a finite number of seconds > 0, else an
    :class:`EmptyInputError`."""
    if not (is_real(value) and 0 < value < math.inf):
        raise EmptyInputError(
            f"timeout must be a finite number of seconds > 0, got {value!r}"
        )
    return value


def _as_float64(values, name: str, shape: str) -> np.ndarray:
    """``values`` as float64; what numpy reads as bools, strings or bytes
    (also inside an array of objects, as a list holding an int beyond int64
    is, or among a list's numbers, as 1.0 or 0.0) is a :class:`SchemaError`."""
    try:
        arr = np.asarray(values)
        items = values
        for _ in range(arr.ndim - 1):  # the items of nested sequences, read lazily
            items = chain.from_iterable(items)
        if arr.dtype.kind in "bSU" or arr.dtype.kind == "O" and any(
                isinstance(v, (str, bytes, bool, np.bool_)) for v in arr.flat) or (
                arr.ndim and isinstance(values, (list, tuple))
                and not {bool, np.bool_}.isdisjoint(map(type, items))):
            raise SchemaError(f"{name} is not a numeric {shape}: it holds "
                              f"bools, strings or bytes")
        return arr.astype(np.float64, copy=False)
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


def _as_float32(values: np.ndarray, name: str) -> np.ndarray:
    """Finite, non-empty float64 ``values`` as float32; a value beyond
    float32's range, which the cast would make infinite, is an
    :class:`EmptyInputError`."""
    # the cast rounds to nearest, ties to even: from 2**128 - 2**103, half
    # an ulp above float32's largest value, a value rounds to inf
    if np.abs(values).max() >= 2.0**128 - 2.0**103:
        raise EmptyInputError(f"{name} has values beyond float32's range")
    return values.astype(np.float32)


def encode_base64(rows) -> list[str]:
    """One string per row of ``rows``, float64 values: the base64 of the
    row's little-endian float32 bytes, cast as :func:`_as_float32` casts,
    to nearest, ties to even. :func:`decode_base64` reads them back."""
    rows = np.asarray(rows, dtype=np.float64).astype("<f4")
    return [base64.b64encode(row.tobytes()).decode("ascii") for row in rows]


def decode_base64(strings: list, name: str, dim: int, count: int) -> np.ndarray:
    """The ``count x dim`` float32 rows of ``strings``, each the base64 of
    one row's little-endian float32 bytes (:func:`encode_base64`). Each
    fault raises what :func:`as_matrix` raises for it in number lists:
    other than ``count`` strings a :class:`ProviderUnavailableError`, a
    string that is not base64 a :class:`SchemaError`, one of other than
    ``dim`` values a :class:`DimensionMismatchError` and a NaN or inf an
    :class:`EmptyInputError`."""
    if len(strings) != count:
        raise ProviderUnavailableError(
            f"{name}: provider returned {len(strings)} vectors for {count}"
        )
    try:
        rows = [base64.b64decode(s, validate=True) for s in strings]
    except ValueError as exc:  # binascii.Error, or a character beyond ASCII
        raise SchemaError(f"{name} is not base64 float32: {exc}") from exc
    for row in rows:
        if len(row) != 4 * dim:
            raise DimensionMismatchError(
                f"{name}: a row of {len(row)} bytes, expected {4 * dim} for dim {dim}"
            )
    matrix = np.frombuffer(b"".join(rows), dtype="<f4").reshape(count, dim)
    if not np.isfinite(matrix).all():
        raise EmptyInputError(f"{name}: non-finite values")
    return matrix


def _embed_chunks(embed, inputs: Sequence, name: str, dim: int | None = None):
    """Checked float64 rows of ``dim`` (if given, else the first chunk's)
    for ``inputs``, one :func:`_embed_chunk` per ``EMBED_CHUNK`` inputs in
    order; a chunk of another dim is a :class:`DimensionMismatchError`."""
    for start in range(0, len(inputs), EMBED_CHUNK):
        matrix = _embed_chunk(embed, inputs[start : start + EMBED_CHUNK], name, dim)
        dim = matrix.shape[1]
        yield matrix


def _embed_chunk(embed, chunk: Sequence, name: str, dim: int | None = None):
    """:func:`as_matrix` of one call of ``embed``, a bound provider method
    such as ``provider.embed_texts``, on ``chunk``; a provider fault that is
    not a :class:`VfcError` is a :class:`ProviderUnavailableError`."""
    try:
        vectors = embed(chunk)
    except VfcError:
        raise
    except Exception as exc:
        raise ProviderUnavailableError(f"{name}: provider failed: {exc!r}") from exc
    return as_matrix(vectors, name, dim, count=len(chunk))


def embed_rows(embed, inputs: Sequence[str], name: str) -> np.ndarray:
    """The rows of :func:`_embed_chunks` as one matrix; no inputs, no call."""
    if len(inputs) > EMBED_CHUNK:
        return np.concatenate(list(_embed_chunks(embed, inputs, name)))
    return _embed_chunk(embed, inputs, name) if inputs else np.empty((0, 0))


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
    check_count(dim, "dim")
    seed = f"{modality}\x00{text}".encode("utf-8")
    digests = [
        hashlib.sha256(seed + b"\x00" + str(block).encode()).digest()
        for block in range(-(-dim // 4))
    ]
    # 4 eight-byte words per digest, mapped into (-1, 1): finite, and each
    # 0.0 with a chance of about 2**-53, so the norm needs no check
    words = np.frombuffer(b"".join(digests), "<u8")[:dim]
    raw = words / 2.0**64 * 2.0 - 1.0
    return raw / float(np.linalg.norm(raw))


def _check_inputs(items, modality: str) -> list[str]:
    """``items`` as a list if it is a non-empty sequence of ``str`` that is
    not itself a ``str``, with no blank input (for ``"text"``, one of only
    whitespace; for ``"image"``, ""); else an :class:`EmptyInputError`."""
    text = modality == "text"
    if not isinstance(items, str) and isinstance(items, Sequence):
        for item in items:  # one pass: this runs on every provider call
            if not isinstance(item, str):
                break
            if not (item.strip() if text else item):
                raise EmptyInputError("each text must be a non-empty string" if text
                                      else "image_ref must be non-empty")
        else:
            if items:
                return list(items)
            raise EmptyInputError("texts must be non-empty" if text
                                  else "image_ref must be non-empty")
    raise EmptyInputError(f"{modality} inputs must be a sequence of strings, "
                          f"got {items!r:.60}")


class PrecomputedStore:
    """Embedding provider backed by an in-memory table of named vectors.

    Keys are free-form strings: caption ids, caption texts, image refs, or
    candidate words. ``embed_texts`` resolves each input string as a key;
    ``embed_images`` and ``embed_image`` resolve refs the same way.
    """

    def __init__(self, dim: int, identity: str = "precomputed"):
        self.dim = check_count(dim, "dim")
        self.identity = identity
        self._rows: dict[str, int] = {}  # key -> row, in keys() and save order
        # the first len(self) rows are the store's, and at most len(self) / 8 spare
        self._matrix = np.empty((0, self.dim), dtype=np.float32)

    def __len__(self) -> int:
        return len(self._rows)

    def __contains__(self, key: str) -> bool:
        return key in self._rows

    def keys(self) -> list[str]:
        return list(self._rows)

    def add(self, key: str, vector) -> None:
        """Register ``vector`` under ``key``, a ``str``: a known key's row is
        overwritten, a new key takes the next row (a full matrix grows by an eighth)."""
        if not isinstance(key, str):
            raise SchemaError(f"store key must be a string, got {key!r:.60}")
        arr = as_vector(vector, f"vector for {key!r}")
        if arr.shape[0] != self.dim:
            raise DimensionMismatchError(
                f"vector for {key!r} has dim {arr.shape[0]}, store dim {self.dim}"
            )
        arr = _as_float32(arr, f"vector for {key!r}")
        row = self._rows.get(key, len(self._rows))
        if row == len(self._matrix):
            grown = np.empty((row + row // 8 + 1, self.dim), dtype=np.float32)
            grown[:row] = self._matrix
            self._matrix = grown
        self._matrix[row] = arr
        self._rows[key] = row

    def add_many(self, items: Iterable[tuple[str, np.ndarray]]) -> None:
        for key, vec in items:
            self.add(key, vec)

    def vector(self, key: str) -> np.ndarray:
        return self._gather([key])[0]

    def _gather(self, keys: list[str]) -> np.ndarray:
        missing = [k for k in keys if k not in self._rows]
        if missing:
            raise UnknownKeyError(
                f"store has no embedding for {len(missing)} key(s), "
                f"first missing: {missing[0]!r}"
            )
        return self._matrix.take([self._rows[k] for k in keys], axis=0).astype(np.float64)

    def embed_texts(self, texts: Sequence[str]) -> np.ndarray:
        return self._gather(_check_inputs(texts, "text"))

    def embed_images(self, image_refs: Sequence[str]) -> np.ndarray:
        return self._gather(_check_inputs(image_refs, "image"))

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


def store_payload(dim: int, rows: np.ndarray, keys: Sequence[str]) -> list:
    """The ``VFCE`` layout of ``rows`` (count x dim) keyed by ``keys``, as
    parts to write in order; the rows are a view of their float32 array
    (copied only if they are not one already)."""
    rows = np.ascontiguousarray(rows, dtype="<f4")
    return [
        struct.pack("<4sIIQB", STORE_MAGIC, STORE_VERSION, dim, len(keys), DTYPE_F32),
        memoryview(rows.reshape(-1).view(np.uint8)),
        *map(pack_string, keys),
    ]


def write_file(path, *parts) -> None:
    """Write ``parts`` (bytes-like, or ``str`` as UTF-8) to a new file beside
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
    ``\\r``), for each non-blank line of the UTF-8 text file at ``path``,
    less a byte-order mark that starts the file; blank lines are numbered
    too. A line that is not UTF-8 is a SchemaError naming ``what`` and the
    line, raised or, if given, passed to ``skip``."""
    with open(path, encoding="utf-8-sig", errors="surrogateescape") as fh:
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
    write_file(path, *store_payload(store.dim, store._matrix[: len(store)], store.keys()))


class _Reader:
    """Cursor over ``data[start:end]``, bytes, that fails loudly on
    truncation; what it takes is a view of ``data``, not a copy."""

    def __init__(self, data: bytes, start: int = 0, end: int | None = None):
        self.data, self.view = data, memoryview(data)
        self.offset, self.end = start, len(data) if end is None else end

    def _skip(self, n: int) -> int:
        """Move past ``n`` bytes; return where they start."""
        if self.offset + n > self.end:
            raise CorruptFileError("unexpected end of file")
        self.offset += n
        return self.offset - n

    def take(self, n: int) -> memoryview:
        return self.view[self._skip(n) : self.offset]

    def u8(self) -> int:
        return self.data[self._skip(1)]

    def u32(self) -> int:
        return struct.unpack_from("<I", self.data, self._skip(4))[0]

    def u64(self) -> int:
        return struct.unpack_from("<Q", self.data, self._skip(8))[0]

    def string(self, what: str) -> str:
        start = self._skip(self.u32())
        try:
            return self.data[start : self.offset].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CorruptFileError(f"malformed UTF-8 in {what}") from exc


def read_store_payload(reader: _Reader) -> tuple[int, np.ndarray, list[str]]:
    """Parse one ``VFCE`` payload into (dim, float32 rows, keys)."""
    magic = bytes(reader.take(4))
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
    keys = [reader.string("key table") for _ in range(count)]
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
    store._rows = {k: i for i, k in enumerate(keys)}
    store._matrix = rows
    return store


class _Link:
    """One thread's kept-alive connection to an embedding service, and the
    target its requests name: the path and query of the service's URL, as
    given. The socket is closed when the link is dropped, that is when its
    thread ends or its client is closed or collected."""

    __slots__ = ("conn", "target", "__weakref__")
    # https verifies the service's certificate against the system's CA store
    KINDS = {"http": http.client.HTTPConnection, "https": http.client.HTTPSConnection}

    def __init__(self, url: str, timeout: float):
        try:
            parts = urlsplit(url)
        except ValueError as exc:  # such as an unclosed "[" in the host
            raise http.client.InvalidURL(str(exc)) from None
        kind = self.KINDS.get(parts.scheme)
        if kind is None or not parts.hostname:
            raise http.client.InvalidURL("not an http:// or https:// URL with a host")
        # the timeout bounds the connect and each read
        self.conn = kind(parts.netloc, timeout=timeout)
        self.target = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
        weakref.finalize(self, self.conn.close)


class RemoteEmbeddingClient:
    """Embedding provider speaking the remote HTTP JSON contract.

    POSTs ``{"inputs": [...], "modality": "text"|"image",
    "encoding_format": "base64"}`` to ``base_url`` and expects
    ``{"dim": N, "vectors": [...]}``, one vector per input: each the base64
    of its little-endian float32 bytes (:func:`decode_base64`) or, from a
    service that ignores ``encoding_format``, each a list of numbers.
    ``dim`` is None until the first good reply, which pins it; a later
    reply of another dim is a :class:`DimensionMismatchError`. ``timeout``
    (seconds, for the connect and each read) and ``identity`` are
    keyword-only.

    Each thread that calls the client gets its own HTTP/1.1 connection
    (``http.client``), kept alive across calls. A reused connection that
    the service has closed since, after an idle spell or an error reply, is
    reopened once per call; a fault on a new connection is not retried.
    Every transport fault, status >= 400 included, is a
    :class:`ProviderUnavailableError`. Proxy variables and ``.netrc`` are
    not read, and an ``https://`` service's certificate is verified
    against the system's CA store. :meth:`close`, or collecting the
    client, closes its connections.

    Returned vectors are float32 (the engine's storage precision): number
    lists are cast to it, to nearest, ties to even, as the stub casts
    before it encodes, so either form gives the same bits, and a live run
    is bit-identical to a run against the same vectors dumped to a binary
    store.

    ``embed_texts`` keeps the float32 rows of the last ``TEXT_CACHE_ROWS``
    distinct texts it was asked for, least recently used out first, and
    sends only the texts it does not hold. This assumes the service's text
    vectors stay fixed for the client's lifetime, as a frozen
    vision-language model's do. A failed call caches nothing. Image refs
    are not cached: a ref names content the client cannot see.
    """

    def __init__(self, base_url: str, *, timeout: float = 10.0,
                 identity: str | None = None):
        self.base_url = base_url
        self.dim: int | None = None  # learned from the first good reply
        self.timeout = check_timeout(timeout)
        self.identity = identity or f"remote:{base_url}"
        self._local = threading.local()  # each thread's _Link
        self._texts: OrderedDict[str, np.ndarray] = OrderedDict()
        self._texts_lock = threading.Lock()  # a client may serve many threads

    def close(self) -> None:
        """Close the client's connections; a later call opens a new one.
        A connection that a call is using is closed when the call returns."""
        # dropping the thread-local object drops every thread's link in it
        self._local = threading.local()

    def _exchange(self, body: bytes) -> bytes:
        """POST ``body`` on this thread's connection and return the reply's
        body. A fault is an ``OSError`` or an ``HTTPException`` (a status
        >= 400 too) and closes the connection; a ``ConnectionError`` on a
        reused connection, which the service may have closed since, is
        instead retried once on a new one."""
        link = getattr(self._local, "link", None)
        if link is None:
            link = self._local.link = _Link(self.base_url, self.timeout)
        conn = link.conn
        for retry in (conn.sock is not None, False):
            try:
                conn.request("POST", link.target, body,
                             {"Content-Type": "application/json"})
                reply = conn.getresponse()
                data = reply.read()
                break
            except ConnectionError:
                conn.close()
                if not retry:
                    raise
            except BaseException:
                conn.close()
                raise
        if reply.status >= 400:
            raise http.client.HTTPException(f"HTTP {reply.status} {reply.reason}")
        return data

    def _post(self, inputs: Sequence[str], modality: str) -> np.ndarray:
        payload = json.dumps({"inputs": list(inputs), "modality": modality,
                              "encoding_format": "base64"})
        try:
            data = self._exchange(payload.encode())
        except (OSError, http.client.HTTPException) as exc:
            raise ProviderUnavailableError(
                f"embedding service at {self.base_url} unavailable: "
                f"{type(exc).__name__}: {exc}"
            ) from exc
        try:
            body = json.loads(data)
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
        if self.dim not in (None, dim):
            raise DimensionMismatchError(
                f"service returned dim {dim}, expected {self.dim}")
        if all(isinstance(v, str) for v in vectors):
            matrix = decode_base64(vectors, "service vectors", dim, len(inputs))
        else:  # number lists, from a service that ignores encoding_format
            matrix = _as_float32(as_matrix(vectors, "service vectors", dim,
                                           count=len(inputs)), "service vectors")
        self.dim = dim
        return matrix

    def embed_texts(self, texts: Sequence[str]) -> np.ndarray:
        texts = _check_inputs(texts, "text")
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
        return self._post(_check_inputs(image_refs, "image"), "image").astype(np.float64)

    def embed_image(self, image_ref: str) -> np.ndarray:
        return self.embed_images([image_ref])[0]


class HashEmbedder:
    """Offline provider producing :func:`hashed_vector` embeddings.

    Identical inputs always map to identical vectors, which makes it the
    deterministic default for text-similarity scoring without a service.
    """

    def __init__(self, dim: int = 64):
        self.dim = check_count(dim, "dim")
        self.identity = f"hash-v1:{dim}"

    def embed_texts(self, texts: Sequence[str]) -> np.ndarray:
        return np.array([hashed_vector(t, "text", self.dim)
                         for t in _check_inputs(texts, "text")])

    def embed_images(self, image_refs: Sequence[str]) -> list[np.ndarray]:
        return [hashed_vector(r, "image", self.dim)
                for r in _check_inputs(image_refs, "image")]

    def embed_image(self, image_ref: str) -> np.ndarray:
        return self.embed_images([image_ref])[0]


def body_crc(parts) -> int:
    """The CRC32 of ``parts``, bytes-like objects, as if joined."""
    crc = 0
    for part in parts:
        crc = zlib.crc32(part, crc)
    return crc
