"""Vector math, the binary store, provider behavior, and the file writer."""

import ast
import hashlib
import os
import re
import stat
import struct
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import vfclass.embedding as embedding_mod
from vfclass.embedding import (
    HashEmbedder,
    PrecomputedStore,
    RemoteEmbeddingClient,
    as_matrix,
    as_vector,
    cosine_similarity,
    hashed_vector,
    load_store,
    normalize,
    row_norms,
    save_store,
    write_file,
)
from vfclass.errors import (
    CorruptFileError,
    DimensionMismatchError,
    EmptyInputError,
    ProviderUnavailableError,
    SchemaError,
    UnknownKeyError,
    ZeroVectorError,
)

# 32 / sqrt(14 * 77), computed with 50-digit arithmetic and frozen
COS_123_456 = 0.9746318461970763


class TestNormalize:
    def test_three_four_five(self):
        assert np.allclose(normalize([3.0, 4.0]), [0.6, 0.8])

    def test_unit_vector_unchanged(self):
        v = np.array([1.0, 0.0, 0.0])
        assert np.allclose(normalize(v), v, atol=1e-7)

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVectorError):
            normalize([0.0, 0.0])

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            v = rng.standard_normal(8)
            once = normalize(v)
            assert np.allclose(normalize(once), once, atol=1e-7)

    def test_rejects_nan(self):
        with pytest.raises(EmptyInputError):
            normalize([1.0, float("nan")])


class TestAsMatrix:
    def test_list_of_vectors_becomes_float64_matrix(self):
        got = as_matrix([[1, 2], [3, 4], [5, 6]])
        assert got.dtype == np.float64
        assert got.shape == (3, 2)

    @pytest.mark.parametrize("values", [
        [[1.0, 2.0], [3.0]],
        [[1.0, "x"]],
        [[1.0, {}]],
        [["1", "2"]],
        [[True, False]],
        [[b"1"]],
        [[2**70, "1.5"]],  # an int beyond int64 makes an array of objects
        np.array([[True, False]]),
        [[0.5, True]],  # numpy reads a bool among numbers as 1.0
        [[0.5, 1.0], [np.False_, 0.5]],
    ])
    def test_ragged_or_non_numeric_is_a_schema_error(self, values):
        with pytest.raises(SchemaError):
            as_matrix(values, "service vectors")

    @pytest.mark.parametrize("values", [["1.5", "2"], [True, False], [b"1"],
                                        [2**70, np.bool_(True)], [0.5, True],
                                        [1, False], (0.5, np.True_)])
    def test_strings_and_bools_are_not_a_vector(self, values):
        with pytest.raises(SchemaError, match="bools, strings or bytes"):
            as_vector(values)

    def test_numbers_numpy_reads_as_numbers_still_pass(self):
        assert np.array_equal(as_vector([1, 2**70]), [1.0, 2.0**70])
        assert as_vector(np.arange(3, dtype=np.int8)).dtype == np.float64
        row = np.ones(4)
        assert as_vector(row) is row  # a float64 array is not copied

    @pytest.mark.parametrize("values", [[], [[]], [1.0, 2.0]])
    def test_empty_or_not_two_dimensional_rejected(self, values):
        with pytest.raises(EmptyInputError):
            as_matrix(values)

    def test_declared_dim_enforced(self):
        with pytest.raises(DimensionMismatchError):
            as_matrix([[1.0, 2.0, 3.0]], dim=2)

    def test_non_finite_rejected(self):
        with pytest.raises(EmptyInputError):
            as_matrix([[1.0, float("inf")]])

    def test_int_beyond_float64_is_non_finite(self):
        # fails as 1e400 does, not with an OverflowError
        for value in (10**400, -(10**400)):
            with pytest.raises(EmptyInputError, match="non-finite"):
                as_matrix([[1.0, value]])
            with pytest.raises(EmptyInputError, match="non-finite"):
                normalize([value, 1.0])

    @pytest.mark.parametrize("values", [[[1.0, 0.0]], [], np.ones((3, 2))])
    def test_row_count_checked(self, values):
        with pytest.raises(ProviderUnavailableError,
                           match=f"{len(values)} vectors for 2"):
            as_matrix(values, "reply", count=2)

    def test_row_norms_name_a_zero_row(self):
        got = row_norms(np.array([[3.0, 4.0], [0.0, 2.0]]), ["a", "b"], "rows")
        assert np.array_equal(got, [5.0, 2.0])
        with pytest.raises(ZeroVectorError, match="'b'"):
            row_norms(np.array([[3.0, 4.0], [0.0, 0.0]]), ["a", "b"], "rows")


class TestCosineSimilarity:
    def test_identical_direction(self):
        assert cosine_similarity([1.0, 0.0], [1.0, 0.0]) == 1.0

    def test_orthogonal(self):
        assert cosine_similarity([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_frozen_oracle_value(self):
        got = cosine_similarity([1.0, 2.0, 3.0], [4.0, 5.0, 6.0])
        assert got == pytest.approx(COS_123_456, abs=1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            cosine_similarity([1.0, 0.0], [1.0, 0.0, 0.0])

    def test_zero_vector(self):
        with pytest.raises(ZeroVectorError):
            cosine_similarity([0.0, 0.0], [1.0, 0.0])

    def test_non_numeric_is_a_schema_error(self):
        with pytest.raises(SchemaError):
            cosine_similarity(["x", 1.0], [1.0, 1.0])

    def test_symmetric(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            a = rng.standard_normal(6)
            b = rng.standard_normal(6)
            assert cosine_similarity(a, b) == cosine_similarity(b, a)

    def test_scaling_invariance(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            a = rng.standard_normal(5)
            k = float(rng.uniform(0.1, 10.0))
            assert cosine_similarity(a, k * a) == pytest.approx(1.0, abs=1e-7)
            assert cosine_similarity(a, -k * a) == pytest.approx(-1.0, abs=1e-7)

    def test_normalization_does_not_change_value(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            a = rng.standard_normal(7)
            b = rng.standard_normal(7)
            raw = cosine_similarity(a, b)
            unit = cosine_similarity(normalize(a), normalize(b))
            assert unit == pytest.approx(raw, abs=1e-6)

    def test_clamped_to_range(self):
        v = np.full(16, 0.25)
        assert -1.0 <= cosine_similarity(v, v) <= 1.0


class TestPrecomputedStore:
    def make_store(self):
        store = PrecomputedStore(dim=3, identity="test-store")
        store.add("dog", [1.0, 0.0, 0.0])
        store.add("cat", [0.0, 1.0, 0.0])
        store.add("img_001", [0.0, 0.0, 1.0])
        return store

    def test_text_lookup_identity(self):
        store = self.make_store()
        [vec] = store.embed_texts(["dog"])
        assert np.allclose(vec, [1.0, 0.0, 0.0])

    def test_empty_input_rejected(self):
        with pytest.raises(EmptyInputError):
            self.make_store().embed_texts([])

    def test_image_lookup_identity(self):
        store = self.make_store()
        assert np.allclose(store.embed_image("img_001"), [0.0, 0.0, 1.0])

    def test_unknown_image_ref(self):
        with pytest.raises(UnknownKeyError):
            self.make_store().embed_image("missing")

    def test_unknown_text_lists_missing(self):
        with pytest.raises(UnknownKeyError, match="zebra"):
            self.make_store().embed_texts(["dog", "zebra"])

    def test_order_preserved_under_permutation(self):
        store = self.make_store()
        forward = store.embed_texts(["dog", "cat"])
        backward = store.embed_texts(["cat", "dog"])
        assert np.allclose(forward[0], backward[1])
        assert np.allclose(forward[1], backward[0])

    def test_dimension_enforced_on_add(self):
        store = self.make_store()
        with pytest.raises(DimensionMismatchError):
            store.add("bad", [1.0, 2.0])

    @pytest.mark.parametrize("key", [5, None, b"dog", ("dog",)])
    def test_key_that_is_not_a_string_is_rejected(self, tmp_path, key):
        store = self.make_store()
        with pytest.raises(SchemaError, match="store key must be a string"):
            store.add(key, [1.0, 0.0, 0.0])
        assert store.keys() == ["dog", "cat", "img_001"]
        assert len(store) == 3
        path = tmp_path / "vectors.vfce"
        save_store(store, path)
        assert load_store(path).keys() == store.keys()

    @pytest.mark.parametrize("key", ["dog", "new"])
    def test_value_beyond_float32_is_rejected_on_add(self, key):
        """A finite float64 that float32 cannot hold fails its add, naming
        the key, and leaves the store as it was: a known key keeps its row."""
        store = self.make_store()
        with pytest.raises(EmptyInputError, match=f"^vector for '{key}' has values "
                                                  "beyond float32's range"):
            store.add(key, [1e39, 1.0, 0.0])
        assert store.keys() == ["dog", "cat", "img_001"]
        assert store.vector("dog").tolist() == [1.0, 0.0, 0.0]
        store.add(key, [3.4e38, -3.4e38, 1.0])  # within range
        assert np.isfinite(store.vector(key)).all()

    def test_overwrite_updates_vector(self):
        store = self.make_store()
        store.add("dog", [0.5, 0.5, 0.0])
        assert np.allclose(store.vector("dog"), [0.5, 0.5, 0.0])

    @pytest.mark.parametrize("vector", [["1", "0", "0"], [True, False, False],
                                        [0.5, True, 0.0]])
    def test_vector_of_strings_or_bools_is_rejected(self, vector):
        store = self.make_store()
        for key in ("dog", "new"):
            with pytest.raises(SchemaError, match=f"vector for '{key}'"):
                store.add(key, vector)
        assert store.keys() == ["dog", "cat", "img_001"]
        assert np.array_equal(store.vector("dog"), [1.0, 0.0, 0.0])

    def test_reads_between_adds_leave_the_saved_bytes(self, tmp_path):
        """Reads, ``keys()``, ``len()`` and overwrites between the adds save
        the bytes of the same adds made with no reads."""
        rng = np.random.default_rng(4)
        adds = [(f"k{i % 23}", rng.standard_normal(5)) for i in range(60)]
        quiet, busy = PrecomputedStore(5), PrecomputedStore(5)
        for key, vector in adds:
            quiet.add(key, vector)
        for i, (key, vector) in enumerate(adds):
            busy.add(key, vector)
            assert len(busy) == len(busy.keys())
            busy.embed_texts(busy.keys()[:: 1 + i % 3])
            assert np.array_equal(busy.vector(key), vector.astype(np.float32))
        assert busy.keys() == quiet.keys() == [f"k{i}" for i in range(23)]
        save_store(quiet, tmp_path / "quiet.vfce")
        save_store(busy, tmp_path / "busy.vfce")
        assert (tmp_path / "busy.vfce").read_bytes() == (
            tmp_path / "quiet.vfce").read_bytes()

    def test_adds_after_a_load_copy_no_rows(self, tmp_path):
        """After a loaded store's first add, adds and lookups allocate less
        than one copy of its rows, and its spare rows stay at most an eighth
        of those it holds."""
        rows = np.random.default_rng(5).standard_normal((4096, 32))
        store = PrecomputedStore(32)
        store.add_many((f"row{i}", row) for i, row in enumerate(rows))
        save_store(store, tmp_path / "rows.vfce")
        store = load_store(tmp_path / "rows.vfce")
        held = store._matrix.nbytes
        store.add("first", rows[0])
        tracemalloc.start()
        try:
            for i in range(100):
                store.add(f"extra{i}", rows[i])
                assert np.array_equal(store.embed_texts([f"row{i}", f"extra{i}"]),
                                      rows[[i, i]].astype(np.float32))
                assert len(store._matrix) - len(store) <= len(store) / 8
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < held
        assert len(store) == 4096 + 101

    def test_spare_rows_at_most_an_eighth(self):
        store = PrecomputedStore(2)
        for i in range(300):
            store.add(f"k{i}", [1.0, float(i)])
            assert 0 <= len(store._matrix) - len(store) <= len(store) / 8

    def test_roundtrip(self, tmp_path):
        store = self.make_store()
        path = tmp_path / "vectors.vfce"
        save_store(store, path)
        loaded = load_store(path)
        assert loaded.dim == store.dim
        assert loaded.keys() == store.keys()
        for key in store.keys():
            assert np.array_equal(loaded.vector(key), store.vector(key))

    def test_failed_save_keeps_previous_file(self, tmp_path, monkeypatch):
        """A save that fails mid-write, its new file written but not yet
        synced, leaves the old file as it was and no partial file."""
        path = tmp_path / "vectors.vfce"
        save_store(self.make_store(), path)
        before = path.read_bytes()
        written = []

        def fail(fd):
            written.append(os.fstat(fd).st_size)
            raise OSError("crash while syncing")

        monkeypatch.setattr(os, "fsync", fail)
        other = self.make_store()
        other.add("img_002", [1.0, 1.0, 0.0])
        with pytest.raises(OSError, match="crash while syncing"):
            save_store(other, path)
        assert written[0] > len(before)  # the new file was written when the save failed
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["vectors.vfce"]

    def test_truncated_file_rejected(self, tmp_path):
        store = self.make_store()
        path = tmp_path / "vectors.vfce"
        save_store(store, path)
        data = path.read_bytes()
        path.write_bytes(data[:-5])
        with pytest.raises(CorruptFileError):
            load_store(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "vectors.vfce"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(CorruptFileError):
            load_store(path)

    @pytest.mark.parametrize("spoil, message", [
        (lambda d: d[:4] + struct.pack("<I", 2) + d[8:], "unsupported store version 2"),
        (lambda d: d[:20] + b"\x01" + d[21:], "unsupported dtype code 1"),
        (lambda d: d[:8] + struct.pack("<I", 0) + d[12:], "store declares dim 0"),
        (lambda d: d[:-1] + b"\xff", "malformed UTF-8 in key table"),
        (lambda d: d + b"\x00", "trailing bytes after store payload"),
    ], ids=["version", "dtype", "dim-0", "key-utf8", "trailing"])
    def test_malformed_header_or_keys_rejected(self, tmp_path, spoil, message):
        path = tmp_path / "vectors.vfce"
        save_store(self.make_store(), path)
        path.write_bytes(spoil(path.read_bytes()))
        with pytest.raises(CorruptFileError, match=f"^{message}$"):
            load_store(path)


class TestWriteFile:
    def test_parts_are_written_in_order(self, tmp_path):
        path = tmp_path / "out"
        write_file(path, b"\x00\xff", "caf\u00e9 ", "\U0001f600\n", b"")
        assert path.read_bytes() == b"\x00\xff" + "café 😀\n".encode("utf-8")

    def test_unencodable_part_keeps_previous_file(self, tmp_path):
        path = tmp_path / "out"
        path.write_bytes(b"good")
        with pytest.raises(UnicodeEncodeError):
            write_file(path, "new ", "a\ud800")
        assert path.read_bytes() == b"good"
        assert [p.name for p in tmp_path.iterdir()] == ["out"]

    def test_symlink_target_is_replaced_and_the_link_kept(self, tmp_path):
        (tmp_path / "real").mkdir()
        target = tmp_path / "real" / "out"
        target.write_bytes(b"old")
        link = tmp_path / "link"
        link.symlink_to(target)
        write_file(link, "new")
        assert link.is_symlink() and link.resolve() == target.resolve()
        assert target.read_bytes() == b"new"
        assert sorted(p.name for p in (tmp_path / "real").iterdir()) == ["out"]

    def test_fifo_is_written_in_place(self, tmp_path):
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()),
                                  daemon=True)
        reader.start()
        write_file(fifo, "through ", b"the pipe")
        reader.join(timeout=30)
        assert got == [b"through the pipe"]
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert [p.name for p in tmp_path.iterdir()] == ["fifo"]

    def test_only_write_file_opens_a_file_for_writing(self):
        writers = []
        for path in sorted(Path(embedding_mod.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            defs = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
            for call in ast.walk(tree):
                if isinstance(call, ast.Call) and writes(call):
                    owner = max((d for d in defs
                                 if d.lineno <= call.lineno <= d.end_lineno),
                                key=lambda d: d.lineno, default=None)
                    writers.append((path.name, owner and owner.name))
        assert writers == [("embedding.py", "write_file")] * 2


def writes(call: ast.Call) -> bool:
    """True for an ``open`` whose mode is not a literal read-only one, and
    for a ``write_text`` or ``write_bytes``."""
    name = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
    if name != "open":
        return name in ("write_text", "write_bytes")
    mode = (call.args[1:2] or [kw.value for kw in call.keywords if kw.arg == "mode"]
            or [ast.Constant("r")])[0]
    return not (isinstance(mode, ast.Constant) and set(str(mode.value)) <= set("rbt"))


class TestHashedVector:
    def test_deterministic(self):
        a = hashed_vector("same input", "text", 16)
        b = hashed_vector("same input", "text", 16)
        assert np.array_equal(a, b)

    def test_modality_changes_vector(self):
        a = hashed_vector("thing", "text", 16)
        b = hashed_vector("thing", "image", 16)
        assert not np.allclose(a, b)

    def test_unit_norm(self):
        v = hashed_vector("anything", "text", 33)
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-9)

    def test_hash_embedder_identity(self):
        emb = HashEmbedder(dim=8)
        [a] = emb.embed_texts(["dog"])
        [b] = emb.embed_texts(["dog"])
        assert np.array_equal(a, b)
        assert cosine_similarity(a, b) == 1.0

    @pytest.mark.parametrize("dim, digest", [
        (1, "6c3c396ed6b5c36dcae172271f462051b1266b851e92df3deea8ac65478fd712"),
        (7, "c397e353bb172b6f2275d9f20c5daff7187cd2da0c290facb3b0098045105428"),
        (64, "6c2e557fa316b26d0ac79c1a2569bf55608844370c28eddf4fbb1bf7abc79795"),
        (65, "0bb612da9d92d0a5d8dc4891212a0c51c9a19c6ba3b45813cbe78c8ce15e2504"),
    ])
    def test_bytes_pinned(self, dim, digest):
        vec = hashed_vector("a caption", "text", dim)
        assert hashlib.sha256(vec.tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("text, modality, hexes", [
        ("a caption", "text", ["0x1.6b2b5b388ca91p-2", "-0x1.37be202aebfb0p-3",
                               "0x1.241977eea5719p-1", "0x1.732e31e07f78ap-1"]),
        ("dog", "image", ["-0x1.958bfe1eec1f4p-2", "-0x1.9b60de2ea3a62p-1",
                          "0x1.c72b53362ca59p-2"]),
        ("", "text", ["-0x1.0000000000000p+0"]),
        ("ünïcode", "text", ["0x1.4b31978fc624fp-5", "0x1.c07df8a8699d6p-1",
                             "0x1.01fe7aa100664p-2", "0x1.0d6d6e23a169ep-3",
                             "0x1.8cf45519f947fp-2"]),
    ])
    def test_float_hex_pinned(self, text, modality, hexes):
        vec = hashed_vector(text, modality, len(hexes))
        assert [x.hex() for x in vec] == hexes

    def test_hash_embedder_returns_a_matrix(self):
        got = HashEmbedder(dim=8).embed_texts(["dog", "cat", "dog"])
        assert got.shape == (3, 8)
        assert np.array_equal(got[0], hashed_vector("dog", "text", 8))
        assert np.array_equal(got[0], got[2])


def shipped_providers():
    """One of each shipped provider; every string of length one is a key
    of the store, so a string read as its characters would resolve."""
    store = PrecomputedStore(dim=2)
    for key in ("a", "b", "c", "1", " "):
        store.add(key, [1.0, 0.0])
    return {"store": store, "hash": HashEmbedder(dim=2),
            "remote": RemoteEmbeddingClient("http://embedding.test/")}


class TestStrictInputs:
    """Each shipped provider takes a non-empty sequence of strings, not a
    ``str``, with no blank input, and asks its source for nothing else."""

    @pytest.fixture(autouse=True)
    def no_service(self, monkeypatch):
        def fail(client, body):
            raise AssertionError(f"posted {body!r}")

        monkeypatch.setattr(RemoteEmbeddingClient, "_exchange", fail)

    @pytest.mark.parametrize("inputs, message", [
        ("abc", "inputs must be a sequence of strings, got 'abc'"),
        ([1], "inputs must be a sequence of strings, got [1]"),
        ((), "non-empty"),
        ([""], "non-empty"),
        (["a", None], "inputs must be a sequence of strings, got ['a', None]"),
        ({"a": 1}, "inputs must be a sequence of strings"),
    ], ids=["str", "int-item", "empty", "blank", "none-item", "dict"])
    @pytest.mark.parametrize("method", ["embed_texts", "embed_images"])
    @pytest.mark.parametrize("name", ["store", "hash", "remote"])
    def test_rejected_with_empty_input(self, name, method, inputs, message):
        provider = shipped_providers()[name]
        with pytest.raises(EmptyInputError, match=re.escape(message)) as err:
            getattr(provider, method)(inputs)
        assert err.value.code == "empty-input"

    @pytest.mark.parametrize("name", ["store", "hash", "remote"])
    def test_blank_rules_and_messages(self, name):
        provider = shipped_providers()[name]
        for inputs, message in (([], "texts must be non-empty"),
                                ([" "], "each text must be a non-empty string")):
            with pytest.raises(EmptyInputError, match=f"^{message}$"):
                provider.embed_texts(inputs)
        for inputs in ([], [""]):
            with pytest.raises(EmptyInputError, match="^image_ref must be non-empty$"):
                provider.embed_images(inputs)

    @pytest.mark.parametrize("name", ["store", "hash"])
    def test_a_tuple_is_a_sequence(self, name):
        provider = shipped_providers()[name]
        assert np.array_equal(provider.embed_texts(("a", "b")),
                              provider.embed_texts(["a", "b"]))
        assert np.array_equal(np.asarray(provider.embed_images(("c", " "))),
                              np.asarray(provider.embed_images(["c", " "])))
