"""Byte layout of the ``.vfce`` and ``.vfci`` files, pinned by hash.

Every object here is built by hand from fixed float32 unit rows, so the
hashes pin the file layout alone and not the numerics of an index build.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from vfclass.embedding import PrecomputedStore, save_store
from vfclass.errors import CorruptFileError
from vfclass.index import (
    CaptionIndex,
    CaptionRecord,
    exact_topk,
    load_index,
    retrieve_topk,
    save_index,
)

ROWS = np.array(
    [
        [1.0, 0.0, 0.0, 0.0],
        [0.6, 0.8, 0.0, 0.0],
        [0.0, 0.0, 0.8, -0.6],
        [0.5, -0.5, 0.5, 0.5],
        [0.0, -1.0, 0.0, 0.0],
    ],
    dtype=np.float32,
)
RECORDS = [
    CaptionRecord("a-01", "ein Hund im Schnee", "web"),
    CaptionRecord("b-02", "café au lait sur la table", "web"),
    CaptionRecord("c-03", "一只猫在沙发上", "crawl"),
    CaptionRecord("d-04", "Ελληνική σαλάτα", ""),
    CaptionRecord("e-05", "smörgåsbord 🍞 buffet", "crawl"),
]

FLAT_SHA256 = "4a7aec819255bbabf83457b79fc671393dec6536e92ee331c0250c662430030a"
PARTITIONED_SHA256 = (
    "87ce69a134e4e8db7da0fae9786c35805a40dbcb04856776a200bae5bb3024db"
)
STORE_SHA256 = "2c5bfe487a20d38e8f3ce37a824dfaf34ca09857a9db4f02b6cad4aed0a5d5fe"


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def flat_index() -> CaptionIndex:
    return CaptionIndex(
        dim=4, records=list(RECORDS), vectors=ROWS.copy(),
        provider_identity="précomputed:ü",
    )


def partitioned_index() -> CaptionIndex:
    return dataclasses.replace(
        flat_index(),
        structure="partitioned",
        centroids=np.array(
            [[0.8, 0.4, 0.0, 0.0], [0.25, -0.75, 0.25, 0.25]], dtype=np.float64
        ),
        partitions=[
            np.array([0, 1], dtype=np.int64),
            np.array([2, 3, 4], dtype=np.int64),
        ],
    )


def test_flat_index_bytes_pinned(tmp_path):
    path = tmp_path / "flat.vfci"
    save_index(flat_index(), path)
    assert sha256(path) == FLAT_SHA256


def test_partitioned_index_bytes_pinned(tmp_path):
    path = tmp_path / "partitioned.vfci"
    save_index(partitioned_index(), path)
    assert sha256(path) == PARTITIONED_SHA256


def test_store_bytes_pinned(tmp_path):
    store = PrecomputedStore(4, identity="ignored")
    for rec, row in zip(RECORDS, ROWS):
        store.add(rec.text, row)
    path = tmp_path / "vectors.vfce"
    save_store(store, path)
    assert sha256(path) == STORE_SHA256


def test_index_body_starts_with_store_payload(tmp_path):
    store = PrecomputedStore(4)
    for rec, row in zip(RECORDS, ROWS):
        store.add(rec.id, row)
    store_path = tmp_path / "vectors.vfce"
    index_path = tmp_path / "flat.vfci"
    save_store(store, store_path)
    save_index(flat_index(), index_path)
    payload = store_path.read_bytes()
    assert index_path.read_bytes()[8 : 8 + len(payload)] == payload


def test_repeated_id_in_index_rejected(tmp_path):
    index = flat_index()
    index.records[3] = CaptionRecord("b-02", "a second caption with one id")
    path = tmp_path / "dup.vfci"
    save_index(index, path)
    with pytest.raises(CorruptFileError, match="duplicate"):
        load_index(path)


@pytest.mark.parametrize("make", [flat_index, partitioned_index])
def test_round_trip_retrieval_equals_oracle(tmp_path, make):
    path = tmp_path / "index.vfci"
    save_index(make(), path)
    loaded = load_index(path)
    queries = [*ROWS, *np.random.default_rng(5).standard_normal((20, 4))]
    for query in queries:
        for k in (1, 2, 3, 5, 8):
            got = retrieve_topk(loaded, query, k, probes="all")
            want = exact_topk(loaded, query, k)
            assert [(h.record.id, h.row) for h in got] == [
                (h.record.id, h.row) for h in want
            ]
