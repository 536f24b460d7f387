"""Remote embedding client against the deterministic stub service."""

import json
import socket
import struct
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from http.server import ThreadingHTTPServer
from urllib.parse import urlsplit

import numpy as np
import pytest
import requests

import vfclass.embedding as embedding_mod
from vfclass.candidates import FilterConfig, LexiconTagger, extract_candidates
from vfclass.cli import _prediction_json
from vfclass.embedding import (
    EMBED_CHUNK,
    PrecomputedStore,
    RemoteEmbeddingClient,
    hashed_vector,
)
from vfclass.errors import (
    DimensionMismatchError,
    EmptyInputError,
    ProviderUnavailableError,
    SchemaError,
)
from vfclass.index import CaptionRecord, build_index
from vfclass.scoring import ClassifierConfig, classify, classify_batch
from vfclass.stubserver import _StubHandler, running_stub


# a JSON body of 17 bytes under a Content-Length of 100
SHORT_REQUEST = (b"POST / HTTP/1.1\r\nHost: stub\r\nContent-Length: 100\r\n\r\n"
                 b'{"inputs": ["a"]}')


@pytest.fixture(scope="module")
def stub_url():
    with running_stub(dim=4) as url:
        yield url


class TestRemoteClient:
    def test_two_texts_fixed_dim(self, stub_url):
        client = RemoteEmbeddingClient(stub_url)
        vecs = client.embed_texts(["a", "b"])
        assert len(vecs) == 2
        assert all(v.shape == (4,) for v in vecs)
        assert client.dim == 4

    def test_matches_hash_function(self, stub_url):
        client = RemoteEmbeddingClient(stub_url)
        [vec] = client.embed_texts(["some caption"])
        assert np.allclose(vec, hashed_vector("some caption", "text", 4))

    def test_image_modality_differs(self, stub_url):
        client = RemoteEmbeddingClient(stub_url)
        text = client.embed_texts(["ref-1"])[0]
        image = client.embed_image("ref-1")
        assert not np.allclose(text, image)

    def test_same_ref_twice_identical(self, stub_url):
        client = RemoteEmbeddingClient(stub_url)
        a = client.embed_image("ref-x")
        b = client.embed_image("ref-x")
        assert np.array_equal(a, b)

    def test_declared_dim_mismatch_detected(self, stub_url):
        client = RemoteEmbeddingClient(stub_url, dim=99)
        with pytest.raises(DimensionMismatchError):
            client.embed_texts(["a"])

    def test_empty_input_rejected_client_side(self, stub_url):
        client = RemoteEmbeddingClient(stub_url)
        with pytest.raises(EmptyInputError):
            client.embed_texts([])

    def test_unreachable_service(self):
        client = RemoteEmbeddingClient("http://127.0.0.1:1/", timeout=0.2)
        with pytest.raises(ProviderUnavailableError):
            client.embed_texts(["a"])

    def test_concurrent_requests(self, stub_url):
        client = RemoteEmbeddingClient(stub_url)
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(lambda i: client.embed_texts([f"t{i % 3}"])[0],
                                    range(24)))
        for i, vec in enumerate(results):
            want = hashed_vector(f"t{i % 3}", "text", 4).astype(np.float32)
            assert np.array_equal(vec, want.astype(np.float64))

    @pytest.mark.parametrize("body", [
        {"inputs": [5]},
        {"inputs": ["a", None]},
        {"inputs": "a"},
        {"inputs": ["a"], "modality": "audio"},
        ["a"],
    ])
    def test_stub_rejects_a_malformed_request(self, stub_url, body):
        resp = requests.post(stub_url, json=body, timeout=5)
        assert resp.status_code == 400
        assert "error" in resp.json()

    @pytest.mark.parametrize("body", [
        b"[" * 100_000,
        b'{"inputs": ' + b"1" * 5000 + b"}",
    ], ids=["deep-nesting", "5000-digit-int"])
    def test_stub_rejects_json_it_cannot_decode(self, stub_url, body):
        resp = requests.post(stub_url, data=body, timeout=5)
        assert resp.status_code == 400
        assert "error" in resp.json()

    def test_vectors_quantized_to_storage_precision(self, stub_url):
        client = RemoteEmbeddingClient(stub_url)
        [vec] = client.embed_texts(["quantized"])
        assert np.array_equal(vec, vec.astype(np.float32).astype(np.float64))

    @pytest.mark.parametrize("length", ["-1", "abc", None])
    def test_stub_closes_after_a_bad_content_length(self, stub_url, length):
        body = b'{"inputs": ["a"]}'
        header = "" if length is None else f"Content-Length: {length}\r\n"
        bad = f"POST / HTTP/1.1\r\nHost: stub\r\n{header}\r\n".encode() + body
        good = (f"POST / HTTP/1.1\r\nHost: stub\r\n"
                f"Content-Length: {len(body)}\r\n\r\n").encode() + body
        url = urlsplit(stub_url)
        with socket.create_connection((url.hostname, url.port), timeout=5) as sock:
            sock.sendall(bad + good)
            replies = b""
            while chunk := sock.recv(65536):  # a hang is a socket timeout
                replies += chunk
        assert replies.startswith(b"HTTP/1.1 400 ")
        assert replies.count(b"HTTP/1.") == 1

    def test_stub_rejects_a_body_shorter_than_its_length(self, stub_url):
        url = urlsplit(stub_url)
        with socket.create_connection((url.hostname, url.port), timeout=5) as sock:
            sock.sendall(SHORT_REQUEST)
            sock.shutdown(socket.SHUT_WR)  # the body ends 83 bytes early
            replies = b""
            while chunk := sock.recv(65536):
                replies += chunk
        assert replies.startswith(b"HTTP/1.1 400 ")
        assert b"body ended after 17 of 100 bytes" in replies
        assert replies.count(b"HTTP/1.") == 1

    @pytest.mark.parametrize("sent", [b"", SHORT_REQUEST], ids=["idle", "short"])
    def test_stub_closes_a_connection_that_stops_sending(self, monkeypatch, sent):
        # tens of seconds: far longer than a client's pause between calls
        assert 10 <= _StubHandler.timeout < 100
        monkeypatch.setattr(_StubHandler, "timeout", 0.2)
        with running_stub(dim=4) as stub:
            url = urlsplit(stub)
            with socket.create_connection((url.hostname, url.port), timeout=5) as sock:
                sock.sendall(sent)
                assert sock.recv(65536) == b""  # closed, not a socket timeout

    @pytest.mark.parametrize("reset", [False, True], ids=["close", "reset"])
    def test_client_hang_up_prints_no_traceback(self, monkeypatch, capsys, reset):
        handled = threading.Event()
        shutdown_request = ThreadingHTTPServer.shutdown_request

        def shutdown_and_signal(server, request):  # after any handle_error
            shutdown_request(server, request)
            handled.set()

        monkeypatch.setattr(ThreadingHTTPServer, "shutdown_request",
                            shutdown_and_signal)
        with running_stub(dim=4) as stub:
            url = urlsplit(stub)
            sock = socket.create_connection((url.hostname, url.port), timeout=5)
            if reset:  # close with a TCP reset instead of a FIN
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                                struct.pack("ii", 1, 0))
            sock.sendall(SHORT_REQUEST)
            sock.close()
            assert handled.wait(5)
        assert "Traceback" not in capsys.readouterr().err


@pytest.fixture
def connections(monkeypatch):
    """Peer addresses of the connections that stub handlers accept during
    the test: a handler is set up once per connection."""
    accepted = []
    setup = _StubHandler.setup

    def counting_setup(self):
        accepted.append(self.client_address)
        setup(self)

    monkeypatch.setattr(_StubHandler, "setup", counting_setup)
    return accepted


class TestOneConnection:
    def test_sequential_calls_share_one_connection(self, connections):
        with running_stub(dim=4) as url:
            client = RemoteEmbeddingClient(url)
            start = time.perf_counter()
            for i in range(10):
                client.embed_texts([f"t{i}"])
                client.embed_image(f"img/{i}")
            elapsed = time.perf_counter() - start
        assert len(connections) == 1
        # a reply held back by Nagle until the delayed ACK costs ~40 ms
        assert elapsed < 20 * 0.04 / 2

    def test_batch_of_refs_makes_one_image_post_per_chunk(self, monkeypatch,
                                                           connections):
        words = ["otter", "falcon", "lantern"]
        records = [CaptionRecord(f"cap-{i:03d}", f"a {words[i % 3]} near the pier")
                   for i in range(24)]
        refs = [f"img/{i}" for i in range(EMBED_CHUNK + 6)]
        queries = [(ref, ref) for ref in refs] + [("again", refs[0])]
        modalities = []
        post = requests.Session.post

        def counting_post(self, url, **kwargs):
            modalities.append(kwargs["json"]["modality"])
            return post(self, url, **kwargs)

        monkeypatch.setattr(requests.Session, "post", counting_post)
        dim = 8
        with running_stub(dim) as url:
            client = RemoteEmbeddingClient(url)
            index = build_index(records, client)
            remote = classify_batch(queries, index, client, LexiconTagger())
        assert modalities.count("image") == -(-len(refs) // EMBED_CHUNK) == 2
        assert len(connections) == 1

        store = PrecomputedStore(dim)
        loose = FilterConfig(min_count=1)
        words = set(extract_candidates(records, LexiconTagger(), loose).entries)
        for text in {r.text for r in records} | words:
            store.add(text, hashed_vector(text, "text", dim))
        for ref in refs:
            store.add(ref, hashed_vector(ref, "image", dim))
        local = classify_batch(queries, build_index(records, store), store,
                               LexiconTagger())
        assert remote == local
        assert remote[-1].prediction == remote[0].prediction


class FakeResponse:
    def __init__(self, body):
        self.body = body

    def raise_for_status(self):
        pass

    def json(self):
        return self.body


class FakeService:
    """Stands in for ``requests.Session.post``: answers from a store, except
    that the vector for ``bad-ref`` has a non-numeric element. An instance
    is not a descriptor, so it gets no session argument."""

    def __init__(self, store):
        self.store = store

    def __call__(self, url, json, timeout):
        vectors = [
            [1.0, "x", 0.0, 0.0] if key == "bad-ref" else self.store.vector(key).tolist()
            for key in json["inputs"]
        ]
        return FakeResponse({"dim": self.store.dim, "vectors": vectors})


class TestMalformedReply:
    def world(self, monkeypatch):
        store = PrecomputedStore(4)
        e = np.eye(4)
        for key, vec in [("dog", e[0]), ("cat", e[1]), ("park", e[2]),
                         ("dog-ref", e[0])]:
            store.add(key, vec)
        records = [CaptionRecord(f"cap-{i}", "a dog and a cat in a park")
                   for i in range(4)]
        for i, rec in enumerate(records):
            store.add(rec.id, e[i % 2])
        monkeypatch.setattr(requests.Session, "post", FakeService(store))
        return build_index(records, store)

    def test_non_numeric_vector_is_a_schema_error(self, monkeypatch):
        self.world(monkeypatch)
        client = RemoteEmbeddingClient("http://embedding.test/", dim=4)
        with pytest.raises(SchemaError):
            client.embed_image("bad-ref")

    def test_reply_that_is_not_an_object(self, monkeypatch):
        reply = FakeResponse([[1.0, 0.0]])
        monkeypatch.setattr(requests.Session, "post",
                            lambda self, url, json, timeout: reply)
        client = RemoteEmbeddingClient("http://embedding.test/", dim=2)
        with pytest.raises(ProviderUnavailableError, match="not an object"):
            client.embed_texts(["dog"])

    def test_non_numeric_vector_fails_only_its_query(self, monkeypatch):
        index = self.world(monkeypatch)
        client = RemoteEmbeddingClient("http://embedding.test/", dim=4)
        queries = [("before", "dog-ref"), ("bad", "bad-ref"), ("after", "dog-ref")]
        results = classify_batch(queries, index, client, LexiconTagger(),
                                 ClassifierConfig(k=4))
        assert [r.error_code for r in results] == [None, "schema-violation", None]
        assert [r.prediction.label for r in (results[0], results[2])] == ["dog", "dog"]


class TestClientSettings:
    @pytest.mark.parametrize("setting", [
        {"dim": True}, {"dim": 0}, {"dim": 2.0}, {"dim": "4"},
        {"timeout": 0}, {"timeout": -1}, {"timeout": float("nan")},
        {"timeout": float("inf")}, {"timeout": True}, {"timeout": "10"},
    ])
    def test_bad_setting_is_rejected(self, setting):
        with pytest.raises(EmptyInputError):
            RemoteEmbeddingClient("http://embedding.test/", **setting)

    def test_good_settings_are_kept(self):
        client = RemoteEmbeddingClient("http://embedding.test/", dim=4, timeout=2)
        assert (client.dim, client.timeout) == (4, 2)

    @pytest.mark.parametrize("dim", [True, 0, 4.0])
    def test_reply_dim_that_is_not_a_count(self, monkeypatch, dim):
        reply = FakeResponse({"dim": dim, "vectors": [[1.0, 0.0, 0.0, 0.0]]})
        monkeypatch.setattr(requests.Session, "post",
                            lambda self, url, json, timeout: reply)
        client = RemoteEmbeddingClient("http://embedding.test/")
        with pytest.raises(ProviderUnavailableError, match="malformed"):
            client.embed_texts(["dog"])
        assert client.dim is None


@pytest.fixture
def posts(monkeypatch):
    """``(modality, inputs)`` of every POST a client makes during the test."""
    sent = []
    post = requests.Session.post

    def recording_post(self, url, **kwargs):
        sent.append((kwargs["json"]["modality"], kwargs["json"]["inputs"]))
        return post(self, url, **kwargs)

    monkeypatch.setattr(requests.Session, "post", recording_post)
    return sent


def stub_rows(texts, dim=4):
    return np.array([hashed_vector(t, "text", dim) for t in texts],
                    dtype=np.float32).astype(np.float64)


class TestTextCache:
    def test_second_call_sends_nothing(self, stub_url, posts):
        client = RemoteEmbeddingClient(stub_url)
        first = client.embed_texts(["dog", "cat"])
        second = client.embed_texts(["dog", "cat"])
        assert posts == [("text", ["dog", "cat"])]
        assert second.dtype == first.dtype == np.float64
        assert second.tobytes() == first.tobytes() == stub_rows(["dog", "cat"]).tobytes()

    def test_only_distinct_misses_are_sent_in_first_seen_order(self, stub_url,
                                                               posts):
        client = RemoteEmbeddingClient(stub_url)
        client.embed_texts(["cat", "dog"])
        texts = ["owl", "dog", "ant", "owl", "cat", "ant", "bee"]
        rows = client.embed_texts(texts)
        assert posts[1:] == [("text", ["owl", "ant", "bee"])]
        assert rows.tobytes() == stub_rows(texts).tobytes()

    def test_image_refs_are_sent_every_call(self, stub_url, posts):
        client = RemoteEmbeddingClient(stub_url)
        a = client.embed_image("img/1")
        b = client.embed_images(["img/1", "img/2"])
        c = client.embed_images(["img/1", "img/2"])
        assert posts == [("image", ["img/1"])] + [("image", ["img/1", "img/2"])] * 2
        assert np.array_equal(a, b[0]) and np.array_equal(b, c)

    def test_text_and_image_of_one_string_are_kept_apart(self, stub_url, posts):
        client = RemoteEmbeddingClient(stub_url)
        text = client.embed_texts(["ref-1"])[0]
        image = client.embed_image("ref-1")
        assert client.embed_texts(["ref-1"])[0].tobytes() == text.tobytes()
        assert not np.allclose(text, image)
        assert posts == [("text", ["ref-1"]), ("image", ["ref-1"])]

    @pytest.mark.parametrize("fault,error", [
        (requests.ConnectionError("refused"), ProviderUnavailableError),
        (FakeResponse({"dim": 4}), ProviderUnavailableError),
        (FakeResponse({"dim": 3, "vectors": [[1.0, 0.0, 0.0]] * 2}),
         DimensionMismatchError),
        (FakeResponse({"dim": 4, "vectors": [[1.0, 0.0, 0.0, 0.0]]}),
         ProviderUnavailableError),
    ], ids=["unreachable", "malformed", "dim-mismatch", "short-reply"])
    def test_failed_call_caches_nothing(self, monkeypatch, fault, error):
        good = FakeResponse({"dim": 4, "vectors": stub_rows(["a", "b"]).tolist()})
        replies, sent = [fault, good], []

        def scripted_post(self, url, json, timeout):
            sent.append(json["inputs"])
            reply = replies.pop(0)
            if isinstance(reply, Exception):
                raise reply
            return reply

        monkeypatch.setattr(requests.Session, "post", scripted_post)
        client = RemoteEmbeddingClient("http://embedding.test/", dim=4)
        with pytest.raises(error):
            client.embed_texts(["a", "b"])
        rows = client.embed_texts(["a", "b"])
        assert client.embed_texts(["b", "a"]).tobytes() == rows[::-1].tobytes()
        assert sent == [["a", "b"], ["a", "b"]]
        assert rows.tobytes() == stub_rows(["a", "b"]).tobytes()

    def test_least_recently_used_text_is_evicted(self, stub_url, posts,
                                                 monkeypatch):
        monkeypatch.setattr(embedding_mod, "TEXT_CACHE_ROWS", 2)
        client = RemoteEmbeddingClient(stub_url)
        client.embed_texts(["a"])
        client.embed_texts(["b"])
        client.embed_texts(["a"])  # a hit: "b" is now the oldest
        client.embed_texts(["c"])  # evicts "b"
        assert posts == [("text", ["a"]), ("text", ["b"]), ("text", ["c"])]
        client.embed_texts(["a", "c"])
        assert len(posts) == 3
        rows = client.embed_texts(["b"])
        assert posts[3:] == [("text", ["b"])]
        assert rows.tobytes() == stub_rows(["b"]).tobytes()

    def test_call_larger_than_the_cache_returns_every_row(self, stub_url, posts,
                                                          monkeypatch):
        monkeypatch.setattr(embedding_mod, "TEXT_CACHE_ROWS", 2)
        client = RemoteEmbeddingClient(stub_url)
        texts = [f"t{i}" for i in range(5)] + ["t0"]
        rows = client.embed_texts(texts)
        assert rows.tobytes() == stub_rows(texts).tobytes()
        assert posts == [("text", texts[:5])]
        client.embed_texts(["t3", "t4"])  # the two kept are the last sent
        assert len(posts) == 1
        assert len(client._texts) == 2

    def test_clients_do_not_share_a_cache(self, stub_url, posts):
        first = RemoteEmbeddingClient(stub_url)
        second = RemoteEmbeddingClient(stub_url)
        first.embed_texts(["a"])
        second.embed_texts(["a"])
        assert posts == [("text", ["a"])] * 2

    def test_threads_sharing_a_client_get_their_own_rows(self, monkeypatch):
        """A small cache under many threads and a short switch interval:
        evictions race with lookups, and every reply must still be right."""
        store = PrecomputedStore(4)
        words = [f"w{i}" for i in range(24)]
        for word in words:
            store.add(word, hashed_vector(word, "text", 4))
        monkeypatch.setattr(requests.Session, "post", FakeService(store))
        monkeypatch.setattr(embedding_mod, "TEXT_CACHE_ROWS", 8)
        client = RemoteEmbeddingClient("http://embedding.test/")

        def work(seed):
            rng = np.random.default_rng(seed)
            for _ in range(200):
                texts = [words[i] for i in rng.integers(len(words), size=3)]
                if client.embed_texts(texts).tobytes() != stub_rows(texts).tobytes():
                    return False
            return True

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=16) as pool:
                done = list(pool.map(work, range(16), timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert done == [True] * 16
        assert len(client._texts) <= 8

    def test_second_batch_sends_no_text(self, posts):
        words = ["otter", "falcon", "lantern"]
        records = [CaptionRecord(f"cap-{i:03d}", f"a {words[i % 3]} near the pier")
                   for i in range(24)]
        queries = [(f"q{i}", f"img/{i}") for i in range(12)]
        dim = 8
        with running_stub(dim) as url:
            client = RemoteEmbeddingClient(url)
            index = build_index(records, client)
            first = classify_batch(queries, index, client, LexiconTagger())
            sent = len(posts)
            second = classify_batch(queries, index, client, LexiconTagger())
            assert [m for m, _ in posts[sent:]] == ["image"]
            sent = len(posts)
            single = classify("img/0", index, client, LexiconTagger())
        assert posts[sent:] == [("image", ["img/0"])]
        assert single == first[0].prediction

        store = PrecomputedStore(dim)
        loose = FilterConfig(min_count=1)
        names = set(extract_candidates(records, LexiconTagger(), loose).entries)
        for text in {r.text for r in records} | names:
            store.add(text, hashed_vector(text, "text", dim))
        for _, ref in queries:
            store.add(ref, hashed_vector(ref, "image", dim))
        local = classify_batch(queries, build_index(records, store), store,
                               LexiconTagger())

        def output(items):
            return json.dumps([_prediction_json(item) for item in items])

        assert all(item.error is None for item in first)
        assert output(second) == output(first) == output(local)
        assert second == first == local
