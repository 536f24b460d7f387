"""Remote embedding client against the deterministic stub service."""

import base64
import contextlib
import gc
import http.client
import json
import select
import socket
import struct
import sys
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from http.server import ThreadingHTTPServer
from urllib.parse import urlsplit

import numpy as np
import pytest

import vfclass.embedding as embedding_mod
from vfclass import stubserver
from vfclass.candidates import FilterConfig, LexiconTagger, extract_candidates
from vfclass.cli import _prediction_json
from vfclass.embedding import (
    EMBED_CHUNK,
    PrecomputedStore,
    RemoteEmbeddingClient,
    _as_float32,
    as_matrix,
    decode_base64,
    encode_base64,
    hashed_vector,
)
from vfclass.errors import (
    DimensionMismatchError,
    EmptyInputError,
    ProviderUnavailableError,
    SchemaError,
    VfcError,
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


def raw_post(url, body):
    """The status and the decoded JSON reply of one POST of ``body``, bytes,
    to the service at ``url``, over a connection of its own."""
    parts = urlsplit(url)
    conn = http.client.HTTPConnection(parts.hostname, parts.port, timeout=5)
    try:
        conn.request("POST", parts.path, body, {"Content-Type": "application/json"})
        reply = conn.getresponse()
        return reply.status, json.loads(reply.read())
    finally:
        conn.close()


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
        {"inputs": ["a"], "encoding_format": "binary"},
        {"inputs": ["a"], "encoding_format": "BASE64"},
        {"inputs": ["a"], "encoding_format": None},
        {"inputs": ["a"], "encoding_format": 64},
        {"inputs": ["a"], "encoding_format": ["base64"]},
    ])
    def test_stub_rejects_a_malformed_request(self, stub_url, body):
        status, reply = raw_post(stub_url, json.dumps(body).encode())
        assert status == 400
        assert "error" in reply

    def test_request_without_encoding_format_gets_number_lists(self, stub_url):
        status, reply = raw_post(stub_url, json.dumps({"inputs": ["a", "b"]}).encode())
        assert status == 200
        assert reply["vectors"] == [hashed_vector(t, "text", 4).tolist() for t in "ab"]

    def test_client_asks_for_base64(self, stub_url, monkeypatch):
        exchanged = []
        exchange = RemoteEmbeddingClient._exchange

        def recording_exchange(self, body):
            reply = exchange(self, body)
            exchanged.append((json.loads(body), json.loads(reply)))
            return reply

        monkeypatch.setattr(RemoteEmbeddingClient, "_exchange", recording_exchange)
        rows = RemoteEmbeddingClient(stub_url).embed_images(["r1", "r2"])
        [(request, reply)] = exchanged
        assert request["encoding_format"] == "base64"
        assert all(isinstance(v, str) for v in reply["vectors"])
        want = [hashed_vector(r, "image", 4).astype(np.float32) for r in ("r1", "r2")]
        assert np.array_equal(rows, np.array(want, dtype=np.float64))

    def test_base64_and_number_lists_give_the_same_bits(self, stub_url, monkeypatch):
        """The stub's float32 cast before it encodes and the client's cast of
        number lists round the same float64 values to the same bits: to
        nearest, ties to even."""
        f32_max = float(np.finfo(np.float32).max)  # 2**128 - 2**104
        values = [
            0.0, -0.0, 5e-324, 0.1,
            # float32 subnormals
            2.0**-149, -2.0**-149, 3 * 2.0**-149, 2.0**-126 - 2.0**-149,
            # halfway between two subnormals, and just above halfway
            2.0**-150, 3 * 2.0**-150, -(5 * 2.0**-150), 2.0**-150 + 2.0**-170,
            # halfway between two float32 values near 1, and just above
            1 + 2.0**-24, 1 + 3 * 2.0**-24, -(1 + 3 * 2.0**-24), 1 + 2.0**-24 + 2.0**-52,
            # the largest float32; the largest float64 that rounds to it; and
            # halfway between it and the float32 below
            f32_max, -f32_max, 2.0**128 - 2.0**103 - 2.0**75, 2.0**128 - 3 * 2.0**103,
        ]
        rows = np.array(values).reshape(-1, 4)
        table = {f"v{i}": row for i, row in enumerate(rows)}
        monkeypatch.setattr(stubserver, "hashed_vector",
                            lambda text, modality, dim: table[text])
        decoded = []
        for encoding in ("base64", "float"):
            status, reply = raw_post(stub_url, json.dumps(
                {"inputs": list(table), "encoding_format": encoding}).encode())
            assert status == 200
            vectors = reply["vectors"]
            decoded.append(
                decode_base64(vectors, "vectors", 4, len(rows)) if encoding == "base64"
                else _as_float32(as_matrix(vectors, "vectors", 4), "vectors"))
        encoded, listed = decoded
        assert encoded.dtype == listed.dtype == np.float32
        assert encoded.view(np.uint32).tolist() == listed.view(np.uint32).tolist()

    @pytest.mark.parametrize("body", [
        b"[" * 100_000,
        b'{"inputs": ' + b"1" * 5000 + b"}",
    ], ids=["deep-nesting", "5000-digit-int"])
    def test_stub_rejects_json_it_cannot_decode(self, stub_url, body):
        status, reply = raw_post(stub_url, body)
        assert status == 400
        assert "error" in reply

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
        exchange = RemoteEmbeddingClient._exchange

        def counting_exchange(self, body):
            modalities.append(json.loads(body)["modality"])
            return exchange(self, body)

        monkeypatch.setattr(RemoteEmbeddingClient, "_exchange", counting_exchange)
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


@contextlib.contextmanager
def mute_server(hold):
    """A server that reads each connection's request and never replies: it
    closes the connection, or with ``hold`` keeps it open until the test
    ends. Yields its URL and the list of connections it accepted.

    It reads the whole request, the headers up to the blank line and then
    ``Content-Length`` bytes of body, which the client may send in two
    writes: a socket closed with bytes unread sends a reset, not a FIN."""
    server = socket.create_server(("127.0.0.1", 0))
    server.settimeout(0.05)  # a blocked accept would not see the test end
    accepted, done = [], threading.Event()

    def serve():
        while not done.is_set():
            try:
                conn, _ = server.accept()
            except TimeoutError:
                continue
            accepted.append(conn)
            with conn, conn.makefile("rb") as request:
                request.readline()  # the request line
                request.read(int(http.client.parse_headers(request)["Content-Length"]))
                if hold:
                    done.wait(10)

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    with server:
        try:
            yield f"http://127.0.0.1:{server.getsockname()[1]}/", accepted
        finally:
            done.set()
            thread.join(5)


class TestTransport:
    """One kept-alive connection per client and thread, reopened once when
    the service has closed it."""

    def test_idle_close_is_reopened(self, monkeypatch, connections):
        monkeypatch.setattr(_StubHandler, "timeout", 0.2)
        with running_stub(dim=4) as url:
            client = RemoteEmbeddingClient(url)
            client.embed_texts(["a"])
            idle = client._local.link.conn.sock
            assert select.select([idle], [], [], 5)[0]  # the stub closed it
            assert client.embed_texts(["b"]).tobytes() == stub_rows(["b"]).tobytes()
            client.embed_image("img/1")
        assert len(connections) == 2

    def test_error_reply_is_followed_by_a_new_connection(self, connections):
        with running_stub(dim=4) as url:
            client = RemoteEmbeddingClient(url)
            client.embed_texts(["a"])
            with pytest.raises(ProviderUnavailableError, match="HTTP 400 Bad Request"):
                client._post(["a"], "audio")  # the stub answers 400 and closes
            assert client.embed_texts(["b"]).tobytes() == stub_rows(["b"]).tobytes()
            client.embed_image("img/1")
        assert len(connections) == 2

    def test_close_without_reply_is_not_retried(self):
        with mute_server(hold=False) as (url, accepted):
            client = RemoteEmbeddingClient(url)
            with pytest.raises(ProviderUnavailableError,
                               match=f"^embedding service at {url} unavailable: "
                                     "RemoteDisconnected"):
                client.embed_texts(["a"])
            assert len(accepted) == 1

    def test_timeout_bounds_a_silent_service(self):
        with mute_server(hold=True) as (url, accepted):
            client = RemoteEmbeddingClient(url, timeout=0.2)
            start = time.perf_counter()
            with pytest.raises(ProviderUnavailableError, match="TimeoutError"):
                client.embed_image("img/1")
            assert time.perf_counter() - start < 2
            assert len(accepted) == 1

    def test_server_error_caches_nothing(self, monkeypatch, posts):
        do_post = _StubHandler.do_POST
        calls = []

        def failing_once(handler):
            calls.append(handler.path)
            if len(calls) == 1:
                handler._reply(500, {"error": "model not loaded"})
            else:
                do_post(handler)

        monkeypatch.setattr(_StubHandler, "do_POST", failing_once)
        with running_stub(dim=4) as url:
            client = RemoteEmbeddingClient(url)
            with pytest.raises(ProviderUnavailableError,
                               match=f"^embedding service at {url} unavailable: "
                                     ".*HTTP 500 Internal Server Error"):
                client.embed_texts(["a"])
            assert client.dim is None and not client._texts
            assert client.embed_texts(["a"]).tobytes() == stub_rows(["a"]).tobytes()
        assert posts == [("text", ["a"])] * 2

    def test_path_and_query_are_sent_as_given(self, monkeypatch):
        do_post = _StubHandler.do_POST
        paths = []

        def recording(handler):
            paths.append(handler.path)
            do_post(handler)

        monkeypatch.setattr(_StubHandler, "do_POST", recording)
        with running_stub(dim=4) as url:
            client = RemoteEmbeddingClient(f"{url}v1/embed?model=a%20b&x=1")
            client.embed_texts(["a"])
            RemoteEmbeddingClient(url.rstrip("/")).embed_texts(["b"])
        assert paths == ["/v1/embed?model=a%20b&x=1", "/"]

    def test_other_scheme_fails_on_the_first_call(self):
        client = RemoteEmbeddingClient("ftp://embedding.test/")
        with pytest.raises(ProviderUnavailableError,
                           match="^embedding service at ftp://embedding.test/ "
                                 "unavailable: InvalidURL"):
            client.embed_texts(["a"])

    def test_dropped_client_closes_its_connections(self, stub_url):
        """A connection of the calling thread and one of a thread still
        alive are both closed when the client is collected."""
        client = RemoteEmbeddingClient(stub_url)
        client.embed_texts(["a"])
        called, release = threading.Event(), threading.Event()
        socks = [client._local.link.conn.sock]

        def other():
            client.embed_texts(["b"])
            socks.append(client._local.link.conn.sock)
            called.set()
            release.wait(10)

        thread = threading.Thread(target=other)
        thread.start()
        try:
            assert called.wait(10)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                del client
                gc.collect()
            assert [s.fileno() for s in socks] == [-1, -1]
        finally:
            release.set()
            thread.join(10)
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]

    def test_close_then_call_opens_a_new_connection(self, connections):
        with running_stub(dim=4) as url:
            client = RemoteEmbeddingClient(url)
            client.embed_texts(["a"])
            sock = client._local.link.conn.sock
            client.close()
            assert sock.fileno() == -1
            client.embed_texts(["b"])
            client.close()
        assert len(connections) == 2

    def test_each_thread_reuses_its_own_connection(self, connections):
        threads = 8
        ready = threading.Barrier(threads)
        with running_stub(dim=4) as url:
            client = RemoteEmbeddingClient(url)

            def work(i):
                ready.wait(10)  # all 8 threads are alive at once
                ports = set()
                for j in range(5):
                    client.embed_image(f"img/{i}/{j}")
                    ports.add(client._local.link.conn.sock.getsockname())
                return ports

            with ThreadPoolExecutor(max_workers=threads) as pool:
                ports = list(pool.map(work, range(threads), timeout=60))
        assert all(len(p) == 1 for p in ports)
        assert sorted(p for [p] in map(list, ports)) == sorted(connections)
        assert len(connections) == threads


def reply_of(obj):
    """The body of a service reply of ``obj``."""
    return json.dumps(obj).encode()


def b64(*values):
    """The base64 of ``values`` as little-endian float32 bytes."""
    return base64.b64encode(np.array(values, dtype="<f4").tobytes()).decode()


class FakeService:
    """Stands in for ``RemoteEmbeddingClient._exchange``: answers from a
    store, as number lists or, with ``encode``, in base64, except that the
    vector for ``bad-ref`` is ``bad`` (by default one with a non-numeric
    element; None sends no vector for it). An instance is not a
    descriptor, so it gets no client argument."""

    def __init__(self, store, bad=(1.0, "x", 0.0, 0.0), encode=False):
        self.store, self.bad, self.encode = store, bad, encode

    def __call__(self, body):
        vectors = []
        for key in json.loads(body)["inputs"]:
            if key != "bad-ref":
                vec = self.store.vector(key)
                vectors.append(encode_base64([vec])[0] if self.encode else vec.tolist())
            elif self.bad is not None:
                vectors.append(self.bad)
        return reply_of({"dim": self.store.dim, "vectors": vectors})


# one fault of a reply for the texts ["dog", "cat"] (dim 2), in base64 and
# in number lists, and its code
REPLY_FAULTS = {
    "not-base64": ([b64(0.5, 1.0), "*" + b64(1.0, 0.5)[1:]],
                   [[0.5, 1.0], [1.0, "x"]], "schema-violation"),
    "not-ascii": ([b64(0.5, 1.0), "é" + b64(1.0, 0.5)[1:]],
                  [[0.5, 1.0], [1.0, "é"]], "schema-violation"),
    "wrong-length": ([b64(0.5, 1.0, 0.0), b64(1.0, 0.5, 0.0)],
                     [[0.5, 1.0, 0.0], [1.0, 0.5, 0.0]], "dimension-mismatch"),
    "partial-value": ([base64.b64encode(bytes(9)).decode()] * 2,
                      [[0.0, 0.0, 0.0]] * 2, "dimension-mismatch"),
    "nan": ([b64(0.5, 1.0), b64(float("nan"), 0.5)],
            [[0.5, 1.0], [float("nan"), 0.5]], "empty-input"),
    "inf": ([b64(0.5, -float("inf")), b64(1.0, 0.5)],
            [[0.5, -float("inf")], [1.0, 0.5]], "empty-input"),
    "mixed": ([b64(0.5, 1.0), [1.0, 0.5]], [[0.5, 1.0], b64(1.0, 0.5)],
              "schema-violation"),
    "fewer-vectors": ([b64(0.5, 1.0)], [[0.5, 1.0]], "provider-unavailable"),
}

# the vector a service sends for "bad-ref" (dim 4), in a base64 reply and
# in a number-list reply (None: no vector), and the code of its query; a
# call of that one ref has a reply of one form, so "mixed" fails no query
REF_FAULTS = {
    "not-base64": ("****" + b64(1, 0, 0, 0)[4:], [1.0, "x", 0.0, 0.0],
                   "schema-violation"),
    "wrong-length": (b64(1, 0, 0), [1.0, 0.0, 0.0], "dimension-mismatch"),
    "nan": (b64(1, float("nan"), 0, 0), [1.0, float("nan"), 0.0, 0.0], "empty-input"),
    "inf": (b64(float("inf"), 0, 0, 0), [float("inf"), 0.0, 0.0, 0.0], "empty-input"),
    "mixed": ([1.0, 0.0, 0.0, 0.0], b64(1, 0, 0, 0), None),
    "fewer-vectors": (None, None, "provider-unavailable"),
}


class TestMalformedReply:
    def world(self, monkeypatch, **service):
        store = PrecomputedStore(4)
        e = np.eye(4)
        for key, vec in [("dog", e[0]), ("cat", e[1]), ("park", e[2]),
                         ("dog-ref", e[0])]:
            store.add(key, vec)
        records = [CaptionRecord(f"cap-{i}", "a dog and a cat in a park")
                   for i in range(4)]
        for i, rec in enumerate(records):
            store.add(rec.id, e[i % 2])
        monkeypatch.setattr(RemoteEmbeddingClient, "_exchange",
                            FakeService(store, **service))
        return build_index(records, store)

    def test_non_numeric_vector_is_a_schema_error(self, monkeypatch):
        self.world(monkeypatch)
        client = RemoteEmbeddingClient("http://embedding.test/")
        with pytest.raises(SchemaError):
            client.embed_image("bad-ref")

    def test_bool_among_numbers_fails_only_its_call(self, monkeypatch):
        """A JSON ``true`` among a reply's numbers is not read as 1.0: the
        call fails, the client learns no dim from it, and the next call
        succeeds."""
        replies = [b'{"dim": 2, "vectors": [[0.5, true]]}',
                   reply_of({"dim": 2, "vectors": [[0.5, 1.0]]})]
        monkeypatch.setattr(RemoteEmbeddingClient, "_exchange",
                            lambda self, body: replies.pop(0))
        client = RemoteEmbeddingClient("http://embedding.test/")
        with pytest.raises(SchemaError, match="^service vectors is not a numeric matrix"):
            client.embed_texts(["dog"])
        assert client.dim is None
        assert client.embed_texts(["dog"]).tolist() == [[0.5, 1.0]]

    def test_reply_that_is_not_an_object(self, monkeypatch):
        reply = reply_of([[1.0, 0.0]])
        monkeypatch.setattr(RemoteEmbeddingClient, "_exchange",
                            lambda self, body: reply)
        client = RemoteEmbeddingClient("http://embedding.test/")
        with pytest.raises(ProviderUnavailableError, match="not an object"):
            client.embed_texts(["dog"])

    def test_non_numeric_vector_fails_only_its_query(self, monkeypatch):
        index = self.world(monkeypatch)
        client = RemoteEmbeddingClient("http://embedding.test/")
        queries = [("before", "dog-ref"), ("bad", "bad-ref"), ("after", "dog-ref")]
        results = classify_batch(queries, index, client, LexiconTagger(),
                                 ClassifierConfig(k=4))
        assert [r.error_code for r in results] == [None, "schema-violation", None]
        assert [r.prediction.label for r in (results[0], results[2])] == ["dog", "dog"]


    def test_value_beyond_float32_fails_only_its_call(self, monkeypatch):
        """A finite reply value that float32 cannot hold fails its call; the
        client learns no dim and caches nothing from it, and the next call
        succeeds."""
        replies = [reply_of({"dim": 2, "vectors": [[1e39, 1.0]]}),
                   reply_of({"dim": 2, "vectors": [[0.5, 1.0]]})]
        monkeypatch.setattr(RemoteEmbeddingClient, "_exchange",
                            lambda self, body: replies.pop(0))
        client = RemoteEmbeddingClient("http://embedding.test/")
        with pytest.raises(EmptyInputError,
                           match="^service vectors has values beyond float32's range"):
            client.embed_texts(["dog"])
        assert client.dim is None
        assert client.embed_texts(["dog"]).tolist() == [[0.5, 1.0]]
        assert client.dim == 2

    def test_value_beyond_float32_fails_only_its_query(self, monkeypatch):
        index = self.world(monkeypatch)
        store = RemoteEmbeddingClient._exchange.store

        def overflowing(client, body):
            vectors = [[1e39, 0.0, 0.0, 0.0] if key == "huge-ref" else store.vector(key).tolist()
                       for key in json.loads(body)["inputs"]]
            return reply_of({"dim": 4, "vectors": vectors})

        monkeypatch.setattr(RemoteEmbeddingClient, "_exchange", overflowing)
        client = RemoteEmbeddingClient("http://embedding.test/")
        queries = [("before", "dog-ref"), ("huge", "huge-ref"), ("after", "dog-ref")]
        results = classify_batch(queries, index, client, LexiconTagger(),
                                 ClassifierConfig(k=4))
        assert [r.error_code for r in results] == [None, "empty-input", None]
        assert [r.prediction.label for r in (results[0], results[2])] == ["dog", "dog"]

    @pytest.mark.parametrize("encoded, listed, code", REPLY_FAULTS.values(),
                             ids=REPLY_FAULTS)
    def test_base64_fault_fails_only_its_call(self, monkeypatch, encoded, listed, code):
        """A fault of a base64 reply fails its call with the code of the same
        fault in number lists; the client learns no dim and caches nothing
        from it, and the next call succeeds."""
        good = {"base64": [b64(0.5, 1.0), b64(1.0, 0.5)],
                "float": [[0.5, 1.0], [1.0, 0.5]]}
        for form, bad in (("base64", encoded), ("float", listed)):
            replies = [reply_of({"dim": 2, "vectors": bad}),
                       reply_of({"dim": 2, "vectors": good[form]})]
            monkeypatch.setattr(RemoteEmbeddingClient, "_exchange",
                                lambda self, body: replies.pop(0))
            client = RemoteEmbeddingClient("http://embedding.test/")
            with pytest.raises(VfcError) as info:
                client.embed_texts(["dog", "cat"])
            assert info.value.code == code, form
            assert client.dim is None and not client._texts
            assert client.embed_texts(["dog", "cat"]).tolist() == good["float"]

    @pytest.mark.parametrize("encoded, listed, code", REF_FAULTS.values(),
                             ids=REF_FAULTS)
    def test_base64_fault_fails_only_its_query(self, monkeypatch, encoded, listed, code):
        queries = [("before", "dog-ref"), ("bad", "bad-ref"), ("after", "dog-ref")]
        for bad, encode in ((encoded, True), (listed, False)):
            index = self.world(monkeypatch, bad=bad, encode=encode)
            client = RemoteEmbeddingClient("http://embedding.test/")
            results = classify_batch(queries, index, client, LexiconTagger(),
                                     ClassifierConfig(k=4))
            assert [r.error_code for r in results] == [None, code, None]
            assert [r.prediction.label for r in (results[0], results[2])] == ["dog", "dog"]


class TestClientSettings:
    @pytest.mark.parametrize("setting", [
        {"timeout": None}, {"timeout": 0.0}, {"timeout": -float("inf")},
        {"timeout": [10]},
        {"timeout": 0}, {"timeout": -1}, {"timeout": float("nan")},
        {"timeout": float("inf")}, {"timeout": True}, {"timeout": "10"},
    ])
    def test_bad_setting_is_rejected(self, setting):
        with pytest.raises(EmptyInputError):
            RemoteEmbeddingClient("http://embedding.test/", **setting)

    def test_good_settings_are_kept(self):
        client = RemoteEmbeddingClient("http://embedding.test/", timeout=2)
        assert (client.dim, client.timeout) == (None, 2)

    @pytest.mark.parametrize("args, kwargs", [
        (("http://embedding.test/", 4), {}), (("http://embedding.test/", 4, 2.0), {}),
        (("http://embedding.test/",), {"dim": 4}),
    ], ids=["positional", "positional-timeout", "dim"])
    def test_no_dim_and_keyword_only_settings(self, args, kwargs):
        with pytest.raises(TypeError):
            RemoteEmbeddingClient(*args, **kwargs)

    def test_dim_is_learned_from_the_first_good_reply(self, monkeypatch):
        replies = [reply_of({"dim": 4, "vectors": [[1.0, 0.0, 0.0]]}),
                   reply_of({"dim": 3, "vectors": [[1.0, 0.0, 0.0]]}),
                   reply_of({"dim": 4, "vectors": [[1.0, 0.0, 0.0, 0.0]]})]
        monkeypatch.setattr(RemoteEmbeddingClient, "_exchange",
                            lambda self, body: replies.pop(0))
        client = RemoteEmbeddingClient("http://embedding.test/")
        with pytest.raises(DimensionMismatchError):
            client.embed_images(["a"])  # vectors of 3 under a dim of 4
        assert client.dim is None
        assert client.embed_images(["a"]).shape == (1, 3)
        assert client.dim == 3
        with pytest.raises(DimensionMismatchError, match="dim 4, expected 3"):
            client.embed_images(["a"])
        assert client.dim == 3

    @pytest.mark.parametrize("dim", [True, 0, 4.0])
    def test_reply_dim_that_is_not_a_count(self, monkeypatch, dim):
        reply = reply_of({"dim": dim, "vectors": [[1.0, 0.0, 0.0, 0.0]]})
        monkeypatch.setattr(RemoteEmbeddingClient, "_exchange",
                            lambda self, body: reply)
        client = RemoteEmbeddingClient("http://embedding.test/")
        with pytest.raises(ProviderUnavailableError, match="malformed"):
            client.embed_texts(["dog"])
        assert client.dim is None


@pytest.fixture
def posts(monkeypatch):
    """``(modality, inputs)`` of every POST a client makes during the test."""
    sent = []
    exchange = RemoteEmbeddingClient._exchange

    def recording_exchange(self, body):
        request = json.loads(body)
        sent.append((request["modality"], request["inputs"]))
        return exchange(self, body)

    monkeypatch.setattr(RemoteEmbeddingClient, "_exchange", recording_exchange)
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
        (ConnectionRefusedError("refused"), ProviderUnavailableError),
        (reply_of({"dim": 4}), ProviderUnavailableError),
        (reply_of({"dim": 3, "vectors": [[1.0, 0.0, 0.0]] * 2}),
         DimensionMismatchError),
        (reply_of({"dim": 4, "vectors": [[1.0, 0.0, 0.0, 0.0]]}),
         ProviderUnavailableError),
    ], ids=["unreachable", "malformed", "dim-mismatch", "short-reply"])
    def test_failed_call_caches_nothing(self, monkeypatch, fault, error):
        # the first reply, for "z", pins the dim at 4
        pin = reply_of({"dim": 4, "vectors": stub_rows(["z"]).tolist()})
        good = reply_of({"dim": 4, "vectors": stub_rows(["a", "b"]).tolist()})
        replies, sent = [pin, fault, good], []

        def scripted_exchange(self, body):
            sent.append(json.loads(body)["inputs"])
            reply = replies.pop(0)
            if isinstance(reply, Exception):
                raise reply
            return reply

        monkeypatch.setattr(RemoteEmbeddingClient, "_exchange", scripted_exchange)
        client = RemoteEmbeddingClient("http://embedding.test/")
        client.embed_texts(["z"])
        with pytest.raises(error):
            client.embed_texts(["a", "b"])
        rows = client.embed_texts(["a", "b"])
        assert client.embed_texts(["b", "a"]).tobytes() == rows[::-1].tobytes()
        assert sent == [["z"], ["a", "b"], ["a", "b"]]
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
        monkeypatch.setattr(RemoteEmbeddingClient, "_exchange", FakeService(store))
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
