"""Deterministic embedding service for tests and offline demos.

Serves the remote-provider HTTP contract with hash-derived vectors: the
same (input, modality) pair always yields the same unit vector, so runs
against the stub are exactly reproducible and can be compared against a
pre-dumped binary store of the same vectors. A request's
``encoding_format`` picks the reply's form: ``"float"``, the default,
sends each vector as a list of numbers, and ``"base64"`` as the base64 of
its little-endian float32 bytes (:func:`vfclass.embedding.encode_base64`).
It speaks HTTP/1.1 and keeps
a connection open between requests; an error reply closes it, and so does
``_StubHandler.timeout`` seconds without a byte from the client.
"""

from __future__ import annotations

import contextlib
import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from .embedding import check_count, encode_base64, hashed_vector, is_count
from .errors import EmptyInputError, VfcError


class _StubHandler(BaseHTTPRequestHandler):
    dim = 64
    # keep-alive (RFC 9112 persistent connections); a reply goes out as two
    # sends, headers then body, and Nagle would hold the body back until the
    # client's delayed ACK, about 40 ms per call
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True
    # a read that waits this long closes the connection, so a client that
    # stops mid-request does not hold a thread forever; far longer than any
    # pause between calls of one client
    timeout = 30

    def handle(self):
        try:
            super().handle()
        except ConnectionError:  # the client hung up; no one is left to answer
            pass

    def do_POST(self):
        try:
            length = self.headers.get("Content-Length", "")
            if not length.isdecimal():
                raise ValueError(
                    f"Content-Length must be a byte count, got {length!r}")
            data = self.rfile.read(int(length))
            if len(data) < int(length):
                raise ValueError(f"body ended after {len(data)} of {length} bytes")
            body = json.loads(data)
            items = body["inputs"]
            modality = body.get("modality", "text")
            if modality not in ("text", "image"):
                raise ValueError("'modality' must be 'text' or 'image'")
            encoding = body.get("encoding_format", "float")
            if encoding not in ("float", "base64"):
                raise ValueError("'encoding_format' must be 'float' or 'base64'")
            if not isinstance(items, list) or not all(isinstance(t, str) for t in items):
                raise ValueError("'inputs' must be a list of strings")
            rows = [hashed_vector(t, modality, self.dim) for t in items]
            vectors = (encode_base64(rows) if encoding == "base64"
                       else [row.tolist() for row in rows])
        except (KeyError, TypeError, ValueError, RecursionError) as exc:
            self._reply(400, {"error": str(exc)})
            return
        self._reply(200, {"dim": self.dim, "vectors": vectors})

    def _reply(self, status: int, obj: dict) -> None:
        payload = json.dumps(obj).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        if status != 200:
            # the body may be unread, so its bytes must not be taken for
            # the next request; this header also sets close_connection
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, fmt, *args):  # keep test output quiet
        pass


class _StubServer(ThreadingHTTPServer):
    # the listen backlog: with the default of 5, a client whose 8 threads
    # each open a connection at once had connects dropped and retried after
    # a second
    request_queue_size = 64


def check_port(port):
    """``port`` if it is a TCP port, an integer from 0 to 65535 (0 lets the
    system choose one), else an :class:`EmptyInputError`."""
    if not (is_count(port, low=0) and port <= 65535):
        raise EmptyInputError(f"port must be an integer from 0 to 65535, got {port!r}")
    return port


def make_server(host: str, port: int, dim: int) -> ThreadingHTTPServer:
    check_count(dim, "dim")  # checked before binding, not in every request
    check_port(port)
    handler = type("Handler", (_StubHandler,), {"dim": dim})
    try:
        return _StubServer((host, port), handler)
    except OSError as exc:
        raise VfcError(f"cannot bind {host}:{port}: {exc}",
                       code="port-in-use") from exc


def serve(host: str = "127.0.0.1", port: int = 8765, dim: int = 64) -> None:
    """Run the stub service until interrupted."""
    server = make_server(host, port, dim)
    try:
        server.serve_forever()
    finally:
        server.server_close()


@contextlib.contextmanager
def running_stub(dim: int = 64, host: str = "127.0.0.1"):
    """Start the stub on a free port in a thread; yields its base URL."""
    server = make_server(host, 0, dim)
    # a short poll interval: shutdown waits for the poll that sees it
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    try:
        yield f"http://{host}:{server.server_address[1]}/"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
