"""Deterministic embedding service for tests and offline demos.

Serves the remote-provider HTTP contract with hash-derived vectors: the
same (input, modality) pair always yields the same unit vector, so runs
against the stub are exactly reproducible and can be compared against a
pre-dumped binary store of the same vectors. It speaks HTTP/1.1 and keeps
a connection open between requests; an error reply closes it, and so does
``_StubHandler.timeout`` seconds without a byte from the client.
"""

from __future__ import annotations

import contextlib
import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from .embedding import hashed_vector, is_count
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
            if not isinstance(items, list) or not all(isinstance(t, str) for t in items):
                raise ValueError("'inputs' must be a list of strings")
            vectors = [hashed_vector(t, modality, self.dim).tolist() for t in items]
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


def make_server(host: str, port: int, dim: int) -> ThreadingHTTPServer:
    if not is_count(dim):  # checked before binding, not in every request
        raise EmptyInputError(f"dim must be an integer >= 1, got {dim!r}")
    handler = type("Handler", (_StubHandler,), {"dim": dim})
    try:
        return ThreadingHTTPServer((host, port), handler)
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
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://{host}:{server.server_address[1]}/"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
