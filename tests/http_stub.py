"""Minimal local HTTP server for exercising the network-backed providers."""

from __future__ import annotations

import json
import threading
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer


@contextmanager
def stub_server(responder):
    """Serve POST requests on a random localhost port.

    ``responder(payload, headers) -> (status, body)`` where body is a dict
    (JSON-encoded) or raw bytes; a third item, a dict, adds response
    headers. Yields ``(base_url, captured)`` with
    ``captured`` collecting one dict per request.
    """
    captured: list[dict] = []

    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            length = int(self.headers.get("Content-Length", 0))
            raw = self.rfile.read(length)
            payload = json.loads(raw) if raw else None
            captured.append({
                "path": self.path,
                "payload": payload,
                "headers": {k.lower(): v for k, v in self.headers.items()},
            })
            status, body, *extra = responder(payload, self.headers)
            data = body if isinstance(body, bytes) else json.dumps(body).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            for name, value in (extra[0] if extra else {}).items():
                self.send_header(name, value)
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def log_message(self, *args):
            pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}", captured
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
