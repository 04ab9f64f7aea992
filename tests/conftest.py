"""Shared test fixtures: scriptable HTTP servers for backend tests, and an
in-flight gauge for fake backends."""

from __future__ import annotations

import json
import socket
import socketserver
import threading
import time
from collections import deque
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

POLL_INTERVAL_S = 0.02


class Gauge:
    """Backend calls in flight across backends, guarded by one lock: the
    most in flight at once, overall and per task, whether a veracity call
    ran beside a stance call, the threads each task was called on, how many
    calls have started, and each call's start and end, with what it was
    (a prompt, say), in the order they happened."""

    def __init__(self):
        self.lock = threading.Lock()
        self.now = {"stance": 0, "veracity": 0}
        self.peak = 0
        self.task_peaks = {"stance": 0, "veracity": 0}
        self.threads = {"stance": set(), "veracity": set()}
        self.overlapped = False
        self.starts = 0
        self.events = []

    def enter(self, task, prompt):
        with self.lock:
            self.starts += 1
            self.events.append(("start", task, prompt))
            self.threads[task].add(threading.get_ident())
            self.now[task] += 1
            self.peak = max(self.peak, sum(self.now.values()))
            self.task_peaks[task] = max(self.task_peaks[task], self.now[task])
            if self.now["stance"] and self.now["veracity"]:
                self.overlapped = True

    def leave(self, task, prompt):
        with self.lock:
            self.now[task] -= 1
            self.events.append(("end", task, prompt))


class ScriptedServer:
    """In-process HTTP server whose responses are queued per route.

    script(route, ...) enqueues one response; set_default(route, fn) handles
    anything beyond the queue, where fn(body) returns (status, payload).
    Payloads that are dicts are sent as JSON; strings are sent verbatim
    (for non-JSON-body tests). Every request is recorded as (route, body),
    and the client's TCP port as an entry of `client_ports`.

    By default the server speaks HTTP/1.0 and closes each connection after
    its reply. With keep_alive=True it speaks HTTP/1.1 and keeps
    connections open until the client closes them or drop_connections().
    """

    def __init__(self, keep_alive: bool = False):
        self._scripts: dict[str, deque] = {}
        self._defaults: dict[str, callable] = {}
        self.requests: list[tuple[str, dict | None]] = []
        self.client_ports: list[int] = []
        self._open: set[socket.socket] = set()
        self._lock = threading.Lock()

        owner = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1" if keep_alive else "HTTP/1.0"

            def log_message(self, *args):
                pass

            def setup(self):
                super().setup()
                with owner._lock:
                    owner._open.add(self.connection)

            def finish(self):
                super().finish()
                with owner._lock:
                    owner._open.discard(self.connection)

            def do_POST(self):
                length = int(self.headers.get("Content-Length", 0))
                raw = self.rfile.read(length)
                try:
                    body = json.loads(raw) if raw else None
                except json.JSONDecodeError:
                    body = None
                with owner._lock:
                    owner.requests.append((self.path, body))
                    owner.client_ports.append(self.client_address[1])
                    queue = owner._scripts.get(self.path)
                    if queue:
                        status, payload = queue.popleft()
                    elif self.path in owner._defaults:
                        status, payload = owner._defaults[self.path](body)
                    else:
                        status, payload = 404, {"error": "not scripted"}
                if isinstance(payload, dict):
                    blob = json.dumps(payload).encode("utf-8")
                    ctype = "application/json"
                else:
                    blob = str(payload or "").encode("utf-8")
                    ctype = "text/plain"
                self.send_response(status)
                self.send_header("Content-Type", ctype)
                self.send_header("Content-Length", str(len(blob)))
                self.end_headers()
                self.wfile.write(blob)

        self._server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        # shutdown() waits up to one poll interval; the default is 0.5 s
        self._thread = threading.Thread(
            target=self._server.serve_forever, args=(POLL_INTERVAL_S,), daemon=True
        )
        self._thread.start()

    @property
    def url(self) -> str:
        host, port = self._server.server_address
        return f"http://{host}:{port}"

    def script(self, route: str, status: int = 200, payload=None, repeat: int = 1):
        queue = self._scripts.setdefault(route, deque())
        for _ in range(repeat):
            queue.append((status, payload))

    def set_default(self, route: str, fn) -> None:
        self._defaults[route] = fn

    def calls(self, route: str) -> list:
        return [body for path, body in self.requests if path == route]

    def drop_connections(self) -> None:
        """Close every open client connection from the server's side, as a
        server does with idle keep-alive connections, and wait until the
        handlers have let go of them."""
        with self._lock:
            conns = list(self._open)
        for conn in conns:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        deadline = time.monotonic() + 5.0
        while self._open and time.monotonic() < deadline:
            time.sleep(0.001)

    def close(self) -> None:
        self.drop_connections()
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=5)


@pytest.fixture
def scripted_server():
    server = ScriptedServer()
    yield server
    server.close()


@pytest.fixture
def keep_alive_server():
    server = ScriptedServer(keep_alive=True)
    yield server
    server.close()


class _CutShortHandler(socketserver.StreamRequestHandler):
    """Reads one request, promises a 100-byte body, sends 9 bytes, closes."""

    def handle(self):
        length = 0
        while (line := self.rfile.readline()) not in (b"\r\n", b""):
            if line.lower().startswith(b"content-length:"):
                length = int(line.split(b":", 1)[1])
        self.rfile.read(length)
        self.server.requests += 1
        self.wfile.write(b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
                         b"Content-Length: 100\r\n\r\n{\"label\":")


@pytest.fixture
def cut_short_server():
    """A server whose every reply body is cut short; `.url`, `.requests`."""
    server = socketserver.ThreadingTCPServer(("127.0.0.1", 0), _CutShortHandler)
    server.daemon_threads = True
    server.requests = 0
    server.url = "http://127.0.0.1:%d" % server.server_address[1]
    thread = threading.Thread(target=server.serve_forever, args=(POLL_INTERVAL_S,),
                              daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)
