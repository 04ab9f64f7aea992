"""Annotation service with a fixed injected delay, for the http_latency workload.

Speaks the claimsift HTTP protocol (POST /annotate, POST /finetune) and adds
GET /stats, which returns the request counts per route and the number of
replies that were not 200. Every /annotate reply is a pure function of the
request body: an OracleAnnotator seeded from the crc32 of task and prompt
answers it, so concurrent or reordered requests cannot change any result.

Each response goes out in one write on a socket with Nagle disabled. A
handler that writes headers and body separately stalls on delayed ACKs and
measures the TCP stack instead of the client.

Run: python3 bench/latency_server.py --delay-ms 20
It prints "port <n>" on its first stdout line and serves until terminated.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
import zlib
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from claimsift.annotators import OracleAnnotator  # noqa: E402
from workloads import ORACLE_ACCURACY  # noqa: E402


class Counters:
    def __init__(self):
        self._lock = threading.Lock()
        self.requests: dict[str, int] = {}
        self.non_200 = 0

    def record(self, route: str, status: int) -> None:
        with self._lock:
            self.requests[route] = self.requests.get(route, 0) + 1
            if status != 200:
                self.non_200 += 1

    def snapshot(self) -> dict:
        with self._lock:
            return {"requests": dict(self.requests), "non_200": self.non_200}


def annotate(task: str, prompt: str) -> dict:
    seed = zlib.crc32(f"{task}\n{prompt}".encode("utf-8"))
    oracle = OracleAnnotator(accuracy=ORACLE_ACCURACY, rng=np.random.default_rng(seed))
    reply = oracle.complete(task, prompt)
    return {
        "label": reply.label,
        "explanation": reply.explanation,
        "distribution": reply.distribution.tolist(),
    }


def make_handler(counters: Counters, delay_s: float):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        disable_nagle_algorithm = True

        def log_message(self, *args):
            pass

        def _reply(self, status: int, payload: dict) -> None:
            body = json.dumps(payload).encode("utf-8")
            head = (
                f"HTTP/1.1 {status} {self.responses.get(status, ('',))[0]}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n\r\n"
            ).encode("ascii")
            self.wfile.write(head + body)

        def do_GET(self):
            if self.path == "/stats":
                self._reply(200, counters.snapshot())
            else:
                self._reply(404, {"error": "unknown route"})

        def do_POST(self):
            raw = self.rfile.read(int(self.headers.get("Content-Length", 0)))
            time.sleep(delay_s)
            try:
                body = json.loads(raw)
                if self.path == "/annotate":
                    status, payload = 200, annotate(body["task"], body["prompt"])
                elif self.path == "/finetune":
                    status, payload = 200, {"job": f"ft-{len(body['examples'])}"}
                else:
                    status, payload = 404, {"error": "unknown route"}
            except (ValueError, KeyError, TypeError) as exc:
                status, payload = 400, {"error": str(exc)}
            counters.record(self.path, status)
            self._reply(status, payload)

    return Handler


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--delay-ms", type=float, required=True)
    args = parser.parse_args(argv)
    counters = Counters()
    server = ThreadingHTTPServer(
        ("127.0.0.1", 0), make_handler(counters, args.delay_ms / 1000.0)
    )
    server.daemon_threads = True
    print(f"port {server.server_address[1]}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
