"""The JSON-over-HTTP request with retries that every HTTP backend uses.

Built on the standard library's http.client. Idle keep-alive connections
are kept per (scheme, host, port) and shared by every thread of the
process, so a backend pays for one TCP (and TLS) handshake, not one per
request. HTTPS uses Python's default SSL context.
"""

from __future__ import annotations

import http.client
import json
import logging
import select
import threading
import time
from urllib.parse import urlsplit

log = logging.getLogger(__name__)

_CONNECTION_CLASSES = {
    "http": http.client.HTTPConnection,
    "https": http.client.HTTPSConnection,
}
_idle: dict[tuple, list[http.client.HTTPConnection]] = {}
_idle_lock = threading.Lock()


def _checkout(key: tuple, timeout: float) -> http.client.HTTPConnection:
    """An idle connection to `key` that the server has not closed, or a new one.

    An idle socket that is readable has been closed by the server (or holds
    bytes nobody asked for), so it is dropped before anything is sent on it;
    a request is never sent twice.
    """
    while True:
        with _idle_lock:
            idle = _idle.get(key)
            conn = idle.pop() if idle else None
        if conn is None:
            scheme, host, port = key
            return _CONNECTION_CLASSES[scheme](host, port, timeout=timeout)
        if select.select([conn.sock], [], [], 0)[0]:
            conn.close()
            continue
        conn.sock.settimeout(timeout)
        return conn


def _post(key: tuple, path: str, payload: bytes, timeout: float) -> tuple[int, bytes]:
    """One POST: the reply's status and body. The connection goes back to
    the idle pool only when the reply was read in full and does not say
    `close` (getresponse closes it then); on any failure it is closed."""
    conn = _checkout(key, timeout)
    try:
        conn.request("POST", path, payload, {"Content-Type": "application/json"})
        resp = conn.getresponse()
        raw = resp.read()
    except BaseException:
        conn.close()
        raise
    if not resp.will_close:
        with _idle_lock:
            _idle.setdefault(key, []).append(conn)
    return resp.status, raw


def post_json(url: str, body: dict, timeout: float, error: type[Exception]) -> dict:
    """POST `body` as JSON to `url` and return the reply's JSON object.

    Makes up to three attempts, sleeping 0.05 * k s before retry k and
    logging one WARNING per retry. Transport errors (OSError, including
    timeouts, and http.client.HTTPException, including a cut-short body),
    5xx replies and bodies that are not a JSON object are retried; any other
    reply that is not 2xx fails at once (redirects are not followed).
    Failures raise `error`.
    """
    parts = urlsplit(url)
    try:
        key = (parts.scheme, parts.hostname, parts.port)
    except ValueError as exc:
        raise error(f"{url} is not a valid URL: {exc}") from None
    if parts.scheme not in _CONNECTION_CLASSES or not parts.hostname:
        raise error(f"{url} is not an http or https URL")
    path = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
    payload = json.dumps(body).encode("utf-8")
    cause: str | None = None
    for attempt in range(3):
        if attempt:
            log.warning("%s: attempt %d failed (%s); retrying", url, attempt, cause)
            time.sleep(0.05 * attempt)
        try:
            status, raw = _post(key, path, payload, timeout)
        except (OSError, http.client.HTTPException) as exc:
            cause = repr(exc)
            continue
        if status >= 500:
            cause = f"status {status}"
            continue
        if not 200 <= status < 300:
            raise error(f"{url} rejected the request with {status}")
        try:
            data = json.loads(raw)
        except ValueError:
            cause = "a non-JSON body"
            continue
        if isinstance(data, dict):
            return data
        cause = "a non-object body"
    raise error(f"{url} failed after retries: {cause}")
