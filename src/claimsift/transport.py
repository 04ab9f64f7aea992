"""The JSON-over-HTTP request with retries that every HTTP backend uses."""

from __future__ import annotations

import time

import requests


def post_json(session: requests.Session, url: str, body: dict, timeout: float,
              error: type[Exception]) -> dict:
    """POST `body` as JSON to `url` and return the reply's JSON object.

    Makes up to three attempts, sleeping 0.05 * k s before retry k.
    Connection errors, timeouts, 5xx replies and bodies that are not a JSON
    object are retried; a 4xx reply fails at once. Failures raise `error`.
    """
    last_error: object = None
    for attempt in range(3):
        if attempt:
            time.sleep(0.05 * attempt)
        try:
            resp = session.post(url, json=body, timeout=timeout)
        except (requests.ConnectionError, requests.Timeout) as exc:
            last_error = exc
            continue
        if resp.status_code >= 500:
            last_error = f"{url} returned {resp.status_code}"
            continue
        if resp.status_code >= 400:
            raise error(f"{url} rejected the request with {resp.status_code}")
        try:
            data = resp.json()
        except ValueError:
            last_error = f"{url} returned a non-JSON body"
            continue
        if isinstance(data, dict):
            return data
        last_error = f"{url} returned a non-object body"
    raise error(f"{url} failed after retries: {last_error}")
