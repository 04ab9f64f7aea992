"""The HTTP transport: keep-alive connection reuse, retries and their log."""

from __future__ import annotations

import gc
import json
import logging
import os
import subprocess
import sys
import time
import warnings
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import claimsift
from claimsift.annotators import BackendConfig, HttpAnnotator, OracleAnnotator
from claimsift.config import RunConfig
from claimsift.corpus import SynthConfig, generate_synthetic
from claimsift.engine import Trainer
from claimsift.errors import AnnotatorError
from claimsift.metrics import evaluate
from claimsift.state import HashedEmbedder, ServiceEmbedder
from conftest import Gauge


def _http(server, max_in_flight: int = 4) -> HttpAnnotator:
    return HttpAnnotator(BackendConfig(kind="http", endpoint=server.url, timeout=2.0,
                                       max_in_flight=max_in_flight))


def _oracle_reply(body):
    """A reply that is a pure function of the request, so the order in
    which concurrent requests arrive cannot change it."""
    seed = zlib.crc32(f"{body['task']}\n{body['prompt']}".encode("utf-8"))
    reply = OracleAnnotator(accuracy=0.8, rng=seed).complete(body["task"], body["prompt"])
    return 200, {"label": reply.label, "explanation": reply.explanation,
                 "distribution": reply.distribution.tolist()}


def test_sequential_calls_share_one_connection(keep_alive_server):
    keep_alive_server.set_default("/annotate", _oracle_reply)
    http = _http(keep_alive_server)
    for i in range(10):
        http.complete("stance", f"prompt {i}")
    assert len(keep_alive_server.requests) == 10
    assert len(set(keep_alive_server.client_ports)) == 1


def test_embed_reuses_its_connection(keep_alive_server):
    keep_alive_server.set_default("/embed", lambda body: (200, {"vector": [0.5, 0.5]}))
    emb = ServiceEmbedder(keep_alive_server.url, 2, timeout=2.0)
    for text in ("a", "b", "c"):
        emb.embed(text)
    assert len(keep_alive_server.calls("/embed")) == 3
    assert len(set(keep_alive_server.client_ports)) == 1


def test_connection_closed_by_server_is_replaced_without_a_retry(keep_alive_server, caplog):
    keep_alive_server.set_default("/annotate", _oracle_reply)
    http = _http(keep_alive_server)
    http.complete("stance", "first")
    keep_alive_server.drop_connections()
    with caplog.at_level(logging.WARNING, logger="claimsift.transport"):
        http.complete("stance", "second")
    assert len(keep_alive_server.requests) == 2
    first, second = keep_alive_server.client_ports
    assert first != second
    assert caplog.records == []


def test_threaded_evaluate_opens_at_most_max_in_flight_connections(keep_alive_server):
    keep_alive_server.set_default("/annotate", _oracle_reply)
    dataset = generate_synthetic(SynthConfig(n_claims=4, posts_per_claim=5, rng_seed=3))
    threaded = evaluate(dataset, _http(keep_alive_server, 2), _http(keep_alive_server, 2))
    assert len(set(keep_alive_server.client_ports)) <= 2
    sequential = evaluate(dataset, _http(keep_alive_server, 1), _http(keep_alive_server, 1))
    assert asdict(threaded) == asdict(sequential)
    assert len(keep_alive_server.requests) == 2 * (4 * 5 + 4)


class GaugedHttp(HttpAnnotator):
    """An HTTP backend whose requests enter a gauge, by task, while they
    are in flight."""

    def __init__(self, config: BackendConfig, gauge: Gauge):
        super().__init__(config)
        self.gauge = gauge

    def _post(self, route: str, body: dict) -> dict:
        self.gauge.enter(body["task"], route)
        try:
            return super()._post(route, body)
        finally:
            self.gauge.leave(body["task"], route)


def _slow_finetune(body):
    """A fine-tune reply 50 ms late, so that two requests sent together are
    seen in flight together."""
    time.sleep(0.05)
    return 200, {"job": body["task"]}


def _http_training(server, tmp_path, sd_bound, rv_bound):
    """(gauge, final params, run log) of two epochs of training on two
    HTTP backends of `server` with the given bounds, warm-ups included."""
    warm_up = tmp_path / "warm.jsonl"
    warm_up.write_text(json.dumps({"prompt": "p", "target": "Stance: Support, Reason: r"})
                       + "\n", encoding="utf-8")
    sd_config, rv_config = (BackendConfig(kind="http", endpoint=server.url, timeout=2.0,
                                          max_in_flight=bound)
                            for bound in (sd_bound, rv_bound))
    config = RunConfig(embed_dim=8, hidden_dim=4, max_epochs=2, learning_rate=1e-2,
                       rng_seed=4, sd_backend=sd_config, rv_backend=rv_config,
                       sd_pretrain_path=str(warm_up))
    dataset = generate_synthetic(SynthConfig(n_claims=3, posts_per_claim=2, rng_seed=3))
    gauge = Gauge()
    trainer = Trainer(config, dataset, GaugedHttp(sd_config, gauge),
                      GaugedHttp(rv_config, gauge), HashedEmbedder(8))
    events = []
    trainer.set_event_sink(events.append)
    reports = trainer.train()
    assert [r.finetune_stance_examples > 0 for r in reports] == [True, True]
    return gauge, (trainer.params.w1, trainer.params.w2), events


@pytest.mark.parametrize("bounds", [(2, 2), (2, 1), (1, 2)])
def test_training_keeps_each_backends_bound_and_the_sequential_run(keep_alive_server,
                                                                  tmp_path, bounds):
    """Annotation calls stay one at a time; the warm-ups and each epoch's
    fine-tunes go out as pairs, in flight together when either backend is
    above 1, and the run equals the all-sequential one."""
    keep_alive_server.set_default("/annotate", _oracle_reply)
    keep_alive_server.set_default("/finetune", _slow_finetune)
    gauge, params, events = _http_training(keep_alive_server, tmp_path, *bounds)
    sequential, reference, reference_events = _http_training(
        keep_alive_server, tmp_path, 1, 1)
    assert all(gauge.task_peaks[task] <= bound
               for task, bound in zip(("stance", "veracity"), bounds))
    # the warm-ups, then each epoch's fine-tunes: both of a pair start
    # before either ends
    assert [event for event, _task, what in gauge.events
            if what == "/finetune"] == 3 * ["start", "start", "end", "end"]
    # all-sequential: one call at a time, stance first in each pair
    assert all(a[0] != b[0] for a, b in zip(sequential.events, sequential.events[1:]))
    assert [(event, task) for event, task, what in sequential.events
            if what == "/finetune"] == 3 * [("start", "stance"), ("end", "stance"),
                                            ("start", "veracity"), ("end", "veracity")]
    assert all(np.array_equal(a, b) for a, b in zip(params, reference))
    assert events == reference_events


def test_pool_under_thread_contention(keep_alive_server):
    """More threads than cores share the pool with a short switch interval:
    every reply answers its own request (no connection is used by two
    threads at once) and no more connections are opened than threads."""
    keep_alive_server.set_default(
        "/annotate", lambda body: (200, {"label": "Support", "explanation": body["prompt"]}))
    http = _http(keep_alive_server)
    threads, calls = 8, 25

    def worker(t):
        for i in range(calls):
            prompt = f"thread {t} call {i}"
            assert http.complete("stance", prompt).explanation == prompt

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            futures = [pool.submit(worker, t) for t in range(threads)]
            for future in futures:
                future.result(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert len(keep_alive_server.requests) == threads * calls
    assert len(set(keep_alive_server.client_ports)) <= threads


def test_redirect_fails_after_one_request(scripted_server):
    scripted_server.script("/annotate", status=302, payload={"moved": True})
    with pytest.raises(AnnotatorError) as err:
        _http(scripted_server).complete("stance", "p")
    assert "rejected the request with 302" in str(err.value)
    assert len(scripted_server.calls("/annotate")) == 1


@pytest.mark.parametrize("endpoint, fragment", [
    ("ftp://127.0.0.1:9", "not an http or https URL"),
    ("127.0.0.1:9", "not an http or https URL"),
    ("http://127.0.0.1:99999", "not a valid URL"),
])
def test_endpoint_that_is_not_an_http_url_fails_at_once(endpoint, fragment):
    cfg = BackendConfig(kind="http", endpoint=endpoint, timeout=0.5)
    with pytest.raises(AnnotatorError, match=fragment):
        HttpAnnotator(cfg).complete("stance", "p")


def test_cut_short_reply_is_a_counted_attempt(cut_short_server):
    with pytest.raises(AnnotatorError) as err:
        _http(cut_short_server).complete("stance", "p")
    assert "failed after retries: IncompleteRead" in str(err.value)
    assert cut_short_server.requests == 3


def test_each_retry_logs_one_warning(scripted_server, caplog):
    scripted_server.script("/annotate", status=503, payload={"error": "busy"})
    scripted_server.script("/annotate", payload={"label": "Deny"})
    with caplog.at_level(logging.WARNING, logger="claimsift.transport"):
        _http(scripted_server).complete("stance", "p")
    (record,) = caplog.records
    assert record.levelno == logging.WARNING
    message = record.getMessage()
    assert f"{scripted_server.url}/annotate" in message
    assert "attempt 1" in message
    assert "503" in message


def test_discarded_connections_are_closed(keep_alive_server, scripted_server,
                                          cut_short_server):
    """Every way a connection leaves the pool closes its socket: a stale
    idle connection, a reply that says close, a cut-short reply, and 4xx
    and 5xx replies, which are read in full and stay pooled."""
    keep_alive_server.set_default("/annotate", _oracle_reply)
    scripted_server.set_default("/annotate", _oracle_reply)
    keep_alive_server.script("/annotate", status=503, payload={"e": 1})
    keep_alive_server.script("/annotate", status=404, payload={"e": 2})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        keep_alive = _http(keep_alive_server)
        with pytest.raises(AnnotatorError):
            keep_alive.complete("stance", "a")  # 503, then 404
        keep_alive.complete("stance", "b")
        keep_alive_server.drop_connections()
        keep_alive.complete("stance", "c")
        _http(scripted_server).complete("stance", "d")
        with pytest.raises(AnnotatorError):
            _http(cut_short_server).complete("stance", "e")
        gc.collect()
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []
    assert len(set(keep_alive_server.client_ports)) == 2


def test_importing_the_cli_loads_no_third_party_http_library():
    src = str(Path(claimsift.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, claimsift.cli; "
         "print(sorted(m for m in ('requests', 'urllib3') if m in sys.modules))"],
        capture_output=True, text=True, env=env, check=True, timeout=60,
    ).stdout
    assert out.strip() == "[]"
