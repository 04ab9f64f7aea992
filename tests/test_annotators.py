"""Annotation backends: scripted oracle, HTTP client, and the ops on top."""

from __future__ import annotations

import json
from dataclasses import asdict
import logging

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from claimsift.annotators import (
    TASK_STANCE,
    TASK_VERACITY,
    BackendConfig,
    BackendReply,
    FineTuneExample,
    HttpAnnotator,
    OracleAnnotator,
    StanceAnnotation,
    annotate_claim,
    annotate_post,
    export_finetune_set,
    fine_tune,
    format_stance_target,
    format_veracity_target,
    _from_reply,
    make_backend,
    smoothed_one_hot,
)
from claimsift.corpus import Claim, Post
from claimsift.errors import AnnotatorError, ConfigError, ParseError, from_json
from claimsift.labels import STANCES, STANCE_INDEX, STANCE_NAMES, VERACITIES, VERACITY_NAMES
from claimsift.reward import ReferenceStanceStats, StanceMean, labeled_claim_reward

CLAIM = Claim("c9", "power is out downtown", None, (
    Post("p9", "saw it myself", "max", 5),
))


def _stance(label: str) -> StanceAnnotation:
    return StanceAnnotation(
        label, smoothed_one_hot(STANCE_INDEX[label], 0.1), "", ""
    )


def _http(server, **kw) -> HttpAnnotator:
    return HttpAnnotator(
        BackendConfig(kind="http", endpoint=server.url, timeout=2.0, **kw)
    )


# ---------------------------------------------------------------- oracle

def test_oracle_stance_accuracy_monte_carlo():
    oracle = OracleAnnotator(accuracy=0.9, rng=123)
    claim = Claim("c", "the dam burst", None)
    post = Post("p", "that is a lie [sig:d]", "u", 1)
    n = 4000
    labels = [annotate_post(oracle, claim, post).label for _ in range(n)]
    assert abs(labels.count("D") / n - 0.9) < 0.02
    # errors spread uniformly over the three wrong labels
    for wrong in ("S", "Q", "C"):
        assert abs(labels.count(wrong) / n - 0.1 / 3.0) < 0.015


def test_oracle_stance_unmarked_post_is_uniform():
    oracle = OracleAnnotator(rng=7)
    claim = Claim("c", "plain claim", None)
    post = Post("p", "no markers here", "u", 1)
    n = 4000
    labels = [annotate_post(oracle, claim, post).label for _ in range(n)]
    for label in STANCES:
        assert abs(labels.count(label) / n - 0.25) < 0.03
    assert "no clear stance" in annotate_post(oracle, claim, post).explanation


def test_oracle_stance_distribution_is_exact():
    oracle = OracleAnnotator(accuracy=0.9, rng=0)
    claim = Claim("c", "x", None)
    post = Post("p", "is that true? [sig:q]", "u", 1)
    ann = annotate_post(oracle, claim, post)
    expected = np.full(4, 0.1 / 3.0)
    expected[STANCE_INDEX[ann.label]] = 0.9
    np.testing.assert_allclose(ann.distribution, expected, rtol=0, atol=1e-15)


def test_oracle_veracity_accuracy_tracks_matched_fraction():
    posts = tuple(Post(f"p{i}", f"b{i}", "u", i + 1) for i in range(4))
    claim = Claim("c", "dam burst [truth:t]", "T", posts)
    n = 3000

    oracle = OracleAnnotator(accuracy=0.9, rng=99)
    retained = [(p, _stance("S")) for p in posts]  # all match T's modal stance
    hits = sum(annotate_claim(oracle, claim, retained).label == "T" for _ in range(n))
    assert abs(hits / n - 0.9) < 0.025

    oracle = OracleAnnotator(accuracy=0.9, rng=100)
    retained = [(p, _stance("C")) for p in posts]  # none match
    hits = sum(annotate_claim(oracle, claim, retained).label == "T" for _ in range(n))
    assert abs(hits / n - 0.25) < 0.035


def test_oracle_veracity_distribution_tracks_matched_fraction():
    # one of two posts matched: p_correct = 0.25 + 0.75 * 0.5 = 0.625
    posts = (Post("p0", "a", "u", 1), Post("p1", "b", "u", 2))
    claim = Claim("c", "x [truth:u]", "U", posts)
    oracle = OracleAnnotator(accuracy=0.9, rng=11)
    retained = [(posts[0], _stance("Q")), (posts[1], _stance("S"))]
    ann = annotate_claim(oracle, claim, retained)
    assert ann.distribution.max() == pytest.approx(0.625)
    assert ann.distribution.min() == pytest.approx(0.125)


def test_oracle_veracity_fallback_is_exact_uniform():
    oracle = OracleAnnotator(rng=0)
    claim = Claim("c", "no marker text", None, (Post("p", "b", "u", 1),))
    ann = annotate_claim(oracle, claim, [])
    assert ann.label == "N"
    np.testing.assert_array_equal(ann.distribution, np.full(4, 0.25))
    assert "No responding posts" in ann.explanation
    # a marked claim with nothing retained falls back the same way
    marked = Claim("c2", "y [truth:f]", "F", (Post("p", "b", "u", 1),))
    ann = annotate_claim(oracle, marked, [])
    assert ann.label == "N"
    np.testing.assert_array_equal(ann.distribution, np.full(4, 0.25))


def test_oracle_veracity_low_evidence_keeps_argmax_on_label():
    # zero matched posts floors p_correct at 0.25; the emitted label must
    # still win the distribution argmax
    oracle = OracleAnnotator(accuracy=0.9, rng=3)
    claim = Claim("c", "x [truth:f]", "F", (Post("p", "b", "u", 1),))
    ann = annotate_claim(oracle, claim, [(claim.posts[0], _stance("C"))])
    assert VERACITIES[int(np.argmax(ann.distribution))] == ann.label
    assert ann.distribution.max() == pytest.approx(0.2500001)


def test_oracle_unknown_task():
    with pytest.raises(AnnotatorError) as err:
        OracleAnnotator(rng=0).complete("embedding", "p")
    assert "unknown task" in str(err.value)


def test_oracle_finetune_is_skipped():
    oracle = OracleAnnotator(rng=0)
    assert oracle.finetune("stance", [{"prompt": "p", "target": "t"}]) == "skipped"


def test_oracle_state_round_trip():
    oracle = OracleAnnotator(rng=42)
    claim = Claim("c", "x", None)
    post = Post("p", "y", "u", 1)
    state = oracle.get_state()
    first = [annotate_post(oracle, claim, post).label for _ in range(20)]
    oracle.set_state(state)
    second = [annotate_post(oracle, claim, post).label for _ in range(20)]
    assert first == second


def test_oracle_rejects_bad_accuracy():
    with pytest.raises(ConfigError):
        OracleAnnotator(accuracy=0.0)
    with pytest.raises(ConfigError):
        OracleAnnotator(accuracy=1.5)


# ------------------------------------------------------- shared helpers

def test_smoothed_one_hot_values():
    np.testing.assert_allclose(
        smoothed_one_hot(2, 0.1), [0.025, 0.025, 0.925, 0.025], atol=1e-15
    )
    assert smoothed_one_hot(0, 0.0)[0] == 1.0
    with pytest.raises(ConfigError):
        smoothed_one_hot(1, 1.0)


def test_format_targets_are_exact():
    assert format_stance_target("S", "looks supportive") == \
        "Stance: Support, Reason:looks supportive"
    assert format_veracity_target("U", "cannot tell") == \
        "Veracity: Unverified Rumor, Reason: cannot tell"


def test_make_backend_kinds():
    assert isinstance(make_backend(BackendConfig()), OracleAnnotator)
    cfg = BackendConfig(kind="http", endpoint="http://127.0.0.1:1")
    assert isinstance(make_backend(cfg), HttpAnnotator)


@pytest.mark.parametrize("cfg,fragment", [
    (BackendConfig(kind="llm"), "must be 'oracle' or 'http'"),
    (BackendConfig(kind="http"), "endpoint: required"),
    (BackendConfig(oracle_accuracy=0.0), "oracle_accuracy"),
    (BackendConfig(smoothing_alpha=1.0), "smoothing_alpha"),
    (BackendConfig(timeout=0), "timeout"),
    (BackendConfig(max_in_flight=0), "max_in_flight"),
])
def test_backend_config_validation(cfg, fragment):
    with pytest.raises(ConfigError) as err:
        cfg.validate()
    assert fragment in str(err.value)


def test_backend_config_round_trip_and_unknown_keys():
    cfg = BackendConfig(kind="http", endpoint="http://x", timeout=3.0)
    assert from_json(BackendConfig, asdict(cfg), "sd_backend") == cfg
    with pytest.raises(ConfigError) as err:
        from_json(BackendConfig, {"knd": "oracle"}, "sd_backend")
    assert "sd_backend: unknown keys ['knd']" in str(err.value)


def test_http_annotator_requires_http_kind():
    with pytest.raises(ConfigError) as err:
        HttpAnnotator(BackendConfig(kind="oracle"))
    assert "requires kind='http'" in str(err.value)


# ------------------------------------------------------------- http

def test_http_annotate_success(scripted_server):
    scripted_server.script("/annotate", payload={
        "label": "Support",
        "explanation": "firsthand report",
        "distribution": [0.7, 0.1, 0.1, 0.1],
    })
    ann = annotate_post(_http(scripted_server), CLAIM, CLAIM.posts[0])
    assert ann.label == "S"
    assert ann.explanation == "firsthand report"
    np.testing.assert_allclose(ann.distribution, [0.7, 0.1, 0.1, 0.1])
    path, body = scripted_server.requests[0]
    assert path == "/annotate"
    assert body["task"] == "stance"
    assert "power is out downtown" in body["prompt"]
    assert "saw it myself" in body["prompt"]


def test_http_label_free_reply_parsed_from_raw(scripted_server):
    scripted_server.script(
        "/annotate", payload={"text": "Stance: Deny, Reason: nope"}
    )
    ann = annotate_post(_http(scripted_server), CLAIM, CLAIM.posts[0])
    assert ann.label == "D"
    # no distribution supplied, so the smoothed fallback applies
    np.testing.assert_allclose(ann.distribution, smoothed_one_hot(1, 0.1))


def test_http_retries_5xx_then_succeeds(scripted_server):
    scripted_server.script("/annotate", status=503, payload={"error": "busy"})
    scripted_server.script("/annotate", payload={"label": "Deny"})
    ann = annotate_post(_http(scripted_server), CLAIM, CLAIM.posts[0])
    assert ann.label == "D"
    assert len(scripted_server.calls("/annotate")) == 2


def test_http_non_json_body_is_retried(scripted_server):
    # a body that is not JSON, then one that is JSON but not an object
    for n, body in enumerate(("<html>oops</html>", '["Support"]'), start=1):
        scripted_server.script("/annotate", payload=body)
        scripted_server.script("/annotate", payload={"label": "Comment"})
        ann = annotate_post(_http(scripted_server), CLAIM, CLAIM.posts[0])
        assert ann.label == "C"
        assert len(scripted_server.calls("/annotate")) == 2 * n


def test_http_gives_up_after_three_attempts(scripted_server):
    scripted_server.script("/annotate", status=500, payload={"e": 1}, repeat=3)
    with pytest.raises(AnnotatorError) as err:
        _http(scripted_server).complete("stance", "p")
    assert "failed after retries" in str(err.value)
    assert len(scripted_server.calls("/annotate")) == 3


def test_http_4xx_fails_immediately(scripted_server):
    scripted_server.script("/annotate", status=422, payload={"e": "bad"})
    with pytest.raises(AnnotatorError) as err:
        _http(scripted_server).complete("stance", "p")
    assert "rejected the request with 422" in str(err.value)
    assert len(scripted_server.calls("/annotate")) == 1


def test_http_connection_failure_raises_after_retries():
    cfg = BackendConfig(kind="http", endpoint="http://127.0.0.1:9", timeout=0.5)
    with pytest.raises(AnnotatorError) as err:
        HttpAnnotator(cfg).complete("stance", "p")
    assert "failed after retries" in str(err.value)


def test_annotate_retries_unparseable_reply_once(scripted_server):
    scripted_server.script("/annotate", payload={"label": "Maybe"})
    scripted_server.script("/annotate", payload={"label": "Question"})
    ann = annotate_post(_http(scripted_server), CLAIM, CLAIM.posts[0])
    assert ann.label == "Q"
    assert len(scripted_server.calls("/annotate")) == 2


def test_annotate_gives_up_after_second_parse_failure(scripted_server):
    scripted_server.script("/annotate", payload={"label": "Maybe"}, repeat=2)
    with pytest.raises(ParseError) as err:
        annotate_post(_http(scripted_server), CLAIM, CLAIM.posts[0])
    assert "unknown stance label" in str(err.value)
    assert len(scripted_server.calls("/annotate")) == 2


def test_annotate_claim_over_http(scripted_server):
    scripted_server.script(
        "/annotate", payload={"label": "False Rumor", "explanation": "debunked"}
    )
    ann = annotate_claim(
        _http(scripted_server), CLAIM, [(CLAIM.posts[0], _stance("D"))]
    )
    assert ann.label == "F"
    _, body = scripted_server.requests[0]
    assert body["task"] == "veracity"
    assert "Post 1 (Stance: Deny): saw it myself" in body["prompt"]


@pytest.mark.parametrize("fields,fragment", [
    pytest.param({"distribution": [0.5, 0.5]}, "4 finite values",
                 id="dist0-4 finite values"),
    pytest.param({"distribution": [0.5, 0.5, 0.25, -0.25]}, "probability simplex",
                 id="dist1-probability simplex"),
    pytest.param({"distribution": [0.4, 0.4, 0.1, 0.2]}, "probability simplex",
                 id="dist2-probability simplex"),
    pytest.param({"distribution": [0.1, 0.7, 0.1, 0.1]}, "argmax disagrees",
                 id="dist3-argmax disagrees"),
    pytest.param({"distribution": ["a", "b", "c", "d"]}, "4 finite values",
                 id="dist-not-numeric"),
    pytest.param({"distribution": {"S": 1.0}}, "4 finite values",
                 id="dist-object"),
    pytest.param({"label": 5}, "stance label must be a string", id="label-number"),
    pytest.param({"label": ["Support"]}, "stance label must be a string",
                 id="label-list"),
    pytest.param({"explanation": 7}, "stance explanation must be a string",
                 id="explanation-number"),
])
def test_http_distribution_validation(scripted_server, fields, fragment):
    """A reply field of the wrong type or shape is a ParseError, retried once."""
    scripted_server.script(
        "/annotate", payload={"label": "Support", **fields}, repeat=2
    )
    with pytest.raises(ParseError) as err:
        annotate_post(_http(scripted_server), CLAIM, CLAIM.posts[0])
    assert fragment in str(err.value)
    assert len(scripted_server.calls("/annotate")) == 2


@st.composite
def _near_edge(draw) -> tuple[int, list[float]]:
    """(label index, distribution) near the edge of what the parser takes:
    one entry other than the label's replaced by a value within 2e-9 of 0,
    and the label's entry shifted so the sum lands about 1e-6 off 1."""
    weights = draw(st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4)
                   .filter(lambda w: sum(w) > 0.1))
    vec = np.asarray(weights) / sum(weights)
    label = int(vec.argmax())
    vec[draw(st.sampled_from([i for i in range(4) if i != label]))] = \
        draw(st.floats(-2e-9, 2e-9))
    shift = draw(st.one_of(st.floats(-2e-6, 2e-6),
                           st.floats(1e-6 - 3e-9, 1e-6 + 3e-9),
                           st.floats(-1e-6 - 3e-9, -1e-6 + 3e-9)))
    vec[label] += 1.0 - vec.sum() + shift
    return label, vec.tolist()


@settings(max_examples=400, deadline=None)
@given(task=st.sampled_from([TASK_STANCE, TASK_VERACITY]), drawn=_near_edge())
def test_a_distribution_the_parser_accepts_passes_the_reward_checks(task, drawn):
    """What `_from_reply` returns is taken by every reward that checks a
    distribution again, so an accepted reply never raises RewardError."""
    index, distribution = drawn
    name = (STANCE_NAMES[STANCES[index]] if task == TASK_STANCE
            else VERACITY_NAMES[VERACITIES[index]])
    try:
        annotation = _from_reply(task, BackendReply(raw="", label=name,
                                                    distribution=distribution), 0.1)
    except ParseError:
        return
    StanceMean().add(annotation.distribution)
    ReferenceStanceStats().update("T", annotation.distribution)
    labeled_claim_reward(annotation.distribution, "T")


def test_a_reply_whose_clipped_distribution_leaves_the_simplex_is_refused():
    reply = BackendReply(raw="", label="Support", distribution=[1.0000010001, -1e-9, 0, 0])
    with pytest.raises(ParseError, match="probability simplex"):
        _from_reply(TASK_STANCE, reply, 0.1)


# -------------------------------------------------------- fine-tuning

def _examples(task: str, n: int = 1) -> list[FineTuneExample]:
    return [
        FineTuneExample(task, f"prompt {i}", f"target {i}", "machine")
        for i in range(n)
    ]


def test_fine_tune_empty_is_noop():
    class Boom:
        def finetune(self, *a, **k):
            raise AssertionError("should not be called")

    assert fine_tune(Boom(), []) is None


def test_fine_tune_rejects_mixed_tasks():
    with pytest.raises(ConfigError) as err:
        fine_tune(None, _examples("stance") + _examples("veracity"))
    assert "mixes tasks" in str(err.value)


def test_fine_tune_sends_prompt_target_payload(scripted_server):
    scripted_server.script("/finetune", payload={"job": "ft-1"})
    assert fine_tune(_http(scripted_server), _examples("stance", n=2)) == "ft-1"
    path, body = scripted_server.requests[0]
    assert path == "/finetune"
    assert body["task"] == "stance"
    assert body["examples"] == [
        {"prompt": "prompt 0", "target": "target 0"},
        {"prompt": "prompt 1", "target": "target 1"},
    ]
    assert "origin" not in body


def test_fine_tune_swallows_backend_failure(scripted_server, caplog):
    scripted_server.script("/finetune", status=500, payload={"e": 1}, repeat=3)
    with caplog.at_level(logging.WARNING, logger="claimsift.annotators"):
        assert fine_tune(_http(scripted_server), _examples("stance")) is None
    assert any("fine-tune request failed" in r.message for r in caplog.records)


def test_http_finetune_origin_tag(scripted_server):
    scripted_server.script("/finetune", payload={"job": "ft-2"})
    http = _http(scripted_server)
    job = http.finetune(
        "veracity", [{"prompt": "p", "target": "t"}], origin="pretrain"
    )
    assert job == "ft-2"
    _, body = scripted_server.requests[0]
    assert body["origin"] == "pretrain"
    assert body["task"] == "veracity"


def test_export_finetune_set_round_trips(tmp_path):
    examples = [
        FineTuneExample("stance", "p1", "t1", "machine"),
        FineTuneExample("veracity", "p2", "t2", "human"),
    ]
    out = tmp_path / "ft.jsonl"
    with out.open("w", encoding="utf-8") as fh:
        assert export_finetune_set(examples, fh) == 2
    lines = out.read_text(encoding="utf-8").splitlines()
    assert [json.loads(line) for line in lines] == [
        {"prompt": "p1", "target": "t1", "label_origin": "machine"},
        {"prompt": "p2", "target": "t2", "label_origin": "human"},
    ]
