"""Prompt template fidelity and response parsing."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from claimsift.annotators import format_stance_target, format_veracity_target
from claimsift.corpus import Claim, Post
from claimsift.errors import ParseError
from claimsift.labels import STANCES, VERACITIES
from claimsift.prompts import (
    NO_POSTS_LINE,
    STANCE_TEMPLATE,
    VERACITY_TEMPLATE,
    build_stance_prompt,
    build_veracity_pretrain_prompt,
    build_veracity_prompt,
    parse_stance_response,
    parse_veracity_response,
)

CLAIM = Claim(claim_id="c1", text="the dam has burst", veracity=None, posts=(
    Post("p1", "sources confirm it", "alice", 100),
    Post("p2", "totally fake", "bob", 200),
))


def test_stance_template_fragments_are_verbatim():
    assert "Please decide the stance expressed by each post towards the claim" \
        in STANCE_TEMPLATE
    assert "Support, Deny, Question, and Comment" in STANCE_TEMPLATE
    # trailing format line, including the unspaced Reason slot
    assert STANCE_TEMPLATE.endswith(
        "Please follow the format: Stance: [stance], Reason:[reason]."
    )


def test_veracity_template_fragments_are_verbatim():
    assert "Please determine the veracity of the claim" in VERACITY_TEMPLATE
    assert "'True Rumor,' 'False Rumor,' 'Unverified Rumor,' or 'Non-Rumor,'" \
        in VERACITY_TEMPLATE
    # trailing format line, including its "follows" wording
    assert VERACITY_TEMPLATE.endswith(
        "Please follows the format: Veracity: [veracity], Reason: [reason]."
    )


def test_build_stance_prompt_fills_slots():
    prompt = build_stance_prompt(CLAIM, CLAIM.posts[0])
    assert "the dam has burst" in prompt
    assert "sources confirm it" in prompt
    assert "alice" in prompt
    for slot in ("[CLAIM]", "[POST]", "[USER]"):
        assert slot not in prompt
    # instruction tokens are part of the format line, never substituted
    assert "[stance]" in prompt and "[reason]" in prompt


def test_build_veracity_prompt_lists_posts_in_selection_order():
    retained = [(CLAIM.posts[1], "D"), (CLAIM.posts[0], "S")]  # reversed order
    prompt = build_veracity_prompt(CLAIM, retained)
    assert "the dam has burst" in prompt
    assert "Responding posts, in selection order:" in prompt
    line1 = "Post 1 (Stance: Deny): totally fake"
    line2 = "Post 2 (Stance: Support): sources confirm it"
    assert line1 in prompt and line2 in prompt
    assert prompt.index(line1) < prompt.index(line2)


def test_build_veracity_prompt_empty_set_is_explicit():
    prompt = build_veracity_prompt(CLAIM, [])
    assert prompt.endswith(NO_POSTS_LINE)
    assert "(Stance:" not in prompt


def test_build_veracity_pretrain_prompt_has_no_stances():
    prompt = build_veracity_pretrain_prompt(CLAIM)
    assert "Post 1: sources confirm it" in prompt
    assert "Post 2: totally fake" in prompt
    assert "(Stance:" not in prompt
    empty = Claim("c2", "quiet claim", None)
    assert build_veracity_pretrain_prompt(empty).endswith(NO_POSTS_LINE)


@pytest.mark.parametrize("name,label", [
    ("Support", "S"), ("Deny", "D"), ("Question", "Q"), ("Comment", "C"),
])
def test_parse_stance_round_trips_labels_case_insensitively(name, label):
    for text in (
        f"Stance: {name}, Reason: it reads that way.",
        f"stance: {name.lower()}, reason: it reads that way.",
        f"STANCE: {name.upper()}, REASON: it reads that way.",
    ):
        got, reason = parse_stance_response(text)
        assert got == label
        assert reason == "it reads that way."


def test_parse_stance_tolerates_brackets_synonyms_and_bare_labels():
    assert parse_stance_response("Stance: [Question], Reason: why")[0] == "Q"
    assert parse_stance_response("Stance - 'Deny'. Reason - nope")[0] == "D"
    assert parse_stance_response("Stance: denies the claim")[0] == "D"
    assert parse_stance_response("Support, clearly.")[0] == "S"
    assert parse_stance_response("  comment with no keyword")[0] == "C"


def test_parse_stance_missing_reason_is_empty():
    label, reason = parse_stance_response("Stance: Support")
    assert label == "S"
    assert reason == ""


def test_parse_stance_failure_carries_raw_text():
    with pytest.raises(ParseError) as err:
        parse_stance_response("no label anywhere in this text")
    assert err.value.raw == "no label anywhere in this text"


@pytest.mark.parametrize("name,label", [
    ("Non-Rumor", "N"), ("True Rumor", "T"),
    ("False Rumor", "F"), ("Unverified Rumor", "U"),
])
def test_parse_veracity_round_trips_labels_case_insensitively(name, label):
    for text in (
        f"Veracity: {name}, Reason: the replies say so.",
        f"veracity: {name.lower()}, reason: the replies say so.",
        f"VERACITY: {name.upper()}, REASON: the replies say so.",
    ):
        got, reason = parse_veracity_response(text)
        assert got == label
        assert reason == "the replies say so."


def test_parse_veracity_tolerates_variant_spellings():
    assert parse_veracity_response("Veracity: true_rumor, Reason: x")[0] == "T"
    assert parse_veracity_response("Veracity: false-rumour, Reason: x")[0] == "F"
    assert parse_veracity_response("Veracity: unverified")[0] == "U"
    assert parse_veracity_response("Veracity: [True Rumor]")[0] == "T"
    assert parse_veracity_response("Unverified Rumor. No sources.")[0] == "U"


def test_parse_veracity_failure_carries_raw_text():
    with pytest.raises(ParseError) as err:
        parse_veracity_response("the claim is probably fine")
    assert err.value.raw == "the claim is probably fine"


# Explanations as annotators write them: no surrounding whitespace.
_explanation = st.text().map(str.strip)


@given(label=st.sampled_from(STANCES), explanation=_explanation)
def test_stance_target_round_trips_through_the_parser(label, explanation):
    assert parse_stance_response(format_stance_target(label, explanation)) \
        == (label, explanation)


@given(label=st.sampled_from(VERACITIES), explanation=_explanation)
def test_veracity_target_round_trips_through_the_parser(label, explanation):
    assert parse_veracity_response(format_veracity_target(label, explanation)) \
        == (label, explanation)
