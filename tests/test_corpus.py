"""Corpus loading, validation, splitting, and the synthetic generator."""

from __future__ import annotations

import json
from dataclasses import asdict

import numpy as np
import pytest

from claimsift.corpus import (
    Claim,
    Dataset,
    Post,
    SynthConfig,
    generate_synthetic,
    load_dataset,
    mask_nonseed_labels,
    modal_stance_map,
    save_dataset,
    split_seeds,
)
from claimsift.errors import ConfigError, DatasetError


def _write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _claim_record(claim_id="c1", **overrides):
    record = {
        "claim_id": claim_id,
        "text": "something happened",
        "veracity": "T",
        "posts": [
            {
                "post_id": f"{claim_id}-p0",
                "text": "first reply",
                "author": "alice",
                "timestamp": 100,
                "reply_to": claim_id,
            },
            {
                "post_id": f"{claim_id}-p1",
                "text": "second reply",
                "author": "bob",
                "timestamp": 200,
                "reply_to": f"{claim_id}-p0",
                "stance": "S",
            },
        ],
    }
    record.update(overrides)
    return record


def test_modal_stance_map_default():
    assert modal_stance_map() == {"N": "C", "T": "S", "F": "D", "U": "Q"}


def test_load_and_save_round_trip(tmp_path):
    path = tmp_path / "corpus.jsonl"
    _write_lines(path, [json.dumps(_claim_record("c1")),
                        json.dumps(_claim_record("c2", veracity=None))])
    dataset = load_dataset(path)
    assert len(dataset) == 2
    assert dataset.get("c1").veracity == "T"
    assert dataset.get("c2").veracity is None
    assert dataset.get("c1").posts[1].stance == "S"
    assert dataset.get("c1").posts[0].stance is None

    out = tmp_path / "copy.jsonl"
    save_dataset(dataset, out)
    again = load_dataset(out)
    assert again.claims == dataset.claims

    # stance key appears only when a gold stance is set
    lines = [json.loads(line) for line in out.read_text().splitlines()]
    assert "stance" not in lines[0]["posts"][0]
    assert lines[0]["posts"][1]["stance"] == "S"


def test_posts_sorted_by_timestamp_stable(tmp_path):
    record = _claim_record("c1")
    record["posts"] = [
        {"post_id": "b", "text": "late", "author": "x", "timestamp": 300},
        {"post_id": "a", "text": "tie-1", "author": "x", "timestamp": 100},
        {"post_id": "c", "text": "tie-2", "author": "x", "timestamp": 100},
    ]
    path = tmp_path / "corpus.jsonl"
    _write_lines(path, [json.dumps(record)])
    claim = load_dataset(path).get("c1")
    assert [p.post_id for p in claim.posts] == ["a", "c", "b"]


def test_reply_to_may_reference_later_post(tmp_path):
    record = _claim_record("c1")
    record["posts"] = [
        {"post_id": "p0", "text": "t", "author": "x", "timestamp": 100,
         "reply_to": "p1"},
        {"post_id": "p1", "text": "t", "author": "x", "timestamp": 200},
    ]
    path = tmp_path / "corpus.jsonl"
    _write_lines(path, [json.dumps(record)])
    assert len(load_dataset(path).get("c1").posts) == 2


@pytest.mark.parametrize(
    "mutate,fragment",
    [
        (lambda r: r.pop("claim_id"), "missing required field 'claim_id'"),
        (lambda r: r.pop("text"), "missing required field 'text'"),
        (lambda r: r.update(veracity="X"), "unknown veracity"),
        (lambda r: r["posts"][0].pop("post_id"), "missing required field 'post_id'"),
        (lambda r: r["posts"][0].update(timestamp=-5), "timestamp must be >= 0"),
        (lambda r: r["posts"][0].update(timestamp="100"),
         "timestamp must be an integer"),
        (lambda r: r["posts"][0].update(timestamp=True),
         "timestamp must be an integer"),
        (lambda r: r["posts"][1].update(stance="agree"), "unknown stance"),
        (lambda r: r["posts"][1].update(post_id="c1-p0"), "duplicate post_id"),
        (lambda r: r["posts"][1].update(reply_to="ghost"),
         "replies to unknown id"),
    ],
)
def test_load_rejects_bad_records_with_line_numbers(tmp_path, mutate, fragment):
    good = _claim_record("c0")
    bad = _claim_record("c1")
    mutate(bad)
    path = tmp_path / "corpus.jsonl"
    _write_lines(path, [json.dumps(good), json.dumps(bad)])
    with pytest.raises(DatasetError) as err:
        load_dataset(path)
    assert fragment in str(err.value)
    assert str(err.value).startswith("line 2:")
    assert err.value.line == 2


def test_load_rejects_malformed_json_and_non_objects(tmp_path):
    path = tmp_path / "corpus.jsonl"
    _write_lines(path, [json.dumps(_claim_record("c0")), "{not json"])
    with pytest.raises(DatasetError, match="line 2: malformed JSON"):
        load_dataset(path)
    _write_lines(path, ["[1, 2]"])
    with pytest.raises(DatasetError, match="line 1: record is not an object"):
        load_dataset(path)


def test_load_rejects_duplicate_claim_ids(tmp_path):
    path = tmp_path / "corpus.jsonl"
    _write_lines(path, [json.dumps(_claim_record("c1")),
                        json.dumps(_claim_record("c1"))])
    with pytest.raises(DatasetError, match="line 2: duplicate claim_id"):
        load_dataset(path)


def test_load_skips_blank_lines_and_accepts_empty_file(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text("\n\n" + json.dumps(_claim_record("c1")) + "\n\n")
    assert len(load_dataset(path)) == 1
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    assert len(load_dataset(empty)) == 0


def test_load_rejects_missing_file(tmp_path):
    with pytest.raises(DatasetError, match="dataset file not found"):
        load_dataset(tmp_path / "absent.jsonl")


def test_dataset_stats_and_get():
    claims = (
        Claim("c1", "t", "T", posts=(
            Post("p1", "x", "a", 1), Post("p2", "x", "a", 2))),
        Claim("c2", "t", None, posts=(Post("p3", "x", "a", 1),)),
    )
    dataset = Dataset(name="mini", claims=claims)
    stats = dataset.stats()
    assert stats == {
        "name": "mini",
        "claims": 2,
        "posts": 3,
        "labeled_claims": 1,
        "unlabeled_claims": 1,
        "avg_posts_per_claim": 1.5,
        "min_posts_per_claim": 1,
        "max_posts_per_claim": 2,
        "veracity_counts": {"N": 0, "T": 1, "F": 0, "U": 0},
    }
    assert dataset.labeled_ids() == ["c1"]
    with pytest.raises(KeyError):
        dataset.get("missing")


def _labeled_dataset(n_labeled, n_unlabeled):
    claims = [Claim(f"l{i}", "t", ("T", "F", "U", "N")[i % 4])
              for i in range(n_labeled)]
    claims += [Claim(f"u{i}", "t", None) for i in range(n_unlabeled)]
    return Dataset(name="split", claims=tuple(claims))


def test_split_seeds_partitions_labeled_claims():
    dataset = _labeled_dataset(4, 3)
    seeds, pool = split_seeds(dataset, 0.5, rng=0)
    assert len(seeds) == 2  # round(0.5 * 4)
    assert seeds <= set(dataset.labeled_ids())
    assert seeds | pool == {c.claim_id for c in dataset.claims}
    assert not (seeds & pool)
    # unlabeled claims always land in the pool
    assert {"u0", "u1", "u2"} <= pool


def test_split_seeds_extremes_and_determinism():
    dataset = _labeled_dataset(5, 2)
    seeds0, pool0 = split_seeds(dataset, 0.0, rng=1)
    assert seeds0 == frozenset() and len(pool0) == 7
    seeds1, _ = split_seeds(dataset, 1.0, rng=1)
    assert seeds1 == frozenset(dataset.labeled_ids())
    a, _ = split_seeds(dataset, 0.5, rng=np.random.default_rng(9))
    b, _ = split_seeds(dataset, 0.5, rng=np.random.default_rng(9))
    assert a == b


def test_split_seeds_errors():
    unlabeled_only = Dataset(
        name="u", claims=(Claim("c1", "t", None), Claim("c2", "t", None))
    )
    with pytest.raises(ConfigError, match="no labeled claims"):
        split_seeds(unlabeled_only, 0.5, rng=0)
    # fraction 0 on an unlabeled corpus is fine
    seeds, pool = split_seeds(unlabeled_only, 0.0, rng=0)
    assert seeds == frozenset() and pool == {"c1", "c2"}
    with pytest.raises(ConfigError, match="seed fraction"):
        split_seeds(unlabeled_only, 1.5, rng=0)


def test_mask_nonseed_labels():
    dataset = _labeled_dataset(3, 1)
    masked = mask_nonseed_labels(dataset, frozenset({"l0"}))
    assert masked.get("l0").veracity == "T"
    assert masked.get("l1").veracity is None
    assert masked.get("u0").veracity is None
    # original untouched
    assert dataset.get("l1").veracity == "F"


def test_synth_config_round_trip_and_unknown_keys():
    cfg = SynthConfig(n_claims=7, noise_post_fraction=0.2, rng_seed=3)
    again = SynthConfig.from_dict(json.loads(json.dumps(asdict(cfg))))
    assert again == cfg
    with pytest.raises(ConfigError, match=r"unknown config keys: \['bogus'\]"):
        SynthConfig.from_dict({"n_claims": 3, "bogus": 1})


@pytest.mark.parametrize(
    "overrides",
    [
        {"n_claims": -1},
        {"noise_post_fraction": 1.5},
        {"veracity_prior": (0.5, 0.5, 0.5, 0.5)},
        {"veracity_prior": (1.0, 0.0, 0.0)},
        {"stance_given_veracity": ((0.5, 0.5, 0.5, 0.5),) * 4},
        {"stance_given_veracity": ((0.25, 0.25, 0.25, 0.25),) * 3},
    ],
)
def test_generate_synthetic_validates_config(overrides):
    with pytest.raises(ConfigError):
        generate_synthetic(SynthConfig(**overrides))


def test_generate_synthetic_is_deterministic_and_saves_identically(tmp_path):
    cfg = SynthConfig(n_claims=12, posts_per_claim=6, rng_seed=11)
    a = generate_synthetic(cfg)
    b = generate_synthetic(cfg)
    assert a.claims == b.claims
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    save_dataset(a, p1)
    save_dataset(b, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_generate_synthetic_marker_invariants(tmp_path):
    cfg = SynthConfig(n_claims=20, posts_per_claim=8, noise_post_fraction=0.3,
                      rng_seed=5)
    dataset = generate_synthetic(cfg)
    assert len(dataset) == 20
    for claim in dataset.claims:
        assert claim.veracity is not None
        assert f"[truth:{claim.veracity.lower()}]" in claim.text
        assert len(claim.posts) == 8
        timestamps = [p.timestamp for p in claim.posts]
        assert timestamps == sorted(timestamps)
        assert len(set(timestamps)) == len(timestamps)
        for post in claim.posts:
            if post.stance is None:
                assert "[sig:none]" in post.text
            else:
                assert f"[sig:{post.stance.lower()}]" in post.text
    # generated corpora satisfy the loader's validation
    path = tmp_path / "synth.jsonl"
    save_dataset(dataset, path)
    assert load_dataset(path).claims == dataset.claims


def test_generate_synthetic_hits_configured_rates():
    cfg = SynthConfig(n_claims=200, posts_per_claim=20, noise_post_fraction=0.3,
                      rng_seed=17)
    dataset = generate_synthetic(cfg)
    posts = [p for c in dataset.claims for p in c.posts]
    noise_rate = sum(1 for p in posts if p.stance is None) / len(posts)
    assert abs(noise_rate - 0.3) < 0.03

    modal = modal_stance_map()
    matched = total = 0
    for claim in dataset.claims:
        for post in claim.posts:
            if post.stance is not None:
                total += 1
                matched += int(post.stance == modal[claim.veracity])
    assert abs(matched / total - 0.7) < 0.03
