"""Rumor corpus model: claims with chronological post threads.

Datasets live on disk as JSONL, one claim per line:

    {"claim_id": "...", "text": "...", "veracity": "T"|"F"|"U"|"N"|null,
     "posts": [{"post_id": "...", "text": "...", "author": "...",
                "timestamp": 123, "reply_to": "..."|null}, ...]}

Posts may carry an optional gold "stance" key used only for evaluation.
"""

from __future__ import annotations

import json
import reprlib
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterator

import numpy as np

from .errors import ConfigError, DatasetError, check_field_types
from .labels import STANCES, VERACITIES

# Stance mixture per veracity class used by the synthetic generator, rows in
# canonical veracity order, columns in canonical stance order. Each class has a
# distinct dominant stance so class-conditional stance statistics separate.
DEFAULT_STANCE_GIVEN_VERACITY = (
    (0.1, 0.1, 0.1, 0.7),  # non-rumors draw mostly comments
    (0.7, 0.1, 0.1, 0.1),  # true rumors draw mostly support
    (0.1, 0.7, 0.1, 0.1),  # false rumors draw mostly denial
    (0.1, 0.1, 0.7, 0.1),  # unverified rumors draw mostly questions
)


def modal_stance_map(matrix=DEFAULT_STANCE_GIVEN_VERACITY) -> dict[str, str]:
    """Dominant stance per veracity class, ties broken by canonical order."""
    return {
        v: STANCES[int(np.argmax(row))]
        for v, row in zip(VERACITIES, matrix)
    }


@dataclass(frozen=True)
class Post:
    post_id: str
    text: str
    author: str
    timestamp: int
    reply_to: str | None = None
    stance: str | None = None  # gold stance, evaluation only


@dataclass(frozen=True)
class Claim:
    claim_id: str
    text: str
    veracity: str | None
    posts: tuple[Post, ...] = ()


@dataclass(frozen=True)
class Dataset:
    name: str
    claims: tuple[Claim, ...] = ()

    def __len__(self) -> int:
        return len(self.claims)

    def get(self, claim_id: str) -> Claim:
        for claim in self.claims:
            if claim.claim_id == claim_id:
                return claim
        raise KeyError(claim_id)

    def labeled_ids(self) -> list[str]:
        return [c.claim_id for c in self.claims if c.veracity is not None]

    def n_posts(self) -> int:
        return sum(len(c.posts) for c in self.claims)

    def stats(self) -> dict:
        """Corpus summary: totals, per-claim post counts, class histogram."""
        counts = [len(c.posts) for c in self.claims]
        veracity_counts = {v: 0 for v in VERACITIES}
        unlabeled = 0
        for claim in self.claims:
            if claim.veracity is None:
                unlabeled += 1
            else:
                veracity_counts[claim.veracity] += 1
        return {
            "name": self.name,
            "claims": len(self.claims),
            "posts": int(sum(counts)),
            "labeled_claims": len(self.claims) - unlabeled,
            "unlabeled_claims": unlabeled,
            "avg_posts_per_claim": (sum(counts) / len(counts)) if counts else 0.0,
            "min_posts_per_claim": min(counts) if counts else 0,
            "max_posts_per_claim": max(counts) if counts else 0,
            "veracity_counts": veracity_counts,
        }


def _require(record: dict, key: str, line: int):
    if key not in record or record[key] is None:
        raise DatasetError(f"missing required field {key!r}", line=line)
    return record[key]


def _parse_post(raw: dict, line: int) -> Post:
    post_id = _require(raw, "post_id", line)
    text = _require(raw, "text", line)
    author = _require(raw, "author", line)
    timestamp = _require(raw, "timestamp", line)
    if not isinstance(timestamp, int) or isinstance(timestamp, bool):
        raise DatasetError(f"post {post_id!r}: timestamp must be an integer", line=line)
    if timestamp < 0:
        raise DatasetError(f"post {post_id!r}: timestamp must be >= 0", line=line)
    stance = raw.get("stance")
    if stance is not None and stance not in STANCES:
        raise DatasetError(f"post {post_id!r}: unknown stance {stance!r}", line=line)
    return Post(
        post_id=str(post_id),
        text=str(text),
        author=str(author),
        timestamp=timestamp,
        reply_to=raw.get("reply_to"),
        stance=stance,
    )


def _parse_claim(record: dict, line: int) -> Claim:
    claim_id = str(_require(record, "claim_id", line))
    text = str(_require(record, "text", line))
    veracity = record.get("veracity")
    if veracity is not None and veracity not in VERACITIES:
        raise DatasetError(
            f"claim {claim_id!r}: unknown veracity {veracity!r}", line=line
        )
    posts = [_parse_post(p, line) for p in record.get("posts", [])]
    seen: set[str] = set()
    for post in posts:
        if post.post_id in seen:
            raise DatasetError(
                f"claim {claim_id!r}: duplicate post_id {post.post_id!r}", line=line
            )
        seen.add(post.post_id)
    for post in posts:
        if post.reply_to is not None and post.reply_to != claim_id \
                and post.reply_to not in seen:
            raise DatasetError(
                f"claim {claim_id!r}: post {post.post_id!r} replies to unknown "
                f"id {post.reply_to!r}",
                line=line,
            )
    # Threads are consumed in chronological order; sort is stable so equal
    # timestamps keep their file order.
    posts.sort(key=lambda p: p.timestamp)
    return Claim(claim_id=claim_id, text=text, veracity=veracity, posts=tuple(posts))


def read_jsonl(path: str | Path) -> Iterator[tuple[int, dict]]:
    """(line number, record) for each non-blank line of a JSONL file.

    Malformed JSON, or a line that is not a JSON object, raises DatasetError
    with its line number.
    """
    with Path(path).open("r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DatasetError(f"malformed JSON ({exc.msg})", line=line_no) from exc
            if not isinstance(record, dict):
                raise DatasetError("record is not an object", line=line_no)
            yield line_no, record


def load_dataset(path: str | Path) -> Dataset:
    """Load a JSONL corpus, validating every record.

    Raises DatasetError with the offending line number on malformed input.
    An empty file yields an empty Dataset.
    """
    path = Path(path)
    if not path.exists():
        raise DatasetError(f"dataset file not found: {path}")
    claims: list[Claim] = []
    seen_ids: set[str] = set()
    for line_no, record in read_jsonl(path):
        claim = _parse_claim(record, line_no)
        if claim.claim_id in seen_ids:
            raise DatasetError(f"duplicate claim_id {claim.claim_id!r}", line=line_no)
        seen_ids.add(claim.claim_id)
        claims.append(claim)
    return Dataset(name=path.stem, claims=tuple(claims))


def _post_record(post: Post) -> dict:
    record = {
        "post_id": post.post_id,
        "text": post.text,
        "author": post.author,
        "timestamp": post.timestamp,
        "reply_to": post.reply_to,
    }
    if post.stance is not None:
        record["stance"] = post.stance
    return record


def save_dataset(dataset: Dataset, path: str | Path) -> None:
    """Write a corpus as JSONL with a stable field order."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        for claim in dataset.claims:
            record = {
                "claim_id": claim.claim_id,
                "text": claim.text,
                "veracity": claim.veracity,
                "posts": [_post_record(p) for p in claim.posts],
            }
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")


def split_seeds(
    dataset: Dataset, fraction: float, rng: np.random.Generator | int
) -> tuple[frozenset[str], frozenset[str]]:
    """Partition claim ids into (seeds, pool).

    Seeds are drawn uniformly without replacement from the labeled claims,
    k = round(fraction * n_labeled). The pool is everything else, labeled or
    not. Seeds keep their labels during training; pool labels are masked.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ConfigError(f"seed fraction must be in [0, 1], got {fraction}")
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(int(rng))
    labeled = sorted(dataset.labeled_ids())
    if fraction > 0.0 and not labeled:
        raise ConfigError("seed fraction > 0 but the dataset has no labeled claims")
    k = int(round(fraction * len(labeled)))
    picked = rng.permutation(len(labeled))[:k]
    seeds = frozenset(labeled[i] for i in picked)
    pool = frozenset(c.claim_id for c in dataset.claims) - seeds
    return seeds, frozenset(pool)


def mask_nonseed_labels(dataset: Dataset, seeds: frozenset[str]) -> Dataset:
    """Training view of a corpus: veracity kept on seeds, None elsewhere."""
    claims = tuple(
        claim if claim.claim_id in seeds else replace(claim, veracity=None)
        for claim in dataset.claims
    )
    return Dataset(name=dataset.name, claims=claims)


# Stance-correlated filler so hashed embeddings carry signal beyond the marker.
_STANCE_FILLER = {
    "S": "this is confirmed and the report checks out",
    "D": "this is wrong and the whole story is fabricated",
    "Q": "is there any source or evidence for this",
    "C": "interesting development on the timeline today",
}
_NOISE_FILLER = "offtopic chatter about coffee plans and the weather"


@dataclass(frozen=True)
class SynthConfig:
    """Knobs for the synthetic corpus generator."""

    n_claims: int = 200
    posts_per_claim: int = 20
    veracity_prior: tuple[float, ...] = (0.25, 0.25, 0.25, 0.25)
    stance_given_veracity: tuple[tuple[float, ...], ...] = DEFAULT_STANCE_GIVEN_VERACITY
    noise_post_fraction: float = 0.3
    rng_seed: int = 0
    name: str = "synthetic"

    @staticmethod
    def from_dict(raw: dict) -> "SynthConfig":
        cfg = SynthConfig()
        known = cfg.__dataclass_fields__
        unknown = set(raw) - set(known)
        if unknown:
            raise ConfigError(f"unknown synthetic config keys: {sorted(unknown)}")
        values = dict(raw)
        tables = ("veracity_prior", "stance_given_veracity")  # checked below
        check_field_types(SynthConfig, {k: v for k, v in raw.items() if k not in tables})
        if "veracity_prior" in values:
            values["veracity_prior"] = _numbers(
                "veracity_prior", values["veracity_prior"], len(VERACITIES))
        if "stance_given_veracity" in values:
            matrix = values["stance_given_veracity"]
            if type(matrix) not in (list, tuple) or len(matrix) != len(VERACITIES):
                raise ConfigError(f"stance_given_veracity: expected a list of "
                                  f"{len(VERACITIES)} rows, got {reprlib.repr(matrix)}")
            values["stance_given_veracity"] = tuple(
                _numbers(f"stance_given_veracity[{i}]", row, len(STANCES))
                for i, row in enumerate(matrix))
        return replace(cfg, **values)

    def to_dict(self) -> dict:
        return {
            "n_claims": self.n_claims,
            "posts_per_claim": self.posts_per_claim,
            "veracity_prior": list(self.veracity_prior),
            "stance_given_veracity": [list(r) for r in self.stance_given_veracity],
            "noise_post_fraction": self.noise_post_fraction,
            "rng_seed": self.rng_seed,
            "name": self.name,
        }


def _numbers(name: str, value, n: int) -> tuple[float, ...]:
    """`value`, a JSON list of `n` numbers, as a tuple; anything else (a bool
    included) raises ConfigError naming `name`."""
    if type(value) not in (list, tuple) or len(value) != n or not all(
            type(x) in (int, float) for x in value):
        raise ConfigError(
            f"{name}: expected a list of {n} numbers, got {reprlib.repr(value)}")
    return tuple(value)


def _validate_synth(cfg: SynthConfig) -> None:
    if cfg.n_claims < 0 or cfg.posts_per_claim < 0:
        raise ConfigError("n_claims and posts_per_claim must be >= 0")
    if not 0.0 <= cfg.noise_post_fraction <= 1.0:
        raise ConfigError("noise_post_fraction must be in [0, 1]")
    prior = np.asarray(cfg.veracity_prior, dtype=np.float64)
    if prior.shape != (4,) or abs(prior.sum() - 1.0) > 1e-9 or (prior < 0).any():
        raise ConfigError("veracity_prior must be 4 non-negative values summing to 1")
    matrix = np.asarray(cfg.stance_given_veracity, dtype=np.float64)
    if matrix.shape != (4, 4) or (matrix < 0).any():
        raise ConfigError("stance_given_veracity must be a non-negative 4x4 matrix")
    if np.abs(matrix.sum(axis=1) - 1.0).max() > 1e-9:
        raise ConfigError("stance_given_veracity rows must each sum to 1")


def generate_synthetic(cfg: SynthConfig) -> Dataset:
    """Generate a marker-bearing corpus with known ground truth.

    Claim text embeds a [truth:v] marker and each stance-bearing post embeds a
    [sig:x] marker ([sig:none] on noise posts), which the scripted annotation
    oracle reads back. Generation is fully deterministic in rng_seed.
    """
    _validate_synth(cfg)
    rng = np.random.default_rng(cfg.rng_seed)
    prior = np.asarray(cfg.veracity_prior, dtype=np.float64)
    matrix = np.asarray(cfg.stance_given_veracity, dtype=np.float64)
    claims: list[Claim] = []
    for i in range(cfg.n_claims):
        veracity = VERACITIES[int(rng.choice(4, p=prior))]
        claim_id = f"c{i:04d}"
        text = (
            f"breaking story {i}: event-{i} reported at site-{i % 7} "
            f"[truth:{veracity.lower()}]"
        )
        base = 1_500_000_000 + i * 10_000
        posts: list[Post] = []
        for j in range(cfg.posts_per_claim):
            is_noise = rng.random() < cfg.noise_post_fraction
            if is_noise:
                stance = None
                body = f"reply {j}: {_NOISE_FILLER} [sig:none]"
            else:
                stance = STANCES[int(rng.choice(4, p=matrix[VERACITIES.index(veracity)]))]
                body = f"reply {j}: {_STANCE_FILLER[stance]} [sig:{stance.lower()}]"
            if j == 0 or rng.random() < 0.6:
                reply_to = claim_id
            else:
                reply_to = posts[int(rng.integers(0, j))].post_id
            posts.append(
                Post(
                    post_id=f"{claim_id}-p{j:03d}",
                    text=body,
                    author=f"user{(i * 31 + j * 7) % 97}",
                    timestamp=base + (j + 1) * 60,
                    reply_to=reply_to,
                    stance=stance,
                )
            )
        claims.append(
            Claim(claim_id=claim_id, text=text, veracity=veracity, posts=tuple(posts))
        )
    return Dataset(name=cfg.name, claims=tuple(claims))
