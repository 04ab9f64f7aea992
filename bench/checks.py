"""Correctness checks, computed apart from the program.

Each check takes plain records the benchmark collected during a round and
returns a list of failure messages (empty when the check passes). The
arithmetic is the benchmark's own: label names, the centered cosine and the
policy forward pass are written out here rather than called from claimsift,
so a fault in the program cannot hide itself.
"""

from __future__ import annotations

import math
import re

import numpy as np

STANCE_LETTERS = {"Support": "S", "Deny": "D", "Question": "Q", "Comment": "C"}
VERACITY_ORDER = ("N", "T", "F", "U")
_SIG = re.compile(r"\[sig:(s|d|q|c|none)\]")
# Two-sided binomial bound: |observed - p| <= Z * sd + 1/n. Z = 5 keeps a
# false alarm below one in a million runs.
Z = 5.0


def within_binomial(successes: int, n: int, p: float) -> bool:
    if n == 0:
        return False
    sd = math.sqrt(p * (1.0 - p) / n)
    return abs(successes / n - p) <= Z * sd + 1.0 / n


def stance_marker(post_text: str) -> str | None:
    """The stance a synthetic post carries, or None for a noise post."""
    match = _SIG.search(post_text)
    if match is None or match.group(1) == "none":
        return None
    return match.group(1).upper()


def check_stance_labels(annotations, accuracy: float) -> list[str]:
    """Stance labels agree with the [sig:x] markers at the oracle accuracy.

    `annotations` holds (post_id, post_text, label name, explanation) per
    stance reply. Only the first label of each post counts, so a backend
    that answers a repeated prompt the same way is not counted twice.
    """
    seen: set[str] = set()
    agree = n = 0
    for post_id, post_text, label, _explanation in annotations:
        if post_id in seen:
            continue
        seen.add(post_id)
        marker = stance_marker(post_text)
        if marker is None:
            continue
        n += 1
        agree += int(STANCE_LETTERS.get(label) == marker)
    if not within_binomial(agree, n, accuracy):
        return [
            f"stance labels match markers on {agree}/{n} posts, "
            f"outside the binomial bound around {accuracy}"
        ]
    return []


def check_heldout_stance(micro_f1: float, n_scored: int, accuracy: float) -> list[str]:
    """Held-out stance micro-F1 equals accuracy, so it tracks the oracle's."""
    if not within_binomial(round(micro_f1 * n_scored), n_scored, accuracy):
        return [
            f"held-out stance micro-F1 {micro_f1:.4f} over {n_scored} posts is "
            f"outside the binomial bound around {accuracy}"
        ]
    return []


def centered_cosine_sign(distribution, truth: str) -> int:
    """Sign of the cosine between distribution - 1/4 and one-hot(truth) - 1/4."""
    a = [float(x) - 0.25 for x in distribution]
    b = [(1.0 if label == truth else 0.0) - 0.25 for label in VERACITY_ORDER]
    na = math.sqrt(sum(x * x for x in a))
    nb = math.sqrt(sum(x * x for x in b))
    if na < 1e-12 or nb < 1e-12:
        return 0
    cosine = sum(x * y for x, y in zip(a, b)) / (na * nb)
    if abs(cosine) < 1e-12:
        return 0
    return 1 if cosine > 0.0 else -1


def check_seed_rewards(steps) -> list[str]:
    """Every seed claim's reward is the sign of its centered cosine to the truth."""
    failures = []
    for step in steps:
        if not step["seed"]:
            continue
        if step["verdict"] is None:
            failures.append(f"seed claim {step['claim_id']}: no veracity reply")
            continue
        expected = centered_cosine_sign(step["verdict"], step["truth"])
        if step["claim_reward"] != expected:
            failures.append(
                f"seed claim {step['claim_id']}: reward {step['claim_reward']}, "
                f"centered cosine sign {expected}"
            )
    return failures[:5]


def check_reward_values(steps) -> list[str]:
    failures = []
    for step in steps:
        for reward in [step["claim_reward"], *step["post_rewards"]]:
            if reward not in (-1, 0, 1):
                failures.append(f"claim {step['claim_id']}: reward {reward!r}")
    return failures[:5]


def check_optimizer(n_updates_expected: int, optimizer_step: int, arrays) -> list[str]:
    failures = []
    if optimizer_step != n_updates_expected:
        failures.append(
            f"optimizer.step {optimizer_step} != {n_updates_expected} claim steps"
        )
    if not all(np.isfinite(a).all() for a in arrays):
        failures.append("policy parameters are not finite")
    return failures


def check_sampling(steps, max_posts: int) -> list[str]:
    """Within a claim, sampled posts are unique, of the claim's thread, at
    most max_posts, and each has one stance reply and one decision."""
    failures = []
    for step in steps:
        ids = [post_id for post_id, *_rest in step["annotations"]]
        if None in ids:
            failures.append(f"claim {step['claim_id']}: a stance call about no post of its thread")
        if len(ids) != len(step["post_retained"]):
            failures.append(
                f"claim {step['claim_id']}: {len(ids)} stance replies for "
                f"{len(step['post_retained'])} post decisions"
            )
        if len(set(ids)) != len(ids):
            failures.append(f"claim {step['claim_id']}: a post was sampled twice")
        if len(ids) > max_posts:
            failures.append(
                f"claim {step['claim_id']}: {len(ids)} posts > max_posts {max_posts}"
            )
    return failures[:5]


def expected_stance_examples(steps) -> list[tuple[str, str, str]]:
    """(claim text, post text, target) for each retained post of a retained claim."""
    out = []
    for step in steps:
        if not step["claim_retained"]:
            continue
        for (_id, post_text, label, explanation), retained in zip(
            step["annotations"], step["post_retained"]
        ):
            if retained:
                out.append((step["claim_text"], post_text,
                            f"Stance: {label}, Reason:{explanation}"))
    return out


def check_finetune(steps, examples) -> list[str]:
    """Stance fine-tune examples are exactly the retained posts of retained claims.

    `examples` holds (task, prompt, target) in export order.
    """
    expected = expected_stance_examples(steps)
    if len(expected) != len(examples):
        return [f"{len(examples)} stance fine-tune examples, expected {len(expected)}"]
    for (claim_text, post_text, target), (task, prompt, got) in zip(expected, examples):
        if task != "stance" or got != target or claim_text not in prompt \
                or post_text not in prompt:
            return [f"stance fine-tune example {got!r} does not match {target!r}"]
    return []


def check_evaluation(report: dict) -> list[str]:
    failures = []
    for task in ("stance", "veracity"):
        metrics = report.get(task)
        if metrics is None:
            failures.append(f"evaluation has no {task} scores")
        elif metrics["abstentions"] != 0:
            failures.append(f"evaluation abstained on {metrics['abstentions']} {task} items")
    return failures


def check_same_params(label: str, expected, actual) -> list[str]:
    """Bitwise equality of (w1, w2) pairs."""
    if expected is None or actual is None:
        return [f"{label}: parameters missing"]
    for a, b in zip(expected, actual):
        if a.shape != b.shape or a.tobytes() != b.tobytes():
            return [f"{label}: parameters differ"]
    return []


def retain_logits(w1, w2, states) -> np.ndarray:
    """Log-odds of retain, w2 . relu(w1 . s), for each row of `states`."""
    return np.maximum(states @ w1.T, 0.0) @ w2


def retain_gap(signal_z, noise_z) -> tuple[float, float]:
    """Mean retain log-odds of signal posts minus that of noise posts, and
    its standard error.

    Log-odds, because a policy that keeps nearly every post squeezes any gap
    in p(retain) toward 0. The gap is reported, not checked: see README.md.
    """
    signal, noise = np.asarray(signal_z, float), np.asarray(noise_z, float)
    gap = float(signal.mean() - noise.mean())
    se = math.sqrt(signal.var(ddof=1) / signal.size + noise.var(ddof=1) / noise.size)
    return gap, se


def check_server_counts(server: dict, client: dict) -> list[str]:
    """Server request counts equal client call counts; no non-200 replies."""
    failures = []
    requests = server.get("requests", {})
    for route, calls in (("/annotate", client["complete"]),
                         ("/finetune", client["finetune"])):
        if requests.get(route, 0) != calls:
            failures.append(
                f"server saw {requests.get(route, 0)} {route} requests, "
                f"clients made {calls} calls"
            )
    if server.get("non_200", 0):
        failures.append(f"server sent {server['non_200']} non-200 replies")
    return failures


def check_round(out: dict) -> list[str]:
    """Every check over the outputs of one round (see worker.run_round)."""
    failures = []
    failures += check_same_params("resume", out["final_params"], out["resumed_params"])
    failures += check_same_params(
        "mid-epoch resume", out["mid_params"], out["replay_params"]
    )
    steps = out["steps"]
    failures += check_stance_labels(
        [a for step in steps for a in step["annotations"]], out["accuracy"]
    )
    report = out["eval_reports"][0]
    if any(other != report for other in out["eval_reports"][1:]):
        failures.append("repeated evaluations of the same policy disagree")
    if report["stance"] is not None:
        failures += check_heldout_stance(
            report["stance"]["micro_f1"], report["stance"]["n_scored"], out["accuracy"]
        )
    failures += check_seed_rewards(steps)
    failures += check_reward_values(steps)
    failures += check_optimizer(
        out["claim_steps"], out["optimizer_step"], out["final_params"]
    )
    failures += check_sampling(steps, out["max_posts"])
    failures += check_finetune(steps, out["finetune_stance"])
    failures += check_evaluation(report)
    return failures
