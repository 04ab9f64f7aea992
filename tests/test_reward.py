"""Sign-of-centered-cosine rewards for labeled and unlabeled claims."""

from __future__ import annotations

import struct

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from claimsift.errors import RewardError
from claimsift.labels import VERACITIES, one_hot
from claimsift.reward import (
    ReferenceStanceStats,
    RewardOutcome,
    StanceMean,
    centered_cosine,
    checked_labeled_reward,
    labeled_claim_reward,
    sign_similarity,
    unlabeled_claim_reward,
)

UNIFORM = np.full(4, 0.25)


def _smoothed(index: int, alpha: float = 0.1) -> np.ndarray:
    vec = np.full(4, alpha / 4.0)
    vec[index] += 1.0 - alpha
    return vec


# ------------------------------------------------------------ cosine

def test_identical_distributions_score_plus_one():
    target = one_hot("T", "veracity")
    out = labeled_claim_reward(target, "T")
    assert out.value == 1
    assert out.cosine == pytest.approx(1.0)
    assert out.branch == "labeled"


def test_uniform_prediction_scores_zero():
    out = labeled_claim_reward(UNIFORM, "F")
    assert out.value == 0
    assert out.cosine == 0.0


def test_smoothed_wrong_label_scores_minus_one():
    # peak on N, truth T: centered cosine is exactly -1/3
    out = labeled_claim_reward(_smoothed(0), "T")
    assert out.value == -1
    assert abs(out.cosine - (-1.0 / 3.0)) < 1e-12


def test_smoothed_correct_label_scores_plus_one():
    out = labeled_claim_reward(_smoothed(2), "F")
    assert out.value == 1
    assert out.cosine == pytest.approx(1.0)


def test_cosine_symmetry_over_random_pairs():
    rng = np.random.default_rng(404)
    for _ in range(1000):
        p = rng.dirichlet(np.ones(4))
        q = rng.dirichlet(np.ones(4))
        assert centered_cosine(p, q) == pytest.approx(centered_cosine(q, p), abs=1e-12)
        assert sign_similarity(p, q) == sign_similarity(q, p)


def test_cosine_bounds_over_random_pairs():
    rng = np.random.default_rng(405)
    for _ in range(200):
        p = rng.dirichlet(np.ones(4) * 0.5)
        q = rng.dirichlet(np.ones(4) * 0.5)
        assert -1.0 - 1e-12 <= centered_cosine(p, q) <= 1.0 + 1e-12


@pytest.mark.parametrize("bad,fragment", [
    ([0.5, 0.5], "must have 4 entries"),
    ([0.25, 0.25, 0.25, np.nan], "non-finite"),
    ([0.5, 0.6, -0.05, -0.05], "negative mass"),
    ([0.3, 0.3, 0.3, 0.3], "does not sum to 1"),
])
def test_distribution_validation(bad, fragment):
    with pytest.raises(RewardError) as err:
        centered_cosine(bad, UNIFORM)
    assert fragment in str(err.value)


def test_labeled_reward_rejects_unknown_label():
    with pytest.raises(RewardError) as err:
        labeled_claim_reward(UNIFORM, "X")
    assert "unknown veracity label" in str(err.value)


@pytest.mark.parametrize("bad,fragment", [
    ([0.25, 0.25, 0.5], "must have 4 entries"),
    ([np.nan, 0.25, 0.25, 0.5], "non-finite"),
    ([0.7, 0.7, -0.2, -0.2], "negative mass"),
])
def test_labeled_reward_checks_the_prediction(bad, fragment):
    with pytest.raises(RewardError, match=fragment):
        labeled_claim_reward(bad, "T")


# -------------------------------------------------------- references

def test_reference_stats_running_mean():
    refs = ReferenceStanceStats()
    assert refs.mean("T") is None
    assert refs.count("T") == 0
    refs.update("T", [0.8, 0.1, 0.05, 0.05])
    refs.update("T", [0.6, 0.2, 0.1, 0.1])
    np.testing.assert_allclose(refs.mean("T"), [0.7, 0.15, 0.075, 0.075])
    assert refs.count("T") == 2
    assert refs.snapshot() == {"N": 0, "T": 2, "F": 0, "U": 0}


def test_restored_reference_stats_center_as_the_saved_ones_did():
    rng = np.random.default_rng(8)
    refs = ReferenceStanceStats()
    for veracity in ("T", "F", "T", "U", "T"):
        refs.update(veracity, rng.dirichlet(np.ones(4)))
    restored = ReferenceStanceStats.restore([refs._sums[v].copy() for v in VERACITIES],
                                            [refs.count(v) for v in VERACITIES])
    assert restored._centered == {}  # nothing is centered before it is asked for
    assert restored == refs
    for veracity in VERACITIES:
        got, want = restored.centered_mean(veracity), refs.centered_mean(veracity)
        if want is None:
            assert got is None and veracity == "N"
            continue
        assert got[0].tobytes() == want[0].tobytes() and got[1] == want[1]
    # an update drops the class's centered mean; the next one is recomputed
    restored.update("T", UNIFORM)
    refs.update("T", UNIFORM)
    assert restored.centered_mean("T")[0].tobytes() == refs.centered_mean("T")[0].tobytes()
    with pytest.raises(RewardError):
        restored.centered_mean("X")


def test_reference_stats_validation():
    refs = ReferenceStanceStats()
    with pytest.raises(RewardError):
        refs.update("X", UNIFORM)
    with pytest.raises(RewardError):
        refs.update("T", [0.5, 0.5, 0.5, 0.5])
    with pytest.raises(RewardError):
        refs.mean("X")


def test_unlabeled_reward_branches():
    refs = ReferenceStanceStats()
    # no posts selected
    out = unlabeled_claim_reward([], "T", refs)
    assert (out.value, out.branch) == (0, "empty")
    # cold reference class
    out = unlabeled_claim_reward([_smoothed(0)], "T", refs)
    assert (out.value, out.branch) == (0, "cold")
    # warm: selected stances lean Support, references for T lean Support
    refs.update("T", [0.7, 0.1, 0.1, 0.1])
    out = unlabeled_claim_reward([_smoothed(0), _smoothed(0)], "T", refs)
    assert (out.value, out.branch) == (1, "unlabeled")
    assert out.cosine > 0.0
    # anti-correlated selection flips the sign
    out = unlabeled_claim_reward([_smoothed(1)], "T", refs)
    assert out.value == -1
    assert out.cosine < 0.0


def test_unlabeled_reward_uses_mean_of_selection():
    refs = ReferenceStanceStats()
    refs.update("F", [0.1, 0.7, 0.1, 0.1])
    # two opposite selections average to uniform, which is centered-zero
    out = unlabeled_claim_reward(
        [[0.4, 0.1, 0.4, 0.1], [0.1, 0.4, 0.1, 0.4]], "F", refs
    )
    assert out.value == 0
    assert out.cosine == 0.0


# ------------------------------------------------- running stance mean

def _stacked_reward(prefix, veracity, references):
    """The unlabeled reward as first written: stack the prefix, then average."""
    if not prefix:
        return RewardOutcome(value=0, cosine=0.0, branch="empty")
    reference = references.mean(veracity)
    if reference is None:
        return RewardOutcome(value=0, cosine=0.0, branch="cold")
    mean = np.stack(prefix).mean(axis=0)
    cos = centered_cosine(mean, reference)
    value = 0 if abs(cos) < 1e-12 else (1 if cos > 0.0 else -1)
    return RewardOutcome(value=value, cosine=cos, branch="unlabeled")


def _bits(outcome):
    return outcome.value, struct.pack("<d", outcome.cosine), outcome.branch


# Masses that include exact and signed zeros and the tolerated -1e-10.
_mass = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, -0.0, 1.0, -1e-10]))


@st.composite
def _distribution(draw):
    raw = np.array(draw(st.lists(_mass, min_size=4, max_size=4)))
    assume(raw.sum() > 1e-3)
    vec = raw / raw.sum()
    assume(vec.min() >= -1e-9 and abs(vec.sum() - 1.0) <= 1e-6)
    return vec


@settings(max_examples=200, deadline=None)
@given(prefix=st.lists(_distribution(), max_size=12),
       references=st.lists(st.tuples(st.sampled_from(VERACITIES), _distribution()),
                           max_size=6),
       veracity=st.sampled_from(VERACITIES))
def test_running_mean_reward_equals_the_stacked_mean_bitwise(prefix, references,
                                                             veracity):
    refs = ReferenceStanceStats()  # cold for every class no reference names
    for label, distribution in references:
        refs.update(label, distribution)
    running = StanceMean()
    for k in range(len(prefix) + 1):
        if k:
            running.add(prefix[k - 1])
        assert len(running) == k
        if k:
            stacked = np.stack(prefix[:k]).mean(axis=0)
            assert running.mean().tobytes() == stacked.tobytes()
        expected = _bits(_stacked_reward(prefix[:k], veracity, refs))
        assert _bits(unlabeled_claim_reward(running, veracity, refs)) == expected
        assert _bits(unlabeled_claim_reward(list(prefix[:k]), veracity, refs)) \
            == expected


def test_stance_mean_validates_each_distribution_once_added():
    running = StanceMean([_smoothed(0)])
    with pytest.raises(RewardError, match="does not sum to 1"):
        running.add([0.5, 0.5, 0.5, 0.5])
    assert len(running) == 1
    with pytest.raises(RewardError, match="no stance distributions"):
        StanceMean().mean()


@settings(max_examples=300, deadline=None)
@given(p=_distribution(), q=_distribution(),
       s=st.floats(1e-3, 1.0), t=st.floats(1e-3, 1.0))
def test_cosine_sign_is_invariant_under_positive_scaling(p, q, s, t):
    # uniform + s * (p - uniform) stays on the simplex for s in (0, 1]
    assume(min(np.linalg.norm(p - 0.25), np.linalg.norm(q - 0.25)) > 1e-6)
    cos = centered_cosine(p, q)
    assume(abs(cos) > 1e-9)
    scaled = centered_cosine(0.25 + s * (p - 0.25), 0.25 + t * (q - 0.25))
    assert np.sign(scaled) == np.sign(cos)
    assert sign_similarity(0.25 + s * (p - 0.25), 0.25 + t * (q - 0.25)) \
        == sign_similarity(p, q)


def test_cached_reference_and_targets_give_the_checked_cosine_bitwise():
    """The labeled reward's prebuilt targets and the references' kept
    centered means give bitwise the cosine of the checked public path, and
    a class's kept mean is dropped by its next update."""
    rng = np.random.default_rng(406)
    refs = ReferenceStanceStats()
    for _ in range(50):
        veracity = VERACITIES[int(rng.integers(4))]
        predicted = rng.dirichlet(np.ones(4))
        labeled = labeled_claim_reward(predicted, veracity)
        assert _bits(labeled)[1] == struct.pack(
            "<d", centered_cosine(predicted, one_hot(veracity, "veracity")))
        assert _bits(checked_labeled_reward(predicted, veracity)) == _bits(labeled)
        selected = [rng.dirichlet(np.ones(4)) for _ in range(3)]
        out = unlabeled_claim_reward(selected, veracity, refs)
        if refs.count(veracity):
            want = centered_cosine(np.stack(selected).mean(axis=0), refs.mean(veracity))
            assert struct.pack("<d", out.cosine) == struct.pack("<d", want)
        else:
            assert out.branch == "cold"
        refs.update(veracity, rng.dirichlet(np.ones(4)))
