import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from divsel.consensus import (ABSTAIN, ConsensusMethod, EnsemblePrediction,
                              boosting_weights, ensemble_accuracy, predict)
from divsel.errors import CapabilityError, DivselError

from conftest import pool_from_correctness, pool_from_probs, pool_from_votes, team
from oracles import o_boosting_weights

SOFT = ConsensusMethod("soft")
MAJORITY = ConsensusMethod("majority")
PLURALITY = ConsensusMethod("plurality")
BOOSTING = ConsensusMethod("boosting")


# ------------------------------------------------------------- soft voting

def test_soft_vote_averages_probabilities():
    pool = pool_from_probs([1], [[[0.6, 0.4]], [[0.2, 0.8]]], num_classes=2)
    pred = predict(team(0, 1), pool, SOFT)
    np.testing.assert_allclose(pred.probs[0], [0.4, 0.6])
    assert pred.labels[0] == 1


def test_soft_vote_identical_members_match_single_model():
    rng = np.random.default_rng(2)
    probs = rng.random((40, 5))
    probs /= probs.sum(axis=1, keepdims=True)
    labels = rng.integers(0, 5, 40)
    pool = pool_from_probs(labels, [probs, probs.copy(), probs.copy()], num_classes=5)
    pred = predict(team(0, 1, 2), pool, SOFT)
    np.testing.assert_array_equal(pred.labels, pool.preds[0])


def test_soft_vote_tie_breaks_to_lowest_class():
    pool = pool_from_probs([0], [[[0.5, 0.5]], [[0.5, 0.5]]], num_classes=2)
    assert predict(team(0, 1), pool, SOFT).labels[0] == 0


def test_soft_vote_rows_sum_to_one():
    rng = np.random.default_rng(3)
    mats = []
    for _ in range(3):
        p = rng.random((30, 4))
        p /= p.sum(axis=1, keepdims=True)
        mats.append(p)
    pool = pool_from_probs(rng.integers(0, 4, 30), mats, num_classes=4)
    pred = predict(team(0, 1, 2), pool, SOFT)
    np.testing.assert_allclose(pred.probs.sum(axis=1), 1.0, atol=1e-9)


def test_soft_vote_capability_error_without_probs():
    pool = pool_from_correctness([[1, 0, 1], [0, 1, 1]])
    with pytest.raises(CapabilityError, match="^soft voting needs prediction probabilit"):
        predict(team(0, 1), pool, SOFT)


def test_boosting_checks_capability_before_train_indices():
    # gamma is checked when the method is built, then capability, then indices
    with pytest.raises(DivselError, match="penalty"):
        ConsensusMethod("boosting", gamma=0.0, train_indices=[99])
    pool = pool_from_correctness([[1, 0, 1], [0, 1, 1]])
    with pytest.raises(CapabilityError, match="^boosting voting needs prediction probabilit"):
        predict(team(0, 1), pool, ConsensusMethod("boosting", train_indices=[99]))


# -------------------------------------------------- majority and plurality

def test_majority_vote_cases():
    pool = pool_from_votes([[1], [1], [2]], num_classes=3)
    assert predict(team(0, 1, 2), pool, MAJORITY).labels[0] == 1
    pool = pool_from_votes([[0], [1], [2]], num_classes=3)
    assert predict(team(0, 1, 2), pool, MAJORITY).labels[0] == ABSTAIN
    pool = pool_from_votes([[0], [0], [1], [1]], num_classes=2)
    assert predict(team(0, 1, 2, 3), pool, MAJORITY).labels[0] == ABSTAIN


def test_plurality_vote_cases():
    pool = pool_from_votes([[0], [1], [2]], num_classes=3)
    assert predict(team(0, 1, 2), pool, PLURALITY).labels[0] == 0  # 3-way tie
    pool = pool_from_votes([[1], [1], [2]], num_classes=3)
    assert predict(team(0, 1, 2), pool, PLURALITY).labels[0] == 1


def test_majority_implies_plurality_agreement():
    rng = np.random.default_rng(10)
    for s in (2, 3, 5, 8):
        rows = rng.integers(0, 6, size=(s, 4000))
        pool = pool_from_votes(rows, num_classes=6)
        t = team(*range(s))
        maj = predict(t, pool, MAJORITY).labels
        plu = predict(t, pool, PLURALITY).labels
        decided = maj != ABSTAIN
        np.testing.assert_array_equal(maj[decided], plu[decided])


# --------------------------------------------------------- boosting voting

def _two_model_pool(member0_wrong: bool):
    # one sample; member 0 optionally wrong, member 1 right
    p0 = [[0.2, 0.8]] if member0_wrong else [[0.8, 0.2]]
    return pool_from_probs([0], [p0, [[0.9, 0.1]]], num_classes=2)


def test_boosting_weights_no_errors_stay_uniform():
    rng = np.random.default_rng(4)
    labels = rng.integers(0, 3, 50)
    probs = np.full((50, 3), 0.1)
    probs[np.arange(50), labels] = 0.8
    pool = pool_from_probs(labels, [probs, probs.copy(), probs.copy()], num_classes=3)
    w = boosting_weights(team(0, 1, 2), pool, BOOSTING)
    np.testing.assert_array_equal(w, np.full(3, 1 / 3))


def test_boosting_weights_hand_value():
    pool = _two_model_pool(member0_wrong=True)
    w = boosting_weights(team(0, 1), pool, ConsensusMethod("boosting", gamma=-0.01))
    assert w[0] == pytest.approx(0.49751, abs=1e-5)
    assert w[1] == pytest.approx(0.50249, abs=1e-5)
    assert abs(w.sum() - 1.0) <= 1e-9


def test_boosting_weights_sum_to_one():
    rng = np.random.default_rng(6)
    labels = rng.integers(0, 4, 200)
    mats = []
    for _ in range(4):
        p = rng.random((200, 4)) + 0.05
        p /= p.sum(axis=1, keepdims=True)
        mats.append(p)
    pool = pool_from_probs(labels, mats, num_classes=4)
    w = boosting_weights(team(0, 1, 2, 3), pool, BOOSTING)
    assert abs(float(w.sum()) - 1.0) <= 1e-9


def test_boosting_weights_more_errors_means_smaller_weight():
    rng = np.random.default_rng(7)
    labels = rng.integers(0, 3, 300)
    mats = []
    for err in (0.05, 0.15, 0.3):
        preds = labels.copy()
        flip = rng.random(300) < err
        preds[flip] = (labels[flip] + 1) % 3
        p = np.full((300, 3), 0.1)
        p[np.arange(300), preds] = 0.8
        mats.append(p)
    pool = pool_from_probs(labels, mats, num_classes=3)
    w = boosting_weights(team(0, 1, 2), pool, BOOSTING)
    errors = [int((pool.preds[i] != labels).sum()) for i in range(3)]
    assert errors[0] < errors[1] < errors[2]
    assert w[0] > w[1] > w[2]


def test_boosting_weights_gamma_validation():
    # the method checks gamma once; boosting_weights trusts it
    for gamma in (0.0, 0.5, math.nan, -math.inf):
        with pytest.raises(DivselError, match="finite and negative"):
            ConsensusMethod("boosting", gamma=gamma)
    ConsensusMethod("soft", gamma=0.5)  # only boosting reads gamma


def test_boosting_weights_respects_train_indices():
    pool = _two_model_pool(member0_wrong=True)
    for kind in ("boosting", "soft"):
        with pytest.raises(DivselError, match="non-empty training index set"):
            ConsensusMethod(kind, train_indices=np.array([], dtype=np.int64))
    # the pool's range is checked per pool; a negative index must not wrap
    for bad in ([5], [1], [-1], [0, -1]):
        method = ConsensusMethod("boosting", train_indices=bad)
        with pytest.raises(DivselError, match="training index out of range"):
            boosting_weights(team(0, 1), pool, method)
        with pytest.raises(DivselError, match="training index out of range"):
            predict(team(0, 1), pool, method)


@st.composite
def boosting_cases(draw):
    """Member votes, labels, training indices (unsorted, with duplicates) and gamma."""
    size = draw(st.integers(2, 6))
    n = draw(st.integers(1, 40))
    num_classes = draw(st.integers(2, 4))
    votes = st.lists(st.integers(0, num_classes - 1), min_size=n, max_size=n)
    labels = draw(votes)
    preds = [draw(votes) for _ in range(size)]
    train = draw(st.none() | st.lists(st.integers(0, n - 1), min_size=1, max_size=3 * n))
    gamma = draw(st.floats(-2.0, -1e-4))
    return labels, preds, train, gamma, num_classes


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=boosting_cases())
@example(case=([0, 1, 0, 1], [[1, 1, 0, 0], [0, 0, 0, 1], [1, 0, 1, 0]],
               [3, 0, 3, 2, 0, 3], -1.5, 2))
def test_boosting_weights_match_walk_oracle(case):
    labels, preds, train, gamma, num_classes = case
    n = len(labels)
    mats = []
    for row in preds:
        p = np.full((n, num_classes), 0.5 / num_classes)
        p[np.arange(n), row] += 0.5
        mats.append(p)
    pool = pool_from_probs(labels, mats, num_classes=num_classes)
    method = ConsensusMethod("boosting", gamma=gamma, train_indices=train)
    w = boosting_weights(team(*range(len(preds))), pool, method)
    walked = o_boosting_weights(preds, labels, range(n) if train is None else train, gamma)
    np.testing.assert_allclose(w, walked, rtol=0, atol=1e-12)


def test_boosting_weights_do_not_underflow_at_large_error_counts():
    # e^(-0.01 * 75,000) underflows to 0: unshifted weights would be 0 / 0
    n = 80_000
    mats = []
    for errors in (75_400, 75_000, 76_000):
        p = np.tile([0.9, 0.1], (n, 1))
        p[:errors] = [0.1, 0.9]
        mats.append(p)
    pool = pool_from_probs(np.zeros(n, dtype=np.int64), mats, num_classes=2)
    w = boosting_weights(team(0, 1, 2), pool, ConsensusMethod("boosting", gamma=-0.01))
    assert np.all(np.isfinite(w))
    assert abs(float(w.sum()) - 1.0) <= 1e-12
    assert w.argmax() == 1


def test_boosting_vote_uniform_weights_equal_soft_vote():
    rng = np.random.default_rng(8)
    labels = rng.integers(0, 5, 100)
    mats = []
    for _ in range(4):
        p = rng.random((100, 5)) + 0.02
        p[np.arange(30), labels[:30]] += 1.0  # every member right on the first 30
        p /= p.sum(axis=1, keepdims=True)
        mats.append(p)
    pool = pool_from_probs(labels, mats, num_classes=5)
    t = team(0, 1, 2, 3)
    # no member errs on the training samples, so every weight is exactly 1/4
    right = np.flatnonzero(np.all(pool.preds == labels, axis=0))
    assert right.size >= 30
    method = ConsensusMethod("boosting", train_indices=right)
    np.testing.assert_array_equal(boosting_weights(t, pool, method), np.full(4, 0.25))
    boosted = predict(t, pool, method)
    soft = predict(t, pool, SOFT)
    np.testing.assert_array_equal(boosted.labels, soft.labels)
    np.testing.assert_array_equal(boosted.probs, soft.probs)


def test_boosting_vote_degenerate_weights_follow_single_member():
    # member 0 is right on both samples and member 1 wrong on both: at this
    # gamma e^(2 * gamma) underflows, so the weights are exactly [1, 0]
    pool = pool_from_probs([0, 1], [[[0.6, 0.4], [0.3, 0.7]],
                                    [[0.2, 0.8], [0.9, 0.1]]], num_classes=2)
    method = ConsensusMethod("boosting", gamma=-1000.0)
    np.testing.assert_array_equal(boosting_weights(team(0, 1), pool, method), [1.0, 0.0])
    pred = predict(team(0, 1), pool, method)
    np.testing.assert_array_equal(pred.labels, pool.preds[0])


def test_boosting_vote_hand_value():
    # sample 0 is voted on; on sample 1, the only training sample, member 1
    # errs once more than member 0, so gamma = ln(3/7) gives weights [0.7, 0.3]
    pool = pool_from_probs([1, 0], [[[0.6, 0.4], [0.9, 0.1]],
                                    [[0.2, 0.8], [0.1, 0.9]]], num_classes=2)
    method = ConsensusMethod("boosting", gamma=math.log(3 / 7), train_indices=[1])
    w = boosting_weights(team(0, 1), pool, method)
    np.testing.assert_allclose(w, [0.7, 0.3], rtol=0, atol=1e-15)
    pred = predict(team(0, 1), pool, method)
    assert pred.labels[0] == 1  # combined mass proportional to [0.48, 0.52]
    np.testing.assert_allclose(pred.probs[0], [0.48, 0.52])


def test_boosting_vote_scale_invariant_argmax():
    rng = np.random.default_rng(9)
    labels = rng.integers(0, 3, 60)
    mats = []
    for _ in range(3):
        p = rng.random((60, 3)) + 0.01
        p /= p.sum(axis=1, keepdims=True)
        mats.append(p)
    pool = pool_from_probs(labels, mats, num_classes=3)
    t = team(0, 1, 2)
    method = ConsensusMethod("boosting", gamma=-0.2)
    w = boosting_weights(t, pool, method)
    assert len(set(w.tolist())) == 3
    base = predict(t, pool, method).labels
    # scaling all weights by a positive constant cannot move any argmax
    probs = [pool.probs[i].T for i in t.members]
    for scale in (0.1, 3.0, 250.0):
        combined = sum(sw * p for sw, p in zip(w * scale, probs))
        np.testing.assert_array_equal(combined.argmax(axis=1), base)


# ------------------------------------------------------- ensemble accuracy

def test_ensemble_accuracy_values():
    labels = np.array([0, 1, 2, 0])
    assert ensemble_accuracy(EnsemblePrediction(labels=labels.copy()), labels) == 1.0
    allabstain = EnsemblePrediction(labels=np.full(4, ABSTAIN))
    assert ensemble_accuracy(allabstain, labels) == 0.0
    three = EnsemblePrediction(labels=np.array([0, 1, 2, 1]))
    assert ensemble_accuracy(three, labels) == 0.75


def test_predict_dispatch():
    pool = pool_from_probs([0, 1], [[[0.6, 0.4], [0.3, 0.7]],
                                    [[0.7, 0.3], [0.2, 0.8]]], num_classes=2)
    t = team(0, 1)
    for kind in ("soft", "majority", "plurality", "boosting"):
        pred = predict(t, pool, ConsensusMethod(kind))
        assert pred.labels.shape == (2,)


def test_consensus_method_keeps_train_indices_as_read_only_int64_copy():
    given = np.array([3, 1, 2])
    stored = ConsensusMethod("boosting", train_indices=given).train_indices
    assert stored.dtype == np.int64 and not stored.flags.writeable
    np.testing.assert_array_equal(stored, [3, 1, 2])
    assert not np.shares_memory(stored, given)
    given[0] = 0
    assert stored[0] == 3
    from_list = ConsensusMethod("boosting", train_indices=[3, 1, 2]).train_indices
    assert from_list.dtype == np.int64
    np.testing.assert_array_equal(from_list, [3, 1, 2])
    assert ConsensusMethod("soft").train_indices is None
