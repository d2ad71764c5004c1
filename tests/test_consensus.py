import numpy as np
import pytest

from divsel.consensus import (ABSTAIN, ConsensusMethod, EnsemblePrediction,
                              MemberWeights, boosting_vote, boosting_weights,
                              ensemble_accuracy, majority_vote, plurality_vote,
                              predict, soft_vote)
from divsel.errors import CapabilityError, DivselError
from divsel.teaming import team

from conftest import pool_from_correctness, pool_from_probs


def votes_pool(vote_rows, num_classes):
    """Pool whose members cast fixed votes; labels all zero."""
    from divsel.pool import ModelRecord, build_pool
    rows = np.asarray(vote_rows, dtype=np.int64)
    labels = np.zeros(rows.shape[1], dtype=np.int64)
    models = [ModelRecord(id=i, name=f"m{i}", pred_labels=rows[i])
              for i in range(rows.shape[0])]
    return build_pool("votes", num_classes, labels, models)


# ------------------------------------------------------------- soft voting

def test_soft_vote_averages_probabilities():
    pool = pool_from_probs([1], [[[0.6, 0.4]], [[0.2, 0.8]]], num_classes=2)
    pred = soft_vote(team(0, 1), pool)
    np.testing.assert_allclose(pred.probs[0], [0.4, 0.6])
    assert pred.labels[0] == 1


def test_soft_vote_identical_members_match_single_model():
    rng = np.random.default_rng(2)
    probs = rng.random((40, 5))
    probs /= probs.sum(axis=1, keepdims=True)
    labels = rng.integers(0, 5, 40)
    pool = pool_from_probs(labels, [probs, probs.copy(), probs.copy()], num_classes=5)
    pred = soft_vote(team(0, 1, 2), pool)
    np.testing.assert_array_equal(pred.labels, pool.models[0].pred_labels)


def test_soft_vote_tie_breaks_to_lowest_class():
    pool = pool_from_probs([0], [[[0.5, 0.5]], [[0.5, 0.5]]], num_classes=2)
    assert soft_vote(team(0, 1), pool).labels[0] == 0


def test_soft_vote_rows_sum_to_one():
    rng = np.random.default_rng(3)
    mats = []
    for _ in range(3):
        p = rng.random((30, 4))
        p /= p.sum(axis=1, keepdims=True)
        mats.append(p)
    pool = pool_from_probs(rng.integers(0, 4, 30), mats, num_classes=4)
    pred = soft_vote(team(0, 1, 2), pool)
    np.testing.assert_allclose(pred.probs.sum(axis=1), 1.0, atol=1e-9)


def test_soft_vote_capability_error_without_probs():
    pool = pool_from_correctness([[1, 0, 1], [0, 1, 1]])
    with pytest.raises(CapabilityError, match="probabilit"):
        soft_vote(team(0, 1), pool)


# -------------------------------------------------- majority and plurality

def test_majority_vote_cases():
    pool = votes_pool([[1], [1], [2]], num_classes=3)
    assert majority_vote(team(0, 1, 2), pool).labels[0] == 1
    pool = votes_pool([[0], [1], [2]], num_classes=3)
    assert majority_vote(team(0, 1, 2), pool).labels[0] == ABSTAIN
    pool = votes_pool([[0], [0], [1], [1]], num_classes=2)
    assert majority_vote(team(0, 1, 2, 3), pool).labels[0] == ABSTAIN


def test_plurality_vote_cases():
    pool = votes_pool([[0], [1], [2]], num_classes=3)
    assert plurality_vote(team(0, 1, 2), pool).labels[0] == 0  # 3-way tie
    pool = votes_pool([[1], [1], [2]], num_classes=3)
    assert plurality_vote(team(0, 1, 2), pool).labels[0] == 1


def test_majority_implies_plurality_agreement():
    rng = np.random.default_rng(10)
    for s in (2, 3, 5, 8):
        rows = rng.integers(0, 6, size=(s, 4000))
        pool = votes_pool(rows, num_classes=6)
        t = team(*range(s))
        maj = majority_vote(t, pool).labels
        plu = plurality_vote(t, pool).labels
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
    w = boosting_weights(team(0, 1, 2), pool)
    np.testing.assert_array_equal(w.weights, np.full(3, 1 / 3))


def test_boosting_weights_hand_value():
    pool = _two_model_pool(member0_wrong=True)
    w = boosting_weights(team(0, 1), pool, gamma=-0.01)
    assert w.weights[0] == pytest.approx(0.49751, abs=1e-5)
    assert w.weights[1] == pytest.approx(0.50249, abs=1e-5)
    assert abs(w.weights.sum() - 1.0) <= 1e-9


def test_boosting_weights_sum_to_one():
    rng = np.random.default_rng(6)
    labels = rng.integers(0, 4, 200)
    mats = []
    for _ in range(4):
        p = rng.random((200, 4)) + 0.05
        p /= p.sum(axis=1, keepdims=True)
        mats.append(p)
    pool = pool_from_probs(labels, mats, num_classes=4)
    w = boosting_weights(team(0, 1, 2, 3), pool)
    assert abs(float(w.weights.sum()) - 1.0) <= 1e-9


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
    w = boosting_weights(team(0, 1, 2), pool).weights
    errors = [int((pool.models[i].pred_labels != labels).sum()) for i in range(3)]
    assert errors[0] < errors[1] < errors[2]
    assert w[0] > w[1] > w[2]


def test_boosting_weights_gamma_validation():
    pool = _two_model_pool(member0_wrong=False)
    with pytest.raises(DivselError):
        boosting_weights(team(0, 1), pool, gamma=0.0)
    with pytest.raises(DivselError):
        ConsensusMethod("boosting", gamma=0.5)


def test_boosting_weights_respects_train_indices():
    pool = _two_model_pool(member0_wrong=True)
    with pytest.raises(DivselError):
        boosting_weights(team(0, 1), pool, train_indices=np.array([], dtype=np.int64))
    with pytest.raises(DivselError):
        boosting_weights(team(0, 1), pool, train_indices=np.array([5]))


def test_boosting_vote_uniform_weights_equal_soft_vote():
    rng = np.random.default_rng(8)
    labels = rng.integers(0, 5, 100)
    mats = []
    for _ in range(4):
        p = rng.random((100, 5)) + 0.02
        p /= p.sum(axis=1, keepdims=True)
        mats.append(p)
    pool = pool_from_probs(labels, mats, num_classes=5)
    t = team(0, 1, 2, 3)
    uniform = MemberWeights(weights=np.full(4, 0.25))
    np.testing.assert_array_equal(boosting_vote(t, pool, uniform).labels,
                                  soft_vote(t, pool).labels)


def test_boosting_vote_degenerate_weights_follow_single_member():
    pool = pool_from_probs([0, 1], [[[0.6, 0.4], [0.3, 0.7]],
                                    [[0.2, 0.8], [0.9, 0.1]]], num_classes=2)
    w = MemberWeights(weights=np.array([1.0, 0.0]))
    pred = boosting_vote(team(0, 1), pool, w)
    np.testing.assert_array_equal(pred.labels, pool.models[0].pred_labels)


def test_boosting_vote_hand_value():
    pool = pool_from_probs([1], [[[0.6, 0.4]], [[0.2, 0.8]]], num_classes=2)
    w = MemberWeights(weights=np.array([0.7, 0.3]))
    pred = boosting_vote(team(0, 1), pool, w)
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
    w = np.array([0.5, 0.3, 0.2])
    base = boosting_vote(t, pool, MemberWeights(weights=w)).labels
    # scaling all weights by a positive constant cannot move any argmax
    probs = [pool.models[i].probs for i in t.members]
    for scale in (0.1, 3.0, 250.0):
        combined = sum(sw * p for sw, p in zip(w * scale, probs))
        np.testing.assert_array_equal(combined.argmax(axis=1), base)


def test_member_weights_validation():
    with pytest.raises(ValueError):
        MemberWeights(weights=np.array([0.5, 0.4]))
    with pytest.raises(ValueError):
        MemberWeights(weights=np.array([1.5, -0.5]))


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


def test_consensus_method_equality_with_array_train_indices():
    a = ConsensusMethod("boosting", train_indices=np.array([3, 1, 2]))
    b = ConsensusMethod("boosting", train_indices=[3, 1, 2])
    assert a == b and hash(a) == hash(b)
    assert a.train_indices == (3, 1, 2)
    assert a != ConsensusMethod("boosting", train_indices=np.array([1, 2, 3]))
    assert ConsensusMethod("soft").train_indices is None
