"""Consensus algorithms combining member predictions into a team prediction.

Four methods: soft voting (probability averaging), majority voting
(more than half the votes, else abstain), plurality voting (most votes,
never abstains) and boosting voting (weighted soft voting with weights
learned by penalizing training errors).  All tie-breaks pick the lowest
class index; abstention is encoded as ABSTAIN (-1) and always counts as
an incorrect prediction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapabilityError, DivselError
from .pool import PredictionPool
from .teaming import EnsembleTeam

ABSTAIN = -1
DEFAULT_GAMMA = -0.01
METHODS = ("soft", "majority", "plurality", "boosting")


def _check_gamma(gamma: float) -> None:
    """Boosting needs a finite negative penalty exponent."""
    if not (math.isfinite(gamma) and gamma < 0):
        raise DivselError(f"boosting penalty must be finite and negative, got {gamma}")


@dataclass(frozen=True)
class ConsensusMethod:
    """A consensus algorithm choice plus its parameters."""

    kind: str
    gamma: float = DEFAULT_GAMMA
    train_indices: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.kind not in METHODS:
            raise ValueError(f"unknown consensus method {self.kind!r}")
        if self.kind == "boosting":
            _check_gamma(self.gamma)
        if self.train_indices is not None:
            # a tuple keeps the frozen method comparable and hashable
            indices = np.asarray(self.train_indices, dtype=np.int64)
            object.__setattr__(self, "train_indices", tuple(indices.tolist()))


@dataclass(frozen=True)
class EnsemblePrediction:
    """Per-sample team predictions; ABSTAIN (-1) marks no decision.

    ``probs`` is present for probability-based methods and its rows are
    normalized to sum to 1.
    """

    labels: np.ndarray
    probs: np.ndarray | None = None


def _member_probs(team: EnsembleTeam, pool: PredictionPool, what: str):
    missing = [i for i in team.members if not pool.models[i].has_probs]
    if missing:
        raise CapabilityError(
            f"{what} needs prediction probabilities, but model(s) "
            f"{missing} carry labels only"
        )
    return [pool.models[i].probs for i in team.members]


def soft_vote(team: EnsembleTeam, pool: PredictionPool) -> EnsemblePrediction:
    """Average member probability rows and take the argmax."""
    probs = _member_probs(team, pool, "soft voting")
    combined = np.zeros_like(probs[0])
    for p in probs:
        combined += p
    combined /= team.size
    preds = combined.argmax(axis=1)
    combined /= combined.sum(axis=1, keepdims=True)
    return EnsemblePrediction(labels=preds.astype(np.int64), probs=combined)


def _vote_counts(team: EnsembleTeam, pool: PredictionPool) -> np.ndarray:
    counts = np.zeros((pool.num_samples, pool.num_classes), dtype=np.int64)
    rows = np.arange(pool.num_samples)
    for i in team.members:
        counts[rows, pool.models[i].pred_labels] += 1
    return counts


def majority_vote(team: EnsembleTeam, pool: PredictionPool) -> EnsemblePrediction:
    """Pick the class with more than half the votes; abstain otherwise."""
    counts = _vote_counts(team, pool)
    top = counts.argmax(axis=1)
    top_count = counts.max(axis=1)
    preds = np.where(top_count * 2 > team.size, top, ABSTAIN)
    return EnsemblePrediction(labels=preds.astype(np.int64))


def plurality_vote(team: EnsembleTeam, pool: PredictionPool) -> EnsemblePrediction:
    """Pick the most-voted class (lowest index on ties); never abstains."""
    counts = _vote_counts(team, pool)
    return EnsemblePrediction(labels=counts.argmax(axis=1).astype(np.int64))


def boosting_weights(team: EnsembleTeam, pool: PredictionPool,
                     train_indices=None, gamma: float = DEFAULT_GAMMA) -> np.ndarray:
    """Learn member weights, in member order and summing to 1, by
    multiplicative error penalties.

    Each training error multiplies a member's weight by e^gamma before the
    weights are renormalized, so w_i is proportional to e^(gamma * e_i),
    with e_i member i's error count on the training indices (all samples
    when None).  Index order does not matter; duplicates count each time.
    Subtracting min(e) keeps the largest term at 1, so nothing underflows.
    """
    _check_gamma(gamma)
    _member_probs(team, pool, "boosting voting")
    train = slice(None)
    if train_indices is not None:
        train = np.asarray(train_indices, dtype=np.int64)
        if train.size == 0:
            raise DivselError("boosting needs a non-empty training index set")
        if np.any((train < 0) | (train >= pool.num_samples)):
            raise DivselError("training index out of range")
    # argmax of each prob row equals the stored predicted label (pool invariant)
    labels = pool.labels[train]
    errors = np.array([np.count_nonzero(pool.models[i].pred_labels[train] != labels)
                       for i in team.members])
    weights = np.exp(gamma * (errors - errors.min()))
    return weights / weights.sum()


def boosting_vote(team: EnsembleTeam, pool: PredictionPool,
                  weights: np.ndarray) -> EnsemblePrediction:
    """Weighted soft voting with one weight per member, in member order."""
    probs = _member_probs(team, pool, "boosting voting")
    if weights.shape[0] != team.size:
        raise DivselError(f"got {weights.shape[0]} weights for a team of {team.size}")
    combined = np.zeros_like(probs[0])
    for w, p in zip(weights, probs):
        combined += w * p
    combined /= team.size
    preds = combined.argmax(axis=1)
    # rescale rows to sum to 1; a positive scale never moves the argmax
    row_sums = combined.sum(axis=1, keepdims=True)
    np.divide(combined, row_sums, out=combined, where=row_sums > 0)
    return EnsemblePrediction(labels=preds.astype(np.int64), probs=combined)


def ensemble_accuracy(pred: EnsemblePrediction, labels: np.ndarray) -> float:
    """Fraction of samples predicted correctly; abstentions count as wrong."""
    return float(np.mean(pred.labels == labels))


def predict(team: EnsembleTeam, pool: PredictionPool,
            method: ConsensusMethod) -> EnsemblePrediction:
    """Run the chosen consensus method on a team."""
    if method.kind == "soft":
        return soft_vote(team, pool)
    if method.kind == "majority":
        return majority_vote(team, pool)
    if method.kind == "plurality":
        return plurality_vote(team, pool)
    weights = boosting_weights(team, pool, method.train_indices, method.gamma)
    return boosting_vote(team, pool, weights)
