"""Consensus algorithms combining member predictions into a team prediction.

``predict`` runs the four methods a ``ConsensusMethod`` names: soft
voting (probability averaging), majority voting (more than half the
votes, else abstain), plurality voting (most votes, never abstains) and
boosting voting (weighted soft voting with weights learned by penalizing
training errors).  All tie-breaks pick the lowest class index;
abstention is encoded as ABSTAIN (-1) and always counts as an incorrect
prediction.
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
PROB_METHODS = ("soft", "boosting")


def _check_gamma(gamma: float) -> None:
    """Boosting needs a finite negative penalty exponent."""
    if not (math.isfinite(gamma) and gamma < 0):
        raise DivselError(f"boosting penalty must be finite and negative, got {gamma}")


@dataclass(frozen=True, eq=False)
class ConsensusMethod:
    """A consensus algorithm choice plus its parameters; ``train_indices``
    is kept as a read-only int64 copy."""

    kind: str
    gamma: float = DEFAULT_GAMMA
    train_indices: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in METHODS:
            raise ValueError(f"unknown consensus method {self.kind!r}")
        if self.kind == "boosting":
            _check_gamma(self.gamma)
        if self.train_indices is not None:
            indices = np.array(self.train_indices, dtype=np.int64)
            indices.flags.writeable = False
            object.__setattr__(self, "train_indices", indices)


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


def ensemble_accuracy(pred: EnsemblePrediction, labels: np.ndarray) -> float:
    """Fraction of samples predicted correctly; abstentions count as wrong."""
    return float(np.mean(pred.labels == labels))


def predict(team: EnsembleTeam, pool: PredictionPool,
            method: ConsensusMethod) -> EnsemblePrediction:
    """Run the chosen consensus method on a team; the only code that votes."""
    if method.kind in ("majority", "plurality"):
        counts = np.zeros((pool.num_samples, pool.num_classes), dtype=np.int64)
        rows = np.arange(pool.num_samples)
        for i in team.members:
            counts[rows, pool.models[i].pred_labels] += 1
        labels = counts.argmax(axis=1)
        if method.kind == "majority":
            labels[counts.max(axis=1) * 2 <= team.size] = ABSTAIN
        return EnsemblePrediction(labels=labels)
    probs = _member_probs(team, pool, f"{method.kind} voting")
    weights = (boosting_weights(team, pool, method.train_indices, method.gamma)
               if method.kind == "boosting" else None)
    combined = np.zeros_like(probs[0])
    for k, p in enumerate(probs):
        # each weighted term is freed before the next is made; keeping two
        # alive (as a generator of terms does) slows 2-thread boosting by ~25%
        combined += p if weights is None else weights[k] * p
    combined /= team.size
    labels = combined.argmax(axis=1)
    # rescale rows to sum to 1; a positive scale never moves the argmax, and
    # no sum is 0: member rows sum to 1 and the fewest-error member's weight is > 0
    combined /= combined.sum(axis=1, keepdims=True)
    return EnsemblePrediction(labels=labels, probs=combined)
