"""Diversity metrics over team correctness vectors.

Six metrics are supported.  Three are pairwise and averaged over all
member pairs: Cohen's kappa (ck), the Q statistic (qs) and binary
disagreement (bd).  Three are computed on the whole team at once:
Fleiss' kappa (fk), Kohavi-Wolpert variance (kw) and generalized
diversity (gd).

Every score is also exposed in a normalized orientation where *lower
means more diverse*: bd, kw and gd are flipped to 1 - value, the
agreement-style metrics ck, qs and fk are kept as-is.

``raw_score(metric, omega_neg, members)`` scores the rows of a K×M boolean
membership matrix, one team each, on one negative set's correctness block.
Team metrics are computed for a whole block of same-size teams at once from
per-sample correct counts; pairwise metrics are still scored team by team.
Every value must equal the one-team closed form bit for bit: rule learning
splits at 2-means midpoints that can sit one rounding step from a score.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .errors import EmptyNegativesError
from .pool import CorrectnessMatrix


class MetricId(str, Enum):
    CK = "ck"
    QS = "qs"
    BD = "bd"
    FK = "fk"
    KW = "kw"
    GD = "gd"

    @classmethod
    def parse(cls, name: str) -> "MetricId":
        try:
            return cls(name.strip().lower())
        except ValueError:
            valid = ", ".join(m.value for m in cls)
            raise ValueError(f"unknown metric {name!r} (expected one of: {valid})")

    @property
    def pairwise(self) -> bool:
        return self in (MetricId.CK, MetricId.QS, MetricId.BD)

    @property
    def flipped(self) -> bool:
        """True when the normalized score is 1 - raw value."""
        return self in (MetricId.BD, MetricId.KW, MetricId.GD)


def _check_shape(s: int, n: int) -> None:
    """Refuse a team of fewer than two members or a block of no samples."""
    if s < 2:
        raise ValueError(f"need at least 2 rows, got {s}")
    if n == 0:
        raise ValueError("empty correctness vectors")


def _checked(rows) -> np.ndarray:
    """Team correctness rows as int64, with at least two members and one sample."""
    rows = np.asarray(rows, dtype=np.int64)
    _check_shape(*rows.shape)
    return rows


def agreement_counts(rows) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(n11, n10, n01, n00) of every member pair i < j, in ``np.triu_indices`` order.

    n11 is read off the team's Gram matrix R Rᵀ and the other three follow
    from the row sums, so every count is exact.
    """
    rows = _checked(rows)
    i, j = np.triu_indices(rows.shape[0], 1)
    n11 = (rows @ rows.T)[i, j]
    ones = rows.sum(axis=1)
    n10 = ones[i] - n11
    n01 = ones[j] - n11
    return n11, n10, n01, rows.shape[1] - n11 - n10 - n01


def _ratio(num, den) -> np.ndarray:
    """num / den as float64, with 0 where den is 0."""
    return np.divide(num, den, out=np.zeros(np.shape(den)), where=den != 0)


def cohens_kappa(n11, n10, n01, n00) -> np.ndarray:
    """Chance-corrected agreement in [-1, 1]; 0 when the chance base degenerates."""
    den = (n11 + n10) * (n01 + n00) + (n11 + n01) * (n10 + n00)
    return _ratio(2.0 * (n11 * n00 - n01 * n10), den)


def q_statistics(n11, n10, n01, n00) -> np.ndarray:
    """Odds-style association in [-1, 1]; 0 when both products are zero."""
    agree = n11 * n00
    disagree = n01 * n10
    return _ratio(agree - disagree, agree + disagree)


def binary_disagreement(n11, n10, n01, n00) -> np.ndarray:
    """Fraction of samples where exactly one of the two models is correct."""
    return _ratio(n01 + n10, n11 + n10 + n01 + n00)


_PAIR_FUNCS = {
    MetricId.CK: cohens_kappa,
    MetricId.QS: q_statistics,
    MetricId.BD: binary_disagreement,
}


def pairwise_average(metric: MetricId, rows: np.ndarray) -> float:
    """Mean of a pairwise metric over all unordered member pairs."""
    if not metric.pairwise:
        raise ValueError(f"{metric.value} is not a pairwise metric")
    return float(np.mean(_PAIR_FUNCS[metric](*agreement_counts(rows))))


def _disagreeing_pairs(correct, s: int) -> np.ndarray:
    """Σ C·(s−C) of each row of per-sample correct counts, as exact int64."""
    return (correct * (s - correct)).sum(axis=1, dtype=np.int64)


def _fleiss_kappa(correct, s: int, n: int) -> np.ndarray:
    """Team-level chance-corrected agreement; 1 when behaviour is unanimous."""
    p_bar = correct.sum(axis=1, dtype=np.int64) / (n * s)
    chance = n * (s - 1) * p_bar * (1.0 - p_bar)
    return 1.0 - _ratio(_disagreeing_pairs(correct, s) / s, chance)


def _kw_variance(correct, s: int, n: int) -> np.ndarray:
    """Variability of per-sample correctness across the team, in [0, 0.25]."""
    return _disagreeing_pairs(correct, s) / (n * s * s)


def _generalized_diversity(correct, s: int, n: int) -> np.ndarray:
    """One minus the two-model joint-failure rate over the single-failure rate.

    Failure counts per sample give the empirical distribution p_i of
    "i of S models fail"; the score is 1 when the team never fails at all
    or no two members ever fail together, 0 when failures always strike
    the whole team in lockstep.
    """
    failures = s - correct
    p = np.stack([np.count_nonzero(failures == i, axis=1) for i in range(s + 1)],
                 axis=1) / n
    i = np.arange(s + 1)
    # each row is summed on its own contiguous memory, in the pairwise order
    # np.sum gives one team's row
    p1 = np.ascontiguousarray(i / s * p).sum(axis=1)
    p2 = np.ascontiguousarray(i * (i - 1) / (s * (s - 1)) * p).sum(axis=1)
    return 1.0 - _ratio(p2, p1)


_TEAM_FORMS = {
    MetricId.FK: _fleiss_kappa,
    MetricId.KW: _kw_variance,
    MetricId.GD: _generalized_diversity,
}


def raw_score(metric: MetricId, omega_neg: np.ndarray, members) -> np.ndarray:
    """Raw values of the teams ``omega_neg[members[k]]``: ``omega_neg`` is one
    negative set's M×n correctness block, ``members`` a K×M boolean matrix.

    Team metrics are scored one size block at a time: ``C = members[block] @
    omega_neg`` counts, per sample, the members that got it right, in the
    narrowest dtype that holds s², so no count or product C·(s−C) wraps.
    """
    members = np.asarray(members, dtype=bool)
    if metric.pairwise:
        return np.array([pairwise_average(metric, omega_neg[row]) for row in members])
    n = omega_neg.shape[1]
    sizes = members.sum(axis=1)
    scores = np.empty(len(members))
    for s in sorted(set(sizes.tolist())):  # np.unique imports numpy.ma: 1.6 MB resident
        _check_shape(s, n)
        block = sizes == s
        dtype = np.min_scalar_type(s * s)
        correct = members[block].astype(dtype) @ omega_neg.astype(dtype, copy=False)
        scores[block] = _TEAM_FORMS[metric](correct, s, n)
    return scores


def normalize(metric: MetricId, raw):
    """Orient raw values so that lower always means more diverse."""
    return 1.0 - raw if metric.flipped else raw


def diversity_score(metric: MetricId, members, corr: CorrectnessMatrix,
                    neg: np.ndarray) -> np.ndarray:
    """Raw ``metric`` value of each team (a row of the K×M membership matrix
    ``members``) on the negative indices ``neg``; ``normalize`` orients it."""
    if len(neg) == 0:
        raise EmptyNegativesError("cannot score diversity on an empty negative set")
    return raw_score(metric, corr.omega[:, neg], members)
