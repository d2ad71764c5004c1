"""Diversity metrics over team correctness vectors.

Six metrics are supported.  Three are pairwise and averaged over all
member pairs: Cohen's kappa (ck), the Q statistic (qs) and binary
disagreement (bd).  Three are computed on the whole team at once:
Fleiss' kappa (fk), Kohavi-Wolpert variance (kw) and generalized
diversity (gd).

Every score is also exposed in a normalized orientation where *lower
means more diverse*: bd, kw and gd are flipped to 1 - value, the
agreement-style metrics ck, qs and fk are kept as-is.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import EmptyNegativesError
from .pool import CorrectnessMatrix
from .sampling import NegativeSampleSet
from .teaming import EnsembleTeam


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


@dataclass(frozen=True)
class PairCounts:
    """2x2 contingency counts for a pair of correctness vectors."""

    n11: int
    n10: int
    n01: int
    n00: int

    @property
    def total(self) -> int:
        return self.n11 + self.n10 + self.n01 + self.n00


def pair_counts(wi: np.ndarray, wj: np.ndarray) -> PairCounts:
    """Exact agreement counts between two binary correctness vectors."""
    wi = np.asarray(wi, dtype=np.int64)
    wj = np.asarray(wj, dtype=np.int64)
    if wi.shape != wj.shape:
        raise ValueError(f"length mismatch: {wi.shape} vs {wj.shape}")
    n = int(wi.shape[0])
    if n == 0:
        raise ValueError("empty correctness vectors")
    n11 = int(wi @ wj)
    si = int(wi.sum())
    sj = int(wj.sum())
    return PairCounts(n11=n11, n10=si - n11, n01=sj - n11, n00=n - si - sj + n11)


def cohens_kappa(pc: PairCounts) -> float:
    """Chance-corrected agreement in [-1, 1]; 0 when the chance base degenerates."""
    den = (pc.n11 + pc.n10) * (pc.n01 + pc.n00) + (pc.n11 + pc.n01) * (pc.n10 + pc.n00)
    if den == 0:
        return 0.0
    return 2.0 * (pc.n11 * pc.n00 - pc.n01 * pc.n10) / den


def q_statistics(pc: PairCounts) -> float:
    """Odds-style association in [-1, 1]; 0 when both products are zero."""
    agree = pc.n11 * pc.n00
    disagree = pc.n01 * pc.n10
    if agree + disagree == 0:
        return 0.0
    return (agree - disagree) / (agree + disagree)


def binary_disagreement(pc: PairCounts) -> float:
    """Fraction of samples where exactly one of the two models is correct."""
    return (pc.n01 + pc.n10) / pc.total


_PAIR_FUNCS = {
    MetricId.CK: cohens_kappa,
    MetricId.QS: q_statistics,
    MetricId.BD: binary_disagreement,
}


def pairwise_average(metric: MetricId, rows: np.ndarray) -> float:
    """Mean of a pairwise metric over all unordered member pairs."""
    if not metric.pairwise:
        raise ValueError(f"{metric.value} is not a pairwise metric")
    rows = np.asarray(rows)
    s = rows.shape[0]
    if s < 2:
        raise ValueError(f"need at least 2 rows, got {s}")
    func = _PAIR_FUNCS[metric]
    values = [
        func(pair_counts(rows[i], rows[j]))
        for i in range(s - 1)
        for j in range(i + 1, s)
    ]
    return float(np.mean(values))


def _label_counts(rows: np.ndarray) -> tuple[int, int, np.ndarray]:
    rows = np.asarray(rows, dtype=np.int64)
    s, n = rows.shape
    if s < 2:
        raise ValueError(f"need at least 2 rows, got {s}")
    if n == 0:
        raise ValueError("empty correctness vectors")
    return s, n, rows.sum(axis=0)


def fleiss_kappa(rows: np.ndarray) -> float:
    """Team-level chance-corrected agreement; 1 when behaviour is unanimous."""
    s, n, correct = _label_counts(rows)
    p_bar = correct.sum() / (n * s)
    chance = n * (s - 1) * p_bar * (1.0 - p_bar)
    if chance == 0.0:
        return 1.0
    disagreement = float((correct * (s - correct)).sum()) / s
    return 1.0 - disagreement / chance


def kw_variance(rows: np.ndarray) -> float:
    """Variability of per-sample correctness across the team, in [0, 0.25]."""
    s, n, correct = _label_counts(rows)
    return float((correct * (s - correct)).sum()) / (n * s * s)


def generalized_diversity(rows: np.ndarray) -> float:
    """One minus the two-model joint-failure rate over the single-failure rate.

    Failure counts per sample give the empirical distribution p_i of
    "i of S models fail"; the score is 1 when the team never fails at all
    or no two members ever fail together, 0 when failures always strike
    the whole team in lockstep.
    """
    s, n, correct = _label_counts(rows)
    failures = s - correct
    counts = np.bincount(failures, minlength=s + 1)
    p = counts / n
    i = np.arange(s + 1)
    p1 = float((i / s * p).sum())
    if p1 == 0.0:
        return 1.0
    p2 = float((i * (i - 1) / (s * (s - 1)) * p).sum())
    return 1.0 - p2 / p1


_TEAM_FUNCS = {
    MetricId.FK: fleiss_kappa,
    MetricId.KW: kw_variance,
    MetricId.GD: generalized_diversity,
}


def raw_score(metric: MetricId, rows: np.ndarray) -> float:
    """Dispatch: raw metric value for a stack of team correctness rows."""
    if metric.pairwise:
        return pairwise_average(metric, rows)
    return _TEAM_FUNCS[metric](rows)


def normalize(metric: MetricId, raw: float) -> float:
    """Orient a raw value so that lower always means more diverse."""
    return 1.0 - raw if metric.flipped else raw


def diversity_score(metric: MetricId, team: EnsembleTeam, corr: CorrectnessMatrix,
                    neg: NegativeSampleSet) -> float:
    """Raw ``metric`` value of one team on ``neg``; ``normalize`` orients it."""
    if len(neg) == 0:
        raise EmptyNegativesError("cannot score diversity on an empty negative set")
    return raw_score(metric, corr.omega[np.asarray(team.members)][:, neg.indices])
