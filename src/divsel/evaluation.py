"""Quality evaluation of teams and aggregate reports over team sets.

A team beats its members when its consensus accuracy is >= the best
member accuracy (m_max), and beats the pool when it is >= the best
accuracy of any model in the whole pool (p_max).  Set reports aggregate
accuracy range, mean, population standard deviation and the counts and
fractions of teams clearing each bar.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .consensus import ConsensusMethod, ensemble_accuracy, predict
from .parallel import parallel_map
from .pool import CorrectnessMatrix, PredictionPool
from .teaming import EnsembleTeam


@dataclass(frozen=True)
class TeamEvaluation:
    """One team (by key) against its best member and the pool; the fields,
    in order, are the keys of its JSON record."""

    team: str
    size: int
    ensemble_accuracy: float
    member_max_accuracy: float
    member_max_id: int
    pool_max_accuracy: float
    improvement: float
    beats_members: bool
    beats_pool: bool


@dataclass(frozen=True)
class SetReport:
    """Aggregate statistics of one evaluated team set.

    Accuracy fields are fractions in [0, 1] at full precision; the
    ``pct_*`` fields hold count/len(set) fractions.  Rounding to the
    2-decimal percent presentation happens only when rendering.  The
    fields, in order, are the keys of the report's JSON record.
    """

    method: str
    num_candidates: int
    num_selected: int
    acc_min: float | None
    acc_max: float | None
    acc_mean: float | None
    acc_std: float | None
    pool_max_accuracy: float
    num_beats_members: int
    pct_beats_members: float
    num_beats_pool: int
    pct_beats_pool: float
    best_team: str | None
    best_accuracy: float | None


def evaluate_team(team: EnsembleTeam, pool: PredictionPool, corr: CorrectnessMatrix,
                  method: ConsensusMethod) -> TeamEvaluation:
    """Consensus accuracy of one team, compared with its best member and the pool."""
    accuracy = ensemble_accuracy(predict(team, pool, method), pool.labels)
    member_accs = corr.accuracies[np.asarray(team.members)]
    best_pos = int(member_accs.argmax())
    m_max = float(member_accs[best_pos])
    p_max = float(corr.accuracies.max())
    return TeamEvaluation(
        team=team.key,
        size=team.size,
        ensemble_accuracy=accuracy,
        member_max_accuracy=m_max,
        member_max_id=team.members[best_pos],
        pool_max_accuracy=p_max,
        improvement=accuracy - m_max,
        beats_members=accuracy >= m_max,
        beats_pool=accuracy >= p_max,
    )


def evaluate_teams(teams, pool: PredictionPool, corr: CorrectnessMatrix,
                   method: ConsensusMethod, threads: int = 1) -> list[TeamEvaluation]:
    """Evaluate each team once, in input order whatever the thread count."""
    return parallel_map(lambda t: evaluate_team(t, pool, corr, method), teams,
                        threads=threads)


def summarize(method_label: str, evals, num_candidates: int,
              pool_max_accuracy: float) -> SetReport:
    """Reduce per-team evaluations to a SetReport."""
    evals = list(evals)
    count = len(evals)
    if count == 0:
        return SetReport(
            method=method_label, num_candidates=num_candidates, num_selected=0,
            acc_min=None, acc_max=None, acc_mean=None, acc_std=None,
            pool_max_accuracy=pool_max_accuracy,
            num_beats_members=0, pct_beats_members=0.0,
            num_beats_pool=0, pct_beats_pool=0.0,
            best_team=None, best_accuracy=None,
        )
    accs = np.array([e.ensemble_accuracy for e in evals])
    n_members = sum(e.beats_members for e in evals)
    n_pool = sum(e.beats_pool for e in evals)
    best_acc = float(accs.max())
    # deterministic tie-break: smallest canonical team string among the best
    best_team = min(e.team for e in evals if e.ensemble_accuracy == best_acc)
    return SetReport(
        method=method_label,
        num_candidates=num_candidates,
        num_selected=count,
        acc_min=float(accs.min()),
        acc_max=best_acc,
        acc_mean=float(accs.mean()),
        acc_std=float(accs.std()),
        pool_max_accuracy=pool_max_accuracy,
        num_beats_members=int(n_members),
        pct_beats_members=n_members / count,
        num_beats_pool=int(n_pool),
        pct_beats_pool=n_pool / count,
        best_team=best_team,
        best_accuracy=best_acc,
    )


def evaluate_set(teams, pool: PredictionPool, corr: CorrectnessMatrix,
                 method: ConsensusMethod, label: str,
                 candidate_count: int | None = None, threads: int = 1) -> SetReport:
    """Evaluate a team set end to end and aggregate it."""
    evals = evaluate_teams(teams, pool, corr, method, threads=threads)
    return summarize(label, evals,
                     candidate_count if candidate_count is not None else len(evals),
                     float(corr.accuracies.max()))
