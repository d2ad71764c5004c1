"""Quality evaluation of teams and aggregate reports over team sets.

A team beats its members when its consensus accuracy is >= the best
member accuracy (m_max), and beats the pool when it is >= the best
accuracy of any model in the whole pool (p_max).  Set reports aggregate
accuracy range, mean, population standard deviation and the counts and
fractions of teams clearing each bar.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .consensus import ConsensusMethod, _member_probs, ensemble_accuracy, predict
from .pool import CorrectnessMatrix, PredictionPool
from .teaming import CandidateSet

# samples per walk of the prefix trie: at M=10, C=10, walks of 2,048 samples
# were 0.08 s faster but added 0.9 MB to the peak memory of `recommend`
CHUNK = 1024


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


def parallel_map(fn, items, threads: int = 1) -> list:
    """``fn`` of each item, in input order whatever the thread count, so a pure
    per-item function gives output independent of ``threads``."""
    items = list(items)
    if threads <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def _vote_right(votes: np.ndarray, true_at: np.ndarray, y: np.ndarray, size: int,
                soft: bool) -> int:
    """Samples whose true class wins ``predict``'s vote on the class-major sums
    ``votes`` (C x n) of ``size`` members; ``true_at`` indexes the true classes
    in ``votes`` flattened, and ``votes`` is left as it was."""
    flat = votes.reshape(-1)
    t = flat[true_at]
    flat[true_at] = -np.inf if soft else -1
    o = np.maximum.reduce(votes, axis=0)
    flat[true_at] = t
    if soft:  # predict divides by S, which can tie two sums; max(x)/S == max(x/S)
        t, o = t / size, o / size
    right = np.count_nonzero(t > o)
    tie = np.flatnonzero(t == o)
    if tie.size:  # predict's own rule on the tied samples: the lowest class wins
        q = votes[:, tie] / size if soft else votes[:, tie]
        right += np.count_nonzero((q == q.max(axis=0)).argmax(axis=0) == y[tie])
    return int(right)


def _correct_counts(cands: CandidateSet, pool: PredictionPool, corr: CorrectnessMatrix,
                    kind: str) -> np.ndarray:
    """Samples each candidate's soft, plurality or majority vote gets right.

    One depth-first walk of the candidates' prefix trie per chunk of samples:
    level d holds the sum of a team's first d members' rows, level 0 zeros,
    so teams that share a prefix share its adds.  Soft adds probabilities in
    member order, as ``predict`` does, so the sums are bit-identical;
    plurality adds one-hot votes; majority adds correctness rows, and a
    sample is right exactly when more than half the members are.
    """
    if kind == "soft":
        lacking = (cands.members & ~pool.has_probs).any(axis=1)
        if lacking.any():  # predict's error, for the first such candidate
            _member_probs(cands.teams[int(lacking.argmax())], pool, "soft voting")
    walk = sorted({t.members for t in cands.teams})  # a prefix sorts first
    # the level from which each team's sums differ from the previous team's
    starts = [next((d for d, (a, b) in enumerate(zip(p, t)) if a != b), len(p))
              for p, t in zip([()] + walk, walk)]
    n, width = pool.num_samples, 1 if kind == "majority" else pool.num_classes
    levels = 1 + max(map(len, walk), default=0)
    # every chunk's levels are a C-contiguous view of one allocation, so that
    # even in a shorter last chunk, _vote_right's flattened votes are a view
    store = np.empty(levels * width * min(n, CHUNK), np.float64 if kind == "soft" else np.int32)
    right = [0] * len(walk)
    for lo in range(0, n, CHUNK):
        y = pool.labels[lo:lo + CHUNK]
        w = len(y)
        if kind == "soft":
            rows = pool.probs[:, :, lo:lo + w]
        elif kind == "plurality":
            rows = pool.preds[:, None, lo:lo + w] == np.arange(width)[:, None]
        else:
            rows = corr.omega[:, None, lo:lo + w]
        buf = store[:levels * width * w].reshape(levels, width, w)
        buf[0] = 0
        true_at = y * w + np.arange(w)
        for j, (start, team) in enumerate(zip(starts, walk)):
            for d in range(start, len(team)):
                np.add(buf[d], rows[team[d]], out=buf[d + 1])
            size = len(team)
            right[j] += (np.count_nonzero(buf[size] > size // 2) if kind == "majority"
                         else _vote_right(buf[size], true_at, y, size, kind == "soft"))
    index = {team: j for j, team in enumerate(walk)}
    return np.array(right, dtype=np.int64)[[index[t.members] for t in cands.teams]]


def evaluate_teams(cands: CandidateSet, pool: PredictionPool, corr: CorrectnessMatrix,
                   method: ConsensusMethod, threads: int = 1) -> list[TeamEvaluation]:
    """Each candidate's consensus accuracy against its best member (the first
    in member order among equals) and the pool, in candidate order.  Only
    boosting, whose weights depend on the whole team, votes team by team
    through ``predict``, on ``threads`` threads."""
    if method.kind == "boosting":
        accs = parallel_map(lambda t: ensemble_accuracy(predict(t, pool, method), pool.labels),
                            cands.teams, threads=threads)
    else:
        accs = (_correct_counts(cands, pool, corr, method.kind) / pool.num_samples).tolist()
    member_accs = np.where(cands.members, corr.accuracies, -np.inf)
    p_max = float(corr.accuracies.max())
    return [TeamEvaluation(t.key, t.size, a, m, i, p_max, a - m, a >= m, a >= p_max)
            for t, a, m, i in zip(cands.teams, accs, member_accs.max(axis=1).tolist(),
                                  member_accs.argmax(axis=1).tolist())]


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
    evals = evaluate_teams(CandidateSet.of(teams, pool.num_models), pool, corr, method,
                           threads=threads)
    return summarize(label, evals,
                     candidate_count if candidate_count is not None else len(evals),
                     float(corr.accuracies.max()))
