"""Ensemble selection: mean-threshold, focal-model rules, and fusion.

Three selection families operate on a candidate set:

* ``q_select`` scores every candidate on one shared negative-sample set
  and keeps teams strictly below the mean score.
* ``FocalScoreTable`` scores each team per member focal model on that
  focal's own negatives, into a K×M matrix (K candidates, M models) that
  is NaN where the focal is not a member or never errs.  A rule cell is
  a (focal, team size) pair with at least one candidate; ``rule_cells``
  lists them in (focal, size) order.  ``learn_fq_rules`` learns one
  cutoff per cell with a two-cluster 1-D split, and ``fq_select`` keeps
  teams whose per-focal scores clear the cutoffs (all / any / majority
  of the member focals, "all" by default).
* ``eq_fuse`` intersects several selected sets into an elite set.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .diversity import MetricId, diversity_score, normalize, raw_score
from .errors import DivselError, RuleCoverageError
from .pool import NUMBER, CorrectnessMatrix, dumps, json_typed, read_json
from .teaming import CandidateSet, EnsembleTeam

FQ_MODES = ("all", "any", "majority")
DEFAULT_EQ_METRICS = (MetricId.BD, MetricId.KW, MetricId.GD)


@dataclass(frozen=True, kw_only=True)
class SelectionRule:
    """A learned diversity cutoff (keep team when score < cutoff).

    ``focal``/``size`` are None for a global (mean-threshold) rule.
    ``keep_all`` marks a degenerate cell (fewer than two distinct scores)
    whose rule keeps everything regardless of the stored cutoff.  The
    fields are in the key order of the rules JSON.
    """

    metric: MetricId
    focal: int | None = None
    size: int | None = None
    cutoff: float
    keep_all: bool = False

    def __post_init__(self):
        if not np.isfinite(self.cutoff):
            raise ValueError(f"rule cutoff must be finite, got {self.cutoff}")


@dataclass(frozen=True)
class SelectedSet:
    """Rows of ``cands`` kept by a selection method, with their recorded scores;
    ``candidate_count`` is the number of candidates the method chose from."""

    method: str
    cands: CandidateSet
    rows: tuple[int, ...]
    scores: tuple[float, ...]
    candidate_count: int

    def __post_init__(self):
        if len(self.rows) != len(self.scores):
            raise ValueError("teams and scores must align")
        if self.candidate_count < len(self.rows):
            raise ValueError(f"more teams than the {self.candidate_count} candidates")
        if len(set(self.rows)) != len(self.rows):
            raise ValueError("duplicate teams in selected set")

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def teams(self) -> tuple[EnsembleTeam, ...]:
        return tuple(self.cands.teams[r] for r in self.rows)


def mean_threshold(scores) -> tuple[float, np.ndarray]:
    """Arithmetic-mean threshold and the strict below-mean keep mask."""
    scores = np.asarray(scores, dtype=np.float64)
    if scores.size == 0:
        raise DivselError("no scores to threshold")
    # the mean of identical values is that value; don't let float summation
    # nudge the threshold above it and select everything
    if scores.min() == scores.max():
        threshold = float(scores[0])
    else:
        threshold = float(scores.mean())
    return threshold, scores < threshold


def q_select(metric: MetricId, cands: CandidateSet, corr: CorrectnessMatrix,
             neg: np.ndarray) -> tuple[SelectedSet, SelectionRule]:
    """Mean-threshold selection over one shared negative-sample set.

    Every candidate is scored (normalized orientation), the threshold is
    the arithmetic mean of all scores, and exactly the teams scoring
    strictly below it are kept.
    """
    scores = normalize(metric, diversity_score(metric, cands.members, corr, neg))
    threshold, keep = mean_threshold(scores)
    selected = SelectedSet(method=f"q-{metric.value}", cands=cands,
                           rows=tuple(np.flatnonzero(keep).tolist()),
                           scores=tuple(scores[keep].tolist()), candidate_count=len(cands))
    rule = SelectionRule(metric=metric, cutoff=threshold)
    return selected, rule


@dataclass(frozen=True)
class TwoMeansSplit:
    """Binary partition of 1-D values: low cluster / high cluster."""

    cutoff: float
    low_mask: np.ndarray
    iterations: int


def two_means_split(values) -> TwoMeansSplit:
    """Split 1-D values into two clusters by Lloyd iteration.

    Centroids start at the minimum and maximum value, assignment ties go
    to the low cluster, and iteration stops once assignments stabilize
    (guaranteed within len(values) rounds).  The cutoff is the midpoint
    between the largest low-cluster value and the smallest high-cluster
    value.
    """
    xs = np.asarray(values, dtype=np.float64)
    if xs.size < 2 or not xs.min() < xs.max():  # NaN compares false
        raise ValueError("two_means_split needs at least 2 distinct values, none NaN")
    mid = (xs.min() + xs.max()) / 2.0
    low = xs <= mid
    iterations = 0
    for _ in range(xs.size):
        iterations += 1
        mid = (xs[low].mean() + xs[~low].mean()) / 2.0
        new_low = xs <= mid
        if np.array_equal(new_low, low):
            break
        low = new_low
    else:
        raise RuntimeError("1-D 2-means failed to stabilize")
    cutoff = (float(xs[low].max()) + float(xs[~low].min())) / 2.0
    return TwoMeansSplit(cutoff=cutoff, low_mask=low, iterations=iterations)


class FocalScoreTable:
    """Normalized scores of every candidate on each member focal's negatives.

    ``scores[k, f]`` (K×M float64) is candidate k's diversity on focal model
    f's negative samples; it is NaN where f is not in team k or never errs
    (f is absent from ``neg_sets``).  Column f comes from one ``raw_score``
    call over the candidates that contain f.
    """

    def __init__(self, metric: MetricId, cands: CandidateSet, corr: CorrectnessMatrix,
                 neg_sets: dict[int, np.ndarray]):
        self.neg_sets = neg_sets
        self.scores = np.full(cands.members.shape, np.nan)
        for focal, neg in neg_sets.items():
            has_focal = cands.members[:, focal]
            self.scores[has_focal, focal] = normalize(
                metric, raw_score(metric, corr.omega[:, neg], cands.members[has_focal]))


def rule_cells(cands: CandidateSet):
    """Yield (focal, size, mask) for each rule cell, in (focal, size) order;
    ``mask`` marks the candidates of that size that contain the focal model."""
    sizes = cands.members.sum(axis=1)
    for focal, has_focal in enumerate(cands.members.T):
        for size in sorted(set(sizes[has_focal].tolist())):
            yield focal, size, has_focal & (sizes == size)


def learn_fq_rules(metric: MetricId, cands: CandidateSet,
                   table: FocalScoreTable) -> list[SelectionRule]:
    """Learn one keep/prune cutoff per rule cell.

    Within a cell, the scores of all size-S candidates containing the
    focal model are split into a low (keep) and high (prune) cluster;
    the cutoff is the midpoint of the cluster gap.  Cells with fewer than
    two distinct scores (including focals that never err) become
    degenerate keep-all rules.
    """
    rules = []
    for focal, size, cell in rule_cells(cands):
        cell_scores = table.scores[cell, focal]
        cell_scores = cell_scores[~np.isnan(cell_scores)]
        if cell_scores.size > 1 and cell_scores.min() < cell_scores.max():
            cutoff, keep_all = two_means_split(cell_scores).cutoff, False
        else:  # the one score, or 0 when there is none, anchors a keep-all rule
            cutoff, keep_all = (float(cell_scores[0]) if cell_scores.size else 0.0), True
        rules.append(SelectionRule(metric=metric, cutoff=cutoff, focal=focal, size=size,
                                   keep_all=keep_all))
    return rules


def fq_select(metric: MetricId, cands: CandidateSet, rules,
              table: FocalScoreTable, mode: str = "all") -> SelectedSet:
    """Apply per-focal rules to the candidates.

    A team is kept when its per-focal scores pass the cutoff for all of
    its member focals ("all", default), at least one ("any"), or strictly
    more than half ("majority").  A focal with a degenerate rule or no
    score always votes keep.  The recorded team score is the mean over
    the member focals that have a score (0 when none has).
    """
    if mode not in FQ_MODES:
        raise ValueError(f"unknown fq mode {mode!r} (expected one of {FQ_MODES})")
    rule_of = {(r.focal, r.size): r for r in rules}
    keep = np.zeros(cands.members.shape, dtype=bool)
    for focal, size, cell in rule_cells(cands):
        rule = rule_of.get((focal, size))
        if rule is None:
            raise RuleCoverageError(f"no rule for focal {focal}, team size {size}")
        cell_scores = table.scores[cell, focal]
        keep[cell, focal] = rule.keep_all | np.isnan(cell_scores) | (cell_scores < rule.cutoff)
    votes, sizes = keep.sum(axis=1), cands.members.sum(axis=1)
    kept = {"all": votes == sizes, "any": votes >= 1, "majority": votes * 2 > sizes}[mode]
    kept_scores = []
    for row in table.scores[kept]:  # member scores in member order, NaN elsewhere
        scored = row[~np.isnan(row)]
        kept_scores.append(float(scored.mean()) if scored.size else 0.0)
    return SelectedSet(method=f"fq-{metric.value}-{mode}", cands=cands,
                       rows=tuple(np.flatnonzero(kept).tolist()), scores=tuple(kept_scores),
                       candidate_count=len(cands))


def eq_fuse(selected: list[SelectedSet]) -> SelectedSet:
    """Intersect selected sets into an elite set (scores averaged)."""
    if len(selected) < 2:
        raise DivselError("fusion needs at least 2 selected sets")
    first = selected[0]
    for other in selected[1:]:
        if other.cands != first.cands or other.candidate_count != first.candidate_count:
            raise DivselError("fused sets must come from the same candidate set")
    score_maps = [dict(zip(s.rows, s.scores)) for s in selected]
    rows = tuple(r for r in first.rows if all(r in m for m in score_maps[1:]))
    scores = tuple(float(np.mean([m[r] for m in score_maps])) for r in rows)
    label = "+".join(s.method for s in selected)
    return SelectedSet(method=f"eq({label})", cands=first.cands, rows=rows, scores=scores,
                       candidate_count=first.candidate_count)


def rules_to_json(rules) -> str:
    """Serialize rules as a JSON array of {metric, focal, size, cutoff, keep_all} records."""
    return dumps([asdict(r) for r in rules])


def _rule_from_dict(rec) -> SelectionRule:
    json_typed(rec, dict, "a rule")
    return SelectionRule(
        metric=MetricId.parse(json_typed(rec["metric"], str, "'metric'")),
        focal=json_typed(rec.get("focal"), int, "'focal'"),
        size=json_typed(rec.get("size"), int, "'size'"),
        cutoff=float(json_typed(rec["cutoff"], NUMBER, "'cutoff'")),
        keep_all=json_typed(rec.get("keep_all", False), bool, "'keep_all'"),
    )


def load_rules(path: str | Path, metric: MetricId, pool_size: int) -> list[SelectionRule]:
    """The stored fq rules in ``path``: each is for ``metric``, names a focal model of
    a pool of ``pool_size`` models and a team size in 2..``pool_size``, and no two
    share a (focal, size) cell."""
    rules = read_json(path, "rules JSON", lambda records: [
        _rule_from_dict(rec) for rec in json_typed(records, list, "the rules")], DivselError)
    for r in rules:
        if r.metric is not metric:
            raise DivselError(f"rules are for metric {r.metric.value}, not {metric.value}")
        if not 0 <= r.focal < pool_size:
            raise DivselError(f"rule focal {r.focal} is outside the pool of "
                              f"{pool_size} models")
    cells = set()
    for r in rules:  # after the focal check, so a rule of another pool is named as such
        if not 2 <= r.size <= pool_size:
            raise DivselError(f"rule team size {r.size} is outside 2..{pool_size}")
        if (r.focal, r.size) in cells:
            raise DivselError(f"two rules for focal {r.focal}, team size {r.size}")
        cells.add((r.focal, r.size))
    return rules
