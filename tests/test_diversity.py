import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from divsel.diversity import (MetricId, agreement_counts, binary_disagreement,
                              cohens_kappa, diversity_score, normalize, pairwise_average,
                              q_statistics, raw_score)
from divsel.errors import EmptyNegativesError
from divsel.pool import CorrectnessMatrix, correctness
from divsel.sampling import focal_negative_sets, sample_subset
from divsel.selection import FocalScoreTable
from divsel.synth import CorrelationGroup, SynthConfig, generate_pool
from divsel.teaming import CandidateSet, enumerate_teams

from conftest import FIXTURE_WI, FIXTURE_WJ, team, team_score
from oracles import o_normalized, o_pair_counts, o_raw

TOL = 1e-12


def corr_from(rows):
    omega = np.asarray(rows, dtype=np.uint8)
    return CorrectnessMatrix(omega=omega, accuracies=omega.mean(axis=1))


# ------------------------------------------------------------- pair counts

def pair_counts(wi, wj):
    """(n11, n10, n01, n00) of one pair, read off the team count kernel."""
    return tuple(int(c[0]) for c in agreement_counts([wi, wj]))


def pair(metric_fn, wi, wj):
    return metric_fn(*agreement_counts([wi, wj])).item()


def test_pair_counts_fixture():
    pc = pair_counts(FIXTURE_WI, FIXTURE_WJ)
    assert pc == (5, 2, 1, 2)
    assert sum(pc) == 10


def test_pair_counts_identical():
    w = [1] * 7 + [0] * 3
    assert pair_counts(w, w) == (7, 0, 0, 3)


def test_pair_counts_opposite():
    assert pair_counts([1, 1, 1, 1], [0, 0, 0, 0]) == (0, 4, 0, 0)


def test_pair_counts_errors():
    with pytest.raises(ValueError):
        pair_counts([1, 0], [1])
    with pytest.raises(ValueError):
        pair_counts([], [])


def test_agreement_counts_in_pair_order():
    rows = np.array([[1, 1, 0, 0], [1, 0, 1, 0], [0, 0, 0, 1]])
    counts = np.stack(agreement_counts(rows), axis=1)
    expected = [o_pair_counts(rows[i].tolist(), rows[j].tolist())
                for i, j in ((0, 1), (0, 2), (1, 2))]
    assert counts.tolist() == [list(c) for c in expected]


# ------------------------------------------------------- pairwise metrics

def test_cohens_kappa_fixture():
    assert pair(cohens_kappa, FIXTURE_WI, FIXTURE_WJ) == pytest.approx(16 / 45)


def test_cohens_kappa_perfect_agreement():
    w = [1] * 7 + [0] * 3
    assert pair(cohens_kappa, w, w) == 1.0


def test_cohens_kappa_degenerate_returns_zero():
    assert pair(cohens_kappa, [1, 1, 1, 1], [0, 0, 0, 0]) == 0.0


def test_q_statistics_values():
    assert pair(q_statistics, FIXTURE_WI, FIXTURE_WJ) == pytest.approx(2 / 3)
    w = [1] * 7 + [0] * 3
    assert pair(q_statistics, w, w) == 1.0
    assert pair(q_statistics, [1, 1, 0, 0], [0, 0, 1, 1]) == -1.0


def test_binary_disagreement_values():
    assert pair(binary_disagreement, FIXTURE_WI, FIXTURE_WJ) == pytest.approx(0.3)
    w = [1] * 7 + [0] * 3
    assert pair(binary_disagreement, w, w) == 0.0
    assert pair(binary_disagreement, [1, 1, 0, 0], [0, 0, 1, 1]) == 1.0


def test_pairwise_average_single_pair_and_identical_rows():
    rows = np.array([FIXTURE_WI, FIXTURE_WJ])
    assert pairwise_average(MetricId.CK, rows) == pytest.approx(16 / 45)
    same = np.array([[1, 0, 1], [1, 0, 1], [1, 0, 1]])
    assert pairwise_average(MetricId.CK, same) == 1.0


def test_pairwise_average_matches_pair_loop_oracle():
    rng = np.random.default_rng(17)
    rows = rng.integers(0, 2, size=(3, 20))
    for metric in (MetricId.CK, MetricId.QS, MetricId.BD):
        assert pairwise_average(metric, rows) == pytest.approx(
            o_raw(metric.value, rows.tolist()), abs=TOL)


# ---------------------------------------------------- non-pairwise metrics

# Slow reference: the one-team closed forms, summing one team's rows at a time.
# The batch kernel in raw_score must equal them bit for bit.

def _label_counts(rows: np.ndarray) -> tuple[int, int, np.ndarray]:
    rows = np.asarray(rows, dtype=np.int64)
    s, n = rows.shape
    return s, n, rows.sum(axis=0)


def fleiss_kappa(rows: np.ndarray) -> float:
    s, n, correct = _label_counts(rows)
    p_bar = correct.sum() / (n * s)
    chance = n * (s - 1) * p_bar * (1.0 - p_bar)
    if chance == 0.0:
        return 1.0
    disagreement = float((correct * (s - correct)).sum()) / s
    return 1.0 - disagreement / chance


def kw_variance(rows: np.ndarray) -> float:
    s, n, correct = _label_counts(rows)
    return float((correct * (s - correct)).sum()) / (n * s * s)


def generalized_diversity(rows: np.ndarray) -> float:
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


REFERENCE = {MetricId.FK: fleiss_kappa, MetricId.KW: kw_variance,
             MetricId.GD: generalized_diversity}


def reference_score(metric, rows):
    return (pairwise_average(metric, rows) if metric.pairwise
            else REFERENCE[metric](rows))


def test_fleiss_kappa_fixture():
    rows = np.array([FIXTURE_WI, FIXTURE_WJ])
    expected = 1.0 - 1.5 / (10 * 1 * 0.65 * 0.35)
    assert team_score(MetricId.FK, rows) == pytest.approx(expected)
    assert team_score(MetricId.FK, rows) == pytest.approx(0.34066, abs=1e-5)


def test_fleiss_kappa_degenerate_returns_one():
    assert team_score(MetricId.FK, np.ones((3, 5), dtype=np.uint8)) == 1.0
    assert team_score(MetricId.FK, np.zeros((3, 5), dtype=np.uint8)) == 1.0


def test_fleiss_kappa_differs_from_averaged_cohens_kappa():
    rows = np.array([FIXTURE_WI, FIXTURE_WJ])
    fk = team_score(MetricId.FK, rows)
    ck = pairwise_average(MetricId.CK, rows)
    assert abs(fk - ck) > 0.01


def test_kw_variance_values():
    rows = np.array([FIXTURE_WI, FIXTURE_WJ])
    assert team_score(MetricId.KW, rows) == pytest.approx(0.075)
    same = np.array([[1, 0, 1], [1, 0, 1]])
    assert team_score(MetricId.KW, same) == 0.0
    flip = np.array([[1, 0, 1, 0], [0, 1, 0, 1]])
    assert team_score(MetricId.KW, flip) == pytest.approx(0.25)


def test_generalized_diversity_values():
    rows = np.array([FIXTURE_WI, FIXTURE_WJ])
    assert team_score(MetricId.GD, rows) == pytest.approx(1 - 0.2 / 0.35)
    # two models never failing together
    never = np.array([[1, 0, 1, 1], [1, 1, 0, 1]])
    assert team_score(MetricId.GD, never) == 1.0
    # identical rows with failures fail in lockstep
    same = np.array([[1, 0, 1, 0], [1, 0, 1, 0]])
    assert team_score(MetricId.GD, same) == 0.0


@pytest.mark.parametrize("metric", [MetricId.FK, MetricId.KW, MetricId.GD])
def test_team_metric_refuses_single_member_team(metric):
    block = np.ones((3, 4), dtype=np.uint8)
    with pytest.raises(ValueError, match="need at least 2 rows, got 1"):
        raw_score(metric, block, np.array([[True, True, False], [False, True, False]]))


@pytest.mark.parametrize("metric", [MetricId.FK, MetricId.KW, MetricId.GD])
def test_team_metric_refuses_empty_block(metric):
    block = np.ones((3, 0), dtype=np.uint8)
    with pytest.raises(ValueError, match="empty correctness vectors"):
        raw_score(metric, block, np.array([[True, True, False]]))


def test_focal_score_table_team_metrics_equal_reference():
    cfg = SynthConfig(num_models=8, num_samples=1500, num_classes=10,
                      accuracies=(0.95, 0.92, 0.9, 0.88, 0.86, 0.84, 0.8, 0.75),
                      groups=(CorrelationGroup((0, 1), 0.8), CorrelationGroup((4, 5, 6), 0.8)),
                      seed=11)
    corr = correctness(generate_pool(cfg))
    cands = enumerate_teams(8)
    neg_sets = focal_negative_sets(corr, 100, 11)
    for metric in REFERENCE:
        expected = np.full(cands.members.shape, np.nan)
        for f, neg in neg_sets.items():
            for k in np.flatnonzero(cands.members[:, f]):
                expected[k, f] = normalize(
                    metric, REFERENCE[metric](corr.omega[cands.members[k]][:, neg]))
        table = FocalScoreTable(metric, cands, corr, neg_sets)
        assert np.array_equal(table.scores, expected, equal_nan=True), metric


# ------------------------------------------------------------- properties

def _random_instances(count, max_s=4, max_n=30, seed=1234):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        s = int(rng.integers(2, max_s + 1))
        n = int(rng.integers(1, max_n + 1))
        yield rng.integers(0, 2, size=(s, n))


def test_oracle_equivalence_200_instances():
    for rows in _random_instances(200):
        listed = rows.tolist()
        for metric in MetricId:
            assert team_score(metric, rows) == pytest.approx(
                o_raw(metric.value, listed), abs=TOL), (metric, listed)


@st.composite
def team_rows(draw):
    """Correctness rows of a team of 2-16, random or degenerate."""
    s = draw(st.integers(2, 16))
    n = draw(st.integers(1, 40))
    kind = draw(st.sampled_from(["random", "all correct", "all wrong", "identical"]))
    bits = st.lists(st.integers(0, 1), min_size=n, max_size=n)
    if kind == "random":
        return [draw(bits) for _ in range(s)]
    if kind == "identical":
        return [draw(bits)] * s
    return [[int(kind == "all correct")] * n] * s


@st.composite
def teams_on_block(draw):
    """One correctness block of 2-16 models and 0-9 teams of mixed sizes on it,
    as membership rows in shuffled order, some of them duplicates; one team
    is the whole block unless there are none."""
    rows = draw(team_rows())
    if draw(st.integers(0, 9)) == 0:
        return rows, []
    subsets = draw(st.lists(st.sets(st.integers(0, len(rows) - 1), min_size=2),
                            max_size=5))
    teams = [[True] * len(rows)] + [[f in s for f in range(len(rows))] for s in subsets]
    teams += draw(st.lists(st.sampled_from(teams), max_size=3))
    return rows, draw(st.permutations(teams))


_BIG = np.random.default_rng(40).integers(0, 2, size=(40, 50))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=teams_on_block())
@example(case=([[1], [0]], [[True, True]]))
@example(case=([[0]] * 12, [[True] * 12, [True, False] * 6]))
@example(case=([[1, 1, 1]] * 4, [[True] * 4, [False, True, True, False]]))
@example(case=([[1, 0, 1]] * 12, [[True] * 12]))
@example(case=([[1, 0, 1, 1], [0, 0, 1, 1], [1, 1, 0, 1]],
               [[True] * 3, [True, True, False], [False, True, True], [True, False, True]]))
@example(case=([[1, 0, 1]] * 3, []))
# a 40-member team: counts and products C·(40−C) outgrow uint8
@example(case=(_BIG.tolist(), [[True] * 20 + [False] * 20, [True] * 40,
                               [True, False] * 20, [True] * 40]))
def test_raw_score_matches_oracle(case):
    rows, teams = case
    block = np.array(rows, dtype=np.uint8)
    members = np.array(teams, dtype=bool).reshape(-1, len(rows))
    for metric in MetricId:
        scores = raw_score(metric, block, members)
        assert scores.shape == (len(teams),)
        for score, row in zip(scores, members):
            assert score == pytest.approx(o_raw(metric.value, block[row].tolist()),
                                          abs=TOL), metric
            assert score == reference_score(metric, block[row]), metric


def test_pairwise_symmetry():
    for rows in _random_instances(50, max_s=2):
        swapped = rows[::-1]
        for metric in (MetricId.CK, MetricId.QS, MetricId.BD):
            assert team_score(metric, rows) == pytest.approx(
                team_score(metric, swapped), abs=TOL)


def test_permutation_invariance():
    rng = np.random.default_rng(77)
    for rows in _random_instances(30, seed=4321):
        member_perm = rng.permutation(rows.shape[0])
        sample_perm = rng.permutation(rows.shape[1])
        shuffled = rows[member_perm][:, sample_perm]
        for metric in MetricId:
            assert team_score(metric, rows) == pytest.approx(
                team_score(metric, shuffled), abs=TOL)


def test_metric_bounds():
    for rows in _random_instances(100, seed=999):
        ck = team_score(MetricId.CK, rows)
        qs = team_score(MetricId.QS, rows)
        bd = team_score(MetricId.BD, rows)
        gd = team_score(MetricId.GD, rows)
        kw = team_score(MetricId.KW, rows)
        fk = team_score(MetricId.FK, rows)
        assert -1.0 - TOL <= ck <= 1.0 + TOL
        assert -1.0 - TOL <= qs <= 1.0 + TOL
        assert -TOL <= bd <= 1.0 + TOL
        assert -TOL <= gd <= 1.0 + TOL
        assert -TOL <= kw <= 0.25 + TOL
        assert fk <= 1.0 + TOL


def test_duplicate_rows_give_extreme_scores():
    row = np.array([1, 1, 0, 1, 0, 1])
    rows = np.stack([row, row, row])
    assert team_score(MetricId.CK, rows) == 1.0
    assert team_score(MetricId.QS, rows) == 1.0
    assert team_score(MetricId.FK, rows) == pytest.approx(1.0, abs=TOL)
    assert team_score(MetricId.BD, rows) == 0.0
    assert team_score(MetricId.KW, rows) == 0.0
    assert team_score(MetricId.GD, rows) == 0.0
    for metric in MetricId:
        assert o_normalized(metric.value, rows.tolist()) == pytest.approx(1.0, abs=TOL)


# --------------------------------------------------------- diversity_score

def test_diversity_score_normalization():
    corr = corr_from([FIXTURE_WI, FIXTURE_WJ])
    neg = sample_subset(np.arange(10), 10, seed=0)
    t = CandidateSet.of([team(0, 1)], 2).members
    [bd] = diversity_score(MetricId.BD, t, corr, neg)
    assert bd == pytest.approx(0.3)
    assert normalize(MetricId.BD, bd) == pytest.approx(0.7)
    [gd] = diversity_score(MetricId.GD, t, corr, neg)
    assert normalize(MetricId.GD, gd) == pytest.approx(1 - 3 / 7)
    [ck] = diversity_score(MetricId.CK, t, corr, neg)
    assert normalize(MetricId.CK, ck) == ck == pytest.approx(16 / 45)


def test_diversity_score_restricts_to_negative_columns():
    corr = corr_from([FIXTURE_WI, FIXTURE_WJ])
    neg = sample_subset(np.array([1, 4, 5, 7, 8]), 10, seed=0)
    [score] = diversity_score(MetricId.BD, CandidateSet.of([team(0, 1)], 2).members, corr,
                              neg)
    # on {1,4,5,7,8} the rows are [1,0,0,0,1] and [0,1,0,0,0]: 3 of 5 differ
    assert score == pytest.approx(3 / 5)


def test_diversity_score_empty_negatives():
    corr = corr_from([FIXTURE_WI, FIXTURE_WJ])
    empty = np.array([], dtype=np.int64)
    with pytest.raises(EmptyNegativesError):
        diversity_score(MetricId.BD, CandidateSet.of([team(0, 1)], 2).members, corr, empty)


def test_metric_parse():
    assert MetricId.parse("GD") is MetricId.GD
    assert MetricId.parse(" ck ") is MetricId.CK
    with pytest.raises(ValueError):
        MetricId.parse("nope")
