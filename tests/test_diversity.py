import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from divsel.diversity import (MetricId, agreement_counts, binary_disagreement,
                              cohens_kappa, diversity_score, fleiss_kappa,
                              generalized_diversity, kw_variance, normalize,
                              pairwise_average, q_statistics, raw_score)
from divsel.errors import EmptyNegativesError
from divsel.pool import CorrectnessMatrix
from divsel.sampling import sample_subset
from divsel.teaming import CandidateSet, team

from conftest import FIXTURE_WI, FIXTURE_WJ, team_score
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

def test_fleiss_kappa_fixture():
    rows = np.array([FIXTURE_WI, FIXTURE_WJ])
    expected = 1.0 - 1.5 / (10 * 1 * 0.65 * 0.35)
    assert fleiss_kappa(rows) == pytest.approx(expected)
    assert fleiss_kappa(rows) == pytest.approx(0.34066, abs=1e-5)


def test_fleiss_kappa_degenerate_returns_one():
    assert fleiss_kappa(np.ones((3, 5), dtype=np.uint8)) == 1.0
    assert fleiss_kappa(np.zeros((3, 5), dtype=np.uint8)) == 1.0


def test_fleiss_kappa_differs_from_averaged_cohens_kappa():
    rows = np.array([FIXTURE_WI, FIXTURE_WJ])
    fk = fleiss_kappa(rows)
    ck = pairwise_average(MetricId.CK, rows)
    assert abs(fk - ck) > 0.01


def test_kw_variance_values():
    rows = np.array([FIXTURE_WI, FIXTURE_WJ])
    assert kw_variance(rows) == pytest.approx(0.075)
    same = np.array([[1, 0, 1], [1, 0, 1]])
    assert kw_variance(same) == 0.0
    flip = np.array([[1, 0, 1, 0], [0, 1, 0, 1]])
    assert kw_variance(flip) == pytest.approx(0.25)


def test_generalized_diversity_values():
    rows = np.array([FIXTURE_WI, FIXTURE_WJ])
    assert generalized_diversity(rows) == pytest.approx(1 - 0.2 / 0.35)
    # two models never failing together
    never = np.array([[1, 0, 1, 1], [1, 1, 0, 1]])
    assert generalized_diversity(never) == 1.0
    # identical rows with failures fail in lockstep
    same = np.array([[1, 0, 1, 0], [1, 0, 1, 0]])
    assert generalized_diversity(same) == 0.0


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
    """Correctness rows of a team of 2-12, random or degenerate."""
    s = draw(st.integers(2, 12))
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
    """One correctness block of 2-12 models and 1-6 teams of mixed sizes on it,
    as membership rows; the first team is the whole block."""
    rows = draw(team_rows())
    subsets = draw(st.lists(st.sets(st.integers(0, len(rows) - 1), min_size=2),
                            max_size=5))
    return rows, [[True] * len(rows)] + [[f in s for f in range(len(rows))]
                                         for s in subsets]


CLOSED_FORMS = {MetricId.FK: fleiss_kappa, MetricId.KW: kw_variance,
                MetricId.GD: generalized_diversity}


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=teams_on_block())
@example(case=([[1], [0]], [[True, True]]))
@example(case=([[0]] * 12, [[True] * 12, [True, False] * 6]))
@example(case=([[1, 1, 1]] * 4, [[True] * 4, [False, True, True, False]]))
@example(case=([[1, 0, 1]] * 12, [[True] * 12]))
@example(case=([[1, 0, 1, 1], [0, 0, 1, 1], [1, 1, 0, 1]],
               [[True] * 3, [True, True, False], [False, True, True], [True, False, True]]))
def test_raw_score_matches_oracle(case):
    rows, teams = case
    block = np.array(rows, dtype=np.uint8)
    members = np.array(teams, dtype=bool)
    for metric in MetricId:
        scores = raw_score(metric, block, members)
        assert scores.shape == (len(teams),)
        for score, row in zip(scores, members):
            assert score == pytest.approx(o_raw(metric.value, block[row].tolist()),
                                          abs=TOL), metric
            closed = (pairwise_average(metric, block[row]) if metric.pairwise
                      else CLOSED_FORMS[metric](block[row]))
            assert score == closed, metric


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
