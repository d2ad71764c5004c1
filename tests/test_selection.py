import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divsel.diversity import MetricId, normalize
from divsel.errors import DivselError, RuleCoverageError
from divsel.pool import CorrectnessMatrix, correctness
from divsel.sampling import focal_negative_sets, sample_subset
from divsel.selection import (DEFAULT_EQ_METRICS, FQ_MODES, FocalScoreTable, SelectedSet,
                              SelectionRule, eq_fuse, fq_select, learn_fq_rules,
                              load_rules, mean_threshold, q_select, rules_to_json,
                              two_means_split)
from divsel.synth import CorrelationGroup, SynthConfig, generate_pool
from divsel.teaming import enumerate_teams

from conftest import team_score
from oracles import o_eq_fuse, o_fq_rules, o_fq_select, o_normalized


def keys_of(selected) -> set[str]:
    return {t.key for t in selected.teams}


def corr_from(rows):
    omega = np.asarray(rows, dtype=np.uint8)
    return CorrectnessMatrix(omega=omega, accuracies=omega.mean(axis=1))


class StubScores:
    """Score table driven by an explicit (focal, members) -> score map;
    a focal the map lacks has no score (NaN), like a model that never errs."""

    def __init__(self, cands, mapping):
        self.scores = np.full(cands.members.shape, np.nan)
        for k, t in enumerate(cands):
            for f in t.members:
                self.scores[k, f] = mapping.get((f, t.members), np.nan)


# ---------------------------------------------------------- mean threshold

def test_mean_threshold_example():
    threshold, keep = mean_threshold([0.1, 0.2, 0.6])
    assert threshold == pytest.approx(0.3)
    assert keep.tolist() == [True, True, False]


def test_mean_threshold_all_equal_selects_nothing():
    _, keep = mean_threshold([0.4, 0.4, 0.4])
    assert not keep.any()


def test_q_select_identical_models_selects_nothing():
    corr = corr_from([[1, 0, 1, 0, 1]] * 3)
    neg = sample_subset(np.array([1, 3]), 10, seed=0)
    selected, rule = q_select(MetricId.BD, enumerate_teams(3), corr, neg)
    assert len(selected) == 0
    assert rule.cutoff == pytest.approx(1.0)  # all normalized BD scores are 1


def test_q_select_oracle_on_1013_team_pool():
    cfg = SynthConfig(num_models=10, num_samples=2000, num_classes=10,
                      accuracies=(0.95, 0.94, 0.93, 0.92, 0.91, 0.90,
                                  0.89, 0.88, 0.87, 0.86),
                      seed=101)
    pool = generate_pool(cfg)
    corr = correctness(pool)
    cands = enumerate_teams(10)
    from divsel.sampling import negatives_any
    neg = sample_subset(negatives_any(corr), 100, seed=101)
    selected, rule = q_select(MetricId.GD, cands, corr, neg)

    # independent second pass: oracle scores, python mean, strict filter
    omega_neg = corr.omega[:, neg]
    oracle_scores = [
        o_normalized("gd", omega_neg[np.asarray(t.members)].tolist()) for t in cands
    ]
    theta = sum(oracle_scores) / len(oracle_scores)
    oracle_keys = {t.key for t, s in zip(cands.teams, oracle_scores) if s < theta}
    assert keys_of(selected) == oracle_keys
    assert len(selected) == len(oracle_keys)
    assert rule.cutoff == pytest.approx(theta, abs=1e-12)
    # every kept score below the threshold, every dropped score at or above
    kept = set(keys_of(selected))
    for t, s in zip(cands.teams, oracle_scores):
        if t.key in kept:
            assert s < theta
        else:
            assert s >= theta


# ------------------------------------------------------------ 1-D 2-means

def test_two_means_example():
    split = two_means_split([0.1, 0.12, 0.5, 0.55])
    assert split.cutoff == pytest.approx(0.31)
    assert split.low_mask.tolist() == [True, True, False, False]


def test_two_means_two_points():
    assert two_means_split([0.0, 1.0]).cutoff == pytest.approx(0.5)


def test_two_means_identical_values_rejected():
    with pytest.raises(ValueError):
        two_means_split([0.3, 0.3, 0.3])


def test_two_means_rejects_nan():
    for values in ([0.1, float("nan"), 0.5], [float("nan"), 0.2], [float("nan")] * 3):
        with pytest.raises(ValueError, match="distinct values"):
            two_means_split(values)


def test_two_means_cutoff_between_clusters():
    rng = np.random.default_rng(21)
    for _ in range(100):
        xs = rng.random(int(rng.integers(2, 40)))
        if np.unique(xs).size < 2:
            continue
        split = two_means_split(xs)
        assert split.iterations <= xs.size
        assert xs[split.low_mask].max() < split.cutoff < xs[~split.low_mask].min()


# --------------------------------------------------------------- fq rules

def test_learn_fq_rules_cutoff_from_clusters():
    cands = enumerate_teams(5, size_filter=2)
    values = {
        (0, 1): 0.1, (0, 2): 0.12, (0, 3): 0.5, (0, 4): 0.55,
    }
    mapping = {}
    for t in cands:
        for focal in t.members:
            other = [m for m in t.members if m != focal][0]
            mapping[(focal, t.members)] = values.get((focal, other), 0.3)
    rules = learn_fq_rules(MetricId.GD, cands, StubScores(cands, mapping))
    by_cell = {(r.focal, r.size): r for r in rules}
    rule = by_cell[(0, 2)]
    assert rule.cutoff == pytest.approx(0.31)
    assert not rule.keep_all


def test_learn_fq_rules_degenerate_cell_keeps_all():
    cands = enumerate_teams(3)
    mapping = {(f, t.members): 0.25 for t in cands for f in t.members}
    rules = learn_fq_rules(MetricId.GD, cands, StubScores(cands, mapping))
    assert all(r.keep_all for r in rules)
    selected = fq_select(MetricId.GD, cands, rules, StubScores(cands, mapping))
    assert keys_of(selected) == {t.key for t in cands}


def test_learn_fq_rules_single_team_cell_degenerate():
    # size M cells hold one team each, so they must come out keep-all
    cands = enumerate_teams(4)
    rng = np.random.default_rng(1)
    mapping = {(f, t.members): float(rng.random()) for t in cands for f in t.members}
    rules = learn_fq_rules(MetricId.GD, cands, StubScores(cands, mapping))
    by_cell = {(r.focal, r.size): r for r in rules}
    for focal in range(4):
        assert by_cell[(focal, 4)].keep_all


def test_fq_select_mode_semantics():
    cands = enumerate_teams(3, size_filter=3)  # single team 012
    rules = [SelectionRule(metric=MetricId.GD, cutoff=0.5, focal=f, size=3)
             for f in range(3)]

    kept_everywhere = StubScores(cands, {(f, (0, 1, 2)): 0.1 for f in range(3)})
    for mode in ("all", "any", "majority"):
        assert len(fq_select(MetricId.GD, cands, rules, kept_everywhere, mode)) == 1

    kept_by_one = StubScores(cands, {(0, (0, 1, 2)): 0.1, (1, (0, 1, 2)): 0.9,
                                     (2, (0, 1, 2)): 0.9})
    assert len(fq_select(MetricId.GD, cands, rules, kept_by_one, "any")) == 1
    assert len(fq_select(MetricId.GD, cands, rules, kept_by_one, "majority")) == 0
    assert len(fq_select(MetricId.GD, cands, rules, kept_by_one, "all")) == 0

    kept_by_two = StubScores(cands, {(0, (0, 1, 2)): 0.1, (1, (0, 1, 2)): 0.1,
                                     (2, (0, 1, 2)): 0.9})
    assert len(fq_select(MetricId.GD, cands, rules, kept_by_two, "majority")) == 1
    assert len(fq_select(MetricId.GD, cands, rules, kept_by_two, "all")) == 0


def test_fq_select_missing_rule_coverage():
    cands = enumerate_teams(3)
    with pytest.raises(RuleCoverageError):
        fq_select(MetricId.GD, cands, [], StubScores(cands, {}))


def test_focal_score_table_matches_raw_score_per_cell():
    rng = np.random.default_rng(3)
    rows = rng.integers(0, 2, size=(5, 60))
    rows[2] = 1  # model 2 never errs: no negatives, no scores
    corr = corr_from(rows)
    cands = enumerate_teams(5)
    neg_sets = focal_negative_sets(corr, 25, 9)
    assert 2 not in neg_sets
    for metric in MetricId:
        table = FocalScoreTable(metric, cands, corr, neg_sets)
        assert table.neg_sets is neg_sets
        assert len(table.scores) == len(cands)
        for k, t in enumerate(cands):
            for f in range(5):
                if f == 2 or f not in t.members:
                    assert np.isnan(table.scores[k, f]), (metric, t.key, f)
                    continue
                expected = normalize(metric, team_score(
                    metric, corr.omega[np.asarray(t.members)][:, neg_sets[f]]))
                assert table.scores[k, f] == expected, (metric, t.key, f)


def test_fq_select_mode_nesting_on_synthetic_pool():
    cfg = SynthConfig(num_models=6, num_samples=1500, num_classes=10,
                      accuracies=(0.95, 0.93, 0.9, 0.9, 0.88, 0.86),
                      groups=(CorrelationGroup((2, 3), 0.9),), seed=5)
    corr = correctness(generate_pool(cfg))
    cands = enumerate_teams(6)
    table = FocalScoreTable(MetricId.GD, cands, corr,
                            focal_negative_sets(corr, 100, 5))
    rules = learn_fq_rules(MetricId.GD, cands, table)
    sel_all = keys_of(fq_select(MetricId.GD, cands, rules, table, "all"))
    sel_maj = keys_of(fq_select(MetricId.GD, cands, rules, table, "majority"))
    sel_any = keys_of(fq_select(MetricId.GD, cands, rules, table, "any"))
    assert sel_all <= sel_maj <= sel_any


def test_fq_prunes_planted_duplicates_across_seeds():
    # two models with identical error sets should look non-diverse from any
    # focal view; teams containing both get pruned (default "all" mode).
    # Size-M cells are keep-all by construction, so the check covers S < M.
    cands = enumerate_teams(10)
    dup_teams = [t for t in cands
                 if {4, 5} <= set(t.members) and t.size < 10]
    ok_seeds = 0
    for seed in range(100):
        cfg = SynthConfig(
            num_models=10, num_samples=600, num_classes=10,
            accuracies=(0.95, 0.94, 0.93, 0.92, 0.9, 0.9, 0.89, 0.88, 0.87, 0.86),
            groups=(CorrelationGroup((4, 5), 1.0),), seed=seed)
        corr = correctness(generate_pool(cfg))
        table = FocalScoreTable(MetricId.GD, cands, corr,
                                focal_negative_sets(corr, 100, seed))
        rules = learn_fq_rules(MetricId.GD, cands, table)
        kept = keys_of(fq_select(MetricId.GD, cands, rules, table))
        ok_seeds += all(t.key not in kept for t in dup_teams)
    assert ok_seeds >= 95


# ------------------------------------------------ fq and eq against oracles

@st.composite
def focal_pools(draw):
    """Correctness rows of 3-7 models on 1-30 samples, optionally with a model
    that never errs, two identical models and a model with one error, plus a
    team-size filter, a negative sample size and a seed."""
    m = draw(st.integers(3, 7))
    n = draw(st.integers(1, 30))
    rows = [draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)) for _ in range(m)]
    model = st.integers(0, m - 1)
    if draw(st.booleans()):
        rows[draw(model)] = [1] * n
    if draw(st.booleans()):
        rows[draw(model)] = list(rows[draw(model)])
    if draw(st.booleans()):
        wrong = draw(st.integers(0, n - 1))
        rows[draw(model)] = [int(i != wrong) for i in range(n)]
    team_size = draw(st.none() | st.integers(2, m))
    sample_size = draw(st.sampled_from([1, 2, 5, 100]))
    return rows, team_size, sample_size, draw(st.integers(0, 2**16))


def _compare_with_oracles(case) -> bool:
    """Check the score table, rules, fq selections and eq fusions of one pool
    against the oracles; False when a near-tie made the example ambiguous."""
    rows, team_size, sample_size, seed = case
    corr = corr_from(rows)
    cands = enumerate_teams(len(rows), team_size)
    neg_sets = focal_negative_sets(corr, sample_size, seed)
    assert set(neg_sets) == {f for f, row in enumerate(rows) if 0 in row}
    teams = [t.members for t in cands]
    selected = {mode: {} for mode in FQ_MODES}
    expected = {mode: {} for mode in FQ_MODES}
    for metric in MetricId:
        table = FocalScoreTable(metric, cands, corr, neg_sets)
        for k, t in enumerate(cands):
            for f in range(len(rows)):
                if f in t.members and f in neg_sets:
                    want = o_normalized(metric.value, [[rows[i][j] for j in neg_sets[f]]
                                                       for i in t.members])
                    assert abs(table.scores[k, f] - want) <= 1e-12, (metric, t.key, f)
                else:
                    assert np.isnan(table.scores[k, f]), (metric, t.key, f)
        scores = [tuple(None if np.isnan(table.scores[k, f]) else float(table.scores[k, f])
                        for f in t.members) for k, t in enumerate(cands)]
        oracle_rules, margin = o_fq_rules(teams, scores)
        # both sides split the same values; only a refinement midpoint, a
        # float sum taken in another order, can fall on the other side of a value
        if margin < 1e-9:
            return False
        rules = learn_fq_rules(metric, cands, table)
        assert [(r.focal, r.size, r.keep_all) for r in rules] == \
            [(f, size, keep_all) for f, size, _, keep_all in oracle_rules]
        np.testing.assert_allclose([r.cutoff for r in rules],
                                   [cutoff for _, _, cutoff, _ in oracle_rules],
                                   rtol=0, atol=1e-12)
        for mode in FQ_MODES:
            got = selected[mode][metric] = fq_select(metric, cands, rules, table, mode)
            want = expected[mode][metric] = o_fq_select(teams, scores, oracle_rules, mode)
            assert [t.members for t in got.teams] == [members for members, _ in want]
            np.testing.assert_allclose(got.scores, [score for _, score in want],
                                       rtol=0, atol=1e-12)
    for mode in FQ_MODES:
        for metrics in (DEFAULT_EQ_METRICS, tuple(MetricId)):
            fused = eq_fuse([selected[mode][m] for m in metrics])
            want = o_eq_fuse([expected[mode][m] for m in metrics])
            assert [t.members for t in fused.teams] == [members for members, _ in want]
            np.testing.assert_allclose(fused.scores, [score for _, score in want],
                                       rtol=0, atol=1e-12)
    return True


def test_fq_and_eq_match_oracles():
    outcomes = []

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(case=focal_pools())
    def check(case):
        outcomes.append(_compare_with_oracles(case))

    check()
    skipped = outcomes.count(False)
    assert skipped <= len(outcomes) // 5, f"{skipped} of {len(outcomes)} examples skipped"


# ---------------------------------------------------------------- eq fuse

def _selset(method, keys, pool_size=4):
    cands = enumerate_teams(pool_size)
    row_of = {t.key: k for k, t in enumerate(cands)}
    return SelectedSet(method=method, cands=cands, rows=tuple(row_of[k] for k in keys),
                       scores=tuple(0.1 for _ in keys), candidate_count=len(cands))


def test_eq_fuse_intersection():
    a = _selset("fq-bd-all", ["01", "02", "03"])
    b = _selset("fq-kw-all", ["02", "03", "12"])
    fused = eq_fuse([a, b])
    assert keys_of(fused) == {"02", "03"}
    assert len(fused) <= min(len(a), len(b))


def test_eq_fuse_identical_inputs():
    a = _selset("fq-bd-all", ["01", "02"])
    b = _selset("fq-gd-all", ["01", "02"])
    assert keys_of(eq_fuse([a, b])) == {"01", "02"}


def test_eq_fuse_subset_of_every_input():
    rng = np.random.default_rng(8)
    all_keys = [t.key for t in enumerate_teams(4)]
    sets = [_selset(f"fq-{i}", [k for k in all_keys if rng.random() < 0.6])
            for i in range(3)]
    fused = eq_fuse(sets)
    for s in sets:
        assert keys_of(fused) <= keys_of(s)


def test_eq_fuse_input_validation():
    a = _selset("fq-bd-all", ["01"])
    with pytest.raises(DivselError):
        eq_fuse([a])
    b = _selset("fq-kw-all", ["01"], pool_size=5)
    with pytest.raises(DivselError):
        eq_fuse([a, b])


# -------------------------------------------------------------- rules i/o

def test_rules_json_roundtrip(tmp_path):
    rules = [
        SelectionRule(metric=MetricId.GD, cutoff=0.31, focal=0, size=2),
        SelectionRule(metric=MetricId.GD, cutoff=0.42, focal=1, size=3,
                      keep_all=True),
    ]
    path = tmp_path / "rules.json"
    path.write_text(rules_to_json(rules))
    records = json.loads(path.read_text())
    assert records[0] == {"metric": "gd", "focal": 0, "size": 2,
                          "cutoff": 0.31, "keep_all": False}
    assert load_rules(path, MetricId.GD, pool_size=3) == rules
    # a mean-threshold rule has no cell: its focal and size are written as null
    q_rule = SelectionRule(metric=MetricId.CK, cutoff=0.5)
    assert json.loads(rules_to_json([q_rule])) == [
        {"metric": "ck", "focal": None, "size": None, "cutoff": 0.5, "keep_all": False}]


def test_rule_cutoff_must_be_finite():
    with pytest.raises(ValueError):
        SelectionRule(metric=MetricId.GD, cutoff=float("inf"))
