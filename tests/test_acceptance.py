"""Acceptance suite: one test per acceptance criterion.

Each test prints a single [PASS]/[FAIL] line (visible with ``pytest -s``
or in the failure report) and asserts the criterion at its stated
tolerance.  Run with::

    pytest tests/test_acceptance.py -v -s
"""

import json
import time

import numpy as np

from divsel.cli import main
from divsel.consensus import ABSTAIN, ConsensusMethod, boosting_weights, predict
from divsel.diversity import MetricId, pairwise_average
from divsel.evaluation import evaluate_teams, summarize
from divsel.pool import correctness, write_pool
from divsel.report import format_percent
from divsel.sampling import focal_negative_sets, negatives_any, sample_subset
from divsel.selection import (FocalScoreTable, eq_fuse, fq_select, learn_fq_rules,
                              q_select)
from divsel.synth import CorrelationGroup, SynthConfig, generate_pool
from divsel.teaming import enumerate_teams, team

from conftest import FIXTURE_WI, FIXTURE_WJ, pool_from_probs, team_score
from oracles import o_raw

# synthetic stand-in for a 10-model pool: per-model target accuracies with
# two planted correlation groups of error overlap 0.8
POOL10_ACCS = (0.9668, 0.9546, 0.9623, 0.9621, 0.9334,
               0.9173, 0.9263, 0.9310, 0.9339, 0.9368)
POOL10_GROUPS = (CorrelationGroup((0, 1), 0.8),
                 CorrelationGroup((5, 6, 7, 8, 9), 0.8))
FOCAL_SAMPLE_SIZE = 200


def _check(criterion: str, ok: bool, detail: str = ""):
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def _pool10(seed, num_samples=10000):
    cfg = SynthConfig(num_models=10, num_samples=num_samples, num_classes=10,
                      accuracies=POOL10_ACCS, groups=POOL10_GROUPS, seed=seed)
    return generate_pool(cfg)


def test_criterion_1_enumeration_exactness():
    t0 = time.perf_counter()
    counts = {m: len(enumerate_teams(m)) for m in (8, 10, 15)}
    elapsed = time.perf_counter() - t0
    ok = counts == {8: 247, 10: 1013, 15: 32752} and elapsed < 1.0
    _check("criterion 1 (enumeration exactness)", ok,
           f"counts={counts}, {elapsed:.3f}s")


def test_criterion_2_metric_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260810)
    worst = 0.0
    for _ in range(200):
        s = int(rng.integers(2, 5))
        n = int(rng.integers(1, 31))
        rows = rng.integers(0, 2, size=(s, n))
        listed = rows.tolist()
        for metric in MetricId:
            worst = max(worst, abs(team_score(metric, rows) - o_raw(metric.value, listed)))
    fixture = np.array([FIXTURE_WI, FIXTURE_WJ])
    values = {m: team_score(m, fixture) for m in MetricId}
    expected = {
        MetricId.CK: 16 / 45, MetricId.QS: 2 / 3, MetricId.BD: 0.3,
        MetricId.FK: 1 - 1.5 / 2.275, MetricId.KW: 0.075, MetricId.GD: 1 - 0.2 / 0.35,
    }
    fixture_ok = all(abs(values[m] - expected[m]) <= 1e-12 for m in MetricId)
    rounded_ok = (abs(values[MetricId.FK] - 0.34066) < 1e-5
                  and abs(values[MetricId.GD] - 0.42857) < 1e-5)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and fixture_ok and rounded_ok and elapsed < 5.0
    _check("criterion 2 (metric oracle equivalence)", ok,
           f"max |library-oracle| = {worst:.2e} over 200 instances, "
           f"fixture values match, {elapsed:.2f}s")


def test_criterion_3_fk_differs_from_mean_ck():
    fixture = np.array([FIXTURE_WI, FIXTURE_WJ])
    fk = team_score(MetricId.FK, fixture)
    mean_ck = pairwise_average(MetricId.CK, fixture)
    diff = abs(fk - mean_ck)
    _check("criterion 3 (FK is not averaged CK)", diff > 0.01,
           f"|{fk:.5f} - {mean_ck:.5f}| = {diff:.5f} > 0.01")


def test_criterion_4_mean_threshold_contract():
    pool = _pool10(seed=401, num_samples=2000)
    corr = correctness(pool)
    cands = enumerate_teams(10)
    neg = sample_subset(negatives_any(corr), 100, seed=401)
    selected, rule = q_select(MetricId.GD, cands, corr, neg)

    # second pass: rescore every team, python-sum mean, strict filter
    omega_neg = corr.omega[:, neg]
    rescored = {}
    for t in cands:
        raw = o_raw("gd", omega_neg[np.asarray(t.members)].tolist())
        rescored[t.key] = 1.0 - raw
    theta = sum(rescored.values()) / len(rescored)
    oracle_keys = {k for k, s in rescored.items() if s < theta}
    ok = (selected.team_keys() == oracle_keys
          and abs(rule.cutoff - theta) <= 1e-12)
    _check("criterion 4 (mean-threshold selection contract)", ok,
           f"|selected| = {len(selected)} matches oracle exactly on 1013 teams")


def test_criterion_5_selection_quality_trend():
    t0 = time.perf_counter()
    cands = enumerate_teams(10)
    soft = ConsensusMethod("soft")
    joint_wins = 0
    eq_contained = 0
    for seed in range(20):
        pool = _pool10(seed=seed)
        corr = correctness(pool)
        evals = evaluate_teams(cands, pool, corr, soft)
        baseline = summarize("baseline", evals, len(cands),
                             float(corr.accuracies.max()))
        by_key = {e.team: e for e in evals}

        neg_sets = focal_negative_sets(corr, FOCAL_SAMPLE_SIZE, seed)
        parts = []
        for metric in (MetricId.BD, MetricId.KW, MetricId.GD):
            table = FocalScoreTable(metric, cands, corr, neg_sets)
            rules = learn_fq_rules(metric, cands, table)
            parts.append(fq_select(metric, cands, rules, table))
        fq_gd = parts[2]
        gd_report = summarize("fq-gd", [by_key[t.key] for t in fq_gd.teams],
                              len(cands), float(corr.accuracies.max()))
        fused = eq_fuse(parts)
        wins = (gd_report.acc_mean > baseline.acc_mean
                and gd_report.pct_beats_members > baseline.pct_beats_members)
        joint_wins += wins
        eq_contained += len(fused) <= min(len(p) for p in parts)
    elapsed = time.perf_counter() - t0
    ok = joint_wins >= 16 and eq_contained == 20 and elapsed < 120.0
    _check("criterion 5 (selection-quality trend)", ok,
           f"fq-gd beats baseline on mean acc and >=m_max fraction in "
           f"{joint_wins}/20 seeds, eq contained in 20/20, {elapsed:.1f}s")


def test_criterion_6_consensus_invariants():
    # majority => plurality agreement on 1e5 random vote vectors
    from divsel.pool import ModelRecord, build_pool
    rng = np.random.default_rng(606)
    checked = 0
    agree = True
    for s in (2, 3, 5, 8):
        votes = rng.integers(0, 10, size=(s, 25000))
        labels = np.zeros(25000, dtype=np.int64)
        models = [ModelRecord(id=i, name=f"m{i}", pred_labels=votes[i])
                  for i in range(s)]
        pool = build_pool("votes", 10, labels, models)
        t = team(*range(s))
        maj = predict(t, pool, ConsensusMethod("majority")).labels
        plu = predict(t, pool, ConsensusMethod("plurality")).labels
        decided = maj != ABSTAIN
        agree &= bool((maj[decided] == plu[decided]).all())
        checked += decided.size

    # identical members: soft vote equals the single model everywhere
    probs = rng.random((500, 10))
    probs /= probs.sum(axis=1, keepdims=True)
    labels = rng.integers(0, 10, 500)
    clones = pool_from_probs(labels, [probs, probs.copy(), probs.copy()],
                             num_classes=10)
    soft_same = bool((predict(team(0, 1, 2), clones, ConsensusMethod("soft")).labels
                      == clones.models[0].pred_labels).all())

    # boosting: hand value, sum contract, uniform-weight equivalence on the
    # training samples every member gets right
    one = pool_from_probs([0], [[[0.2, 0.8]], [[0.9, 0.1]]], num_classes=2)
    w = boosting_weights(team(0, 1), one, gamma=-0.01)
    hand_ok = (abs(w[0] - 0.49751) <= 1e-5 and abs(w[1] - 0.50249) <= 1e-5
               and abs(float(w.sum()) - 1.0) <= 1e-9)

    pool10 = _pool10(seed=606, num_samples=1000)
    t10 = team(0, 3, 5, 7)
    right = np.flatnonzero(np.all([pool10.models[i].pred_labels == pool10.labels
                                   for i in t10.members], axis=0))
    boosting = ConsensusMethod("boosting", train_indices=right)
    boost_soft_ok = bool(
        right.size > 0
        and (boosting_weights(t10, pool10, right) == 0.25).all()
        and (predict(t10, pool10, boosting).labels
             == predict(t10, pool10, ConsensusMethod("soft")).labels).all())

    ok = agree and soft_same and hand_ok and boost_soft_ok
    _check("criterion 6 (consensus invariants)", ok,
           f"majority=>plurality on {checked} vote vectors, identical-member "
           f"soft vote, boosting weights ({w[0]:.5f}, {w[1]:.5f}), "
           f"uniform boosting == soft on {right.size} error-free training samples")


def test_criterion_7_recommend_determinism(tmp_path):
    pool_dir = tmp_path / "pool"
    write_pool(_pool10(seed=707, num_samples=2000), pool_dir)
    outs = []
    for name, threads in (("a", "1"), ("b", "1"), ("c", "8")):
        out = tmp_path / f"{name}.json"
        code = main(["recommend", "--pool", str(pool_dir / "manifest.json"),
                     "--method", "eq", "--seed", "42", "--threads", threads,
                     "--out", str(out)])
        assert code == 0
        outs.append(out.read_bytes())
    ok = outs[0] == outs[1] == outs[2]
    _check("criterion 7 (recommend determinism)", ok,
           f"byte-identical JSON across repeat runs and threads 1 vs 8 "
           f"({len(outs[0])} bytes)")


def test_criterion_8_report_percent_arithmetic():
    ok = format_percent(62, 247) == "25.10" and format_percent(16, 247) == "6.48"
    _check("criterion 8 (report percent arithmetic)", ok,
           f"62/247 -> {format_percent(62, 247)}%, 16/247 -> "
           f"{format_percent(16, 247)}%")


def test_criterion_9_performance_envelope(tmp_path):
    pool_dir = tmp_path / "pool"
    write_pool(_pool10(seed=909), pool_dir)  # M=10, N=10000, C=10
    out = tmp_path / "report.json"
    t0 = time.perf_counter()
    code = main(["recommend", "--pool", str(pool_dir / "manifest.json"),
                 "--method", "fq", "--metric", "gd", "--consensus", "soft",
                 "--seed", "9", "--threads", "4", "--out", str(out)])
    elapsed = time.perf_counter() - t0
    data = json.loads(out.read_text())
    ok = (code == 0 and elapsed < 60.0
          and data["reports"][0]["num_candidates"] == 1013)
    _check("criterion 9 (performance envelope)", ok,
           f"load -> enumerate 1013 -> gd diversity -> fq select -> soft-vote "
           f"evaluate -> report in {elapsed:.1f}s (< 60s)")
