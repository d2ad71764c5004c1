import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from divsel.consensus import (METHODS, ConsensusMethod, boosting_weights, ensemble_accuracy,
                              predict)
from divsel.evaluation import evaluate_set, evaluate_teams, summarize
from divsel.errors import CapabilityError
from divsel.pool import build_pool, correctness
from divsel.report import (format_percent, selected_set_from_dict, selected_set_to_dict,
                           set_report_to_dict, set_reports_to_csv, set_reports_to_table)
from divsel.selection import SelectedSet
from divsel.synth import SynthConfig, generate_pool
from divsel.teaming import CandidateSet, enumerate_teams

from conftest import pool_from_probs, team
from oracles import (o_boosting_vote, o_majority_vote, o_plurality_vote, o_soft_vote,
                     o_summarize)

SOFT = ConsensusMethod("soft")


@pytest.fixture(scope="module")
def small_pool():
    cfg = SynthConfig(num_models=5, num_samples=1200, num_classes=8,
                      accuracies=(0.95, 0.92, 0.9, 0.88, 0.85), seed=31)
    pool = generate_pool(cfg)
    return pool, correctness(pool)


def test_evaluate_team_fields(small_pool):
    pool, corr = small_pool
    [ev] = evaluate_teams(CandidateSet.of([team(0, 1, 2)], 5), pool, corr, SOFT)
    assert ev.member_max_id == 0
    assert ev.member_max_accuracy == pytest.approx(float(corr.accuracies[:3].max()))
    assert ev.pool_max_accuracy == pytest.approx(float(corr.accuracies.max()))
    assert ev.improvement == pytest.approx(ev.ensemble_accuracy - ev.member_max_accuracy)
    assert ev.beats_members == (ev.ensemble_accuracy >= ev.member_max_accuracy)
    assert ev.beats_pool == (ev.ensemble_accuracy >= ev.pool_max_accuracy)


def test_full_team_member_max_equals_pool_max(small_pool):
    pool, corr = small_pool
    [ev] = evaluate_teams(CandidateSet.of([team(0, 1, 2, 3, 4)], 5), pool, corr, SOFT)
    assert ev.member_max_accuracy == ev.pool_max_accuracy


def test_single_team_report(small_pool):
    pool, corr = small_pool
    report = evaluate_set([team(0, 1)], pool, corr, SOFT, "single")
    assert report.num_selected == 1
    assert report.acc_min == report.acc_max == report.acc_mean
    assert report.acc_std == 0.0
    assert report.best_team == "01"


def test_report_counts_match_recount_oracle(small_pool):
    pool, corr = small_pool
    cands = enumerate_teams(5)
    evals = evaluate_teams(cands, pool, corr, SOFT)
    report = summarize("baseline", evals, len(cands), float(corr.accuracies.max()))

    # independent recount
    accs = [e.ensemble_accuracy for e in evals]
    n_m = sum(1 for e in evals if e.ensemble_accuracy >= e.member_max_accuracy)
    n_p = sum(1 for a in accs if a >= float(corr.accuracies.max()))
    assert report.num_beats_members == n_m
    assert report.num_beats_pool == n_p
    assert report.pct_beats_members == pytest.approx(n_m / len(evals))
    assert report.pct_beats_pool == pytest.approx(n_p / len(evals))
    assert report.acc_min == pytest.approx(min(accs))
    assert report.acc_max == pytest.approx(max(accs))
    assert report.acc_mean == pytest.approx(sum(accs) / len(accs))
    # population standard deviation (divide by n)
    mean = sum(accs) / len(accs)
    var = sum((a - mean) ** 2 for a in accs) / len(accs)
    assert report.acc_std == pytest.approx(var ** 0.5)
    assert report.acc_min <= report.acc_mean <= report.acc_max


def test_nested_set_monotonicity(small_pool):
    pool, corr = small_pool
    cands = enumerate_teams(5)
    full = evaluate_set(cands.teams, pool, corr, SOFT, "all",
                        candidate_count=len(cands))
    sub = evaluate_set(cands.teams[:10], pool, corr, SOFT, "sub",
                       candidate_count=len(cands))
    assert sub.acc_max <= full.acc_max
    assert sub.num_beats_members <= full.num_beats_members
    assert sub.num_beats_pool <= full.num_beats_pool


def test_best_team_tie_break_is_canonical_string(small_pool):
    pool, corr = small_pool
    evals = evaluate_teams(CandidateSet.of([team(0, 1), team(0, 2)], 5), pool, corr, SOFT)
    # force a tie by overwriting accuracies
    tied = [dataclasses.replace(e, ensemble_accuracy=0.5) for e in evals]
    report = summarize("tied", tied, 2, 1.0)
    assert report.best_team == "01"


def test_empty_set_report():
    report = summarize("empty", [], 10, 0.9)
    assert report.num_selected == 0
    assert report.acc_min is None and report.best_team is None


def test_threads_do_not_change_results(small_pool):
    pool, corr = small_pool
    cands = enumerate_teams(5)
    r1 = evaluate_set(cands.teams, pool, corr, SOFT, "x", threads=1)
    r8 = evaluate_set(cands.teams, pool, corr, SOFT, "x", threads=8)
    assert r1 == r8


@pytest.mark.parametrize("threads", [1, 2])
def test_soft_names_the_first_candidate_holding_a_labels_only_model(threads):
    rng = np.random.default_rng(3)
    probs = rng.random((4, 3, 20))
    pool = build_pool("mixed", 3, rng.integers(0, 3, 20), probs.argmax(axis=1), probs,
                      has_probs=[True, True, False, False])
    cands = CandidateSet.of([team(0, 1), team(1, 3), team(2, 3), team(0, 2)], 4)
    with pytest.raises(CapabilityError) as exc:
        evaluate_teams(cands, pool, correctness(pool), SOFT, threads=threads)
    # the error predict raises for the first such candidate in candidate order
    with pytest.raises(CapabilityError) as ref:
        predict(team(1, 3), pool, SOFT)
    assert str(exc.value) == str(ref.value) == (
        "soft voting needs prediction probabilities, but model(s) [3] carry labels only")


@st.composite
def vote_cases(draw):
    """A pool of 3-6 models, 5-60 samples and 2-4 classes, a consensus method,
    a thread count and a pick of teams.  Each probability is 0, 1 or 2 parts
    of its row's sum, so members and team sums tie often; labels-only pools
    use the two label votes, and model 0 may never err."""
    m, n, c = draw(st.integers(3, 6)), draw(st.integers(5, 60)), draw(st.integers(2, 4))
    labels_only, perfect = draw(st.booleans()), draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    labels = rng.integers(0, c, n)
    mats = []
    for i in range(m):
        parts = rng.integers(0, 3, (n, c)).astype(np.float64)
        if perfect and i == 0:
            parts = np.eye(c)[labels]
        parts[parts.sum(axis=1) == 0] = 1.0
        mats.append(parts / parts.sum(axis=1, keepdims=True))
    pool = pool_from_probs(labels, mats, c, "votes", labels_only)
    kind = draw(st.sampled_from(("majority", "plurality") if labels_only else METHODS))
    train = None
    if kind == "boosting" and draw(st.booleans()):
        train = rng.integers(0, n, int(rng.integers(1, n + 1)))
    picks = draw(st.lists(st.integers(0, 2**m - m - 2), unique=True, max_size=12))
    return pool, ConsensusMethod(kind, train_indices=train), draw(st.sampled_from([1, 2])), picks


def _oracle_votes(t, pool, method):
    preds = [pool.preds[i].tolist() for i in t.members]
    probs = [pool.probs[i].T.tolist() if pool.has_probs[i] else None for i in t.members]
    if method.kind == "soft":
        return o_soft_vote(probs)
    if method.kind == "boosting":  # the weights have their own oracle test
        return o_boosting_vote(probs, boosting_weights(t, pool, method).tolist())
    if method.kind == "majority":
        return o_majority_vote(preds, pool.num_classes)
    return o_plurality_vote(preds, pool.num_classes)


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=vote_cases())
def test_evaluation_matches_vote_and_summary_oracles(case):
    pool, method, threads, picks = case
    corr = correctness(pool)
    cands = enumerate_teams(pool.num_models)
    evals = evaluate_teams(cands, pool, corr, method, threads=threads)
    labels = pool.labels.tolist()
    member_acc = [sum(p == y for p, y in zip(row.tolist(), labels)) / len(labels)
                  for row in pool.preds]
    rows = []
    for t, ev in zip(cands, evals):
        votes = _oracle_votes(t, pool, method)
        row = ("".join(str(i) for i in t.members),
               sum(v == y for v, y in zip(votes, labels)) / len(labels),
               max(member_acc[i] for i in t.members))
        assert (ev.team, ev.ensemble_accuracy, ev.member_max_accuracy) == row
        _, acc, m_max = row
        # ties are common on 5-60 samples: the first best member in member order
        best_id = next(i for i in t.members if member_acc[i] == m_max)
        assert (ev.member_max_id, ev.improvement, ev.beats_members, ev.beats_pool) == (
            best_id, acc - m_max, acc >= m_max, acc >= max(member_acc))
        rows.append(row)
    # a set of some candidates, in another order, as query's sub-teams are
    subset = CandidateSet.of([cands.teams[k] for k in reversed(picks)], pool.num_models)
    assert (evaluate_teams(subset, pool, corr, method, threads=threads)
            == [evals[k] for k in reversed(picks)])
    for label, chosen in (("baseline", range(len(rows))), ("picked", picks)):
        got = dataclasses.asdict(summarize(label, [evals[k] for k in chosen], len(cands),
                                           float(corr.accuracies.max())))
        want = o_summarize(label, [rows[k] for k in chosen], len(cands), max(member_acc))
        assert got.keys() == want.keys()
        for key, value in want.items():
            if isinstance(value, float):
                assert got[key] == pytest.approx(value, abs=1e-12), key
            else:
                assert got[key] == value, key


@st.composite
def divide_tie_cases(draw):
    """A pool of S + 1 models (S = 3, 5, 6 or 7), 6-40 samples and 2-4 classes.
    Sample k takes its true class y and a rival r from a random pair, with
    y < r for even k.  In the team of the first S models, the summed y and r
    probabilities of a sample k = 0 (mod 3) differ but are equal after
    predict's /S; for k = 1 they are equal before it; otherwise every
    probability is random.  Model S is random throughout."""
    s, c, n = (draw(st.sampled_from((3, 5, 6, 7))), draw(st.integers(2, 4)),
               draw(st.integers(6, 40)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mats = rng.random((s + 1, n, c))
    labels = np.empty(n, dtype=np.int64)
    for k in range(n):
        y, r = sorted(rng.choice(c, 2, replace=False).tolist())
        labels[k] = y if k % 2 == 0 else r
        if k % 3 == 2:
            continue
        for _ in range(10_000):  # 2-5% of the k = 0 draws tie after the divide
            top = rng.uniform(0.05, 0.5, s)
            rival = top.copy()
            if k % 3 == 0:  # the last member's rival moves 1-3 ulps
                for _ in range(rng.integers(1, 4)):
                    rival[-1] = math.nextafter(rival[-1], rng.choice((0.0, 1.0)))
            true_sum = rival_sum = 0.0
            for a, b in zip(top, rival):  # predict's adds, in member order
                true_sum, rival_sum = true_sum + a, rival_sum + b
            if (true_sum != rival_sum) == (k % 3 == 0) and true_sum / s == rival_sum / s:
                break
        else:
            raise AssertionError("no tie found")
        mats[:s, k] = rng.uniform(0.0, 0.01, (s, c))  # below every y or r term
        mats[:s, k, labels[k]], mats[:s, k, y + r - labels[k]] = top, rival
    return pool_from_probs(labels, mats, c, "divide-ties"), s


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=divide_tie_cases(), data=st.data())
def test_lattice_keeps_the_ties_of_the_soft_divide(case, data):
    pool, s = case
    total = np.zeros_like(pool.probs[0])
    for i in range(s):
        total += pool.probs[i]
    cols = np.arange(pool.num_samples)
    t = total[pool.labels, cols]
    total[pool.labels, cols] = -np.inf
    o = total.max(axis=0)
    # the divide ties unequal sums, with the true class both below and above its rival
    divided = (t != o) & (t / s == o / s)
    assert {bool(x) for x in pool.labels[divided] > total.argmax(axis=0)[divided]} == {
        False, True}
    corr = correctness(pool)
    full = enumerate_teams(pool.num_models)
    picks = data.draw(st.lists(st.integers(0, len(full) - 1), min_size=1, max_size=8))
    # reordered, of mixed sizes, and holding the S-member team three times
    mixed = CandidateSet.of([team(*range(s)), *(full.teams[k] for k in picks),
                             team(*range(s)), team(0, s), team(*range(s))], pool.num_models)
    for kind in ("soft", "plurality", "majority"):
        method = ConsensusMethod(kind)
        for cands in (full, mixed):
            assert [e.ensemble_accuracy for e in evaluate_teams(cands, pool, corr, method)] == [
                ensemble_accuracy(predict(t, pool, method), pool.labels) for t in cands.teams]


# --------------------------------------------------------------- rendering

def test_format_percent_presentation():
    assert format_percent(62, 247) == "25.10"
    assert format_percent(16, 247) == "6.48"
    assert format_percent(0, 0) == "0.00"


def test_csv_column_order(small_pool):
    pool, corr = small_pool
    report = evaluate_set([team(0, 1), team(1, 2)], pool, corr, SOFT, "demo",
                          candidate_count=25)
    text = set_reports_to_csv([report])
    header = text.splitlines()[0].split(",")
    assert header == [
        "method", "num_candidates", "num_selected",
        "acc_min", "acc_max", "acc_avg", "acc_std",
        "num_beats_members", "pct_beats_members",
        "num_beats_pool", "pct_beats_pool",
        "best_team", "best_accuracy",
    ]
    row = text.splitlines()[1].split(",")
    assert row[0] == "demo" and row[1] == "25" and row[2] == "2"


def test_csv_presentation_of_known_report():
    from divsel.evaluation import SetReport
    report = SetReport(
        method="baseline", num_candidates=247, num_selected=247,
        acc_min=0.8575, acc_max=0.9275, acc_mean=0.9035, acc_std=0.0223,
        pool_max_accuracy=0.925,
        num_beats_members=62, pct_beats_members=62 / 247,
        num_beats_pool=16, pct_beats_pool=16 / 247,
        best_team="0123", best_accuracy=0.9275,
    )
    row = set_reports_to_csv([report]).splitlines()[1].split(",")
    assert row == ["baseline", "247", "247", "85.75", "92.75", "90.35",
                   "2.2300", "62", "25.10", "16", "6.48", "0123", "92.75"]


def test_report_json_full_precision(small_pool):
    pool, corr = small_pool
    report = evaluate_set([team(0, 1)], pool, corr, SOFT, "demo")
    data = set_report_to_dict(report)
    assert data["acc_mean"] == report.acc_mean  # not rounded
    json.dumps(data)  # serializable


def test_table_rendering_smoke(small_pool):
    pool, corr = small_pool
    report = evaluate_set([team(0, 1)], pool, corr, SOFT, "demo")
    text = set_reports_to_table([report])
    assert "demo" in text and "%" in text


def test_selected_set_json_roundtrip():
    cands = enumerate_teams(3)
    sel = SelectedSet(method="q-gd", cands=cands, rows=(0, 2), scores=(0.25, 0.3),
                      candidate_count=4)
    assert sel.teams == (team(0, 1), team(1, 2))
    again = selected_set_from_dict(json.loads(json.dumps(selected_set_to_dict(sel))), cands)
    assert again == sel
