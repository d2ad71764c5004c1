import json

import pytest

from divsel.consensus import ConsensusMethod
from divsel.evaluation import evaluate_set, evaluate_team, evaluate_teams, summarize
from divsel.pool import correctness
from divsel.report import (format_percent, selected_set_from_dict, selected_set_to_dict,
                           set_report_to_dict, set_reports_to_csv, set_reports_to_table)
from divsel.selection import SelectedSet
from divsel.synth import SynthConfig, generate_pool
from divsel.teaming import enumerate_teams, team

SOFT = ConsensusMethod("soft")


@pytest.fixture(scope="module")
def small_pool():
    cfg = SynthConfig(num_models=5, num_samples=1200, num_classes=8,
                      accuracies=(0.95, 0.92, 0.9, 0.88, 0.85), seed=31)
    pool = generate_pool(cfg)
    return pool, correctness(pool)


def test_evaluate_team_fields(small_pool):
    pool, corr = small_pool
    ev = evaluate_team(team(0, 1, 2), pool, corr, SOFT)
    assert ev.member_max_id == 0
    assert ev.member_max_accuracy == pytest.approx(float(corr.accuracies[:3].max()))
    assert ev.pool_max_accuracy == pytest.approx(float(corr.accuracies.max()))
    assert ev.improvement == pytest.approx(ev.ensemble_accuracy - ev.member_max_accuracy)
    assert ev.beats_members == (ev.ensemble_accuracy >= ev.member_max_accuracy)
    assert ev.beats_pool == (ev.ensemble_accuracy >= ev.pool_max_accuracy)


def test_full_team_member_max_equals_pool_max(small_pool):
    pool, corr = small_pool
    ev = evaluate_team(team(0, 1, 2, 3, 4), pool, corr, SOFT)
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
    evals = evaluate_teams(cands.teams, pool, corr, SOFT)
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
    evals = evaluate_teams([team(0, 1), team(0, 2)], pool, corr, SOFT)
    # force a tie by overwriting accuracies
    import dataclasses
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
    sel = SelectedSet(method="q-gd", teams=(team(0, 1), team(1, 2)),
                      scores=(0.25, 0.3), pool_size=3, candidate_count=4)
    again = selected_set_from_dict(json.loads(json.dumps(selected_set_to_dict(sel))))
    assert again == sel
