import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from divsel.cli import main
from divsel.pool import correctness, load_pool
from divsel.report import load_selected_set, selected_set_to_dict
from divsel.sampling import DEFAULT_SAMPLE_SIZE, build_negative_set
from divsel.selection import eq_fuse
from divsel.teaming import enumerate_teams

from oracles import o_normalized, o_raw

SYNTH_CONFIG = {
    "dataset": "cli-test",
    "num_models": 5,
    "num_samples": 800,
    "num_classes": 6,
    "accuracies": [0.95, 0.92, 0.9, 0.9, 0.87],
    "groups": [{"members": [2, 3], "overlap": 0.9}],
    "seed": 13,
}


@pytest.fixture(scope="module")
def pool_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-pool")
    cfg = root / "synth.json"
    cfg.write_text(json.dumps(SYNTH_CONFIG))
    assert main(["synth", "--config", str(cfg), "--out-dir", str(root / "pool")]) == 0
    return root / "pool"


def test_enumerate_prints_count(capsys):
    assert main(["enumerate", "--pool-size", "8"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "247"


def test_enumerate_list(capsys):
    assert main(["enumerate", "--pool-size", "3", "--list"]) == 0
    assert capsys.readouterr().out.splitlines() == ["4", "01", "02", "12", "012"]


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "--bogus-flag"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_data_error_exits_1(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main(["diversity", "--pool", str(missing), "--metric", "gd"]) == 1
    assert "error:" in capsys.readouterr().err


def test_bad_team_size_exits_1(pool_dir, capsys):
    code = main(["recommend", "--pool", str(pool_dir / "manifest.json"),
                 "--method", "q", "--team-size", "9"])
    assert code == 1


def test_focal_sampling_needs_focal_id(pool_dir, capsys):
    base = ["diversity", "--pool", str(pool_dir / "manifest.json"),
            "--metric", "gd", "--sampling", "focal"]
    assert main(base) == 1
    assert "focal" in capsys.readouterr().err
    assert main(base + ["--focal", "2"]) == 0


def test_team_outside_pool_exits_1(pool_dir, capsys):
    code = main(["consensus", "--pool", str(pool_dir / "manifest.json"),
                 "--team", "08", "--method", "soft"])
    assert code == 1
    assert "model 8" in capsys.readouterr().err


def test_malformed_selected_set_exits_1(pool_dir, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"teams": "oops"}')
    assert main(["report", "--pool", str(pool_dir / "manifest.json"),
                 "--in", str(bad)]) == 1


def test_diversity_single_team(pool_dir, capsys):
    corr = correctness(load_pool(pool_dir / "manifest.json"))
    neg = build_negative_set(corr, "any", DEFAULT_SAMPLE_SIZE, 4)
    rows = corr.omega[[0, 2, 3]][:, neg].tolist()
    for metric in ("ck", "qs", "bd", "fk", "kw", "gd"):
        assert main(["diversity", "--pool", str(pool_dir / "manifest.json"),
                     "--metric", metric, "--team", "023", "--seed", "4"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["metric"] == metric
        [score] = data["scores"]
        assert score["team"] == "023"
        assert score["raw"] == pytest.approx(o_raw(metric, rows), abs=1e-12)
        assert score["normalized"] == pytest.approx(o_normalized(metric, rows), abs=1e-12)


def test_diversity_all_teams_csv(pool_dir, capsys):
    assert main(["diversity", "--pool", str(pool_dir / "manifest.json"),
                 "--metric", "gd", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "team,size,raw,normalized"
    assert len(lines) == 1 + (2 ** 5 - 6)


def test_select_and_report_roundtrip(pool_dir, tmp_path, capsys):
    selected = tmp_path / "selected.json"
    rules = tmp_path / "rules.json"
    assert main(["select", "--pool", str(pool_dir / "manifest.json"),
                 "--method", "fq", "--metric", "gd", "--seed", "3",
                 "--rules-out", str(rules), "--out", str(selected)]) == 0
    sel = json.loads(selected.read_text())
    assert sel["method"] == "fq-gd-all"
    assert 0 < len(sel["teams"]) <= sel["num_candidates"] == 26
    recs = json.loads(rules.read_text())
    assert all(set(r) == {"metric", "focal", "size", "cutoff", "keep_all"}
               for r in recs)

    # reuse exported rules: same selection
    selected2 = tmp_path / "selected2.json"
    assert main(["select", "--pool", str(pool_dir / "manifest.json"),
                 "--method", "fq", "--metric", "gd", "--seed", "3",
                 "--rules-in", str(rules), "--out", str(selected2)]) == 0
    assert json.loads(selected2.read_text())["teams"] == sel["teams"]

    report = tmp_path / "report.json"
    assert main(["report", "--pool", str(pool_dir / "manifest.json"),
                 "--in", str(selected), "--out", str(report)]) == 0
    rep = json.loads(report.read_text())
    assert [r["method"] for r in rep["reports"]] == ["baseline", "fq-gd-all"]

    report_csv = tmp_path / "report.csv"
    assert main(["report", "--pool", str(pool_dir / "manifest.json"),
                 "--in", str(selected), "--format", "csv",
                 "--out", str(report_csv)]) == 0
    assert report_csv.read_text().splitlines()[0].startswith("method,")


def test_consensus_command(pool_dir, capsys):
    assert main(["consensus", "--pool", str(pool_dir / "manifest.json"),
                 "--team", "014", "--method", "soft"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["team"] == "014"
    assert 0.0 <= data["accuracy"] <= 1.0
    assert main(["consensus", "--pool", str(pool_dir / "manifest.json"),
                 "--team", "014", "--method", "boosting",
                 "--gamma", "-0.05", "--format", "table"]) == 0
    assert "boosting accuracy" in capsys.readouterr().out


def test_query_reports_subteams(pool_dir, capsys):
    assert main(["query", "--pool", str(pool_dir / "manifest.json"),
                 "--team", "023"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert [row["team"] for row in data["teams"]] == ["02", "03", "23", "023"]
    for row in data["teams"]:
        assert set(row["diversity"]) == {"ck", "qs", "bd", "fk", "kw", "gd"}
    assert data["summary"]["num_selected"] == 4
    # the planted correlated pair should look clearly less diverse than
    # pairs that err independently
    scores = {row["team"]: row["diversity"]["gd"] for row in data["teams"]}
    assert scores["23"] > scores["02"]


def test_recommend_deterministic_bytes(pool_dir, tmp_path):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    out8 = tmp_path / "r8.json"
    base = ["recommend", "--pool", str(pool_dir / "manifest.json"),
            "--method", "eq", "--seed", "42"]
    assert main(base + ["--out", str(out1)]) == 0
    assert main(base + ["--out", str(out2)]) == 0
    assert main(base + ["--threads", "8", "--out", str(out8)]) == 0
    assert out1.read_bytes() == out2.read_bytes() == out8.read_bytes()
    data = json.loads(out1.read_text())
    assert data["selection"]["method"].startswith("eq(")
    assert [r["method"] for r in data["reports"]][0] == "baseline"


def test_report_format_inferred_from_extension(pool_dir, tmp_path):
    selected = tmp_path / "sel.json"
    assert main(["select", "--pool", str(pool_dir / "manifest.json"),
                 "--method", "q", "--metric", "gd", "--seed", "2",
                 "--out", str(selected)]) == 0
    out_csv = tmp_path / "report.csv"
    assert main(["report", "--pool", str(pool_dir / "manifest.json"),
                 "--in", str(selected), "--out", str(out_csv)]) == 0
    assert out_csv.read_text().startswith("method,")
    out_json = tmp_path / "report.json"
    assert main(["report", "--pool", str(pool_dir / "manifest.json"),
                 "--in", str(selected), "--out", str(out_json)]) == 0
    json.loads(out_json.read_text())


def test_recommend_table_format(pool_dir, capsys):
    assert main(["recommend", "--pool", str(pool_dir / "manifest.json"),
                 "--method", "q", "--metric", "kw", "--seed", "1",
                 "--format", "table"]) == 0
    out = capsys.readouterr().out
    assert "baseline" in out and "q-kw" in out


def _bad_manifest(pool_dir, name, mutate):
    """Copy the fixture manifest next to its data files with one defect."""
    doc = json.loads((pool_dir / "manifest.json").read_text())
    mutate(doc)
    path = pool_dir / f"bad-{name}.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("name, mutate", [
    ("no-id", lambda d: d["models"][1].pop("id")),
    ("no-pred-labels", lambda d: d["models"][0].pop("pred_labels")),
    ("num-classes", lambda d: d.update(num_classes="six")),
    ("bool-id", lambda d: d["models"][1].update(id=True)),
    ("models-not-list", lambda d: d.update(models={"id": 0})),
])
def test_malformed_manifest_exits_1(pool_dir, capsys, name, mutate):
    path = _bad_manifest(pool_dir, name, mutate)
    assert main(["consensus", "--pool", str(path), "--team", "01",
                 "--method", "soft"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: manifest") and "Traceback" not in err


def test_rules_in_must_match_metric_and_pool(pool_dir, tmp_path, capsys):
    manifest = str(pool_dir / "manifest.json")
    rules = tmp_path / "rules.json"
    assert main(["select", "--pool", manifest, "--method", "fq", "--metric", "gd",
                 "--rules-out", str(rules), "--out", str(tmp_path / "sel.json")]) == 0
    base = ["select", "--pool", manifest, "--method", "fq",
            "--out", str(tmp_path / "o.json")]
    assert main(base + ["--metric", "bd", "--rules-in", str(rules)]) == 1
    assert "not bd" in capsys.readouterr().err
    recs = json.loads(rules.read_text())
    recs[0]["focal"] = 7
    foreign = tmp_path / "foreign.json"
    foreign.write_text(json.dumps(recs))
    assert main(base + ["--metric", "gd", "--rules-in", str(foreign)]) == 1
    assert "focal 7" in capsys.readouterr().err
    # stored rules are fq rules of one metric; q and eq do not take them
    for method in ("q", "eq"):
        assert main(["select", "--pool", manifest, "--method", method,
                     "--rules-in", str(rules), "--out", str(tmp_path / "o.json")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--rules-in" in err
        assert len(err.splitlines()) == 1


def test_eq_is_fusion_of_fq_runs(pool_dir, tmp_path):
    manifest = str(pool_dir / "manifest.json")
    base = ["select", "--pool", manifest, "--seed", "5"]
    parts, rules = [], []
    for metric in ("bd", "kw"):
        sel, rul = tmp_path / f"fq-{metric}.json", tmp_path / f"fq-{metric}-rules.json"
        assert main(base + ["--method", "fq", "--metric", metric,
                            "--rules-out", str(rul), "--out", str(sel)]) == 0
        parts.append(load_selected_set(sel))
        rules += json.loads(rul.read_text())
    sel, rul = tmp_path / "eq.json", tmp_path / "eq-rules.json"
    assert main(base + ["--method", "eq", "--eq-metrics", "bd,kw",
                        "--rules-out", str(rul), "--out", str(sel)]) == 0
    fused = selected_set_to_dict(eq_fuse(parts))
    assert json.loads(sel.read_text()) == fused
    assert fused["method"] == "eq(fq-bd-all+fq-kw-all)" and fused["teams"]
    assert json.loads(rul.read_text()) == rules


@pytest.mark.parametrize("pool_size", [12, 5])
def test_report_rejects_selected_set_of_another_pool(pool_dir, tmp_path, capsys,
                                                     pool_size):
    selected = tmp_path / "sel.json"
    selected.write_text(json.dumps({"method": "x", "pool_size": pool_size,
                                    "num_candidates": 26, "teams": ["01", "0-11"]}))
    assert main(["report", "--pool", str(pool_dir / "manifest.json"),
                 "--in", str(selected)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("count, code", [(-7, 1), (0, 1), (12, 1), (13, 0), (26, 0),
                                         (27, 1), (10**6, 1)])
def test_report_checks_candidate_count(pool_dir, tmp_path, capsys, count, code):
    # 13 selected teams need at least 13 candidates; a 5-model pool has 26
    keys = [t.key for t in enumerate_teams(5)][:13]
    selected = tmp_path / "sel.json"
    selected.write_text(json.dumps({"method": "x", "pool_size": 5,
                                    "num_candidates": count, "teams": keys}))
    assert main(["report", "--pool", str(pool_dir / "manifest.json"),
                 "--in", str(selected)]) == code
    captured = capsys.readouterr()
    if code:
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and captured.out == ""
    else:
        assert json.loads(captured.out)["reports"][1]["num_candidates"] == count


def test_non_utf8_input_files_exit_1(pool_dir, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe[")
    manifest = str(pool_dir / "manifest.json")
    for argv in (["synth", "--config", str(bad), "--out-dir", str(tmp_path / "p")],
                 ["select", "--pool", manifest, "--method", "fq", "--rules-in", str(bad)],
                 ["report", "--pool", manifest, "--in", str(bad)]):
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("command", ["consensus", "report"])
@pytest.mark.parametrize("defect", ["two-columns", "one-row-two-columns", "empty-train",
                                    "empty-labels"])
def test_bad_integer_files_exit_1(pool_dir, tmp_path, capsys, command, defect):
    manifest = pool_dir / "manifest.json"
    train = tmp_path / "train.txt"
    train.write_text({"two-columns": "1 2\n3 4\n", "one-row-two-columns": "1 2\n",
                      "empty-train": ""}.get(defect, "1\n2\n"))
    if defect == "empty-labels":
        (pool_dir / "empty.txt").write_text("")
        manifest = _bad_manifest(pool_dir, defect, lambda d: d.update(labels="empty.txt"))
    if command == "consensus":
        argv = ["consensus", "--pool", str(manifest), "--team", "01",
                "--method", "boosting"]
    else:
        selected = tmp_path / "sel.json"
        selected.write_text(json.dumps({"method": "x", "pool_size": 5,
                                        "num_candidates": 26, "teams": ["01"]}))
        argv = ["report", "--pool", str(manifest), "--in", str(selected),
                "--consensus", "boosting"]
    assert main(argv + ["--train-indices", str(train)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


@pytest.mark.parametrize("command", ["consensus", "report"])
@pytest.mark.parametrize("gamma", ["nan", "-inf"])
def test_boosting_gamma_must_be_finite(pool_dir, tmp_path, capsys, command, gamma):
    manifest = str(pool_dir / "manifest.json")
    if command == "consensus":
        argv = ["consensus", "--pool", manifest, "--team", "01", "--method", "boosting"]
    else:
        selected = tmp_path / "sel.json"
        selected.write_text(json.dumps({"method": "x", "pool_size": 5,
                                        "num_candidates": 26, "teams": ["01"]}))
        argv = ["report", "--pool", manifest, "--in", str(selected),
                "--consensus", "boosting"]
    assert main(argv + [f"--gamma={gamma}"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


def test_negative_seed_exits_1(pool_dir, capsys):
    manifest = str(pool_dir / "manifest.json")
    for argv in (["select", "--pool", manifest, "--method", "q"],
                 ["diversity", "--pool", manifest],
                 ["query", "--pool", manifest, "--team", "023"]):
        assert main(argv + ["--seed", "-1"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:"), argv
    # fq and eq draw focal negatives on derived 64-bit seeds, never negative
    for method in ("fq", "eq"):
        assert main(["select", "--pool", manifest, "--method", method,
                     "--seed", "-1"]) == 0


@pytest.mark.parametrize("threads", ["0", "-2"])
def test_threads_below_one_is_usage_error(pool_dir, tmp_path, capsys, threads):
    manifest = str(pool_dir / "manifest.json")
    selected = tmp_path / "sel.json"
    selected.write_text(json.dumps({"method": "x", "pool_size": 5,
                                    "num_candidates": 26, "teams": ["01"]}))
    for argv in (["report", "--pool", manifest, "--in", str(selected)],
                 ["recommend", "--pool", manifest, "--method", "q"],
                 ["query", "--pool", manifest, "--team", "023"]):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--threads", threads])
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err


def test_eq_rejects_repeated_metric(pool_dir, tmp_path, capsys):
    rules = tmp_path / "rules.json"
    assert main(["select", "--pool", str(pool_dir / "manifest.json"), "--method", "eq",
                 "--eq-metrics", "bd,kw,BD", "--rules-out", str(rules)]) == 1
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "--eq-metrics" in err[0]
    assert captured.out == "" and not rules.exists()


def test_diversity_rejects_empty_team(pool_dir, capsys):
    assert main(["diversity", "--pool", str(pool_dir / "manifest.json"),
                 "--team", ""]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: empty team string\n" and captured.out == ""


@pytest.mark.parametrize("flags", [["--sampling", "focal", "--focal", "3"],
                                   ["--sampling", "all"], ["--focal", "3"]])
def test_focal_selection_rejects_sampling_flags(pool_dir, capsys, flags):
    # fq and eq draw one negative set per focal model; a single-set
    # sampling choice would be silently ignored
    manifest = str(pool_dir / "manifest.json")
    for command in ("select", "recommend"):
        for method in ("fq", "eq"):
            assert main([command, "--pool", manifest, "--method", method, *flags]) == 1
            captured = capsys.readouterr()
            err = captured.err.splitlines()
            assert len(err) == 1 and err[0].startswith("error:"), (command, method)
            assert "--sampling" in err[0] and "--focal" in err[0]
            assert captured.out == ""


SET_REPORT_KEYS = ["method", "num_candidates", "num_selected", "acc_min", "acc_max",
                   "acc_mean", "acc_std", "pool_max_accuracy", "num_beats_members",
                   "pct_beats_members", "num_beats_pool", "pct_beats_pool", "best_team",
                   "best_accuracy"]
TEAM_ROW_KEYS = ["team", "size", "ensemble_accuracy", "member_max_accuracy",
                 "member_max_id", "pool_max_accuracy", "improvement", "beats_members",
                 "beats_pool", "diversity"]


def test_json_records_keep_documented_key_order(pool_dir, tmp_path, capsys):
    manifest = str(pool_dir / "manifest.json")
    selected = tmp_path / "sel.json"
    assert main(["select", "--pool", manifest, "--method", "fq",
                 "--out", str(selected)]) == 0
    assert main(["report", "--pool", manifest, "--in", str(selected)]) == 0
    reports = json.loads(capsys.readouterr().out)["reports"]
    assert main(["recommend", "--pool", manifest, "--method", "eq"]) == 0
    reports += json.loads(capsys.readouterr().out)["reports"]
    assert len(reports) == 4
    for rep in reports:
        assert list(rep) == SET_REPORT_KEYS
    assert main(["query", "--pool", manifest, "--team", "023"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert list(data["summary"]) == SET_REPORT_KEYS
    for row in data["teams"]:
        assert list(row) == TEAM_ROW_KEYS


def _one_error_line(capsys) -> str:
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), captured.err
    assert captured.out == ""
    return err[0]


def test_focal_needs_focal_sampling(pool_dir, capsys):
    # a focal model the scheme does not use would label or select on
    # negatives it does not describe
    manifest = str(pool_dir / "manifest.json")
    for argv in (["diversity", "--pool", manifest],
                 ["diversity", "--pool", manifest, "--sampling", "all"],
                 ["select", "--pool", manifest, "--method", "q"],
                 ["recommend", "--pool", manifest, "--method", "q"]):
        assert main(argv + ["--focal", "3"]) == 1, argv
        assert "focal" in _one_error_line(capsys)


def test_diversity_team_refuses_team_size(pool_dir, capsys):
    # --team scores one team; a size filter on the enumeration would be ignored
    argv = ["diversity", "--pool", str(pool_dir / "manifest.json"), "--team", "012"]
    assert main(argv + ["--team-size", "2"]) == 1
    assert "--team-size" in _one_error_line(capsys)
    assert main(argv) == 0


@pytest.mark.parametrize("command, kind", [("consensus", "soft"), ("report", "majority"),
                                           ("recommend", "plurality"), ("query", "soft")])
def test_train_indices_need_boosting(pool_dir, tmp_path, capsys, command, kind):
    # refused before the file is opened, so a missing path shows the flag rule
    manifest = str(pool_dir / "manifest.json")
    selected = tmp_path / "sel.json"
    selected.write_text(json.dumps({"method": "x", "pool_size": 5,
                                    "num_candidates": 26, "teams": ["01"]}))
    argv = {"consensus": ["consensus", "--pool", manifest, "--team", "01", "--method", kind],
            "report": ["report", "--pool", manifest, "--in", str(selected),
                       "--consensus", kind],
            "recommend": ["recommend", "--pool", manifest, "--method", "q",
                          "--consensus", kind],
            "query": ["query", "--pool", manifest, "--team", "012", "--consensus", kind],
            }[command]
    assert main(argv + ["--train-indices", str(tmp_path / "missing.txt")]) == 1
    err = _one_error_line(capsys)
    assert err == f"error: --train-indices needs boosting consensus, not {kind}"


def test_diversity_context_names_focal_and_seed(pool_dir, capsys):
    manifest = pool_dir / "manifest.json"
    neg = build_negative_set(correctness(load_pool(manifest)), "focal",
                             DEFAULT_SAMPLE_SIZE, 9, focal=2)
    assert main(["diversity", "--pool", str(manifest), "--sampling", "focal",
                 "--focal", "2", "--seed", "9"]) == 0
    assert json.loads(capsys.readouterr().out)["context"] == f"focal:2[n={len(neg)},seed=9]"


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_probability_exits_1(pool_dir, capsys, value):
    # NaN fails both "< 0" and "> 1", and at the predicted class it also
    # passes the row-sum and argmax checks
    rows = (pool_dir / "model_0_probs.csv").read_text().splitlines()
    pred = int((pool_dir / "model_0_pred.txt").read_text().split()[3])
    cells = rows[3].split(",")
    cells[pred] = value
    rows[3] = ",".join(cells)
    (pool_dir / f"probs-{value}.csv").write_text("\n".join(rows) + "\n")
    manifest = _bad_manifest(pool_dir, f"probs-{value}",
                             lambda d: d["models"][0].update(probs=f"probs-{value}.csv"))
    assert main(["consensus", "--pool", str(manifest), "--team", "01",
                 "--method", "soft"]) == 1
    err = _one_error_line(capsys)
    assert f"probs-{value}.csv, row 3" in err


@pytest.mark.parametrize("name, mutate", [
    ("array", lambda c: [c]),
    ("float-num-models", lambda c: {**c, "num_models": 5.7}),
    ("text-num-models", lambda c: {**c, "num_models": "5"}),
    ("float-num-samples", lambda c: {**c, "num_samples": 800.0}),
    ("bool-num-classes", lambda c: {**c, "num_classes": True}),
    ("text-seed", lambda c: {**c, "seed": "13"}),
    ("float-member", lambda c: {**c, "groups": [{"members": [1.9, 3], "overlap": 0.9}]}),
    ("text-accuracy", lambda c: {**c, "accuracies": ["0.95", 0.92, 0.9, 0.9, 0.87]}),
])
def test_synth_config_field_types(tmp_path, capsys, name, mutate):
    # int() would truncate 5.7 to 5 and read "5" and true as integers
    config = tmp_path / "synth.json"
    config.write_text(json.dumps(mutate(SYNTH_CONFIG)))
    assert main(["synth", "--config", str(config), "--out-dir", str(tmp_path / "p")]) == 1
    assert "synth config" in _one_error_line(capsys)
    assert not (tmp_path / "p").exists()


def test_synth_out_of_memory_exits_1(tmp_path, capsys):
    # numpy cannot allocate 10**15 labels; that is an error line, not a traceback
    config = tmp_path / "synth.json"
    config.write_text(json.dumps({**SYNTH_CONFIG, "num_samples": 10**15}))
    assert main(["synth", "--config", str(config), "--out-dir", str(tmp_path / "p")]) == 1
    assert "allocate" in _one_error_line(capsys)
    assert not (tmp_path / "p").exists()


def test_stored_rules_must_cover_every_rule_cell(pool_dir, tmp_path, capsys):
    manifest = str(pool_dir / "manifest.json")
    rules = tmp_path / "rules.json"
    assert main(["select", "--pool", manifest, "--method", "fq", "--metric", "gd",
                 "--team-size", "2", "--rules-out", str(rules),
                 "--out", str(tmp_path / "sel.json")]) == 0
    base = ["select", "--pool", manifest, "--method", "fq", "--metric", "gd",
            "--out", str(tmp_path / "o.json")]
    # rules of size 2 only: the first uncovered (focal, size) cell is (0, 3)
    assert main(base + ["--rules-in", str(rules)]) == 1
    assert _one_error_line(capsys) == "error: no rule for focal 0, team size 3"
    # with (1, 2) and (0, 4) missing, the error names (0, 4), not team 01's (1, 2)
    assert main(["select", "--pool", manifest, "--method", "fq", "--metric", "gd",
                 "--rules-out", str(rules), "--out", str(tmp_path / "sel.json")]) == 0
    recs = [r for r in json.loads(rules.read_text())
            if (r["focal"], r["size"]) not in ((1, 2), (0, 4))]
    rules.write_text(json.dumps(recs))
    assert main(base + ["--rules-in", str(rules)]) == 1
    assert _one_error_line(capsys) == "error: no rule for focal 0, team size 4"


@pytest.mark.parametrize("key, value", [("keep_all", "false"), ("keep_all", 0),
                                        ("cutoff", "0.5"), ("cutoff", True),
                                        ("focal", True), ("size", 3.0)])
def test_rules_field_types(pool_dir, tmp_path, capsys, key, value):
    # bool("false") is True, so a string keep_all would keep every team
    manifest = str(pool_dir / "manifest.json")
    rules = tmp_path / "rules.json"
    assert main(["select", "--pool", manifest, "--method", "fq", "--metric", "gd",
                 "--rules-out", str(rules), "--out", str(tmp_path / "sel.json")]) == 0
    recs = [{**rec, key: value} for rec in json.loads(rules.read_text())]
    rules.write_text(json.dumps(recs))
    assert main(["select", "--pool", manifest, "--method", "fq", "--metric", "gd",
                 "--rules-in", str(rules)]) == 1
    assert repr(key) in _one_error_line(capsys)


@pytest.mark.parametrize("key, value", [("pool_size", 5.9), ("pool_size", True),
                                        ("num_candidates", "26"), ("method", 7),
                                        ("scores", ["0.5"])])
def test_selected_set_field_types(pool_dir, tmp_path, capsys, key, value):
    # int() would truncate a pool_size of 5.9 to 5
    selected = tmp_path / "sel.json"
    doc = {"method": "x", "pool_size": 5, "num_candidates": 26, "teams": ["01"],
           "scores": [0.5]}
    selected.write_text(json.dumps({**doc, key: value}))
    assert main(["report", "--pool", str(pool_dir / "manifest.json"),
                 "--in", str(selected)]) == 1
    assert "malformed selected-set JSON" in _one_error_line(capsys)


def _unread_probs_manifest(pool_dir, defect):
    """The fixture manifest with model 0's probability file corrupt or missing,
    and the error line of a command that reads it."""
    if defect == "nan-row":
        rows = (pool_dir / "model_0_probs.csv").read_text().splitlines()
        rows[3] = ",".join(["nan"] * len(rows[3].split(",")))
        (pool_dir / "probs-nan-row.csv").write_text("\n".join(rows) + "\n")
        error = (f"error: probs file {pool_dir / 'probs-nan-row.csv'}, row 3: "
                 "entry nan outside [0, 1]")
    else:
        error = (f"error: probs file for model 'synth_0' not found: "
                 f"{pool_dir / 'probs-missing.csv'}")
    path = _bad_manifest(pool_dir, f"probs-{defect}",
                         lambda d: d["models"][0].update(probs=f"probs-{defect}.csv"))
    return str(path), error


@pytest.mark.parametrize("defect", ["nan-row", "missing"])
def test_probability_files_read_only_by_probability_votes(pool_dir, tmp_path, capsys,
                                                          defect):
    # scoring, selection, majority and plurality use predicted labels only
    bad, error = _unread_probs_manifest(pool_dir, defect)
    clean = str(pool_dir / "manifest.json")
    selected = str(tmp_path / "sel.json")
    assert main(["select", "--pool", clean, "--method", "fq", "--out", selected]) == 0
    for argv in (["select", "--method", "eq", "--seed", "3"],
                 ["select", "--method", "q", "--metric", "kw", "--sampling", "focal",
                  "--focal", "2"],
                 ["diversity", "--metric", "bd", "--format", "csv"],
                 ["report", "--in", selected, "--consensus", "majority"],
                 ["recommend", "--method", "fq", "--consensus", "plurality",
                  "--format", "table"],
                 ["query", "--team", "0134", "--consensus", "majority"],
                 ["consensus", "--team", "014", "--method", "plurality"]):
        assert main(argv + ["--pool", clean]) == 0, argv
        expected = capsys.readouterr().out
        assert main(argv + ["--pool", bad]) == 0, argv
        captured = capsys.readouterr()
        assert captured.out == expected and captured.err == "", argv
    # soft and boosting read every probability file, even of non-members
    for argv in (["consensus", "--team", "014", "--method", "soft"],
                 ["consensus", "--team", "23", "--method", "boosting"],
                 ["report", "--in", selected, "--consensus", "boosting"],
                 ["recommend", "--method", "q"],
                 ["query", "--team", "123", "--consensus", "soft"]):
        assert main(argv + ["--pool", bad]) == 1, argv
        assert _one_error_line(capsys) == error, argv


def test_probs_entry_type_checked_without_reading_probabilities(pool_dir, capsys):
    path = _bad_manifest(pool_dir, "probs-number",
                         lambda d: d["models"][0].update(probs=5))
    for argv in (["select", "--method", "fq"], ["diversity"]):
        assert main(argv + ["--pool", str(path)]) == 1, argv
        assert _one_error_line(capsys) == (f"error: manifest {path}, model 0: "
                                           "'probs' must be a string, got 5")


def test_closed_stdout_pipe_exits_quietly():
    src = Path(__file__).resolve().parent.parent / "src"
    with subprocess.Popen([sys.executable, "-m", "divsel.cli", "enumerate", "--pool-size",
                           "16", "--list"], env=dict(os.environ, PYTHONPATH=str(src)),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as proc:
        assert proc.stdout.readline() == "65519\n"
        proc.stdout.close()  # as `| head -1` does; 65,519 keys overfill the pipe
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 1
    assert err == ""
