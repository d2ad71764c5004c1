"""Property and fuzz tests of the CLI's evaluation path and its JSON inputs.

The selected-set report of ``report`` and ``recommend`` must equal a
summary over an independent evaluation of the selected teams, for every
consensus method and thread count.  Corrupted manifest, rules,
selected-set and synth-config JSON, and corrupted label and probability
files, must end in exit 1 and an ``error:`` line, never a traceback.
"""

import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from divsel.cli import main
from divsel.consensus import DEFAULT_GAMMA, METHODS, ConsensusMethod, predict
from divsel.evaluation import evaluate_teams, summarize
from divsel.pool import correctness, load_pool
from divsel.report import set_report_to_dict
from divsel.teaming import CandidateSet, enumerate_teams, parse_team

from oracles import o_boosting_vote, o_boosting_weights

PROPERTY_SETTINGS = settings(max_examples=12, deadline=None, derandomize=True,
                             suppress_health_check=[HealthCheck.too_slow])
FUZZ_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)

POOL5 = {
    "dataset": "prop-test",
    "num_models": 5,
    "num_samples": 300,
    "num_classes": 4,
    "accuracies": [0.9, 0.85, 0.8, 0.8, 0.75],
    "groups": [{"members": [2, 3], "overlap": 0.8}],
    "seed": 5,
}
POOL3 = {
    "dataset": "fuzz-test",
    "num_models": 3,
    "num_samples": 120,
    "num_classes": 3,
    "accuracies": [0.9, 0.8, 0.7],
    "seed": 2,
}


def _run(argv):
    """Run the CLI in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _synth(root, config):
    (root / "synth.json").write_text(json.dumps(config))
    assert main(["synth", "--config", str(root / "synth.json"),
                 "--out-dir", str(root / "pool")]) == 0
    return root / "pool" / "manifest.json"


@pytest.fixture(scope="module")
def pool5(tmp_path_factory):
    root = tmp_path_factory.mktemp("prop-pool")
    manifest = _synth(root, POOL5)
    train = root / "train.txt"
    train.write_text("".join(f"{i}\n" for i in (250, 3, 77, 140, 9, 201, 64, 180)))
    pool = load_pool(manifest)
    return {"root": root, "manifest": manifest, "train": train,
            "pool": pool, "corr": correctness(pool)}


def _method_args(kind, ctx):
    args = ["--consensus", kind]
    if kind == "boosting":
        args += ["--train-indices", str(ctx["train"])]
    return args


def _independent_report(ctx, kind, label, team_keys, candidate_count):
    train = np.loadtxt(ctx["train"], dtype=np.int64) if kind == "boosting" else None
    method = ConsensusMethod(kind, train_indices=train)
    teams = CandidateSet.of([parse_team(k) for k in team_keys], ctx["pool"].num_models)
    evals = evaluate_teams(teams, ctx["pool"], ctx["corr"], method)
    return set_report_to_dict(summarize(label, evals, candidate_count,
                                        float(ctx["corr"].accuracies.max())))


@PROPERTY_SETTINGS
@given(kind=st.sampled_from(METHODS), threads=st.sampled_from([1, 2]),
       picks=st.lists(st.integers(0, 25), unique=True, max_size=8))
def test_report_selected_set_matches_independent_evaluation(pool5, kind, threads, picks):
    cands = [t.key for t in enumerate_teams(5)]
    keys = [cands[i] for i in picks]
    selected = pool5["root"] / "selected.json"
    selected.write_text(json.dumps({"method": "picked", "pool_size": 5,
                                    "num_candidates": 26, "teams": keys}))
    code, out, _ = _run(["report", "--pool", str(pool5["manifest"]), "--in", str(selected),
                         "--threads", str(threads), *_method_args(kind, pool5)])
    assert code == 0
    baseline, chosen = json.loads(out)["reports"]
    assert chosen == _independent_report(pool5, kind, "picked", keys, 26)
    assert baseline == _independent_report(pool5, kind, "baseline", cands, 26)


@PROPERTY_SETTINGS
@given(kind=st.sampled_from(METHODS), threads=st.sampled_from([1, 2]),
       method=st.sampled_from(["q", "fq"]), seed=st.integers(0, 50),
       team_size=st.sampled_from([None, 2, 3]))
def test_recommend_selected_set_matches_independent_evaluation(pool5, kind, threads,
                                                               method, seed, team_size):
    argv = ["recommend", "--pool", str(pool5["manifest"]), "--method", method,
            "--metric", "kw", "--seed", str(seed), "--threads", str(threads),
            *_method_args(kind, pool5)]
    if team_size is not None:
        argv += ["--team-size", str(team_size)]
    code, out, _ = _run(argv)
    assert code == 0
    data = json.loads(out)
    baseline, chosen = data["reports"]
    cands = [t.key for t in enumerate_teams(5, team_size)]
    sel = data["selection"]
    assert chosen == _independent_report(pool5, kind, sel["method"], sel["teams"],
                                         len(cands))
    assert baseline == _independent_report(pool5, kind, "baseline", cands, len(cands))


def test_boosting_vote_same_with_walked_weights(pool5):
    """Closed-form boosting weights vote as walked weights do on every candidate."""
    pool = pool5["pool"]
    preds = [m.pred_labels.tolist() for m in pool.models]
    labels = pool.labels.tolist()
    fixture_train = np.loadtxt(pool5["train"], dtype=np.int64)
    for train in (fixture_train, None):
        method = ConsensusMethod("boosting", train_indices=train)
        walk_train = range(pool.num_samples) if train is None else train.tolist()
        for t in enumerate_teams(5):
            walked = o_boosting_weights([preds[i] for i in t.members], labels, walk_train,
                                        DEFAULT_GAMMA)
            probs = [pool.models[i].probs.tolist() for i in t.members]
            assert predict(t, pool, method).labels.tolist() == o_boosting_vote(probs, walked)


# ---------------------------------------------------------------- fuzz

# no "/" in any text: a replaced path stays inside the pool directory
texts = st.text(st.characters(blacklist_characters="/"), max_size=5)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-5, 30) | st.floats() | texts,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(texts, inner, max_size=3),
    max_leaves=6,
)
path_texts = st.text("abc._", max_size=8)
# JSON true and false are not integers
non_ints = json_values.filter(lambda v: isinstance(v, bool) or not isinstance(v, int))
non_numbers = json_values.filter(lambda v: isinstance(v, bool)
                                 or not isinstance(v, (int, float)))
non_strs = json_values.filter(lambda v: not isinstance(v, str))


@pytest.fixture(scope="module")
def fuzz_ctx(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz-pool")
    manifest = _synth(root, POOL3)
    rules, selected = root / "rules.json", root / "selected.json"
    assert main(["select", "--pool", str(manifest), "--method", "fq", "--metric", "gd",
                 "--rules-out", str(rules), "--out", str(root / "fq.json")]) == 0
    assert main(["select", "--pool", str(manifest), "--method", "q", "--metric", "gd",
                 "--out", str(selected)]) == 0
    return {"manifest": json.loads(manifest.read_text()), "pool_dir": manifest.parent,
            "rules": json.loads(rules.read_text()),
            "selected": json.loads(selected.read_text())}


def _assert_typed_failure(argv):
    code, _, err = _run(argv)
    assert code == 1
    assert any(line.startswith("error:") for line in err.splitlines())
    assert "Traceback" not in err


@st.composite
def bad_manifests(draw, base):
    doc = json.loads(json.dumps(base))
    model = doc["models"][draw(st.integers(0, len(doc["models"]) - 1))]
    kind = draw(st.sampled_from(["whole", "drop", "drop_model_key", "num_classes",
                                 "labels", "models", "entry", "id", "path"]))
    if kind == "whole":
        return draw(json_values)
    if kind == "drop":
        del doc[draw(st.sampled_from(["dataset", "num_classes", "labels", "models"]))]
    elif kind == "drop_model_key":
        del model[draw(st.sampled_from(["id", "pred_labels"]))]
    elif kind == "num_classes":
        doc["num_classes"] = draw(non_ints | st.integers(-5, 30).filter(lambda v: v != 3))
    elif kind == "labels":
        doc["labels"] = draw(non_strs | path_texts.filter(lambda v: v != base["labels"]))
    elif kind == "models":
        doc["models"] = draw(json_values.filter(lambda v: not isinstance(v, list)))
    elif kind == "entry":
        doc["models"][0] = draw(json_values.filter(lambda v: not isinstance(v, dict)))
    elif kind == "id":
        new = draw(non_ints | st.integers(-5, 30))
        assume(new != model["id"])
        model["id"] = new
    else:
        key = draw(st.sampled_from(["pred_labels", "probs"]))
        new = draw(json_values | path_texts)
        assume(new != model[key])
        model[key] = new
    return doc


@FUZZ_SETTINGS
@given(data=st.data())
def test_fuzzed_manifest_fails_typed(fuzz_ctx, data):
    doc = data.draw(bad_manifests(fuzz_ctx["manifest"]))
    path = fuzz_ctx["pool_dir"] / "fuzzed.json"
    path.write_text(json.dumps(doc))
    _assert_typed_failure(["consensus", "--pool", str(path), "--team", "012",
                           "--method", "soft"])


@st.composite
def bad_rules(draw, base):
    doc = json.loads(json.dumps(base))
    pos = draw(st.integers(0, len(doc) - 1))
    rec = doc[pos]
    kind = draw(st.sampled_from(["whole", "drop_record", "drop_key", "metric", "focal",
                                 "size", "cutoff", "keep_all"]))
    if kind == "whole":
        return draw(json_values)
    if kind == "drop_record":
        del doc[pos]
    elif kind == "drop_key":
        del rec[draw(st.sampled_from(["metric", "cutoff"]))]
    elif kind == "metric":
        new = draw(json_values | st.sampled_from(["ck", "qs", "bd", "fk", "kw"]))
        assume(not (isinstance(new, str) and new.strip().lower() == "gd"))
        rec["metric"] = new
    elif kind == "focal":
        rec["focal"] = draw(non_ints | st.integers(-5, 30).filter(lambda v: not 0 <= v < 3))
    elif kind == "size":
        new = draw(json_values)
        assume(new != rec["size"])
        rec["size"] = new
    elif kind == "cutoff":
        rec["cutoff"] = draw(st.sampled_from([None, [], {}, "x", "0.5", True, float("inf"),
                                              float("-inf"), float("nan")]))
    else:
        rec["keep_all"] = draw(json_values.filter(lambda v: not isinstance(v, bool)))
    return doc


@FUZZ_SETTINGS
@given(data=st.data())
def test_fuzzed_rules_fail_typed(fuzz_ctx, data):
    path = fuzz_ctx["pool_dir"] / "fuzzed-rules.json"
    path.write_text(json.dumps(data.draw(bad_rules(fuzz_ctx["rules"]))))
    _assert_typed_failure(["select", "--pool", str(fuzz_ctx["pool_dir"] / "manifest.json"),
                           "--method", "fq", "--metric", "gd", "--rules-in", str(path)])


@st.composite
def bad_selected_sets(draw, base):
    doc = json.loads(json.dumps(base))
    kind = draw(st.sampled_from(["whole", "drop", "pool_size", "foreign_team", "teams",
                                 "scores"]))
    if kind == "whole":
        return draw(json_values)
    if kind == "drop":
        del doc[draw(st.sampled_from(["method", "teams", "pool_size", "num_candidates"]))]
    elif kind == "pool_size":
        doc["pool_size"] = draw(st.integers(-5, 30).filter(lambda v: v != 3)
                                | st.sampled_from([None, [], {}, "x"]))
    elif kind == "foreign_team":
        foreign = st.sampled_from(["0-11", "03", "0", "00", "", "ab", 7, None])
        doc["teams"].append(draw(foreign | st.integers(3, 30).map(lambda m: f"0-{m}")))
        doc["scores"].append(0.0)
    elif kind == "teams":
        doc["teams"] = draw(st.sampled_from([None, 5, 2.5, True]))
    else:
        new = draw(json_values)
        # None means "no scores", and any sized value could hold one number per team
        assume(new is not None and not (hasattr(new, "__len__")
                                        and len(new) == len(doc["teams"])))
        doc["scores"] = new
    return doc


@FUZZ_SETTINGS
@given(data=st.data())
def test_fuzzed_selected_set_fails_typed(fuzz_ctx, data):
    path = fuzz_ctx["pool_dir"] / "fuzzed-selected.json"
    path.write_text(json.dumps(data.draw(bad_selected_sets(fuzz_ctx["selected"]))))
    _assert_typed_failure(["report", "--pool", str(fuzz_ctx["pool_dir"] / "manifest.json"),
                           "--in", str(path)])


@st.composite
def bad_synth_configs(draw, base):
    doc = json.loads(json.dumps(base))
    doc["groups"] = [{"members": [0, 1], "overlap": 0.5}]
    kind = draw(st.sampled_from(["whole", "drop", "count", "seed", "accuracies",
                                 "accuracy", "groups", "group", "members", "member",
                                 "overlap"]))
    if kind == "whole":
        return draw(json_values.filter(lambda v: not isinstance(v, dict)))
    group = doc["groups"][0]
    if kind == "drop":
        del doc[draw(st.sampled_from(["num_models", "num_samples", "num_classes",
                                      "accuracies"]))]
    elif kind == "count":
        doc[draw(st.sampled_from(["num_models", "num_samples", "num_classes"]))] = \
            draw(non_ints)
    elif kind == "seed":
        doc["seed"] = draw(non_ints)
    elif kind == "accuracies":
        doc["accuracies"] = draw(json_values.filter(lambda v: not isinstance(v, list)))
    elif kind == "accuracy":
        doc["accuracies"][draw(st.integers(0, 2))] = draw(non_numbers)
    elif kind == "groups":
        doc["groups"] = draw(json_values.filter(lambda v: not isinstance(v, list)
                                                or any(not isinstance(g, dict) for g in v)))
    elif kind == "group":
        del group[draw(st.sampled_from(["members", "overlap"]))]
    elif kind == "members":
        group["members"] = draw(json_values.filter(lambda v: not isinstance(v, list)))
    elif kind == "member":
        group["members"][draw(st.integers(0, 1))] = draw(non_ints)
    else:
        group["overlap"] = draw(non_numbers)
    return doc


@FUZZ_SETTINGS
@given(data=st.data())
def test_fuzzed_synth_config_fails_typed(fuzz_ctx, data):
    path = fuzz_ctx["pool_dir"] / "fuzzed-synth.json"
    path.write_text(json.dumps(data.draw(bad_synth_configs(POOL3))))
    _assert_typed_failure(["synth", "--config", str(path),
                           "--out-dir", str(fuzz_ctx["pool_dir"] / "fuzzed-synth")])


@st.composite
def bad_data_files(draw, manifest, pool_dir):
    """A manifest whose labels, predictions or probabilities of one model have one
    row replaced by a non-finite value, a blank line or a ragged row."""
    doc = json.loads(json.dumps(manifest))
    model = doc["models"][draw(st.integers(0, len(doc["models"]) - 1))]
    owner, key = draw(st.sampled_from([(doc, "labels"), (model, "pred_labels"),
                                       (model, "probs")]))
    rows = (pool_dir / owner[key]).read_text().splitlines()
    row = draw(st.integers(0, len(rows) - 1))
    cells = rows[row].split(",")
    kind = draw(st.sampled_from(["value", "blank", "ragged"]))
    if kind == "value":
        cells[draw(st.integers(0, len(cells) - 1))] = draw(
            st.sampled_from(["nan", "NaN", "-nan", "inf", "-inf", "Infinity"]))
        rows[row] = ",".join(cells)
    elif kind == "blank":
        rows[row] = draw(st.sampled_from(["", " ", "\t"]))
    elif key == "probs":
        rows[row] = ",".join(cells[:-1] if draw(st.booleans()) else cells + cells[:1])
    else:
        rows[row] = f"{rows[row]} {rows[row]}"
    owner[key] = f"fuzzed-{key}.txt"
    (pool_dir / owner[key]).write_text("\n".join(rows) + "\n")
    return doc


@FUZZ_SETTINGS
@given(data=st.data())
def test_fuzzed_data_files_fail_typed(fuzz_ctx, data):
    doc = data.draw(bad_data_files(fuzz_ctx["manifest"], fuzz_ctx["pool_dir"]))
    path = fuzz_ctx["pool_dir"] / "fuzzed-files.json"
    path.write_text(json.dumps(doc))
    _assert_typed_failure(["consensus", "--pool", str(path), "--team", "012",
                           "--method", "soft"])
