"""The benchmark's tracer finds every function it wraps, and reads its calls.

``perfbench/tracer.py`` wraps functions by name where the CLI looks them
up; a name that disappears is recorded as missing and its time silently
leaves ``trace.coverage``.  Its counters read the wrapped call's
arguments, and a signature they no longer fit silently reads as no
counts.  These tests make either drift fail instead.  A change that
retires a hook from the benchmark updates ``EXPECTED_MISSING``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from divsel.diversity import MetricId
from divsel.pool import CorrectnessMatrix
from divsel.sampling import focal_negative_sets
from divsel.selection import FocalScoreTable, learn_fq_rules
from divsel.teaming import enumerate_teams

ROOT = Path(__file__).resolve().parent.parent

# the tracer still wraps this CLI-level name, which the CLI no longer imports
EXPECTED_MISSING = ["divsel.cli.evaluate_set"]

PROBE = """
import json, tracer
t = tracer.Tracer("t")
tracer.install(t)
print(json.dumps({"missing": t.missing, "tallies": sorted(t.tallies)}))
"""


def test_tracer_hooks_resolve():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", PROBE], cwd=ROOT / "perfbench", env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    hooks = json.loads(proc.stdout)
    assert hooks["missing"] == EXPECTED_MISSING
    assert hooks["tallies"] == ["divsel.cli.diversity_score", "divsel.selection.raw_score"]


LEARN_PROBE = """
import json, tracer
import numpy as np
t = tracer.Tracer("t")
tracer.install(t)
import divsel.cli as cli
from divsel.pool import CorrectnessMatrix
rows = np.array(json.loads(input()), dtype=np.uint8)
corr = CorrectnessMatrix(omega=rows, accuracies=rows.mean(axis=1))
cands = cli.enumerate_teams(rows.shape[0])
table = cli.FocalScoreTable(cli.MetricId.BD, cands, corr,
                            cli.focal_negative_sets(corr, 20, 4))
cli.learn_fq_rules(cli.MetricId.BD, cands, table)
print(json.dumps([s["counts"] for s in t.spans if s["name"] == "selection.learn_fq_rules.bd"]))
"""


def test_tracer_counts_rule_learning():
    rng = np.random.default_rng(11)
    rows = rng.integers(0, 2, size=(5, 50))
    rows[1] = 1  # never errs: no scores, keep-all cells
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", LEARN_PROBE], cwd=ROOT / "perfbench",
                          env=env, input=json.dumps(rows.tolist()), capture_output=True,
                          text=True, timeout=60, check=True)
    [counts] = json.loads(proc.stdout)

    corr = CorrectnessMatrix(omega=rows.astype(np.uint8), accuracies=rows.mean(axis=1))
    cands = enumerate_teams(5)
    table = FocalScoreTable(MetricId.BD, cands, corr, focal_negative_sets(corr, 20, 4))
    rules = learn_fq_rules(MetricId.BD, cands, table)
    expected = {
        # every (team, member) pair whose member errs somewhere
        "scores": sum(f != 1 for t in cands for f in t.members),
        # one cell per (focal, size) for sizes 2..5
        "rule_cells": 5 * 4,
        "keep_all_cells": sum(r.keep_all for r in rules),
    }
    assert counts == expected
    assert all(v > 0 for v in expected.values())


SCORE_PROBE = """
import json, tracer
import numpy as np
t = tracer.Tracer("t")
tracer.install(t)
import divsel.cli as cli
from divsel.pool import CorrectnessMatrix
rows = np.array(json.loads(input()), dtype=np.uint8)
corr = CorrectnessMatrix(omega=rows, accuracies=rows.mean(axis=1))
cands = cli.enumerate_teams(rows.shape[0])
neg_sets = cli.focal_negative_sets(corr, 20, 4)
for metric in (cli.MetricId.BD, cli.MetricId.GD):
    cli.FocalScoreTable(metric, cands, corr, neg_sets)
span_names = {s["id"]: s["name"] for s in t.spans}
print(json.dumps(sorted([r["name"], span_names.get(r["parent"]), r["calls"]]
                        for r in t.tally_records())))
"""


def test_tracer_tallies_one_raw_score_call_per_focal():
    rng = np.random.default_rng(11)
    rows = rng.integers(0, 2, size=(5, 50))
    rows[1] = 1  # never errs: no negatives, no call
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", SCORE_PROBE], cwd=ROOT / "perfbench",
                          env=env, input=json.dumps(rows.tolist()), capture_output=True,
                          text=True, timeout=60, check=True)
    corr = CorrectnessMatrix(omega=rows.astype(np.uint8), accuracies=rows.mean(axis=1))
    focals = len(focal_negative_sets(corr, 20, 4))
    assert focals == 4
    assert json.loads(proc.stdout) == [
        ["diversity.raw_score.pairwise", "selection.FocalScoreTable", focals],
        ["diversity.raw_score.team", "selection.FocalScoreTable", focals],
    ]


VOTE_PROBE = """
import json, tracer
t = tracer.Tracer("t")
tracer.install(t)
import divsel.cli as cli
from divsel.synth import SynthConfig, generate_pool
pool = generate_pool(SynthConfig(num_models=4, num_samples=60, num_classes=3,
                                 accuracies=(0.8, 0.7, 0.7, 0.6), seed=5))
corr = cli.correctness(pool)
cands = cli.enumerate_teams(pool.num_models)
for kind, threads in (("soft", 1), ("boosting", 2), ("majority", 1), ("plurality", 2)):
    cli.evaluate_teams(cands, pool, corr, cli.ConsensusMethod(kind), threads=threads)
by_id = {s["id"]: s for s in t.spans}
def ancestors(span):
    while span["parent"] in by_id:
        span = by_id[span["parent"]]
        yield span["id"]
predicts = [s for s in t.spans if s["name"] == "consensus.predict"]
print(json.dumps({"candidates": len(cands), "predicts": len(predicts),
                  "per_call": [sum(s["id"] in ancestors(p) for p in predicts)
                               for s in t.spans if s["name"] == "evaluation.evaluate_teams"]}))
"""


def test_tracer_spans_one_vote_per_candidate_under_evaluate_teams():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", VOTE_PROBE], cwd=ROOT / "perfbench",
                          env=env, capture_output=True, text=True, timeout=60, check=True)
    got = json.loads(proc.stdout)
    k = got["candidates"]
    assert k == 11
    # soft and majority on 1 thread, boosting and plurality on 2: every
    # method votes through the spanned predict, nested in its call
    assert got == {"candidates": k, "predicts": 4 * k, "per_call": [k, k, k, k]}
