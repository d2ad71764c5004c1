"""Workloads of the divsel benchmark: seeded inputs, CLI arguments and output checks.

Every input a workload needs is generated here from the benchmark seed:
the synth config of its pool, the ``--seed`` passed to the CLI, the
selected-set file and the boosting train-index file.  Nothing is read
from the repository's ``src/`` or ``tests/`` trees; the divsel program
only ever receives the generated files.

The output checks recompute what they can with numpy straight from the
pool files, independently of divsel:

* the candidate count ``2^M - M - 1`` (for a query, its sub-teams),
* the pool's best single-model accuracy,
* the accuracy of the reported best team, by a direct vote that repeats
  the documented consensus arithmetic,
* that every selected team is a valid candidate.

Byte identity across the runs of one invocation, and against the digests
recorded for the default seed, is checked by ``run.py``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path

import numpy as np

NUM_SAMPLES = 10_000
NUM_CLASSES = 10
# Target accuracies of the 10-model acceptance pool; copied, not imported,
# so the benchmark reads nothing from the test tree.
POOL10_ACCS = (0.9668, 0.9546, 0.9623, 0.9621, 0.9334,
               0.9173, 0.9263, 0.9310, 0.9339, 0.9368)
OVERLAP = 0.8
TRAIN_SIZE = 1000
SELECTED_SIZE = 100
GAMMA = -0.01  # the CLI's default boosting penalty
TOL = 1e-12


def pool_config(num_models: int, synth_seed: int) -> dict:
    """Acceptance-shaped pool: accuracies cycled over M models, groups {0,1} and {5..M-1}."""
    return {
        "dataset": f"bench-m{num_models}",
        "num_models": num_models,
        "num_samples": NUM_SAMPLES,
        "num_classes": NUM_CLASSES,
        "accuracies": [POOL10_ACCS[i % len(POOL10_ACCS)] for i in range(num_models)],
        "groups": [{"members": [0, 1], "overlap": OVERLAP},
                   {"members": list(range(5, num_models)), "overlap": OVERLAP}],
        "seed": synth_seed,
    }


def team_key(members) -> str:
    """Canonical team string: digits while every id is below 10, else dash-separated."""
    if members[-1] <= 9:
        return "".join(str(i) for i in members)
    return "-".join(str(i) for i in members)


def candidates(num_models: int) -> list[tuple[int, ...]]:
    """All subsets of size 2..M, sizes ascending, lexicographic within a size."""
    return [c for size in range(2, num_models + 1)
            for c in combinations(range(num_models), size)]


@dataclass(frozen=True)
class Workload:
    """One benchmark workload; ``BENCHMARK.json`` records why each was chosen."""

    name: str
    num_models: int
    threads: int = 1  # worker threads of the timed command

    @property
    def teams(self) -> int:
        """Teams one invocation handles: candidates, or the sub-teams of a query."""
        m = self.num_models
        return 2 ** m - m - 1


WORKLOADS = {w.name: w for w in (Workload("recommend-m10", 10), Workload("select-m12", 12),
                                 Workload("report-boost-m10", 10, threads=2),
                                 Workload("query-m10", 10))}


@dataclass(frozen=True)
class Inputs:
    """Files and values generated for one workload from one benchmark seed."""

    synth_config: Path
    pool_dir: Path
    cli_seed: int
    selected: Path
    train_indices: Path

    @property
    def manifest(self) -> Path:
        return self.pool_dir / "manifest.json"


def make_inputs(w: Workload, seed: int, work: Path) -> Inputs:
    """Write the workload's seeded input files under ``work``."""
    rng = np.random.default_rng([seed, w.num_models])
    synth_seed = int(rng.integers(2 ** 31))
    cli_seed = int(rng.integers(2 ** 31))
    # unsorted on purpose: the CLI sorts train indices before the boosting walk
    train = rng.choice(NUM_SAMPLES, size=TRAIN_SIZE, replace=False)
    cands = candidates(w.num_models)
    picked = np.sort(rng.choice(len(cands), size=SELECTED_SIZE, replace=False))

    inputs = Inputs(synth_config=work / "synth.json", pool_dir=work / "pool",
                    cli_seed=cli_seed, selected=work / "selected.json",
                    train_indices=work / "train_indices.txt")
    inputs.synth_config.write_text(
        json.dumps(pool_config(w.num_models, synth_seed), indent=2) + "\n")
    inputs.train_indices.write_text("".join(f"{i}\n" for i in train))
    inputs.selected.write_text(json.dumps({
        "method": "bench-random",
        "pool_size": w.num_models,
        "num_candidates": len(cands),
        "teams": [team_key(cands[i]) for i in picked],
        "scores": [0.0] * SELECTED_SIZE,
    }, indent=2) + "\n")
    return inputs


def cli_args(w: Workload, inputs: Inputs) -> list[str]:
    """Arguments of the ``divsel`` invocation this workload times."""
    pool = ["--pool", str(inputs.manifest)]
    if w.name == "recommend-m10":
        return ["recommend", *pool, "--method", "eq", "--consensus", "soft",
                "--seed", str(inputs.cli_seed), "--threads", str(w.threads)]
    if w.name == "select-m12":
        return ["select", *pool, "--method", "eq", "--seed", str(inputs.cli_seed)]
    if w.name == "report-boost-m10":
        return ["report", *pool, "--in", str(inputs.selected), "--consensus", "boosting",
                "--train-indices", str(inputs.train_indices), "--threads", str(w.threads)]
    return ["query", *pool, "--team", team_key(range(w.num_models)),
            "--consensus", "soft", "--seed", str(inputs.cli_seed)]


def synth_args(inputs: Inputs, out_dir: Path | None = None) -> list[str]:
    """Arguments of the ``divsel synth`` set-up; the pool goes to ``inputs.pool_dir``
    unless ``out_dir`` is given."""
    return ["synth", "--config", str(inputs.synth_config),
            "--out-dir", str(out_dir or inputs.pool_dir)]


def manifest_files(manifest: Path) -> list[Path]:
    """The manifest and every file it names."""
    data = json.loads(manifest.read_text())
    names = [data["labels"]]
    for m in data["models"]:
        names += [m["pred_labels"]] + ([m["probs"]] if m.get("probs") else [])
    return [manifest] + [manifest.parent / n for n in names]


# ---------------------------------------------------------------- checks

class PoolFiles:
    """The pool read back with numpy, for recomputing reported values."""

    def __init__(self, manifest: Path):
        data = json.loads(manifest.read_text())
        base = manifest.parent
        self.labels = np.loadtxt(base / data["labels"], dtype=np.int64, ndmin=1)
        self.preds = [np.loadtxt(base / m["pred_labels"], dtype=np.int64, ndmin=1)
                      for m in data["models"]]
        self._probs = {i: base / m["probs"] for i, m in enumerate(data["models"])}
        self._loaded: dict[int, np.ndarray] = {}

    def probs(self, i: int) -> np.ndarray:
        if i not in self._loaded:
            self._loaded[i] = np.loadtxt(self._probs[i], delimiter=",", ndmin=2)
        return self._loaded[i]

    def pool_max_accuracy(self) -> float:
        return max(float(np.mean(p == self.labels)) for p in self.preds)

    def soft_accuracy(self, members) -> float:
        combined = np.zeros_like(self.probs(members[0]))
        for i in members:
            combined += self.probs(i)
        combined /= len(members)
        return float(np.mean(combined.argmax(axis=1) == self.labels))

    def boosting_accuracy(self, members, train: np.ndarray) -> float:
        wrong = np.stack([self.preds[i] != self.labels for i in members])
        penalty = np.exp(GAMMA)
        weights = np.full(len(members), 1.0 / len(members))
        for k in np.sort(train):
            if wrong[:, k].any():
                weights[wrong[:, k]] *= penalty
                weights /= weights.sum()
        combined = np.zeros_like(self.probs(members[0]))
        for w, i in zip(weights, members):
            combined += w * self.probs(i)
        combined /= len(members)
        return float(np.mean(combined.argmax(axis=1) == self.labels))


def _members(key: str) -> tuple[int, ...]:
    return tuple(int(p) for p in (key.split("-") if "-" in key else key))


def _close(a, b) -> bool:
    return a is not None and b is not None and abs(a - b) <= TOL


def check_output(w: Workload, inputs: Inputs, text: str) -> list[str]:
    """Problems found in one CLI output; an empty list means it passed."""
    try:
        out = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"output is not JSON: {exc}"]
    pool = PoolFiles(inputs.manifest)
    valid = {team_key(c) for c in candidates(w.num_models)}
    problems = []

    def expect(ok: bool, what: str):
        if not ok:
            problems.append(what)

    def check_report(rep: dict, accuracy_of):
        expect(rep["num_candidates"] == w.teams, f"num_candidates {rep['num_candidates']}")
        expect(_close(rep["pool_max_accuracy"], pool.pool_max_accuracy()),
               f"pool_max_accuracy {rep['pool_max_accuracy']}")
        if rep["best_team"] is not None:
            best = _members(rep["best_team"])
            expect(_close(rep["best_accuracy"], accuracy_of(best)),
                   f"best team {rep['best_team']} accuracy {rep['best_accuracy']}")

    try:
        if w.name == "recommend-m10":
            base, chosen = out["reports"]
            sel = out["selection"]
            check_report(base, pool.soft_accuracy)
            expect(base["num_selected"] == w.teams, "baseline does not cover every candidate")
            expect(sel["num_candidates"] == w.teams, "selection candidate count")
            expect(set(sel["teams"]) <= valid, "selected team outside the candidates")
            # the selected-set report evaluates exactly the selection's teams
            check_report(chosen, pool.soft_accuracy)
            expect(chosen["method"] == sel["method"], "selected report method")
            expect(chosen["num_selected"] == len(sel["teams"]), "selected report size")
            expect(chosen["best_team"] in sel["teams"], "selected report best team")
            expect(_close(chosen["best_accuracy"],
                          max(pool.soft_accuracy(_members(t)) for t in sel["teams"])),
                   "selected report best accuracy is not the selection's best")
        elif w.name == "select-m12":
            expect(out["num_candidates"] == w.teams, f"num_candidates {out['num_candidates']}")
            expect(out["pool_size"] == w.num_models, "pool_size")
            expect(len(out["teams"]) == len(set(out["teams"])) == len(out["scores"]),
                   "selected teams not unique or not aligned with scores")
            expect(set(out["teams"]) <= valid, "selected team outside the candidates")
        elif w.name == "report-boost-m10":
            train = np.loadtxt(inputs.train_indices, dtype=np.int64, ndmin=1)
            base, chosen = out["reports"]
            check_report(base, lambda m: pool.boosting_accuracy(m, train))
            check_report(chosen, lambda m: pool.boosting_accuracy(m, train))
            expect(base["num_selected"] == w.teams, "baseline does not cover every candidate")
            expect(chosen["num_selected"] == SELECTED_SIZE, "selected report size")
        else:
            summary = out["summary"]
            expect(len(out["teams"]) == w.teams, f"{len(out['teams'])} sub-teams")
            check_report(summary, pool.soft_accuracy)
            expect(summary["num_selected"] == w.teams, "summary size")
            expect(_close(out["teams"][-1]["ensemble_accuracy"],
                          pool.soft_accuracy(tuple(range(w.num_models)))),
                   "full-team accuracy")
            expect(all(row["diversity"] is not None and len(row["diversity"]) == 6
                       for row in out["teams"]), "missing diversity scores")
    except (KeyError, TypeError, ValueError) as exc:
        problems.append(f"unexpected output shape: {exc!r}")
    return problems
