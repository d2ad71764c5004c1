import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from divsel.diversity import raw_score
from divsel.pool import build_pool
from divsel.teaming import EnsembleTeam

# shared 10-sample correctness fixture used across the metric tests
FIXTURE_WI = [1, 1, 1, 1, 0, 0, 1, 0, 1, 1]
FIXTURE_WJ = [1, 0, 1, 1, 1, 0, 1, 0, 0, 1]


def team(*members: int) -> EnsembleTeam:
    """The team of the given model ids, in any order: ``team(2, 0, 5)``."""
    return EnsembleTeam(tuple(sorted(members)))


def team_score(metric, rows) -> float:
    """Raw ``metric`` value of one team's correctness rows: a batch of one."""
    rows = np.asarray(rows)
    return float(raw_score(metric, rows, np.ones((1, rows.shape[0]), dtype=bool))[0])


def write_manifest(tmp_path, labels, pred_rows, probs_rows=None, num_classes=None,
                   dataset="test"):
    """Write a pool manifest plus data files under tmp_path; returns its path."""
    import json

    tmp_path.mkdir(parents=True, exist_ok=True)
    if num_classes is None:
        num_classes = int(max(labels)) + 1
    (tmp_path / "labels.txt").write_text("".join(f"{v}\n" for v in labels))
    models = []
    for i, preds in enumerate(pred_rows):
        pred_file = f"m{i}_pred.txt"
        (tmp_path / pred_file).write_text("".join(f"{v}\n" for v in preds))
        probs_file = None
        if probs_rows is not None and probs_rows[i] is not None:
            probs_file = f"m{i}_probs.csv"
            lines = [",".join(f"{x:.17g}" for x in row) for row in probs_rows[i]]
            (tmp_path / probs_file).write_text("".join(line + "\n" for line in lines))
        models.append({"id": i, "name": f"m{i}", "pred_labels": pred_file,
                       "probs": probs_file})
    manifest = {"dataset": dataset, "num_classes": num_classes,
                "labels": "labels.txt", "models": models}
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2))
    return path


def pool_from_votes(vote_rows, num_classes, dataset="votes"):
    """Build a labels-only pool whose model i casts ``vote_rows[i]``; ground truth
    is all-zeros."""
    rows = np.asarray(vote_rows, dtype=np.int64)
    return build_pool(dataset, num_classes, np.zeros(rows.shape[1], dtype=np.int64), rows,
                      names=[f"m{i}" for i in range(len(rows))])


def pool_from_correctness(rows, num_classes=2):
    """Build a pool whose correctness matrix equals the given binary rows.

    Ground truth is all-zeros; a wrong prediction is class 1.
    """
    return pool_from_votes(np.where(np.asarray(rows) == 1, 0, 1), num_classes,
                           "from-correctness")


def pool_from_probs(labels, prob_matrices, num_classes, dataset="probs", labels_only=False):
    """Build a pool from one N x C probability matrix per model, each predicting its
    rows' argmax; with ``labels_only`` the pool keeps the predictions only."""
    mats = np.asarray(prob_matrices, dtype=np.float64)
    return build_pool(dataset, num_classes, labels, mats.argmax(axis=2),
                      None if labels_only else mats.transpose(0, 2, 1),
                      [f"m{i}" for i in range(len(mats))])


@pytest.fixture
def fixture_rows():
    return np.array([FIXTURE_WI, FIXTURE_WJ], dtype=np.uint8)
