"""Prediction pools: recorded base-model predictions plus ground truth.

A pool is loaded from a JSON manifest that points at plain-text label
files and optional per-model probability CSVs.  All arrays are marked
read-only after validation so pools can be shared freely across workers.

Manifest format::

    {
      "dataset": "holdout-v1",
      "num_classes": 10,
      "labels": "labels.txt",
      "models": [
        {"id": 0, "name": "densenet", "pred_labels": "m0_pred.txt",
         "probs": "m0_probs.csv"},
        ...
      ]
    }

Paths are resolved relative to the manifest's directory.  Label files
hold one integer per line (line k = sample k); probability files are
headerless CSV with one row per sample and one column per class.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import PoolError

PROB_ROW_SUM_TOL = 1e-6


@dataclass(frozen=True)
class ModelRecord:
    """One base model's recorded predictions."""

    id: int
    name: str
    pred_labels: np.ndarray
    probs: np.ndarray | None = None

    @property
    def has_probs(self) -> bool:
        return self.probs is not None


@dataclass(frozen=True)
class PredictionPool:
    """Validated predictions of M >= 2 models on one evaluation set."""

    dataset_name: str
    num_classes: int
    labels: np.ndarray
    models: tuple[ModelRecord, ...]

    @property
    def num_samples(self) -> int:
        return int(self.labels.shape[0])

    @property
    def num_models(self) -> int:
        return len(self.models)


@dataclass(frozen=True)
class CorrectnessMatrix:
    """Binary M x N matrix: omega[i, k] = 1 iff model i got sample k right."""

    omega: np.ndarray
    accuracies: np.ndarray

    @property
    def num_models(self) -> int:
        return int(self.omega.shape[0])

    @property
    def num_samples(self) -> int:
        return int(self.omega.shape[1])


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _read_label_file(path: Path, what: str) -> np.ndarray:
    if not path.is_file():
        raise PoolError(f"{what} file not found: {path}")
    try:
        with warnings.catch_warnings():
            # an empty file is rejected below; numpy's own warning would only add noise
            warnings.simplefilter("ignore", UserWarning)
            values = np.loadtxt(path, dtype=np.int64, ndmin=2)
    except ValueError as exc:
        raise PoolError(f"{what} file {path}: could not parse integers ({exc})") from exc
    if values.size == 0:
        raise PoolError(f"{what} file {path}: no integers")
    if values.shape[1] != 1:
        raise PoolError(f"{what} file {path}: expected one integer per line")
    return values.ravel()


def _read_probs_file(path: Path, model_name: str) -> np.ndarray:
    if not path.is_file():
        raise PoolError(f"probs file for model {model_name!r} not found: {path}")
    try:
        probs = np.loadtxt(path, dtype=np.float64, delimiter=",", ndmin=2)
    except ValueError as exc:
        raise PoolError(f"probs file {path}: could not parse CSV ({exc})") from exc
    return probs


def _check_labels(values: np.ndarray, num_classes: int, path: Path, what: str) -> None:
    bad = np.where((values < 0) | (values >= num_classes))[0]
    if bad.size:
        row = int(bad[0])
        raise PoolError(
            f"{what} file {path}, row {row}: label {int(values[row])} "
            f"out of range [0, {num_classes})"
        )


def _check_probs(probs: np.ndarray, pred_labels: np.ndarray, num_classes: int,
                 path: Path) -> None:
    n = pred_labels.shape[0]
    if probs.shape != (n, num_classes):
        raise PoolError(
            f"probs file {path}: expected shape ({n}, {num_classes}), "
            f"got {probs.shape}"
        )
    bad = np.where((probs < 0.0) | (probs > 1.0))
    if bad[0].size:
        row = int(bad[0][0])
        raise PoolError(f"probs file {path}, row {row}: entry outside [0, 1]")
    sums = probs.sum(axis=1)
    off = np.where(np.abs(sums - 1.0) > PROB_ROW_SUM_TOL)[0]
    if off.size:
        row = int(off[0])
        raise PoolError(
            f"probs file {path}, row {row}: row sums to {sums[row]:.8f}, not 1"
        )
    # np.argmax already breaks ties toward the lowest class index
    arg = probs.argmax(axis=1)
    mism = np.where(arg != pred_labels)[0]
    if mism.size:
        row = int(mism[0])
        raise PoolError(
            f"probs file {path}, row {row}: argmax class {int(arg[row])} "
            f"does not match predicted label {int(pred_labels[row])}"
        )


def build_pool(dataset_name: str, num_classes: int, labels: np.ndarray,
               models: list[ModelRecord]) -> PredictionPool:
    """Assemble and validate a pool from in-memory arrays."""
    if num_classes < 1:
        raise PoolError(f"num_classes must be positive, got {num_classes}")
    labels = _freeze(np.asarray(labels, dtype=np.int64))
    n = labels.shape[0]
    if n < 1:
        raise PoolError("pool has no samples")
    if len(models) < 2:
        raise PoolError(f"pool needs at least 2 models, got {len(models)}")
    ids = [m.id for m in models]
    if sorted(ids) != list(range(len(models))):
        raise PoolError(f"model ids must be 0..{len(models) - 1} and unique, got {ids}")
    if np.any((labels < 0) | (labels >= num_classes)):
        bad = int(np.where((labels < 0) | (labels >= num_classes))[0][0])
        raise PoolError(f"label at row {bad} out of range [0, {num_classes})")
    ordered = sorted(models, key=lambda m: m.id)
    for m in ordered:
        if m.pred_labels.shape[0] != n:
            raise PoolError(
                f"model {m.id} ({m.name!r}): {m.pred_labels.shape[0]} predictions "
                f"but pool has {n} samples"
            )
        if np.any((m.pred_labels < 0) | (m.pred_labels >= num_classes)):
            bad = int(np.where((m.pred_labels < 0) | (m.pred_labels >= num_classes))[0][0])
            raise PoolError(
                f"model {m.id} ({m.name!r}), row {bad}: predicted label out of range"
            )
        _freeze(m.pred_labels)
        if m.probs is not None:
            _freeze(m.probs)
    return PredictionPool(dataset_name, num_classes, labels, tuple(ordered))


def _field(record: dict, key: str, kind: type, where: str):
    """``record[key]``, which must be present and of type ``kind``."""
    if key not in record:
        raise PoolError(f"{where}: missing key {key!r}")
    if not isinstance(record[key], kind):
        raise PoolError(f"{where}: {key!r} must be {kind.__name__}, got {record[key]!r}")
    return record[key]


def load_pool(manifest_path: str | Path) -> PredictionPool:
    """Load and validate a prediction pool from a JSON manifest."""
    manifest_path = Path(manifest_path)
    if not manifest_path.is_file():
        raise PoolError(f"manifest not found: {manifest_path}")
    try:
        manifest = json.loads(manifest_path.read_text())
    except ValueError as exc:  # bad JSON or bad UTF-8
        raise PoolError(f"manifest {manifest_path}: invalid JSON ({exc})") from exc
    where = f"manifest {manifest_path}"
    if not isinstance(manifest, dict):
        raise PoolError(f"{where}: expected a JSON object")
    if "dataset" not in manifest:
        raise PoolError(f"{where}: missing key 'dataset'")
    base = manifest_path.parent
    num_classes = _field(manifest, "num_classes", int, where)
    if num_classes < 1:
        raise PoolError(f"{where}: num_classes must be positive")

    labels_path = base / _field(manifest, "labels", str, where)
    labels = _read_label_file(labels_path, "labels")
    _check_labels(labels, num_classes, labels_path, "labels")
    n = labels.shape[0]

    models: list[ModelRecord] = []
    for pos, entry in enumerate(_field(manifest, "models", list, where)):
        if not isinstance(entry, dict):
            raise PoolError(f"{where}: model entry {pos} is not an object")
        mid = _field(entry, "id", int, f"{where}, model entry {pos}")
        name = str(entry.get("name", f"model_{mid}"))
        pred_path = base / _field(entry, "pred_labels", str, f"{where}, model {mid}")
        preds = _read_label_file(pred_path, f"pred_labels of model {mid}")
        if preds.shape[0] != n:
            raise PoolError(
                f"pred_labels file {pred_path} (model {mid}): {preds.shape[0]} rows "
                f"but labels file {labels_path} has {n}"
            )
        _check_labels(preds, num_classes, pred_path, f"pred_labels of model {mid}")
        probs = None
        if entry.get("probs"):
            probs_path = base / _field(entry, "probs", str, f"{where}, model {mid}")
            probs = _read_probs_file(probs_path, name)
            _check_probs(probs, preds, num_classes, probs_path)
        models.append(ModelRecord(id=mid, name=name, pred_labels=preds, probs=probs))

    return build_pool(str(manifest["dataset"]), num_classes, labels, models)


def write_pool(pool: PredictionPool, out_dir: str | Path,
               manifest_name: str = "manifest.json") -> Path:
    """Write a pool to ``out_dir`` in the manifest format; returns the manifest path.

    Labels and predictions round-trip bitwise; probabilities are written
    with 17 significant digits so float64 values survive the text form.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    labels_file = "labels.txt"
    np.savetxt(out_dir / labels_file, pool.labels, fmt="%d")
    entries = []
    for m in pool.models:
        pred_file = f"model_{m.id}_pred.txt"
        np.savetxt(out_dir / pred_file, m.pred_labels, fmt="%d")
        probs_file = None
        if m.probs is not None:
            probs_file = f"model_{m.id}_probs.csv"
            np.savetxt(out_dir / probs_file, m.probs, fmt="%.17g", delimiter=",")
        entries.append({
            "id": m.id,
            "name": m.name,
            "pred_labels": pred_file,
            "probs": probs_file,
        })
    manifest = {
        "dataset": pool.dataset_name,
        "num_classes": pool.num_classes,
        "labels": labels_file,
        "models": entries,
    }
    manifest_path = out_dir / manifest_name
    manifest_path.write_text(json.dumps(manifest, indent=2) + "\n")
    return manifest_path


def correctness(pool: PredictionPool) -> CorrectnessMatrix:
    """Derive the binary correctness matrix and per-model accuracies."""
    omega = np.stack([
        (m.pred_labels == pool.labels).astype(np.uint8) for m in pool.models
    ])
    accuracies = omega.mean(axis=1)
    return CorrectnessMatrix(omega=_freeze(omega), accuracies=_freeze(accuracies))
