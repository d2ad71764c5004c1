"""Prediction pools: recorded base-model predictions plus ground truth.

A pool is loaded from a JSON manifest that points at plain-text label
files and optional per-model probability CSVs (read only on request).
Arrays are read-only after validation, so workers can share pools.

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
import reprlib
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import PoolError

PROB_ROW_SUM_TOL = 1e-6


@dataclass(frozen=True)
class PredictionPool:
    """Validated predictions of M >= 2 models on one evaluation set: read-only
    stacks ``preds`` (M x N) and class-major ``probs`` (M x C x N, None when no
    probability file was read), whose slab i is meaningful only if ``has_probs[i]``."""

    dataset_name: str
    num_classes: int
    labels: np.ndarray
    names: tuple[str, ...]
    preds: np.ndarray
    probs: np.ndarray | None
    has_probs: np.ndarray

    @property
    def num_samples(self) -> int:
        return int(self.labels.shape[0])

    @property
    def num_models(self) -> int:
        return int(self.preds.shape[0])


@dataclass(frozen=True)
class CorrectnessMatrix:
    """Binary M x N matrix: omega[i, k] = 1 iff model i got sample k right."""

    omega: np.ndarray
    accuracies: np.ndarray

    @property
    def num_models(self) -> int:
        return int(self.omega.shape[0])


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _read_table(path: Path, what: str, dtype, delimiter: str | None = None) -> np.ndarray:
    """The rows of text file ``path`` as a 2-D array; an empty file gives no rows."""
    try:
        with warnings.catch_warnings():
            # the callers reject an empty file; numpy's own warning would only add noise
            warnings.simplefilter("ignore", UserWarning)
            return np.loadtxt(path, dtype=dtype, delimiter=delimiter, ndmin=2)
    except OSError as exc:
        raise PoolError(f"cannot read {what} file {path}: {exc}") from exc
    except ValueError as exc:
        kind = "integers" if delimiter is None else "CSV"
        raise PoolError(f"{what} file {path}: could not parse {kind} ({exc})") from exc


def _read_label_file(path: Path, what: str) -> np.ndarray:
    values = _read_table(path, what, np.int64)
    if values.size == 0:
        raise PoolError(f"{what} file {path}: no integers")
    if values.shape[1] != 1:
        raise PoolError(f"{what} file {path}: expected one integer per line")
    return values.ravel()


def _check_labels(values: np.ndarray, num_classes: int, path: Path, what: str) -> None:
    bad = np.where((values < 0) | (values >= num_classes))[0]
    if bad.size:
        row = int(bad[0])
        raise PoolError(
            f"{what} file {path}, row {row}: label {int(values[row])} "
            f"out of range [0, {num_classes})"
        )


def _read_probs(path: Path, pred_labels: np.ndarray, num_classes: int) -> np.ndarray:
    """The N x C rows of probability file ``path``, checked against the model's labels."""
    probs = _read_table(path, "probs", np.float64, delimiter=",")
    n = pred_labels.shape[0]
    if probs.shape != (n, num_classes):
        raise PoolError(
            f"probs file {path}: expected shape ({n}, {num_classes}), "
            f"got {probs.shape}"
        )
    # written as a negation so NaN, which fails every comparison, is caught too
    bad = np.where(~((probs >= 0.0) & (probs <= 1.0)))
    if bad[0].size:
        row = int(bad[0][0])
        raise PoolError(f"probs file {path}, row {row}: entry {probs[row, bad[1][0]]} "
                        "outside [0, 1]")
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
    return probs


def build_pool(dataset_name: str, num_classes: int, labels: np.ndarray, preds: np.ndarray,
               probs: np.ndarray | None = None, names=None,
               has_probs: np.ndarray | None = None) -> PredictionPool:
    """Assemble a pool from in-memory stacks and freeze them: ``preds`` M x N and
    ``probs`` M x C x N or None; ``names`` default to ``model_<i>`` and
    ``has_probs`` to whether ``probs`` is given.

    Callers pass arrays whose shapes and ranges they have checked:
    ``load_pool`` checks each file with its path and row, and ``synth``
    its config through ``validate_config``.  Only the model count is
    checked here.
    """
    preds = _freeze(np.asarray(preds, dtype=np.int64))
    if len(preds) < 2:
        raise PoolError(f"pool needs at least 2 models, got {len(preds)}")
    if probs is not None:
        probs = _freeze(np.ascontiguousarray(probs, dtype=np.float64))
    return PredictionPool(
        dataset_name, num_classes, _freeze(np.asarray(labels, dtype=np.int64)),
        tuple(f"model_{i}" for i in range(len(preds))) if names is None else tuple(names),
        preds, probs,
        _freeze(np.full(len(preds), probs is not None) if has_probs is None
                else np.array(has_probs, dtype=bool)))


NUMBER = (int, float)
_JSON_TYPES = {bool: "a boolean", int: "an integer", NUMBER: "a number", str: "a string",
               list: "an array", dict: "an object"}
# quotes a JSON value cut short, with the arrays and objects nested in it as [...] and {...}
_QUOTE = reprlib.Repr()
_QUOTE.maxlevel = 1


def json_typed(value, kind, what: str, error: type[Exception] = ValueError):
    """``value``, which must be of the JSON type ``kind`` (a key of ``_JSON_TYPES``);
    JSON true and false are booleans, never numbers."""
    if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
        raise error(f"{what} must be {_JSON_TYPES[kind]}, got {_QUOTE.repr(value)}")
    return value


def read_json(path: str | Path, what: str, parse, error: type[Exception]):
    """``parse`` of the JSON value in file ``path``.  ``error`` names the ``what`` and
    the path when the file cannot be read or decoded, or when ``parse`` finds the
    value malformed (KeyError, OverflowError, TypeError or ValueError); a typed
    DivselError from ``parse`` passes through."""
    try:
        data = json.loads(Path(path).read_bytes())
    except (OSError, ValueError) as exc:  # ValueError: bad JSON or bad UTF-8
        raise error(f"cannot read {what} {path}: {exc}") from exc
    try:
        return parse(data)
    except (KeyError, OverflowError, TypeError, ValueError) as exc:
        raise error(f"malformed {what} {path}: {exc}") from exc


def dumps(obj) -> str:
    """Deterministic JSON text: stable key order, trailing newline."""
    return json.dumps(obj, indent=2) + "\n"


def _field(record: dict, key: str, kind, where: str):
    """``record[key]``, which must be present and of the JSON type ``kind``."""
    if key not in record:
        raise PoolError(f"{where}: missing key {key!r}")
    return json_typed(record[key], kind, f"{where}: {key!r}", PoolError)


def load_pool(manifest_path: str | Path, probs: bool = True) -> PredictionPool:
    """Load and validate a prediction pool from a JSON manifest; with ``probs=False``
    no probability file is opened and ``PredictionPool.probs`` is None."""
    manifest_path = Path(manifest_path)
    manifest = read_json(manifest_path, "manifest",
                         lambda data: json_typed(data, dict, "the manifest"), PoolError)
    where = f"manifest {manifest_path}"
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

    entries = _field(manifest, "models", list, where)
    ids = []
    for pos, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise PoolError(f"{where}: model entry {pos} is not an object")
        ids.append(_field(entry, "id", int, f"{where}, model entry {pos}"))
    # checked before any id indexes a stack: a negative id would wrap around silently
    if sorted(ids) != list(range(len(ids))):
        raise PoolError(f"model ids must be 0..{len(ids) - 1} and unique, got {ids}")

    names, has_probs = [""] * len(ids), np.zeros(len(ids), dtype=bool)
    preds = np.empty((len(ids), n), dtype=np.int64)
    stack = (np.zeros((len(ids), num_classes, n))
             if probs and any(entry.get("probs") for entry in entries) else None)
    for entry, mid in zip(entries, ids):
        names[mid] = str(entry.get("name", f"model_{mid}"))
        pred_path = base / _field(entry, "pred_labels", str, f"{where}, model {mid}")
        row = _read_label_file(pred_path, f"pred_labels of model {mid}")
        if row.shape[0] != n:
            raise PoolError(
                f"pred_labels file {pred_path} (model {mid}): {row.shape[0]} rows "
                f"but labels file {labels_path} has {n}"
            )
        _check_labels(row, num_classes, pred_path, f"pred_labels of model {mid}")
        preds[mid] = row
        if entry.get("probs"):
            probs_path = base / _field(entry, "probs", str, f"{where}, model {mid}")
            if probs:
                # the file's N x C rows are freed before the next file is read
                stack[mid] = _read_probs(probs_path, row, num_classes).T
                has_probs[mid] = True

    return build_pool(str(manifest["dataset"]), num_classes, labels, preds, stack, names,
                      has_probs)


def write_pool(pool: PredictionPool, out_dir: str | Path) -> Path:
    """Write a pool to ``out_dir`` in the manifest format; returns the manifest path.

    Labels and predictions round-trip bitwise; probabilities are written
    with 17 significant digits so float64 values survive the text form.
    """
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        labels_file = "labels.txt"
        np.savetxt(out_dir / labels_file, pool.labels, fmt="%d")
        entries = []
        for i, name in enumerate(pool.names):
            pred_file = f"model_{i}_pred.txt"
            np.savetxt(out_dir / pred_file, pool.preds[i], fmt="%d")
            probs_file = None
            if pool.has_probs[i]:
                probs_file = f"model_{i}_probs.csv"
                np.savetxt(out_dir / probs_file, pool.probs[i].T, fmt="%.17g",
                           delimiter=",")
            entries.append({"id": i, "name": name, "pred_labels": pred_file,
                            "probs": probs_file})
        manifest = {"dataset": pool.dataset_name, "num_classes": pool.num_classes,
                    "labels": labels_file, "models": entries}
        manifest_path = out_dir / "manifest.json"
        manifest_path.write_text(dumps(manifest))
    except OSError as exc:
        raise PoolError(f"cannot write pool {exc.filename or out_dir}: {exc}") from exc
    return manifest_path


def correctness(pool: PredictionPool) -> CorrectnessMatrix:
    """Derive the binary correctness matrix and per-model accuracies."""
    omega = (pool.preds == pool.labels).astype(np.uint8)
    accuracies = omega.mean(axis=1)
    return CorrectnessMatrix(omega=_freeze(omega), accuracies=_freeze(accuracies))
