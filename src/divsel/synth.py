"""Synthetic prediction pools with controlled accuracy and error overlap.

Each model mispredicts an exact-size error set (round((1 - acc) * N)
samples).  Correlation groups share a latent "hard sample" ordering: a
member with overlap rho takes round(rho * budget) of its errors from the
front of the group's shared ordering and draws the rest independently,
so error sets inside a group overlap by at least the shared prefix while
ungrouped models err independently.

Probability rows put mass 0.5 + u (u uniform in [0, 0.5)) on the
predicted class and spread the remainder evenly, so the argmax always
matches the predicted label.  Everything is reproducible from the one
seed via per-stream derived child seeds.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import SynthConfigError
from .pool import NUMBER, PredictionPool, build_pool, json_typed, read_json
from .sampling import derive_seed


@dataclass(frozen=True)
class CorrelationGroup:
    members: tuple[int, ...]
    overlap: float


@dataclass(frozen=True)
class SynthConfig:
    num_models: int
    num_samples: int
    num_classes: int
    accuracies: tuple[float, ...]
    groups: tuple[CorrelationGroup, ...] = ()
    seed: int = 0
    dataset_name: str = "synthetic"


def config_from_dict(data: dict) -> SynthConfig:
    """The config of a parsed JSON object; counts, seed and group members must be
    JSON integers, accuracies and overlaps JSON numbers."""
    json_typed(data, dict, "a config")
    groups = tuple(
        CorrelationGroup(
            members=tuple(json_typed(m, int, "group member")
                          for m in json_typed(g["members"], list, "'members'")),
            overlap=float(json_typed(g["overlap"], NUMBER, "'overlap'")))
        for g in json_typed(data.get("groups", []), list, "'groups'")
    )
    return SynthConfig(
        num_models=json_typed(data["num_models"], int, "'num_models'"),
        num_samples=json_typed(data["num_samples"], int, "'num_samples'"),
        num_classes=json_typed(data["num_classes"], int, "'num_classes'"),
        accuracies=tuple(float(json_typed(a, NUMBER, "accuracy"))
                         for a in json_typed(data["accuracies"], list, "'accuracies'")),
        groups=groups,
        seed=json_typed(data.get("seed", 0), int, "'seed'"),
        dataset_name=str(data.get("dataset", "synthetic")),
    )


def load_config(path: str | Path) -> SynthConfig:
    return read_json(path, "synth config", config_from_dict, SynthConfigError)


def validate_config(cfg: SynthConfig) -> None:
    if cfg.num_models < 2:
        raise SynthConfigError(f"need at least 2 models, got {cfg.num_models}")
    if cfg.num_samples < 1:
        raise SynthConfigError("num_samples must be positive")
    if cfg.num_classes < 1:
        raise SynthConfigError("num_classes must be positive")
    if len(cfg.accuracies) != cfg.num_models:
        raise SynthConfigError(
            f"{len(cfg.accuracies)} accuracies for {cfg.num_models} models"
        )
    for i, acc in enumerate(cfg.accuracies):
        if not (0.0 < acc <= 1.0):
            raise SynthConfigError(f"accuracy of model {i} must be in (0, 1], got {acc}")
        if cfg.num_classes == 1 and acc < 1.0:
            raise SynthConfigError(
                f"model {i}: accuracy {acc} < 1 is infeasible with a single class "
                "(no wrong label exists)"
            )
    seen: set[int] = set()
    for g in cfg.groups:
        if not (0.0 <= g.overlap <= 1.0):
            raise SynthConfigError(f"group overlap must be in [0, 1], got {g.overlap}")
        for m in g.members:
            if m < 0 or m >= cfg.num_models:
                raise SynthConfigError(f"group member {m} not a model id")
            if m in seen:
                raise SynthConfigError(f"model {m} appears in more than one group")
            seen.add(m)


def _wrong_labels(rng: np.random.Generator, true_labels: np.ndarray,
                  num_classes: int) -> np.ndarray:
    offsets = rng.integers(1, num_classes, size=true_labels.shape[0])
    return (true_labels + offsets) % num_classes


def generate_pool(cfg: SynthConfig) -> PredictionPool:
    """Generate a probability-carrying pool per the config, deterministically."""
    validate_config(cfg)
    n, c, m = cfg.num_samples, cfg.num_classes, cfg.num_models

    labels = np.random.default_rng(derive_seed(cfg.seed, 0)).integers(0, c, size=n)

    # group-shared hard-sample orderings
    overlap_of = {}
    hard_order = {}
    for gi, g in enumerate(cfg.groups):
        order = np.random.default_rng(derive_seed(cfg.seed, m + 1 + gi)).permutation(n)
        for member in g.members:
            overlap_of[member] = g.overlap
            hard_order[member] = order

    preds = np.empty((m, n), dtype=np.int64)
    probs = np.empty((m, c, n))
    for i in range(m):
        rng = np.random.default_rng(derive_seed(cfg.seed, i + 1))
        budget = round((1.0 - cfg.accuracies[i]) * n)
        if i in overlap_of:
            n_shared = round(overlap_of[i] * budget)
            shared = hard_order[i][:n_shared]
            rest_pool = np.setdiff1d(np.arange(n), shared, assume_unique=False)
            rest = rng.choice(rest_pool, size=budget - n_shared, replace=False)
            errors = np.concatenate([shared, rest]).astype(np.int64)
        else:
            errors = rng.choice(n, size=budget, replace=False)
        preds[i] = labels
        if errors.size:
            preds[i, errors] = _wrong_labels(rng, labels[errors], c)
        # mass top on the predicted class and the rest spread evenly; one class takes all
        top = 0.5 + rng.random(n) * 0.5 if c > 1 else np.ones(n)
        probs[i] = (1.0 - top) / max(c - 1, 1)
        probs[i, preds[i], np.arange(n)] = top

    return build_pool(cfg.dataset_name, c, labels, preds, probs,
                      [f"synth_{i}" for i in range(m)])
