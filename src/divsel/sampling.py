"""Negative-sample construction and seeded subset sampling.

Three schemes build the full negative index set from a correctness
matrix: "any" (samples missed by at least one model), "all" (missed by
every model) and "focal" (missed by one chosen model).  A fixed-size
evaluation subset is then drawn with a partial Fisher-Yates shuffle so
the same (set, size, seed) always yields the same subset.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DivselError, EmptyNegativesError
from .pool import CorrectnessMatrix

DEFAULT_SAMPLE_SIZE = 100
SCHEMES = ("any", "all", "focal")

# Multiplier for per-index child seeds (golden-ratio increment); keeps
# derived streams decorrelated without depending on iteration order.
_SEED_MIX = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


def derive_seed(base_seed: int, index: int) -> int:
    """Derive a 64-bit child seed for stream ``index`` from ``base_seed``."""
    return (base_seed ^ ((_SEED_MIX * (index + 1)) & _MASK64)) & _MASK64


@dataclass(frozen=True)
class NegativeSampleSet:
    """A drawn subset of negative-sample indices plus its provenance."""

    scheme: str
    indices: np.ndarray
    seed: int
    focal: int | None = None

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.scheme == "focal" and self.focal is None:
            raise ValueError("focal scheme needs a focal model id")

    def __len__(self) -> int:
        return int(self.indices.shape[0])

    @property
    def descriptor(self) -> str:
        tag = self.scheme if self.focal is None else f"focal:{self.focal}"
        return f"{tag}[n={len(self)},seed={self.seed}]"


def negatives_any(corr: CorrectnessMatrix) -> np.ndarray:
    """Samples misclassified by at least one model (union of error sets).

    Raises EmptyNegativesError when every model is correct everywhere.
    """
    mask = (corr.omega == 0).any(axis=0)
    indices = np.flatnonzero(mask)
    if indices.size == 0:
        raise EmptyNegativesError(
            "no negative samples: every model predicts every sample correctly"
        )
    return indices


def negatives_all(corr: CorrectnessMatrix) -> np.ndarray:
    """Samples misclassified by every model (intersection of error sets)."""
    mask = (corr.omega == 0).all(axis=0)
    return np.flatnonzero(mask)


def negatives_focal(corr: CorrectnessMatrix, focal: int) -> np.ndarray:
    """Samples misclassified by the focal model."""
    if focal < 0 or focal >= corr.num_models:
        raise DivselError(f"focal model {focal} not in pool of {corr.num_models}")
    return np.flatnonzero(corr.omega[focal] == 0)


def sample_subset(full: np.ndarray, size: int, seed: int,
                  scheme: str = "any", focal: int | None = None) -> NegativeSampleSet:
    """Draw a uniform without-replacement subset of ``full`` of the given size.

    If ``size`` covers the whole set, the full set is returned.  The draw
    is a partial Fisher-Yates shuffle over the ascending index vector, so
    output depends only on (full, size, seed).
    """
    full = np.sort(np.asarray(full, dtype=np.int64))
    if full.size == 0:
        raise EmptyNegativesError("cannot sample from an empty negative set")
    if size < 1:
        raise DivselError(f"sample size must be positive, got {size}")
    if seed < 0:
        raise DivselError(f"seed must be non-negative, got {seed}")
    if size >= full.size:
        chosen = full
    else:
        pool = full.copy()
        rng = np.random.default_rng(seed)
        for t in range(size):
            j = int(rng.integers(t, pool.size))
            pool[t], pool[j] = pool[j], pool[t]
        chosen = np.sort(pool[:size])
    chosen = chosen.copy()
    chosen.setflags(write=False)
    return NegativeSampleSet(scheme=scheme, indices=chosen, seed=seed, focal=focal)


def build_negative_set(corr: CorrectnessMatrix, scheme: str, size: int, seed: int,
                       focal: int | None = None) -> NegativeSampleSet:
    """Build the full negative set for a scheme and sample it in one step."""
    if scheme == "any":
        full = negatives_any(corr)
    elif scheme == "all":
        full = negatives_all(corr)
    elif scheme == "focal":
        if focal is None:
            raise DivselError("focal sampling needs a focal model id")
        full = negatives_focal(corr, focal)
    else:
        raise DivselError(f"unknown sampling scheme {scheme!r}")
    return sample_subset(full, size, seed, scheme=scheme, focal=focal)


def focal_negative_sets(corr: CorrectnessMatrix, size: int,
                        base_seed: int) -> dict[int, NegativeSampleSet]:
    """One sampled negative set per focal model, on per-focal child seeds.

    Focal models that never err have no negatives; they are simply absent
    from the result (callers treat their cells as keep-all).
    """
    return {f: build_negative_set(corr, "focal", size, derive_seed(base_seed, f), focal=f)
            for f in range(corr.num_models) if not corr.omega[f].all()}
