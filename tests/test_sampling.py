import numpy as np
import pytest

from divsel.errors import DivselError, EmptyNegativesError
from divsel.pool import CorrectnessMatrix
from divsel.sampling import (build_negative_set, derive_seed, focal_negative_sets,
                             negatives_any, sample_subset)

from conftest import FIXTURE_WI, FIXTURE_WJ


def corr_from(rows):
    omega = np.asarray(rows, dtype=np.uint8)
    return CorrectnessMatrix(omega=omega, accuracies=omega.mean(axis=1))


FIXTURE_CORR = corr_from([FIXTURE_WI, FIXTURE_WJ])


def test_negatives_any_union():
    corr = corr_from([[1, 0], [0, 1]])
    np.testing.assert_array_equal(negatives_any(corr), [0, 1])


def test_negatives_any_fixture():
    np.testing.assert_array_equal(negatives_any(FIXTURE_CORR), [1, 4, 5, 7, 8])


def test_negatives_any_empty_raises():
    with pytest.raises(EmptyNegativesError):
        negatives_any(corr_from([[1, 1], [1, 1]]))


def full_set(corr, scheme, focal=None):
    """The whole negative set of a scheme: a sample size of at least N keeps every index."""
    return build_negative_set(corr, scheme, corr.omega.shape[1], seed=0, focal=focal)


def test_negatives_all_intersection():
    with pytest.raises(EmptyNegativesError):
        full_set(corr_from([[1, 0], [0, 1]]), "all")
    np.testing.assert_array_equal(full_set(corr_from([[0, 0], [0, 1]]), "all"), [0])
    np.testing.assert_array_equal(full_set(FIXTURE_CORR, "all"), [5, 7])


def test_negatives_focal():
    np.testing.assert_array_equal(full_set(FIXTURE_CORR, "focal", 0), [4, 5, 7])
    with pytest.raises(EmptyNegativesError):
        full_set(corr_from([[1, 1], [0, 1]]), "focal", 0)
    np.testing.assert_array_equal(
        full_set(corr_from([[0, 0, 0], [1, 1, 1]]), "focal", 0), [0, 1, 2])
    for focal in (-1, 2):
        with pytest.raises(DivselError, match=f"focal model {focal} not in pool of 2"):
            full_set(FIXTURE_CORR, "focal", focal)


def test_sample_subset_clamps_to_full_set():
    full = np.arange(10)
    ns = sample_subset(full, 20, seed=123)
    np.testing.assert_array_equal(ns, full)


def test_sample_subset_deterministic():
    full = np.arange(10)
    a = sample_subset(full, 4, seed=42)
    b = sample_subset(full, 4, seed=42)
    np.testing.assert_array_equal(a, b)
    assert len(a) == 4


def test_sample_subset_seed_sweep_differs():
    # brute-force sweep: across 100 seed pairs the draws should almost
    # always differ (a collision is possible but vanishingly rare)
    full = np.arange(100)
    differing = 0
    for k in range(100):
        a = sample_subset(full, 10, seed=2 * k)
        b = sample_subset(full, 10, seed=2 * k + 1)
        differing += not np.array_equal(a, b)
    assert differing >= 95


def test_sample_subset_contract():
    rng = np.random.default_rng(9)
    for _ in range(50):
        full = np.flatnonzero(rng.random(60) < 0.4)
        if full.size == 0:
            continue
        size = int(rng.integers(1, 20))
        ns = sample_subset(full, size, seed=int(rng.integers(1 << 32)))
        assert set(ns) <= set(full)
        assert len(ns) == min(size, full.size)
        assert np.all(np.diff(ns) > 0)  # sorted, unique


def test_sample_subset_empty_raises():
    with pytest.raises(EmptyNegativesError):
        sample_subset(np.array([], dtype=np.int64), 5, seed=1)


def test_scheme_nesting_property():
    rng = np.random.default_rng(5)
    for _ in range(30):
        corr = corr_from(rng.integers(0, 2, size=(4, 25)))
        anyset = set(np.flatnonzero((corr.omega == 0).any(axis=0)))
        allset = set(np.flatnonzero((corr.omega == 0).all(axis=0)))
        if allset:
            assert set(full_set(corr, "all")) == allset
        for focal in range(4):
            focset = set(full_set(corr, "focal", focal))
            assert allset <= focset <= anyset


def test_derive_seed_is_64bit_and_distinct():
    seeds = {derive_seed(42, i) for i in range(1000)}
    assert len(seeds) == 1000
    assert all(0 <= s < (1 << 64) for s in seeds)
    assert derive_seed(42, 3) == derive_seed(42, 3)


def test_focal_negative_sets_skips_perfect_models():
    corr = corr_from([[1, 1, 1], [0, 1, 0]])
    sets = focal_negative_sets(corr, size=10, base_seed=7)
    assert 0 not in sets
    np.testing.assert_array_equal(sets[1], [0, 2])
