import numpy as np
import pytest

from divsel.diversity import MetricId, diversity_score
from divsel.errors import SynthConfigError
from divsel.pool import correctness, load_pool, write_pool
from divsel.sampling import negatives_any, sample_subset
from divsel.synth import (CorrelationGroup, SynthConfig, config_from_dict,
                          generate_pool, validate_config)
from divsel.teaming import CandidateSet

from conftest import team


def test_perfect_models_give_all_ones_matrix():
    cfg = SynthConfig(num_models=3, num_samples=50, num_classes=4,
                      accuracies=(1.0, 1.0, 1.0), seed=1)
    corr = correctness(generate_pool(cfg))
    assert corr.omega.all()


def test_error_budget_is_exact():
    cfg = SynthConfig(num_models=2, num_samples=1000, num_classes=5,
                      accuracies=(0.9234, 0.8567), seed=2)
    corr = correctness(generate_pool(cfg))
    np.testing.assert_allclose(
        corr.accuracies,
        [1 - round(0.0766 * 1000) / 1000, 1 - round(0.1433 * 1000) / 1000])


def test_full_overlap_duplicates_error_sets():
    cfg = SynthConfig(num_models=2, num_samples=400, num_classes=6,
                      accuracies=(0.9, 0.9),
                      groups=(CorrelationGroup((0, 1), 1.0),), seed=3)
    corr = correctness(generate_pool(cfg))
    np.testing.assert_array_equal(corr.omega[0], corr.omega[1])
    # identical error sets mean zero binary disagreement on their negatives
    neg = sample_subset(negatives_any(corr), 1000, seed=0)
    [score] = diversity_score(MetricId.BD, CandidateSet.of([team(0, 1)], 2).members, corr,
                              neg)
    assert score == 0.0


def test_zero_overlap_group_behaves_independently():
    # pairwise error-set overlap should sit near the independence product
    cfg = SynthConfig(num_models=2, num_samples=20000, num_classes=10,
                      accuracies=(0.9, 0.88),
                      groups=(CorrelationGroup((0, 1), 0.0),), seed=4)
    corr = correctness(generate_pool(cfg))
    err0 = corr.omega[0] == 0
    err1 = corr.omega[1] == 0
    overlap = int((err0 & err1).sum())
    expected = 0.1 * 0.12 * 20000
    sigma = (20000 * 0.1 * 0.12 * (1 - 0.1 * 0.12)) ** 0.5
    assert abs(overlap - expected) <= 3 * sigma


def test_same_seed_gives_bitwise_identical_files(tmp_path):
    cfg = SynthConfig(num_models=3, num_samples=200, num_classes=5,
                      accuracies=(0.9, 0.85, 0.8),
                      groups=(CorrelationGroup((0, 1), 0.5),), seed=9)
    m1 = write_pool(generate_pool(cfg), tmp_path / "a")
    m2 = write_pool(generate_pool(cfg), tmp_path / "b")
    for f1 in sorted((tmp_path / "a").iterdir()):
        f2 = tmp_path / "b" / f1.name
        assert f1.read_bytes() == f2.read_bytes()


def test_different_seeds_differ():
    base = dict(num_models=2, num_samples=300, num_classes=5,
                accuracies=(0.9, 0.9))
    a = generate_pool(SynthConfig(**base, seed=1))
    b = generate_pool(SynthConfig(**base, seed=2))
    assert not np.array_equal(a.models[0].pred_labels, b.models[0].pred_labels)


def test_generated_pool_loads_and_validates(tmp_path):
    cfg = SynthConfig(num_models=3, num_samples=150, num_classes=4,
                      accuracies=(0.95, 0.9, 0.85), seed=12)
    manifest = write_pool(generate_pool(cfg), tmp_path)
    pool = load_pool(manifest)  # runs the full validation
    for m in pool.models:
        top = m.probs[np.arange(150), m.pred_labels]
        assert (top > 0.5).all()
        np.testing.assert_allclose(m.probs.sum(axis=1), 1.0, atol=1e-6)
        np.testing.assert_array_equal(m.probs.argmax(axis=1), m.pred_labels)


def test_config_validation_errors():
    good = dict(num_models=2, num_samples=10, num_classes=3,
                accuracies=(0.9, 0.8))
    validate_config(SynthConfig(**good))
    with pytest.raises(SynthConfigError):
        validate_config(SynthConfig(**{**good, "accuracies": (0.9,)}))
    with pytest.raises(SynthConfigError):
        validate_config(SynthConfig(**{**good, "accuracies": (1.2, 0.8)}))
    with pytest.raises(SynthConfigError):
        validate_config(SynthConfig(**{**good, "accuracies": (0.0, 0.8)}))
    with pytest.raises(SynthConfigError):
        validate_config(SynthConfig(**good, groups=(CorrelationGroup((0, 1), 1.5),)))
    with pytest.raises(SynthConfigError):
        validate_config(SynthConfig(**good, groups=(CorrelationGroup((0, 5), 0.5),)))
    with pytest.raises(SynthConfigError):
        validate_config(SynthConfig(**good,
                                    groups=(CorrelationGroup((0,), 0.5),
                                            CorrelationGroup((0, 1), 0.5))))


def test_single_class_with_errors_is_infeasible():
    with pytest.raises(SynthConfigError, match="infeasible"):
        validate_config(SynthConfig(num_models=2, num_samples=10, num_classes=1,
                                    accuracies=(0.9, 1.0)))


def test_realized_accuracies_track_targets_across_seeds():
    targets = (0.9668, 0.9546, 0.9623, 0.9621, 0.9334,
               0.9173, 0.9263, 0.9310, 0.9339, 0.9368)
    groups = (CorrelationGroup((0, 1), 0.8), CorrelationGroup((5, 6, 7, 8, 9), 0.8))
    for seed in range(20):
        cfg = SynthConfig(num_models=10, num_samples=10000, num_classes=10,
                          accuracies=targets, groups=groups, seed=seed)
        corr = correctness(generate_pool(cfg))
        np.testing.assert_allclose(corr.accuracies, targets, atol=0.005)


def test_config_from_dict():
    cfg = config_from_dict({
        "dataset": "demo", "num_models": 2, "num_samples": 5, "num_classes": 2,
        "accuracies": [0.9, 0.8], "groups": [{"members": [0, 1], "overlap": 0.5}],
        "seed": 7,
    })
    assert cfg.dataset_name == "demo"
    assert cfg.groups[0].overlap == 0.5
    assert cfg.seed == 7
