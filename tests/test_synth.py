import hashlib
from pathlib import Path

import numpy as np
import pytest

from divsel.cli import main
from divsel.diversity import MetricId, diversity_score
from divsel.errors import SynthConfigError
from divsel.pool import correctness, load_pool, write_pool
from divsel.sampling import negatives_any, sample_subset
from divsel.synth import (CorrelationGroup, SynthConfig, config_from_dict,
                          generate_pool, validate_config)
from divsel.teaming import CandidateSet

from conftest import team

GOLDEN = Path(__file__).parent / "golden"


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
    assert not np.array_equal(a.preds[0], b.preds[0])


def test_generated_pool_loads_and_validates(tmp_path):
    cfg = SynthConfig(num_models=3, num_samples=150, num_classes=4,
                      accuracies=(0.95, 0.9, 0.85), seed=12)
    manifest = write_pool(generate_pool(cfg), tmp_path)
    pool = load_pool(manifest)  # runs the full validation
    for preds, probs in zip(pool.preds, pool.probs):
        top = probs[preds, np.arange(150)]
        assert (top > 0.5).all()
        np.testing.assert_allclose(probs.sum(axis=0), 1.0, atol=1e-6)
        np.testing.assert_array_equal(probs.argmax(axis=0), preds)


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

# sha256 of every file `synth --config tests/golden/<name>.json` writes
SYNTH_DIGESTS = {
    "a": {
        "labels.txt": "350d4f1971dce8c370e386dd20b14c7cd66d5aabb06653c7db68bcc7b3e8952a",
        "manifest.json": "0df7ef8db2fbd64d580ae83a24b6e4d9939365502fbdd1daceb8ce6910a9c8c3",
        "model_0_pred.txt": "0db5a57e87affed0c9cbfdcd83b186bd080d0a370d6fd86c767add976c2ac311",
        "model_0_probs.csv": "db49cde7d35f8494f7408bf4db10b0c4e026a2880c996e542586aba99346d6e7",
        "model_1_pred.txt": "97eb95301d3b1cb8e2330290b62a713d8c8d01fc8ec1640332489a1836ee377a",
        "model_1_probs.csv": "9645222d95411d6973baa9edc7b3aa6691c8cc7b2630efb417d4c3078ad552e3",
        "model_2_pred.txt": "c064603eabd78745fef061ea4d0bfbc576ceb8992ff5b276ceccd2176196dcbb",
        "model_2_probs.csv": "b79c522b454d9670a3620a9ba7f69fd23df0057571bac491c43b7e7683ffc8a7",
        "model_3_pred.txt": "ed9f5febd7dc263b0befd42df776f3a03b8e08f8f16e151c30976937bc48b7c9",
        "model_3_probs.csv": "5513efec627331b2e6a95828c11f886af27a46b6b8c9cae9c944453aef74ba0a",
        "model_4_pred.txt": "d17e5920a23083010fb30d777b3b4cc6ef9091e85defe01bb2d449a12fe88fee",
        "model_4_probs.csv": "9ed1a546be7eda6fe265c03aa861aa4f8068b9a212fbe6a7f0cf0568490eae94",
    },
    "b": {
        "labels.txt": "8e36f1ef1965754e7d89d4c912cfd251efe2b730e193ea8cc55fa8561d2e02d2",
        "manifest.json": "d6300aec5ce46893a8dbd5cbc64556f7671ca7dd7e22902e2cfc517917004578",
        "model_0_pred.txt": "8e36f1ef1965754e7d89d4c912cfd251efe2b730e193ea8cc55fa8561d2e02d2",
        "model_0_probs.csv": "98f7855698956063d2438698edf0f669f53fd68d6057592c2a09200dca6833e3",
        "model_1_pred.txt": "8e36f1ef1965754e7d89d4c912cfd251efe2b730e193ea8cc55fa8561d2e02d2",
        "model_1_probs.csv": "0225faad4f1855d62ab370cfda638ab1de578f8a21157232e8e7128109bbe25e",
        "model_2_pred.txt": "f0eeb9c5107a80ae150350be3db5c4f5cf5331098e1ff4940e8d110b9957ef39",
        "model_2_probs.csv": "a2955300131dcc2cf33900c6bc0280671bb1a74ddb36b55747949ea423de6ef2",
        "model_3_pred.txt": "220ecb2941673b6b3e03f884f2a5a862af8af22e7f41dc29a1151c7776127d43",
        "model_3_probs.csv": "2a590cded2a8435ba57cfb109d1d56e2ace67e949a487dbd6a24aad07a264d70",
    },
    "c": {
        "labels.txt": "09d7c97971bfbfab07b6cc35bcad8f332176dc0fbd9ab6dff0e64cd5cb7fb167",
        "manifest.json": "c27c385346e7a47f4296e3191c447a1c207811f7ce194c7d40842c0fbf6c7f21",
        "model_0_pred.txt": "1faa5b7c647df3735ff65cd56ab92e5fc79e3c3f073ba2c3af64744f3fd7bb0c",
        "model_0_probs.csv": "b87fda882e5a12ed4e4b383a4a061c3277085db20c9790d1914720ca193057c4",
        "model_1_pred.txt": "48c95ba06c42005f717f21d3245c146398bb30ebded539606305c4d10cdab088",
        "model_1_probs.csv": "979e33cba6fe3e5ddbb85b5f71c57617ea01024abb406367714b19415ec2b3a2",
        "model_2_pred.txt": "20411b1c10072c628fe56b612c6a365e17420cddb01de04ed793db1e168067f5",
        "model_2_probs.csv": "874a74388e93d992a850368ffe8f20feb6d34b874e429f359f3a0fb36e75abdf",
        "model_3_pred.txt": "4796433dd08753158c1963a743f63e36cb383c104fbe8b55dde9c26608eac452",
        "model_3_probs.csv": "4841ca750038381741e8a509ced78be3752774446583232558854fabe79636e3",
        "model_4_pred.txt": "f51b6d00994600907261d50e968f71b2965b5248e06aacc48b63564a9b166256",
        "model_4_probs.csv": "eddbab82f32e72621c9df60ab52979494ed442ec1b8f716e02b8438ba3c8e5be",
        "model_5_pred.txt": "dd76d59e8c799d04eb9af490151c1fada10ef7facaf745eb892849ea14d56eae",
        "model_5_probs.csv": "f0e6bb8852b5b12e1d1d0a9ed05a79a9a0154b58b735f48fb784b16b4bc766d5",
    },
}


@pytest.mark.parametrize("name", sorted(SYNTH_DIGESTS))
def test_synth_writes_pinned_bytes(tmp_path, capsys, name):
    out = tmp_path / name
    config = GOLDEN / f"{name}.json"
    assert main(["synth", "--config", str(config), "--out-dir", str(out)]) == 0
    assert capsys.readouterr().out == f"{out / 'manifest.json'}\n"
    written = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in out.iterdir()}
    assert written == SYNTH_DIGESTS[name]
