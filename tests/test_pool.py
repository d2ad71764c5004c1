import json

import numpy as np
import pytest

from divsel.errors import PoolError
from divsel.pool import correctness, load_pool, write_pool

from conftest import FIXTURE_WI, write_manifest


def test_load_minimal_pool(tmp_path):
    path = write_manifest(tmp_path, labels=[0, 1, 0, 1],
                          pred_rows=[[0, 1, 0, 0], [1, 1, 0, 1]], num_classes=2)
    pool = load_pool(path)
    assert pool.num_models == 2
    assert pool.num_samples == 4
    assert pool.num_classes == 2
    assert pool.models[0].name == "m0"
    np.testing.assert_array_equal(pool.labels, [0, 1, 0, 1])


def test_dimension_mismatch_names_model(tmp_path):
    path = write_manifest(tmp_path, labels=[0, 1, 0, 1],
                          pred_rows=[[0, 1, 0, 0], [1, 1, 0, 1, 0]], num_classes=2)
    with pytest.raises(PoolError, match="model 1"):
        load_pool(path)


def test_unnormalized_probs_row_rejected(tmp_path):
    probs = [
        [[0.9, 0.1], [0.2, 0.8], [0.6, 0.4], [0.3, 0.7]],
        [[0.7, 0.7], [0.2, 0.8], [0.6, 0.4], [0.3, 0.7]],
    ]
    path = write_manifest(tmp_path, labels=[0, 1, 0, 1],
                          pred_rows=[[0, 1, 0, 1], [0, 1, 0, 1]],
                          probs_rows=probs, num_classes=2)
    with pytest.raises(PoolError, match="row 0"):
        load_pool(path)


def test_label_out_of_range(tmp_path):
    path = write_manifest(tmp_path, labels=[0, 1, 2, 1],
                          pred_rows=[[0, 1, 0, 0], [1, 1, 0, 1]], num_classes=2)
    with pytest.raises(PoolError, match="out of range"):
        load_pool(path)


def test_pred_label_out_of_range(tmp_path):
    path = write_manifest(tmp_path, labels=[0, 1, 0, 1],
                          pred_rows=[[0, 1, 0, 5], [1, 1, 0, 1]], num_classes=2)
    with pytest.raises(PoolError, match="row 3"):
        load_pool(path)


@pytest.mark.parametrize("where, file, row", [("labels", "labels.txt", 2),
                                               ("pred", "m1_pred.txt", 3)])
def test_negative_label_names_file_and_row(tmp_path, where, file, row):
    # load_pool is the only range check: build_pool trusts its arrays
    labels = [0, 1, -1 if where == "labels" else 0, 1]
    preds = [[0, 1, 0, 0], [1, 1, 0, -1 if where == "pred" else 1]]
    path = write_manifest(tmp_path, labels=labels, pred_rows=preds, num_classes=2)
    with pytest.raises(PoolError) as exc:
        load_pool(path)
    assert str(exc.value).endswith(
        f"file {tmp_path / file}, row {row}: label -1 out of range [0, 2)")


def test_missing_file(tmp_path):
    path = write_manifest(tmp_path, labels=[0, 1],
                          pred_rows=[[0, 1], [1, 1]], num_classes=2)
    (tmp_path / "m1_pred.txt").unlink()
    with pytest.raises(PoolError, match="^cannot read pred_labels of model 1 file "):
        load_pool(path)


def test_probs_argmax_must_match_pred_labels(tmp_path):
    probs = [
        [[0.9, 0.1], [0.2, 0.8]],
        [[0.4, 0.6], [0.2, 0.8]],
    ]
    # model 1 claims class 0 on sample 0 but its probs argmax is class 1
    path = write_manifest(tmp_path, labels=[0, 1],
                          pred_rows=[[0, 1], [0, 1]],
                          probs_rows=probs, num_classes=2)
    with pytest.raises(PoolError, match="argmax"):
        load_pool(path)


def test_probs_tie_breaks_to_lowest_class(tmp_path):
    probs = [
        [[0.5, 0.5], [0.2, 0.8]],
        [[0.9, 0.1], [0.2, 0.8]],
    ]
    path = write_manifest(tmp_path, labels=[0, 1],
                          pred_rows=[[0, 1], [0, 1]],
                          probs_rows=probs, num_classes=2)
    pool = load_pool(path)  # tie row predicts class 0: valid
    assert pool.models[0].pred_labels[0] == 0


def test_fewer_than_two_models_rejected(tmp_path):
    path = write_manifest(tmp_path, labels=[0, 1], pred_rows=[[0, 1]], num_classes=2)
    with pytest.raises(PoolError, match="at least 2"):
        load_pool(path)


def test_correctness_basic(tmp_path):
    path = write_manifest(tmp_path, labels=[1, 1],
                          pred_rows=[[1, 0], [1, 1]], num_classes=2)
    corr = correctness(load_pool(path))
    np.testing.assert_array_equal(corr.omega, [[1, 0], [1, 1]])
    np.testing.assert_allclose(corr.accuracies, [0.5, 1.0])


def test_correctness_fixture_accuracy(tmp_path):
    labels = [0] * 10
    preds = [0 if w else 1 for w in FIXTURE_WI]
    path = write_manifest(tmp_path, labels=labels,
                          pred_rows=[preds, labels], num_classes=2)
    corr = correctness(load_pool(path))
    np.testing.assert_array_equal(corr.omega[0], FIXTURE_WI)
    assert corr.accuracies[0] == pytest.approx(0.7)
    assert corr.accuracies[1] == 1.0


def test_correctness_permutation_equivariant(tmp_path):
    rng = np.random.default_rng(3)
    labels = rng.integers(0, 3, 30)
    rows = [rng.integers(0, 3, 30) for _ in range(4)]
    p1 = write_manifest(tmp_path / "a", labels, rows, num_classes=3)
    p2 = write_manifest(tmp_path / "b", labels, rows[::-1], num_classes=3)
    c1 = correctness(load_pool(p1))
    c2 = correctness(load_pool(p2))
    np.testing.assert_array_equal(c1.omega, c2.omega[::-1])


def test_roundtrip_bitwise(tmp_path):
    rng = np.random.default_rng(11)
    labels = rng.integers(0, 4, 25)
    rows = [rng.integers(0, 4, 25) for _ in range(3)]
    probs = []
    for preds in rows:
        p = rng.random((25, 4))
        p[np.arange(25), preds] += 10.0  # make argmax match
        p /= p.sum(axis=1, keepdims=True)
        probs.append(p)
    src = write_manifest(tmp_path / "src", labels, rows, probs_rows=probs,
                         num_classes=4)
    pool = load_pool(src)
    manifest = write_pool(pool, tmp_path / "copy")
    again = load_pool(manifest)
    np.testing.assert_array_equal(pool.labels, again.labels)
    for a, b in zip(pool.models, again.models):
        np.testing.assert_array_equal(a.pred_labels, b.pred_labels)
        np.testing.assert_array_equal(a.probs, b.probs)


def test_arrays_are_readonly(tmp_path):
    path = write_manifest(tmp_path, labels=[0, 1],
                          pred_rows=[[0, 1], [1, 1]], num_classes=2)
    pool = load_pool(path)
    with pytest.raises(ValueError):
        pool.labels[0] = 1
    corr = correctness(pool)
    with pytest.raises(ValueError):
        corr.omega[0, 0] = 0


def test_load_without_probs_reads_labels_only(tmp_path):
    rng = np.random.default_rng(5)
    labels = rng.integers(0, 3, 20)
    rows = [rng.integers(0, 3, 20) for _ in range(3)]
    probs = []
    for preds in rows:
        p = rng.random((20, 3))
        p[np.arange(20), preds] += 10.0  # make argmax match
        probs.append(p / p.sum(axis=1, keepdims=True))
    probs[1] = None  # a labels-only model
    path = write_manifest(tmp_path, labels, rows, probs_rows=probs, num_classes=3)
    full, lean = load_pool(path), load_pool(path, probs=False)
    assert (lean.dataset_name, lean.num_classes) == (full.dataset_name, full.num_classes)
    np.testing.assert_array_equal(lean.labels, full.labels)
    assert [(m.id, m.name) for m in lean.models] == [(m.id, m.name) for m in full.models]
    for a, b in zip(lean.models, full.models):
        np.testing.assert_array_equal(a.pred_labels, b.pred_labels)
    assert [m.probs is not None for m in full.models] == [True, False, True]
    assert all(m.probs is None for m in lean.models)
    np.testing.assert_array_equal(correctness(lean).omega, correctness(full).omega)
    np.testing.assert_array_equal(correctness(lean).accuracies,
                                  correctness(full).accuracies)
    # the probability files are not opened
    (tmp_path / "m0_probs.csv").unlink()
    (tmp_path / "m2_probs.csv").write_text("not,a,csv\n")
    load_pool(path, probs=False)
    with pytest.raises(PoolError, match="^cannot read probs file "):
        load_pool(path)


@pytest.mark.parametrize("value", [5, True, ["m0_probs.csv"]])
def test_probs_entry_must_be_a_string_without_probs(tmp_path, value):
    path = write_manifest(tmp_path, labels=[0, 1],
                          pred_rows=[[0, 1], [1, 1]], num_classes=2)
    doc = json.loads(path.read_text())
    doc["models"][0]["probs"] = value
    path.write_text(json.dumps(doc))
    for probs in (True, False):
        with pytest.raises(PoolError, match="'probs' must be a string"):
            load_pool(path, probs=probs)
