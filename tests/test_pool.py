import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divsel.consensus import ConsensusMethod, predict
from divsel.errors import CapabilityError, PoolError
from divsel.pool import build_pool, correctness, load_pool, write_pool
from divsel.teaming import enumerate_teams

from conftest import FIXTURE_WI, write_manifest


def _random_probs(rng, preds, num_classes):
    """One N x C probability matrix per row of ``preds``, each row's argmax its label."""
    probs = []
    for row in preds:
        p = rng.random((len(row), num_classes))
        p[np.arange(len(row)), row] += 10.0  # make argmax match
        probs.append(p / p.sum(axis=1, keepdims=True))
    return probs


def test_load_minimal_pool(tmp_path):
    path = write_manifest(tmp_path, labels=[0, 1, 0, 1],
                          pred_rows=[[0, 1, 0, 0], [1, 1, 0, 1]], num_classes=2)
    pool = load_pool(path)
    assert pool.num_models == 2
    assert pool.num_samples == 4
    assert pool.num_classes == 2
    assert pool.names == ("m0", "m1")
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
    assert pool.preds[0, 0] == 0


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
    probs = _random_probs(rng, rows, 4)
    src = write_manifest(tmp_path / "src", labels, rows, probs_rows=probs,
                         num_classes=4)
    pool = load_pool(src)
    manifest = write_pool(pool, tmp_path / "copy")
    again = load_pool(manifest)
    np.testing.assert_array_equal(pool.labels, again.labels)
    np.testing.assert_array_equal(pool.preds, again.preds)
    np.testing.assert_array_equal(pool.probs, again.probs)
    np.testing.assert_array_equal(pool.has_probs, again.has_probs)


def test_probs_are_class_major(tmp_path):
    rng = np.random.default_rng(12)
    rows = [rng.integers(0, 3, 7) for _ in range(2)]
    probs = _random_probs(rng, rows, 3)
    pool = load_pool(write_manifest(tmp_path, rng.integers(0, 3, 7), rows,
                                    probs_rows=probs, num_classes=3))
    assert pool.preds.shape == (2, 7) and pool.preds.dtype == np.int64
    assert pool.probs.shape == (2, 3, 7) and pool.probs.flags.c_contiguous
    for i in range(2):
        np.testing.assert_array_equal(pool.probs[i], probs[i].T)


def test_arrays_are_readonly(tmp_path):
    rng = np.random.default_rng(13)
    path = write_manifest(tmp_path, labels=[0, 1],
                          pred_rows=[[0, 1], [1, 1]],
                          probs_rows=_random_probs(rng, [[0, 1], [1, 1]], 2),
                          num_classes=2)
    pool = load_pool(path)
    with pytest.raises(ValueError):
        pool.labels[0] = 1
    with pytest.raises(ValueError):
        pool.preds[0, 0] = 1
    with pytest.raises(ValueError):
        pool.probs[0, 0, 0] = 0.5
    with pytest.raises(ValueError):
        pool.has_probs[0] = False
    corr = correctness(pool)
    with pytest.raises(ValueError):
        corr.omega[0, 0] = 0


def test_load_without_probs_reads_labels_only(tmp_path):
    rng = np.random.default_rng(5)
    labels = rng.integers(0, 3, 20)
    rows = [rng.integers(0, 3, 20) for _ in range(3)]
    probs = _random_probs(rng, rows, 3)
    probs[1] = None  # a labels-only model
    path = write_manifest(tmp_path, labels, rows, probs_rows=probs, num_classes=3)
    full, lean = load_pool(path), load_pool(path, probs=False)
    assert (lean.dataset_name, lean.num_classes) == (full.dataset_name, full.num_classes)
    np.testing.assert_array_equal(lean.labels, full.labels)
    assert lean.names == full.names == ("m0", "m1", "m2")
    np.testing.assert_array_equal(lean.preds, full.preds)
    assert full.has_probs.tolist() == [True, False, True]
    assert lean.probs is None and not lean.has_probs.any()
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


@st.composite
def mixed_pools(draw):
    """A pool of 2-5 models on 1-40 samples and 1-4 classes in which any model
    may carry labels only."""
    m, n, c = draw(st.integers(2, 5)), draw(st.integers(1, 40)), draw(st.integers(1, 4))
    has = draw(st.lists(st.booleans(), min_size=m, max_size=m))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    preds = rng.integers(0, c, (m, n))
    probs = np.stack([p.T for p in _random_probs(rng, preds, c)])
    probs[~np.array(has)] = 0.0  # a labels-only model's slab is never read
    return build_pool("mixed", c, rng.integers(0, c, n), preds,
                      probs if any(has) else None, has_probs=has)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(pool=mixed_pools())
def test_mixed_pool_roundtrip_and_capability(pool):
    with tempfile.TemporaryDirectory() as tmp:
        again = load_pool(write_pool(pool, Path(tmp)))
    assert (again.dataset_name, again.num_classes, again.names) == (
        pool.dataset_name, pool.num_classes, pool.names)
    np.testing.assert_array_equal(again.labels, pool.labels)
    np.testing.assert_array_equal(again.preds, pool.preds)
    np.testing.assert_array_equal(again.has_probs, pool.has_probs)
    assert (again.probs is None) == (pool.probs is None)
    if pool.probs is not None:
        read = pool.has_probs
        np.testing.assert_array_equal(again.probs[read], pool.probs[read])
    for t in enumerate_teams(pool.num_models):
        missing = [i for i in t.members if not pool.has_probs[i]]
        for kind in ("soft", "boosting"):
            if not missing:
                predict(t, again, ConsensusMethod(kind))
                continue
            with pytest.raises(CapabilityError) as exc:
                predict(t, again, ConsensusMethod(kind))
            assert str(exc.value) == (f"{kind} voting needs prediction probabilities, "
                                      f"but model(s) {missing} carry labels only")
