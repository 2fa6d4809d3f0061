import inspect
from dataclasses import fields

import numpy as np
import pytest

from wavescat.classify import (Dataset, TrainerConfig, confusion_stats,
                               predict, run_kfold, train_mlp, train_svm_ova,
                               train_tree)
from wavescat.cli import OPTIONS
from wavescat.errors import DataError


def blob_dataset(n_per=30, n_classes=3, seed=0):
    rng = np.random.default_rng(seed)
    centers = 8.0 * np.eye(n_classes)
    features = np.vstack([c + rng.standard_normal((n_per, n_classes))
                          for c in centers])
    labels = np.repeat(np.arange(n_classes), n_per)
    return Dataset(features, labels, [f"c{i}" for i in range(n_classes)])


@pytest.mark.parametrize("k", [2, 5, 10, 90])
def test_total_count_conservation(k):
    data = blob_dataset()
    matrix = run_kfold(data, k, TrainerConfig(kind="dt"), seed=1)
    assert matrix.total == data.n_samples
    assert matrix.counts.sum(axis=1).sum() == 90


def test_perfectly_separable_tree_has_zero_off_diagonal():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((80, 3))
    labels = (x[:, 0] > 0).astype(int)  # class = sign of feature 0
    x[:, 0] += np.where(labels == 1, 2.0, -2.0)
    data = Dataset(x, labels, ["neg", "pos"])
    matrix = run_kfold(data, 10, TrainerConfig(kind="dt"), seed=2)
    off = matrix.counts - np.diag(np.diag(matrix.counts))
    assert off.sum() == 0


def test_empty_class_error_names_it():
    data = Dataset(np.zeros((4, 1)), np.array([0, 0, 2, 2]),
                   ["first", "ghost", "third"])
    with pytest.raises(DataError, match="ghost"):
        run_kfold(data, 2, TrainerConfig(kind="dt"), seed=0)


def test_all_trainer_kinds_run():
    data = blob_dataset(n_per=20)
    for kind in ("dt", "mlp", "svm"):
        cfg = TrainerConfig(kind=kind, epochs=50, max_iter=100)
        matrix = run_kfold(data, 5, cfg, seed=3)
        stats = confusion_stats(matrix)
        assert stats["micro"] > 90.0


def test_unified_predict_dispatch():
    data = blob_dataset(n_per=15)
    row = data.features[:3]
    for model in (train_tree(data, 6),
                  train_mlp(data, (8,), 100, 0.3, 0),
                  train_svm_ova(data, 1.0, 1e-4, 200)):
        assert predict(model, row).shape == (3,)
    with pytest.raises(DataError, match="unknown model"):
        predict(object(), row)


def test_kfold_deterministic():
    data = blob_dataset()
    cfg = TrainerConfig(kind="svm", max_iter=100)
    a = run_kfold(data, 5, cfg, seed=9)
    b = run_kfold(data, 5, cfg, seed=9)
    assert np.array_equal(a.counts, b.counts)


def test_grouped_folds_hold_out_whole_groups():
    data = blob_dataset(n_per=30)
    rats = [f"rat{i % 6}" for i in range(90)]
    matrix = run_kfold(data, 3, TrainerConfig(kind="dt"), seed=5, groups=rats)
    assert matrix.total == 90
    with pytest.raises(DataError, match="exceeds the number of groups"):
        run_kfold(data, 10, TrainerConfig(kind="dt"), seed=5, groups=rats)


def test_unknown_trainer_kind():
    with pytest.raises(DataError, match="unknown trainer"):
        TrainerConfig(kind="forest").train(blob_dataset(), 0)


def _cli_default(name):
    default = OPTIONS[name].default
    if name == "hidden":
        return tuple(int(h) for h in default.split(","))
    return default


def test_trainer_defaults_match_the_cli():
    shared = [f for f in fields(TrainerConfig) if f.name in OPTIONS]
    assert len(shared) == 8
    for field in shared:
        assert field.default == _cli_default(field.name), field.name
    names = {f.name for f in shared}
    checked = 0
    for trainer in (train_svm_ova, train_tree, train_mlp):
        for name, param in inspect.signature(trainer).parameters.items():
            if name in names:
                checked += 1
                assert param.default == _cli_default(name), (trainer, name)
    assert checked == 8
