import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavescat import forked
from wavescat.classify import (Dataset, KFoldJob, confusion_stats, predict,
                               run_kfold, train_mlp, train_svm_ova,
                               train_tree, tree_complexity)
from wavescat.errors import DataError

from conftest import assert_no_child_left
from oracles import deal_groups_by_name


def fit_tree(data, seed):
    return train_tree(data)


def kfold(data, k, fit, seed, groups=None):
    """The confusion matrix of one job."""
    [result] = run_kfold([KFoldJob(data, fit, groups)], k, seed)
    return result.matrix


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
    matrix = kfold(data, k, fit_tree, seed=1)
    assert matrix.total == data.n_samples
    assert matrix.counts.sum(axis=1).sum() == 90


def test_perfectly_separable_tree_has_zero_off_diagonal():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((80, 3))
    labels = (x[:, 0] > 0).astype(int)  # class = sign of feature 0
    x[:, 0] += np.where(labels == 1, 2.0, -2.0)
    data = Dataset(x, labels, ["neg", "pos"])
    matrix = kfold(data, 10, fit_tree, seed=2)
    off = matrix.counts - np.diag(np.diag(matrix.counts))
    assert off.sum() == 0


def test_empty_class_error_names_it():
    data = Dataset(np.zeros((4, 1)), np.array([0, 0, 2, 2]),
                   ["first", "ghost", "third"])
    with pytest.raises(DataError, match="ghost"):
        kfold(data, 2, fit_tree, seed=0)


def test_all_trainer_kinds_run():
    data = blob_dataset(n_per=20)
    for fit in (fit_tree,
                lambda d, seed: train_mlp(d, epochs=50, seed=seed),
                lambda d, seed: train_svm_ova(d, max_iter=100)):
        matrix = kfold(data, 5, fit, seed=3)
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

    def fit(d, seed):
        return train_svm_ova(d, max_iter=100)

    a = kfold(data, 5, fit, seed=9)
    b = kfold(data, 5, fit, seed=9)
    assert np.array_equal(a.counts, b.counts)


def test_fold_i_fits_with_seed_plus_i(monkeypatch):
    # fits are recorded in this process, so none may run in a child
    monkeypatch.setattr(forked, "cpus", lambda: 1)
    seeds, sizes = [], []

    def fit(d, seed):
        seeds.append(seed)
        sizes.append(d.n_samples)
        return train_tree(d)

    kfold(blob_dataset(), 5, fit, seed=9)
    assert seeds == [9, 10, 11, 12, 13]
    assert sizes == [72] * 5


def test_group_folds_hold_out_whole_groups():
    data = blob_dataset(n_per=30)
    rats = [f"rat{i % 6}" for i in range(90)]
    matrix = kfold(data, 3, fit_tree, seed=5, groups=rats)
    assert matrix.total == 90
    with pytest.raises(DataError, match="exceeds the number of groups"):
        kfold(data, 10, fit_tree, seed=5, groups=rats)
    for k in (0, 1):
        with pytest.raises(DataError, match="k must be at least 2"):
            kfold(data, k, fit_tree, seed=5, groups=rats)


@given(st.lists(st.sampled_from([f"rat{i}" for i in range(1, 13)]),
                min_size=2, max_size=40),
       st.integers(2, 12), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=200, deadline=None)
def test_group_folds_hold_out_the_oracle_rows(rats, k, seed):
    n = len(rats)
    data = Dataset(np.arange(n, dtype=float)[:, None], np.arange(n) % 2,
                   ["a", "b"])
    trained = []

    def fit(d, _):
        trained.append(d.features[:, 0].astype(int).tolist())
        return train_tree(d)

    if k > len(set(rats)):
        with pytest.raises(DataError, match="exceeds the number of groups"):
            kfold(data, k, fit, seed, groups=rats)
        return
    # fits are recorded in this process, so none may run in a child
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(forked, "cpus", lambda: 1)
        kfold(data, k, fit, seed, groups=rats)
    held_out = deal_groups_by_name(rats, k, seed)
    assert trained == [sorted(set(range(n)) - set(f.tolist()))
                       for f in held_out]


def several_jobs():
    """A tree job with its all-data fit, a per-group tree job, an MLP job
    keeping its first-layer weights and an SVM job keeping its gaps."""
    blobs = blob_dataset(n_per=20)
    rats = [f"rat{i % 4}" for i in range(60)]
    return [
        KFoldJob(blobs, fit_tree, full=tree_complexity),
        KFoldJob(blob_dataset(n_per=12, seed=1), fit_tree, rats[:36]),
        KFoldJob(blobs, lambda d, seed: train_mlp(d, (6,), 40, 0.3, seed),
                 keep=lambda model: model.weights[0]),
        KFoldJob(blobs, lambda d, _: train_svm_ova(d, max_iter=50),
                 keep=lambda model: model.gaps),
    ]


def as_lists(results):
    return [(r.matrix.counts.tolist(),
             [None if kept is None else kept.tolist() for kept in r.kept],
             r.full) for r in results]


@pytest.mark.parametrize("cpus", [2, 3])
def test_every_fold_of_every_job_comes_back_in_order(monkeypatch, forks,
                                                     cpus):
    """Split over forked children, each job's counts, kept fold values
    and all-data fit equal a one-CPU run of that job alone."""
    monkeypatch.setattr(forked, "cpus", lambda: 1)
    alone = [as_lists(run_kfold([job], 3, seed=4))[0]
             for job in several_jobs()]
    assert forks == []
    monkeypatch.setattr(forked, "cpus", lambda: cpus)
    together = as_lists(run_kfold(several_jobs(), 3, seed=4))
    assert together == alone
    assert [len(kept) for _, kept, _ in together] == [3] * 4
    assert together[0][2] == tree_complexity(train_tree(blob_dataset(20)))
    # 3 folds a job and one all-data fit: 13 units over the CPUs
    capped = forked._blas_threads() is not None
    assert len(forks) == (cpus - 1 if capped else 0)
    assert_no_child_left()


def test_without_a_blas_cap_every_fit_runs_here(monkeypatch, forks):
    """Where no OpenBLAS thread control is found, no fit is forked over
    a threaded BLAS: every unit runs in this process, with the results
    of a capped run."""
    monkeypatch.setattr(forked, "cpus", lambda: 2)
    capped = as_lists(run_kfold(several_jobs(), 3, seed=4))
    forks.clear()
    monkeypatch.setattr(forked, "_blas_threads", lambda: None)
    assert not forked.can_cap_blas()
    assert as_lists(run_kfold(several_jobs(), 3, seed=4)) == capped
    assert forks == []


def test_a_job_that_cannot_be_dealt_fails_before_any_fit(monkeypatch):
    monkeypatch.setattr(forked, "cpus", lambda: 1)
    fits = []

    def fit(d, seed):
        fits.append(seed)
        return train_tree(d)

    ghost = Dataset(np.zeros((4, 1)), np.array([0, 0, 2, 2]),
                    ["first", "ghost", "third"])
    with pytest.raises(DataError, match="ghost"):
        run_kfold([KFoldJob(blob_dataset(), fit), KFoldJob(ghost, fit)],
                  2, seed=0)
    assert fits == []
