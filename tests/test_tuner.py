import json
import logging
import multiprocessing
import os
import subprocess
import sys
import textwrap
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest

import tabtune.tuner as tuner_module
from oracles import reference_grs

from tabtune.classifiers import (
    FAMILIES, ModelSpec, budget_axes, default_config, free_axes, hp_schema,
)
from tabtune.hpspace import ParamSpec, SearchSpace, space_from_config
from tabtune.preprocess import DesignMatrix, make_design_matrix, preprocess_split
from tabtune.tabular import generate_synthetic, split_train_test
from tabtune.tuner import (
    TuningError,
    cross_val_trial,
    evaluate_baseline,
    default_rs_budget,
    grid_search,
    grs_auto_hp,
    random_search,
    shuffle_kfold,
)


def _matrix(X, y):
    X = np.asarray(X, dtype=float)
    return make_design_matrix(X, tuple(f"f{j}" for j in range(X.shape[1])), y)


def _separable(n=30):
    # wide margin around 0 so every CV fold's split threshold lands in the gap
    half = n // 2
    x = np.concatenate([np.linspace(-2.0, -0.5, half), np.linspace(0.5, 2.0, n - half)])
    y = (x >= 0).astype(np.int64)
    return _matrix(np.column_stack([x, x * 2]), y)


def _noisy(n=90, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 3))
    y = ((X[:, 0] + 0.3 * rng.normal(size=n)) > 0).astype(np.int64)
    return _matrix(X, y)


def _rows(n):
    """An n-row matrix whose one feature and label are each row's index, so
    a fold part's rows can be read back."""
    return _matrix(np.arange(n)[:, None], np.arange(n))


def _held_out(folds):
    """Each fold's held-out row indices, from parts of a ``_rows`` matrix."""
    return [eval_part.labels.tolist() for _, eval_part in folds]


# ---------------------------------------------------------------- folds


def test_kfold_even_and_remainder_sizes():
    folds = shuffle_kfold(_rows(9), 3, seed=0)
    assert sorted(eval_part.n_rows for _, eval_part in folds) == [3, 3, 3]
    folds = shuffle_kfold(_rows(10), 3, seed=0)
    assert sorted((eval_part.n_rows for _, eval_part in folds), reverse=True) == [4, 3, 3]
    assert [fit_part.n_rows for fit_part, _ in folds] == [6, 7, 7]


def test_kfold_rejects_bad_k():
    with pytest.raises(ValueError):
        shuffle_kfold(_rows(10), 11, seed=0)
    with pytest.raises(ValueError):
        shuffle_kfold(_rows(10), 1, seed=0)


def test_kfold_partitions_every_row():
    # fold i holds out block i of the seeded permutation dealt by
    # np.array_split and trains on every other row; both parts keep the
    # matrix's row order
    for n in (2, 7, 23, 100):
        for k in (2, 3, 5):
            if k > n:
                continue
            for seed in range(3):
                folds = shuffle_kfold(_rows(n), k, seed)
                assert len(folds) == k
                counts = np.array([eval_part.n_rows for _, eval_part in folds])
                assert counts.sum() == n
                assert counts.max() - counts.min() <= 1
                blocks = np.array_split(np.random.default_rng(seed).permutation(n), k)
                assert _held_out(folds) == [sorted(block.tolist()) for block in blocks]
                for (fit_part, _), held in zip(folds, _held_out(folds)):
                    assert fit_part.labels.tolist() == sorted(set(range(n)) - set(held))


def test_kfold_deterministic_per_seed():
    a = shuffle_kfold(_rows(50), 3, seed=4)
    b = shuffle_kfold(_rows(50), 3, seed=4)
    c = shuffle_kfold(_rows(50), 3, seed=5)
    assert _held_out(a) == _held_out(b)
    assert _held_out(a) != _held_out(c)


# ---------------------------------------------------------------- trials


def test_constant_predictor_scores_fold_majorities(monkeypatch):
    rng = np.random.default_rng(8)
    y = (rng.random(40) < 0.7).astype(np.int64)  # ~70% zeros
    y = 1 - (y == 1).astype(np.int64)  # make label 0 the common one
    data = _matrix(rng.normal(size=(40, 2)), y)
    folds = shuffle_kfold(data, 4, seed=2)

    class _AlwaysZero:
        n_features_ = 2

        def predict(self, X):
            return np.zeros(X.shape[0], dtype=np.int64)

    def fake_train(spec, part, seed):
        return _AlwaysZero()

    monkeypatch.setattr(tuner_module.classifiers, "train", fake_train)
    trial, _ = cross_val_trial(ModelSpec("DT", {}), folds, seed=0)
    # oracle: per-fold fraction of zeros, straight from the held-out parts
    for fold, (_, eval_part) in enumerate(folds):
        fold_labels = eval_part.labels
        expected = float((fold_labels == 0).mean())
        assert trial["fold_accuracies"][fold] == expected
    assert trial["mean_accuracy"] == pytest.approx(np.mean(trial["fold_accuracies"]))


def test_separable_data_with_deep_tree_scores_one():
    data = _separable(30)
    folds = shuffle_kfold(data, 3, seed=1)
    trial, _ = cross_val_trial(ModelSpec("DT", {"max_depth": 20}), folds, seed=0)
    assert trial["mean_accuracy"] == 1.0


def test_trial_determinism():
    data = _noisy(60, seed=3)
    folds = shuffle_kfold(data, 3, seed=9)
    a, _ = cross_val_trial(ModelSpec("RF", {"n_estimators": 5}), folds, seed=4)
    b, _ = cross_val_trial(ModelSpec("RF", {"n_estimators": 5}), folds, seed=4)
    assert a["fold_accuracies"] == b["fold_accuracies"]


def test_single_class_fold_scores_zero_with_warning(caplog):
    # both 1-labels sit in fold 0, so fold 0's training part is single-class
    X = np.arange(8.0)[:, None]
    y = np.array([1, 1, 0, 0, 0, 0, 0, 0])
    data = _matrix(X, y)
    in_fold0 = np.array([True] * 4 + [False] * 4)
    folds = ((data.take(~in_fold0), data.take(in_fold0)),
             (data.take(in_fold0), data.take(~in_fold0)))
    with caplog.at_level(logging.WARNING):
        trial, _ = cross_val_trial(ModelSpec("NB", {}), folds, seed=0)
    # fold 0 holds out both 1-labels, so its training part is single-class
    assert trial["fold_accuracies"][0] == 0.0
    assert any("single-class" in message for message in caplog.messages)


def test_trial_scores_only_held_out_rows(monkeypatch):
    # every row is held out exactly once; no fold scores its own training rows
    from tabtune.classifiers import GaussianNaiveBayes, KNearestNeighbors

    data = _noisy(61, seed=5)
    folds = shuffle_kfold(data, 4, seed=3)
    for family, cls in (("NB", GaussianNaiveBayes), ("KNN", KNearestNeighbors)):
        scored = []
        original = cls.predict

        def counting_predict(self, X, original=original):
            scored.append(len(X))
            return original(self, X)

        monkeypatch.setattr(cls, "predict", counting_predict)
        cross_val_trial(ModelSpec(family, {}), folds, seed=0)
        assert sum(scored) == data.n_rows, family
        assert len(scored) == len(folds), family


# ---------------------------------------------------------------- searches


def test_grid_search_singleton_space():
    data = _separable(24)
    folds = shuffle_kfold(data, 3, seed=0)
    space = SearchSpace("DT", (ParamSpec("max_depth", "integer", 3, 3),))
    best, trials = grid_search("DT", space, folds, seed=0)
    assert len(trials) == 1
    assert best["config"]["max_depth"] == 3


def test_grid_search_tie_prefers_lower_trial_index():
    # k=1 makes uniform and distance weighting identical, an exact tie
    data = _noisy(40, seed=5)
    folds = shuffle_kfold(data, 2, seed=1)
    space = SearchSpace(
        "KNN",
        (
            ParamSpec("n_neighbors", "integer", 1, 1),
            ParamSpec("weighting", "categorical", choices=("uniform", "distance")),
        ),
    )
    best, trials = grid_search("KNN", space, folds, seed=0)
    assert trials[0]["fold_accuracies"] == trials[1]["fold_accuracies"]
    assert best["trial_index"] == 0
    assert best["config"]["weighting"] == "uniform"


def test_grid_best_is_argmax_and_count_matches_grid():
    data = _noisy(60, seed=1)
    folds = shuffle_kfold(data, 3, seed=2)
    space = space_from_config("DT", {"max_depth": {"lo": 1, "hi": 4}})
    best, trials = grid_search("DT", space, folds, seed=0)
    assert len(trials) == 4
    assert best["mean_accuracy"] == max(t["mean_accuracy"] for t in trials)
    assert [t["trial_index"] for t in trials] == [0, 1, 2, 3]


def test_random_search_budget_one_and_errors():
    data = _separable(20)
    folds = shuffle_kfold(data, 2, seed=0)
    space = space_from_config("DT", {"max_depth": {"lo": 1, "hi": 6}})
    best, trials = random_search("DT", space, 1, folds, seed=3)
    assert len(trials) == 1
    assert best["trial_index"] == 0
    with pytest.raises(ValueError):
        random_search("DT", space, 0, folds, seed=3)


def test_random_search_covers_small_space():
    data = _separable(20)
    folds = shuffle_kfold(data, 2, seed=0)
    space = SearchSpace(
        "KNN",
        (
            ParamSpec("n_neighbors", "integer", 3, 3),
            ParamSpec("weighting", "categorical", choices=("uniform", "distance")),
        ),
    )
    _, trials = random_search("KNN", space, 20, folds, seed=11)
    seen = {t["config"]["weighting"] for t in trials}
    assert seen == {"uniform", "distance"}


def test_search_determinism_per_seed():
    data = _noisy(50, seed=2)
    folds = shuffle_kfold(data, 3, seed=0)
    space = space_from_config("DT", {"max_depth": {"lo": 1, "hi": 8}})
    a_best, a_all = random_search("DT", space, 6, folds, seed=21)
    b_best, b_all = random_search("DT", space, 6, folds, seed=21)
    assert [t["config"] for t in a_all] == [t["config"] for t in b_all]
    assert [t["fold_accuracies"] for t in a_all] == [t["fold_accuracies"] for t in b_all]
    assert a_best["trial_index"] == b_best["trial_index"]


def test_baseline_uses_schema_defaults():
    data = _noisy(40, seed=7)
    folds = shuffle_kfold(data, 2, seed=0)
    trial = evaluate_baseline("KNN", folds, seed=0)
    assert trial["config"] == default_config("KNN")


def test_grid_dominates_baseline_when_default_on_grid():
    data = _noisy(80, seed=9)
    folds = shuffle_kfold(data, 3, seed=3)
    space = space_from_config("DT", {"max_depth": {"lo": 8, "hi": 12}})  # includes 10
    baseline = evaluate_baseline("DT", folds, seed=5)
    best, _ = grid_search("DT", space, folds, seed=5)
    assert best["mean_accuracy"] >= baseline["mean_accuracy"]


def test_parallel_equals_sequential():
    data = _noisy(60, seed=4)
    folds = shuffle_kfold(data, 3, seed=1)
    # two criteria: two groups of staged configs, so two pool tasks
    space = space_from_config("DT", {"max_depth": {"lo": 1, "hi": 6},
                                     "criterion": {"choices": ["gini", "entropy"]}})
    _, seq = grid_search("DT", space, folds, seed=0, workers=1)
    _, par = grid_search("DT", space, folds, seed=0, workers=2)
    assert [t["config"] for t in seq] == [t["config"] for t in par]
    assert [t["fold_accuracies"] for t in seq] == [t["fold_accuracies"] for t in par]


class _FakePool:
    """Runs each task in this process as it is submitted; records each
    pool's size and every submitted task."""

    sizes = []
    tasks = []

    def __init__(self, max_workers, initializer, initargs):
        _FakePool.sizes.append(max_workers)
        initializer(*initargs)  # once, before any task, as in a real worker

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, task):
        _FakePool.tasks.append(task)
        future = Future()
        try:
            future.set_result(fn(task))
        except Exception as exc:
            future.set_exception(exc)
        return future


def test_pool_size_is_bounded_by_configs_and_cpus(monkeypatch):
    # one pool per run, of min(workers, groups in the run, cpus) processes,
    # carrying every group of every family; none at one worker or for a run
    # of a single group
    from tabtune.report import strip_volatile

    monkeypatch.setattr(tuner_module, "ProcessPoolExecutor", _FakePool)
    monkeypatch.setattr(tuner_module, "_worker_data", None)
    data = _noisy(60, seed=4)
    train, test = data.take(np.arange(45)), data.take(np.arange(45, 60))
    # DT: one group per min_samples_split (the default joins the first);
    # NB and KNN: one group each; five groups in the run
    spaces = {"DT": space_from_config("DT", {"max_depth": {"lo": 2, "hi": 6, "step": 2},
                                             "min_samples_split": {"lo": 2, "hi": 4}})}
    families = ["DT", "NB", "KNN"]
    monkeypatch.setattr(tuner_module.os, "cpu_count", lambda: 16)
    expected = strip_volatile(grs_auto_hp(families, spaces, train, test, k=3, workers=1))
    # (workers, cpu_count) -> pool size; None means no pool
    cases = [(2, 16, 2), (8, 16, 5), (8, 3, 3), (64, 4, 4), (2, None, None), (1, 16, None)]
    for workers, cpus, size in cases:
        monkeypatch.setattr(tuner_module.os, "cpu_count", lambda: cpus)
        _FakePool.sizes, _FakePool.tasks = [], []
        report = grs_auto_hp(families, spaces, train, test, k=3, workers=workers)
        assert _FakePool.sizes == ([] if size is None else [size])
        assert len(_FakePool.tasks) == (0 if size is None else 5)
        assert strip_volatile(report) == expected
    # NB's baseline, grid and random draw are one group, which needs no pool
    monkeypatch.setattr(tuner_module.os, "cpu_count", lambda: 16)
    _FakePool.sizes = []
    report = grs_auto_hp(["NB"], {}, train, test, k=3, workers=8)
    assert _FakePool.sizes == []
    assert report["families"][0]["grid"]["n_trials"] == 1


def test_pool_workers_get_the_data_once_and_tasks_carry_only_configs(monkeypatch):
    calls = []

    class RecordingPool(_FakePool):
        def __init__(self, max_workers, initializer, initargs):
            calls.append(("init", initargs))
            initializer(*initargs)

        def submit(self, fn, task):
            calls.append(("submit", task))
            return super().submit(fn, task)

    monkeypatch.setattr(tuner_module, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(tuner_module, "_worker_data", None)
    monkeypatch.setattr(tuner_module.os, "cpu_count", lambda: 4)
    data = _noisy(30, seed=4)
    folds = shuffle_kfold(data, 3, seed=1)
    configs = [{"max_depth": depth, "criterion": criterion}
               for depth in range(1, 3) for criterion in ("gini", "entropy")]
    trials = tuner_module._evaluate_configs("DT", configs, folds, 7, 2)
    (init, (fold_parts, seed)), *submitted = calls
    assert init == "init" and {kind for kind, _ in submitted} == {"submit"}
    assert fold_parts is folds and seed == 7
    full = [{**default_config("DT"), **config} for config in configs]
    tasks = [task for _, task in submitted]
    assert tasks == [("DT", [(full[0], 0), (full[2], 2)]), ("DT", [(full[1], 1), (full[3], 3)])]
    heavy = (np.ndarray, DesignMatrix)
    items = [item for family, members in tasks for member in members for item in member]
    assert not any(isinstance(item, heavy) for item in items + [family for family, _ in tasks])
    serial = tuner_module._evaluate_configs("DT", configs, folds, 7, 1)
    assert [t["fold_accuracies"] for t in trials] == [t["fold_accuracies"] for t in serial]
    assert [t["trial_index"] for t in trials] == [0, 1, 2, 3]


def test_pool_results_do_not_depend_on_the_start_method():
    # spawn pickles the initializer's arguments; run it in a child process
    # so this process keeps its own start method
    script = textwrap.dedent("""
        import multiprocessing
        import numpy as np
        import tabtune.tuner as tuner
        from tabtune.preprocess import make_design_matrix
        from tabtune.tuner import shuffle_kfold

        if __name__ == "__main__":
            multiprocessing.set_start_method("spawn")
            tuner.os.cpu_count = lambda: 2  # a pool even on a 1-CPU host
            rng = np.random.default_rng(4)
            X = rng.normal(size=(60, 3))
            y = (X[:, 0] + rng.normal(size=60) > 0).astype(np.int64)
            data = make_design_matrix(X, ("f0", "f1", "f2"), y)
            folds = shuffle_kfold(data, 3, seed=1)
            for family, configs in (
                ("DT", [{"max_depth": depth} for depth in range(1, 5)]),
                ("LR", [{"epochs": epochs, "learning_rate": rate}
                        for epochs in (40, 10, 30) for rate in (0.1, 0.5)]),
            ):
                serial = tuner._evaluate_configs(family, configs, folds, 0, 1)
                pooled = tuner._evaluate_configs(family, configs, folds, 0, 2)
                naive = [tuner.cross_val_trial(tuner.ModelSpec(family, config), folds, 0,
                                               trial_index=index)[0]
                         for index, config in enumerate(configs)]
                scores = [t["fold_accuracies"] for t in pooled]
                assert scores == [t["fold_accuracies"] for t in serial]
                assert scores == [t["fold_accuracies"] for t in naive]
                assert [t["trial_index"] for t in pooled] == list(range(len(configs)))
            assert multiprocessing.get_start_method() == "spawn"
            print("spawned pool ok")
    """)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(tuner_module.__file__).parents[1])]
        + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    before = multiprocessing.get_start_method(allow_none=True)
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "spawned pool ok"
    assert multiprocessing.get_start_method(allow_none=True) == before


#: Per family, a space whose grid mixes budgets and other parameters.
_STAGED_SPACES = {
    "DT": {"max_depth": {"lo": 1, "hi": 7, "step": 2}, "min_samples_split": {"lo": 2, "hi": 8,
                                                                            "step": 6},
           "criterion": {"choices": ["gini", "entropy"]}},
    "RF": {"n_estimators": {"lo": 5, "hi": 8, "step": 1}, "max_depth": {"lo": 1, "hi": 5,
                                                                         "step": 2},
           "max_features_frac": {"lo": 0.5, "hi": 1.0, "step": 0.5}},
    "NB": {"var_smoothing_exp": {"lo": -12, "hi": -6, "step": 3}},
    "LR": {"l2_strength": {"lo": 0.0, "hi": 0.5}, "learning_rate": {"lo": 0.1, "hi": 0.5,
                                                                     "step": 0.4},
           "epochs": {"lo": 10, "hi": 40, "step": 10}},
    "KNN": {"n_neighbors": {"lo": 1, "hi": 5, "step": 2},
            "weighting": {"choices": ["uniform", "distance"]}},
    "SVM": {"c": {"lo": 0.5, "hi": 1.0}, "epochs": {"lo": 10, "hi": 40, "step": 10}},
    "GBT": {"n_estimators": {"lo": 5, "hi": 8, "step": 1}, "learning_rate": {"lo": 0.3, "hi": 1.0,
                                                                              "step": 0.7},
            "max_depth": {"lo": 1, "hi": 2}},
}


def _single_class_fold_data(n=45):
    """Noisy data whose only positives sit in fold 0 of the returned folds
    (fold seed 6), so fold 0's training part is single-class."""
    rng = np.random.default_rng(12)
    X = rng.normal(size=(n, 3))
    (in_fold0,) = _held_out(shuffle_kfold(_rows(n), 3, seed=6)[:1])
    y = np.zeros(n, dtype=np.int64)
    y[in_fold0[: len(in_fold0) // 2]] = 1
    X[y == 1, 0] += 1.5
    data = _matrix(X, y)
    return data, shuffle_kfold(data, 3, seed=6)


@pytest.mark.parametrize("family", list(_STAGED_SPACES))
def test_staged_search_equals_each_config_run_alone(monkeypatch, family):
    grid = tuner_module.grid_enumerate(space_from_config(family, _STAGED_SPACES[family]))
    rng = np.random.default_rng(sorted(_STAGED_SPACES).index(family))
    # drawn with replacement: duplicates, and budgets in no particular order
    configs = [grid[i] for i in rng.integers(len(grid), size=14)]
    configs.append(dict(configs[3]))
    if family == "RF":  # two budgets, and neither config covers the other
        configs += [{"n_estimators": 9, "max_depth": 1, "max_features_frac": 1.0},
                    {"n_estimators": 5, "max_depth": 6, "max_features_frac": 1.0}]
        # a subsampling forest's tree counts: smaller forests read off larger ones
        configs += [{"n_estimators": n, "max_depth": 4, "max_features_frac": 0.3}
                    for n in (5, 12, 8)]
    fold_sets = [shuffle_kfold(_noisy(48, seed=8), 3, seed=2), _single_class_fold_data()[1]]
    if family == "KNN":  # k above a fold's 16 training rows ranks all 16; smaller k read off
        configs += [{"n_neighbors": 25, "weighting": "distance"}, {"n_neighbors": 20},
                    {"n_neighbors": 9, "weighting": "distance"}]
        fold_sets.insert(0, shuffle_kfold(_noisy(24, seed=9), 3, seed=2))
    read_off = []
    real_train = tuner_module.classifiers.train

    def counting_train(spec, data, seed, **grown):
        read_off.append((spec.config, bool(grown)))
        return real_train(spec, data, seed, **grown)

    for folds in fold_sets:
        naive = [cross_val_trial(ModelSpec(family, config), folds, 5, trial_index=index)[0]
                 for index, config in enumerate(configs)]
        monkeypatch.setattr(tuner_module.classifiers, "train", counting_train)
        serial = tuner_module._evaluate_configs(family, configs, folds, 5, 1)
        monkeypatch.setattr(tuner_module.classifiers, "train", real_train)
        monkeypatch.setattr(tuner_module.os, "cpu_count", lambda: 2)
        pooled = tuner_module._evaluate_configs(family, configs, folds, 5, 2)
        for staged in (serial, pooled):
            assert [t["trial_index"] for t in staged] == list(range(len(configs)))
            assert [t["config"] for t in staged] == [t["config"] for t in naive]
            assert [t["fold_accuracies"] for t in staged] == [t["fold_accuracies"] for t in naive]
    assert naive[0]["fold_accuracies"][0] == 0.0  # the single-class fold scores 0
    assert any(r for _, r in read_off) and not all(r for _, r in read_off)
    if family == "RF":  # the subsampling forests of 5 and 8 trees: read off the one of 12
        served = {c["n_estimators"] for c, r in read_off if r and c["max_features_frac"] == 0.3}
        assert served == {5, 8}
    if family in ("NB", "KNN"):  # one group: only its first config is fitted, on each fold
        per_run = [False] * 3 + [True] * 3 * (len(configs) - 1)
        assert [r for _, r in read_off] == per_run * len(fold_sets)


def test_a_default_above_the_grid_is_fitted_once_per_fold_across_the_searches(monkeypatch):
    # DT's default depth 10 covers the whole depth 2-6 space, so its baseline,
    # grid and random draws are one group: one fit per fold, and every other
    # trial is read off it
    real_train = tuner_module.classifiers.train
    fresh = []

    def counting_train(spec, data, seed, grown=None):
        if grown is None:
            fresh.append((spec.config["max_depth"], data.n_rows))
        return real_train(spec, data, seed, grown=grown)

    monkeypatch.setattr(tuner_module.classifiers, "train", counting_train)
    data = _noisy(60, seed=3)
    train, test = data.take(np.arange(45)), data.take(np.arange(45, 60))
    spaces = {"DT": space_from_config("DT", {"max_depth": {"lo": 2, "hi": 6}})}
    report = grs_auto_hp(["DT"], spaces, train, test, k=3)
    entry = report["families"][0]
    assert (entry["grid"]["n_trials"], entry["random"]["n_trials"]) == (5, 5)
    # three folds of 30 training rows at the default depth, then the
    # winner's refit on all 45 rows
    assert fresh[:3] == [(10, 30)] * 3
    assert fresh[3:] == [(report["final"]["config"]["max_depth"], 45)]


def test_a_run_takes_each_fold_part_once(monkeypatch):
    # shuffle_kfold takes the k fit and eval parts once per run; no trial
    # takes rows
    data = _noisy(60, seed=3)
    train, test = data.take(np.arange(45)), data.take(np.arange(45, 60))
    taken = []
    real_take = DesignMatrix.take

    def counting_take(self, indices):
        part = real_take(self, indices)
        taken.append(part.n_rows)
        return part

    monkeypatch.setattr(DesignMatrix, "take", counting_take)
    spaces = {"DT": space_from_config("DT", {"max_depth": {"lo": 1, "hi": 3},
                                             "criterion": {"choices": ["gini", "entropy"]}})}
    report = grs_auto_hp(["DT", "NB", "KNN"], spaces, train, test, k=3, workers=1)
    assert sum(entry["grid"]["n_trials"] for entry in report["families"]) == 8
    assert len(taken) == 2 * 3
    assert sum(taken) == 3 * train.n_rows  # each fold's two parts hold every row once


def test_default_rs_budget_caps_at_200():
    wide = space_from_config("DT", {
        "max_depth": {"lo": 1, "hi": 20},
        "min_samples_split": {"lo": 2, "hi": 10},
        "criterion": {"choices": ["gini", "entropy"]},
    })
    assert default_rs_budget(wide) == 200
    narrow = space_from_config("DT", {"max_depth": {"lo": 1, "hi": 4}})
    assert default_rs_budget(narrow) == 4


# ---------------------------------------------------------------- selection loop


def _fake_trial(family, mean, index=0):
    return {
        "trial_index": index,
        "config": default_config(family),
        "fold_accuracies": [mean],
        "mean_accuracy": mean,
        "duration_seconds": 0.0,
    }


def _patch_search_results(monkeypatch, per_family):
    """per_family: family -> (baseline, gs, rs) mean accuracies. With no
    space given, a family's plan is its default config three times: the
    baseline at index 0, the grid's one config at 1 and the random search's
    one draw at 2."""

    def fake_group(family, members, folds, seed):
        return [_fake_trial(family, per_family[family][index], index) for _, index in members]

    monkeypatch.setattr(tuner_module, "_evaluate_group", fake_group)


def test_grs_prefers_grid_on_win_and_tie(monkeypatch):
    data = _separable(30)
    _patch_search_results(monkeypatch, {"DT": (0.5, 0.9, 0.8)})
    report = grs_auto_hp(["DT"], {}, data, data, k=3)
    assert report["families"][0]["winner"] == "grid"
    _patch_search_results(monkeypatch, {"DT": (0.5, 0.8, 0.8)})
    report = grs_auto_hp(["DT"], {}, data, data, k=3)
    assert report["families"][0]["winner"] == "grid"
    _patch_search_results(monkeypatch, {"DT": (0.5, 0.7, 0.8)})
    report = grs_auto_hp(["DT"], {}, data, data, k=3)
    assert report["families"][0]["winner"] == "random"


def test_grs_cross_family_tie_keeps_input_order(monkeypatch):
    data = _separable(30)
    _patch_search_results(
        monkeypatch, {"KNN": (0.5, 0.8, 0.7), "DT": (0.5, 0.8, 0.8)}
    )
    report = grs_auto_hp(["KNN", "DT"], {}, data, data, k=3)
    assert report["final"]["family"] == "KNN"


def test_grs_skips_failing_family(monkeypatch):
    data = _separable(30)

    real_group = tuner_module._evaluate_group

    def exploding_group(family, members, folds, seed):
        if family == "KNN":
            raise ValueError("boom")
        return real_group(family, members, folds, seed)

    monkeypatch.setattr(tuner_module, "_evaluate_group", exploding_group)
    report = grs_auto_hp(["KNN", "DT"], {}, data, data, k=3)
    assert "KNN" in report["errors"]
    assert report["errors"]["KNN"] == "ValueError: boom"
    assert [entry["family"] for entry in report["families"]] == ["DT"]
    assert report["final"]["family"] == "DT"


def test_grs_fails_the_run_on_an_unexpected_exception(monkeypatch):
    data = _separable(30)
    real_group = tuner_module._evaluate_group

    def faulty_group(family, members, folds, seed):
        if family == "KNN":
            raise RuntimeError("boom")
        return real_group(family, members, folds, seed)

    monkeypatch.setattr(tuner_module, "_evaluate_group", faulty_group)
    with pytest.raises(TuningError, match=r"KNN.*RuntimeError"):
        grs_auto_hp(["DT", "KNN"], {}, data, data, k=3)


def test_a_group_failing_in_a_pool_worker_fails_its_family_alike_at_1_and_2_workers(
        monkeypatch, tmp_path):
    # DT's entropy groups raise; the family's error is the message of its
    # first failing group in plan order, and NB and KNN report as if DT had
    # not been requested, whether the groups ran serially or in pool workers
    from tabtune.report import strip_volatile

    monkeypatch.setattr(tuner_module.os, "cpu_count", lambda: 2)  # a pool even on a 1-CPU host
    real_group = tuner_module._evaluate_group
    failed_in = tmp_path / "failed_in"

    def failing_group(family, members, folds, seed):
        config = members[0][0]
        if family == "DT" and config["criterion"] == "entropy":
            with failed_in.open("a", encoding="utf-8") as fh:
                fh.write(f"{os.getpid()}\n")
            raise ValueError(f"entropy at min_samples_split {config['min_samples_split']}")
        return real_group(family, members, folds, seed)

    monkeypatch.setattr(tuner_module, "_evaluate_group", failing_group)
    data = _noisy(60, seed=6)
    train, test = data.take(np.arange(45)), data.take(np.arange(45, 60))
    # DT's groups, in plan order: (2, gini) with the default, (2, entropy),
    # (3, gini), (3, entropy)
    spaces = {"DT": space_from_config("DT", {"max_depth": {"lo": 1, "hi": 3},
                                             "min_samples_split": {"lo": 2, "hi": 3},
                                             "criterion": {"choices": ["gini", "entropy"]}}),
              "KNN": space_from_config("KNN", {"n_neighbors": {"lo": 1, "hi": 9, "step": 4}})}
    without_dt = strip_volatile(grs_auto_hp(["NB", "KNN"], spaces, train, test, k=3))
    reports = {}
    for workers in (1, 2):
        failed_in.write_text("", encoding="utf-8")
        reports[workers] = strip_volatile(
            grs_auto_hp(["NB", "DT", "KNN"], spaces, train, test, k=3, workers=workers))
        pids = {int(pid) for pid in failed_in.read_text(encoding="utf-8").split()}
        assert pids and (os.getpid() in pids) == (workers == 1)
    assert reports[1] == reports[2]
    assert reports[1]["errors"] == {"DT": "ValueError: entropy at min_samples_split 2"}
    assert {key: value for key, value in reports[1].items() if key != "errors"} == {
        key: value for key, value in without_dt.items() if key != "errors"}


def test_grs_requires_a_family_and_matching_features():
    data = _separable(30)
    with pytest.raises(Exception):
        grs_auto_hp([], {}, data, data, k=3)
    other = make_design_matrix(data.features, ("a", "b"), data.labels)
    with pytest.raises(Exception):
        grs_auto_hp(["DT"], {}, data, other, k=3)


def test_grs_rejects_a_repeated_family_before_any_work(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the repeated family was refused")

    monkeypatch.setattr(tuner_module, "shuffle_kfold", no_work)
    monkeypatch.setattr(tuner_module, "_evaluate_group", no_work)
    data = _separable(30)
    with pytest.raises(TuningError, match="family NB is requested more than once"):
        grs_auto_hp(["NB", "DT", "NB"], {}, data, data, k=3)


def test_grs_end_to_end_improves_over_default_baselines():
    # independent oracle: each family's default config refit on the full
    # training matrix and scored on test; the tuned final model must land
    # within 0.02 of the best of them
    from tabtune import classifiers

    table = generate_synthetic(2000, seed=7, positive_rate=0.5)
    split = split_train_test(table, 0.75, seed=7)
    train, test = preprocess_split(split, 0.6, "minmax")
    families = ["DT", "RF", "NB", "LR", "KNN", "SVM", "GBT"]
    spaces = {
        "DT": space_from_config("DT", {"max_depth": {"lo": 2, "hi": 14, "step": 4}}),
        "RF": space_from_config("RF", {"max_depth": {"lo": 6, "hi": 10, "step": 4},
                                        "n_estimators": {"lo": 15, "hi": 35, "step": 20}}),
        "NB": space_from_config("NB", {"var_smoothing_exp": {"lo": -12, "hi": -6, "step": 2}}),
        "LR": space_from_config("LR", {"learning_rate": {"lo": 0.1, "hi": 0.9, "step": 0.4}}),
        "KNN": space_from_config("KNN", {"n_neighbors": {"lo": 5, "hi": 21, "step": 8}}),
        "SVM": space_from_config("SVM", {"c": {"lo": 0.5, "hi": 4.0, "step": 1.75}}),
        "GBT": space_from_config("GBT", {"learning_rate": {"lo": 0.3, "hi": 1.0, "step": 0.35},
                                          "n_estimators": {"lo": 25, "hi": 50, "step": 25}}),
    }
    report = grs_auto_hp(families, spaces, train, test, k=3, fold_seed=7, search_seed=7)
    baseline_test = []
    for family in families:
        model = classifiers.train(ModelSpec(family, {}), train, seed=7)
        score = classifiers.accuracy(classifiers.predict(model, test.features), test.labels)
        baseline_test.append(score)
    assert report["final"]["test_accuracy"] >= max(baseline_test) - 0.02


def test_grs_report_deterministic_modulo_durations():
    from tabtune.report import strip_volatile

    table = generate_synthetic(300, seed=5)
    split = split_train_test(table, 0.75, seed=5)
    train, test = preprocess_split(split, 0.6, "minmax")
    spaces = {"DT": space_from_config("DT", {"max_depth": {"lo": 2, "hi": 6, "step": 2}})}
    a = grs_auto_hp(["DT", "NB"], spaces, train, test, k=3, fold_seed=1, search_seed=2)
    b = grs_auto_hp(["DT", "NB"], spaces, train, test, k=3, fold_seed=1, search_seed=2)
    assert strip_volatile(a) == strip_volatile(b)


def test_search_time_accounting():
    table = generate_synthetic(200, seed=5)
    split = split_train_test(table, 0.75, seed=5)
    train, test = preprocess_split(split, 0.6, "minmax")
    spaces = {"DT": space_from_config("DT", {"max_depth": {"lo": 1, "hi": 3}})}
    report = grs_auto_hp(["DT"], spaces, train, test, k=3)
    entry, trials = report["families"][0], report["trials"]["DT"]
    assert entry["grid"]["n_trials"] == 3
    # a search's time is the sum of its trials' times
    for search in ("grid", "random"):
        assert entry[search]["total_seconds"] == sum(
            t["duration_seconds"] for t in trials[search])
        assert entry[search]["total_seconds"] > 0


def test_report_trials_truncation(monkeypatch):
    from tabtune.report import strip_volatile

    table = generate_synthetic(100, seed=5)
    split = split_train_test(table, 0.75, seed=5)
    train, test = preprocess_split(split, 0.6, "minmax")
    spaces = {"DT": space_from_config("DT", {"max_depth": {"lo": 1, "hi": 3}})}
    # DT: 3 grid + 3 random trials; NB searches its one default config twice
    n_trials = {"DT": 6, "NB": 2}

    def run(cap):
        monkeypatch.setattr(tuner_module, "MAX_REPORTED_TRIALS", cap)
        report = grs_auto_hp(["DT", "NB"], spaces, train, test, k=3)
        for entry in report["families"]:
            searches = entry["grid"]["n_trials"] + entry["random"]["n_trials"]
            assert searches == n_trials[entry["family"]]
        return report

    full = run(8)  # exactly the run's trial count
    assert full["trials_truncated"] is False
    assert "NB" in full["trials"]
    assert {family: len(t["grid"]) + len(t["random"])
            for family, t in full["trials"].items()} == n_trials
    tiny = run(7)
    assert tiny["trials_truncated"] is True
    assert tiny["trials"] == {}
    assert strip_volatile(tiny["families"]) == strip_volatile(full["families"])


# ---------------------------------------------------------------- whole-run reference


def _random_space(family, rng):
    """A seeded space mapping for ``family``: each budget, and each other
    parameter unless it stays pinned, gets up to three grid values. Integer
    ranges sit near their lower bounds, so budgets stay small and most
    defaults lie above every grid budget; random draws fall between grid
    values, and an integer range may end short of its next step, so a draw
    can also lie above the grid's largest value."""
    mapping = {}
    for spec in hp_schema(family):
        budget = spec.name in budget_axes(family)
        if not budget and rng.random() < 0.25:
            continue
        if spec.kind == "categorical":
            count = int(rng.integers(1, len(spec.choices) + 1))
            mapping[spec.name] = {"choices": [str(c) for c in rng.permutation(spec.choices)[:count]]}
        elif spec.kind == "integer":
            lo, step = int(rng.integers(spec.lo, spec.lo + 5)), int(rng.integers(1, 4))
            steps = int(rng.integers(int(budget), 3))  # a budget has two or three values
            hi = lo + step * steps + int(rng.integers(step))
            mapping[spec.name] = {"lo": lo, "hi": min(hi, spec.hi), "step": step}
        else:
            lo = float(rng.uniform(spec.lo, spec.hi))
            hi = float(rng.uniform(lo, spec.hi))
            mapping[spec.name] = {"lo": lo, "hi": hi, "step": (hi - lo) / 2 or 1.0}
    return space_from_config(family, mapping)


def test_grs_equals_the_serial_reference_run(monkeypatch):
    # every fast path at once (groups spanning the baseline, grid and random
    # search, read-offs, staged order, the run's one pool) against fitting
    # every trial alone, bit for bit, all seven families
    from tabtune.report import strip_volatile

    monkeypatch.setattr(tuner_module.os, "cpu_count", lambda: 2)  # a pool even on a 1-CPU host
    rng = np.random.default_rng(57)
    spaces = {family: _random_space(family, rng) for family in FAMILIES}
    noisy = _noisy(200, seed=13)
    single_class_fold, _ = _single_class_fold_data()  # fold seed 6
    runs = [(noisy.take(np.arange(150)), noisy.take(np.arange(150, 200)), 4),
            (single_class_fold, _noisy(30, seed=1), 6)]
    expected = []
    for train, test, fold_seed in runs:
        args = (FAMILIES, spaces, train, test)
        kwargs = {"k": 3, "fold_seed": fold_seed, "search_seed": 5, "rs_budget": 10}
        expected.append(strip_volatile(reference_grs(*args, **kwargs)))
        for workers in (1, 2):
            assert strip_volatile(grs_auto_hp(*args, workers=workers, **kwargs)) == expected[-1]
    # what the runs cover: a single-class fold, nested budgets, repeated
    # configs within a search, ties within a search and between grid and random
    assert expected[1]["families"][0]["baseline"]["fold_accuracies"][0] == 0.0
    searches = [trials for report in expected for family in report["trials"].values()
                for trials in family.values()]
    configs = [[json.dumps(t["config"], sort_keys=True) for t in trials] for trials in searches]
    assert any(len(set(c)) < len(c) for c in configs)
    assert any(len({t["mean_accuracy"] for t in trials}) < len(set(c))
               for trials, c in zip(searches, configs))
    assert all(len(param.grid_values()) > 1 for family, space in spaces.items()
               for param in space.params if param.name in budget_axes(family))
    assert any(entry["grid"]["best"]["mean_accuracy"] == entry["random"]["best"]["mean_accuracy"]
               and entry["grid"]["best"]["config"] != entry["random"]["best"]["config"]
               for report in expected for entry in report["families"])
    # read-offs across searches: within a group (equal outside the budget and
    # free axes), a default above every grid budget, random draws above and
    # below the grid's largest budget, and a draw equal to the default
    covered = set()
    for report in expected:
        for entry in report["families"]:
            family, default = entry["family"], entry["baseline"]["config"]
            budgets, axes = budget_axes(family), budget_axes(family) + free_axes(family)
            grid, drawn = ([t["config"] for t in report["trials"][family][search]]
                           for search in ("grid", "random"))

            def peers(config):
                return [c for c in grid if all(c[name] == value for name, value in config.items()
                                               if name not in axes)]

            if default in drawn:
                covered.add("draw equal to the default")
            if budgets and peers(default) and all(default[axis] > c[axis] for c in peers(default)
                                                  for axis in budgets):
                covered.add("default above every grid budget")
            for config in drawn:
                if budgets and peers(config):
                    largest = max(c[budgets[0]] for c in peers(config))
                    if config[budgets[0]] != largest:
                        covered.add(f"draw {'above' if config[budgets[0]] > largest else 'below'} "
                                    "the grid's largest budget")
    assert covered == {"draw equal to the default", "default above every grid budget",
                       "draw above the grid's largest budget",
                       "draw below the grid's largest budget"}
