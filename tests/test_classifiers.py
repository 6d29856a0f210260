import json

import numpy as np
import pytest

from tabtune.classifiers import (
    FAMILIES,
    ModelSpec,
    SingleClassError,
    accuracy,
    best_split,
    default_config,
    gini_impurity,
    hp_schema,
    logloss_gradient,
    logloss_value,
    predict,
    train,
)
from tabtune.classifiers.bayes import GaussianNaiveBayes
from tabtune.classifiers.boosting import GradientBoostedTrees
from tabtune.classifiers.forest import RandomForest
from tabtune.classifiers.linear import LogisticRegression
from tabtune.classifiers.neighbors import KNearestNeighbors
from tabtune.classifiers.tree import DecisionTree, _best_split_matrix
from tabtune.preprocess import make_design_matrix

from oracles import brute_force_split, brute_force_sse_split, knn_oracle, nb_oracle


def _matrix(X, y):
    X = np.asarray(X, dtype=float)
    names = tuple(f"f{j}" for j in range(X.shape[1]))
    return make_design_matrix(X, names, np.asarray(y, dtype=np.int64))


def _random_matrix(rng, n, d, separation=1.0):
    y = rng.integers(0, 2, n)
    X = rng.normal(size=(n, d)) + separation * y[:, None] * rng.normal(size=d)
    return _matrix(X, y)


def _stump_data():
    # 1-D, x < 0 -> 0, x >= 0 -> 1, 20 points
    x = np.concatenate([np.linspace(-2.0, -0.1, 10), np.linspace(0.1, 2.0, 10)])
    y = (x >= 0).astype(np.int64)
    return _matrix(x[:, None], y)


# ---------------------------------------------------------------- schemas


def test_schema_defaults_lie_within_bounds():
    for family in FAMILIES:
        for spec in hp_schema(family):
            if spec.kind == "categorical":
                assert spec.default in spec.choices
            else:
                assert spec.lo <= spec.default <= spec.hi


def test_schema_family_facts():
    assert len(hp_schema("NB")) == 1
    assert hp_schema("NB")[0].kind == "continuous"
    assert any(s.name == "n_estimators" for s in hp_schema("RF"))
    assert any(s.name == "n_estimators" for s in hp_schema("GBT"))
    with pytest.raises(ValueError):
        hp_schema("MLP")


def test_out_of_bounds_config_rejected():
    data = _stump_data()
    with pytest.raises(ValueError):
        train(ModelSpec("DT", {"max_depth": 0}), data, seed=0)
    with pytest.raises(ValueError):
        train(ModelSpec("DT", {"bogus": 1}), data, seed=0)
    with pytest.raises(ValueError):
        train(ModelSpec("KNN", {"weighting": "cosine"}), data, seed=0)
    with pytest.raises(ValueError):
        train(ModelSpec("LR", {"epochs": 12.5}), data, seed=0)


def test_single_class_data_rejected_by_every_family():
    X = np.random.default_rng(0).normal(size=(12, 3))
    data = _matrix(X, np.zeros(12, dtype=np.int64))
    for family in FAMILIES:
        with pytest.raises(SingleClassError):
            train(ModelSpec(family, {}), data, seed=0)


# ---------------------------------------------------------------- accuracy


def test_accuracy_examples():
    assert accuracy([1, 0, 1], [1, 0, 1]) == 1.0
    assert accuracy([0, 1, 0, 1], [0, 1, 1, 0]) == 0.5
    with pytest.raises(ValueError):
        accuracy([0, 1, 0], [0, 1, 0, 1])
    with pytest.raises(ValueError):
        accuracy([], [])


# ---------------------------------------------------------------- gini / splits


def test_gini_examples():
    assert gini_impurity([0, 0, 1, 1]) == 0.5
    assert gini_impurity([1, 1, 1]) == 0.0
    assert gini_impurity([0, 0, 0, 1]) == pytest.approx(0.375)
    with pytest.raises(ValueError):
        gini_impurity([])


def test_best_split_four_point_example():
    # brute force over the 3 midpoints gives threshold 2.5, gain 0.5
    oracle = brute_force_split([1, 2, 3, 4], [0, 0, 1, 1])
    assert oracle == (2.5, 0.5)
    got = best_split(np.array([1.0, 2.0, 3.0, 4.0]), np.array([0, 0, 1, 1]))
    assert got == (2.5, 0.5)


def test_best_split_constant_and_pure():
    assert best_split(np.ones(6), np.array([0, 1, 0, 1, 0, 1])) is None
    assert best_split(np.arange(6.0), np.zeros(6, dtype=int)) is None
    with pytest.raises(ValueError):
        best_split(np.arange(3.0), np.array([0, 1]))


def test_best_split_matches_brute_force_on_random_columns():
    rng = np.random.default_rng(42)
    for trial in range(50):
        n = int(rng.integers(2, 40))
        x = np.round(rng.normal(size=n), 1)  # duplicates likely
        y = rng.integers(0, 2, n)
        criterion = "gini" if trial % 2 == 0 else "entropy"
        got = best_split(x, y, criterion)
        expected = brute_force_split(x, y, criterion)
        if expected is None:
            assert got is None
        else:
            assert got is not None
            assert got[0] == pytest.approx(expected[0])
            assert got[1] == pytest.approx(expected[1], abs=1e-12)


def test_sse_split_matches_brute_force_on_tied_columns():
    rng = np.random.default_rng(17)
    for _ in range(60):
        n = int(rng.integers(2, 40))
        d = int(rng.integers(1, 5))
        X = np.round(rng.normal(size=(n, d)), 1)  # duplicates likely
        X[:, rng.integers(0, d)] = rng.integers(0, 2, n)  # one binary column
        r = rng.normal(size=n)
        got = _best_split_matrix(X, r, "sse")
        expected = brute_force_sse_split(X, r)
        if expected is None:
            assert got is None
        else:
            assert got is not None
            assert got[0] == expected[0]
            assert got[1] == pytest.approx(expected[1])
            assert got[2] == pytest.approx(expected[2], rel=1e-9, abs=1e-12)


# ---------------------------------------------------------------- decision tree


def test_stump_separates_levels():
    data = _stump_data()
    model = train(ModelSpec("DT", {"max_depth": 1}), data, seed=0)
    assert accuracy(predict(model, data.features), data.labels) == 1.0


def test_tree_training_accuracy_monotone_in_depth():
    rng = np.random.default_rng(7)
    data = _random_matrix(rng, 120, 5, separation=0.8)
    previous = 0.0
    for depth in (1, 2, 4, 8, 12, 16, 20):
        model = DecisionTree(max_depth=depth).fit(data.features, data.labels)
        score = accuracy(model.predict(data.features), data.labels)
        assert score >= previous - 1e-12
        previous = score


# ---------------------------------------------------------------- forest


def test_forest_without_bootstrap_collapses_to_one_tree():
    rng = np.random.default_rng(3)
    data = _random_matrix(rng, 80, 4)
    forest = RandomForest(
        n_estimators=7, max_depth=6, max_features_frac=1.0, seed=5, bootstrap=False
    ).fit(data.features, data.labels)
    per_tree = forest.tree_predictions(data.features)
    assert np.all(per_tree.var(axis=0) == 0.0)
    solo = DecisionTree(max_depth=6).fit(data.features, data.labels)
    assert np.array_equal(forest.predict(data.features), solo.predict(data.features))


def test_forest_vote_tie_goes_to_zero():
    rng = np.random.default_rng(1)
    data = _random_matrix(rng, 60, 3)
    forest = RandomForest(n_estimators=2, max_depth=3, seed=9).fit(
        data.features, data.labels
    )
    votes = forest.tree_predictions(data.features).sum(axis=0)
    predictions = forest.predict(data.features)
    assert np.all(predictions[votes == 1] == 0)  # 1 of 2 trees is not a majority


# ---------------------------------------------------------------- boosting


def test_single_stump_boosting_equals_a_stump():
    # n_estimators=1 sits below the schema floor, so exercise the class
    # directly; the claim is about the boosting arithmetic itself
    data = _stump_data()
    booster = GradientBoostedTrees(n_estimators=1, learning_rate=1.0, max_depth=1).fit(
        data.features, data.labels
    )
    # verified against a directly fitted stump on the same data
    stump = DecisionTree(max_depth=1).fit(data.features, data.labels)
    assert np.array_equal(booster.predict(data.features), stump.predict(data.features))
    assert accuracy(booster.predict(data.features), data.labels) == 1.0


def test_boosting_training_logloss_non_increasing():
    rng = np.random.default_rng(11)
    for _ in range(10):
        n = int(rng.integers(40, 120))
        d = int(rng.integers(2, 6))
        X = rng.normal(size=(n, d))
        noise = rng.random(n) < 0.1
        y = ((X[:, 0] + 0.5 * X[:, 1] > 0) ^ noise).astype(np.int64)
        if y.min() == y.max():
            continue
        booster = GradientBoostedTrees(
            n_estimators=int(rng.integers(5, 40)),
            learning_rate=float(rng.uniform(0.05, 1.0)),
            max_depth=int(rng.integers(1, 4)),
        ).fit(X, y)
        losses = booster.stage_logloss_
        assert all(b <= a for a, b in zip(losses, losses[1:]))


# ---------------------------------------------------------------- logistic regression


def test_gradient_bias_zero_on_symmetric_balanced_data():
    X = np.array([[1.0, -1.0], [-1.0, 1.0], [2.0, 0.0], [-2.0, 0.0]])
    y = np.array([1, 0, 1, 0])
    grad = logloss_gradient(np.zeros(3), _matrix(X, y), l2_strength=0.0)
    assert grad[-1] == pytest.approx(0.0)


def test_gradient_matches_central_finite_differences():
    rng = np.random.default_rng(23)
    data = _random_matrix(rng, 40, 4)
    h = 1e-5
    for _ in range(10):
        w = rng.normal(scale=0.8, size=5)
        l2 = float(rng.uniform(0.0, 2.0))
        grad = logloss_gradient(w, data, l2)
        for j in range(len(w)):
            bumped = w.copy()
            bumped[j] += h
            up = logloss_value(bumped, data, l2)
            bumped[j] -= 2 * h
            down = logloss_value(bumped, data, l2)
            numeric = (up - down) / (2 * h)
            denom = max(abs(numeric), abs(grad[j]), 1e-8)
            assert abs(grad[j] - numeric) / denom < 1e-4


def test_gradient_l2_term_is_linear():
    rng = np.random.default_rng(5)
    data = _random_matrix(rng, 30, 3)
    w = rng.normal(size=4)
    g0 = logloss_gradient(w, data, 0.0)
    g1 = logloss_gradient(w, data, 0.7)
    delta = g1 - g0
    assert delta[:-1] == pytest.approx(0.7 * w[:-1])
    assert delta[-1] == 0.0  # bias never regularized


def test_gradient_rejects_wrong_length():
    data = _stump_data()
    with pytest.raises(ValueError):
        logloss_gradient(np.zeros(5), data, 0.0)


def test_zero_weight_model_predicts_label_zero():
    model = LogisticRegression(epochs=0)
    model.fit(np.zeros((4, 2)) + np.arange(8).reshape(4, 2), np.array([0, 1, 0, 1]))
    assert np.all(model.weights_ == 0.0)
    assert np.all(model.predict(np.random.default_rng(0).normal(size=(6, 2))) == 0)


# ---------------------------------------------------------------- knn


def test_knn_k1_copies_nearest_label():
    X = np.array([[0.0], [10.0]])
    y = np.array([0, 1])
    model = KNearestNeighbors(n_neighbors=1).fit(X, y)
    assert model.predict(np.array([[1.0]]))[0] == 0
    assert model.predict(np.array([[9.0]]))[0] == 1


def test_knn_matches_brute_force_oracle():
    rng = np.random.default_rng(17)
    for trial in range(50):
        n = int(rng.integers(5, 200))
        d = int(rng.integers(1, 10))
        train_X = rng.normal(size=(n, d))
        train_y = rng.integers(0, 2, n)
        test_X = rng.normal(size=(20, d))
        k = int(rng.integers(1, min(n, 25) + 1))
        weighting = "uniform" if trial % 2 == 0 else "distance"
        model = KNearestNeighbors(n_neighbors=k, weighting=weighting).fit(train_X, train_y)
        expected = knn_oracle(train_X, train_y, test_X, k, weighting)
        assert np.array_equal(model.predict(test_X), expected)
    # tie-heavy inputs: integer-grid features (exact distances, many equal),
    # duplicated training rows, queries equal to training rows, k up to n
    for trial in range(200):
        n = int(rng.integers(2, 60))
        d = int(rng.integers(1, 4))
        train_X = rng.integers(0, 3, size=(n, d)).astype(float)
        train_X = train_X[rng.integers(0, n, n)]
        train_y = rng.integers(0, 2, n)
        test_X = np.vstack([
            train_X[rng.integers(0, n, 10)],
            rng.integers(-1, 4, size=(10, d)).astype(float),
        ])
        k = n if trial % 5 == 0 else int(rng.integers(1, n + 1))
        for weighting in ("uniform", "distance"):
            model = KNearestNeighbors(n_neighbors=k, weighting=weighting).fit(train_X, train_y)
            expected = knn_oracle(train_X, train_y, test_X, k, weighting)
            assert np.array_equal(model.predict(test_X), expected), (trial, k, weighting)
    # 1/d sums that are equal in exact arithmetic (1 + 3/2 + 1/3 + 1/4 for
    # label 1, 2 + 1/2 + 1/3 + 1/4 for label 0): summing in another order
    # can flip the vote, so it must follow the oracle's per-label sums
    train_X = np.array([3.0, 0.0, 2.0, 2.0, 1.0, 3.0, 3.0, 0.0, 2.0, 1.0, 2.0])[:, None]
    train_y = np.array([0, 0, 1, 0, 0, 0, 1, 1, 1, 1, 1])
    model = KNearestNeighbors(n_neighbors=11, weighting="distance").fit(train_X, train_y)
    expected = knn_oracle(train_X, train_y, np.array([[4.0]]), 11, "distance")
    assert np.array_equal(model.predict(np.array([[4.0]])), expected)


def test_knn_zero_distance_dominates_distance_weighting():
    X = np.array([[0.0, 0.0], [0.0, 0.0], [5.0, 5.0]])
    y = np.array([1, 1, 0])
    model = KNearestNeighbors(n_neighbors=3, weighting="distance").fit(X, y)
    assert model.predict(np.array([[0.0, 0.0]]))[0] == 1


# ---------------------------------------------------------------- naive bayes


def test_nb_matches_exhaustive_log_posterior():
    rng = np.random.default_rng(29)
    for _ in range(20):
        n = int(rng.integers(6, 50))
        d = int(rng.integers(1, 5))
        X = rng.normal(size=(n, d))
        y = rng.integers(0, 2, n)
        if y.min() == y.max():
            continue
        exponent = float(rng.uniform(-12, -6))
        model = GaussianNaiveBayes(var_smoothing_exp=exponent).fit(X, y)
        assert np.array_equal(model.predict(X), nb_oracle(X, y, X, exponent))


def test_nb_posterior_tie_resolves_to_zero():
    # perfectly symmetric classes, query equidistant from both
    X = np.array([[-1.0], [1.0]])
    y = np.array([0, 1])
    model = GaussianNaiveBayes().fit(X, y)
    assert model.predict(np.array([[0.0]]))[0] == 0


# ---------------------------------------------------------------- contract


def test_training_is_deterministic_per_seed():
    rng = np.random.default_rng(31)
    data = _random_matrix(rng, 90, 5)
    probe = rng.normal(size=(30, 5))
    for family in FAMILIES:
        a = train(ModelSpec(family, {}), data, seed=1234)
        b = train(ModelSpec(family, {}), data, seed=1234)
        assert np.array_equal(predict(a, probe), predict(b, probe)), family


def test_predict_rejects_wrong_width():
    data = _stump_data()
    model = train(ModelSpec("DT", {}), data, seed=0)
    with pytest.raises(ValueError):
        predict(model, np.zeros((3, 4)))


def test_trained_model_summary_is_json_ready():
    data = _stump_data()
    model = train(ModelSpec("NB", {}), data, seed=0)
    summary = json.loads(json.dumps(model.summary()))
    assert summary["family"] == "NB"
    assert set(summary) == {"family", "config", "fit_seconds"}
    assert summary["fit_seconds"] >= 0.0
    assert summary["config"] == {"var_smoothing_exp": -9.0}


def test_default_config_round_trips_through_train():
    data = _stump_data()
    for family in FAMILIES:
        model = train(ModelSpec(family, {}), data, seed=3)
        assert model.config == default_config(family)
