import copy
import math
import pickle

import numpy as np
import pytest

import tabtune.classifiers.boosting as boosting_module
import tabtune.classifiers.tree as tree_module
from tabtune.classifiers import (
    _FAMILY_TABLE,
    FAMILIES,
    ModelSpec,
    SingleClassError,
    accuracy,
    default_config,
    hp_schema,
    predict,
    train,
)
from tabtune.classifiers.bayes import GaussianNaiveBayes
from tabtune.classifiers.boosting import GradientBoostedTrees
from tabtune.classifiers.forest import RandomForest
from tabtune.classifiers.kernels import sigmoid
from tabtune.classifiers.linear import LinearSVM, LogisticRegression, _gradient
import tabtune.classifiers.neighbors as neighbors_module
from tabtune.classifiers.neighbors import KNearestNeighbors, _k_nearest
from tabtune.classifiers.tree import (
    _IMPURITY,
    DecisionTree,
    _best_splits,
    _best_sse_split,
    _RankedColumns,
    _sorted_node,
)
from tabtune.preprocess import apply_plan, fit_plan, make_design_matrix
from tabtune.tabular import generate_synthetic, split_train_test

from oracles import (
    brute_force_split,
    brute_force_sse_split,
    knn_oracle,
    mean_logloss,
    nb_oracle,
    reference_forest,
    reference_lr_fit,
    reference_predict,
    reference_preorder,
    reference_sigmoid,
    reference_svm_fit,
    reference_tree,
)


def _matrix(X, y):
    X = np.asarray(X, dtype=float)
    names = tuple(f"f{j}" for j in range(X.shape[1]))
    return make_design_matrix(X, names, np.asarray(y, dtype=np.int64))


def _random_matrix(rng, n, d, separation=1.0):
    y = rng.integers(0, 2, n)
    X = rng.normal(size=(n, d)) + separation * y[:, None] * rng.normal(size=d)
    return _matrix(X, y)


def _mixed_matrix(rng, n, d):
    """Binary, one-decimal (tied), constant and continuous columns; the last
    quarter of the rows repeats earlier rows, labels included or not."""
    X = np.empty((n, d))
    for j in range(d):
        kind = j % 4
        if kind == 0:
            X[:, j] = rng.integers(0, 2, n)
        elif kind == 1:
            X[:, j] = np.round(rng.normal(size=n), 1)
        elif kind == 2:
            X[:, j] = 0.5
        else:
            X[:, j] = rng.normal(size=n)
    X[n - n // 4:] = X[rng.integers(0, n - n // 4, n // 4)]
    y = (X[:, 0] + X[:, 1] + rng.normal(size=n) > 0.5).astype(np.int64)
    return X, y


def _preorder(trees, root, depth=math.inf):
    """(feature, threshold, leaf value) of one tree's nodes in depth-first
    preorder, as ``oracles.reference_preorder`` lists them; nodes at
    ``depth`` count as leaves, as prediction reads them."""
    out, stack = [], [(root, 0)]
    while stack:
        i, level = stack.pop()
        if trees.feature[i] < 0 or level == depth:
            out.append((-1, None, float(trees.value[i])))
        else:
            out.append((int(trees.feature[i]), float(trees.threshold[i]), None))
            stack += [(trees.left[i] + 1, level + 1), (trees.left[i], level + 1)]
    return out


def _seen_trees(trees, n_trees=None, depth=math.inf):
    """The preorders of the first ``n_trees`` trees (all by default) read to
    ``depth``."""
    return [_preorder(trees, root, depth) for root in trees.roots[:n_trees]]


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
    gini = _IMPURITY["gini"]  # of the share of label 1
    assert gini(np.mean([0, 0, 1, 1])) == 0.5
    assert gini(np.mean([1, 1, 1])) == 0.0
    assert gini(np.mean([0, 0, 0, 1])) == pytest.approx(0.375)


def test_best_split_four_point_example():
    # brute force over the 3 midpoints gives threshold 2.5, gain 0.5
    oracle = brute_force_split([1, 2, 3, 4], [0, 0, 1, 1])
    assert oracle == (2.5, 0.5)
    feature, threshold, gain = _best_splits(
        _RankedColumns(np.array([[1.0], [2.0], [3.0], [4.0]])), np.array([0, 0, 1, 1]),
        np.arange(4), np.array([4]), _IMPURITY["gini"])
    assert (feature[0], threshold[0], gain[0]) == (0, 2.5, 0.5)


def test_best_split_constant_and_pure():
    # one node of a constant column, then one of pure labels: neither splits
    feature, _, _ = _best_splits(_RankedColumns(np.ones((6, 1))), np.array([0, 1, 0, 1, 0, 1]),
                                 np.arange(6), np.array([6]), _IMPURITY["gini"])
    assert feature.tolist() == [-1]
    feature, _, _ = _best_splits(_RankedColumns(np.arange(6.0)[:, None]), np.zeros(6, np.intp),
                                 np.arange(6), np.array([6]), _IMPURITY["gini"])
    assert feature.tolist() == [-1]


def test_best_split_matches_brute_force_on_random_columns():
    # 25 nodes per criterion, searched together as one batch of one column
    rng = np.random.default_rng(42)
    for criterion in ("gini", "entropy"):
        counts = rng.integers(2, 40, size=25)
        x = np.round(rng.normal(size=counts.sum()), 1)  # duplicates likely
        y = rng.integers(0, 2, counts.sum())
        feature, threshold, gain = _best_splits(_RankedColumns(x[:, None]), y,
                                                np.arange(len(x)), counts, _IMPURITY[criterion])
        ends = np.cumsum(counts)
        for node, (start, end) in enumerate(zip(ends - counts, ends)):
            expected = brute_force_split(x[start:end], y[start:end], criterion)
            if expected is None:
                assert feature[node] == -1
            else:
                assert feature[node] == 0
                assert threshold[node] == pytest.approx(expected[0])
                assert gain[node] == pytest.approx(expected[1], abs=1e-12)


def test_sse_split_matches_brute_force_on_tied_columns():
    rng = np.random.default_rng(17)
    for _ in range(60):
        n = int(rng.integers(2, 40))
        d = int(rng.integers(1, 5))
        X = np.round(rng.normal(size=(n, d)), 1)  # duplicates likely
        X[:, rng.integers(0, d)] = rng.integers(0, 2, n)  # one binary column
        r = rng.normal(size=n)
        # the node's rows sit among others, whose targets the search must not read
        pad = min(n, 3)
        X_all, r_all = np.vstack([X[:pad] + 1.0, X]), np.concatenate([r[:pad] + 1.0, r])
        rows = np.arange(pad, pad + n)
        got = _best_sse_split(X_all, _sorted_node(X_all, rows), r_all)
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


def test_tree_matches_recursive_reference(monkeypatch):
    # 16 cells: fewer than the 40 test rows, so the one tree still forms one group
    route_bounds = (tree_module._ROUTE_CELLS, 16)
    rng = np.random.default_rng(31)
    for n, d in ((90, 6), (60, 9)):
        X, y = _mixed_matrix(rng, n, d)
        test_X, _ = _mixed_matrix(rng, 40, d)
        for criterion in ("gini", "entropy"):
            for min_samples_split in (2, 7):
                for depth in range(1, 21):
                    model = DecisionTree(max_depth=depth, min_samples_split=min_samples_split,
                                         criterion=criterion).fit(X, y)
                    reference = reference_tree(X, y, criterion, depth, min_samples_split)
                    assert _preorder(model.tree_, 0) == reference_preorder(reference)
                    for route_cells in route_bounds:
                        monkeypatch.setattr(tree_module, "_ROUTE_CELLS", route_cells)
                        assert np.array_equal(model.predict(test_X),
                                              reference_predict(reference, test_X))
    # adjacent floats whose midpoint rounds to the larger one: no row goes right
    X = np.array([[np.nextafter(1.0, 0.0)], [1.0]] * 3)
    y = np.array([0, 1] * 3)
    expected = reference_preorder(reference_tree(X, y, "gini", 10))
    assert expected == [(-1, None, 0.0)]
    assert _preorder(DecisionTree().fit(X, y).tree_, 0) == expected


# ---------------------------------------------------------------- forest


# 50 rows: many batches per level; 45 cells: one tree per routed group
@pytest.mark.parametrize("batch_rows, route_cells",
                         [(tree_module._BATCH_ROWS, tree_module._ROUTE_CELLS), (50, 45)])
def test_forest_matches_recursive_reference(monkeypatch, batch_rows, route_cells):
    monkeypatch.setattr(tree_module, "_BATCH_ROWS", batch_rows)
    monkeypatch.setattr(tree_module, "_ROUTE_CELLS", route_cells)
    rng = np.random.default_rng(32)
    X, y = _mixed_matrix(rng, 70, 8)
    test_X, _ = _mixed_matrix(rng, 30, 8)
    # 0.95 of 8 columns is 8: no draws, the same trees as 1.0
    for frac in (1.0, 0.95, 0.3):
        for seed in (0, 1, 2):
            forest = RandomForest(n_estimators=6, max_depth=7, max_features_frac=frac,
                                  seed=seed).fit(X, y)
            references = reference_forest(X, y, 6, 7, frac, seed, bootstrap=True)
            assert ([_preorder(forest.trees_, root) for root in forest.trees_.roots]
                    == [reference_preorder(tree) for tree in references])
            assert np.array_equal(
                np.concatenate(list(forest._grouped_votes(test_X))),
                np.stack([reference_predict(tree, test_X) for tree in references]))
            votes = sum(reference_predict(tree, test_X) for tree in references)
            assert np.array_equal(forest.predict(test_X), (2 * votes > 6).astype(np.int64))


def test_grown_node_arrays_keep_their_bits_at_any_batch_size(monkeypatch):
    rng = np.random.default_rng(34)
    X, y = _mixed_matrix(rng, 90, 8)
    models = [(DecisionTree, {"max_depth": 12, "min_samples_split": split,
                              "criterion": criterion}, "tree_")
              for criterion in ("gini", "entropy") for split in (2, 7)]
    models += [(RandomForest, {"n_estimators": 6, "max_depth": 8, "max_features_frac": frac,
                               "seed": 5}, "trees_")
               for frac in (1.0, 0.3)]
    for model, params, attribute in models:
        seen = []
        for batch_rows in (1, 50, tree_module._BATCH_ROWS):
            monkeypatch.setattr(tree_module, "_BATCH_ROWS", batch_rows)
            trees = getattr(model(**params).fit(X, y), attribute)
            assert len(trees.value) > 10  # the trees split
            seen.append([(a.dtype, a.tobytes()) for a in (trees.feature, trees.threshold,
                                                          trees.left, trees.value, trees.roots)])
            monkeypatch.undo()
        assert seen[0] == seen[1] == seen[2]


def test_batches_hold_whole_nodes_in_order_within_their_bound(monkeypatch):
    monkeypatch.setattr(tree_module, "_BATCH_ROWS", 10)
    # a node starting in the previous block joins the next batch whole
    assert [(b.start, b.stop, r.start, r.stop) for b, r in tree_module._batches(
        np.array([2, 9, 9]))] == [(0, 1, 0, 2), (1, 3, 2, 20)]
    assert list(tree_module._batches(np.array([], dtype=np.intp))) == []
    rng = np.random.default_rng(35)
    for high in (3, 12, 40):  # nodes smaller, about as large and larger than a block
        counts = rng.integers(1, high, size=int(rng.integers(1, 60)))
        ends = np.cumsum(counts)
        node_end = row_end = 0
        for batch, rows in tree_module._batches(counts):
            # consecutive whole nodes, and exactly their rows
            assert batch.start == node_end < batch.stop and rows.start == row_end
            node_end, row_end = batch.stop, ends[batch.stop - 1]
            assert rows.stop == row_end
            assert rows.stop - rows.start < counts[batch.start] + 10
        assert (node_end, row_end) == (len(counts), ends[-1])


def test_forest_feature_subsampling_searches_m_columns(monkeypatch):
    rng = np.random.default_rng(4)
    data = _random_matrix(rng, 120, 10)
    m = math.ceil(0.3 * data.n_features)
    searches = []
    real_search = tree_module._best_splits

    def recording_search(ranked, y, rows, counts, impurity, allowed=None):
        found = real_search(ranked, y, rows, counts, impurity, allowed)
        searches.append((allowed, found[0]))
        return found

    monkeypatch.setattr(tree_module, "_best_splits", recording_search)
    fits = [
        RandomForest(n_estimators=6, max_depth=5, max_features_frac=0.3, seed=11)
        .fit(data.features, data.labels)
        for _ in range(2)
    ]
    assert searches
    for allowed, feature in searches:
        assert allowed.shape == (len(feature), data.n_features)
        assert np.all(allowed.sum(axis=1) == m)
        chosen = feature >= 0
        assert np.all(allowed[np.flatnonzero(chosen), feature[chosen]])
    assert any((feature >= 0).any() for _, feature in searches)
    first, second = fits
    assert np.array_equal(first.trees_.feature, second.trees_.feature)
    assert np.array_equal(first.trees_.threshold, second.trees_.threshold)
    votes = [np.concatenate(list(fit._grouped_votes(data.features))) for fit in fits]
    assert np.array_equal(votes[0], votes[1])
    assert votes[0].var(axis=0).max() > 0  # the trees differ


def test_forest_vote_tie_goes_to_zero():
    rng = np.random.default_rng(1)
    data = _random_matrix(rng, 60, 3)
    forest = RandomForest(n_estimators=2, max_depth=3, seed=9).fit(
        data.features, data.labels
    )
    votes = np.concatenate(list(forest._grouped_votes(data.features))).sum(axis=0)
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


@pytest.mark.parametrize("route_cells", [tree_module._ROUTE_CELLS, 70])  # 70: 2 trees a group
def test_boosting_matches_recursive_reference(monkeypatch, route_cells):
    monkeypatch.setattr(tree_module, "_ROUTE_CELLS", route_cells)
    rng = np.random.default_rng(33)
    X, y = _mixed_matrix(rng, 80, 6)
    test_X, _ = _mixed_matrix(rng, 30, 6)
    for depth, rate in ((1, 1.0), (3, 0.3), (5, 0.7)):
        booster = GradientBoostedTrees(n_estimators=8, learning_rate=rate,
                                       max_depth=depth).fit(X, y)
        scores = np.full(len(y), booster.base_score_)
        test_scores = np.full(len(test_X), booster.base_score_)
        assert len(booster.trees_.roots) == 8
        for stage, root in enumerate(booster.trees_.roots):
            reference = reference_tree(X, y - sigmoid(scores), "sse", depth)
            assert _preorder(booster.trees_, root) == reference_preorder(reference)
            scores = scores + rate * reference_predict(reference, X)
            test_scores = test_scores + rate * reference_predict(reference, test_X)
            assert _same_bits(_stages(booster, stage + 1).decision_scores(X), scores)
        assert np.array_equal(booster.decision_scores(test_X), test_scores)


def _stages(booster, n):
    """The model of the first ``n`` stages, read off ``booster`` as
    ``train(..., fits=[booster])`` reads it (whose schema floor is 5 stages)."""
    model = copy.copy(booster)
    model.n_estimators = n
    return model


def _synthetic_train(rows, seed):
    split = split_train_test(generate_synthetic(rows, seed=seed), 0.75, seed=seed)
    return apply_plan(fit_plan(split.train, 0.6, "minmax"), split.train)


def test_boosting_never_searches_a_node_whose_targets_are_all_equal(monkeypatch):
    data = _synthetic_train(500, 1)
    searched = []
    real_search = tree_module._best_sse_split

    def recording_search(X, node, r):
        targets = r[node[0][:, 0]]  # the node's rows, in one column's order
        searched.append(targets.min() < targets.max())
        return real_search(X, node, r)

    monkeypatch.setattr(tree_module, "_best_sse_split", recording_search)
    GradientBoostedTrees(n_estimators=50, learning_rate=0.3, max_depth=6).fit(
        data.features, data.labels)
    assert searched and all(searched)


def test_boosting_stages_number_their_nodes_level_by_level():
    data = _synthetic_train(300, 2)
    booster = GradientBoostedTrees(n_estimators=10, learning_rate=0.5, max_depth=5).fit(
        data.features, data.labels)
    trees = booster.trees_
    assert len(trees.value) > 10 * 3  # the stages split
    # stage s holds exactly the nodes from its root up to the next stage's
    for root, end in zip(trees.roots, np.append(trees.roots[1:], len(trees.value))):
        level, numbers = [int(root)], []
        while level:
            numbers += level
            level = [child for node in level if trees.feature[node] >= 0
                     for child in (int(trees.left[node]), int(trees.left[node]) + 1)]
        assert numbers == list(range(root, end))


def test_boosting_stage_leaf_values_sum_to_the_training_scores(monkeypatch):
    data = _synthetic_train(300, 3)
    stage_values = []

    def recording_grow(X, r, max_depth, nodes, sorts):
        stage_values.append(real_grow(X, r, max_depth, nodes, sorts))
        return stage_values[-1]

    real_grow = boosting_module.grow_regression
    monkeypatch.setattr(boosting_module, "grow_regression", recording_grow)
    booster = GradientBoostedTrees(n_estimators=12, learning_rate=0.4, max_depth=4).fit(
        data.features, data.labels)
    assert len(stage_values) == len(booster.trees_.roots) == 12
    scores = np.full(data.n_rows, booster.base_score_)
    for values in stage_values:
        scores = scores + booster.learning_rate * values
    assert np.array_equal(booster.decision_scores(data.features), scores)


def test_boosting_reuses_each_node_sort_within_a_fit_and_keeps_its_bits(monkeypatch):
    # few rows with tied, binary and repeated ones: later stages often search
    # row sets, and row sets of one size, that earlier stages searched
    rng = np.random.default_rng(36)
    n, d, stages = 24, 6, 32
    data = [_mixed_matrix(rng, n, d) for _ in range(2)]  # two fits on other X, same rows
    sorts, searches = [], [0]
    real_sort, real_search = tree_module._sorted_node, tree_module._best_sse_split

    def recording_sort(X, rows):
        sorts.append(rows.tobytes())
        return real_sort(X, rows)

    def recording_search(X, node, r):
        searches[0] += 1
        return real_search(X, node, r)

    monkeypatch.setattr(tree_module, "_sorted_node", recording_sort)
    monkeypatch.setattr(tree_module, "_best_sse_split", recording_search)
    root = np.arange(n).tobytes()
    # the default bound, then one the root's sort exceeds: small nodes only
    default, seen = tree_module._SORT_CELLS, []
    for cells in (default, n * d - 1):
        monkeypatch.setattr(tree_module, "_SORT_CELLS", cells)
        arrays = []
        seen.append(arrays)
        for depth in range(1, 7):
            for X, y in data:
                sorts.clear()
                searches[0] = 0
                booster = GradientBoostedTrees(n_estimators=stages, learning_rate=0.6,
                                               max_depth=depth).fit(X, y)
                trees = booster.trees_
                arrays.append([a.tobytes() for a in (trees.feature, trees.threshold,
                                                     trees.left, trees.value, trees.roots)])
                scores = np.full(n, booster.base_score_)
                for stage, root_node in enumerate(trees.roots):
                    reference = reference_tree(X, y - sigmoid(scores), "sse", depth)
                    assert _preorder(trees, root_node) == reference_preorder(reference)
                    scores = scores + booster.learning_rate * reference_predict(reference, X)
                    assert _same_bits(_stages(booster, stage + 1).decision_scores(X), scores)
                if cells == default:
                    assert sorts.count(root) == 1  # once per fit
                    assert len(sorts) < searches[0]  # later stages reused sorts
                else:  # every stage searches its root, and sorts it again
                    assert sorts.count(root) == stages
    assert seen[0] == seen[1]  # the bound moves no bit


def test_a_fitted_booster_keeps_no_node_sorts():
    rng = np.random.default_rng(37)
    X, y = _mixed_matrix(rng, 60, 6)
    booster = GradientBoostedTrees(n_estimators=20, learning_rate=0.5, max_depth=4).fit(X, y)
    assert set(vars(booster)) == {"n_estimators", "learning_rate", "max_depth", "base_score_",
                                  "trees_", "n_features_"}
    trees = booster.trees_
    node_bytes = sum(a.nbytes for a in (trees.feature, trees.threshold, trees.left,
                                        trees.value, trees.roots))
    assert len(pickle.dumps(booster)) < node_bytes + 1024


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
        losses = [mean_logloss(y, _stages(booster, n).decision_scores(X))
                  for n in range(booster.n_estimators + 1)]
        assert all(b <= a for a, b in zip(losses, losses[1:]))


# ---------------------------------------------------------------- logistic regression


def test_gradient_bias_zero_on_symmetric_balanced_data():
    X = np.array([[1.0, -1.0], [-1.0, 1.0], [2.0, 0.0], [-2.0, 0.0]])
    y = np.array([1, 0, 1, 0])
    grad = _gradient(np.zeros(3), X, y, l2_strength=0.0)
    assert grad[-1] == pytest.approx(0.0)


def test_gradient_matches_central_finite_differences():
    rng = np.random.default_rng(23)
    data = _random_matrix(rng, 40, 4)
    X, y = data.features, data.labels
    h = 1e-5

    def loss(w, l2):  # mean log-loss plus (l2/2)*||w||^2 over the feature weights
        return mean_logloss(y, X @ w[:-1] + w[-1]) + 0.5 * l2 * float(w[:-1] @ w[:-1])

    for _ in range(10):
        w = rng.normal(scale=0.8, size=5)
        l2 = float(rng.uniform(0.0, 2.0))
        grad = _gradient(w, X, y, l2)
        for j in range(len(w)):
            bumped = w.copy()
            bumped[j] += h
            up = loss(bumped, l2)
            bumped[j] -= 2 * h
            down = loss(bumped, l2)
            numeric = (up - down) / (2 * h)
            denom = max(abs(numeric), abs(grad[j]), 1e-8)
            assert abs(grad[j] - numeric) / denom < 1e-4


def test_gradient_l2_term_is_linear():
    rng = np.random.default_rng(5)
    data = _random_matrix(rng, 30, 3)
    w = rng.normal(size=4)
    g0 = _gradient(w, data.features, data.labels, 0.0)
    g1 = _gradient(w, data.features, data.labels, 0.7)
    delta = g1 - g0
    assert delta[:-1] == pytest.approx(0.7 * w[:-1])
    assert delta[-1] == 0.0  # bias never regularized


def test_zero_weight_model_predicts_label_zero():
    model = LogisticRegression(epochs=0)
    model.fit(np.zeros((4, 2)) + np.arange(8).reshape(4, 2), np.array([0, 1, 0, 1]))
    assert np.all(model.weights_ == 0.0) and model.bias_ == 0.0
    assert np.all(model.predict(np.random.default_rng(0).normal(size=(6, 2))) == 0)



def _same_bits(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def test_sigmoid_matches_masked_reference_bit_for_bit():
    rng = np.random.default_rng(41)
    arrays = [rng.normal(scale=10.0, size=n) for n in range(71)]
    arrays.append(rng.normal(scale=10.0, size=16_500))
    arrays.append(rng.uniform(-800.0, 800.0, size=16_384))
    tiny = np.finfo(float).smallest_subnormal
    arrays.append(np.array([
        0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan,
        tiny, -tiny, 1e-310, -1e-310, np.finfo(float).tiny, -np.finfo(float).tiny,
        745.2, -745.2, 746.0, -746.0, 1e4, -1e4, 1.7e308, -1.7e308,
        36.0, -36.0, 709.9, -709.9,
    ]))
    for z in arrays:
        assert _same_bits(sigmoid(z), reference_sigmoid(z)), len(z)
    assert _same_bits(sigmoid(-3.5), reference_sigmoid(-3.5))  # 0-d input


def test_logistic_regression_weights_match_reference_bit_for_bit():
    rng = np.random.default_rng(43)
    for n, d, l2, rate, epochs in ((40, 3, 0.0, 0.1, 100), (250, 6, 0.01, 0.5, 60),
                                   (7, 1, 1.0, 2.0, 30), (120, 4, 0.0, 5.0, 80)):
        X = rng.normal(scale=3.0, size=(n, d))
        y = (X[:, 0] + rng.normal(size=n) > 0).astype(np.int64)
        model = LogisticRegression(l2_strength=l2, learning_rate=rate, epochs=epochs).fit(X, y)
        assert _same_bits(np.append(model.weights_, model.bias_),
                          reference_lr_fit(X, y, l2, rate, epochs))


def test_linear_svm_weights_match_reference_bit_for_bit():
    rng = np.random.default_rng(47)
    shares = set()
    separable = rng.normal(size=(60, 3))
    separable[:, 0] += np.where(np.arange(60) < 30, -4.0, 4.0)
    cases = [
        # large c: the first step clears every margin, then the shrinking
        # weights let rows back in
        (separable, (np.arange(60) >= 30).astype(np.int64), 1000.0, 60),
        # small c on noise: every row violates in every epoch
        (rng.normal(size=(50, 4)), rng.integers(0, 2, 50), 1e-4, 20),
        (rng.normal(size=(300, 5)), rng.integers(0, 2, 300), 1.0, 100),
        (np.column_stack([np.ones(9), rng.normal(size=9)]), rng.integers(0, 2, 9), 3.0, 15),
    ]
    for X, y, c, epochs in cases:
        model = LinearSVM(c=c, epochs=epochs).fit(X, y)
        w, b, counts = reference_svm_fit(X, y, c, epochs)
        assert _same_bits(model.weights_, w) and _same_bits(model.bias_, b)
        shares.update("none" if k == 0 else "all" if k == len(y) else "some" for k in counts)
    assert shares == {"none", "some", "all"}


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


def test_knn_query_equal_to_a_training_row_sits_at_distance_zero():
    # each row has a twin 1e-8 away with the other label: the row itself,
    # at distance exactly 0, must decide the vote
    rng = np.random.default_rng(59)
    X = rng.normal(0.0, 3.0, size=(200, 5))
    y = rng.integers(0, 2, 200)
    twins = X.copy()
    twins[:, 0] += 1e-8
    model = KNearestNeighbors(n_neighbors=3, weighting="distance").fit(
        np.vstack([X, twins]), np.concatenate([y, 1 - y]))
    assert np.array_equal(model.predict(X), y)


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


# ---------------------------------------------------------------- staged evaluation


def _fresh_and_read_off(family, big_config, config, data, seed=0):
    """(a fresh fit of ``config``, the model read off a fit of ``big_config``)."""
    big = train(ModelSpec(family, big_config), data, seed)
    return (train(ModelSpec(family, config), data, seed),
            train(ModelSpec(family, config), data, seed, fits=[big]))


def test_tree_read_off_a_deeper_tree_equals_a_fresh_fit():
    rng = np.random.default_rng(51)
    X, y = _mixed_matrix(rng, 90, 6)
    data, probe = _matrix(X, y), _mixed_matrix(rng, 40, 6)[0]
    for criterion in ("gini", "entropy"):
        for min_samples_split in (2, 7):
            fixed = {"criterion": criterion, "min_samples_split": min_samples_split}
            big = train(ModelSpec("DT", {**fixed, "max_depth": 20}), data, 0)
            for depth in range(1, 21):
                config = {**fixed, "max_depth": depth}
                fresh = train(ModelSpec("DT", config), data, 0)
                cut = train(ModelSpec("DT", config), data, 0, fits=[big])
                assert cut.max_depth == depth
                seen = _preorder(cut.tree_, 0, cut.max_depth)
                assert seen == _preorder(fresh.tree_, 0)
                assert seen == reference_preorder(
                    reference_tree(X, y, criterion, depth, min_samples_split))
                assert np.array_equal(predict(cut, probe), predict(fresh, probe))


@pytest.mark.parametrize("frac", [1.0, 0.95, 0.3])
def test_forest_read_off_a_larger_forest_equals_a_fresh_fit(frac):
    # 20 columns: 0.95 keeps 19 and 0.3 keeps 6, so both draw columns
    rng = np.random.default_rng(52)
    X, y = _mixed_matrix(rng, 50, 20)
    data, probe = _matrix(X, y), _mixed_matrix(rng, 30, 20)[0]
    big_config = {"n_estimators": 7, "max_depth": 6, "max_features_frac": frac}
    big = train(ModelSpec("RF", big_config), data, 3)
    for depth in range(1, 7):
        references = reference_forest(X, y, 7, depth, frac, 3, bootstrap=True)
        for n in (5, 6, 7):
            config = {**big_config, "n_estimators": n, "max_depth": depth}
            fresh = train(ModelSpec("RF", config), data, 3)
            cut = train(ModelSpec("RF", config), data, 3, fits=[big])
            assert (cut.n_estimators, cut.max_depth) == (n, depth)
            trees = _seen_trees(cut.trees_, cut.n_estimators, cut.max_depth)
            assert trees == _seen_trees(fresh.trees_)
            # the first n of 7 reference trees are the n-tree forest
            assert trees == [reference_preorder(tree) for tree in references[:n]]
            assert np.array_equal(np.concatenate(list(cut._grouped_votes(probe))),
                                  np.concatenate(list(fresh._grouped_votes(probe))))
            assert np.array_equal(predict(cut, probe), predict(fresh, probe))


def test_boosting_read_off_more_stages_equals_a_fresh_fit():
    rng = np.random.default_rng(53)
    X, y = _mixed_matrix(rng, 80, 6)
    data, probe = _matrix(X, y), _mixed_matrix(rng, 30, 6)[0]
    for rate, depth in ((0.3, 3), (1.0, 1)):
        fixed = {"learning_rate": rate, "max_depth": depth}
        for n in range(5, 13):
            fresh, cut = _fresh_and_read_off("GBT", {**fixed, "n_estimators": 12},
                                             {**fixed, "n_estimators": n}, data)
            assert cut.n_estimators == n and len(fresh.trees_.roots) == n
            assert _seen_trees(cut.trees_, cut.n_estimators) == _seen_trees(fresh.trees_)
            assert _same_bits(cut.decision_scores(X), fresh.decision_scores(X))
            assert _same_bits(cut.decision_scores(probe), fresh.decision_scores(probe))
            assert np.array_equal(predict(cut, probe), predict(fresh, probe))


def test_linear_models_read_off_more_epochs_equal_a_fresh_fit():
    rng = np.random.default_rng(54)
    data = _random_matrix(rng, 120, 4, separation=0.5)
    probe = rng.normal(size=(40, 4))
    for epochs in range(10, 61, 5):
        for fixed in ({"l2_strength": 0.0, "learning_rate": 0.5},
                      {"l2_strength": 0.3, "learning_rate": 1.0}):
            fresh, cut = _fresh_and_read_off("LR", {**fixed, "epochs": 60},
                                             {**fixed, "epochs": epochs}, data)
            assert cut.epochs == epochs
            assert _same_bits(cut.weights_, fresh.weights_)
            assert _same_bits(cut.bias_, fresh.bias_)
            assert np.array_equal(predict(cut, probe), predict(fresh, probe))
        for c in (0.5, 4.0):
            fresh, cut = _fresh_and_read_off("SVM", {"c": c, "epochs": 60},
                                             {"c": c, "epochs": epochs}, data)
            assert cut.epochs == epochs
            assert _same_bits(cut.weights_, fresh.weights_)
            assert _same_bits(cut.bias_, fresh.bias_)
            assert np.array_equal(predict(cut, probe), predict(fresh, probe))


def test_a_deeper_ranking_holds_every_shallower_one_as_its_prefix():
    # small integers: most rows tie at their k-th value, often several times
    rng = np.random.default_rng(60)
    d2 = rng.integers(0, 4, size=(40, 24)).astype(float)
    d2[:5] = 1.0  # whole rows of ties
    for depth in range(1, 25):
        deep = _k_nearest(d2, depth)
        assert np.array_equal(deep, np.argsort(d2, axis=1, kind="stable")[:, :depth])
        for k in range(1, depth + 1):
            assert np.array_equal(deep[:, :k], _k_nearest(d2, k)), (depth, k)


def test_a_deeper_ranking_with_nan_entries_holds_every_shallower_one():
    # NaN ranks after every number and ties with the other NaNs: rows with
    # no, few and mostly NaN entries, so the k-th value is NaN for some k
    rng = np.random.default_rng(61)
    d2 = rng.integers(0, 3, size=(34, 16)).astype(float)
    for row in range(34):  # 0 to 16 NaNs, twice
        d2[row, rng.permutation(16)[:row % 17]] = np.nan
    for depth in range(1, 17):
        deep = _k_nearest(d2, depth)
        assert np.array_equal(deep, np.argsort(d2, axis=1, kind="stable")[:, :depth])
        for k in range(1, depth + 1):
            assert np.array_equal(deep[:, :k], _k_nearest(d2, k)), (depth, k)


def _counting_k_nearest(monkeypatch):
    calls = []

    def counted(d2, k):
        calls.append((d2.shape, k))
        return real(d2, k)

    real = neighbors_module._k_nearest
    monkeypatch.setattr(neighbors_module, "_k_nearest", counted)
    return calls


def test_knn_read_off_a_larger_k_equals_a_fresh_fit(monkeypatch):
    # integer-grid rows (ties at every k), duplicated rows, and queries equal
    # to training rows (zero distances); 20 rows make k=25 rank all of them
    rng = np.random.default_rng(62)
    calls = _counting_k_nearest(monkeypatch)
    for n, big_k in ((60, 13), (20, 25)):
        X = rng.integers(0, 3, size=(n, 3)).astype(float)
        X = X[rng.integers(0, n, n)]
        data = _matrix(X, rng.integers(0, 2, n))
        probe = np.vstack([X[:15], rng.integers(-1, 4, size=(15, 3)).astype(float)])
        for big_weighting in ("uniform", "distance"):
            big = train(ModelSpec("KNN", {"n_neighbors": big_k, "weighting": big_weighting}),
                        data, 0)
            predict(big, probe)
            del calls[:]
            for k in range(1, big_k + 1):
                for weighting in ("uniform", "distance"):
                    config = {"n_neighbors": k, "weighting": weighting}
                    cut = train(ModelSpec("KNN", config), data, 0, fits=[big])
                    served = predict(cut, probe.copy())  # equal values, another array
                    assert calls == []  # served from the fit's ranking
                    fresh = predict(train(ModelSpec("KNN", config), data, 0), probe)
                    del calls[:]
                    assert np.array_equal(served, fresh), (n, big_weighting, k, weighting)
                    assert np.array_equal(served, knn_oracle(X, data.labels, probe, min(k, n),
                                                             weighting))


def test_knn_ranks_another_query_matrix_afresh(monkeypatch):
    rng = np.random.default_rng(63)
    data = _random_matrix(rng, 80, 4)
    first, second = rng.normal(size=(25, 4)), rng.normal(size=(25, 4))
    second[0] = first[0]  # same shape, and partly the same values
    calls = _counting_k_nearest(monkeypatch)
    big = train(ModelSpec("KNN", {"n_neighbors": 15}), data, 0)
    predict(big, first)
    cut = train(ModelSpec("KNN", {"n_neighbors": 4, "weighting": "distance"}), data, 0,
                fits=[big])
    fresh = train(ModelSpec("KNN", {"n_neighbors": 4, "weighting": "distance"}), data, 0)
    expected = [predict(fresh, first), predict(fresh, second)]
    del calls[:]
    for queries, want in ((second, expected[1]), (first, expected[0]), (first, expected[0])):
        assert np.array_equal(predict(cut, queries), want)
    # the second matrix and then the first again are ranked, to the fit's k
    assert calls == [((25, 80), 15), ((25, 80), 15)]
    assert np.array_equal(predict(big, first), predict(
        train(ModelSpec("KNN", {"n_neighbors": 15}), data, 0), first))
    assert len(calls) == 3  # the fresh fit's ranking; big is served


def test_nb_read_off_another_floor_equals_a_fresh_fit():
    rng = np.random.default_rng(64)
    mixed = rng.normal(size=(50, 4)) * np.array([1.0, 1e-4, 30.0, 1.0])
    mixed[:, 3] = 2.5  # a constant column: its class variances sit on the floor
    constant = np.full((40, 3), 7.0)  # every feature constant: the absolute floor
    exponents = [float(e) for e in np.linspace(-12.0, -6.0, 13)] + [
        float(e) for e in rng.uniform(-12.0, -6.0, 8)]
    for X in (mixed, constant):
        data = _matrix(X, rng.integers(0, 2, len(X)))
        probe = rng.normal(size=(30, X.shape[1]))
        for big_exp in (-12.0, -9.0, -6.0):
            grown = train(ModelSpec("NB", {"var_smoothing_exp": big_exp}), data, 0)
            for exponent in exponents:
                spec = ModelSpec("NB", {"var_smoothing_exp": exponent})
                cut, fresh = train(spec, data, 0, fits=[grown]), train(spec, data, 0)
                assert cut.var_smoothing_exp == exponent
                # the constant column sits on the floor: 10^e times the
                # largest feature variance, or 10^e when that is 0
                max_var = float(X.var(axis=0).max())
                floor = 10.0 ** exponent * max_var if max_var > 0 else 10.0 ** exponent
                assert np.all(cut.variances_[:, -1] == floor)
                for name in ("variances_", "means_", "log_priors_"):
                    assert _same_bits(getattr(cut, name), getattr(fresh, name)), name
                assert _same_bits(cut.log_posteriors(probe), fresh.log_posteriors(probe))
                assert np.array_equal(predict(cut, probe), predict(fresh, probe))
            assert grown.var_smoothing_exp == big_exp  # reading off leaves the fit as it was


def test_a_read_off_tree_model_holds_the_grown_fit_trees_themselves():
    rng = np.random.default_rng(65)
    data = _random_matrix(rng, 80, 4, separation=0.5)
    probe = rng.normal(size=(40, 4))
    for family, big_config, config, attr in (
            ("DT", {"max_depth": 12}, {"max_depth": 2}, "tree_"),
            ("RF", {"n_estimators": 10, "max_depth": 8}, {"n_estimators": 5, "max_depth": 3},
             "trees_"),
            ("GBT", {"n_estimators": 12}, {"n_estimators": 7}, "trees_")):
        grown = train(ModelSpec(family, big_config), data, 0)
        model = train(ModelSpec(family, config), data, 0, fits=[grown])
        assert getattr(model, attr) is getattr(grown, attr), family
        assert np.array_equal(predict(model, probe),
                              predict(train(ModelSpec(family, config), data, 0), probe))
    # a read-off deeper than the grown tree reached predicts as the grown model
    grown = train(ModelSpec("DT", {"max_depth": 20}), data, 0)
    whole = _preorder(grown.tree_, 0)
    reached = next(depth for depth in range(21) if _preorder(grown.tree_, 0, depth) == whole)
    assert 2 < reached < 19
    for depth in (reached, reached + 1, 19):
        model = train(ModelSpec("DT", {"max_depth": depth}), data, 0, fits=[grown])
        assert model.tree_ is grown.tree_
        assert np.array_equal(predict(model, probe), predict(grown, probe))
        assert np.array_equal(predict(model, data.features), predict(grown, data.features))


def test_an_equal_config_reads_off_the_grown_model_itself():
    data = _random_matrix(np.random.default_rng(55), 60, 3)
    for family in FAMILIES:
        grown = train(ModelSpec(family, {}), data, 2)
        assert train(ModelSpec(family, {}), data, 2, fits=[grown]) is grown


def test_a_fit_that_cannot_serve_the_config_is_passed_over():
    # a fit that does not cover the config gets a fresh fit appended after
    # it; a fit that covers it serves it without growing the list
    data = _random_matrix(np.random.default_rng(56), 60, 3)
    other_columns = _random_matrix(np.random.default_rng(57), 60, 4)
    probes = {3: np.random.default_rng(59).normal(size=(20, 3)),
              4: np.random.default_rng(59).normal(size=(20, 4))}
    dt = train(ModelSpec("DT", {"max_depth": 4}), data, 0)
    rf = train(ModelSpec("RF", {"n_estimators": 10}), data, 0)
    subsampled = train(ModelSpec("RF", {"n_estimators": 10, "max_features_frac": 0.3}),
                       data, 0)
    gbt = train(ModelSpec("GBT", {"n_estimators": 10, "max_depth": 3}), data, 0)
    lr = train(ModelSpec("LR", {"epochs": 50, "learning_rate": 0.1}), data, 0)
    nb = train(ModelSpec("NB", {}), data, 0)
    knn = train(ModelSpec("KNN", {}), data, 0)
    cases = [
        ("DT", {"max_depth": 4}, 0, rf, data),  # another model class
        ("DT", {"max_depth": 4}, 0, object(), data),
        ("DT", {"max_depth": 3, "criterion": "entropy"}, 0, dt, data),  # a non-budget parameter
        ("DT", {"max_depth": 5}, 0, dt, data),  # a larger budget
        ("RF", {"n_estimators": 5}, 1, rf, data),  # another seed
        ("RF", {"n_estimators": 12}, 0, rf, data),
        ("GBT", {"n_estimators": 5, "max_depth": 2}, 0, gbt, data),  # depth is no GBT budget
        ("LR", {"epochs": 20, "learning_rate": 0.2}, 0, lr, data),
        ("LR", {"epochs": 60, "learning_rate": 0.1}, 0, lr, data),
        ("KNN", {"n_neighbors": 6}, 0, knn, data),  # a larger k
        ("KNN", {"n_neighbors": 6, "weighting": "distance"}, 0, knn, data),
        ("DT", {"max_depth": 2}, 0, dt, other_columns),  # another column count
        ("NB", {"var_smoothing_exp": -8.0}, 0, nb, other_columns),
        ("KNN", {"n_neighbors": 3}, 0, knn, other_columns),
    ]
    for family, config, seed, fit, part in cases:
        before = dict(getattr(fit, "__dict__", {}))
        fits = [fit]
        model = train(ModelSpec(family, config), part, seed, fits=fits)
        assert len(fits) == 2 and fits[0] is fit and fits[1] is model, (family, config)
        probe = probes[part.n_features]
        assert np.array_equal(predict(model, probe),
                              predict(train(ModelSpec(family, config), part, seed), probe))
        after = getattr(fit, "__dict__", {})
        assert after.keys() == before.keys()
        assert all(after[name] is value for name, value in before.items()), (family, config)
    # the subsampled forest still serves a shallower forest of as many
    # trees; a free axis at any value, and a smaller k at either weighting
    for family, config, fit in (
            ("RF", {"n_estimators": 10, "max_depth": 2, "max_features_frac": 0.3}, subsampled),
            ("NB", {"var_smoothing_exp": -8.0}, nb),
            ("KNN", {"n_neighbors": 3}, knn),
            ("KNN", {"n_neighbors": 5, "weighting": "distance"}, knn)):
        fits = [fit]
        model = train(ModelSpec(family, config), data, 0, fits=fits)
        assert len(fits) == 1
        assert {name: getattr(model, name) for name in config} == config
        axes = _FAMILY_TABLE[family].budgets + _FAMILY_TABLE[family].free
        assert all(getattr(model, name) is value for name, value in vars(fit).items()
                   if name not in axes), (family, config)


def test_single_class_data_raises_before_the_grown_model_is_read():
    data = _matrix(np.random.default_rng(58).normal(size=(12, 3)), np.ones(12, dtype=np.int64))
    for family in FAMILIES:
        with pytest.raises(SingleClassError):
            train(ModelSpec(family, {}), data, 0, fits=[object()])


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


def test_default_config_round_trips_through_train():
    data = _stump_data()
    for family in FAMILIES:
        model = train(ModelSpec(family, {}), data, seed=3)
        config = default_config(family)
        assert {name: getattr(model, name) for name in config} == config
