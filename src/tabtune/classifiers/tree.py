"""CART binary trees: one greedy depth-first grower and one split kernel.

The kernel sorts every candidate column once, keeps the split points between
distinct values and takes the first maximum gain. A criterion supplies only
the gains computed from the sorted targets: gini and entropy for
classification (``DecisionTree``, ``RandomForest``) and squared error for
the regression stages of ``GradientBoostedTrees``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _positive_rate(labels) -> float:
    labels = np.asarray(labels)
    if labels.size == 0:
        raise ValueError("cannot compute impurity of an empty label vector")
    return float(labels.mean())


def gini_impurity(labels) -> float:
    """1 - p0^2 - p1^2 over a nonempty binary label vector."""
    p1 = _positive_rate(labels)
    p0 = 1.0 - p1
    return 1.0 - p0 * p0 - p1 * p1


def entropy_impurity(labels) -> float:
    return float(_entropy_from_p1(np.array([_positive_rate(labels)]))[0])


def _gini_from_p1(p1):
    return 1.0 - p1 * p1 - (1.0 - p1) * (1.0 - p1)


def _entropy_from_p1(p1):
    p0 = 1.0 - p1
    out = np.zeros_like(p1)
    for p in (p0, p1):
        nz = p > 0
        out[nz] -= p[nz] * np.log2(p[nz])
    return out


def _impurity_gains(impurity):
    """Impurity decrease of every split point from sorted 0/1 labels."""

    def gains(ys, n_left, n):
        ones = np.cumsum(ys, axis=0)
        total = ones[-1].astype(float)
        n_right = n - n_left
        p1_left = ones[:-1] / n_left
        p1_right = (total - ones[:-1]) / n_right
        parent = impurity(np.array([total[0] / n]))[0]
        weighted = (n_left * impurity(p1_left) + n_right * impurity(p1_right)) / n
        return parent - weighted

    return gains


def _sse_gains(rs, n_left, n):
    """Squared-error reduction of every split point from sorted targets."""
    s = np.cumsum(rs, axis=0)
    q = np.cumsum(rs * rs, axis=0)
    n_right = n - n_left
    s_left = s[:-1]
    s_right = s[-1] - s_left
    sse_left = q[:-1] - s_left * s_left / n_left
    sse_right = (q[-1] - q[:-1]) - s_right * s_right / n_right
    sse_total = q[-1] - s[-1] * s[-1] / n
    return sse_total - sse_left - sse_right


_CRITERIA = {
    "gini": _impurity_gains(_gini_from_p1),
    "entropy": _impurity_gains(_entropy_from_p1),
    "sse": _sse_gains,
}
_CLASSIFICATION_CRITERIA = ("gini", "entropy")


def _best_split_matrix(X, y, criterion):
    """(feature, threshold, gain) of the best split over every column, or
    None when no split has positive gain.

    Candidate thresholds are the midpoints between consecutive distinct
    sorted values. Ties resolve to the smallest threshold within a feature,
    then to the smallest feature index.
    """
    n, d = X.shape
    if n < 2 or d == 0:
        return None
    order = np.argsort(X, axis=0)
    xs = np.take_along_axis(X, order, axis=0)
    boundary = xs[1:] != xs[:-1]  # split after sorted position i
    if not boundary.any():
        return None
    n_left = np.arange(1, n, dtype=float)[:, None]
    gains = _CRITERIA[criterion](y[order], n_left, n)
    gains[~boundary] = -np.inf
    best_rows = np.argmax(gains, axis=0)  # first max: smallest threshold
    best_gains = gains[best_rows, np.arange(d)]
    feature = int(np.argmax(best_gains))  # first max: smallest feature index
    gain = best_gains[feature]
    if not np.isfinite(gain) or gain <= 0.0:
        return None
    row = best_rows[feature]
    threshold = (xs[row, feature] + xs[row + 1, feature]) / 2.0
    return feature, float(threshold), float(gain)


def best_split(feature_column, labels, criterion: str = "gini"):
    """Best (threshold, gain) for one feature, or None when no split helps.

    Same candidates and tie rules as the tree's split search: midpoints
    between consecutive distinct values, smallest threshold on ties. None
    when the feature is constant or no candidate has positive gain.
    """
    x = np.asarray(feature_column, dtype=float)
    y = np.asarray(labels)
    if len(x) != len(y):
        raise ValueError(f"feature has {len(x)} rows but labels has {len(y)}")
    if criterion not in _CLASSIFICATION_CRITERIA:
        raise ValueError(f"unknown criterion {criterion!r}")
    found = _best_split_matrix(x[:, None], y, criterion)
    return None if found is None else found[1:]


@dataclass
class _Node:
    value: float = 0.0  # leaf output: a 0/1 label or a regression value
    feature: int = -1
    threshold: float = 0.0
    left: "_Node | None" = None
    right: "_Node | None" = None


def grow(X, y, criterion, max_depth, stop, leaf_value, candidates=None):
    """Grow a tree depth first, left subtree before right; rows with
    feature <= threshold go left.

    A node becomes a leaf holding ``leaf_value(y)`` at ``max_depth``, when
    ``stop(y)`` holds, or when no split has positive gain. ``candidates``,
    when given, is called once per searched node and returns the sorted
    feature indices that node may split on.
    """

    def node_for(X, y, depth):
        if depth >= max_depth or stop(y):
            return _Node(leaf_value(y))
        features = None if candidates is None else candidates()
        sub = X if features is None else X[:, features]
        found = _best_split_matrix(sub, y, criterion)
        if found is None:
            return _Node(leaf_value(y))
        feature, threshold, _ = found
        if features is not None:
            feature = int(features[feature])
        mask = X[:, feature] <= threshold
        if mask.all() or not mask.any():  # degenerate midpoint rounding
            return _Node(leaf_value(y))
        node = _Node(feature=feature, threshold=threshold)
        node.left = node_for(X[mask], y[mask], depth + 1)
        node.right = node_for(X[~mask], y[~mask], depth + 1)
        return node

    return node_for(X, y, 0)


def predict_tree(root, X, dtype=float):
    """Leaf value of every row of ``X``."""
    out = np.zeros(X.shape[0], dtype=dtype)
    _predict_into(root, X, np.arange(X.shape[0]), out)
    return out


def _predict_into(node, X, rows, out):
    if rows.size == 0:
        return
    if node.left is None:
        out[rows] = node.value
        return
    mask = X[rows, node.feature] <= node.threshold
    _predict_into(node.left, X, rows[mask], out)
    _predict_into(node.right, X, rows[~mask], out)


def _majority(y) -> int:
    # ties resolve toward label 0
    return 1 if 2 * int(y.sum()) > len(y) else 0


class DecisionTree:
    """Greedy binary classification tree.

    ``feature_rng``/``max_features`` enable per-split feature subsampling for
    forest use when ``max_features`` is below the feature count; otherwise
    every feature is considered at every node and no draw is made.
    """

    def __init__(self, max_depth=10, min_samples_split=2, criterion="gini",
                 feature_rng=None, max_features=None):
        if criterion not in _CLASSIFICATION_CRITERIA:
            raise ValueError(f"unknown criterion {criterion!r}")
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.criterion = criterion
        self.feature_rng = feature_rng
        self.max_features = max_features
        self.n_features_ = None
        self.root_ = None

    def fit(self, X, y):
        X = np.asarray(X, dtype=float)
        y = np.asarray(y)
        self.n_features_ = X.shape[1]
        subsample = (self.feature_rng is not None and self.max_features is not None
                     and self.max_features < self.n_features_)
        self.root_ = grow(
            X, y, self.criterion, self.max_depth,
            stop=lambda labels: (len(labels) < self.min_samples_split
                                 or labels.min() == labels.max()),
            leaf_value=_majority,
            candidates=self._candidate_features if subsample else None,
        )
        return self

    def _candidate_features(self):
        return np.sort(self.feature_rng.choice(self.n_features_, size=self.max_features,
                                               replace=False))

    def predict(self, X):
        return predict_tree(self.root_, np.asarray(X, dtype=float), np.int64)
