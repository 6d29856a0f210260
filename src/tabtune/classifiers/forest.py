"""Random forest: bootstrapped CART trees with per-split feature subsampling."""

from __future__ import annotations

import math

import numpy as np

from .tree import grow


class RandomForest:
    """Majority vote over trees; vote ties resolve toward label 0.

    Prediction reads the first ``n_estimators`` trees of ``trees_`` to
    ``max_depth`` levels, so a model whose config is smaller than its fit's
    votes with the smaller forest."""

    def __init__(self, n_estimators=50, max_depth=10, max_features_frac=1.0, seed=0):
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.max_features_frac = max_features_frac
        self.seed = seed
        self.trees_ = None
        self.n_features_ = None

    def fit(self, X, y):
        X = np.asarray(X, dtype=float)
        n, d = X.shape
        self.n_features_ = d
        m = max(1, math.ceil(self.max_features_frac * d))
        rng = np.random.default_rng(self.seed)
        samples = [rng.integers(0, n, size=n) for _ in range(self.n_estimators)]
        self.trees_ = grow(X, y, samples, self.max_depth,
                           draw_columns=self._column_draws(d, m) if m < d else None)
        return self

    def _column_draws(self, d, m):
        """``grow``'s ``draw_columns``: a node may split on the m columns with
        the smallest of d uniform keys, drawn from its tree's own stream. The
        ranks sort a permutation, which has no ties: any sort kind serves."""
        streams = [np.random.default_rng([self.seed, t]) for t in range(self.n_estimators)]

        def draw_columns(tree_of):  # the nodes come tree by tree
            keys = np.concatenate([streams[t].random((count, d))
                                   for t, count in zip(*np.unique(tree_of, return_counts=True))])
            return np.argsort(keys, axis=1, kind="stable").argsort(axis=1, kind="quicksort") < m

        return draw_columns

    def _grouped_votes(self, X):
        """The first ``n_estimators`` trees, each read to ``max_depth``."""
        return self.trees_.grouped_leaf_values(np.asarray(X, dtype=float), self.n_estimators,
                                               self.max_depth)

    def predict(self, X):
        votes = sum(group.sum(axis=0) for group in self._grouped_votes(X))
        return (2 * votes > self.n_estimators).astype(np.int64)
