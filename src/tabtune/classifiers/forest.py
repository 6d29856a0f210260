"""Random forest: bootstrapped CART trees with per-split feature subsampling."""

from __future__ import annotations

import math

import numpy as np

from .tree import grow, grow_depth_first, stack_trees


def _pure_or_single(labels) -> bool:
    ones = labels.sum()
    return len(labels) < 2 or ones == 0 or ones == len(labels)


def _majority(labels) -> float:
    return float(2 * labels.sum() > len(labels))  # ties go to 0


class RandomForest:
    """Majority vote over trees; vote ties resolve toward label 0.

    ``bootstrap=False`` makes every tree see the identical training rows,
    which collapses the ensemble onto a single deterministic tree when
    ``max_features_frac`` is 1.0.
    """

    def __init__(self, n_estimators=50, max_depth=10, max_features_frac=1.0,
                 seed=0, bootstrap=True):
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.max_features_frac = max_features_frac
        self.seed = seed
        self.bootstrap = bootstrap
        self.trees_ = None
        self.n_features_ = None

    def fit(self, X, y):
        X = np.asarray(X, dtype=float)
        n, d = X.shape
        self.n_features_ = d
        m = max(1, math.ceil(self.max_features_frac * d))
        rng = np.random.default_rng(self.seed)

        def rows():
            return rng.integers(0, n, size=n) if self.bootstrap else np.arange(n)

        if m < d:
            # one draw per searched node, depth first, each tree's after its
            # bootstrap and before the next tree's
            def columns():
                return np.sort(rng.choice(d, size=m, replace=False))

            y = np.asarray(y).astype(np.intp)

            def tree(sample):
                return grow_depth_first(X[sample], y[sample], "gini", self.max_depth,
                                        _pure_or_single, _majority, columns)[0]

            self.trees_ = stack_trees([tree(rows()) for _ in range(self.n_estimators)])
        else:
            samples = [rows() for _ in range(self.n_estimators)]
            self.trees_ = grow(X, y, samples, self.max_depth)
        return self

    def tree_predictions(self, X):
        return self.trees_.leaf_values(np.asarray(X, dtype=float)).astype(np.int64)

    def predict(self, X):
        groups = self.trees_.grouped_leaf_values(np.asarray(X, dtype=float))
        votes = sum(group.sum(axis=0) for group in groups)
        return (2 * votes > len(self.trees_.roots)).astype(np.int64)
