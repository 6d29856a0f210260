"""Gradient-boosted trees on logistic loss.

Each stage fits a depth-limited squared-error regression tree to the current
residual (label minus predicted probability) and adds it with shrinkage.
Leaf values are plain residual means, which keeps the training log-loss
non-increasing stage over stage for any learning rate up to 1. Prediction
sums the first ``n_estimators`` stages of ``trees_``, so a model whose
config asks for fewer stages than its fit grew reads the shorter model.
"""

from __future__ import annotations

import numpy as np

from . import kernels
from .tree import NodeSorts, Trees, grow_regression


class GradientBoostedTrees:
    def __init__(self, n_estimators=50, learning_rate=0.3, max_depth=3):
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.base_score_ = 0.0
        self.trees_ = None  # every stage's tree, in stage order
        self.n_features_ = None

    def fit(self, X, y):
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        self.n_features_ = X.shape[1]
        p = y.mean()
        self.base_score_ = float(kernels.log(p / (1.0 - p)))
        scores = np.full(len(y), self.base_score_)
        nodes, roots = ([], [], [], []), []  # every stage's nodes, in one store
        sorts = NodeSorts()  # this fit's alone: never stored on the model
        for _ in range(self.n_estimators):
            residual = y - kernels.sigmoid(scores)
            roots.append(len(nodes[0]))
            scores = scores + self.learning_rate * grow_regression(X, residual, self.max_depth,
                                                                   nodes, sorts)
        self.trees_ = Trees(*(np.array(column, dtype=dtype) for column, dtype in zip(
            (*nodes, roots), (np.intp, float, np.intp, float, np.intp))))
        return self

    def decision_scores(self, X):
        X = np.asarray(X, dtype=float)
        scores = np.full(X.shape[0], self.base_score_)
        for group in self.trees_.grouped_leaf_values(X, self.n_estimators, self.max_depth):
            for values in group:
                scores = scores + self.learning_rate * values
        return scores

    def predict(self, X):
        # score exactly 0 resolves toward label 0
        return (self.decision_scores(X) > 0.0).astype(np.int64)
