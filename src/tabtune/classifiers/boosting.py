"""Gradient-boosted trees on logistic loss.

Each stage fits a depth-limited squared-error regression tree to the current
residual (label minus predicted probability) and adds it with shrinkage.
Leaf values are plain residual means, which keeps the training log-loss
non-increasing stage over stage for any learning rate up to 1.
"""

from __future__ import annotations

import numpy as np

from .linear import sigmoid
from .tree import grow, predict_tree


def mean_logloss(y, scores) -> float:
    """Mean logistic loss of raw scores against 0/1 labels."""
    return float(np.mean(np.logaddexp(0.0, scores) - y * scores))


def _residual_mean(r) -> float:
    return float(r.mean())


def _too_few_rows(r) -> bool:
    # No purity stop: a node whose residuals are all equal is still searched
    # and split whenever rounding leaves a positive gain. Stopping there would
    # change leaf values in their last bits, and with them the reports.
    return len(r) < 2


class GradientBoostedTrees:
    def __init__(self, n_estimators=50, learning_rate=0.3, max_depth=3):
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.base_score_ = 0.0
        self.trees_ = []
        self.stage_logloss_ = []  # index 0 is the prior-only model
        self.n_features_ = None

    def fit(self, X, y):
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        self.n_features_ = X.shape[1]
        p = y.mean()
        self.base_score_ = float(np.log(p / (1.0 - p)))
        scores = np.full(len(y), self.base_score_)
        self.trees_ = []
        self.stage_logloss_ = [mean_logloss(y, scores)]
        for _ in range(self.n_estimators):
            residual = y - sigmoid(scores)
            tree = grow(X, residual, "sse", self.max_depth,
                        stop=_too_few_rows, leaf_value=_residual_mean)
            scores = scores + self.learning_rate * predict_tree(tree, X)
            self.trees_.append(tree)
            self.stage_logloss_.append(mean_logloss(y, scores))
        return self

    def decision_scores(self, X):
        X = np.asarray(X, dtype=float)
        scores = np.full(X.shape[0], self.base_score_)
        for tree in self.trees_:
            scores = scores + self.learning_rate * predict_tree(tree, X)
        return scores

    def predict(self, X):
        # score exactly 0 resolves toward label 0
        return (self.decision_scores(X) > 0.0).astype(np.int64)
