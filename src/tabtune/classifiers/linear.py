"""(Sub)gradient descent over ``kernels``' products: logistic regression on
L2-regularized log-loss and a linear SVM on hinge loss."""

from __future__ import annotations

import numpy as np

from . import kernels


def _gradient(w, X, y, l2_strength):
    """Gradient of the mean log-loss plus ``l2_strength * w`` on the feature
    weights; ``w`` holds the feature weights and then the bias, which is
    never regularized."""
    err = kernels.sigmoid(kernels.matmul(X, w[:-1]) + w[-1]) - y
    grad = np.empty_like(w)
    grad[:-1] = kernels.matmul(X.T, err) / len(y) + l2_strength * w[:-1]
    grad[-1] = err.mean()
    return grad


class _EpochPath:
    """The read-off rule of the models fitted epoch by epoch: ``path_[e]``
    holds the feature weights and then the bias after ``e`` epochs, and a
    model reads the row ``path_[epochs]``, so a model whose config asks for
    fewer epochs than its fit ran reads the shorter fit. The weights apply
    to the model's ``_features(X)``."""

    @property
    def weights_(self):
        """The feature weights after ``epochs`` epochs."""
        return self.path_[self.epochs, :-1]

    @property
    def bias_(self):
        """The bias after ``epochs`` epochs."""
        return float(self.path_[self.epochs, -1])

    def decision_scores(self, X):
        return kernels.matmul(self._features(np.asarray(X, float)), self.weights_) + self.bias_


class LogisticRegression(_EpochPath):
    """Full-batch gradient descent from zero weights; bias unregularized."""

    def __init__(self, l2_strength=0.0, learning_rate=0.1, epochs=100):
        self.l2_strength = l2_strength
        self.learning_rate = learning_rate
        self.epochs = epochs
        self.path_ = None
        self.n_features_ = None

    def fit(self, X, y):
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        self.n_features_ = X.shape[1]
        w = np.zeros(X.shape[1] + 1)
        self.path_ = np.zeros((self.epochs + 1, len(w)))
        for epoch in range(self.epochs):
            w -= self.learning_rate * _gradient(w, X, y, self.l2_strength)
            self.path_[epoch + 1] = w
        return self

    def _features(self, X):
        return X

    def predict(self, X):
        # predict 1 iff p > 0.5, so p == 0.5 resolves toward label 0
        return (kernels.sigmoid(self.decision_scores(X)) > 0.5).astype(np.int64)


class LinearSVM(_EpochPath):
    """Batch subgradient descent on hinge loss with 1/c regularization.

    The step size follows the classic 1/(lambda * t) schedule with
    lambda = 1/c; the bias term is unregularized. The model's features are
    centered and variance-scaled by the training rows' mean and std
    (``shift_``, ``scale_``; a constant column keeps scale 1), in fitting
    and in scoring, which keeps the decaying schedule effective whatever the
    input scaling.
    """

    def __init__(self, c=1.0, epochs=100):
        self.c = c
        self.epochs = epochs
        self.path_ = None
        self.shift_ = None
        self.scale_ = None
        self.n_features_ = None

    def fit(self, X, y):
        X = np.asarray(X, dtype=float)
        y_signed = 2.0 * np.asarray(y, dtype=float) - 1.0
        n, d = X.shape
        self.n_features_ = d
        self.shift_ = X.mean(axis=0)
        scale = X.std(axis=0)
        scale[scale == 0.0] = 1.0
        self.scale_ = scale
        Z = self._features(X)
        lam = 1.0 / self.c
        w = np.zeros(d)
        b = 0.0
        self.path_ = np.zeros((self.epochs + 1, d + 1))
        for t in range(self.epochs):
            eta = 1.0 / (lam * (t + 1))
            margins = y_signed * (kernels.matmul(Z, w) + b)
            # take() gathers the same rows, in the same order, as a boolean
            # mask but faster, so the product's sums do not change
            violating = np.flatnonzero(margins < 1.0)
            y_violating = y_signed.take(violating)
            grad_w = lam * w - kernels.matmul(y_violating, Z.take(violating, axis=0)) / n
            grad_b = -float(y_violating.sum()) / n
            w = w - eta * grad_w
            b = b - eta * grad_b
            self.path_[t + 1, :d], self.path_[t + 1, d] = w, b
        return self

    def _features(self, X):
        return (X - self.shift_) / self.scale_

    def predict(self, X):
        return (self.decision_scores(X) > 0.0).astype(np.int64)
