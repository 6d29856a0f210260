"""Linear models trained by (sub)gradient descent: logistic regression on
L2-regularized log-loss and a linear SVM on hinge loss."""

from __future__ import annotations

import numpy as np


def sigmoid(z):
    """Logistic function: 1/(1+exp(-z)) for z >= 0, else exp(z)/(1+exp(z)).

    Both branches are computed for every entry and chosen by ``where``, which
    is faster than gathering each branch's entries. ``exp`` sees only
    ``minimum(z, -z)``, so it never overflows; that is -|z|, except that a
    NaN keeps its sign, as the second branch's ``exp(z)`` would see it.
    """
    z = np.asarray(z, dtype=float)
    e = np.exp(np.minimum(z, -z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def mean_logloss(y, scores) -> float:
    """Mean logistic loss of raw scores against 0/1 labels."""
    return float(np.mean(np.logaddexp(0.0, scores) - y * scores))


def _check_weights(weights, n_features):
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (n_features + 1,):
        raise ValueError(
            f"expected weight vector of length {n_features + 1} "
            f"(features + bias), got {weights.shape}"
        )
    return weights


def logloss_gradient(weights, data, l2_strength: float):
    """Gradient of mean log-loss plus l2_strength * w on non-bias entries.

    ``weights`` is the feature weights followed by the bias as the last
    entry; the bias is never regularized. ``data`` is a DesignMatrix.
    """
    X = data.features
    return _gradient(_check_weights(weights, X.shape[1]), X, data.labels, l2_strength)


def _gradient(w, X, y, l2_strength):
    err = sigmoid(X @ w[:-1] + w[-1]) - y
    grad = np.empty_like(w)
    grad[:-1] = X.T @ err / len(y) + l2_strength * w[:-1]
    grad[-1] = err.mean()
    return grad


def logloss_value(weights, data, l2_strength: float) -> float:
    """Mean log-loss plus (l2/2)*||w||^2 over the non-bias weights."""
    X = data.features
    y = data.labels
    w = _check_weights(weights, X.shape[1])
    loss = mean_logloss(y, X @ w[:-1] + w[-1])
    return loss + 0.5 * l2_strength * float(w[:-1] @ w[:-1])


class LogisticRegression:
    """Full-batch gradient descent from zero weights; bias unregularized.

    ``path_[e]`` holds the weights after ``e`` epochs, and the model's
    weights are those after ``epochs``, so a model whose config asks for
    fewer epochs than its fit ran reads the shorter fit."""

    def __init__(self, l2_strength=0.0, learning_rate=0.1, epochs=100):
        self.l2_strength = l2_strength
        self.learning_rate = learning_rate
        self.epochs = epochs
        self.path_ = None
        self.n_features_ = None

    @property
    def weights_(self):
        """The feature weights and then the bias after ``epochs`` epochs."""
        return self.path_[self.epochs]

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

    def decision_scores(self, X):
        X = np.asarray(X, dtype=float)
        return X @ self.weights_[:-1] + self.weights_[-1]

    def predict(self, X):
        # predict 1 iff p > 0.5, so p == 0.5 resolves toward label 0
        return (sigmoid(self.decision_scores(X)) > 0.5).astype(np.int64)


class LinearSVM:
    """Batch subgradient descent on hinge loss with 1/c regularization.

    The step size follows the classic 1/(lambda * t) schedule with
    lambda = 1/c; the bias term is unregularized. Features are centered and
    variance-scaled internally before optimization (the affine conditioning
    is absorbed back into the learned hyperplane), which keeps the decaying
    schedule effective whatever the input scaling. ``path_[e]`` holds the
    weights and then the bias after ``e`` epochs, and the model's are those
    after ``epochs``, so a model whose config asks for fewer epochs than its
    fit ran reads the shorter fit.
    """

    def __init__(self, c=1.0, epochs=100):
        self.c = c
        self.epochs = epochs
        self.path_ = None
        self.shift_ = None
        self.scale_ = None
        self.n_features_ = None

    @property
    def weights_(self):
        return self.path_[self.epochs, :-1]

    @property
    def bias_(self):
        return float(self.path_[self.epochs, -1])

    def fit(self, X, y):
        X = np.asarray(X, dtype=float)
        y_signed = 2.0 * np.asarray(y, dtype=float) - 1.0
        n, d = X.shape
        self.n_features_ = d
        self.shift_ = X.mean(axis=0)
        scale = X.std(axis=0)
        scale[scale == 0.0] = 1.0
        self.scale_ = scale
        Z = (X - self.shift_) / self.scale_
        lam = 1.0 / self.c
        w = np.zeros(d)
        b = 0.0
        self.path_ = np.zeros((self.epochs + 1, d + 1))
        for t in range(self.epochs):
            eta = 1.0 / (lam * (t + 1))
            margins = y_signed * (Z @ w + b)
            # take() gathers the same rows, in the same order, as a boolean
            # mask but faster, so the product's sums do not change
            violating = np.flatnonzero(margins < 1.0)
            y_violating = y_signed.take(violating)
            grad_w = lam * w - (y_violating @ Z.take(violating, axis=0)) / n
            grad_b = -float(y_violating.sum()) / n
            w = w - eta * grad_w
            b = b - eta * grad_b
            self.path_[t + 1, :d], self.path_[t + 1, d] = w, b
        return self

    def decision_scores(self, X):
        X = np.asarray(X, dtype=float)
        return ((X - self.shift_) / self.scale_) @ self.weights_ + self.bias_

    def predict(self, X):
        return (self.decision_scores(X) > 0.0).astype(np.int64)
