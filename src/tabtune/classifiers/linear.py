"""Linear models trained by (sub)gradient descent: logistic regression on
L2-regularized log-loss and a linear SVM on hinge loss."""

from __future__ import annotations

import numpy as np


def sigmoid(z):
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


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
    z = X @ w[:-1] + w[-1]
    loss = float(np.mean(np.logaddexp(0.0, z) - y * z))
    return loss + 0.5 * l2_strength * float(w[:-1] @ w[:-1])


class LogisticRegression:
    """Full-batch gradient descent from zero weights; bias unregularized."""

    def __init__(self, l2_strength=0.0, learning_rate=0.1, epochs=100):
        self.l2_strength = l2_strength
        self.learning_rate = learning_rate
        self.epochs = epochs
        self.weights_ = None
        self.n_features_ = None

    def fit(self, X, y):
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        self.n_features_ = X.shape[1]
        w = np.zeros(X.shape[1] + 1)
        for _ in range(self.epochs):
            w -= self.learning_rate * _gradient(w, X, y, self.l2_strength)
        self.weights_ = w
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
    schedule effective whatever the input scaling.
    """

    def __init__(self, c=1.0, epochs=100):
        self.c = c
        self.epochs = epochs
        self.weights_ = None
        self.bias_ = 0.0
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
        Z = (X - self.shift_) / self.scale_
        lam = 1.0 / self.c
        w = np.zeros(d)
        b = 0.0
        for t in range(self.epochs):
            eta = 1.0 / (lam * (t + 1))
            margins = y_signed * (Z @ w + b)
            violating = margins < 1.0
            grad_w = lam * w - (y_signed[violating] @ Z[violating]) / n
            grad_b = -float(y_signed[violating].sum()) / n
            w = w - eta * grad_w
            b = b - eta * grad_b
        self.weights_ = w
        self.bias_ = b
        return self

    def decision_scores(self, X):
        X = np.asarray(X, dtype=float)
        return ((X - self.shift_) / self.scale_) @ self.weights_ + self.bias_

    def predict(self, X):
        return (self.decision_scores(X) > 0.0).astype(np.int64)
