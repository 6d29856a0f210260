"""Gaussian naive Bayes with an exponent-parameterized variance floor."""

from __future__ import annotations

import numpy as np

from . import kernels


class GaussianNaiveBayes:
    """Per-class, per-feature Gaussians compared on log-posterior.

    Variances are floored at 10^var_smoothing_exp times the largest
    per-feature variance of the training data (an absolute 10^exp floor when
    every feature is constant). Posterior ties resolve toward label 0. The
    fit keeps the unfloored class variances and the model floors them at
    its own ``var_smoothing_exp``, so a model read off a fit of another
    exponent applies its floor to the same numbers.
    """

    def __init__(self, var_smoothing_exp=-9.0):
        self.var_smoothing_exp = var_smoothing_exp
        self.log_priors_ = None
        self.means_ = None
        self.class_variances_ = None
        self.max_variance_ = None
        self.n_features_ = None

    @property
    def variances_(self):
        """The class variances floored at ``var_smoothing_exp``."""
        floor = 10.0 ** self.var_smoothing_exp * self.max_variance_
        if floor <= 0.0:
            floor = 10.0 ** self.var_smoothing_exp
        return np.maximum(self.class_variances_, floor)

    def fit(self, X, y):
        X = np.asarray(X, dtype=float)
        y = np.asarray(y)
        self.n_features_ = X.shape[1]
        self.max_variance_ = float(X.var(axis=0).max()) if X.shape[1] else 0.0
        means = np.zeros((2, X.shape[1]))
        variances = np.zeros((2, X.shape[1]))
        priors = np.zeros(2)
        for label in (0, 1):
            rows = X[y == label]
            priors[label] = len(rows) / len(y)
            means[label] = rows.mean(axis=0)
            variances[label] = rows.var(axis=0)
        self.log_priors_ = kernels.log(priors)
        self.means_ = means
        self.class_variances_ = variances
        return self

    def log_posteriors(self, X):
        X = np.asarray(X, dtype=float)
        scores = np.zeros((X.shape[0], 2))
        variances = self.variances_
        for label in (0, 1):
            var = variances[label]
            delta = X - self.means_[label]
            loglik = -0.5 * (kernels.log(2.0 * np.pi * var) + delta * delta / var)
            scores[:, label] = self.log_priors_[label] + loglik.sum(axis=1)
        return scores

    def predict(self, X):
        scores = self.log_posteriors(X)
        return (scores[:, 1] > scores[:, 0]).astype(np.int64)
