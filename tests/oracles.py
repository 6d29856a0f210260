"""Independent oracles used by the unit and acceptance tests.

These deliberately avoid the library's own code paths: plain loops, explicit
arithmetic, brute-force enumeration.
"""

import math

import numpy as np


def brute_force_split(x, y, criterion="gini"):
    """Try every midpoint between consecutive distinct values by hand."""

    def impurity(labels):
        if len(labels) == 0:
            return 0.0
        p1 = sum(labels) / len(labels)
        p0 = 1.0 - p1
        if criterion == "gini":
            return 1.0 - p0 * p0 - p1 * p1
        total = 0.0
        for p in (p0, p1):
            if p > 0:
                total -= p * math.log2(p)
        return total

    x = list(map(float, x))
    y = list(map(int, y))
    n = len(y)
    distinct = sorted(set(x))
    best = None
    for a, b in zip(distinct, distinct[1:]):
        threshold = (a + b) / 2.0
        left = [y[i] for i in range(n) if x[i] <= threshold]
        right = [y[i] for i in range(n) if x[i] > threshold]
        gain = impurity(y) - (len(left) * impurity(left) + len(right) * impurity(right)) / n
        if gain > 0 and (best is None or gain > best[1] + 1e-12):
            best = (threshold, gain)
    return best


def brute_force_sse_split(X, r):
    """(feature, threshold, gain) with the largest squared-error reduction,
    trying every midpoint of every column by hand; None when no split
    reduces it. Ties keep the first found: smallest feature, then smallest
    threshold."""

    def sse(values):
        if not values:
            return 0.0
        mean = sum(values) / len(values)
        return sum((v - mean) ** 2 for v in values)

    r = list(map(float, r))
    n = len(r)
    total = sse(r)
    best = None
    for j in range(len(X[0]) if n else 0):
        x = [float(row[j]) for row in X]
        distinct = sorted(set(x))
        for a, b in zip(distinct, distinct[1:]):
            threshold = (a + b) / 2.0
            left = [r[i] for i in range(n) if x[i] <= threshold]
            right = [r[i] for i in range(n) if x[i] > threshold]
            gain = total - sse(left) - sse(right)
            if gain > 0 and (best is None or gain > best[2] + 1e-12):
                best = (j, threshold, gain)
    return best


def knn_oracle(train_X, train_y, test_X, k, weighting):
    """Full pairwise distances and an explicit vote per query row."""
    out = []
    for row in test_X:
        dist = np.sqrt(((train_X - row) ** 2).sum(axis=1))
        order = np.argsort(dist, kind="stable")[:k]
        labels = train_y[order]
        if weighting == "uniform":
            ones = int(labels.sum())
            out.append(1 if ones > k - ones else 0)
        else:
            d = dist[order]
            if (d == 0).any():
                zero_labels = labels[d == 0]
                out.append(1 if 2 * int(zero_labels.sum()) > len(zero_labels) else 0)
            else:
                w = 1.0 / d
                w1 = float(w[labels == 1].sum())
                w0 = float(w[labels == 0].sum())
                out.append(1 if w1 > w0 else 0)
    return np.array(out)


def nb_oracle(train_X, train_y, test_X, exponent):
    """Exhaustive per-class Gaussian log-posterior, scalar arithmetic."""
    max_var = train_X.var(axis=0).max()
    floor = 10.0**exponent * max_var if max_var > 0 else 10.0**exponent
    out = []
    for row in test_X:
        scores = []
        for label in (0, 1):
            rows = train_X[train_y == label]
            prior = len(rows) / len(train_y)
            score = math.log(prior)
            for j in range(train_X.shape[1]):
                mu = rows[:, j].mean()
                var = max(rows[:, j].var(), floor)
                score += -0.5 * math.log(2 * math.pi * var) - (row[j] - mu) ** 2 / (2 * var)
            scores.append(score)
        out.append(1 if scores[1] > scores[0] else 0)
    return np.array(out)
