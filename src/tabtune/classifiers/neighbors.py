"""K-nearest-neighbor classifier over Euclidean distance."""

from __future__ import annotations

import numpy as np

from . import kernels

#: Cells of a distance matrix's row block, at most (unless one row has more):
#: a bound on the whole-matrix temporaries of a ranking.
_BLOCK_CELLS = 1 << 16


class KNearestNeighbors:
    """Stores the training matrix; votes among the k nearest rows.

    Neighbor ranking orders rows by (distance, training index), so among
    equidistant rows the earlier one ranks first; it ranks by the expanded
    squared distance |x|^2 + |y|^2 - 2x.y. Vote ties resolve toward label 0.
    With distance weighting, votes are weighted 1/d, where d is computed
    from the differences to each of the k chosen neighbors, so a query equal
    to a training row sits at distance exactly 0; if any of the k neighbors
    does, only those zero-distance neighbors vote.

    The order is total, so the first k of a deeper ranking are the k
    nearest: copies of a fit at a smaller ``n_neighbors`` or the other
    ``weighting``, as ``classifiers.train`` reads them off it, share the
    fit's last ranking.
    """

    def __init__(self, n_neighbors=5, weighting="uniform"):
        if weighting not in ("uniform", "distance"):
            raise ValueError(f"unknown weighting {weighting!r}")
        self.n_neighbors = n_neighbors
        self.weighting = weighting
        self.X_ = None
        self.y_ = None
        self.n_features_ = None
        self.depth_ = None
        self.ranked_ = None

    def fit(self, X, y):
        self.X_ = np.asarray(X, dtype=float)
        self.y_ = np.asarray(y, dtype=np.int64)
        self.n_features_ = self.X_.shape[1]
        self.depth_ = min(self.n_neighbors, len(self.y_))
        self.ranked_ = [None, None]  # [a copy of the last queries, their ranking]
        return self

    def _ranking(self, X):
        """Each query's ``depth_`` nearest training rows in (distance, index)
        order, served from the shared ranking when ``X`` has the shape and
        values of the query matrix ranked last, else ranked afresh."""
        queries, ranking = self.ranked_
        if queries is None or not np.array_equal(queries, X):
            # copied before the temporaries: made after them, this long-lived
            # block kept glibc malloc from returning them (+3.3 MB peak RSS
            # on a 2000-row search)
            queries = X.copy()
            sq_q, sq_f = (X * X).sum(axis=1), (self.X_ * self.X_).sum(axis=1)
            # the product is the one whole matrix; each row block becomes
            # (|x|^2 + |y|^2) - 2x.y in place, with the same two roundings
            d2 = kernels.matmul(2.0 * X, self.X_.T)
            for rows in _row_blocks(d2):
                np.subtract(sq_q[rows, None] + sq_f[None, :], d2[rows], out=d2[rows])
                np.maximum(d2[rows], 0.0, out=d2[rows])
            ranking = _k_nearest(d2, self.depth_)
            ranking.setflags(write=False)  # every model read off this fit reads it
            self.ranked_[:] = queries, ranking
        return ranking

    def predict(self, X):
        X = np.asarray(X, dtype=float)
        k = min(self.n_neighbors, len(self.y_))
        nearest = self._ranking(X)[:, :k]
        labels = self.y_[nearest]
        if self.weighting == "uniform":
            return (2 * labels.sum(axis=1) > k).astype(np.int64)

        diff = X[:, None, :] - self.X_[nearest]
        dist = np.sqrt((diff * diff).sum(axis=2))
        zero = dist == 0.0
        ones = labels == 1
        n_zero = zero.sum(axis=1)
        zero_vote = 2 * (zero & ones).sum(axis=1) > n_zero
        weights = np.divide(1.0, dist, out=np.zeros_like(dist), where=~zero)
        w1 = np.where(ones, weights, 0.0).sum(axis=1)
        w0 = np.where(labels == 0, weights, 0.0).sum(axis=1)
        out = np.where(n_zero > 0, zero_vote, w1 > w0).astype(np.int64)
        # In any order, a sum of k positive terms is within (k - 1) * eps / 2
        # of its exact value, relative to the sum. So the vote can differ from
        # summing each label's weights in neighbor order only in rows this
        # close; those rows are settled by that per-row rule.
        close = np.abs(w1 - w0) <= k * np.finfo(float).eps * (w1 + w0)
        for i in np.flatnonzero(close & (n_zero == 0)):
            row_w, row_y = weights[i], labels[i]
            out[i] = 1 if float(row_w[row_y == 1].sum()) > float(row_w[row_y == 0].sum()) else 0
        return out


def _k_nearest(d2, k):
    """Indices of each row's k smallest entries, ordered by (value, index).

    Equals ``np.argsort(d2, axis=1, kind="stable")[:, :k]`` without sorting
    whole rows: a partition finds the k-th smallest value, every entry below
    it is taken, and entries equal to it are taken lowest index first. Only
    rows with more than k candidates pay for that tie-break. The partition
    copies one row block at a time, not the whole matrix.
    """
    kth = np.empty((len(d2), 1))
    for rows in _row_blocks(d2):
        kth[rows] = np.partition(d2[rows], k - 1, axis=1)[:, k - 1 : k]
    chosen = d2 <= kth
    # NaN sorts after every number: when the k-th value is NaN, all of the
    # row's numbers rank first and its NaNs tie for the remaining places.
    chosen[np.isnan(kth[:, 0])] = True
    surplus = chosen.sum(axis=1) - k
    tied = np.flatnonzero(surplus > 0)
    if tied.size:
        rows, row_kth = d2[tied], kth[tied]
        at_kth = (rows == row_kth) | (np.isnan(rows) & np.isnan(row_kth))
        rank = np.cumsum(at_kth, axis=1, dtype=np.int32)
        keep = rank[:, -1:] - surplus[tied, None]
        chosen[tied] &= ~(at_kth & (rank > keep))
    cols = np.nonzero(chosen)[1].reshape(len(d2), k)
    order = np.argsort(np.take_along_axis(d2, cols, axis=1), axis=1, kind="stable")
    return np.take_along_axis(cols, order, axis=1)


def _row_blocks(d2):
    """Slices of consecutive rows of ``d2``, ``_BLOCK_CELLS`` cells at most
    unless one row has more."""
    n, m = d2.shape
    step = max(1, _BLOCK_CELLS // max(m, 1))
    return [slice(start, start + step) for start in range(0, n, step)]
