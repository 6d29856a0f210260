"""CART binary trees stored as flat arrays.

A tree, or a whole forest, is one ``Trees``: flat node arrays (split
feature, threshold, left child, leaf value) with one root per tree; the
right child is stored next to the left one. Rows with
``feature <= threshold`` go left; candidate thresholds are the midpoints
between consecutive distinct values in a node, and the first maximum gain
wins in (feature, threshold) order. ``Trees.grouped_leaf_values`` routes
every row through a group of trees one level at a time, down to a given
depth: a model reads the trees of its own config off a larger fit.

Two growers share those rules, and both number nodes level by level
(depth by depth, tree by tree, left child before right):

- ``grow`` grows the gini/entropy trees of DT and RF in a loop over depths.
  A level keeps the rows of each of its nodes contiguous and searches all
  of its open nodes together, so a forest grows all of its trees in one
  level loop; the tree is its levels' node arrays concatenated. Its search
  (``_best_splits``) encodes each column once per fit: a two-valued column
  splits by two counts per node and needs no sort; the other columns are
  sorted by (node, value rank). The gains come from integer counts, so the
  order of tied rows cannot change a split. A forest that subsamples
  features draws each searched node's columns from that node's tree's own
  stream, in the tree's level order, and sorts only the drawn (column,
  node) pairs, so a forest's first trees are a smaller forest.
- ``grow_regression`` grows the squared-error tree of one gradient-boosting
  stage a node at a time, in level order, and appends its nodes to the node
  lists that all of a fit's stages share. Its per-node search has two
  parts: ``_sorted_node`` sorts the node's rows by every column with
  ``kernels.node_order``, which depends on ``X`` and the rows alone, and
  ``_best_sse_split`` sums the stage's targets in that order. A fit keeps
  its nodes' sorts in a ``NodeSorts``, up to ``_SORT_CELLS`` cells, so a
  later stage that searches the same rows (every stage's root, and often
  the nodes below it) sorts them no more. The recorded reports depend on
  the last bits of its sums, and so on the CPU's order of tied values.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from . import kernels


def _gini_from_p1(p1):
    return 1.0 - p1 * p1 - (1.0 - p1) * (1.0 - p1)


def _entropy_from_p1(p1):
    p0 = 1.0 - p1
    out = np.zeros_like(p1)
    for p in (p0, p1):
        nz = p > 0
        out[nz] -= p[nz] * kernels.log2(p[nz])
    return out


_IMPURITY = {"gini": _gini_from_p1, "entropy": _entropy_from_p1}


def _impurity_gain(impurity, n_left, ones_left, n, ones):
    """Impurity decrease of each split sending ``n_left`` of a node's ``n``
    rows left, ``ones_left`` of its ``ones`` positives among them."""
    n_left = n_left.astype(float)
    n_right = n - n_left
    p1_left = ones_left / n_left
    p1_right = (ones - ones_left) / n_right
    parent = impurity(ones / n)
    weighted = (n_left * impurity(p1_left) + n_right * impurity(p1_right)) / n
    return parent - weighted


def _sorted_node(X, rows):
    """The part of one node's squared-error search that depends on ``X``
    alone: ``rows`` sorted by each column of ``X`` by ``kernels.node_order``,
    as a (rows, columns) matrix of row indices, and the flat positions in it
    of the split candidates, in (feature, threshold) order. A split after
    sorted position ``i`` of column ``j`` sits at ``i * columns + j``."""
    d = X.shape[1]
    order = kernels.node_order(X[rows])
    sorted_rows = rows[order]
    xs = X[sorted_rows, np.arange(d)]
    column, row = np.nonzero((xs[1:] != xs[:-1]).T)
    return sorted_rows, row * d + column


def _best_sse_split(X, node, r):
    """(feature, threshold, gain) of the split of one node that most reduces
    the squared error of its targets, or None when no split reduces it.
    ``node`` is the node's ``_sorted_node``, ``r`` every row's target.

    The sums of the targets run in each column's sorted order, which the
    node's row order fixes, and their last bits depend on it. Candidate
    thresholds and tie rules are those of ``_best_splits``.
    """
    order, candidates = node
    if not candidates.size:  # fewer than 2 rows, no columns, or every column constant
        return None
    n = len(order)
    row, column = np.divmod(candidates, order.shape[1])
    rs = r[order]
    s = np.cumsum(rs, axis=0)
    q = np.cumsum(rs * rs, axis=0)
    n_left = row + 1.0
    n_right = n - n_left
    s_left, s_total = s.ravel()[candidates], s[-1, column]
    q_left, q_total = q.ravel()[candidates], q[-1, column]
    s_right = s_total - s_left
    sse_left = q_left - s_left * s_left / n_left
    sse_right = (q_total - q_left) - s_right * s_right / n_right
    sse_total = q_total - s_total * s_total / n
    gains = sse_total - sse_left - sse_right
    best = int(np.argmax(gains))  # first maximum
    if not gains[best] > 0.0:
        return None
    feature, row = int(column[best]), row[best]
    threshold = (X[order[row, feature], feature] + X[order[row + 1, feature], feature]) / 2.0
    return feature, float(threshold), float(gains[best])


class _RankedColumns:
    """The columns of one fit's feature matrix, encoded once for
    ``_best_splits``. Two-valued columns (``two``) keep a mask of the cells
    holding the higher value; columns with more values (``many``) keep every
    cell's rank among the column's distinct values. ``low`` and ``high``
    give each two-valued column's values, ``values[offsets[k] + r]`` the
    value of rank ``r`` in the ``k``-th many-valued column."""

    def __init__(self, X):
        order = np.argsort(X, axis=0, kind="stable")
        xs = np.take_along_axis(X, order, axis=0)
        new_value = np.ones(X.shape, dtype=bool)
        new_value[1:] = xs[1:] != xs[:-1]
        ranks = np.empty(X.shape, dtype=np.int32)
        np.put_along_axis(ranks, order, np.cumsum(new_value, axis=0, dtype=np.int32) - 1,
                          axis=0)
        n_values = new_value.sum(axis=0)
        self.n_columns = X.shape[1]
        self.two = np.flatnonzero(n_values == 2)
        self.is_high = np.ascontiguousarray(ranks[:, self.two].T == 1)
        self.low, self.high = xs[0, self.two], xs[-1, self.two]
        self.many = np.flatnonzero(n_values > 2)
        self.ranks = np.ascontiguousarray(ranks[:, self.many].T)
        self.width = int(n_values[self.many].max(initial=0))
        self.offsets = np.cumsum(n_values[self.many]) - n_values[self.many]
        self.values = xs.T[self.many][new_value.T[self.many]]


def _best_splits(ranked, y, rows, counts, impurity, allowed=None):
    """(feature, threshold, gain) arrays of the best split of each node of a
    batch; feature is -1 where no split has positive gain.

    ``rows`` holds the training rows of every node, node after node, with
    ``counts`` rows each. ``allowed``, when given, is a (nodes, columns)
    boolean mask of the columns each node may split on; the many-valued
    columns a node may not split on are neither sorted nor searched.
    """
    n_nodes = len(counts)
    if not ranked.two.size and not ranked.many.size:  # every column is constant
        return np.full(n_nodes, -1), np.zeros(n_nodes), np.full(n_nodes, -np.inf)
    starts = np.cumsum(counts) - counts
    labels = y[rows]
    ones = np.add.reduceat(labels, starts)
    gain = np.full((n_nodes, ranked.n_columns), -np.inf)
    threshold = np.zeros((n_nodes, ranked.n_columns))

    if ranked.two.size:  # the rows holding a two-valued column's higher value go right
        high = ranked.is_high[:, rows]
        n_high = np.add.reduceat(high, starts, axis=1, dtype=np.intp).T
        ones_high = np.add.reduceat(high & (labels == 1), starts, axis=1, dtype=np.intp).T
        n_left = counts[:, None] - n_high
        with np.errstate(divide="ignore", invalid="ignore"):
            g = _impurity_gain(impurity, n_left, ones[:, None] - ones_high,
                               counts[:, None], ones[:, None])
        gain[:, ranked.two] = np.where((n_high > 0) & (n_left > 0), g, -np.inf)
        threshold[:, ranked.two] = (ranked.low + ranked.high) / 2.0

    if ranked.many.size:  # one sort orders every (column, node) segment by rank
        width = ranked.width
        node_of = np.repeat(np.arange(n_nodes), counts)
        key = ((np.arange(ranked.many.size)[:, None] * n_nodes + node_of) * width
               + ranked.ranks[:, rows]).ravel()
        sizes = np.tile(counts, ranked.many.size)  # the cells of each segment
        # quicksort, the default: tied keys share a rank, and no split point falls between them
        if allowed is None:
            order = np.argsort(key, kind="quicksort")
        else:  # only the drawn (column, node) segments
            drawn = allowed[:, ranked.many].T
            cells = np.flatnonzero(drawn[:, node_of])
            order = cells[np.argsort(key[cells], kind="quicksort")]
            sizes = sizes * drawn.ravel()
        key = key[order]
        segment = key // width
        ones_before = np.concatenate(([0], np.cumsum(labels[order % len(rows)])))
        at = np.flatnonzero((segment[1:] == segment[:-1]) & (key[1:] != key[:-1]))
        if at.size:  # a split after sorted position ``at``
            seg = segment[at]
            slot, node = np.divmod(seg, n_nodes)
            first = (np.cumsum(sizes) - sizes)[seg]
            g = _impurity_gain(impurity, at + 1 - first,
                               ones_before[at + 1] - ones_before[first],
                               counts[node], ones[node])
            # the first maximum of each segment: its smallest threshold
            heads = np.flatnonzero(np.concatenate(([True], seg[1:] != seg[:-1])))
            hits = np.flatnonzero(g == np.repeat(np.maximum.reduceat(g, heads),
                                                 np.diff(np.append(heads, g.size))))
            hits = hits[np.concatenate(([True], seg[hits[1:]] != seg[hits[:-1]]))]
            win, slot, node = at[hits], slot[hits], node[hits]
            gain[node, ranked.many[slot]] = g[hits]
            base = ranked.offsets[slot]
            threshold[node, ranked.many[slot]] = (
                ranked.values[base + key[win] % width]
                + ranked.values[base + key[win + 1] % width]) / 2.0

    if allowed is not None:
        gain[~allowed] = -np.inf
    best = np.argmax(gain, axis=1)  # first maximum: the smallest feature index
    nodes = np.arange(n_nodes)
    best_gain = gain[nodes, best]
    return np.where(best_gain > 0.0, best, -1), threshold[nodes, best], best_gain


#: Tree-row pairs routed together, at most (unless one tree has more rows):
#: a bound on the temporaries of prediction.
_ROUTE_CELLS = 1 << 16


@dataclass
class Trees:
    """One or more binary trees as flat node arrays. Node ``i`` is a leaf
    holding ``value[i]`` when ``feature[i]`` is -1; otherwise rows with
    ``feature <= threshold`` go to ``left[i]`` and the rest to its sibling
    ``left[i] + 1``. ``roots`` holds each tree's root node, in tree order;
    the trees of ``roots[:n]`` are the first ``n`` trees. ``grow`` stores
    every node's majority in ``value``, so routing that stops at a depth
    reads the trees ``grow`` grows to that depth."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    value: np.ndarray
    roots: np.ndarray

    def grouped_leaf_values(self, X, n_trees, depth):
        """(trees, rows) matrices of the leaf value each of the first
        ``n_trees`` trees gives each row, for consecutive groups of them in
        tree order; a node at ``depth`` counts as a leaf. Each group routes
        all of its (tree, row) pairs one level at a time, ``_ROUTE_CELLS`` of
        them at most unless one tree has more rows."""
        n, d = X.shape
        flat = X.ravel()
        per_group = max(1, _ROUTE_CELLS // max(n, 1))
        first = self.roots[:n_trees]
        for start in range(0, len(first), per_group):
            roots = first[start:start + per_group]
            node = np.repeat(roots, n)
            row_start = np.tile(np.arange(0, n * d, d), len(roots))
            for _ in range(depth):
                feature = self.feature.take(node)
                inner = feature >= 0
                if not inner.any():
                    break
                # a leaf (feature -1) reads a neighbouring cell and stays put
                goes_right = ~(flat.take(row_start + feature) <= self.threshold.take(node))
                node = np.where(inner, self.left.take(node) + goes_right, node)
            yield self.value.take(node).reshape(len(roots), n)


#: The block size of ``_batches``: a bound on a batch's temporaries that
#: still leaves thousands of small nodes to one search.
_BATCH_ROWS = 4096


def _batches(counts):
    """(nodes, rows) slices of consecutive nodes holding ``counts`` rows each,
    in batches of whole nodes, in order. A batch is the nodes whose last row
    falls in one block of ``_BATCH_ROWS`` rows, so the nodes after its first
    hold fewer than ``_BATCH_ROWS`` rows: a batch holds fewer than its first
    node's rows plus ``_BATCH_ROWS``, under twice ``_BATCH_ROWS`` unless its
    first node holds more."""
    if not len(counts):
        return
    ends = np.cumsum(counts)
    group = (ends - 1) // _BATCH_ROWS
    cuts = np.flatnonzero(group[1:] != group[:-1]) + 1
    for a, b in zip(np.append(0, cuts), np.append(cuts, len(counts))):
        yield slice(a, b), slice(ends[a] - counts[a], ends[b - 1])


def grow(X, y, samples, max_depth, criterion="gini", min_samples_split=2, draw_columns=None):
    """Grow one gini or entropy tree on 0/1 labels ``y`` per array of
    training rows in ``samples``, one level (depth) at a time.

    Every node stores its majority label (ties go to 0) as its value, and
    no split above a depth ``d`` depends on ``max_depth``, so the nodes down
    to ``d`` are the trees grown with ``max_depth=d``. A node becomes a leaf
    at ``max_depth``, when its labels are one class, when it has fewer than
    ``min_samples_split`` rows, when no split has positive gain, and when
    its threshold sends every row the same way (midpoint rounding). The
    open nodes of a level are searched by ``_best_splits`` in the batches of
    whole nodes that ``_batches`` forms (under twice ``_BATCH_ROWS`` rows
    unless a batch's first node holds more); then the whole level is split
    at once, and its children, left before right, become the next
    level. The node arrays are the levels concatenated. A node's rows keep
    the order they have in ``samples``.

    ``draw_columns``, when given, is called once per batch with the tree
    of each node it searches and returns their ``allowed`` column mask.
    A level holds its nodes tree by tree, so each tree's nodes reach
    ``draw_columns`` in that tree's level order whatever ``_BATCH_ROWS`` is.
    """
    y = np.asarray(y).astype(np.intp)
    ranked = _RankedColumns(X)
    impurity = _IMPURITY[criterion]
    rows = np.concatenate(samples)
    counts = np.array([len(s) for s in samples])
    tree_of = np.arange(len(samples))
    next_id = 0  # the id of the first node below the current level
    levels = []
    for depth in range(max_depth + 1):
        n = len(counts)
        next_id += n
        node = np.repeat(np.arange(n), counts)
        ones = np.add.reduceat(y[rows], np.cumsum(counts) - counts)
        feature = np.full(n, -1)
        threshold = np.zeros(n)
        is_open = ((counts >= min_samples_split) & (ones > 0) & (ones < counts)
                   & (depth < max_depth))
        searched, open_rows = np.flatnonzero(is_open), rows[is_open[node]]
        for batch, part in _batches(counts[searched]):
            at = searched[batch]
            allowed = None if draw_columns is None else draw_columns(tree_of[at])
            feature[at], threshold[at], _ = _best_splits(ranked, y, open_rows[part], counts[at],
                                                         impurity, allowed)
        split = feature >= 0
        if split.any():
            goes_left = (X[rows, feature[node]] <= threshold[node]) & split[node]
            n_left = np.bincount(node, weights=goes_left, minlength=n)
            split &= (n_left > 0) & (n_left < counts)  # midpoint rounding can send all one way
            feature[~split] = -1
        left = np.full(n, -1)
        left[split] = np.arange(next_id, next_id + 2 * split.sum(), 2)
        value = (2 * ones > counts).astype(float)  # every node's majority, inner ones too
        levels.append((feature, threshold, left, value))
        if not split.any():
            break
        kept = np.flatnonzero(split[node])
        child = left[node[kept]] - next_id + ~goes_left[kept]
        kept = kept[np.argsort(child, kind="stable")]
        rows, counts = rows[kept], np.bincount(child, minlength=2 * split.sum())
        tree_of = np.repeat(tree_of[split], 2)
    return Trees(*(np.concatenate(column) for column in zip(*levels)), np.arange(len(samples)))


#: Cells (sorted row indices plus candidate positions) of the node sorts
#: that one gradient-boosting fit keeps for its later stages, at most: a
#: bound on the memory they hold, which no result depends on.
_SORT_CELLS = 1 << 17


class NodeSorts(dict):
    """One fit's ``_sorted_node`` results for its feature matrix, keyed by
    ``rows.tobytes()``. ``cells`` counts the cells of the arrays it holds; a
    new entry is taken only while that stays within ``_SORT_CELLS``, so the
    nodes searched first (every stage's root, then shallow nodes) stay."""

    cells = 0


def grow_regression(X, r, max_depth, nodes, sorts):
    """Grow the squared-error regression tree of one gradient-boosting stage
    on every row of ``X`` (targets ``r``) a node at a time, in level order,
    each node's rows in row order, searching with ``_best_sse_split``: its
    float sums follow the order of each node's ``_sorted_node``.

    A node's sort depends on ``X`` and its rows alone, so ``sorts``, the
    fit's ``NodeSorts``, is read before a node is sorted and takes each new
    sort while it has room: a later stage that searches the same rows
    reuses it. A fit's sorts must not serve another ``X``.

    A node becomes a leaf holding the mean of its targets at ``max_depth``,
    when it has fewer than 2 rows, when its targets are all equal, when no
    split reduces the squared error, and when its threshold sends every row
    the same way. An inner node holds 0.0.

    ``nodes`` holds the fit's (feature, threshold, left, value) lists; the
    stage's nodes are appended to them, its root first. Returns the value
    of the leaf each row of ``X`` reached.
    """
    feature, threshold, left, value = nodes

    def add_leaves(k):
        for column, empty in zip(nodes, (-1, 0.0, -1, 0.0)):
            column += [empty] * k

    def sorted_node(rows):
        key = rows.tobytes()
        found = sorts.get(key)
        if found is None:
            found = _sorted_node(X, rows)
            cells = sorts.cells + found[0].size + found[1].size
            if cells <= _SORT_CELLS:
                sorts[key], sorts.cells = found, cells
        return found

    leaf_value = np.empty(len(r))
    queue = deque([(np.arange(len(r)), 0, len(feature))])  # rows, depth, node
    add_leaves(1)
    while queue:
        rows, depth, node = queue.popleft()
        targets = r[rows]
        found = None
        if depth < max_depth and len(rows) >= 2 and targets.min() < targets.max():
            found = _best_sse_split(X, sorted_node(rows), r)
        if found is not None:
            goes_left = X[rows, found[0]] <= found[1]
            if goes_left.all() or not goes_left.any():  # midpoint rounding
                found = None
        if found is None:
            # the bits of targets.mean(), without its per-call overhead
            value[node] = leaf_value[rows] = float(targets.sum()) / len(rows)
            continue
        feature[node], threshold[node], left[node] = found[0], found[1], len(feature)
        add_leaves(2)
        queue.append((rows[goes_left], depth + 1, left[node]))
        queue.append((rows[~goes_left], depth + 1, left[node] + 1))
    return leaf_value


class DecisionTree:
    """Greedy binary classification tree."""

    def __init__(self, max_depth=10, min_samples_split=2, criterion="gini"):
        if criterion not in _IMPURITY:
            raise ValueError(f"unknown criterion {criterion!r}")
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.criterion = criterion
        self.n_features_ = None
        self.tree_ = None

    def fit(self, X, y):
        X = np.asarray(X, dtype=float)
        self.n_features_ = X.shape[1]
        self.tree_ = grow(X, y, [np.arange(X.shape[0])], self.max_depth, self.criterion,
                          self.min_samples_split)
        return self

    def predict(self, X):
        (group,) = self.tree_.grouped_leaf_values(np.asarray(X, dtype=float), 1,
                                                  self.max_depth)
        return group[0].astype(np.int64)
