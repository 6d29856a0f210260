"""Independent oracles used by the unit and acceptance tests.

These deliberately avoid the library's own code paths: plain loops, explicit
arithmetic, brute-force enumeration.
"""

import csv
import math
import re
from collections import deque

import numpy as np

from tabtune import classifiers
from tabtune.hpspace import grid_enumerate, random_sample, space_from_config
from tabtune.tabular import CATEGORICAL, NUMERIC, TARGET, ColumnSchema, CsvParseError, SchemaError


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


def _reference_trees(data, criterion, max_depth, min_samples_split=2, draw_columns=None):
    """Plain CART, one tree per ``(X, y)`` pair of ``data``, all grown
    together breadth first from one queue: depth by depth, tree by tree,
    left child before right.

    Gini/entropy gains come from label counts accumulated over each column's
    sorted values; ``criterion="sse"`` fits the regression tree of a
    boosting stage, whose leaves are the mean target, and whose gains come
    from the targets summed in ``np.argsort`` order, the order the model's
    float sums follow. A node whose labels or targets are all equal is a
    leaf. ``draw_columns``, when given, is called at every searched node, in
    queue order, with the index of the node's tree, for the sorted columns
    it may split on. Returns nested dicts: ``{"value"}`` leaves,
    ``{"feature", "threshold", "left", "right"}`` inner nodes.
    """

    def impurity(p1):
        if criterion == "gini":
            return 1.0 - p1 * p1 - (1.0 - p1) * (1.0 - p1)
        out = 0.0
        for p in (1.0 - p1, p1):
            if p > 0:
                out -= p * math.log2(p)
        return out

    def label_candidates(X, y, rows, column):
        pairs = sorted((X[i, column], int(y[i])) for i in rows)
        n = len(pairs)
        ones = sum(label for _, label in pairs)
        parent = impurity(ones / n)
        n_left = ones_left = 0
        for k in range(n - 1):
            n_left += 1
            ones_left += pairs[k][1]
            if pairs[k][0] != pairs[k + 1][0]:
                n_right = n - n_left
                weighted = (n_left * impurity(ones_left / n_left)
                            + n_right * impurity((ones - ones_left) / n_right)) / n
                yield parent - weighted, (pairs[k][0] + pairs[k + 1][0]) / 2.0

    def sse_candidates(X, y, rows, column):
        x = X[rows, column]
        order = np.argsort(x)
        xs = x[order].tolist()
        r = y[rows][order].tolist()
        n = len(r)
        s = q = 0.0
        sums = []
        for value in r:
            s += value
            q += value * value
            sums.append((s, q))
        s_total, q_total = sums[-1]
        sse_total = q_total - s_total * s_total / n
        for k in range(n - 1):
            if xs[k] != xs[k + 1]:
                s_left, q_left = sums[k]
                n_left = k + 1.0
                s_right = s_total - s_left
                sse_left = q_left - s_left * s_left / n_left
                sse_right = (q_total - q_left) - s_right * s_right / (n - n_left)
                yield sse_total - sse_left - sse_right, (xs[k] + xs[k + 1]) / 2.0

    def best_split(X, y, rows, tree):
        labels = y[rows]
        if len(rows) < min_samples_split or labels.min() == labels.max():
            return None
        columns = range(X.shape[1]) if draw_columns is None else draw_columns(tree)
        candidates = sse_candidates if criterion == "sse" else label_candidates
        best = None
        for column in columns:
            for gain, threshold in candidates(X, y, rows, column):
                if best is None or gain > best[0]:
                    best = (gain, int(column), threshold)
        return best if best is not None and best[0] > 0 else None

    trees = [{} for _ in data]
    queue = deque((node, np.asarray(X, dtype=float), np.asarray(y), list(range(len(y))), 0, tree)
                  for tree, (node, (X, y)) in enumerate(zip(trees, data)))
    while queue:
        node, X, y, rows, depth, tree = queue.popleft()
        best = best_split(X, y, rows, tree) if depth < max_depth else None
        if best is not None:
            _, column, threshold = best
            left = [i for i in rows if X[i, column] <= threshold]
            right = [i for i in rows if X[i, column] > threshold]
        if best is None or not left or not right:
            if criterion == "sse":
                node["value"] = float(y[rows].mean())
            else:
                node["value"] = 1.0 if 2 * int(y[rows].sum()) > len(rows) else 0.0
            continue
        node.update(feature=column, threshold=threshold, left={}, right={})
        queue.append((node["left"], X, y, left, depth + 1, tree))
        queue.append((node["right"], X, y, right, depth + 1, tree))
    return trees


def reference_tree(X, y, criterion, max_depth, min_samples_split=2):
    """The plain CART of ``_reference_trees`` for one training set."""
    return _reference_trees([(X, y)], criterion, max_depth, min_samples_split)[0]


def reference_forest(X, y, n_estimators, max_depth, max_features_frac, seed, bootstrap):
    """Reference gini trees of a random forest: every tree's bootstrap draw
    from ``default_rng(seed)``, then the trees grown together breadth first.
    When m = ceil(frac * d) < d, each searched node of tree t draws d uniform
    keys from tree t's own ``default_rng([seed, t])``, in the tree's breadth
    first order, and may split on the m columns with the smallest keys."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    n, d = X.shape
    m = max(1, math.ceil(max_features_frac * d))
    rng = np.random.default_rng(seed)
    streams = [np.random.default_rng([seed, t]) for t in range(n_estimators)]

    def draw(tree):
        return sorted(np.argsort(streams[tree].random(d), kind="stable")[:m].tolist())

    samples = [rng.integers(0, n, size=n) if bootstrap else np.arange(n)
               for _ in range(n_estimators)]
    return _reference_trees([(X[rows], y[rows]) for rows in samples], "gini", max_depth,
                            draw_columns=draw if m < d else None)


def reference_preorder(tree):
    """(feature, threshold, leaf value) of every node in depth-first
    preorder; inner nodes carry no value, leaves feature -1."""
    if "value" in tree:
        return [(-1, None, tree["value"])]
    return ([(tree["feature"], tree["threshold"], None)]
            + reference_preorder(tree["left"]) + reference_preorder(tree["right"]))


def reference_predict(tree, X):
    """Leaf value of every row of ``X``, walking the tree row by row."""
    out = []
    for row in np.asarray(X, dtype=float):
        node = tree
        while "value" not in node:
            node = node["left"] if row[node["feature"]] <= node["threshold"] else node["right"]
        out.append(node["value"])
    return np.array(out)


def reference_sigmoid(z):
    """The logistic function as two masked branches, gathered and scattered
    with boolean indexing; the library's unmasked form must match it bit for
    bit."""
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def mean_logloss(y, scores):
    """Mean logistic loss of raw scores against 0/1 labels."""
    return float(np.mean(np.logaddexp(0.0, scores) - y * scores))


def reference_lr_fit(X, y, l2_strength, learning_rate, epochs):
    """Weights (bias last) of full-batch gradient descent on L2 log-loss,
    with ``reference_sigmoid``."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    w = np.zeros(X.shape[1] + 1)
    for _ in range(epochs):
        err = reference_sigmoid(X @ w[:-1] + w[-1]) - y
        grad = np.empty_like(w)
        grad[:-1] = X.T @ err / len(y) + l2_strength * w[:-1]
        grad[-1] = err.mean()
        w -= learning_rate * grad
    return w


def reference_svm_fit(X, y, c, epochs):
    """(weights, bias, violating rows per epoch) of the linear SVM's
    subgradient descent, gathering the violating rows with a boolean mask."""
    X = np.asarray(X, dtype=float)
    y_signed = 2.0 * np.asarray(y, dtype=float) - 1.0
    n, d = X.shape
    scale = X.std(axis=0)
    scale[scale == 0.0] = 1.0
    Z = (X - X.mean(axis=0)) / scale
    lam = 1.0 / c
    w = np.zeros(d)
    b = 0.0
    counts = []
    for t in range(epochs):
        eta = 1.0 / (lam * (t + 1))
        violating = y_signed * (Z @ w + b) < 1.0
        counts.append(int(violating.sum()))
        grad_w = lam * w - (y_signed[violating] @ Z[violating]) / n
        grad_b = -float(y_signed[violating].sum()) / n
        w = w - eta * grad_w
        b = b - eta * grad_b
    return w, b, counts


def reference_load_csv(path, target_column):
    """(schema, columns) of a CSV decoded cell by cell: a missing mask per
    column, the decimal test and ``float`` run on every present cell, and
    the sentinel (NaN or -1) written where the mask is set. Raises the
    library's error types with the library's messages."""
    decimal = re.compile(r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?\Z")
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
            raw_rows = []
            for row_number, row in enumerate(reader, start=1):
                if len(row) != len(header):
                    raise CsvParseError(
                        f"{path}: row {row_number} has {len(row)} fields, expected {len(header)}"
                    )
                raw_rows.append(row)
        except StopIteration:
            raise CsvParseError(f"{path}: empty file, header row required") from None
        except csv.Error as exc:
            raise CsvParseError(f"{path}: line {reader.line_num}: {exc}") from None
    if len(set(header)) != len(header):
        raise SchemaError(f"{path}: duplicate column names in header")
    if target_column not in header:
        raise SchemaError(f"{path}: target column {target_column!r} not in header")

    schema = []
    columns = {}
    for j, name in enumerate(header):
        raw = [row[j] for row in raw_rows]
        mask = np.array([cell in ("", "NA") for cell in raw], dtype=bool)
        present = [cell for cell, m in zip(raw, mask) if not m]
        is_target = name == target_column
        if is_target and mask.any():
            raise SchemaError(f"{path}: target column {name!r} has missing values")
        if not is_target and all(decimal.fullmatch(cell.strip()) for cell in present):
            values = np.array(
                [float(cell) if not m else math.nan for cell, m in zip(raw, mask)]
            )
            overflow = np.flatnonzero(~np.isfinite(values) & ~mask)
            if overflow.size:
                row = int(overflow[0])
                raise CsvParseError(
                    f"{path}: row {row + 1}, column {name!r}: {raw[row]!r} is not a finite number"
                )
            schema.append(ColumnSchema(name, NUMERIC))
        else:
            levels = sorted(set(present))
            if is_target and len(levels) != 2:
                raise SchemaError(
                    f"{path}: target column {name!r} has {len(levels)} distinct values, expected 2"
                )
            index = {level: i for i, level in enumerate(levels)}
            values = np.array(
                [index[cell] if not m else -1 for cell, m in zip(raw, mask)], dtype=np.int64
            )
            schema.append(ColumnSchema(name, TARGET if is_target else CATEGORICAL, tuple(levels)))
        columns[name] = values
    return tuple(schema), columns


def reference_grs(families, spaces, train, test, k=3, fold_seed=0, search_seed=0,
                  rs_budget=None):
    """The tuning fields ``tuner.grs_auto_hp`` returns, from a plain serial
    loop: every trial takes each fold's parts afresh and fits each fold alone
    (``classifiers.train`` with no ``fits``); no groups, no read-offs, no
    pool. Durations read 0, and every trial is reported (a run below the
    tuner's trial cap).

    The fold plan deals a ``default_rng(fold_seed)`` permutation into k
    contiguous blocks. Each search's best is its first maximum, grid wins a
    tie with random, the earlier family wins a tie overall, and the winner
    is refit on the whole training matrix and scored once on ``test``. A
    random search without ``rs_budget`` draws min(grid size, 200) configs.
    """
    assignments = np.zeros(train.n_rows, dtype=np.int64)
    perm = np.random.default_rng(fold_seed).permutation(train.n_rows)
    for fold, rows in enumerate(np.array_split(perm, k)):
        assignments[rows] = fold

    def trial(family, config, index):
        config = classifiers.validate_config(family, config)
        accuracies = []
        for fold in range(k):
            fit_part = train.take(assignments != fold)
            eval_part = train.take(assignments == fold)
            try:
                model = classifiers.train(classifiers.ModelSpec(family, config), fit_part,
                                          search_seed)
            except classifiers.SingleClassError:
                accuracies.append(0.0)
                continue
            predicted = classifiers.predict(model, eval_part.features)
            accuracies.append(classifiers.accuracy(predicted, eval_part.labels))
        return {"trial_index": index, "config": config, "fold_accuracies": accuracies,
                "mean_accuracy": float(np.mean(accuracies)), "duration_seconds": 0.0}

    def first_best(trials):
        best = trials[0]
        for candidate in trials[1:]:
            if candidate["mean_accuracy"] > best["mean_accuracy"]:
                best = candidate
        return best

    entries = []
    searched = {}
    for family in families:
        space = spaces.get(family) or space_from_config(family, {})
        grid_configs = grid_enumerate(space)
        budget = rs_budget if rs_budget is not None else min(len(grid_configs), 200)
        grid = [trial(family, config, i) for i, config in enumerate(grid_configs)]
        drawn = [trial(family, config, i)
                 for i, config in enumerate(random_sample(space, budget, search_seed))]
        grid_best, random_best = first_best(grid), first_best(drawn)
        entries.append({
            "family": family,
            "baseline": trial(family, {}, 0),
            "grid": {"best": grid_best, "n_trials": len(grid), "total_seconds": 0.0},
            "random": {"best": random_best, "n_trials": len(drawn), "total_seconds": 0.0},
            "winner": ("grid" if grid_best["mean_accuracy"] >= random_best["mean_accuracy"]
                       else "random"),
        })
        searched[family] = {"grid": grid, "random": drawn}

    def score(entry):
        return entry[entry["winner"]]["best"]["mean_accuracy"]

    overall = entries[0]
    for entry in entries[1:]:
        if score(entry) > score(overall):
            overall = entry
    final_config = overall[overall["winner"]]["best"]["config"]
    model = classifiers.train(classifiers.ModelSpec(overall["family"], final_config), train,
                              search_seed)
    return {
        "k": k,
        "seeds": {"fold": fold_seed, "search": search_seed},
        "families": entries,
        "errors": {},
        "final": {
            "family": overall["family"],
            "config": dict(final_config),
            "test_accuracy": classifiers.accuracy(
                classifiers.predict(model, test.features), test.labels),
        },
        "trials": searched,
        "trials_truncated": False,
    }
