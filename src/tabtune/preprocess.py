"""Leak-free preprocessing: drop sparse columns, impute, scale, one-hot
encode. Every parameter is fitted on training rows only and replayed on any
table with a compatible schema."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tabular import NUMERIC, ColumnSchema, SplitPair, Table, make_table

SCALING_MODES = ("minmax", "zscore", "none")

#: One-hot indicator appended to every encoded group; catches missing cells
#: and levels never observed in the training rows.
MISSING_LEVEL = "__missing__"


class PlanError(ValueError):
    """Preprocessing cannot be fitted or applied (degenerate plan, schema mismatch)."""


@dataclass(frozen=True)
class DesignMatrix:
    features: np.ndarray
    feature_names: tuple[str, ...]
    labels: np.ndarray

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def take(self, indices) -> "DesignMatrix":
        """Row subset by integer indices (in their order) or a boolean mask of
        ``n_rows`` entries; a mask of any other length raises IndexError."""
        indices = np.asarray(indices)
        return make_design_matrix(self.features[indices], self.feature_names, self.labels[indices])


def make_design_matrix(features, names, labels) -> DesignMatrix:
    features = np.ascontiguousarray(features, dtype=float)
    labels = np.asarray(labels, dtype=np.int64)
    features.setflags(write=False)
    labels.setflags(write=False)
    return DesignMatrix(features=features, feature_names=tuple(names), labels=labels)


@dataclass(frozen=True)
class PreprocessPlan:
    scaling: str
    dropped_columns: tuple[str, ...]
    column_order: tuple[str, ...]
    numeric_stats: dict[str, dict[str, float]]  # per column: mean/std/min/max from train
    one_hot_levels: dict[str, tuple[str, ...]]  # train-observed levels, schema order
    target_name: str
    target_categories: tuple[str, ...]


def fit_plan(train: Table, missing_threshold: float, scaling: str = "minmax") -> PreprocessPlan:
    """Fit preprocessing parameters on training rows.

    A feature column is dropped iff its missing fraction is strictly greater
    than ``missing_threshold``; the target is never dropped. Scale statistics
    use non-missing training values only (population std for zscore). A
    column whose imputation mean, or whose range (minmax) or std (zscore),
    overflows to a non-finite value raises ``PlanError`` naming it, and so
    does a zscore column whose values differ but whose std underflows to 0.
    """
    if train.n_rows == 0:
        raise PlanError("cannot fit a preprocessing plan on an empty table")
    if not 0.0 <= missing_threshold <= 1.0:
        raise PlanError(f"missing_threshold must lie in [0, 1], got {missing_threshold}")
    if scaling not in SCALING_MODES:
        raise PlanError(f"unknown scaling mode {scaling!r}, expected one of {SCALING_MODES}")

    dropped = []
    order = []
    numeric_stats = {}
    one_hot_levels = {}
    for col in train.feature_schemas():
        missing = train.is_missing(col.name)
        if float(missing.mean()) > missing_threshold:
            dropped.append(col.name)
            continue
        order.append(col.name)
        values = train.columns[col.name][~missing]
        if col.kind == NUMERIC:
            if values.size:
                with np.errstate(over="ignore", invalid="ignore"):
                    numeric_stats[col.name] = {
                        "mean": float(values.mean()),
                        "std": float(values.std()),
                        "min": float(values.min()),
                        "max": float(values.max()),
                    }
                _check_scale_stats(col.name, numeric_stats[col.name], scaling)
            else:
                numeric_stats[col.name] = {"mean": 0.0, "std": 0.0, "min": 0.0, "max": 0.0}
        else:
            one_hot_levels[col.name] = tuple(col.categories[int(i)] for i in np.unique(values))
    if not order:
        raise PlanError("every feature column was dropped; plan is degenerate")
    target = train.target
    return PreprocessPlan(
        scaling=scaling,
        dropped_columns=tuple(dropped),
        column_order=tuple(order),
        numeric_stats=numeric_stats,
        one_hot_levels=one_hot_levels,
        target_name=target.name,
        target_categories=target.categories,
    )


def _check_scale_stats(name: str, stats: dict, scaling: str) -> None:
    """Finite cells near the float limits can overflow a statistic the plan
    uses (the imputation mean, the min-max range or the z-score std), and
    values a tiny distance apart can underflow the z-score std to 0; either
    would scale the column to NaN, inf or zeros, so refuse the column."""
    used = {"mean": stats["mean"]}
    if scaling == "minmax":
        used["max - min range"] = stats["max"] - stats["min"]
    elif scaling == "zscore":
        used["std"] = stats["std"]
    for statistic, value in used.items():
        if not np.isfinite(value):
            raise PlanError(
                f"column {name!r}: the {statistic} of its training values overflows "
                f"to {value} (values too close to the float limits)"
            )
    if scaling == "zscore" and stats["max"] > stats["min"] and stats["std"] == 0.0:
        raise PlanError(
            f"column {name!r}: its training values differ but their std underflows "
            f"to 0 (values too close to zero)"
        )


def apply_plan(plan: PreprocessPlan, table: Table) -> DesignMatrix:
    """Replay a fitted plan on any table containing the surviving columns.

    Missing numeric cells are imputed with the train mean before scaling.
    A column is constant iff its training max equals its min; under minmax
    and zscore it scales to all zeros so degenerate folds keep running. A
    scaled value that is not finite (a cell far outside a tiny training
    range) raises ``PlanError`` naming the column and the first such row.
    Categorical cells map onto the train-observed level indicators;
    anything else lands in ``__missing__``.
    """
    present = {col.name: col for col in table.schema}
    n = table.n_rows
    blocks = []
    names = []
    for name in plan.column_order:
        if name not in present:
            raise PlanError(f"column {name!r} required by the plan is absent from the table")
        col = present[name]
        expect_numeric = name in plan.numeric_stats
        if expect_numeric != (col.kind == NUMERIC):
            raise PlanError(f"column {name!r} changed kind since the plan was fitted")
        if expect_numeric:
            stats = plan.numeric_stats[name]
            x = np.array(table.columns[name], dtype=float)
            x[table.is_missing(name)] = stats["mean"]
            with np.errstate(over="ignore", invalid="ignore"):
                if plan.scaling != "none" and stats["max"] == stats["min"]:
                    x = np.zeros(n)
                elif plan.scaling == "minmax":
                    x = (x - stats["min"]) / (stats["max"] - stats["min"])
                elif plan.scaling == "zscore":
                    x = (x - stats["mean"]) / stats["std"]
            bad = np.flatnonzero(~np.isfinite(x))
            if bad.size:
                raise PlanError(
                    f"column {name!r}: row {bad[0]} scales to {x[bad[0]]}, not a finite "
                    f"number (the cell lies far outside the training range)"
                )
            blocks.append(x[:, None])
            names.append(name)
        else:
            levels = plan.one_hot_levels[name]
            position = {level: j for j, level in enumerate(levels)}
            missing_slot = len(levels)
            lut = np.array([position.get(level, missing_slot) for level in col.categories],
                           dtype=np.int64)
            slots = np.full(n, missing_slot)
            present_cells = ~table.is_missing(name)
            slots[present_cells] = lut[table.columns[name][present_cells]]
            block = np.zeros((n, len(levels) + 1))
            block[np.arange(n), slots] = 1.0
            blocks.append(block)
            names.extend(f"{name}={level}" for level in levels)
            names.append(f"{name}={MISSING_LEVEL}")

    if plan.target_name not in present:
        raise PlanError(f"target column {plan.target_name!r} absent from the table")
    target = present[plan.target_name]
    if target.categories != plan.target_categories:
        raise PlanError(
            f"target categories {target.categories} differ from the fitted plan "
            f"{plan.target_categories}"
        )
    if table.is_missing(plan.target_name).any():
        raise PlanError("table has missing target labels")
    labels = table.columns[plan.target_name]

    features = np.hstack(blocks) if blocks else np.zeros((n, 0))
    return make_design_matrix(features, names, labels)


def preprocess_split(
    split: SplitPair, missing_threshold: float, scaling: str = "minmax"
) -> tuple[DesignMatrix, DesignMatrix]:
    """Fit on the train part only, then encode both parts identically."""
    plan = fit_plan(split.train, missing_threshold, scaling)
    return apply_plan(plan, split.train), apply_plan(plan, split.test)


DERIVED_KINDS = ("ratio", "difference")


def add_derived_column(table: Table, name: str, kind: str, left: str, right: str) -> Table:
    """Append a numeric column computed row-wise from two numeric columns.

    ``ratio`` is left/right (missing where right is 0), ``difference`` is
    left-right. The result is missing wherever either operand is missing,
    because a missing operand's NaN propagates.
    """
    if kind not in DERIVED_KINDS:
        raise PlanError(f"unknown derived kind {kind!r}, expected one of {DERIVED_KINDS}")
    if any(col.name == name for col in table.schema):
        raise PlanError(f"derived column name {name!r} already exists")
    for operand in (left, right):
        if table.column_schema(operand).kind != NUMERIC:
            raise PlanError(f"derived columns need numeric operands, {operand!r} is not")
    a = table.columns[left]
    b = table.columns[right]
    if kind == "ratio":
        values = np.divide(a, b, out=np.full(len(a), np.nan), where=b != 0)
    else:
        values = a - b
    return make_table(table.schema + (ColumnSchema(name, NUMERIC),),
                      {**table.columns, name: values})
