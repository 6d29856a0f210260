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
        indices = np.asarray(indices)
        if indices.dtype == bool:
            indices = np.nonzero(indices)[0]
        return make_design_matrix(self.features[indices], self.feature_names, self.labels[indices])


def make_design_matrix(features, names, labels) -> DesignMatrix:
    features = np.ascontiguousarray(features, dtype=float)
    labels = np.asarray(labels, dtype=np.int64)
    features.setflags(write=False)
    labels.setflags(write=False)
    return DesignMatrix(features=features, feature_names=tuple(names), labels=labels)


@dataclass(frozen=True)
class PreprocessPlan:
    missing_threshold: float
    scaling: str
    dropped_columns: tuple[str, ...]
    column_order: tuple[str, ...]
    numeric_stats: dict[str, dict[str, float]]  # per column: mean/std/min/max from train
    one_hot_levels: dict[str, tuple[str, ...]]  # train-observed levels, schema order
    target_name: str
    target_categories: tuple[str, ...]

    def to_dict(self) -> dict:
        """JSON-ready audit view of the fitted parameters."""
        return {
            "missing_threshold": self.missing_threshold,
            "scaling": self.scaling,
            "dropped_columns": list(self.dropped_columns),
            "column_order": list(self.column_order),
            "numeric_stats": {k: dict(v) for k, v in self.numeric_stats.items()},
            "one_hot": {
                col: list(levels) + [MISSING_LEVEL]
                for col, levels in self.one_hot_levels.items()
            },
            "target": {"name": self.target_name, "categories": list(self.target_categories)},
        }


def fit_plan(train: Table, missing_threshold: float, scaling: str = "minmax") -> PreprocessPlan:
    """Fit preprocessing parameters on training rows.

    A feature column is dropped iff its missing fraction is strictly greater
    than ``missing_threshold``; the target is never dropped. Scale statistics
    use non-missing training values only (population std for zscore). A
    column whose imputation mean, or whose range (minmax) or std (zscore),
    overflows to a non-finite value raises ``PlanError`` naming it.
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
        fraction = float(train.missing[col.name].mean())
        if fraction > missing_threshold:
            dropped.append(col.name)
            continue
        order.append(col.name)
        if col.kind == NUMERIC:
            values = train.columns[col.name][~train.missing[col.name]]
            if values.size:
                with np.errstate(over="ignore", invalid="ignore"):
                    numeric_stats[col.name] = {
                        "mean": float(values.mean()),
                        "std": float(values.std()),
                        "min": float(values.min()),
                        "max": float(values.max()),
                    }
                _check_finite_stats(col.name, numeric_stats[col.name], scaling)
            else:
                numeric_stats[col.name] = {"mean": 0.0, "std": 0.0, "min": 0.0, "max": 0.0}
        else:
            observed = np.unique(
                train.columns[col.name][~train.missing[col.name]]
            )
            one_hot_levels[col.name] = tuple(col.categories[int(i)] for i in observed)
    if not order:
        raise PlanError("every feature column was dropped; plan is degenerate")
    target = train.target
    return PreprocessPlan(
        missing_threshold=missing_threshold,
        scaling=scaling,
        dropped_columns=tuple(dropped),
        column_order=tuple(order),
        numeric_stats=numeric_stats,
        one_hot_levels=one_hot_levels,
        target_name=target.name,
        target_categories=target.categories,
    )


def _check_finite_stats(name: str, stats: dict, scaling: str) -> None:
    """Finite cells near the float limits can overflow a statistic the plan
    uses (the imputation mean, the min-max range or the z-score std), which
    would scale the column to NaN or zeros; refuse the column instead."""
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


def apply_plan(plan: PreprocessPlan, table: Table) -> DesignMatrix:
    """Replay a fitted plan on any table containing the surviving columns.

    Missing numeric cells are imputed with the train mean before scaling.
    Constant columns (zero std or zero range) scale to all zeros instead of
    erroring so degenerate folds keep running. Categorical cells map onto the
    train-observed level indicators; anything else lands in ``__missing__``.
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
            x[table.missing[name]] = stats["mean"]
            if plan.scaling == "minmax":
                span = stats["max"] - stats["min"]
                x = (x - stats["min"]) / span if span > 0 else np.zeros(n)
            elif plan.scaling == "zscore":
                x = (x - stats["mean"]) / stats["std"] if stats["std"] > 0 else np.zeros(n)
            blocks.append(x[:, None])
            names.append(name)
        else:
            levels = plan.one_hot_levels[name]
            position = {level: j for j, level in enumerate(levels)}
            missing_slot = len(levels)
            lut = np.full(max(len(col.categories), 1), missing_slot, dtype=np.int64)
            for i, level in enumerate(col.categories):
                lut[i] = position.get(level, missing_slot)
            raw = np.maximum(table.columns[name], 0)
            slots = np.where(table.missing[name], missing_slot, lut[raw])
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
    if table.missing[plan.target_name].any():
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
    left-right. The result is missing wherever either operand is missing.
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
    mask = table.missing[left] | table.missing[right]
    if kind == "ratio":
        mask = mask | (b == 0)
        with np.errstate(divide="ignore", invalid="ignore"):
            values = np.where(mask, np.nan, a / np.where(b == 0, 1.0, b))
    else:
        values = np.where(mask, np.nan, a - b)

    schema = table.schema + (ColumnSchema(name, NUMERIC),)
    columns = dict(table.columns)
    missing = dict(table.missing)
    columns[name] = values
    missing[name] = mask
    return make_table(schema, columns, missing)
