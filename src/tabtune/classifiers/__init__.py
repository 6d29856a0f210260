"""Seven from-scratch classifier families behind one train/predict contract.

Families: DT (decision tree), RF (random forest), NB (Gaussian naive Bayes),
LR (logistic regression), KNN (k nearest neighbors), SVM (linear SVM), and
GBT (gradient-boosted trees). Each declares an ordered hyper-parameter
schema with bounds and defaults; ``train`` validates configs against it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..preprocess import DesignMatrix
from .bayes import GaussianNaiveBayes
from .boosting import GradientBoostedTrees, mean_logloss
from .forest import RandomForest
from .linear import LinearSVM, LogisticRegression, logloss_gradient, logloss_value
from .neighbors import KNearestNeighbors
from .tree import DecisionTree, best_split, entropy_impurity, gini_impurity

__all__ = [
    "FAMILIES",
    "HpSpec",
    "ModelSpec",
    "TrainedModel",
    "SingleClassError",
    "hp_schema",
    "default_config",
    "validate_config",
    "train",
    "predict",
    "accuracy",
    "gini_impurity",
    "entropy_impurity",
    "best_split",
    "logloss_gradient",
    "logloss_value",
    "mean_logloss",
    "DecisionTree",
    "RandomForest",
    "GaussianNaiveBayes",
    "LogisticRegression",
    "LinearSVM",
    "KNearestNeighbors",
    "GradientBoostedTrees",
]

FAMILIES = ("DT", "RF", "NB", "LR", "KNN", "SVM", "GBT")

CONTINUOUS = "continuous"
INTEGER = "integer"
CATEGORICAL = "categorical"


class SingleClassError(ValueError):
    """Training data contains only one class; every family refuses to fit."""


@dataclass(frozen=True)
class HpSpec:
    name: str
    kind: str
    lo: float | None = None
    hi: float | None = None
    choices: tuple[str, ...] = ()
    default: Any = None


_SCHEMAS: dict[str, tuple[HpSpec, ...]] = {
    "DT": (
        HpSpec("max_depth", INTEGER, 1, 20, default=10),
        HpSpec("min_samples_split", INTEGER, 2, 10, default=2),
        HpSpec("criterion", CATEGORICAL, choices=("gini", "entropy"), default="gini"),
    ),
    "RF": (
        HpSpec("n_estimators", INTEGER, 5, 100, default=50),
        HpSpec("max_depth", INTEGER, 1, 20, default=10),
        HpSpec("max_features_frac", CONTINUOUS, 0.1, 1.0, default=1.0),
    ),
    "NB": (
        HpSpec("var_smoothing_exp", CONTINUOUS, -12.0, -6.0, default=-9.0),
    ),
    "LR": (
        HpSpec("l2_strength", CONTINUOUS, 0.0, 2.0, default=0.0),
        HpSpec("learning_rate", CONTINUOUS, 0.01, 1.0, default=0.1),
        HpSpec("epochs", INTEGER, 10, 200, default=100),
    ),
    "KNN": (
        HpSpec("n_neighbors", INTEGER, 1, 25, default=5),
        HpSpec("weighting", CATEGORICAL, choices=("uniform", "distance"), default="uniform"),
    ),
    "SVM": (
        HpSpec("c", CONTINUOUS, 0.5, 4.0, default=1.0),
        HpSpec("epochs", INTEGER, 10, 200, default=100),
    ),
    "GBT": (
        HpSpec("n_estimators", INTEGER, 5, 100, default=50),
        HpSpec("learning_rate", CONTINUOUS, 0.05, 1.0, default=0.3),
        HpSpec("max_depth", INTEGER, 1, 6, default=3),
    ),
}


def hp_schema(family: str) -> tuple[HpSpec, ...]:
    """Ordered hyper-parameter schema (name, kind, bounds, default) for a family."""
    if family not in _SCHEMAS:
        raise ValueError(f"unknown classifier family {family!r}, expected one of {FAMILIES}")
    return _SCHEMAS[family]


def default_config(family: str) -> dict:
    return {spec.name: spec.default for spec in hp_schema(family)}


def validate_config(family: str, config) -> dict:
    """Return a complete config; unknown names or out-of-bounds values raise."""
    schema = hp_schema(family)
    known = {spec.name: spec for spec in schema}
    for name in config:
        if name not in known:
            raise ValueError(f"{family}: unknown hyper-parameter {name!r}")
    full = {}
    for spec in schema:
        if spec.name not in config:
            full[spec.name] = spec.default
            continue
        value = config[spec.name]
        if spec.kind == CATEGORICAL:
            if value not in spec.choices:
                raise ValueError(
                    f"{family}.{spec.name}: {value!r} not in choices {spec.choices}"
                )
            full[spec.name] = value
        elif spec.kind == INTEGER:
            if float(value) != int(value):
                raise ValueError(f"{family}.{spec.name}: expected an integer, got {value!r}")
            value = int(value)
            if not spec.lo <= value <= spec.hi:
                raise ValueError(
                    f"{family}.{spec.name}: {value} outside bounds [{spec.lo}, {spec.hi}]"
                )
            full[spec.name] = value
        else:
            value = float(value)
            if not spec.lo <= value <= spec.hi:
                raise ValueError(
                    f"{family}.{spec.name}: {value} outside bounds [{spec.lo}, {spec.hi}]"
                )
            full[spec.name] = value
    return full


@dataclass(frozen=True)
class ModelSpec:
    family: str
    config: dict = field(default_factory=dict)


@dataclass
class TrainedModel:
    family: str
    config: dict
    model: Any
    train_seed: int
    fit_seconds: float

    def summary(self) -> dict:
        return {
            "family": self.family,
            "config": dict(self.config),
            "fit_seconds": self.fit_seconds,
        }


def _fit(family: str, cfg: dict, X, y, seed: int):
    if family == "DT":
        return DecisionTree(
            max_depth=cfg["max_depth"],
            min_samples_split=cfg["min_samples_split"],
            criterion=cfg["criterion"],
        ).fit(X, y)
    if family == "RF":
        return RandomForest(
            n_estimators=cfg["n_estimators"],
            max_depth=cfg["max_depth"],
            max_features_frac=cfg["max_features_frac"],
            seed=seed,
        ).fit(X, y)
    if family == "NB":
        return GaussianNaiveBayes(var_smoothing_exp=cfg["var_smoothing_exp"]).fit(X, y)
    if family == "LR":
        return LogisticRegression(
            l2_strength=cfg["l2_strength"],
            learning_rate=cfg["learning_rate"],
            epochs=cfg["epochs"],
        ).fit(X, y)
    if family == "KNN":
        return KNearestNeighbors(
            n_neighbors=cfg["n_neighbors"], weighting=cfg["weighting"]
        ).fit(X, y)
    if family == "SVM":
        return LinearSVM(c=cfg["c"], epochs=cfg["epochs"]).fit(X, y)
    if family == "GBT":
        return GradientBoostedTrees(
            n_estimators=cfg["n_estimators"],
            learning_rate=cfg["learning_rate"],
            max_depth=cfg["max_depth"],
        ).fit(X, y)
    raise ValueError(f"unknown classifier family {family!r}")


def train(spec: ModelSpec, data: DesignMatrix, seed: int) -> TrainedModel:
    """Fit one family with a validated config; deterministic given seed."""
    cfg = validate_config(spec.family, spec.config)
    if data.n_rows == 0:
        raise ValueError("cannot train on an empty design matrix")
    labels = np.unique(data.labels)
    if len(labels) < 2:
        raise SingleClassError(
            f"{spec.family}: training data contains a single class ({labels.tolist()})"
        )
    started = time.perf_counter()
    model = _fit(spec.family, cfg, data.features, data.labels, seed)
    fit_seconds = time.perf_counter() - started
    return TrainedModel(
        family=spec.family,
        config=cfg,
        model=model,
        train_seed=seed,
        fit_seconds=fit_seconds,
    )


def predict(model: TrainedModel, features) -> np.ndarray:
    features = np.asarray(features, dtype=float)
    if features.ndim != 2 or features.shape[1] != model.model.n_features_:
        raise ValueError(
            f"feature matrix has shape {features.shape}, "
            f"model was trained on {model.model.n_features_} features"
        )
    return model.model.predict(features)


def accuracy(predicted, actual) -> float:
    """Fraction of positions where the label vectors agree."""
    predicted = np.asarray(predicted)
    actual = np.asarray(actual)
    if predicted.shape != actual.shape:
        raise ValueError(f"length mismatch: {predicted.shape} vs {actual.shape}")
    if predicted.size == 0:
        raise ValueError("cannot score empty label vectors")
    return float((predicted == actual).mean())
