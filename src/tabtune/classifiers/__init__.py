"""Seven from-scratch classifier families behind one train/predict contract.

Families: DT (decision tree), RF (random forest), NB (Gaussian naive Bayes),
LR (logistic regression), KNN (k nearest neighbors), SVM (linear SVM), and
GBT (gradient-boosted trees). One table maps each family to its model class
and its ordered hyper-parameter schema (bounds and defaults); ``train``
validates configs against the schema and passes them to the class as
keyword arguments.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..hpspace import CATEGORICAL, CONTINUOUS, INTEGER, ParamSpec
from ..preprocess import DesignMatrix
from .bayes import GaussianNaiveBayes
from .boosting import GradientBoostedTrees, mean_logloss
from .forest import RandomForest
from .linear import LinearSVM, LogisticRegression, logloss_gradient, logloss_value
from .neighbors import KNearestNeighbors
from .tree import DecisionTree, best_split, entropy_impurity, gini_impurity

__all__ = [
    "FAMILIES",
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


class SingleClassError(ValueError):
    """Training data contains only one class; every family refuses to fit."""


@dataclass(frozen=True)
class _Family:
    model: type  # constructor keywords are the schema names
    schema: tuple[ParamSpec, ...]
    seeded: bool = False  # the constructor also takes the training seed


_FAMILY_TABLE: dict[str, _Family] = {
    "DT": _Family(DecisionTree, (
        ParamSpec("max_depth", INTEGER, 1, 20, default=10),
        ParamSpec("min_samples_split", INTEGER, 2, 10, default=2),
        ParamSpec("criterion", CATEGORICAL, choices=("gini", "entropy"), default="gini"),
    )),
    "RF": _Family(RandomForest, (
        ParamSpec("n_estimators", INTEGER, 5, 100, default=50),
        ParamSpec("max_depth", INTEGER, 1, 20, default=10),
        ParamSpec("max_features_frac", CONTINUOUS, 0.1, 1.0, default=1.0),
    ), seeded=True),
    "NB": _Family(GaussianNaiveBayes, (
        ParamSpec("var_smoothing_exp", CONTINUOUS, -12.0, -6.0, default=-9.0),
    )),
    "LR": _Family(LogisticRegression, (
        ParamSpec("l2_strength", CONTINUOUS, 0.0, 2.0, default=0.0),
        ParamSpec("learning_rate", CONTINUOUS, 0.01, 1.0, default=0.1),
        ParamSpec("epochs", INTEGER, 10, 200, default=100),
    )),
    "KNN": _Family(KNearestNeighbors, (
        ParamSpec("n_neighbors", INTEGER, 1, 25, default=5),
        ParamSpec("weighting", CATEGORICAL, choices=("uniform", "distance"), default="uniform"),
    )),
    "SVM": _Family(LinearSVM, (
        ParamSpec("c", CONTINUOUS, 0.5, 4.0, default=1.0),
        ParamSpec("epochs", INTEGER, 10, 200, default=100),
    )),
    "GBT": _Family(GradientBoostedTrees, (
        ParamSpec("n_estimators", INTEGER, 5, 100, default=50),
        ParamSpec("learning_rate", CONTINUOUS, 0.05, 1.0, default=0.3),
        ParamSpec("max_depth", INTEGER, 1, 6, default=3),
    )),
}

FAMILIES = tuple(_FAMILY_TABLE)


def hp_schema(family: str) -> tuple[ParamSpec, ...]:
    """Ordered hyper-parameter schema (name, kind, bounds, default) for a family."""
    if family not in _FAMILY_TABLE:
        raise ValueError(f"unknown classifier family {family!r}, expected one of {FAMILIES}")
    return _FAMILY_TABLE[family].schema


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
        else:
            if spec.kind == INTEGER:
                if float(value) != int(value):
                    raise ValueError(f"{family}.{spec.name}: expected an integer, got {value!r}")
                value = int(value)
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
    family = _FAMILY_TABLE[spec.family]
    seed_arg = {"seed": seed} if family.seeded else {}
    started = time.perf_counter()
    model = family.model(**cfg, **seed_arg).fit(data.features, data.labels)
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
