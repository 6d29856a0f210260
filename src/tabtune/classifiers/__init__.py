"""Seven from-scratch classifier families behind one train/predict contract.

Families: DT (decision tree), RF (random forest), NB (Gaussian naive Bayes),
LR (logistic regression), KNN (k nearest neighbors), SVM (linear SVM), and
GBT (gradient-boosted trees). One table maps each family to its model class
and its ordered hyper-parameter schema (bounds and defaults).

The contract is train -> model -> predict: ``train(spec, data, seed)``
validates the config against the schema, passes it to the family's class as
keyword arguments and returns the fitted model itself, whose attributes hold
the config. ``predict(model, X)`` checks that ``X`` has the
``model.n_features_`` columns the model was fitted on and returns its 0/1
labels.

The table also names each family's budgets, the parameters whose smaller
values a larger fit already holds, and its free axes, the parameters that
``fit`` never reads. Both rules of reading a model off another fit live
here: ``fit_groups`` groups configs so that each group can share its fits,
and ``train(spec, data, seed, fits=...)`` reads the model ``spec`` would fit
off the first fit that covers it. Each model's ``predict`` reads its own
budgets and free axes (the first trees or stages, a tree's levels, the
weights after some epochs, a variance floor, the first k neighbors), so a
model read off a fit shares its arrays and predicts as a fresh fit of
``spec`` would. Models read off one KNN fit share its neighbor ranking.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from ..hpspace import CATEGORICAL, CONTINUOUS, INTEGER, ParamSpec
from ..preprocess import DesignMatrix
from .bayes import GaussianNaiveBayes
from .boosting import GradientBoostedTrees
from .forest import RandomForest
from .linear import LinearSVM, LogisticRegression
from .neighbors import KNearestNeighbors
from .tree import DecisionTree

__all__ = [
    "FAMILIES",
    "ModelSpec",
    "SingleClassError",
    "hp_schema",
    "default_config",
    "validate_config",
    "fit_groups",
    "train",
    "predict",
    "accuracy",
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
    #: schema names whose smaller values the model's ``predict`` reads off
    #: a larger fit
    budgets: tuple[str, ...] = ()
    #: schema names that ``fit`` never reads, so ``predict`` reads any value
    free: tuple[str, ...] = ()


_FAMILY_TABLE: dict[str, _Family] = {
    "DT": _Family(DecisionTree, (
        ParamSpec("max_depth", INTEGER, 1, 20, default=10),
        ParamSpec("min_samples_split", INTEGER, 2, 10, default=2),
        ParamSpec("criterion", CATEGORICAL, choices=("gini", "entropy"), default="gini"),
    ), budgets=("max_depth",)),
    "RF": _Family(RandomForest, (
        ParamSpec("n_estimators", INTEGER, 5, 100, default=50),
        ParamSpec("max_depth", INTEGER, 1, 20, default=10),
        ParamSpec("max_features_frac", CONTINUOUS, 0.1, 1.0, default=1.0),
    ), seeded=True, budgets=("n_estimators", "max_depth")),
    "NB": _Family(GaussianNaiveBayes, (
        ParamSpec("var_smoothing_exp", CONTINUOUS, -12.0, -6.0, default=-9.0),
    ), free=("var_smoothing_exp",)),
    "LR": _Family(LogisticRegression, (
        ParamSpec("l2_strength", CONTINUOUS, 0.0, 2.0, default=0.0),
        ParamSpec("learning_rate", CONTINUOUS, 0.01, 1.0, default=0.1),
        ParamSpec("epochs", INTEGER, 10, 200, default=100),
    ), budgets=("epochs",)),
    "KNN": _Family(KNearestNeighbors, (
        ParamSpec("n_neighbors", INTEGER, 1, 25, default=5),
        ParamSpec("weighting", CATEGORICAL, choices=("uniform", "distance"), default="uniform"),
    ), budgets=("n_neighbors",), free=("weighting",)),
    "SVM": _Family(LinearSVM, (
        ParamSpec("c", CONTINUOUS, 0.5, 4.0, default=1.0),
        ParamSpec("epochs", INTEGER, 10, 200, default=100),
    ), budgets=("epochs",)),
    "GBT": _Family(GradientBoostedTrees, (
        ParamSpec("n_estimators", INTEGER, 5, 100, default=50),
        ParamSpec("learning_rate", CONTINUOUS, 0.05, 1.0, default=0.3),
        ParamSpec("max_depth", INTEGER, 1, 6, default=3),
    ), budgets=("n_estimators",)),  # later stages fit earlier residuals: depth is no budget
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
        try:
            full[spec.name] = spec.check(config[spec.name])
        except ValueError as exc:
            raise ValueError(f"{family}.{exc}") from None
    return full


@dataclass(frozen=True)
class ModelSpec:
    family: str
    config: dict = field(default_factory=dict)


def fit_groups(family: str, configs) -> list:
    """The (config, index) pairs of validated ``configs``, grouped so that
    ``train(..., fits=...)`` can serve each member off a fit of another:
    configs equal outside the family's budgets and free axes share a group.
    Groups keep the order of their first configs, and each lists its members
    largest budgets first (a stable sort), so every member comes after each
    member that covers it."""
    budgets, free = _FAMILY_TABLE[family].budgets, _FAMILY_TABLE[family].free
    groups = {}
    for index, config in enumerate(configs):
        key = tuple((name, value) for name, value in config.items()
                    if name not in budgets + free)
        groups.setdefault(key, []).append((config, index))
    return [sorted(members, key=lambda m: [-m[0][name] for name in budgets])
            for members in groups.values()]


def train(spec: ModelSpec, data: DesignMatrix, seed: int, fits=None):
    """The family's model fitted with a validated config; deterministic given seed.

    ``fits``, when given, is a list of models that ``train`` fitted on the
    same ``data`` (which is the caller's to ensure). The model ``spec``
    would fit is read off the first of them that covers it: one of the
    family's class, fitted on as many columns, with each budget at least
    as large and every other parameter outside the free axes (the RF seed
    included) equal. The read-off is that fit itself when the configs are
    equal, else a shallow copy of it with ``spec``'s budgets and free axes
    set, which shares every array of the fit. When no model covers
    ``spec``, a new fit is appended to ``fits``. Empty and single-class data
    raise before ``fits`` is read.
    """
    cfg = validate_config(spec.family, spec.config)
    if data.n_rows == 0:
        raise ValueError("cannot train on an empty design matrix")
    if data.labels.min() == data.labels.max():
        raise SingleClassError(f"{spec.family}: training data contains a single class "
                               f"({np.unique(data.labels).tolist()})")
    family = _FAMILY_TABLE[spec.family]
    wanted = {**cfg, **({"seed": seed} if family.seeded else {})}
    for fit in fits or ():
        if type(fit) is not family.model or fit.n_features_ != data.n_features:
            continue
        held = {name: getattr(fit, name) for name in wanted}
        if held == wanted:
            return fit
        if all(held[name] >= value if name in family.budgets else held[name] == value
               for name, value in wanted.items() if name not in family.free):
            model = copy.copy(fit)
            for name in family.budgets + family.free:
                setattr(model, name, cfg[name])
            return model
    model = family.model(**wanted).fit(data.features, data.labels)
    if fits is not None:
        fits.append(model)
    return model


def predict(model, features) -> np.ndarray:
    features = np.asarray(features, dtype=float)
    if features.ndim != 2 or features.shape[1] != model.n_features_:
        raise ValueError(
            f"feature matrix has shape {features.shape}, "
            f"model was trained on {model.n_features_} features"
        )
    return model.predict(features)


def accuracy(predicted, actual) -> float:
    """Fraction of positions where the label vectors agree."""
    predicted = np.asarray(predicted)
    actual = np.asarray(actual)
    if predicted.shape != actual.shape:
        raise ValueError(f"length mismatch: {predicted.shape} vs {actual.shape}")
    if predicted.size == 0:
        raise ValueError("cannot score empty label vectors")
    return float((predicted == actual).mean())
