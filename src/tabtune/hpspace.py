"""Declarative hyper-parameter search spaces: grid enumeration over the
Cartesian product with default step rules, and budgeted seeded random
sampling.

Default grid steps are 0.5 for continuous parameters and 1 for integer
parameters, except any parameter named ``n_estimators`` which steps by 5.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from itertools import product
from typing import Any

import numpy as np

CONTINUOUS = "continuous"
INTEGER = "integer"
CATEGORICAL = "categorical"

DEFAULT_CONTINUOUS_STEP = 0.5
DEFAULT_INTEGER_STEP = 1
N_ESTIMATORS_STEP = 5

_STEP_TOLERANCE = 1e-9


def _number(label: str, value, integer: bool):
    """``value`` (as an int when ``integer``); ValueError for a bool, a
    non-number or a non-integral value where an integer is required."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{label}: expected a number, got {value!r}")
    if not integer:
        return value
    if not (isinstance(value, numbers.Integral) or float(value).is_integer()):
        raise ValueError(f"{label}: expected an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class ParamSpec:
    name: str
    kind: str
    lo: float | None = None
    hi: float | None = None
    step: float | None = None
    choices: tuple = ()
    default: Any = None  # a family schema's default; pinned() fixes it

    def __post_init__(self):
        if self.kind == CATEGORICAL:
            if not self.choices:
                raise ValueError(f"{self.name}: categorical parameter needs choices")
            if len(set(self.choices)) != len(self.choices):
                raise ValueError(f"{self.name}: duplicate choices")
            return
        if self.kind not in (CONTINUOUS, INTEGER):
            raise ValueError(f"{self.name}: unknown kind {self.kind!r}")
        if self.lo is None or self.hi is None:
            raise ValueError(f"{self.name}: numeric parameter needs lo and hi")
        for label in ("lo", "hi", "step"):
            if getattr(self, label) is not None:
                _number(f"{self.name} {label}", getattr(self, label), self.kind == INTEGER)
        if self.lo > self.hi:
            raise ValueError(f"{self.name}: lo {self.lo} exceeds hi {self.hi}")
        if self.step is not None and self.step <= 0:
            raise ValueError(f"{self.name}: step must be positive")

    def check(self, value):
        """``value`` as stored in a config: the choice itself, an ``int`` for
        integer parameters, a ``float`` for continuous ones. Raises
        ValueError for a value that is not a choice, not a number, not
        integral (integer parameters) or outside [lo, hi]."""
        if self.kind == CATEGORICAL:
            if value not in self.choices:
                raise ValueError(f"{self.name}: {value!r} not in choices {self.choices}")
            return value
        value = _number(self.name, value, self.kind == INTEGER)
        if not self.lo <= value <= self.hi:
            raise ValueError(f"{self.name}: {value} outside bounds [{self.lo}, {self.hi}]")
        return value if self.kind == INTEGER else float(value)

    def resolved_step(self) -> float:
        if self.step is not None:
            return self.step
        if self.name == "n_estimators":
            return N_ESTIMATORS_STEP
        return DEFAULT_INTEGER_STEP if self.kind == INTEGER else DEFAULT_CONTINUOUS_STEP

    def grid_values(self) -> list:
        """Values lo, lo+step, ... including hi when it falls on the step grid."""
        if self.kind == CATEGORICAL:
            return list(self.choices)
        step = self.resolved_step()
        values = [self.lo + i * step for i in range(self.grid_count())]
        if values[-1] > self.hi:  # float accumulation overshoot
            values[-1] = self.hi
        if self.kind == INTEGER:
            values = [int(round(v)) for v in values]
        return values

    def grid_count(self) -> int:
        if self.kind == CATEGORICAL:
            return len(self.choices)
        step = self.resolved_step()
        return int(math.floor((self.hi - self.lo) / step + _STEP_TOLERANCE)) + 1

    def pinned(self) -> "ParamSpec":
        """This parameter fixed at its default: a one-value space."""
        if self.kind == CATEGORICAL:
            return replace(self, choices=(self.default,))
        return replace(self, lo=self.default, hi=self.default)

    def sample(self, rng: np.random.Generator):
        if self.kind == CATEGORICAL:
            return self.choices[int(rng.integers(len(self.choices)))]
        if self.kind == INTEGER:
            return int(rng.integers(int(self.lo), int(self.hi) + 1))
        return float(rng.uniform(self.lo, self.hi))


@dataclass(frozen=True)
class SearchSpace:
    family: str
    params: tuple[ParamSpec, ...]

    def __post_init__(self):
        names = [p.name for p in self.params]
        if len(set(names)) != len(names):
            raise ValueError(f"{self.family}: duplicate parameter names in search space")


def grid_enumerate(space: SearchSpace) -> list[dict]:
    """Every grid config, lexicographic in (param order, value order)."""
    names = [p.name for p in space.params]
    return [dict(zip(names, combo)) for combo in product(*(p.grid_values() for p in space.params))]


def grid_size(space: SearchSpace) -> int:
    """Number of grid configs without materializing them (1 for no params)."""
    return math.prod(p.grid_count() for p in space.params)


def random_sample(space: SearchSpace, budget: int, seed: int) -> list[dict]:
    """``budget`` independent uniform draws (with replacement across draws)."""
    if budget < 0:
        raise ValueError(f"budget must be non-negative, got {budget}")
    rng = np.random.default_rng(seed)
    return [{p.name: p.sample(rng) for p in space.params} for _ in range(budget)]


def space_from_config(family: str, mapping: dict) -> SearchSpace:
    """Build a family's space from the config file form.

    ``mapping`` maps parameter names to {"lo", "hi", "step"?} or
    {"choices": [...]}; parameters omitted from the mapping are pinned at
    their schema defaults. Bounds and choices are checked against the
    family schema.
    """
    from .classifiers import hp_schema

    schema = {spec.name: spec for spec in hp_schema(family)}
    for name in mapping:
        if name not in schema:
            raise ValueError(f"{family}: unknown hyper-parameter {name!r} in search space")
    try:
        params = tuple(
            _param_from_config(spec, mapping[spec.name]) if spec.name in mapping
            else spec.pinned()
            for spec in schema.values()
        )
    except ValueError as exc:
        raise ValueError(f"{family}.{exc}") from None
    return SearchSpace(family=family, params=params)


def _param_from_config(spec: ParamSpec, entry) -> ParamSpec:
    if not isinstance(entry, dict):
        raise ValueError(f"{spec.name}: expected an object, got {entry!r}")
    keys = {"choices"} if spec.kind == CATEGORICAL else {"lo", "hi", "step"}
    unknown = set(entry) - keys
    if unknown:
        raise ValueError(f"{spec.name}: unknown keys {sorted(unknown)}")
    if spec.kind == CATEGORICAL:
        choices = entry.get("choices")
        if not isinstance(choices, list) or not choices:
            raise ValueError(f"{spec.name}: categorical needs a 'choices' list")
        return ParamSpec(spec.name, CATEGORICAL, choices=tuple(spec.check(c) for c in choices))
    if "lo" not in entry or "hi" not in entry:
        raise ValueError(f"{spec.name}: numeric range needs 'lo' and 'hi'")
    return ParamSpec(spec.name, spec.kind, lo=spec.check(entry["lo"]),
                     hi=spec.check(entry["hi"]), step=entry.get("step"))
