"""Declarative hyper-parameter search spaces: grid enumeration over the
Cartesian product with default step rules, and budgeted seeded random
sampling.

Default grid steps are 0.5 for continuous parameters and 1 for integer
parameters, except any parameter named ``n_estimators`` which steps by 5.
"""

from __future__ import annotations

import math
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
        if self.lo > self.hi:
            raise ValueError(f"{self.name}: lo {self.lo} exceeds hi {self.hi}")
        if self.step is not None and self.step <= 0:
            raise ValueError(f"{self.name}: step must be positive")
        if self.kind == INTEGER:
            for label, value in (("lo", self.lo), ("hi", self.hi)):
                if float(value) != int(value):
                    raise ValueError(f"{self.name}: integer bound {label}={value} not integral")

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
    value_lists = [p.grid_values() for p in space.params]
    assert all(value_lists) or not value_lists, "grid with an empty value list"
    return [dict(zip(names, combo)) for combo in product(*value_lists)]


def grid_size(space: SearchSpace) -> int:
    """Number of grid configs without materializing them (1 for no params)."""
    size = 1
    for p in space.params:
        size *= p.grid_count()
    return size


def random_sample(space: SearchSpace, budget: int, seed: int) -> list[dict]:
    """``budget`` independent uniform draws (with replacement across draws)."""
    if budget < 0:
        raise ValueError(f"budget must be non-negative, got {budget}")
    rng = np.random.default_rng(seed)
    return [{p.name: p.sample(rng) for p in space.params} for _ in range(budget)]


def fixed_space(family: str) -> SearchSpace:
    """Search space pinning every parameter of a family at its default."""
    from .classifiers import hp_schema

    return SearchSpace(family=family, params=tuple(s.pinned() for s in hp_schema(family)))


def space_from_config(family: str, mapping: dict) -> SearchSpace:
    """Build a family's space from the config file form.

    ``mapping`` maps parameter names to {"lo", "hi", "step"?} or
    {"choices": [...]}; parameters omitted from the mapping are pinned at
    their schema defaults. Bounds are validated against the family schema.
    """
    from .classifiers import hp_schema

    schema = {spec.name: spec for spec in hp_schema(family)}
    for name in mapping:
        if name not in schema:
            raise ValueError(f"{family}: unknown hyper-parameter {name!r} in search space")
    params = []
    for spec in schema.values():
        if spec.name not in mapping:
            params.append(spec.pinned())
            continue
        entry = mapping[spec.name]
        if not isinstance(entry, dict):
            raise ValueError(f"{family}.{spec.name}: expected an object, got {entry!r}")
        if spec.kind == CATEGORICAL:
            choices = entry.get("choices")
            if not isinstance(choices, list) or not choices:
                raise ValueError(f"{family}.{spec.name}: categorical needs a 'choices' list")
            bad = [c for c in choices if c not in spec.choices]
            if bad:
                raise ValueError(f"{family}.{spec.name}: invalid choices {bad}")
            params.append(ParamSpec(spec.name, CATEGORICAL, choices=tuple(choices)))
            continue
        unknown = set(entry) - {"lo", "hi", "step"}
        if unknown:
            raise ValueError(f"{family}.{spec.name}: unknown keys {sorted(unknown)}")
        if "lo" not in entry or "hi" not in entry:
            raise ValueError(f"{family}.{spec.name}: numeric range needs 'lo' and 'hi'")
        lo, hi = entry["lo"], entry["hi"]
        if not spec.lo <= lo <= hi <= spec.hi:
            raise ValueError(
                f"{family}.{spec.name}: range [{lo}, {hi}] outside schema "
                f"bounds [{spec.lo}, {spec.hi}]"
            )
        params.append(
            ParamSpec(spec.name, spec.kind, lo=lo, hi=hi, step=entry.get("step"))
        )
    return SearchSpace(family=family, params=tuple(params))
