import numpy as np
import pytest

from tabtune.hpspace import (
    ParamSpec,
    SearchSpace,
    grid_enumerate,
    grid_size,
    random_sample,
    space_from_config,
)


def _space(*params, family="demo"):
    return SearchSpace(family=family, params=tuple(params))


def test_continuous_default_step_is_half():
    space = _space(ParamSpec("x", "continuous", 0.0, 1.0))
    assert grid_enumerate(space) == [{"x": 0.0}, {"x": 0.5}, {"x": 1.0}]


def test_n_estimators_defaults_to_step_five():
    space = _space(ParamSpec("n_estimators", "integer", 5, 15))
    assert grid_enumerate(space) == [{"n_estimators": 5}, {"n_estimators": 10}, {"n_estimators": 15}]


def test_product_order_is_lexicographic():
    space = _space(
        ParamSpec("a", "integer", 1, 3),
        ParamSpec("b", "categorical", choices=("u", "v")),
    )
    configs = grid_enumerate(space)
    assert len(configs) == 6
    assert configs[0] == {"a": 1, "b": "u"}
    assert configs[1] == {"a": 1, "b": "v"}
    assert configs[-1] == {"a": 3, "b": "v"}


def test_grid_size_matches_enumeration():
    rng = np.random.default_rng(2)
    for _ in range(25):
        params = []
        for i in range(int(rng.integers(1, 4))):
            kind = rng.choice(["continuous", "integer", "categorical"])
            if kind == "categorical":
                k = int(rng.integers(1, 5))
                params.append(ParamSpec(f"p{i}", "categorical", choices=tuple(f"c{j}" for j in range(k))))
            elif kind == "integer":
                lo = int(rng.integers(0, 5))
                params.append(ParamSpec(f"p{i}", "integer", lo, lo + int(rng.integers(0, 10))))
            else:
                lo = float(rng.uniform(0, 2))
                params.append(
                    ParamSpec(f"p{i}", "continuous", lo, lo + float(rng.uniform(0, 3)),
                              step=float(rng.uniform(0.1, 1.0)))
                )
        space = _space(*params)
        configs = grid_enumerate(space)
        assert grid_size(space) == len(configs)
        seen = {tuple(sorted(c.items())) for c in configs}
        assert len(seen) == len(configs)  # duplicate-free


def test_grid_size_matches_enumeration_at_ten_thousand_configs():
    space = _space(
        ParamSpec("a", "integer", 1, 10),
        ParamSpec("b", "integer", 1, 10),
        ParamSpec("c", "integer", 1, 10),
        ParamSpec("d", "integer", 1, 10),
    )
    assert grid_size(space) == 10_000
    assert len(grid_enumerate(space)) == 10_000


def test_grid_size_empty_param_list_is_one():
    assert grid_size(_space()) == 1
    assert grid_enumerate(_space()) == [{}]


def test_grid_values_respect_bounds_and_step_multiples():
    rng = np.random.default_rng(9)
    for _ in range(50):
        lo = float(rng.uniform(-3, 3))
        hi = lo + float(rng.uniform(0, 5))
        step = float(rng.uniform(0.05, 1.1))
        spec = ParamSpec("x", "continuous", lo, hi, step=step)
        values = spec.grid_values()
        assert values[0] == lo
        for v in values:
            assert lo <= v <= hi
            multiple = (v - lo) / step
            assert abs(multiple - round(multiple)) < 1e-6
        # hi included iff the span is an integral multiple of the step
        span_multiple = (hi - lo) / step
        if abs(span_multiple - round(span_multiple)) < 1e-9:
            assert values[-1] == pytest.approx(hi)


def test_endpoint_included_despite_float_noise():
    spec = ParamSpec("x", "continuous", 0.0, 0.3, step=0.1)
    values = spec.grid_values()
    assert len(values) == 4
    assert values[-1] == 0.3


def test_random_sample_budget_zero():
    space = _space(ParamSpec("x", "continuous", 0.0, 1.0))
    assert random_sample(space, 0, seed=1) == []


def test_random_sample_large_budget_statistics():
    space = _space(ParamSpec("x", "continuous", 0.0, 1.0))
    draws = random_sample(space, 1000, seed=7)
    values = np.array([c["x"] for c in draws])
    assert np.all((values >= 0.0) & (values <= 1.0))
    assert abs(values.mean() - 0.5) < 0.05


def test_random_sample_deterministic_and_seed_sensitive():
    space = _space(
        ParamSpec("x", "continuous", 0.0, 1.0),
        ParamSpec("k", "integer", 1, 9),
        ParamSpec("c", "categorical", choices=("a", "b")),
    )
    assert random_sample(space, 25, seed=3) == random_sample(space, 25, seed=3)
    base = random_sample(space, 10, seed=0)
    assert any(random_sample(space, 10, seed=s) != base for s in range(1, 6))


def test_random_sample_respects_bounds_over_random_spaces():
    rng = np.random.default_rng(31)
    for trial in range(25):
        lo = int(rng.integers(-4, 4))
        hi = lo + int(rng.integers(0, 7))
        choices = tuple(f"c{j}" for j in range(int(rng.integers(1, 4))))
        space = _space(
            ParamSpec("i", "integer", lo, hi),
            ParamSpec("c", "categorical", choices=choices),
        )
        for config in random_sample(space, 40, seed=trial):
            assert lo <= config["i"] <= hi
            assert isinstance(config["i"], int)
            assert config["c"] in choices


def test_param_spec_validation():
    with pytest.raises(ValueError):
        ParamSpec("x", "continuous", 2.0, 1.0)
    with pytest.raises(ValueError):
        ParamSpec("x", "continuous", 0.0, 1.0, step=0.0)
    with pytest.raises(ValueError):
        ParamSpec("x", "categorical", choices=())
    with pytest.raises(ValueError):
        ParamSpec("x", "categorical", choices=("a", "a"))
    with pytest.raises(ValueError):
        ParamSpec("x", "integer", 0.5, 2)
    with pytest.raises(ValueError):
        _space(ParamSpec("x", "integer", 1, 2), ParamSpec("x", "integer", 1, 2))
    with pytest.raises(ValueError):
        ParamSpec("x", "integer", 1, 5, step=0.5)  # would enumerate 1, 2, 2, 2, 3, ...
    with pytest.raises(ValueError):
        ParamSpec("x", "integer", "2", 5)
    with pytest.raises(ValueError):
        ParamSpec("x", "continuous", 0.0, 1.0, step=True)


def test_param_spec_check_returns_the_stored_value():
    integer = ParamSpec("i", "integer", 1, 20)
    continuous = ParamSpec("c", "continuous", 0.0, 2.0)
    categorical = ParamSpec("k", "categorical", choices=("u", "v"))
    assert integer.check(4.0) == 4 and type(integer.check(4.0)) is int
    assert continuous.check(1) == 1.0 and type(continuous.check(1)) is float
    assert categorical.check("v") == "v"
    for spec, value in [(integer, 2.5), (integer, 0), (integer, 21), (integer, "3"),
                        (integer, True), (integer, float("nan")), (integer, float("inf")),
                        (continuous, -0.1), (continuous, "1.0"), (continuous, float("nan")),
                        (categorical, "w"), (categorical, None)]:
        with pytest.raises(ValueError):
            spec.check(value)


def test_an_empty_space_mapping_is_a_single_default_config():
    for family in ("DT", "RF", "NB", "LR", "KNN", "SVM", "GBT"):
        space = space_from_config(family, {})
        configs = grid_enumerate(space)
        assert len(configs) == 1
        assert grid_size(space) == 1


def test_space_from_config_applies_schema_bounds():
    space = space_from_config("DT", {"max_depth": {"lo": 2, "hi": 6, "step": 2}})
    configs = grid_enumerate(space)
    depths = sorted({c["max_depth"] for c in configs})
    assert depths == [2, 4, 6]
    # omitted params are pinned at defaults
    assert all(c["min_samples_split"] == 2 and c["criterion"] == "gini" for c in configs)
    with pytest.raises(ValueError):
        space_from_config("DT", {"max_depth": {"lo": 0, "hi": 6}})
    with pytest.raises(ValueError):
        space_from_config("DT", {"nope": {"lo": 0, "hi": 1}})
    with pytest.raises(ValueError):
        space_from_config("DT", {"criterion": {"choices": ["squared"]}})
    with pytest.raises(ValueError):
        space_from_config("DT", {"max_depth": {"lo": 2}})
    for bad in [
        {"max_depth": {"lo": 1, "hi": 5, "step": 0.5}},  # fractional integer step
        {"max_depth": {"lo": "2", "hi": 5}},  # string bound
        {"max_depth": {"lo": 2, "hi": 5, "step": True}},  # bool step
        {"max_depth": {"lo": 6, "hi": 2}},
        {"max_depth": {"lo": 2.5, "hi": 6}},
        {"criterion": {"choices": ["gini"], "lo": 1}},
    ]:
        with pytest.raises(ValueError):
            space_from_config("DT", bad)
