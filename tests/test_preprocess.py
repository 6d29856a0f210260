import math

import numpy as np
import pytest

from tabtune.preprocess import (
    MISSING_LEVEL,
    PlanError,
    add_derived_column,
    apply_plan,
    fit_plan,
    make_design_matrix,
)
from tabtune.tabular import (
    CATEGORICAL,
    NUMERIC,
    TARGET,
    ColumnSchema,
    generate_synthetic,
    make_table,
    split_train_test,
)


def _table(columns, categories=None):
    """Small table builder; `columns` maps name -> (kind, values), None is missing."""
    schema = []
    cols = {}
    for name, (kind, values) in columns.items():
        if kind == NUMERIC:
            schema.append(ColumnSchema(name, NUMERIC))
            cols[name] = np.array(values, dtype=float)
        else:
            cats = categories[name] if categories and name in categories else tuple(
                sorted(set(v for v in values if v is not None))
            )
            schema.append(ColumnSchema(name, kind, tuple(cats)))
            index = {c: i for i, c in enumerate(cats)}
            cols[name] = np.array(
                [index[v] if v is not None else -1 for v in values], dtype=np.int64
            )
    return make_table(schema, cols)


def _simple(n=10, missing_x=0):
    x = [float(i) for i in range(n)]
    y = ["0" if i < n // 2 else "1" for i in range(n)]
    vals = [(None if i < missing_x else x[i]) for i in range(n)]
    return _table({"x": (NUMERIC, vals), "label": (TARGET, y)})


def test_drop_rule_is_strictly_greater():
    # 61 of 100 missing -> dropped at threshold 0.60
    n = 100
    values = [None] * 61 + [1.0] * 39
    keep_values = [None] * 60 + [1.0] * 40
    labels = ["0", "1"] * 50
    dropped = _table({"x": (NUMERIC, values), "keep": (NUMERIC, [1.0] * n), "label": (TARGET, labels)})
    plan = fit_plan(dropped, missing_threshold=0.60)
    assert plan.dropped_columns == ("x",)
    boundary = _table({"x": (NUMERIC, keep_values), "label": (TARGET, labels)})
    plan = fit_plan(boundary, missing_threshold=0.60)
    assert plan.dropped_columns == ()


def test_threshold_one_drops_nothing():
    n = 10
    values = [None] * 9 + [1.0]
    table = _table({"x": (NUMERIC, values), "label": (TARGET, ["0", "1"] * 5)})
    plan = fit_plan(table, missing_threshold=1.0)
    assert plan.dropped_columns == ()


def test_all_columns_dropped_is_an_error():
    table = _table(
        {"x": (NUMERIC, [None, None, 1.0, None]), "label": (TARGET, ["0", "1", "0", "1"])}
    )
    with pytest.raises(PlanError):
        fit_plan(table, missing_threshold=0.5)


def test_minmax_formula():
    table = _table(
        {"x": (NUMERIC, [0.0, 4.0, 3.0, 1.0]), "label": (TARGET, ["0", "1", "0", "1"])}
    )
    plan = fit_plan(table, 0.6, scaling="minmax")
    matrix = apply_plan(plan, table)
    assert matrix.features[2, 0] == pytest.approx(0.75)
    assert matrix.features[:, 0].min() == 0.0
    assert matrix.features[:, 0].max() == 1.0


def test_zscore_uses_population_std():
    table = _table(
        {"x": (NUMERIC, [1.0, 2.0, 3.0]), "label": (TARGET, ["0", "1", "0"])}
    )
    plan = fit_plan(table, 0.6, scaling="zscore")
    matrix = apply_plan(plan, table)
    expected = [-1.2247448713915892, 0.0, 1.2247448713915892]
    assert matrix.features[:, 0] == pytest.approx(expected, abs=1e-9)


def test_zscore_train_rows_standardized():
    table = generate_synthetic(400, seed=8)
    split = split_train_test(table, 0.7, seed=1)
    train = apply_plan(fit_plan(split.train, 0.6, scaling="zscore"), split.train)
    for j, name in enumerate(train.feature_names):
        if "=" in name:  # one-hot indicator
            continue
        # imputed cells sit exactly at the mean; the invariant is about the
        # observed training values
        observed = ~split.train.is_missing(name)
        column = train.features[observed, j]
        assert abs(column.mean()) < 1e-9
        assert abs(column.var() - 1.0) < 1e-9


def test_minmax_train_rows_in_unit_interval():
    table = generate_synthetic(400, seed=8)
    split = split_train_test(table, 0.7, seed=1)
    train = apply_plan(fit_plan(split.train, 0.6, scaling="minmax"), split.train)
    assert train.features.min() >= 0.0
    assert train.features.max() <= 1.0


def test_constant_column_scales_to_zero():
    table = _table(
        {"x": (NUMERIC, [2.0, 2.0, 2.0, 2.0]), "y": (NUMERIC, [1.0, 2.0, 3.0, 4.0]),
         "label": (TARGET, ["0", "1", "0", "1"])}
    )
    for mode in ("zscore", "minmax"):
        plan = fit_plan(table, 0.6, scaling=mode)
        matrix = apply_plan(plan, table)
        assert np.all(matrix.features[:, 0] == 0.0)
    # constant means max == min, even when an inexact mean leaves a tiny std
    train = _table({"x": (NUMERIC, [0.1, 0.1, 0.1]), "label": (TARGET, ["0", "1", "0"])})
    test = _table({"x": (NUMERIC, [0.2, 0.1, 0.0]), "label": (TARGET, ["0", "1", "0"])})
    for mode in ("zscore", "minmax"):
        plan = fit_plan(train, 0.6, scaling=mode)
        for rows in (train, test):
            assert np.all(apply_plan(plan, rows).features[:, 0] == 0.0)


def test_unseen_level_maps_to_missing_indicator():
    train = _table(
        {"major": (CATEGORICAL, ["CS", "EE", "CS"]), "label": (TARGET, ["0", "1", "0"])}
    )
    plan = fit_plan(train, 0.6)
    test = _table(
        {"major": (CATEGORICAL, ["ME", "CS", None]), "label": (TARGET, ["1", "0", "1"])},
        categories={"major": ("CS", "EE", "ME")},
    )
    matrix = apply_plan(plan, test)
    assert matrix.feature_names == ("major=CS", "major=EE", f"major={MISSING_LEVEL}")
    assert matrix.features[0].tolist() == [0.0, 0.0, 1.0]  # unseen level ME
    assert matrix.features[1].tolist() == [1.0, 0.0, 0.0]
    assert matrix.features[2].tolist() == [0.0, 0.0, 1.0]  # missing cell


def test_one_hot_groups_partition_each_row():
    table = generate_synthetic(300, seed=6)
    split = split_train_test(table, 0.75, seed=2)
    plan = fit_plan(split.train, 0.6, "minmax")
    train, test = apply_plan(plan, split.train), apply_plan(plan, split.test)
    for matrix in (train, test):
        for column in ("sex", "race_ethnicity", "first_major"):
            group = [j for j, n in enumerate(matrix.feature_names) if n.startswith(column + "=")]
            sums = matrix.features[:, group].sum(axis=1)
            assert np.all(sums == 1.0)


def test_numeric_missing_imputed_with_train_mean():
    train = _table(
        {"x": (NUMERIC, [1.0, 3.0]), "label": (TARGET, ["0", "1"])}
    )
    plan = fit_plan(train, 0.6, scaling="none")
    test = _table(
        {"x": (NUMERIC, [None, 10.0]), "label": (TARGET, ["0", "1"])}
    )
    matrix = apply_plan(plan, test)
    assert matrix.features[0, 0] == 2.0  # train mean
    assert matrix.features[1, 0] == 10.0


def test_identical_tables_identical_matrices():
    table = generate_synthetic(120, seed=3)
    plan = fit_plan(table, 0.6, "minmax")
    train, test = apply_plan(plan, table), apply_plan(plan, table)
    assert train.feature_names == test.feature_names
    assert np.array_equal(train.features, test.features)
    assert np.array_equal(train.labels, test.labels)


def test_take_by_indices_and_by_a_full_length_mask():
    matrix = make_design_matrix(np.arange(10.0).reshape(5, 2), ("a", "b"), [0, 1, 0, 1, 1])
    by_indices = matrix.take([3, 0])
    assert by_indices.features.tolist() == [[6.0, 7.0], [0.0, 1.0]]
    assert by_indices.labels.tolist() == [1, 0]
    by_mask = matrix.take(np.array([True, False, True, True, False]))
    assert by_mask.features[:, 0].tolist() == [0.0, 4.0, 6.0]
    assert by_mask.labels.tolist() == [0, 0, 1]


def test_take_rejects_a_mask_of_another_length():
    # as numpy and Table.take do: a short mask must not silently pick rows
    matrix = make_design_matrix(np.arange(10.0).reshape(5, 2), ("a", "b"), [0, 1, 0, 1, 1])
    for length in (4, 6):
        with pytest.raises(IndexError):
            matrix.take(np.ones(length, dtype=bool))


def test_plan_application_is_repeatable():
    table = generate_synthetic(200, seed=10)
    plan = fit_plan(table, 0.6, "minmax")
    a = apply_plan(plan, table)
    b = apply_plan(plan, table)
    assert np.array_equal(a.features, b.features)
    assert a.feature_names == b.feature_names


def test_apply_plan_rejects_missing_column():
    table = generate_synthetic(50, seed=1)
    plan = fit_plan(table, 0.6)
    smaller = _simple(10)
    with pytest.raises(PlanError):
        apply_plan(plan, smaller)


def test_fit_plan_validates_inputs():
    table = _simple(6)
    with pytest.raises(PlanError):
        fit_plan(table, -0.1)
    with pytest.raises(PlanError):
        fit_plan(table, 0.6, scaling="bogus")
    with pytest.raises(PlanError):
        fit_plan(generate_synthetic(0, seed=0), 0.6)


def test_labels_come_from_target_levels():
    table = _table(
        {"x": (NUMERIC, [1.0, 2.0, 3.0]), "label": (TARGET, ["no", "yes", "no"])}
    )
    matrix = apply_plan(fit_plan(table, 0.6), table)
    assert matrix.labels.tolist() == [0, 1, 0]


def test_derived_ratio_column():
    table = _table(
        {"a": (NUMERIC, [6.0, 9.0, None, 4.0]), "b": (NUMERIC, [2.0, 3.0, 1.0, 0.0]),
         "label": (TARGET, ["0", "1", "0", "1"])}
    )
    out = add_derived_column(table, "a_over_b", "ratio", "a", "b")
    assert out.column_schema("a_over_b").kind == NUMERIC
    assert out.columns["a_over_b"][0] == 3.0
    assert out.columns["a_over_b"][1] == 3.0
    assert out.is_missing("a_over_b").tolist() == [False, False, True, True]  # missing, div by 0
    diff = add_derived_column(table, "a_minus_b", "difference", "a", "b")
    assert diff.columns["a_minus_b"][1] == 6.0


def test_derived_column_validation():
    table = _simple(4)
    with pytest.raises(PlanError):
        add_derived_column(table, "x", "ratio", "x", "x")  # name collision
    with pytest.raises(PlanError):
        add_derived_column(table, "z", "power", "x", "x")
    cat = _table(
        {"m": (CATEGORICAL, ["a", "b"]), "label": (TARGET, ["0", "1"])}
    )
    with pytest.raises(PlanError):
        add_derived_column(cat, "z", "ratio", "m", "m")


def test_zscore_mean_unit_variance_examples_match_math():
    values = np.array([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0])
    table = _table(
        {"x": (NUMERIC, values.tolist()), "label": (TARGET, ["0", "1"] * 4)}
    )
    plan = fit_plan(table, 0.6, "zscore")
    assert plan.numeric_stats["x"]["mean"] == pytest.approx(5.0)
    assert plan.numeric_stats["x"]["std"] == pytest.approx(2.0)  # population
    matrix = apply_plan(plan, table)
    assert matrix.features[0, 0] == pytest.approx(-1.5)


@pytest.mark.parametrize("scaling, statistic", [("minmax", "range"), ("zscore", "std")])
def test_finite_extremes_that_overflow_a_scale_statistic_are_rejected(scaling, statistic):
    labels = (TARGET, ["0", "1", "0", "1"])
    table = _table({
        "ok": (NUMERIC, [0.0, 1.0, 2.0, 3.0]),
        "huge": (NUMERIC, [1.7e308, -1.7e308, 0.0, 1.0]),
        "label": labels,
    })
    with pytest.raises(PlanError, match=rf"'huge'.*{statistic}"):
        fit_plan(table, 0.6, scaling=scaling)
    # the same extremes are harmless when no scaling uses them
    plan = fit_plan(table, 0.6, scaling="none")
    assert plan.numeric_stats["huge"]["mean"] == 0.25


@pytest.mark.parametrize("scaling", ["minmax", "zscore", "none"])
def test_finite_extremes_that_overflow_the_imputation_mean_are_rejected(scaling):
    table = _table({
        "huge": (NUMERIC, [1.7e308, 1.7e308, None, 1.0]),
        "label": (TARGET, ["0", "1", "0", "1"]),
    })
    with pytest.raises(PlanError, match=r"'huge'.*mean"):
        fit_plan(table, 0.6, scaling=scaling)


def test_large_finite_range_still_scales_into_unit_interval():
    table = _table({
        "x": (NUMERIC, [1e300, -1e300, 0.0, 5e299]),
        "label": (TARGET, ["0", "1", "0", "1"]),
    })
    matrix = apply_plan(fit_plan(table, 0.6, scaling="minmax"), table)
    assert matrix.features[:, 0].tolist() == [1.0, 0.0, 0.5, 0.75]


def test_underflowed_zscore_std_is_rejected():
    table = _table({
        "tiny": (NUMERIC, [0.0, 1e-300, 2e-300, 1e-300]),
        "label": (TARGET, ["0", "1", "0", "1"]),
    })
    with pytest.raises(PlanError, match=r"'tiny'.*std underflows"):
        fit_plan(table, 0.6, scaling="zscore")
    fit_plan(table, 0.6, scaling="minmax")  # the range itself is positive


def test_non_finite_scaled_value_is_rejected():
    train = _table({
        "tiny": (NUMERIC, [0.0, 1e-300, 2e-300]),
        "label": (TARGET, ["0", "1", "0"]),
    })
    plan = fit_plan(train, 0.6, scaling="minmax")
    assert apply_plan(plan, train).features[:, 0].tolist() == [0.0, 0.5, 1.0]
    test = _table({
        "tiny": (NUMERIC, [1e-300, 1.7e308, -1.7e308]),
        "label": (TARGET, ["0", "1", "0"]),
    })
    with pytest.raises(PlanError, match=r"'tiny'.*row 1"):
        apply_plan(plan, test)
