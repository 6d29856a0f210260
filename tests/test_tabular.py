import csv
from pathlib import Path

import numpy as np
import pytest
from oracles import reference_load_csv

from tabtune.preprocess import add_derived_column
from tabtune.tabular import (
    CATEGORICAL,
    NUMERIC,
    TARGET,
    ColumnSchema,
    CsvParseError,
    SchemaError,
    filter_rows,
    generate_synthetic,
    load_csv,
    make_table,
    split_train_test,
    write_csv,
)

FIXTURES = Path(__file__).parent / "fixtures"


def _write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def _tables_equal(a, b):
    if a.schema != b.schema or a.n_rows != b.n_rows:
        return False
    for col in a.schema:
        if not np.array_equal(a.is_missing(col.name), b.is_missing(col.name)):
            return False
        keep = ~a.is_missing(col.name)
        if not np.array_equal(a.columns[col.name][keep], b.columns[col.name][keep]):
            return False
    return True


def test_load_csv_infers_kinds_and_missing(tmp_path):
    path = _write(tmp_path, "gpa,major,grad\n3.5,CS,1\n,EE,0\n")
    table = load_csv(path, target_column="grad")
    kinds = {c.name: c.kind for c in table.schema}
    assert kinds == {"gpa": NUMERIC, "major": CATEGORICAL, "grad": TARGET}
    assert table.column_schema("major").categories == ("CS", "EE")
    assert table.column_schema("grad").categories == ("0", "1")
    assert table.is_missing("gpa").tolist() == [False, True]
    assert table.columns["gpa"][0] == 3.5
    assert table.columns["grad"].tolist() == [1, 0]


def test_load_csv_ragged_row_cites_row_number(tmp_path):
    path = _write(tmp_path, "a,b,c\n1,2,3\n1,2\n")
    with pytest.raises(CsvParseError, match="row 2"):
        load_csv(path, target_column="c")


def test_load_csv_nonbinary_target_rejected(tmp_path):
    path = _write(tmp_path, "x,y\n1,0\n2,1\n3,2\n")
    with pytest.raises(SchemaError, match="expected 2"):
        load_csv(path, target_column="y")


def test_load_csv_missing_file(tmp_path):
    with pytest.raises(OSError):
        load_csv(tmp_path / "absent.csv", target_column="y")


def test_load_csv_missing_target_cell_rejected(tmp_path):
    path = _write(tmp_path, "x,y\n1,0\n2,\n3,1\n")
    with pytest.raises(SchemaError, match="missing"):
        load_csv(path, target_column="y")


def test_load_csv_nan_string_is_categorical(tmp_path):
    # "nan"/"inf" parse as float() but are not decimal numbers
    path = _write(tmp_path, "x,y\nnan,0\ninf,1\n")
    table = load_csv(path, target_column="y")
    assert table.column_schema("x").kind == CATEGORICAL
    assert table.column_schema("x").categories == ("inf", "nan")


def test_filter_rows_keeps_matching(tmp_path):
    path = _write(tmp_path, "major,grad\nCS,1\nCS,0\nEE,1\nME,0\n")
    table = load_csv(path, target_column="grad")
    out = filter_rows(table, "major", {"CS"})
    assert out.n_rows == 2
    levels = out.column_schema("major").categories
    assert [levels[code] for code in out.columns["major"]] == ["CS", "CS"]
    assert out.columns["grad"].tolist() == [1, 0]


def test_filter_rows_empty_allowed(tmp_path):
    path = _write(tmp_path, "major,grad\nCS,1\nEE,0\n")
    table = load_csv(path, target_column="grad")
    out = filter_rows(table, "major", set())
    assert out.n_rows == 0
    assert out.schema == table.schema


def test_filter_rows_all_levels_is_identity():
    table = generate_synthetic(200, seed=5)
    levels = table.column_schema("first_major").categories
    out = filter_rows(table, "first_major", set(levels))
    # rows with a missing major are dropped, everything else is kept in order
    kept = ~table.is_missing("first_major")
    assert out.n_rows == int(kept.sum())
    assert _tables_equal(out, table.take(np.flatnonzero(kept)))


def test_filter_rows_identity_when_nothing_missing(tmp_path):
    path = _write(tmp_path, "major,grad\nCS,1\nEE,0\nME,1\n")
    table = load_csv(path, target_column="grad")
    out = filter_rows(table, "major", {"CS", "EE", "ME"})
    assert _tables_equal(out, table)


def test_filter_rows_rejects_numeric_column():
    table = generate_synthetic(10, seed=1)
    with pytest.raises(SchemaError):
        filter_rows(table, "entry_gpa", {"3.5"})
    with pytest.raises(SchemaError):
        filter_rows(table, "nope", {"x"})


def test_split_sizes_and_rounding():
    table = generate_synthetic(100, seed=2)
    pair = split_train_test(table, 0.75, seed=9)
    assert pair.train.n_rows == 75
    assert pair.test.n_rows == 25
    # round half up: 0.305 * 10 rows -> 3.05 -> 3
    small = generate_synthetic(10, seed=2)
    assert split_train_test(small, 0.305, seed=0).train.n_rows == 3
    assert split_train_test(small, 0.35, seed=0).train.n_rows == 4  # 3.5 rounds up


def test_split_deterministic():
    table = generate_synthetic(60, seed=3)
    a = split_train_test(table, 0.6, seed=42)
    b = split_train_test(table, 0.6, seed=42)
    assert _tables_equal(a.train, b.train)
    assert _tables_equal(a.test, b.test)
    c = split_train_test(table, 0.6, seed=43)
    assert not _tables_equal(a.train, c.train)


def test_split_rejects_bad_fraction_and_tiny_tables():
    table = generate_synthetic(10, seed=0)
    with pytest.raises(ValueError):
        split_train_test(table, 1.0, seed=0)
    with pytest.raises(ValueError):
        split_train_test(table, 0.0, seed=0)
    with pytest.raises(ValueError):
        split_train_test(generate_synthetic(0, seed=0), 0.5, seed=0)


def test_split_partitions_rows():
    from collections import Counter

    table = generate_synthetic(83, seed=11)
    pair = split_train_test(table, 0.4, seed=5)
    def rows(part):  # each row's cells as bytes; a missing cell keeps its sentinel's bits
        cells = np.column_stack([part.columns[col.name].astype(float) for col in part.schema])
        return Counter(row.tobytes() for row in cells)

    assert rows(pair.train) + rows(pair.test) == rows(table)


def test_csv_round_trip(tmp_path):
    table = generate_synthetic(150, seed=21, positive_rate=0.4)
    first = tmp_path / "first.csv"
    write_csv(table, first)
    loaded = load_csv(first, target_column="graduated")
    second = tmp_path / "second.csv"
    write_csv(loaded, second)
    reloaded = load_csv(second, target_column="graduated")
    assert _tables_equal(loaded, reloaded)
    assert loaded.schema == table.schema
    assert _tables_equal(loaded, table)


def test_synthetic_empty_table():
    table = generate_synthetic(0, seed=0)
    assert table.n_rows == 0
    assert len(table.schema) == 7


def test_synthetic_label_frequency_tracks_positive_rate():
    table = generate_synthetic(10_000, seed=13, positive_rate=0.6)
    frequency = table.columns["graduated"].mean()
    assert abs(frequency - 0.6) < 0.03


def test_synthetic_deterministic():
    a = generate_synthetic(500, seed=99, positive_rate=0.5)
    b = generate_synthetic(500, seed=99, positive_rate=0.5)
    assert _tables_equal(a, b)


def test_synthetic_has_some_missing_cells():
    table = generate_synthetic(2000, seed=4)
    total = sum(table.is_missing(c.name).sum() for c in table.feature_schemas())
    rate = total / (2000 * 6)
    assert 0.005 < rate < 0.05
    assert not table.is_missing("graduated").any()


def test_synthetic_rejects_bad_positive_rate():
    with pytest.raises(ValueError):
        generate_synthetic(10, seed=0, positive_rate=0.0)
    with pytest.raises(ValueError):
        generate_synthetic(-1, seed=0)


def _assert_loads_like_reference(path, target):
    """Same schema and cells bit for bit (NaN included), or the same error
    type and message, as the cell-by-cell reference decoder."""
    try:
        schema, columns = reference_load_csv(path, target)
    except ValueError as expected:
        with pytest.raises(ValueError) as got:
            load_csv(path, target)
        assert type(got.value) is type(expected)
        assert str(got.value) == str(expected)
        return
    table = load_csv(path, target)
    assert table.schema == schema
    assert table.n_rows == len(columns[schema[0].name])
    for col in schema:
        assert table.columns[col.name].dtype == columns[col.name].dtype
        assert table.columns[col.name].tobytes() == columns[col.name].tobytes()


_CSV_CASES = {
    "empty_and_na_cells": "a,b,y\n1.5,CS,0\n,NA,1\nNA,,0\n2,EE,1\n",
    "decimal_spellings": "a,b,y\n 1.5 ,-0,0\n+.5,0,1\n1e5,-0.0,0\n1E-5,+0,1\n",
    "one_word_in_a_decimal_column": "a,y\n1.5,0\n2,1\nx,0\n,1\n",
    "all_missing_column": "a,b,y\n,NA,0\nNA,,1\n,,0\n",
    "header_only": "a,y\n",
    "header_only_target_first": "y,a\n",
    "overflow_in_two_rows": "a,b,y\n1,2,0\n3,1e999,1\n5,-1e999,0\n",
    "overflow_in_two_columns": "a,b,y\n1,2,0\n3,1e999,1\n1e999,6,0\n",
    "nan_and_inf_strings": "a,b,y\nnan,1,0\ninf,NaN,1\n1.0,2,0\n",
    "ragged_row": "a,y\n1,0\n2\n",
    "duplicate_header": "a,a,y\n1,2,0\n",
    "target_absent": "a,b\n1,2\n",
    "target_cell_missing": "a,y\n1,0\n2,NA\n3,1\n",
    "target_not_binary": "a,y\n1,0\n2,1\n3,2\n",
    "numeric_target_stays_categorical": "a,y\n1,1.0\n2,2.5\n",
    "empty_file": "",
}


@pytest.mark.parametrize("case", sorted(_CSV_CASES))
def test_load_csv_equals_the_cell_by_cell_decoder(tmp_path, case):
    _assert_loads_like_reference(_write(tmp_path, _CSV_CASES[case]), "y")


def test_load_csv_equals_the_cell_by_cell_decoder_on_real_files(tmp_path):
    _assert_loads_like_reference(FIXTURES / "students_500.csv", "graduated")
    path = tmp_path / "synthetic.csv"
    write_csv(generate_synthetic(700, seed=17, positive_rate=0.3), path)
    _assert_loads_like_reference(path, "graduated")


def test_load_csv_overflow_names_the_first_row_and_its_column(tmp_path):
    path = _write(tmp_path, _CSV_CASES["overflow_in_two_rows"])
    with pytest.raises(CsvParseError, match=r"row 2, column 'b': '1e999'"):
        load_csv(path, "y")


def _assert_sentinels(table, expected_missing=None):
    """The sentinel is the only record of a missing cell: NaN or -1 exactly
    where a cell is missing (``expected_missing`` when given), valid values
    everywhere else."""
    for col in table.schema:
        values = table.columns[col.name]
        missing = table.is_missing(col.name)
        assert not values.flags.writeable
        if expected_missing is not None:
            assert missing.tolist() == list(expected_missing[col.name]), col.name
        if col.kind == NUMERIC:
            assert values.dtype == np.float64
            assert np.isnan(values).tolist() == missing.tolist()
            assert np.isfinite(values[~missing]).all()
        else:
            assert values.dtype == np.int64
            assert (values == -1).tolist() == missing.tolist()
            assert ((values[~missing] >= 0) & (values[~missing] < len(col.categories))).all()
    assert not table.is_missing(table.target.name).any()


def test_every_constructor_keeps_the_sentinel_invariant(tmp_path):
    # load_csv: missing exactly where the raw cell is empty or NA
    table = generate_synthetic(400, seed=23)
    path = tmp_path / "students.csv"
    write_csv(table, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[3] = lines[3].replace(",M,", ",NA,").replace(",F,", ",NA,")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = list(csv.reader(fh))
    loaded = load_csv(path, "graduated")
    raw_missing = {name: [row[j] in ("", "NA") for row in rows] for j, name in enumerate(header)}
    assert raw_missing["sex"][2] and any(any(v) for v in raw_missing.values())
    _assert_sentinels(loaded, raw_missing)

    _assert_sentinels(table)
    assert 0 < sum(table.is_missing(c.name).sum() for c in table.feature_schemas())

    def masks(source, rows):
        return {c.name: source.is_missing(c.name)[rows] for c in source.schema}

    rows = np.array([5, 0, 0, 399, 17])
    _assert_sentinels(loaded.take(rows), masks(loaded, rows))
    _assert_sentinels(loaded.take(rows[:0]), masks(loaded, rows[:0]))

    kept = filter_rows(loaded, "first_major", {"CS", "SE"})
    levels = loaded.column_schema("first_major").categories
    majors = [levels[i] if i >= 0 else None for i in loaded.columns["first_major"]]
    _assert_sentinels(kept, masks(loaded, [i for i, m in enumerate(majors) if m in ("CS", "SE")]))
    assert not kept.is_missing("first_major").any()

    split = split_train_test(loaded, 0.7, seed=4)
    perm = np.random.default_rng(4).permutation(loaded.n_rows)
    _assert_sentinels(split.train, masks(loaded, perm[:280]))
    _assert_sentinels(split.test, masks(loaded, perm[280:]))

    gpa = loaded.columns["entry_gpa"]
    credits = np.array(loaded.columns["credits_attempted"])
    credits[[1, 2, 8]] = 0.0
    zeros = make_table(loaded.schema, {**loaded.columns, "credits_attempted": credits})
    expected = masks(zeros, slice(None))
    for kind, name in (("ratio", "gpa_per_credit"), ("difference", "gpa_less_credits")):
        derived = add_derived_column(zeros, name, kind, "entry_gpa", "credits_attempted")
        expected[name] = np.isnan(gpa) | np.isnan(credits) | ((credits == 0) & (kind == "ratio"))
        _assert_sentinels(derived, expected)
        del expected[name]


def test_make_table_accepts_only_level_codes_and_the_missing_code():
    schema = (ColumnSchema("m", CATEGORICAL, ("a", "b")), ColumnSchema("y", TARGET, ("0", "1")))
    table = make_table(schema, {"m": [-1, 0, 1], "y": [0, 1, 0]})
    assert table.is_missing("m").tolist() == [True, False, False]
    assert table.columns["m"].tolist() == [-1, 0, 1]
    for bad in (-2, 2):
        with pytest.raises(SchemaError, match="'m': level index out of range"):
            make_table(schema, {"m": [bad, 0, 1], "y": [0, 1, 0]})
    with pytest.raises(SchemaError, match="'y': length mismatch"):
        make_table(schema, {"m": [0, 1], "y": [0, 1, 0]})


@pytest.mark.parametrize("fraction, sizes", [(0.95, "9 train and 0 test"),
                                             (0.01, "0 train and 9 test")])
def test_split_that_leaves_a_part_empty_is_rejected(fraction, sizes):
    table = generate_synthetic(9, seed=0)
    with pytest.raises(ValueError, match=rf"{fraction} of 9 rows leaves {sizes} rows"):
        split_train_test(table, fraction, seed=0)
    one_each = split_train_test(generate_synthetic(2, seed=0), 0.5, seed=0)
    assert (one_each.train.n_rows, one_each.test.n_rows) == (1, 1)
