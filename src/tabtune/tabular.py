"""Column-typed tabular data: CSV ingestion, row filtering, train/test
splitting, and a synthetic student-records generator for desk-scale runs.

Storage conventions: numeric cells are float64, categorical and target cells
are indices into the column's sorted level list. A missing cell is stored as
its column's sentinel, NaN in a numeric column and -1 in any other, and the
sentinel is the only record of it. ``Table.is_missing`` is the one rule that
decides missingness; callers mask with it, so no statistic sees a sentinel.
"""

from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass

import numpy as np

NUMERIC = "numeric"
CATEGORICAL = "categorical"
TARGET = "target"

#: Field contents treated as a missing cell on load.
MISSING_MARKERS = ("", "NA")

_DECIMAL_RE = re.compile(r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?\Z")


class CsvParseError(ValueError):
    """Malformed CSV content (ragged rows, missing header, non-finite numbers)."""


class SchemaError(ValueError):
    """Table content violates the schema contract."""


@dataclass(frozen=True)
class ColumnSchema:
    name: str
    kind: str
    categories: tuple[str, ...] = ()


@dataclass(frozen=True)
class Table:
    schema: tuple[ColumnSchema, ...]
    columns: dict[str, np.ndarray]

    @property
    def n_rows(self) -> int:
        return len(self.columns[self.schema[0].name])

    def column_schema(self, name: str) -> ColumnSchema:
        for col in self.schema:
            if col.name == name:
                return col
        raise SchemaError(f"unknown column {name!r}")

    def is_missing(self, name: str) -> np.ndarray:
        """Boolean mask of the column's missing cells (its sentinel cells)."""
        values = self.columns[name]
        return np.isnan(values) if self.column_schema(name).kind == NUMERIC else values == -1

    @property
    def target(self) -> ColumnSchema:
        return next(col for col in self.schema if col.kind == TARGET)

    def feature_schemas(self) -> tuple[ColumnSchema, ...]:
        return tuple(col for col in self.schema if col.kind != TARGET)

    def take(self, indices) -> "Table":
        """Row subset in the given order; schema is shared unchanged."""
        indices = np.asarray(indices)
        return make_table(self.schema, {name: col[indices] for name, col in self.columns.items()})


def make_table(schema, columns) -> Table:
    """Validate invariants, freeze the arrays, and assemble a Table."""
    schema = tuple(schema)
    targets = [col for col in schema if col.kind == TARGET]
    if len(targets) != 1:
        raise SchemaError(f"expected exactly one target column, found {len(targets)}")
    if len(targets[0].categories) != 2:
        raise SchemaError(
            f"target column {targets[0].name!r} must have exactly 2 categories, "
            f"found {len(targets[0].categories)}"
        )
    n_rows = None
    cols = {}
    for col in schema:
        if col.kind not in (NUMERIC, CATEGORICAL, TARGET):
            raise SchemaError(f"column {col.name!r}: unknown kind {col.kind!r}")
        if col.kind != NUMERIC:
            if list(col.categories) != sorted(set(col.categories)):
                raise SchemaError(f"column {col.name!r}: categories must be sorted and distinct")
        values = np.asarray(columns[col.name], dtype=float if col.kind == NUMERIC else np.int64)
        if n_rows is None:
            n_rows = len(values)
        if len(values) != n_rows:
            raise SchemaError(f"column {col.name!r}: length mismatch")
        if col.kind != NUMERIC and values.size and (
            values.min() < -1 or values.max() >= len(col.categories)
        ):
            raise SchemaError(f"column {col.name!r}: level index out of range")
        values.setflags(write=False)
        cols[col.name] = values
    return Table(schema=schema, columns=cols)


@dataclass(frozen=True)
class SplitPair:
    train: Table
    test: Table


def _is_decimal(text: str) -> bool:
    return bool(_DECIMAL_RE.fullmatch(text.strip()))


def load_csv(path, target_column: str) -> Table:
    """Load an RFC-4180-style CSV with a header row into a typed Table.

    A column is numeric iff every non-missing cell parses as a decimal
    number; anything else is categorical. Empty fields and the literal
    "NA" are missing. A numeric cell that overflows to infinity (``1e999``)
    raises CsvParseError naming its row and column; CSV the reader rejects
    (a field over ``csv.field_size_limit()``) raises CsvParseError naming the
    line. The target column must carry exactly two distinct values and no
    missing cells. Each column's kind and cell values are decided once per
    distinct cell text; the cells are then decoded by lookup.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
            raw_rows = []
            for row_number, row in enumerate(reader, start=1):
                if len(row) != len(header):
                    raise CsvParseError(
                        f"{path}: row {row_number} has {len(row)} fields, expected {len(header)}"
                    )
                raw_rows.append(row)
        except StopIteration:
            raise CsvParseError(f"{path}: empty file, header row required") from None
        except csv.Error as exc:
            raise CsvParseError(f"{path}: line {reader.line_num}: {exc}") from None
    if len(set(header)) != len(header):
        raise SchemaError(f"{path}: duplicate column names in header")
    if target_column not in header:
        raise SchemaError(f"{path}: target column {target_column!r} not in header")

    schema = []
    columns = {}
    for j, name in enumerate(header):
        raw = [row[j] for row in raw_rows]
        distinct = set(raw)
        present = distinct.difference(MISSING_MARKERS)
        is_target = name == target_column
        if is_target and len(present) != len(distinct):
            raise SchemaError(f"{path}: target column {name!r} has missing values")
        if not is_target and all(_is_decimal(cell) for cell in present):
            decode = {cell: float(cell) for cell in present}
            overflow = {cell for cell, value in decode.items() if math.isinf(value)}
            if overflow:
                row = next(i for i, cell in enumerate(raw) if cell in overflow)
                raise CsvParseError(
                    f"{path}: row {row + 1}, column {name!r}: {raw[row]!r} is not a finite number"
                )
            schema.append(ColumnSchema(name, NUMERIC))
            sentinel, dtype = math.nan, float
        else:
            levels = sorted(present)
            if is_target and len(levels) != 2:
                raise SchemaError(
                    f"{path}: target column {name!r} has {len(levels)} distinct values, expected 2"
                )
            decode = {level: i for i, level in enumerate(levels)}
            schema.append(ColumnSchema(name, TARGET if is_target else CATEGORICAL, tuple(levels)))
            sentinel, dtype = -1, np.int64
        decode.update(dict.fromkeys(MISSING_MARKERS, sentinel))
        columns[name] = np.fromiter(map(decode.__getitem__, raw), dtype=dtype, count=len(raw))
    return make_table(schema, columns)


def write_csv(table: Table, path) -> None:
    """Serialize back to CSV; missing cells become empty fields."""
    columns = [(col, table.columns[col.name], table.is_missing(col.name)) for col in table.schema]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([col.name for col in table.schema])
        for i in range(table.n_rows):
            writer.writerow(
                "" if missing[i] else repr(float(values[i])) if col.kind == NUMERIC
                else col.categories[values[i]]
                for col, values, missing in columns
            )


def filter_rows(table: Table, column: str, allowed) -> Table:
    """Keep rows whose categorical value is in ``allowed``, order preserved.

    Missing cells never match. Schema is unchanged.
    """
    col = table.column_schema(column)
    if col.kind == NUMERIC:
        raise SchemaError(f"column {column!r} is numeric, filtering needs a categorical column")
    allowed = set(allowed)
    keep_levels = [i for i, level in enumerate(col.categories) if level in allowed]
    return table.take(np.flatnonzero(np.isin(table.columns[column], keep_levels)))


def split_train_test(table: Table, train_fraction: float, seed: int) -> SplitPair:
    """Deterministic seeded shuffle split; train size rounds half up. A split
    that would leave either part empty raises ValueError."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must lie in (0, 1), got {train_fraction}")
    n_train = int(math.floor(train_fraction * table.n_rows + 0.5))
    if not 0 < n_train < table.n_rows:
        raise ValueError(
            f"train_fraction {train_fraction} of {table.n_rows} rows leaves "
            f"{n_train} train and {table.n_rows - n_train} test rows; both parts need a row"
        )
    perm = np.random.default_rng(seed).permutation(table.n_rows)
    return SplitPair(
        train=table.take(perm[:n_train]),
        test=table.take(perm[n_train:]),
    )


# Synthetic student records. The generative rule is fixed and documented in
# generate_synthetic; it imitates the shape of an institutional student file
# (demographics, major, enrollment load, graduation flag), not any real data.

_SEX_LEVELS = ("F", "M")
_SEX_P = (0.5, 0.5)
_RACE_LEVELS = ("asian", "black", "hispanic", "other", "white")
_RACE_P = (0.12, 0.14, 0.20, 0.09, 0.45)
_MAJOR_LEVELS = ("CE", "CS", "IT", "SE")
_MAJOR_P = (0.20, 0.45, 0.15, 0.20)
_MAJOR_BOOST = {"CE": 0.10, "CS": 0.20, "IT": -0.10, "SE": 0.0}
_TARGET_LEVELS = ("no", "yes")
_MISSING_RATE = 0.02

#: Most rows ``generate_synthetic`` makes (the config schema's
#: ``data.synthetic.rows`` maximum repeats it): a larger table is an input
#: error, not a request for gigabytes of memory.
MAX_SYNTHETIC_ROWS = 1_000_000


def synthetic_schema() -> tuple[ColumnSchema, ...]:
    return (
        ColumnSchema("entry_gpa", NUMERIC),
        ColumnSchema("credits_attempted", NUMERIC),
        ColumnSchema("age", NUMERIC),
        ColumnSchema("sex", CATEGORICAL, _SEX_LEVELS),
        ColumnSchema("race_ethnicity", CATEGORICAL, _RACE_LEVELS),
        ColumnSchema("first_major", CATEGORICAL, _MAJOR_LEVELS),
        ColumnSchema("graduated", TARGET, _TARGET_LEVELS),
    )


def generate_synthetic(n_rows: int, seed: int, positive_rate: float = 0.5) -> Table:
    """Generate a student-record-shaped table with a learnable label.

    Generative rule (fixed): draw demographics and enrollment features, form
    the latent score

        1.5*(entry_gpa - 3.0) + 0.05*(credits_attempted - 30)
        - 0.12*(age - 18.6) + major_boost + N(0, 0.9)

    and mark ``graduated = yes`` for the rows whose score reaches the
    empirical (1 - positive_rate) quantile, so the observed label frequency
    tracks ``positive_rate``. Afterwards roughly 2% of feature cells are
    masked missing. Deterministic per (n_rows, seed, positive_rate).
    """
    if n_rows < 0:
        raise ValueError("n_rows must be non-negative")
    if n_rows > MAX_SYNTHETIC_ROWS:
        raise ValueError(f"n_rows must be at most {MAX_SYNTHETIC_ROWS}, got {n_rows}")
    if not 0.0 < positive_rate < 1.0:
        raise ValueError(f"positive_rate must lie in (0, 1), got {positive_rate}")
    schema = synthetic_schema()
    rng = np.random.default_rng(seed)
    gpa = np.clip(rng.normal(3.0, 0.45, n_rows), 1.5, 4.0)
    credits = np.clip(rng.normal(30.0, 7.0, n_rows), 6.0, 48.0)
    age = np.clip(rng.normal(18.6, 1.8, n_rows), 16.0, 35.0)
    sex = rng.choice(len(_SEX_LEVELS), n_rows, p=_SEX_P).astype(np.int64)
    race = rng.choice(len(_RACE_LEVELS), n_rows, p=_RACE_P).astype(np.int64)
    major = rng.choice(len(_MAJOR_LEVELS), n_rows, p=_MAJOR_P).astype(np.int64)

    boost = np.array([_MAJOR_BOOST[level] for level in _MAJOR_LEVELS])[major]
    score = (
        1.5 * (gpa - 3.0)
        + 0.05 * (credits - 30.0)
        - 0.12 * (age - 18.6)
        + boost
        + rng.normal(0.0, 0.9, n_rows)
    )
    threshold = np.quantile(score, 1.0 - positive_rate) if n_rows else 0.0
    graduated = (score >= threshold).astype(np.int64)

    columns = {
        "entry_gpa": gpa,
        "credits_attempted": credits,
        "age": age,
        "sex": sex,
        "race_ethnicity": race,
        "first_major": major,
        "graduated": graduated,
    }
    features = [col for col in schema if col.kind != TARGET]
    miss = rng.random((n_rows, len(features))) < _MISSING_RATE
    for j, col in enumerate(features):
        columns[col.name][miss[:, j]] = math.nan if col.kind == NUMERIC else -1
    return make_table(schema, columns)
