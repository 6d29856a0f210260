"""Run configuration: JSON parsing and validation with field-path errors.

Relative paths in the config resolve against the config file's directory.
The normalized form (``RunConfig.echo()``) uses absolute paths so a report's
embedded config can reproduce the run from any working directory.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .classifiers import FAMILIES
from .hpspace import SearchSpace, space_from_config
from .preprocess import DERIVED_KINDS, SCALING_MODES


class ConfigError(ValueError):
    """Invalid run configuration; the message names the offending field."""


def _fail(field_path: str, message: str):
    raise ConfigError(f"config field '{field_path}': {message}")


def _check_fields(section, field_path, fields):
    """Reject keys the schema does not allow (``additionalProperties: false``)."""
    for key in section:
        if key not in fields:
            _fail(f"{field_path}.{key}" if field_path else key,
                  f"unknown field, expected one of {sorted(fields)}")


def _get_object(doc, key, field_path, required=False, fields=None):
    value = doc.get(key)
    if value is None:
        if required:
            _fail(field_path, "required section is missing")
        return {}
    if not isinstance(value, dict):
        _fail(field_path, f"expected an object, got {type(value).__name__}")
    if fields is not None:
        _check_fields(value, field_path, fields)
    return value


def _get_number(section, key, field_path, default=None, lo=None, hi=None,
                integer=False, exclusive=False):
    value = section.get(key, default)
    if value is None:
        _fail(field_path, "required value is missing")
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(field_path, f"expected a number, got {value!r}")
    if integer:
        if float(value) != int(value):
            _fail(field_path, f"expected an integer, got {value!r}")
        value = int(value)
    if lo is not None:
        ok = value > lo if exclusive else value >= lo
        if not ok:
            _fail(field_path, f"{value} below minimum {lo}")
    if hi is not None:
        ok = value < hi if exclusive else value <= hi
        if not ok:
            _fail(field_path, f"{value} above maximum {hi}")
    return value


def _get_string(section, key, field_path, default=None, required=False):
    value = section.get(key, default)
    if value is None:
        if required:
            _fail(field_path, "required value is missing")
        return None
    if not isinstance(value, str):
        _fail(field_path, f"expected a string, got {value!r}")
    return value


@dataclass
class RunConfig:
    source: dict
    missing_threshold: float
    scaling: str
    derived: dict | None
    train_fraction: float
    split_seed: int
    families: tuple[str, ...]
    spaces: dict[str, SearchSpace]
    spaces_raw: dict
    k: int
    rs_budget: int | None
    fold_seed: int
    search_seed: int
    workers: int
    report_path: Path
    table_path: Path
    chart_path: Path
    references: dict = field(default_factory=dict)

    def echo(self) -> dict:
        """Normalized config document; feeding it back reproduces the run.

        Execution knobs that provably cannot change results (the worker
        count) are deliberately not part of the snapshot.
        """
        return {
            "data": self.source,
            "preprocess": {
                "missing_threshold": self.missing_threshold,
                "scaling": self.scaling,
                **({"derived": self.derived} if self.derived else {}),
            },
            "split": {"train_fraction": self.train_fraction, "seed": self.split_seed},
            "tuner": {
                "families": list(self.families),
                "spaces": self.spaces_raw,
                "k": self.k,
                "rs_budget": self.rs_budget,
                "fold_seed": self.fold_seed,
                "search_seed": self.search_seed,
            },
            "output": {
                "report": str(self.report_path),
                "table": str(self.table_path),
                "chart": str(self.chart_path),
            },
            "references": self.references,
        }


def load_run_config(path) -> RunConfig:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be an object")
    return parse_run_config(doc, base_dir=path.parent)


def parse_run_config(doc: dict, base_dir) -> RunConfig:
    base_dir = Path(base_dir)
    _check_fields(doc, "", ("data", "preprocess", "split", "tuner", "output", "references"))

    def resolve(p: str) -> Path:
        p = Path(p)
        return p if p.is_absolute() else (base_dir / p).resolve()

    data = _get_object(doc, "data", "data", required=True, fields=("csv", "synthetic"))
    has_csv = "csv" in data
    has_synth = "synthetic" in data
    if has_csv == has_synth:
        _fail("data", "exactly one of 'csv' or 'synthetic' must be given")
    if has_csv:
        csv_section = _get_object(data, "csv", "data.csv", required=True,
                                  fields=("path", "target", "filter"))
        csv_path = resolve(_get_string(csv_section, "path", "data.csv.path", required=True))
        target = _get_string(csv_section, "target", "data.csv.target", required=True)
        source = {"csv": {"path": str(csv_path), "target": target}}
        if "filter" in csv_section:
            filt = _get_object(csv_section, "filter", "data.csv.filter", required=True,
                               fields=("column", "allowed"))
            column = _get_string(filt, "column", "data.csv.filter.column", required=True)
            allowed = filt.get("allowed")
            if not isinstance(allowed, list) or not all(isinstance(a, str) for a in allowed):
                _fail("data.csv.filter.allowed", "expected a list of strings")
            source["csv"]["filter"] = {"column": column, "allowed": allowed}
    else:
        synth = _get_object(data, "synthetic", "data.synthetic", required=True,
                            fields=("rows", "seed", "positive_rate"))
        rows = _get_number(synth, "rows", "data.synthetic.rows", lo=2, integer=True)
        seed = _get_number(synth, "seed", "data.synthetic.seed", default=0, lo=0, integer=True)
        positive_rate = _get_number(
            synth, "positive_rate", "data.synthetic.positive_rate",
            default=0.5, lo=0.0, hi=1.0, exclusive=True,
        )
        source = {"synthetic": {"rows": rows, "seed": seed, "positive_rate": positive_rate}}

    pre = _get_object(doc, "preprocess", "preprocess",
                      fields=("missing_threshold", "scaling", "derived"))
    missing_threshold = _get_number(
        pre, "missing_threshold", "preprocess.missing_threshold", default=0.6, lo=0.0, hi=1.0
    )
    scaling = _get_string(pre, "scaling", "preprocess.scaling", default="minmax")
    if scaling not in SCALING_MODES:
        _fail("preprocess.scaling", f"{scaling!r} not one of {list(SCALING_MODES)}")
    derived = None
    if "derived" in pre:
        d = _get_object(pre, "derived", "preprocess.derived", required=True,
                        fields=("name", "kind", "left", "right"))
        kind = _get_string(d, "kind", "preprocess.derived.kind", required=True)
        if kind not in DERIVED_KINDS:
            _fail("preprocess.derived.kind", f"{kind!r} not one of {list(DERIVED_KINDS)}")
        derived = {
            "name": _get_string(d, "name", "preprocess.derived.name", required=True),
            "kind": kind,
            "left": _get_string(d, "left", "preprocess.derived.left", required=True),
            "right": _get_string(d, "right", "preprocess.derived.right", required=True),
        }

    split = _get_object(doc, "split", "split", fields=("train_fraction", "seed"))
    train_fraction = _get_number(
        split, "train_fraction", "split.train_fraction",
        default=0.75, lo=0.0, hi=1.0, exclusive=True,
    )
    split_seed = _get_number(split, "seed", "split.seed", default=0, lo=0, integer=True)

    tuner = _get_object(doc, "tuner", "tuner", fields=(
        "families", "spaces", "k", "rs_budget", "fold_seed", "search_seed", "workers"))
    families_raw = tuner.get("families", list(FAMILIES))
    if not isinstance(families_raw, list) or not families_raw:
        _fail("tuner.families", "expected a non-empty list of family names")
    for i, family in enumerate(families_raw):
        if family not in FAMILIES:
            _fail(f"tuner.families[{i}]", f"unknown family {family!r}, expected one of {list(FAMILIES)}")
    if len(set(families_raw)) != len(families_raw):
        _fail("tuner.families", "family names must be unique")
    families = tuple(families_raw)

    spaces_raw = _get_object(tuner, "spaces", "tuner.spaces")
    spaces = {}
    for family, mapping in spaces_raw.items():
        if not isinstance(mapping, dict):
            _fail(f"tuner.spaces.{family}", "expected an object of parameter ranges")
        try:
            spaces[family] = space_from_config(family, mapping)
        except ValueError as exc:
            _fail(f"tuner.spaces.{family}", str(exc))

    k = _get_number(tuner, "k", "tuner.k", default=3, lo=2, integer=True)
    rs_budget = None
    if tuner.get("rs_budget") is not None:
        rs_budget = _get_number(tuner, "rs_budget", "tuner.rs_budget", lo=1, integer=True)
    fold_seed = _get_number(tuner, "fold_seed", "tuner.fold_seed", default=0, lo=0, integer=True)
    search_seed = _get_number(
        tuner, "search_seed", "tuner.search_seed", default=0, lo=0, integer=True
    )
    workers = _get_number(tuner, "workers", "tuner.workers", default=1, lo=1, integer=True)

    output = _get_object(doc, "output", "output", required=True,
                         fields=("report", "table", "chart"))
    report_path = resolve(_get_string(output, "report", "output.report", required=True))
    table_default = str(report_path.with_suffix(".md"))
    chart_default = str(report_path.with_suffix(".svg"))
    table_path = resolve(_get_string(output, "table", "output.table", default=table_default))
    chart_path = resolve(_get_string(output, "chart", "output.chart", default=chart_default))

    references = _get_object(doc, "references", "references")
    for label, mapping in references.items():
        if not isinstance(mapping, dict):
            _fail(f"references.{label}", "expected an object of family -> percent")
        for family, value in mapping.items():
            if family not in FAMILIES:
                _fail(f"references.{label}.{family}", f"unknown family {family!r}")
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                _fail(f"references.{label}.{family}", f"expected a number, got {value!r}")

    return RunConfig(
        source=source,
        missing_threshold=missing_threshold,
        scaling=scaling,
        derived=derived,
        train_fraction=train_fraction,
        split_seed=split_seed,
        families=families,
        spaces=spaces,
        spaces_raw=spaces_raw,
        k=k,
        rs_budget=rs_budget,
        fold_seed=fold_seed,
        search_seed=search_seed,
        workers=workers,
        report_path=report_path,
        table_path=table_path,
        chart_path=chart_path,
        references=references,
    )
