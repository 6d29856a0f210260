"""Run configuration: JSON parsing and validation with field-path errors.

Relative paths in the config resolve against the config file's directory.
The normalized form (``RunConfig``) uses absolute paths so a report's
embedded config (``RunConfig.echo()``) can reproduce the run from any
working directory.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from .classifiers import FAMILIES
from .hpspace import SearchSpace, grid_size, space_from_config
from .preprocess import DERIVED_KINDS, SCALING_MODES


#: Most configs one search may evaluate: a larger grid or ``rs_budget`` is a
#: config error, because a search builds its whole config list before the
#: first trial.
MAX_SEARCH_CONFIGS = 100_000


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
    """The normalized config document: the six top-level sections with
    defaults filled in and paths absolute, plus the parsed SearchSpace of
    each family under ``tuner.spaces``."""

    data: dict
    preprocess: dict
    split: dict
    tuner: dict
    output: dict
    references: dict
    spaces: dict[str, SearchSpace]

    def echo(self) -> dict:
        """The document without the worker count; feeding it back reproduces
        the run, because the worker count provably cannot change results."""
        return {
            "data": self.data,
            "preprocess": self.preprocess,
            "split": self.split,
            "tuner": {key: value for key, value in self.tuner.items() if key != "workers"},
            "output": self.output,
            "references": self.references,
        }


def _finite_number(text):
    """A JSON number token as a float; NaN, Infinity, -Infinity and literals
    that overflow (1e999), which json.loads accepts but JSON has not, raise."""
    value = float(text)
    if not math.isfinite(value):
        raise ConfigError(f"non-finite number {text} (JSON numbers must be finite)")
    return value


def load_run_config(path) -> RunConfig:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        doc = json.loads(text, parse_constant=_finite_number, parse_float=_finite_number)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be an object")
    return parse_run_config(doc, base_dir=path.parent)


def parse_run_config(doc: dict, base_dir) -> RunConfig:
    base_dir = Path(base_dir)
    _check_fields(doc, "", ("data", "preprocess", "split", "tuner", "output", "references"))

    def get_path(section, key, field_path, default=None) -> str:
        p = _get_string(section, key, field_path, default=default, required=True)
        if "\0" in p:  # no file system accepts it; open() would raise ValueError
            _fail(field_path, "path contains a NUL character")
        p = Path(p)
        return str(p if p.is_absolute() else (base_dir / p).resolve())

    data = _get_object(doc, "data", "data", required=True, fields=("csv", "synthetic"))
    has_csv = "csv" in data
    has_synth = "synthetic" in data
    if has_csv == has_synth:
        _fail("data", "exactly one of 'csv' or 'synthetic' must be given")
    if has_csv:
        csv_section = _get_object(data, "csv", "data.csv", required=True,
                                  fields=("path", "target", "filter"))
        csv_path = get_path(csv_section, "path", "data.csv.path")
        target = _get_string(csv_section, "target", "data.csv.target", required=True)
        source = {"csv": {"path": csv_path, "target": target}}
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
    preprocess = {"missing_threshold": missing_threshold, "scaling": scaling}
    if "derived" in pre:
        d = _get_object(pre, "derived", "preprocess.derived", required=True,
                        fields=("name", "kind", "left", "right"))
        kind = _get_string(d, "kind", "preprocess.derived.kind", required=True)
        if kind not in DERIVED_KINDS:
            _fail("preprocess.derived.kind", f"{kind!r} not one of {list(DERIVED_KINDS)}")
        preprocess["derived"] = {
            "name": _get_string(d, "name", "preprocess.derived.name", required=True),
            "kind": kind,
            "left": _get_string(d, "left", "preprocess.derived.left", required=True),
            "right": _get_string(d, "right", "preprocess.derived.right", required=True),
        }

    split = _get_object(doc, "split", "split", fields=("train_fraction", "seed"))
    split = {
        "train_fraction": _get_number(
            split, "train_fraction", "split.train_fraction",
            default=0.75, lo=0.0, hi=1.0, exclusive=True,
        ),
        "seed": _get_number(split, "seed", "split.seed", default=0, lo=0, integer=True),
    }

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

    spaces_raw = _get_object(tuner, "spaces", "tuner.spaces")
    spaces = {}
    for family, mapping in spaces_raw.items():
        if not isinstance(mapping, dict):
            _fail(f"tuner.spaces.{family}", "expected an object of parameter ranges")
        try:
            spaces[family] = space_from_config(family, mapping)
        except ValueError as exc:
            _fail(f"tuner.spaces.{family}", str(exc))
        try:
            size = grid_size(spaces[family])
        except OverflowError:  # a step so small that (hi - lo) / step is infinite
            size = math.inf
        if size > MAX_SEARCH_CONFIGS:
            _fail(f"tuner.spaces.{family}",
                  f"grid has {size} configs, more than the maximum {MAX_SEARCH_CONFIGS}")

    tuner = {
        "families": list(families_raw),
        "spaces": spaces_raw,
        "k": _get_number(tuner, "k", "tuner.k", default=3, lo=2, integer=True),
        "rs_budget": None if tuner.get("rs_budget") is None else _get_number(
            tuner, "rs_budget", "tuner.rs_budget", lo=1, hi=MAX_SEARCH_CONFIGS, integer=True
        ),
        "fold_seed": _get_number(
            tuner, "fold_seed", "tuner.fold_seed", default=0, lo=0, integer=True
        ),
        "search_seed": _get_number(
            tuner, "search_seed", "tuner.search_seed", default=0, lo=0, integer=True
        ),
        "workers": _get_number(tuner, "workers", "tuner.workers", default=1, lo=1, integer=True),
    }

    output = _get_object(doc, "output", "output", required=True,
                         fields=("report", "table", "chart"))
    report_path = get_path(output, "report", "output.report")
    output = {
        "report": report_path,
        "table": get_path(output, "table", "output.table",
                          default=str(Path(report_path).with_suffix(".md"))),
        "chart": get_path(output, "chart", "output.chart",
                          default=str(Path(report_path).with_suffix(".svg"))),
    }

    references = _get_object(doc, "references", "references")
    for label, mapping in references.items():
        if not isinstance(mapping, dict):
            _fail(f"references.{label}", "expected an object of family -> percent")
        for family, value in mapping.items():
            if family not in FAMILIES:
                _fail(f"references.{label}.{family}", f"unknown family {family!r}")
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                _fail(f"references.{label}.{family}", f"expected a number, got {value!r}")

    return RunConfig(data=source, preprocess=preprocess, split=split, tuner=tuner,
                     output=output, references=references, spaces=spaces)
