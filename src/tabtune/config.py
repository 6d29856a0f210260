"""Run configuration: validation against ``config.schema.json``, which holds
every field rule and default, plus the rules a schema cannot state.

Relative paths in the config resolve against the config file's directory.
The normalized form (``RunConfig``) uses absolute paths so a report's
embedded config (``RunConfig.echo()``) can reproduce the run from any
working directory.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

from .hpspace import SearchSpace, grid_size, space_from_config
from .schema import SchemaViolation, load_schema, validate

SCHEMA = load_schema("config.schema.json")

#: Most configs one search may evaluate (the schema's ``rs_budget`` maximum
#: repeats it): a larger grid or ``rs_budget`` is a config error, because a
#: search builds its whole config list before the first trial.
MAX_SEARCH_CONFIGS = 100_000

#: The report table's and chart's columns of tuned results, in order; a
#: reference column may not take one of their names.
METHOD_COLUMNS = ("Baseline", "GS", "RS")


class ConfigError(ValueError):
    """Invalid run configuration; the message names the offending field."""


def _fail(field_path: str, message: str):
    raise ConfigError(f"config field '{field_path}': {message}")


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


def check_reference_label(label: str) -> None:
    """Refuse a label holding a control character (Unicode category Cc),
    which would split the table's header row and most of which make the
    chart invalid XML; a character XML 1.0 has not (U+FFFE, U+FFFF); or a
    lone surrogate, which JSON strings carry but UTF-8 cannot encode."""
    if any(ord(ch) < 32 or 127 <= ord(ch) < 160 or 0xD800 <= ord(ch) < 0xE000
           or ord(ch) in (0xFFFE, 0xFFFF) for ch in label):
        _fail(f"references.{label!r}",
              "the label holds a control character or one that XML or UTF-8 cannot carry")


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
    return parse_run_config(doc, base_dir=path.parent, config_path=path)


def parse_run_config(doc: dict, base_dir, config_path=None) -> RunConfig:
    """``config_path``, the file ``doc`` was read from, is checked with the
    input CSV and the outputs: no two of them may resolve to one file."""
    try:
        doc = validate(doc, SCHEMA)
    except SchemaViolation as exc:
        raise ConfigError(f"config {exc}") from None
    base_dir = Path(base_dir)

    def resolve(path: str, field_path: str) -> str:
        if "\0" in path:  # no file system accepts it; open() would raise ValueError
            _fail(field_path, "path contains a NUL character")
        try:
            os.fsencode(path)
        except UnicodeEncodeError:  # a lone surrogate, for one: a ValueError from any call
            _fail(field_path, "path holds a character the file system encoding cannot encode")
        path = Path(path)
        if path.is_absolute():
            return str(path)
        try:
            return str((base_dir / path).resolve())
        except (RuntimeError, OSError) as exc:  # a symlink loop, for one
            _fail(field_path, f"cannot resolve {path}: {exc}")

    if "csv" in doc["data"]:
        doc["data"]["csv"]["path"] = resolve(doc["data"]["csv"]["path"], "data.csv.path")
    output = doc["output"]
    output["report"] = resolve(output["report"], "output.report")
    for key, suffix in (("table", ".md"), ("chart", ".svg")):
        default = str(Path(output["report"]).with_suffix(suffix))
        output[key] = resolve(output.get(key, default), f"output.{key}")
    for key in ("report", "table", "chart"):
        # an absolute path is kept as given (the report echoes it), so a
        # symlink loop on its way would otherwise fail only after tuning;
        # a directory still to be made, or a file in its place, is left to
        # the write, which reports it as an output error
        parent = os.path.dirname(output[key])
        try:
            os.stat(parent)
        except (FileNotFoundError, NotADirectoryError):
            pass
        except OSError as exc:
            _fail(f"output.{key}", f"cannot reach directory {parent}: {exc.strerror}")
    # one file cannot hold two artifacts, and an artifact written over the
    # input CSV or the config file would destroy it; all would surface only
    # after tuning
    paths = {f"output.{key}": output[key] for key in ("report", "table", "chart")}
    if "csv" in doc["data"]:
        paths = {"data.csv.path": doc["data"]["csv"]["path"], **paths}
    if config_path is not None:
        paths = {"the config file": str(config_path), **paths}
    for (first, path), (second, other) in itertools.combinations(paths.items(), 2):
        if os.path.realpath(path) == os.path.realpath(other):
            _fail(second, f"same path as {first}: {other}")

    for label in doc["references"]:
        if label in METHOD_COLUMNS:
            _fail(f"references.{label}", f"{label} names a column of tuned results")
        check_reference_label(label)

    spaces = {}
    for family, mapping in doc["tuner"]["spaces"].items():
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
    return RunConfig(**doc, spaces=spaces)
