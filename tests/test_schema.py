"""The schema interpreter against the ``jsonschema`` reference, and the
constants the schema files must repeat from the code."""

import copy
import json

import jsonschema
import pytest

from tabtune.classifiers import FAMILIES
from tabtune.cli import main
from tabtune.config import MAX_SEARCH_CONFIGS, SCHEMA, ConfigError, parse_run_config
from tabtune.preprocess import DERIVED_KINDS, SCALING_MODES
from tabtune.report import SCHEMA as REPORT_SCHEMA
from tabtune.schema import SchemaViolation, validate
from tabtune.tabular import MAX_SYNTHETIC_ROWS

SYNTH = {"synthetic": {"rows": 100}}
OUT = {"report": "out/report.json"}

VALID_CONFIGS = [
    {"data": SYNTH, "output": OUT},
    {  # the shape of test_cli._small_config
        "data": {"synthetic": {"rows": 200, "seed": 11, "positive_rate": 0.5}},
        "preprocess": {"missing_threshold": 0.6, "scaling": "minmax"},
        "split": {"train_fraction": 0.75, "seed": 3},
        "tuner": {"families": ["DT", "NB"],
                  "spaces": {"DT": {"max_depth": {"lo": 2, "hi": 6, "step": 2}}},
                  "k": 3, "fold_seed": 1, "search_seed": 2},
        "output": {"report": "/abs/report.json", "table": "t.md", "chart": "c.svg"},
    },
    {  # the README example
        "data": {"csv": {"path": "students.csv", "target": "graduated",
                         "filter": {"column": "first_major", "allowed": ["CS", "CE"]}}},
        "preprocess": {"missing_threshold": 0.6, "scaling": "minmax"},
        "split": {"train_fraction": 0.75, "seed": 7},
        "tuner": {"families": list(FAMILIES),
                  "spaces": {"DT": {"max_depth": {"lo": 2, "hi": 14, "step": 4}},
                             "RF": {"n_estimators": {"lo": 10, "hi": 50},
                                    "max_depth": {"lo": 4, "hi": 12, "step": 4}}},
                  "k": 3, "fold_seed": 1, "search_seed": 2, "workers": 1},
        "output": {"report": "out/report.json"},
        "references": {"prior work": {"RF": 88.27, "DT": 86.78}},
    },
    {"data": {"synthetic": {"rows": 100.0, "seed": 3.0, "positive_rate": 0.3}},
     "preprocess": {"missing_threshold": 1, "scaling": "none",
                    "derived": {"name": "r", "kind": "ratio", "left": "a", "right": "b"}},
     "tuner": {"families": ["LR"], "rs_budget": 5.0, "workers": 2,
               "spaces": {"DT": {"criterion": {"choices": ["gini", "entropy"]}}}},
     "output": OUT, "references": {"empty": {}}},
    {"data": SYNTH, "tuner": {"rs_budget": None}, "output": OUT},
]

# (document, the field the interpreter must name), one or more per keyword
INVALID_CONFIGS = [
    ([], ""),                                                                    # type
    ({"data": SYNTH, "output": OUT, "split": None}, "split"),                    # type (null)
    ({"data": {"synthetic": {"rows": 2.5}}, "output": OUT}, "data.synthetic.rows"),  # integer
    ({"data": {"synthetic": {"rows": True}}, "output": OUT}, "data.synthetic.rows"),
    ({"data": SYNTH, "output": OUT, "preprocess": {"scaling": "log"}}, "preprocess.scaling"),
    ({"data": SYNTH}, "output"),                                                 # required
    ({"data": SYNTH, "output": {"report": 1}}, "output.report"),                 # properties
    ({"data": SYNTH, "output": OUT, "ouput": {}}, "ouput"),          # additionalProperties
    ({"data": SYNTH, "output": OUT, "references": {"p": {"NB": "high"}}}, "references.p.NB"),
    ({"data": SYNTH, "output": OUT, "references": {"p": {"MLP": 1}}}, "references.p.MLP"),
    ({"data": SYNTH, "output": OUT, "tuner": {"spaces": {"MLP": {}}}}, "tuner.spaces.MLP"),
    ({"data": {"synthetic": {"rows": 1}}, "output": OUT}, "data.synthetic.rows"),  # minimum
    ({"data": {"synthetic": {"rows": 1_000_001}}, "output": OUT}, "data.synthetic.rows"),
    ({"data": SYNTH, "output": OUT, "tuner": {"rs_budget": 100_001}}, "tuner.rs_budget"),
    ({"data": SYNTH, "output": OUT, "split": {"train_fraction": 0}}, "split.train_fraction"),
    ({"data": SYNTH, "output": OUT, "split": {"train_fraction": 1}}, "split.train_fraction"),
    ({"data": SYNTH, "output": OUT, "tuner": {"families": ["DT", "MLP"]}}, "tuner.families[1]"),
    ({"data": SYNTH, "output": OUT, "tuner": {"families": []}}, "tuner.families"),  # minItems
    ({"data": SYNTH, "output": OUT, "tuner": {"families": ["NB", "NB"]}}, "tuner.families"),
    ({"data": {}, "output": OUT}, "data"),                                       # oneOf: none
    ({"data": {**SYNTH, "csv": {"path": "x", "target": "y"}}, "output": OUT}, "data"),  # two
    ({"data": SYNTH, "output": OUT,                                              # $ref
      "tuner": {"spaces": {"DT": {"max_depth": {"lo": "2", "hi": 5}}}}},
     "tuner.spaces.DT.max_depth"),
]


def _accepts(doc, schema):
    try:
        validate(doc, schema)
    except SchemaViolation:
        return False
    return True


@pytest.fixture(scope="module")
def run_report(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    config = out / "config.json"
    config.write_text(json.dumps({
        "data": {"synthetic": {"rows": 120, "seed": 1}},
        "tuner": {"families": ["NB", "DT"], "spaces": {"DT": {"max_depth": {"lo": 2, "hi": 4}}}},
        "output": {"report": "report.json"},
        "references": {"prior": {"NB": 70.0}},
    }), encoding="utf-8")
    assert main(["run", str(config)]) == 0
    return json.loads((out / "report.json").read_text(encoding="utf-8"))


def test_interpreter_agrees_with_jsonschema(tmp_path):
    reference = jsonschema.Draft7Validator(SCHEMA)
    echoes = [parse_run_config(doc, tmp_path).echo() for doc in VALID_CONFIGS]
    for doc in VALID_CONFIGS + echoes:
        assert reference.is_valid(doc) and _accepts(doc, SCHEMA), doc
    for doc, field in INVALID_CONFIGS:
        assert not reference.is_valid(doc), doc
        with pytest.raises(SchemaViolation) as excinfo:
            validate(doc, SCHEMA)
        assert excinfo.value.path == field, (doc, str(excinfo.value))


def test_interpreter_agrees_with_jsonschema_on_reports(run_report):
    reference = jsonschema.Draft7Validator(REPORT_SCHEMA)
    assert reference.is_valid(run_report) and _accepts(run_report, REPORT_SCHEMA)
    breaks = {
        "tool.name": lambda r: r["tool"].update(name="other"),                   # const
        "trials_truncated": lambda r: r.update(trials_truncated="no"),          # boolean
        "families[0].family": lambda r: r["families"][0].update(family="MLP"),
        "families[0].grid.best.fold_accuracies[0]":
            lambda r: r["families"][0]["grid"]["best"]["fold_accuracies"].__setitem__(0, 1.5),
        "final": lambda r: r.pop("final"),
    }
    for field, damage in breaks.items():
        doc = copy.deepcopy(run_report)
        damage(doc)
        assert not reference.is_valid(doc), field
        with pytest.raises(SchemaViolation) as excinfo:
            validate(doc, REPORT_SCHEMA)
        assert excinfo.value.path == field, str(excinfo.value)
    config = run_report["config"]
    assert jsonschema.Draft7Validator(SCHEMA).is_valid(config) and _accepts(config, SCHEMA)


def test_defaults_are_idempotent(tmp_path):
    dump = json.dumps  # compares types (3 vs 3.0) and key order, not just ==
    for doc in VALID_CONFIGS:
        normalized = validate(doc, SCHEMA)
        assert dump(validate(normalized, SCHEMA)) == dump(normalized)
        echo = parse_run_config(doc, tmp_path).echo()
        # the echo leaves out only the worker count, whose default comes back
        with_workers = {**echo, "tuner": {**echo["tuner"], "workers": 1}}
        assert dump(validate(echo, SCHEMA)) == dump(with_workers)
        assert dump(parse_run_config(echo, tmp_path).echo()) == dump(echo)
    assert SYNTH == {"synthetic": {"rows": 100}}  # validation copies, never fills in place
    # integral floats in integer fields become ints; number fields keep their type
    echo = parse_run_config(VALID_CONFIGS[3], tmp_path).echo()
    assert dump(echo["data"]) == '{"synthetic": {"rows": 100, "seed": 3, "positive_rate": 0.3}}'
    assert dump(echo["tuner"]["rs_budget"]) == "5"
    assert dump(echo["preprocess"]["missing_threshold"]) == "1"


def test_failed_one_of_names_its_field_and_forms(tmp_path):
    doc = {"data": SYNTH, "output": OUT,
           "tuner": {"spaces": {"DT": {"max_depth": {"lo": "2", "hi": 5}}}}}
    with pytest.raises(ConfigError) as excinfo:
        parse_run_config(doc, tmp_path)
    message = str(excinfo.value)
    assert message.startswith("config field 'tuner.spaces.DT.max_depth': expected exactly one of: "
                              "numericRange, choiceList; none matched")
    assert "'tuner.spaces.DT.max_depth.lo': expected number, got '2'" in message
    assert "$ref" not in message and "definitions" not in message


def test_schema_constants_match_the_code():
    assert SCHEMA["definitions"]["family"]["enum"] == list(FAMILIES)
    assert REPORT_SCHEMA["definitions"]["family"]["enum"] == list(FAMILIES)
    sections = SCHEMA["properties"]
    assert sections["tuner"]["properties"]["families"]["default"] == list(FAMILIES)
    assert sections["preprocess"]["properties"]["scaling"]["enum"] == list(SCALING_MODES)
    derived = sections["preprocess"]["properties"]["derived"]["properties"]
    assert derived["kind"]["enum"] == list(DERIVED_KINDS)
    assert sections["tuner"]["properties"]["rs_budget"]["maximum"] == MAX_SEARCH_CONFIGS
    synthetic = sections["data"]["properties"]["synthetic"]["properties"]
    assert synthetic["rows"]["maximum"] == MAX_SYNTHETIC_ROWS
