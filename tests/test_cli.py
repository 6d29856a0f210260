import json
import math
from pathlib import Path

import numpy as np
import pytest

import tabtune.cli as cli_module
import tabtune.tabular as tabular_module
import tabtune.tuner as tuner_module
from tabtune import __version__
from tabtune.cli import (
    EXIT_CONFIG, EXIT_DATA, EXIT_OUTPUT, EXIT_TUNING, EXIT_UNEXPECTED, main,
)
from tabtune.config import ConfigError, load_run_config, parse_run_config
from tabtune.hpspace import grid_size, space_from_config
from tabtune.report import strip_volatile
from tabtune.tabular import MAX_SYNTHETIC_ROWS

FIXTURES = Path(__file__).parent / "fixtures"
SCHEMAS = Path(__file__).parent.parent / "src" / "tabtune"


def _small_config(tmp_path, **overrides):
    doc = {
        "data": {"synthetic": {"rows": 200, "seed": 11, "positive_rate": 0.5}},
        "preprocess": {"missing_threshold": 0.6, "scaling": "minmax"},
        "split": {"train_fraction": 0.75, "seed": 3},
        "tuner": {
            "families": ["DT", "NB"],
            "spaces": {"DT": {"max_depth": {"lo": 2, "hi": 6, "step": 2}}},
            "k": 3,
            "fold_seed": 1,
            "search_seed": 2,
        },
        "output": {
            "report": str(tmp_path / "report.json"),
            "table": str(tmp_path / "table.md"),
            "chart": str(tmp_path / "chart.svg"),
        },
    }
    doc.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path, doc


def test_run_happy_path_writes_artifacts(tmp_path, capsys):
    config_path, _ = _small_config(tmp_path)
    assert main(["run", str(config_path)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("final: family=")
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["tool"]["name"] == "tabtune"
    assert {f["family"] for f in report["families"]} == {"DT", "NB"}
    table = (tmp_path / "table.md").read_text()
    assert table.splitlines()[0].startswith("| Classifier |")
    chart = (tmp_path / "chart.svg").read_text()
    assert chart.count('class="bar"') == 6  # 2 families x 3 methods


def test_run_rejects_unknown_family(tmp_path, capsys):
    config_path, _ = _small_config(
        tmp_path, tuner={"families": ["DT", "MLP"]}
    )
    assert main(["run", str(config_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "tuner.families[1]" in err
    assert "MLP" in err


def test_run_missing_csv_is_a_data_error(tmp_path, capsys):
    config_path, _ = _small_config(
        tmp_path, data={"csv": {"path": "absent.csv", "target": "y"}}
    )
    assert main(["run", str(config_path)]) == EXIT_DATA


def test_run_infinite_csv_cell_is_a_data_error(tmp_path, capsys):
    lines = (FIXTURES / "students_500.csv").read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    column = header.index("entry_gpa")
    cells = lines[7].split(",")
    cells[column] = "1e999"
    lines[7] = ",".join(cells)
    poisoned = tmp_path / "poisoned.csv"
    poisoned.write_text("\n".join(lines) + "\n", encoding="utf-8")
    config_path, _ = _small_config(
        tmp_path, data={"csv": {"path": str(poisoned), "target": "graduated"}}
    )
    assert main(["run", str(config_path)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert "row 7" in err and "'entry_gpa'" in err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("blocker", ["file_as_parent", "directory_at_path"])
def test_run_failed_chart_write_leaves_no_outputs(tmp_path, capsys, blocker):
    if blocker == "file_as_parent":
        (tmp_path / "blocked").write_text("not a directory", encoding="utf-8")
        chart = tmp_path / "blocked" / "chart.svg"
    else:
        chart = tmp_path / "chart.svg"
        chart.mkdir()
    config_path, doc = _small_config(tmp_path)
    doc["output"]["chart"] = str(chart)
    config_path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["run", str(config_path)]) == EXIT_OUTPUT
    assert "output error" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()
    assert not (tmp_path / "table.md").exists()
    assert not list(tmp_path.rglob("*.tmp-*"))


def test_run_bad_json_config(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    assert main(["run", str(path)]) == EXIT_CONFIG


def test_rerun_is_identical_modulo_durations(tmp_path):
    config_path, _ = _small_config(tmp_path)
    assert main(["run", str(config_path)]) == 0
    first = json.loads((tmp_path / "report.json").read_text())
    assert main(["run", str(config_path)]) == 0
    second = json.loads((tmp_path / "report.json").read_text())
    assert strip_volatile(first) == strip_volatile(second)


def test_run_from_echoed_config_reproduces_report(tmp_path):
    config_path, _ = _small_config(tmp_path)
    assert main(["run", str(config_path)]) == 0
    first = json.loads((tmp_path / "report.json").read_text())
    echo_path = tmp_path / "echo.json"
    echo_path.write_text(json.dumps(first["config"]), encoding="utf-8")
    assert main(["run", str(echo_path)]) == 0
    second = json.loads((tmp_path / "report.json").read_text())
    assert strip_volatile(first) == strip_volatile(second)


def test_render_from_report(tmp_path):
    config_path, _ = _small_config(tmp_path)
    assert main(["run", str(config_path)]) == 0
    table2 = tmp_path / "again.md"
    chart2 = tmp_path / "again.svg"
    code = main([
        "render", str(tmp_path / "report.json"),
        "--table", str(table2), "--chart", str(chart2),
    ])
    assert code == 0
    assert table2.read_text() == (tmp_path / "table.md").read_text()
    assert chart2.read_text() == (tmp_path / "chart.svg").read_text()
    assert main(["render", str(tmp_path / "report.json")]) == EXIT_CONFIG
    assert main([
        "render", str(tmp_path / "nope.json"), "--table", str(table2)
    ]) == EXIT_DATA


def test_reference_columns_flow_into_artifacts(tmp_path):
    config_path, _ = _small_config(
        tmp_path, references={"prior work": {"DT": 86.78, "NB": 69.09}}
    )
    assert main(["run", str(config_path)]) == 0
    table = (tmp_path / "table.md").read_text()
    assert "prior work" in table.splitlines()[0]
    assert "86.78" in table
    chart = (tmp_path / "chart.svg").read_text()
    assert chart.count('class="bar"') == 8  # 2 families x (3 methods + 1 reference)


def test_synth_writes_loadable_csv(tmp_path, capsys):
    out = tmp_path / "students.csv"
    assert main(["synth", "--rows", "50", "--seed", "4", "--out", str(out)]) == 0
    from tabtune import load_csv

    table = load_csv(out, target_column="graduated")
    assert table.n_rows == 50


def test_csv_source_with_filter(tmp_path, capsys):
    config_path, _ = _small_config(
        tmp_path,
        data={
            "csv": {
                "path": str(FIXTURES / "students_500.csv"),
                "target": "graduated",
                "filter": {"column": "first_major", "allowed": ["CS", "CE", "SE", "IT"]},
            }
        },
    )
    assert main(["run", str(config_path)]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["final"]["test_accuracy"] >= 0.0


def test_run_derived_ratio_column_from_csv(tmp_path, capsys):
    derived = {"name": "credits_per_year", "kind": "ratio",
               "left": "credits_attempted", "right": "age"}
    config_path, _ = _small_config(
        tmp_path,
        data={"csv": {"path": str(FIXTURES / "students_500.csv"), "target": "graduated"}},
        preprocess={"missing_threshold": 0.6, "scaling": "zscore", "derived": derived},
    )
    assert main(["run", str(config_path)]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["config"]["preprocess"]["derived"] == derived


def test_run_derived_column_with_categorical_operand_is_a_data_error(tmp_path, capsys):
    derived = {"name": "bad", "kind": "ratio", "left": "credits_attempted", "right": "sex"}
    config_path, _ = _small_config(
        tmp_path,
        data={"csv": {"path": str(FIXTURES / "students_500.csv"), "target": "graduated"}},
        preprocess={"missing_threshold": 0.6, "scaling": "minmax", "derived": derived},
    )
    assert main(["run", str(config_path)]) == EXIT_DATA
    assert "'sex'" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_config_paths_resolve_relative_to_config_file(tmp_path):
    nested = tmp_path / "nested"
    nested.mkdir()
    doc = {
        "data": {"synthetic": {"rows": 120, "seed": 1}},
        "tuner": {"families": ["NB"]},
        "output": {"report": "out/report.json"},
    }
    config_path = nested / "config.json"
    config_path.write_text(json.dumps(doc), encoding="utf-8")
    config = load_run_config(config_path)
    assert config.output["report"] == str(nested / "out" / "report.json")
    assert config.output["table"] == str(nested / "out" / "report.md")
    assert config.output["chart"] == str(nested / "out" / "report.svg")
    assert main(["run", str(config_path)]) == 0
    assert (nested / "out" / "report.json").exists()


def test_config_validation_messages_name_fields(tmp_path):
    cases = [
        ({"data": {}}, "data"),
        ({"data": {"synthetic": {"rows": 100}, "csv": {"path": "x", "target": "y"}}}, "data"),
        ({"data": {"synthetic": {"rows": 100}}, "split": {"train_fraction": 1.5},
          "output": {"report": "r.json"}}, "split.train_fraction"),
        ({"data": {"synthetic": {"rows": 100}}, "preprocess": {"scaling": "log"},
          "output": {"report": "r.json"}}, "preprocess.scaling"),
        ({"data": {"synthetic": {"rows": 100}},
          "tuner": {"spaces": {"DT": {"max_depth": {"lo": 0, "hi": 5}}}},
          "output": {"report": "r.json"}}, "tuner.spaces.DT"),
        ({"data": {"synthetic": {"rows": 100}},
          "references": {"prior": {"MLP": 90.0}},
          "output": {"report": "r.json"}}, "references.prior.MLP"),
        # fields the schema does not allow are rejected, not ignored
        ({"data": {"synthetic": {"rows": 100}},
          "tuner": {"famlies": ["NB"], "rs_budget": 3}}, "tuner.famlies"),
        ({"data": {"synthetic": {"rows": 100}},
          "tuner": {"families": ["NB"], "rs_budgt": 3}}, "tuner.rs_budgt"),
        ({"data": {"synthetic": {"rows": 100}}, "ouput": {"report": "r.json"}}, "ouput"),
        ({"data": {"synthetic": {"rows": 100, "sed": 4}}}, "data.synthetic.sed"),
        ({"data": {"csv": {"path": "x", "target": "y", "sep": ";"}}}, "data.csv.sep"),
        ({"data": {"csv": {"path": "x", "target": "y",
                           "filter": {"column": "m", "allowed": [], "deny": []}}}},
         "data.csv.filter.deny"),
        ({"data": {"synthetic": {"rows": 100}, "url": "x"}}, "data.url"),
        ({"data": {"synthetic": {"rows": 100}},
          "preprocess": {"scale": "zscore"}}, "preprocess.scale"),
        ({"data": {"synthetic": {"rows": 100}},
          "preprocess": {"derived": {"name": "r", "kind": "ratio", "left": "a",
                                     "right": "b", "op": "x"}}}, "preprocess.derived.op"),
        ({"data": {"synthetic": {"rows": 100}}, "split": {"sead": 1}}, "split.sead"),
        ({"data": {"synthetic": {"rows": 100}},
          "output": {"report": "r.json", "tabel": "t.md"}}, "output.tabel"),
        ({"data": {"synthetic": {"rows": 100}},
          "tuner": {"spaces": {"DT": {"criterion": {"choices": ["gini"], "lo": 1}}}}},
         "tuner.spaces.DT"),
        ({"data": {"synthetic": {"rows": 100}},
          "tuner": {"spaces": {"MLP": {}}}}, "tuner.spaces.MLP"),
        # bad search-space numbers
        ({"data": {"synthetic": {"rows": 100}},
          "tuner": {"spaces": {"DT": {"max_depth": {"lo": 1, "hi": 5, "step": 0.5}}}}},
         "tuner.spaces.DT"),
        ({"data": {"synthetic": {"rows": 100}},
          "tuner": {"spaces": {"DT": {"max_depth": {"lo": "2", "hi": 5}}}}},
         "tuner.spaces.DT"),
        ({"data": {"synthetic": {"rows": 100}},
          "tuner": {"spaces": {"LR": {"l2_strength": {"lo": 0, "hi": 1, "step": True}}}}},
         "tuner.spaces.LR"),
    ]
    for doc, expected_field in cases:
        doc.setdefault("output", {"report": "r.json"})
        with pytest.raises(ConfigError, match=expected_field.replace(".", r"\.")):
            parse_run_config(doc, tmp_path)


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    assert "tabtune" in capsys.readouterr().out


def test_run_finite_extreme_cells_are_a_data_error(tmp_path, capsys):
    lines = (FIXTURES / "students_500.csv").read_text(encoding="utf-8").splitlines()
    column = lines[0].split(",").index("entry_gpa")
    for i in range(1, 41):  # enough rows that the training split holds both signs
        cells = lines[i].split(",")
        cells[column] = "1.7e308" if i % 2 else "-1.7e308"
        lines[i] = ",".join(cells)
    poisoned = tmp_path / "extremes.csv"
    poisoned.write_text("\n".join(lines) + "\n", encoding="utf-8")
    config_path, _ = _small_config(
        tmp_path, data={"csv": {"path": str(poisoned), "target": "graduated"}}
    )
    assert main(["run", str(config_path)]) == EXIT_DATA
    assert "'entry_gpa'" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("place, number", [
    ("rows", "Infinity"), ("rows", "NaN"), ("rows", "1e999"),
    ("step", "NaN"), ("step", "Infinity"),
    ("reference", "NaN"), ("reference", "Infinity"),
])
def test_run_non_finite_config_number_is_a_config_error(tmp_path, capsys, place, number):
    placeholder = 987654321  # replaced in the JSON text, which json.dumps cannot write
    overrides = {
        "rows": {"data": {"synthetic": {"rows": placeholder}}},
        "step": {"tuner": {"families": ["LR"], "spaces": {
            "LR": {"learning_rate": {"lo": 0.1, "hi": 0.5, "step": placeholder}}}}},
        "reference": {"references": {"p": {"NB": placeholder}}},
    }[place]
    config_path, _ = _small_config(tmp_path, **overrides)
    text = config_path.read_text(encoding="utf-8")
    config_path.write_text(text.replace(str(placeholder), number), encoding="utf-8")
    assert main(["run", str(config_path)]) == EXIT_CONFIG
    assert number in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_oversized_search_is_a_config_error(tmp_path):
    fine = {"learning_rate": {"lo": 0.01, "hi": 1.0, "step": 1e-9}}
    cases = [
        ({"spaces": {"LR": fine}}, "tuner.spaces.LR", str(grid_size(space_from_config("LR", fine)))),
        # (hi - lo) / step overflows to infinity
        ({"spaces": {"LR": {"learning_rate": {"lo": 0.01, "hi": 1.0, "step": 1e-310}}}},
         "tuner.spaces.LR", "inf"),
        ({"rs_budget": 100_001}, "tuner.rs_budget", "100000"),
    ]
    for tuner, field, detail in cases:
        doc = {"data": {"synthetic": {"rows": 100}}, "tuner": tuner,
               "output": {"report": "r.json"}}
        with pytest.raises(ConfigError, match=field.replace(".", r"\.")) as excinfo:
            parse_run_config(doc, tmp_path)
        assert detail in str(excinfo.value)
    doc = {"data": {"synthetic": {"rows": 100}}, "tuner": {"rs_budget": 100_000},
           "output": {"report": "r.json"}}
    assert parse_run_config(doc, tmp_path).tuner["rs_budget"] == 100_000


@pytest.mark.parametrize("stage", ["apply_plan", "grs_auto_hp", "render_chart"])
def test_run_program_fault_is_an_unexpected_error(tmp_path, capsys, monkeypatch, stage):
    def faulty(*args, **kwargs):
        raise TypeError(f"a bug in {stage}")

    monkeypatch.setattr(cli_module, stage, faulty)
    config_path, _ = _small_config(tmp_path)
    assert main(["run", str(config_path)]) == EXIT_UNEXPECTED
    assert f"unexpected error: a bug in {stage}" in capsys.readouterr().err
    assert not list(tmp_path.glob("report.*")) and not list(tmp_path.glob("*.tmp-*"))


@pytest.mark.parametrize("stage", ["render_table", "generate_synthetic"])
def test_render_and_synth_program_fault_is_an_unexpected_error(tmp_path, capsys, monkeypatch,
                                                               stage):
    def faulty(*args, **kwargs):
        raise TypeError(f"a bug in {stage}")

    if stage == "render_table":
        config_path, _ = _small_config(tmp_path)
        assert main(["run", str(config_path)]) == 0
        outputs = [tmp_path / "again.md", tmp_path / "again.svg"]
        argv = ["render", str(tmp_path / "report.json"),
                "--table", str(outputs[0]), "--chart", str(outputs[1])]
    else:
        outputs = [tmp_path / "students.csv"]
        argv = ["synth", "--rows", "20", "--out", str(outputs[0])]
    monkeypatch.setattr(cli_module, stage, faulty)
    assert main(argv) == EXIT_UNEXPECTED
    assert f"unexpected error: a bug in {stage}" in capsys.readouterr().err
    assert not any(path.exists() for path in outputs)
    assert not list(tmp_path.glob("*.tmp-*"))


def test_render_and_synth_input_and_write_errors(tmp_path, capsys):
    config_path, _ = _small_config(tmp_path)
    assert main(["run", str(config_path)]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    table = tmp_path / "again.md"
    config = report["config"]
    not_reports = [
        ([], "top level"), ({"families": "DT"}, "field 'tool'"),
        ({"families": [{"family": "DT"}]}, "field 'tool'"),
        ({**report, "config": {"references": {"prior": {"DT": "high"}}}}, "field 'config.data'"),
        ({**report, "families": [{"family": "DT"}]}, "field 'families[0].baseline'"),
        ({**report, "config": {**config, "references": {"prior": {"DT": "high"}}}},
         "field 'config.references.prior.DT'"),
        ({**report, "config": {**config, "references": {"prior": {"MLP": 90.0}}}},
         "field 'config.references.prior.MLP'"),
        ({**report, "trials_truncated": None}, "field 'trials_truncated'"),
        ({**report, "k": 1}, "field 'k'"),
    ]
    for i, (doc, field) in enumerate(not_reports):
        path = tmp_path / f"bad{i}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["render", str(path), "--table", str(table)]) == EXIT_DATA
        assert f"not a tabtune report: {field}" in capsys.readouterr().err
    (tmp_path / "latin1.json").write_bytes(b'{"families": "\xe9"}')
    assert main(["render", str(tmp_path / "latin1.json"), "--table", str(table)]) == EXIT_DATA
    assert not table.exists()
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory", encoding="utf-8")
    assert main(["render", str(tmp_path / "report.json"),
                 "--table", str(blocker / "t.md")]) == EXIT_OUTPUT
    assert main(["synth", "--rows", "20", "--out", str(blocker / "s.csv")]) == EXIT_OUTPUT
    assert main(["synth", "--rows", "-1", "--out", str(tmp_path / "s.csv")]) == EXIT_DATA
    assert main(["synth", "--rows", "20", "--positive-rate", "1.5",
                 "--out", str(tmp_path / "s.csv")]) == EXIT_DATA
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("output, fields", [
    ({"report": "out/r.json", "table": "out/r.json"}, ("output.table", "output.report")),
    # the default table path of out/r.json is out/r.md
    ({"report": "out/r.json", "chart": "out/r.md"}, ("output.chart", "output.table")),
])
def test_colliding_output_paths_are_a_config_error_before_tuning(tmp_path, capsys, monkeypatch,
                                                                  output, fields):
    def no_tuning(*args, **kwargs):
        raise AssertionError("tuned before the output paths were checked")

    monkeypatch.setattr(cli_module, "grs_auto_hp", no_tuning)
    config_path, _ = _small_config(tmp_path, output=output)
    assert main(["run", str(config_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"config field '{fields[0]}': same path as {fields[1]}" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("field", ["output.report", "output.table", "output.chart"])
def test_output_over_the_input_csv_is_a_config_error_before_any_work(tmp_path, capsys,
                                                                     monkeypatch, field):
    def no_loading(*args, **kwargs):
        raise AssertionError("data was loaded before the output paths were checked")

    monkeypatch.setattr(cli_module, "load_csv", no_loading)
    data = tmp_path / "data.csv"
    original = (FIXTURES / "students_500.csv").read_text(encoding="utf-8")
    data.write_text(original, encoding="utf-8")
    key = field.split(".")[1]
    output = {"report": "out/r.json", key: "./data.csv"}
    config_path, _ = _small_config(
        tmp_path, data={"csv": {"path": "data.csv", "target": "graduated"}}, output=output)
    assert main(["run", str(config_path)]) == EXIT_CONFIG
    assert f"config field '{field}': same path as data.csv.path" in capsys.readouterr().err
    assert data.read_text(encoding="utf-8") == original
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("field", ["output.report", "output.table", "output.chart"])
def test_output_over_the_config_file_is_a_config_error_before_any_work(tmp_path, capsys,
                                                                       caplog, field):
    key = field.split(".")[1]
    if key == "chart":  # reaches the config file through a symlink
        (tmp_path / "link.svg").symlink_to(tmp_path / "config.json")
        output = {"report": "out/r.json", "chart": "link.svg"}
    else:
        output = {"report": "out/r.json", key: "config.json"}
    config_path, _ = _small_config(tmp_path, output=output)
    before = config_path.read_bytes()
    with caplog.at_level("INFO", logger="tabtune"):
        assert main(["run", str(config_path)]) == EXIT_CONFIG
    assert f"config field '{field}': same path as the config file" in capsys.readouterr().err
    assert config_path.read_bytes() == before
    assert not any("data ready" in record.getMessage() for record in caplog.records)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("field", ["output.report", "data.csv.path"])
def test_unresolvable_config_path_is_a_config_error(tmp_path, capsys, field):
    (tmp_path / "a").symlink_to(tmp_path / "b")
    (tmp_path / "b").symlink_to(tmp_path / "a")  # a -> b -> a
    overrides = {
        "output.report": {"output": {"report": "a/r.json"}},
        "data.csv.path": {"data": {"csv": {"path": "a/d.csv", "target": "y"}}},
    }[field]
    config_path, _ = _small_config(tmp_path, **overrides)
    assert main(["run", str(config_path)]) == EXIT_CONFIG
    assert f"config field '{field}': cannot resolve a/" in capsys.readouterr().err


@pytest.mark.parametrize("field", ["output.report", "output.table"])
def test_absolute_output_path_through_a_symlink_loop_fails_before_any_work(
        tmp_path, capsys, caplog, field):
    (tmp_path / "a").symlink_to(tmp_path / "b")
    (tmp_path / "b").symlink_to(tmp_path / "a")  # a -> b -> a
    looped = str(tmp_path / "a" / "sub" / "r.out")
    output = {"report": looped} if field == "output.report" else {
        "report": str(tmp_path / "report.json"), "table": looped}
    config_path, _ = _small_config(tmp_path, output=output)
    with caplog.at_level("INFO", logger="tabtune"):
        assert main(["run", str(config_path)]) == EXIT_CONFIG
    assert f"config field '{field}': cannot reach directory {tmp_path / 'a' / 'sub'}" in (
        capsys.readouterr().err)
    assert not any("data ready" in record.getMessage() for record in caplog.records)
    assert not (tmp_path / "report.json").exists()


def test_absolute_output_path_is_kept_as_given(tmp_path):
    (tmp_path / "real").mkdir()
    (tmp_path / "link").symlink_to(tmp_path / "real")
    report = str(tmp_path / "link" / "new" / "r.json")  # "new" is made at write time
    _, doc = _small_config(tmp_path, output={"report": report})
    config = parse_run_config(doc, base_dir=tmp_path)
    assert config.output["report"] == report
    assert config.echo()["output"]["table"] == str(tmp_path / "link" / "new" / "r.md")


def test_render_to_one_path_for_table_and_chart_is_a_config_error(tmp_path, capsys):
    config_path, _ = _small_config(tmp_path)
    assert main(["run", str(config_path)]) == 0
    same = tmp_path / "same.txt"
    assert main(["render", str(tmp_path / "report.json"), "--table", str(same),
                 "--chart", str(tmp_path / "." / "same.txt")]) == EXIT_CONFIG
    assert "--table and --chart are the same path" in capsys.readouterr().err
    assert not same.exists() and not list(tmp_path.glob("*.tmp-*"))


@pytest.mark.parametrize("flag", ["--table", "--chart"])
def test_render_over_its_own_report_is_a_config_error(tmp_path, capsys, flag):
    config_path, _ = _small_config(tmp_path)
    assert main(["run", str(config_path)]) == 0
    report = tmp_path / "report.json"
    before = report.read_bytes()
    assert main(["render", str(report), flag, str(tmp_path / "." / "report.json")]) == EXIT_CONFIG
    assert f"{flag} is the same path as the report" in capsys.readouterr().err
    assert report.read_bytes() == before
    assert not list(tmp_path.glob("*.tmp-*"))


def test_split_with_an_empty_part_is_a_data_error_before_tuning(tmp_path, capsys, monkeypatch):
    def no_tuning(*args, **kwargs):
        raise AssertionError("tuned on an empty split")

    monkeypatch.setattr(cli_module, "grs_auto_hp", no_tuning)
    config_path, _ = _small_config(
        tmp_path, data={"synthetic": {"rows": 9}}, split={"train_fraction": 0.95})
    assert main(["run", str(config_path)]) == EXIT_DATA
    assert ("data error: train_fraction 0.95 of 9 rows leaves 9 train and 0 test rows"
            in capsys.readouterr().err)
    assert [path.name for path in tmp_path.iterdir()] == ["config.json"]


def test_single_class_training_split_is_a_data_error_before_tuning(tmp_path, capsys,
                                                                   monkeypatch):
    def no_tuning(*args, **kwargs):
        raise AssertionError("tuned on a single-class training split")

    lines = (FIXTURES / "students_500.csv").read_text(encoding="utf-8").splitlines()[:61]
    target = lines[0].split(",").index("graduated")

    def csv_with_one_no(kept):
        rows = [lines[0]]
        for row, line in enumerate(lines[1:], start=1):
            cells = line.split(",")
            cells[target] = "no" if row == kept else "yes"
            rows.append(",".join(cells))
        return "\n".join(rows) + "\n"

    # the first row whose "no" the 0.75 split (seed 3) puts in the test part
    csv_path = tmp_path / "data.csv"
    for kept in range(1, 61):
        csv_path.write_text(csv_with_one_no(kept), encoding="utf-8")
        split = tabular_module.split_train_test(
            tabular_module.load_csv(csv_path, "graduated"), 0.75, 3)
        if len(np.unique(split.train.columns["graduated"])) == 1:
            break
    monkeypatch.setattr(cli_module, "grs_auto_hp", no_tuning)
    config_path, _ = _small_config(
        tmp_path, data={"csv": {"path": str(csv_path), "target": "graduated"}},
        output={"report": str(tmp_path / "out" / "report.json")})
    assert main(["run", str(config_path)]) == EXIT_DATA
    assert ("data error: the 45-row training split holds a single class (graduated = 'yes')"
            in capsys.readouterr().err)
    assert sorted(path.name for path in tmp_path.iterdir()) == ["config.json", "data.csv"]


def test_k_above_the_training_rows_is_a_data_error_before_preprocessing(tmp_path, capsys,
                                                                        monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("preprocessed or tuned with more folds than training rows")

    monkeypatch.setattr(cli_module, "fit_plan", no_work)
    monkeypatch.setattr(cli_module, "grs_auto_hp", no_work)
    config_path, doc = _small_config(tmp_path)  # 200 rows at 0.75: 150 train rows
    doc["tuner"]["k"] = 151
    config_path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["run", str(config_path)]) == EXIT_DATA
    assert ("data error: tuner.k=151 exceeds the 150 rows of the training split"
            in capsys.readouterr().err)
    assert [path.name for path in tmp_path.iterdir()] == ["config.json"]


def test_a_run_whose_every_family_fails_is_a_tuning_error(tmp_path, capsys, monkeypatch):
    def failing_group(family, members, folds, seed):
        raise ValueError(f"{family} cannot be tuned")

    monkeypatch.setattr(tuner_module, "_evaluate_group", failing_group)
    config_path, _ = _small_config(tmp_path)
    assert main(["run", str(config_path)]) == EXIT_TUNING
    err = capsys.readouterr().err
    assert "tuning error: every family failed" in err
    assert "ValueError: NB cannot be tuned" in err
    assert [path.name for path in tmp_path.iterdir()] == ["config.json"]


def test_synthetic_rows_above_the_maximum_are_rejected_before_generating(tmp_path, capsys,
                                                                         monkeypatch):
    def no_draws(*args, **kwargs):
        raise AssertionError("rows were generated")

    monkeypatch.setattr(tabular_module.np.random, "default_rng", no_draws)
    rows = MAX_SYNTHETIC_ROWS + 1
    out = tmp_path / "s.csv"
    assert main(["synth", "--rows", str(rows), "--out", str(out)]) == EXIT_DATA
    assert f"n_rows must be at most {MAX_SYNTHETIC_ROWS}, got {rows}" in capsys.readouterr().err
    assert not out.exists()
    config_path, _ = _small_config(tmp_path, data={"synthetic": {"rows": rows}})
    assert main(["run", str(config_path)]) == EXIT_CONFIG
    assert "config field 'data.synthetic.rows'" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("truncated", [False, True])
def test_render_accepts_reports_of_current_runs(tmp_path, monkeypatch, truncated):
    if truncated:  # a run with more trials than the report keeps records for
        monkeypatch.setattr(tuner_module, "MAX_REPORTED_TRIALS", 1)
    config_path, _ = _small_config(tmp_path)
    assert main(["run", str(config_path)]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["trials_truncated"] is truncated
    again = tmp_path / "again.md"
    assert main(["render", str(tmp_path / "report.json"), "--table", str(again)]) == 0
    assert again.read_text() == (tmp_path / "table.md").read_text()


def test_report_is_the_cli_envelope_plus_the_tuning_fields(tmp_path, monkeypatch):
    tuned = []

    def recording(*args, **kwargs):
        tuned.append(tuner_module.grs_auto_hp(*args, **kwargs))
        return tuned[-1]

    monkeypatch.setattr(cli_module, "grs_auto_hp", recording)
    config_path, _ = _small_config(tmp_path)
    assert main(["run", str(config_path)]) == 0
    (tuning,) = tuned
    envelope = {
        "tool": {"name": "tabtune", "version": __version__},
        "created_unix": 0.0,
        "config": load_run_config(config_path).echo(),
    }
    schema = json.loads((SCHEMAS / "report.schema.json").read_text(encoding="utf-8"))
    assert sorted([*tuning, *envelope]) == sorted(schema["required"])
    report = json.loads((tmp_path / "report.json").read_text())
    assert strip_volatile(report) == strip_volatile({**envelope, **tuning})


@pytest.mark.parametrize("section", ["preprocess", "split", "tuner", "references"])
def test_null_optional_section_is_a_config_error(tmp_path, capsys, section):
    config_path, _ = _small_config(tmp_path, **{section: None})
    assert main(["run", str(config_path)]) == EXIT_CONFIG
    assert f"config field '{section}': expected object, got None" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_run_oversized_csv_field_is_a_data_error(tmp_path, capsys):
    lines = (FIXTURES / "students_500.csv").read_text(encoding="utf-8").splitlines()
    column = lines[0].split(",").index("first_major")
    cells = lines[5].split(",")
    cells[column] = "x" * 140_000  # over csv.field_size_limit()
    lines[5] = ",".join(cells)
    oversized = tmp_path / "oversized.csv"
    oversized.write_text("\n".join(lines) + "\n", encoding="utf-8")
    config_path, _ = _small_config(
        tmp_path, data={"csv": {"path": str(oversized), "target": "graduated"}}
    )
    assert main(["run", str(config_path)]) == EXIT_DATA
    assert "line 6" in capsys.readouterr().err


def test_config_schema_accepts_configs_and_their_echo(tmp_path):
    import jsonschema

    schema = json.loads((SCHEMAS / "config.schema.json").read_text(encoding="utf-8"))
    config_path, doc = _small_config(tmp_path)
    jsonschema.validate(doc, schema)
    assert main(["run", str(config_path)]) == 0
    echo = json.loads((tmp_path / "report.json").read_text())["config"]
    jsonschema.validate(echo, schema)
    # the schema states the limits the parser enforces
    for tuner in ({"families": ["DT", "DT"]}, {"rs_budget": 100_001}):
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate({**doc, "tuner": tuner}, schema)
        with pytest.raises(ConfigError):
            parse_run_config({**doc, "tuner": tuner}, tmp_path)


def _set_field(doc, path, value):
    for key in path[:-1]:
        doc = doc.setdefault(key, {})
    doc[path[-1]] = value


def _numbers(value):
    if isinstance(value, dict):
        return [n for item in value.values() for n in _numbers(item)]
    if isinstance(value, list):
        return [n for item in value for n in _numbers(item)]
    return [value] if isinstance(value, (int, float)) and not isinstance(value, bool) else []


#: (field path, wrong value) pairs for the mistyped-field mutation
_MISTYPED = [
    (("tuner", "k"), "3"), (("tuner", "families"), "NB"), (("tuner", "workers"), 0),
    (("split", "train_fraction"), 1.5), (("preprocess", "scaling"), "log"),
    (("data", "csv", "target"), 7), (("tuner", "rs_budget"), 10**9),
    (("tuner", "spaces", "DT", "max_depth", "lo"), "two"),
    (("tuner", "spaces", "DT", "max_depth", "hi"), 99), (("output", "report"), None),
    (("data", "csv", "path"), ["data.csv"]), (("tuner", "k"), 1000),
]
_DROPPABLE = [("data",), ("output",), ("data", "csv", "target"), ("data", "csv", "path"),
              ("tuner", "k"), ("tuner", "families"), ("output", "report"), ("output", "chart")]


def test_mutated_runs_exit_cleanly_and_write_all_or_nothing(tmp_path, capsys):
    # a seeded guard over the exit-code contract: whatever the mutation, a
    # run exits 0, 2, 3 or 4 (never 1), leaves no temporary file, writes all
    # three artifacts or none, and writes only finite numbers. No mutation
    # here reaches a tuning error (exit 4): a k above the training rows, the
    # last one that did, is a data error (exit 3)
    lines = (FIXTURES / "students_500.csv").read_text(encoding="utf-8").splitlines()[:61]
    header = lines[0].split(",")
    numeric = [header.index(name) for name in ("entry_gpa", "credits_attempted", "age")]
    target = header.index("graduated")

    def drop_field(doc, rows, rng):
        path = _DROPPABLE[rng.integers(len(_DROPPABLE))]
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent.pop(path[-1], None)

    def mistype_field(doc, rows, rng):
        _set_field(doc, *_MISTYPED[rng.integers(len(_MISTYPED))])

    def ragged_row(doc, rows, rng):
        row = int(rng.integers(1, len(rows)))
        rows[row] = rows[row].rsplit(",", 1)[0] if rng.random() < 0.5 else rows[row] + ",x"

    def overflow_cell(doc, rows, rng):
        row = int(rng.integers(1, len(rows)))
        cells = rows[row].split(",")
        cells[numeric[rng.integers(len(numeric))]] = str(rng.choice(["1e999", "-1e400"]))
        rows[row] = ",".join(cells)

    def single_class_target(doc, rows, rng):
        kept = int(rng.integers(len(rows) + 1))  # a single "no" row, or none
        for row in range(1, len(rows)):
            cells = rows[row].split(",")
            cells[target] = "no" if row == kept else "yes"
            rows[row] = ",".join(cells)

    def empty_filter(doc, rows, rng):
        _set_field(doc, ("data", "csv", "filter"), {"column": "first_major", "allowed": ["none"]})

    def output_onto_input(doc, rows, rng):
        _set_field(doc, ("output", str(rng.choice(["report", "table", "chart"]))), "data.csv")

    def more_folds_than_rows(doc, rows, rng):  # 48 training rows at most: exit 3
        _set_field(doc, ("tuner", "k"), int(rng.integers(49, 61)))

    mutations = [drop_field, mistype_field, ragged_row, overflow_cell, single_class_target,
                 empty_filter, output_onto_input, more_folds_than_rows]
    seen = set()
    folds_alone = 0
    for seed in range(48):
        rng = np.random.default_rng([2024, seed])
        run_dir = tmp_path / f"run{seed}"
        run_dir.mkdir()
        doc = {
            "data": {"csv": {"path": "data.csv", "target": "graduated"}},
            "tuner": {"families": ["NB", "DT"], "k": 2, "rs_budget": 2,
                      "spaces": {"DT": {"max_depth": {"lo": 1, "hi": 3}}}},
            "output": {"report": "out/report.json", "table": "out/table.md",
                       "chart": "out/chart.svg"},
        }
        rows = list(lines)
        chosen = {seed % (len(mutations) + 1)} - {len(mutations)}  # every 9th seed: none
        if rng.random() < 0.5:
            chosen.add(int(rng.integers(len(mutations))))
        for index in sorted(chosen):
            mutations[index](doc, rows, rng)
        csv_text = "\n".join(rows) + "\n"
        (run_dir / "data.csv").write_text(csv_text, encoding="utf-8")
        (run_dir / "config.json").write_text(json.dumps(doc), encoding="utf-8")
        code = main(["run", str(run_dir / "config.json")])
        err = capsys.readouterr().err
        label = (f"seed {seed}: {[mutations[i].__name__ for i in sorted(chosen)]}, "
                 f"exit {code}: {err}")
        assert code in (0, 2, 3, 4), label
        if [mutations[i] for i in chosen] == [more_folds_than_rows]:
            folds_alone += 1
            assert code == EXIT_DATA, label
            assert f"data error: tuner.k={doc['tuner']['k']} exceeds the 45 rows" in err, label
        seen.add(code)
        assert not list(run_dir.rglob("*.tmp-*")), label
        assert (run_dir / "data.csv").read_text(encoding="utf-8") == csv_text, label
        assert len(list((run_dir / "out").glob("*"))) == (3 if code == 0 else 0), label
        if code == 0:
            report = json.loads((run_dir / "out" / "report.json").read_text(encoding="utf-8"))
            assert all(math.isfinite(n) for n in _numbers(report)), label
    assert folds_alone > 0
    assert seen == {0, 2, 3}
