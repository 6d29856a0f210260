import json
from pathlib import Path

import pytest

from tabtune.cli import EXIT_CONFIG, EXIT_DATA, EXIT_OUTPUT, main
from tabtune.config import ConfigError, load_run_config
from tabtune.report import strip_volatile
from tabtune.tuner import MAX_WORKERS_ENV

FIXTURES = Path(__file__).parent / "fixtures"


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


def test_run_rejects_bad_worker_cap_before_loading(tmp_path, capsys, monkeypatch):
    config_path, _ = _small_config(
        tmp_path, data={"csv": {"path": "absent.csv", "target": "y"}}
    )
    monkeypatch.setenv(MAX_WORKERS_ENV, "abc")
    assert main(["run", str(config_path)]) == EXIT_CONFIG
    assert MAX_WORKERS_ENV in capsys.readouterr().err


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
    assert config.report_path == nested / "out" / "report.json"
    assert config.table_path == nested / "out" / "report.md"
    assert config.chart_path == nested / "out" / "report.svg"
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
    ]
    for doc, expected_field in cases:
        doc.setdefault("output", {"report": "r.json"})
        with pytest.raises(ConfigError, match=expected_field.replace(".", r"\.")):
            from tabtune.config import parse_run_config

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
