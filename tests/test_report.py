import re
import xml.dom.minidom

from tabtune.report import _VOLATILE_KEYS, SCHEMA, render_chart, render_table, strip_volatile


def _trial(mean):
    return {
        "trial_index": 0,
        "config": {},
        "fold_accuracies": [mean],
        "mean_accuracy": mean,
        "duration_seconds": 0.1,
    }


def _family(name, baseline, gs, rs):
    return {
        "family": name,
        "baseline": _trial(baseline),
        "grid": {"best": _trial(gs), "n_trials": 4, "total_seconds": 1.0},
        "random": {"best": _trial(rs), "n_trials": 4, "total_seconds": 1.0},
        "winner": "grid" if gs >= rs else "random",
    }


def _report(rows):
    return {
        "tool": {"name": "tabtune", "version": "0"},
        "created_unix": 0.0,
        "k": 3,
        "seeds": {"fold": 0, "search": 0},
        "config": {},
        "families": [_family(*row) for row in rows],
        "errors": {},
        "final": {"family": rows[0][0], "config": {}, "test_accuracy": rows[0][2]},
        "trials": {},
        "trials_truncated": False,
    }


def test_table_row_formatting_fixture():
    report = _report([
        ("RF", 0.8524, 0.8834, 0.8837),
        ("XGBish", 0.89, 0.91, 0.92),  # keeps RF cells off the column maxima
    ])
    report["families"][1]["family"] = "GBT"
    text = render_table(report)
    assert "| RF | 85.24 | 88.34 | 88.37 |" in text.splitlines()


def test_table_without_references_has_four_columns():
    report = _report([("DT", 0.8, 0.85, 0.84)])
    header = render_table(report).splitlines()[0]
    assert header.count("|") == 5  # 4 cells plus leading/trailing pipes
    assert [c.strip() for c in header.split("|")[1:-1]] == [
        "Classifier", "Baseline", "GS", "RS",
    ]


def test_table_bolds_column_maxima_with_ties():
    report = _report([
        ("DT", 0.7, 0.7, 0.7),
        ("NB", 0.7, 0.7, 0.7),
    ])
    lines = render_table(report).splitlines()
    for line in lines[2:]:
        assert line.count("**70.00**") == 3  # every cell ties the max


def test_table_rows_follow_report_family_order():
    report = _report([("KNN", 0.7, 0.72, 0.71), ("DT", 0.8, 0.82, 0.81)])
    rows = render_table(report).splitlines()[2:]
    assert rows[0].startswith("| KNN |")
    assert rows[1].startswith("| DT |")


def test_table_reference_columns():
    report = _report([("DT", 0.8, 0.82, 0.81), ("NB", 0.6, 0.65, 0.64)])
    report["config"]["references"] = {"prior work": {"DT": 86.78}}
    text = render_table(report)
    header = text.splitlines()[0]
    assert "prior work" in header
    rows = text.splitlines()[2:]
    assert "**86.78**" in rows[0]
    assert rows[1].strip().endswith("| - |")


def test_a_reference_labelled_like_a_tuned_column_keeps_its_own_column():
    # the config refuses these labels; a report edited by hand still renders
    # every column from its own values
    report = _report([("NB", 0.5, 0.6, 0.55)])
    report["config"]["references"] = {"GS": {"NB": 10}}
    rows = render_table(report).splitlines()
    assert rows[0] == "| Classifier | Baseline | GS | RS | GS |"
    assert rows[2] == "| NB | **50.00** | **60.00** | **55.00** | **10.00** |"
    assert "<title>NB GS 60.00%</title>" in render_chart(report)


def test_reference_labels_are_escaped_in_table_and_chart():
    report = _report([("DT", 0.8, 0.82, 0.81), ("NB", 0.6, 0.65, 0.64)])
    labels = ["Smith & Lee <2019>", "a|b", "x]]>y"]
    report["config"]["references"] = {label: {"DT": 80.0} for label in labels}
    svg = xml.dom.minidom.parseString(render_chart(report))
    texts = [node.firstChild.data for node in svg.getElementsByTagName("text")]
    titles = [node.firstChild.data for node in svg.getElementsByTagName("title")]
    for label in labels:
        assert label in texts  # the legend
        assert f"DT {label} 80.00%" in titles
    lines = render_table(report).splitlines()
    # a cell boundary is a pipe that no backslash escapes: 7 cells, 8 boundaries
    assert {len(re.split(r"(?<!\\)\|", line)) for line in lines} == {9}
    assert r"| a\|b |" in lines[0]


def test_rendered_values_match_report_to_two_decimals():
    values = (0.71239, 0.80771, 0.8123)
    report = _report([("KNN", *values)])
    table = render_table(report)
    chart = render_chart(report)
    for v in values:
        assert f"{v * 100:.2f}" in table
        assert f"{v * 100:.2f}%" in chart


def test_chart_has_one_bar_per_family_method_pair():
    rows = [(f, 0.7, 0.8, 0.75) for f in ("DT", "RF", "NB", "LR", "KNN", "SVM", "GBT")]
    chart = render_chart(_report(rows))
    assert chart.count('class="bar"') == 21
    assert "accuracy (%)" in chart
    assert "classifier" in chart
    assert chart.startswith("<svg ")


def test_chart_zero_accuracy_keeps_bar_and_label():
    report = _report([("DT", 0.0, 0.8, 0.75)])
    chart = render_chart(report)
    assert chart.count('class="bar"') == 3
    assert "<title>DT Baseline 0.00%</title>" in chart
    assert 'height="0.0"' in chart


def test_chart_is_byte_deterministic():
    report = _report([("DT", 0.71, 0.8, 0.75), ("NB", 0.6, 0.62, 0.66)])
    assert render_chart(report) == render_chart(report)
    assert render_table(report) == render_table(report)


def test_strip_volatile_removes_timing_fields():
    report = _report([("DT", 0.7, 0.8, 0.75)])
    stripped = strip_volatile(report)
    assert "created_unix" not in stripped
    assert "duration_seconds" not in stripped["families"][0]["baseline"]
    assert "total_seconds" not in stripped["families"][0]["grid"]
    # non-volatile content is preserved
    assert stripped["families"][0]["baseline"]["mean_accuracy"] == 0.7


def _schema_property_names(node):
    if isinstance(node, dict):
        names = set(node.get("properties", {}))
        for value in node.values():
            names |= _schema_property_names(value)
        return names
    if isinstance(node, list):
        return set().union(*map(_schema_property_names, node))
    return set()


def test_volatile_keys_are_the_schema_timing_fields():
    # a misspelt volatile key would leave a timing in the compared report
    defined = _schema_property_names(SCHEMA)
    assert _VOLATILE_KEYS <= defined
    timings = {name for name in defined
               if name.endswith("_seconds") or name == "created_unix"}
    assert timings <= _VOLATILE_KEYS
