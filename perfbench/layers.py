"""Per-layer metrics and the trace self-check, computed from the spans that
``traced.py`` writes.

A model ``fit``/``predict`` span is top level when its parent is a
``classifiers.train`` or ``classifiers.predict`` span; the trees that RF
grows and queries are nested under RF's own span and are counted only in
``classifiers.RF.tree_fits``.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path

from tabtune.classifiers import FAMILIES
from workloads import K

#: Per-layer metric names and units, in the order they are reported.
LAYER_METRICS = (
    [
        ("tabular.load_csv_s", "s"),
        ("tabular.filter_rows_s", "s"),
        ("tabular.split_s", "s"),
        ("preprocess.fit_plan_s", "s"),
        ("preprocess.apply_plan_s", "s"),
        ("preprocess.take_s", "s"),
        ("preprocess.take_calls", "count"),
        ("hpspace.configs", "count"),
        ("hpspace.enumerate_s", "s"),
        ("tuner.trials", "count"),
        ("tuner.unique_trial_ratio", "ratio"),
        ("tuner.pool_overhead_s", "s"),
        ("tuner.worker_busy_ratio", "ratio"),
    ]
    + [(f"tuner.trial_s_p50.{f}", "s") for f in FAMILIES]
    + [(f"tuner.search_s.{f}", "s") for f in FAMILIES]
    + [(f"classifiers.fit_s.{f}", "s") for f in FAMILIES]
    + [(f"classifiers.predict_s.{f}", "s") for f in FAMILIES]
    + [(f"classifiers.fits.{f}", "count") for f in FAMILIES]
    + [
        ("classifiers.RF.tree_fits", "count"),
        ("classifiers.train_overhead_s", "s"),
        ("classifiers.useful_rows_ratio", "ratio"),
        ("report.render_s", "s"),
        ("cli.data_s", "s"),
        ("cli.output_s", "s"),
        ("trace.overhead_s", "s"),
    ]
)


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "attrs", "error", "pid")

    def __init__(self, row):
        self.id, self.parent, self.name, self.start, self.end, attrs, self.error = row
        self.attrs = attrs or {}
        self.pid = int(self.id.split(":")[0])

    @property
    def seconds(self) -> float:
        return (self.end - self.start) / 1e9


def load_spans(spans_dir: Path) -> list:
    spans = []
    for path in sorted(spans_dir.glob("spans-*.jsonl")):
        for line in path.read_text(encoding="utf-8").splitlines():
            spans.append(Span(json.loads(line)))
    return spans


def _index(spans):
    by_name = defaultdict(list)
    by_id = {}
    for span in spans:
        by_name[span.name].append(span)
        by_id[span.id] = span
    return by_name, by_id


def _total(spans) -> float:
    return sum(span.seconds for span in spans)


def _parent_name(span, by_id):
    parent = by_id.get(span.parent)
    return parent.name if parent else None


def layer_metrics(spans) -> dict:
    """Metric name -> value for every name in LAYER_METRICS except the
    tracing overhead, which the caller measures."""
    by_name, by_id = _index(spans)
    m = {}
    m["tabular.load_csv_s"] = _total(by_name["tabular.load_csv"])
    m["tabular.filter_rows_s"] = _total(by_name["tabular.filter_rows"])
    m["tabular.split_s"] = _total(by_name["tabular.split"])
    m["preprocess.fit_plan_s"] = _total(by_name["preprocess.fit_plan"])
    m["preprocess.apply_plan_s"] = _total(by_name["preprocess.apply_plan"])
    m["preprocess.take_s"] = _total(by_name["preprocess.take"])
    m["preprocess.take_calls"] = len(by_name["preprocess.take"])

    enumerations = by_name["hpspace.grid_enumerate"] + by_name["hpspace.random_sample"]
    m["hpspace.configs"] = sum(span.attrs["count"] for span in enumerations)
    m["hpspace.enumerate_s"] = _total(enumerations)

    trials = by_name["tuner.cross_val_trial"]
    m["tuner.trials"] = len(trials)
    distinct = {(span.attrs["family"], span.attrs["config"]) for span in trials}
    m["tuner.unique_trial_ratio"] = len(distinct) / len(trials) if trials else 0.0

    # a search's capacity is its wall time times the processes that could
    # run trials: the pool size when a pool was used, else the main process
    overhead = busy_total = capacity = 0.0
    trials_by_parent = defaultdict(list)
    for span in trials:
        trials_by_parent[span.parent].append(span)
    for search in by_name["tuner.evaluate_configs"]:
        tasks, workers = search.attrs["tasks"], search.attrs["workers"]
        slots = min(workers, tasks) if workers > 1 and tasks > 1 else 1
        busy = _total(trials_by_parent[search.id])
        overhead += search.seconds - busy / slots
        busy_total += busy
        capacity += search.seconds * slots
    m["tuner.pool_overhead_s"] = overhead
    m["tuner.worker_busy_ratio"] = busy_total / capacity if capacity else 0.0

    searches = (by_name["tuner.evaluate_baseline"] + by_name["tuner.grid_search"]
                + by_name["tuner.random_search"])
    for family in FAMILIES:
        durations = [s.seconds for s in trials if s.attrs["family"] == family]
        m[f"tuner.trial_s_p50.{family}"] = statistics.median(durations) if durations else 0.0
        m[f"tuner.search_s.{family}"] = _total(
            s for s in searches if s.attrs["family"] == family)

    fits = [s for s in by_name["model.fit"] if _parent_name(s, by_id) == "classifiers.train"]
    predicts = [s for s in by_name["model.predict"]
                if _parent_name(s, by_id) in ("classifiers.train", "classifiers.predict")]
    for family in FAMILIES:
        family_fits = [s for s in fits if s.attrs["family"] == family]
        m[f"classifiers.fit_s.{family}"] = _total(family_fits)
        m[f"classifiers.predict_s.{family}"] = _total(
            s for s in predicts if s.attrs["family"] == family)
        m[f"classifiers.fits.{family}"] = len(family_fits)
    m["classifiers.RF.tree_fits"] = sum(
        1 for s in by_name["model.fit"]
        if s.attrs["family"] == "DT"
        and (parent := by_id.get(s.parent)) is not None
        and parent.name == "model.fit" and parent.attrs["family"] == "RF"
    )
    m["classifiers.train_overhead_s"] = _total(by_name["classifiers.train"]) - _total(fits)
    rows_all = sum(s.attrs["rows"] for s in predicts)
    rows_useful = sum(s.attrs["rows"] for s in predicts
                      if _parent_name(s, by_id) == "classifiers.predict")
    m["classifiers.useful_rows_ratio"] = rows_useful / rows_all if rows_all else 0.0

    m["report.render_s"] = _total(by_name["report.render_table"] + by_name["report.render_chart"])
    (cmd_run,) = by_name["cli.cmd_run"]
    (tuning,) = by_name["tuner.grs_auto_hp"]
    m["cli.data_s"] = (tuning.start - cmd_run.start) / 1e9
    m["cli.output_s"] = (cmd_run.end - tuning.end) / 1e9 - m["report.render_s"]
    return m


def self_check(spans, main_pid: int, report: dict, pool_used: bool) -> list:
    """Problems found when the spans are compared with the report."""
    problems = []
    by_name, _ = _index(spans)
    report_trials = sum(
        1 + entry["grid"]["n_trials"] + entry["random"]["n_trials"]
        for entry in report["families"]
    )
    trials = by_name["tuner.cross_val_trial"]
    if len(trials) != report_trials:
        problems.append(
            f"{len(trials)} tuner.cross_val_trial spans, report has {report_trials} trials")

    trains = by_name["classifiers.train"]
    single_class = sum(1 for s in trains if s.error == "SingleClassError")
    other_errors = sorted({s.error for s in trains if s.error not in (None, "SingleClassError")})
    if other_errors:
        problems.append(f"classifiers.train raised {other_errors}")
    completed = len(trains) - single_class
    expected = report_trials * K + 1 - single_class
    if completed != expected:
        problems.append(
            f"{completed} completed classifiers.train spans, expected "
            f"{report_trials} trials x {K} folds + 1 refit - {single_class} single-class")

    worker_trials = sum(1 for s in trials if s.pid != main_pid)
    if pool_used and worker_trials == 0:
        problems.append("no tuner.cross_val_trial span came from a pool worker")
    if not pool_used and worker_trials:
        problems.append(f"{worker_trials} trial spans from other processes without a pool")
    return problems


def worker_processes(spans, main_pid: int) -> int:
    """Most pool processes that ran trials for one search: the worker count
    the run actually used (0 when every trial ran in the main process)."""
    pids = defaultdict(set)
    for span in spans:
        if span.name == "tuner.cross_val_trial" and span.pid != main_pid:
            pids[span.parent].add(span.pid)
    return max((len(p) for p in pids.values()), default=0)
