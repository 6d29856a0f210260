"""Benchmark workloads and the inputs they are run on.

Every input is made here from the workload seed: the CSV comes from this
module's own generator (numpy only, independent of ``tabtune.tabular``), so
a change to tabtune cannot change what it is measured on. Each workload
stresses a different layer:

- ``tree_sweep``: DT, RF and GBT on few rows. Tree growing, per-node
  overhead and ``n_estimators`` prefixes dominate; every default config lies
  on its grid, so the duplicated baseline trial shows. No KNN or linear code
  runs.
- ``dense_sweep``: NB, LR, KNN and SVM. KNN's distance/sort and vote loop,
  the train-accuracy predictions and the epoch prefixes dominate. No tree
  code runs.
- ``csv_pipeline``: a large CSV filtered on a categorical column, zscore
  scaling and two pool workers. The only workload that exercises the
  process pool, CSV ingest, filtering and preprocessing at scale; its DT
  grows shallow trees on many rows, the opposite use of the tree layer from
  ``tree_sweep``.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

#: CV folds and train share of the split, the same for every workload.
K = 3
TRAIN_FRACTION = 0.75
#: Random-search draws decide how much work a run does (RF and GBT
#: ``n_estimators``, LR and SVM ``epochs``), so they are drawn from this one
#: seed; the workload seed still makes the data, the split and the folds.
SEARCH_SEED = 2

TARGET = "graduated"
_MAJORS = ("CE", "CS", "IT", "MATH", "SE")
_MAJOR_P = (0.20, 0.43, 0.10, 0.075, 0.195)
_MAJOR_BOOST = (0.10, 0.20, -0.10, 0.05, 0.0)
_SEXES = ("F", "M")
_RACES = ("asian", "black", "hispanic", "other", "white")
_RACE_P = (0.12, 0.14, 0.20, 0.09, 0.45)
_MISSING_RATE = 0.02


@dataclass(frozen=True)
class Workload:
    name: str
    rows: int
    smoke_rows: int
    positive_rate: float
    scaling: str
    workers: int
    spaces: dict
    #: (grid size, random-search budget) per family; the default budget is
    #: the grid size, so both numbers are the product of the value counts.
    expected_trials: dict
    keep_majors: tuple = ()

    @property
    def families(self) -> tuple:
        return tuple(self.spaces)

    def trials(self) -> int:
        """CV trials in one report: baseline + grid + random per family."""
        return sum(1 + grid + budget for grid, budget in self.expected_trials.values())


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="tree_sweep",
            rows=500,
            smoke_rows=120,
            positive_rate=0.5,
            scaling="minmax",
            workers=1,
            spaces={
                "DT": {"max_depth": {"lo": 2, "hi": 14, "step": 4},
                       "criterion": {"choices": ["gini", "entropy"]}},
                "RF": {"n_estimators": {"lo": 30, "hi": 50, "step": 20},
                       "max_depth": {"lo": 6, "hi": 10, "step": 4}},
                "GBT": {"n_estimators": {"lo": 25, "hi": 50, "step": 25},
                        "learning_rate": {"lo": 0.3, "hi": 1.0, "step": 0.35}},
            },
            expected_trials={"DT": (8, 8), "RF": (4, 4), "GBT": (6, 6)},
        ),
        Workload(
            name="dense_sweep",
            rows=2000,
            smoke_rows=150,
            positive_rate=0.5,
            scaling="minmax",
            workers=1,
            spaces={
                "NB": {"var_smoothing_exp": {"lo": -12, "hi": -6}},
                "LR": {"learning_rate": {"lo": 0.1, "hi": 0.9, "step": 0.4},
                       "epochs": {"lo": 50, "hi": 200, "step": 50}},
                "KNN": {"n_neighbors": {"lo": 5, "hi": 23, "step": 6},
                        "weighting": {"choices": ["uniform", "distance"]}},
                "SVM": {"c": {"lo": 0.5, "hi": 4.0, "step": 0.5},
                        "epochs": {"lo": 50, "hi": 100, "step": 50}},
            },
            expected_trials={"NB": (13, 13), "LR": (12, 12), "KNN": (8, 8), "SVM": (16, 16)},
        ),
        Workload(
            name="csv_pipeline",
            rows=40_000,
            smoke_rows=600,
            positive_rate=0.4,
            scaling="zscore",
            workers=2,
            keep_majors=("CS", "CE", "SE"),
            spaces={
                "NB": {"var_smoothing_exp": {"lo": -12, "hi": -6}},
                "LR": {"learning_rate": {"lo": 0.1, "hi": 0.9, "step": 0.4}},
                "SVM": {"c": {"lo": 0.5, "hi": 4.0, "step": 1.75}},
                "DT": {"max_depth": {"lo": 2, "hi": 6, "step": 2}},
            },
            expected_trials={"NB": (13, 13), "LR": (3, 3), "SVM": (3, 3), "DT": (3, 3)},
        ),
    )
}


def write_students_csv(path, rows: int, seed: int, positive_rate: float) -> None:
    """Student-records CSV with a learnable label and ~2% missing cells.

    The label is ``yes`` for rows whose latent score reaches the
    (1 - positive_rate) quantile, so the positive share tracks
    ``positive_rate``. Deterministic per (rows, seed, positive_rate).
    """
    rng = np.random.default_rng([seed, rows])
    gpa = np.clip(rng.normal(3.0, 0.45, rows), 1.5, 4.0)
    credits = np.clip(rng.normal(30.0, 7.0, rows), 6.0, 48.0)
    age = np.clip(rng.normal(18.6, 1.8, rows), 16.0, 35.0)
    sex = rng.integers(0, len(_SEXES), rows)
    race = rng.choice(len(_RACES), rows, p=_RACE_P)
    major = rng.choice(len(_MAJORS), rows, p=_MAJOR_P)
    score = (
        1.5 * (gpa - 3.0)
        + 0.05 * (credits - 30.0)
        - 0.12 * (age - 18.6)
        + np.asarray(_MAJOR_BOOST)[major]
        + rng.normal(0.0, 0.9, rows)
    )
    label = score >= np.quantile(score, 1.0 - positive_rate)
    # the filter column is never missing, so the filtered row count is exact
    missing = rng.random((rows, 5)) < _MISSING_RATE

    columns = (
        [f"{v:.4f}" for v in gpa],
        [f"{v:.2f}" for v in credits],
        [f"{v:.2f}" for v in age],
        [_SEXES[i] for i in sex],
        [_RACES[i] for i in race],
    )
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["entry_gpa", "credits_attempted", "age", "sex",
                         "race_ethnicity", "first_major", TARGET])
        for i in range(rows):
            cells = ["" if missing[i, j] else col[i] for j, col in enumerate(columns)]
            writer.writerow(cells + [_MAJORS[major[i]], "yes" if label[i] else "no"])


def write_run_config(path, workload: Workload, seed: int, csv_path, out_dir,
                     workers=None) -> None:
    """Write the ``tabtune run`` config for one workload and seed."""
    csv_section = {"path": str(csv_path), "target": TARGET}
    if workload.keep_majors:
        csv_section["filter"] = {"column": "first_major", "allowed": list(workload.keep_majors)}
    doc = {
        "data": {"csv": csv_section},
        "preprocess": {"missing_threshold": 0.6, "scaling": workload.scaling},
        "split": {"train_fraction": TRAIN_FRACTION, "seed": seed},
        "tuner": {
            "families": list(workload.families),
            "spaces": workload.spaces,
            "k": K,
            "fold_seed": seed + 1,
            "search_seed": SEARCH_SEED,
            "workers": workload.workers if workers is None else workers,
        },
        "output": {
            "report": str(out_dir / "report.json"),
            "table": str(out_dir / "table.md"),
            "chart": str(out_dir / "chart.svg"),
        },
    }
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
