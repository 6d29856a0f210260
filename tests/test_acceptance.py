"""Acceptance suite: one test per acceptance criterion, each printing a
PASS/FAIL line (visible with ``pytest tests/test_acceptance.py -v -s``).

The headline numbers of the original study are not reproducible (its data
set is proprietary and the preprocessing under-specified), so these checks
are property-based plus desk-scale analogs of its qualitative claims.
"""

import itertools
import json
import time
from pathlib import Path

import numpy as np
import pytest

from oracles import brute_force_split, knn_oracle, nb_oracle

from tabtune import classifiers
from tabtune.classifiers.bayes import GaussianNaiveBayes
from tabtune.classifiers.boosting import GradientBoostedTrees
from tabtune.classifiers.linear import logloss_gradient, logloss_value
from tabtune.classifiers.neighbors import KNearestNeighbors
from tabtune.classifiers.tree import best_split
from tabtune.cli import main
from tabtune.hpspace import ParamSpec, SearchSpace, grid_enumerate, grid_size, space_from_config
from tabtune.preprocess import make_design_matrix, preprocess_split
from tabtune.report import strip_volatile
from tabtune.tabular import generate_synthetic, split_train_test
from tabtune.tuner import evaluate_baseline, grid_search, random_search, shuffle_kfold

FIXTURES = Path(__file__).parent / "fixtures"
SCHEMAS = Path(__file__).parent.parent / "src" / "tabtune"


def _criterion(name, budget_seconds, check):
    started = time.perf_counter()
    try:
        check()
        elapsed = time.perf_counter() - started
        assert elapsed < budget_seconds, f"{name}: {elapsed:.1f}s exceeds {budget_seconds}s"
    except BaseException:
        print(f"FAIL {name}")
        raise
    print(f"PASS {name} ({time.perf_counter() - started:.1f}s)")


# spaces used by the improvement and dominance criteria; every family's
# default configuration lies exactly on its grid
_SPACES = {
    "DT": {"max_depth": {"lo": 2, "hi": 14, "step": 4}},
    "RF": {"n_estimators": {"lo": 30, "hi": 50, "step": 20},
           "max_depth": {"lo": 6, "hi": 14, "step": 4}},
    "NB": {"var_smoothing_exp": {"lo": -12, "hi": -6}},
    "LR": {"learning_rate": {"lo": 0.1, "hi": 0.9, "step": 0.4}},
    "KNN": {"n_neighbors": {"lo": 5, "hi": 23, "step": 6}},
    "SVM": {"c": {"lo": 0.5, "hi": 4.0, "step": 0.5}},
    "GBT": {"n_estimators": {"lo": 25, "hi": 50, "step": 25},
            "learning_rate": {"lo": 0.3, "hi": 1.0, "step": 0.35}},
}
_ALL_FAMILIES = ("DT", "RF", "NB", "LR", "KNN", "SVM", "GBT")


def _tuning_matrices(n_rows, seed):
    table = generate_synthetic(n_rows, seed=seed, positive_rate=0.5)
    split = split_train_test(table, 0.75, seed=seed)
    return preprocess_split(split, 0.6, "minmax")


def test_grid_correctness():
    def check():
        space = SearchSpace(
            "demo",
            (
                ParamSpec("x", "continuous", 0.0, 1.0, step=0.5),
                ParamSpec("k", "integer", 1, 3, step=1),
                ParamSpec("c", "categorical", choices=("u", "v")),
            ),
        )
        configs = grid_enumerate(space)
        assert len(configs) == 18
        assert grid_size(space) == 18
        as_tuples = [tuple(cfg.items()) for cfg in configs]
        assert len(set(as_tuples)) == 18
        expected = [
            {"x": x, "k": k, "c": c}
            for x, k, c in itertools.product([0.0, 0.5, 1.0], [1, 2, 3], ["u", "v"])
        ]
        assert configs == expected  # lexicographic in (param order, value order)

    _criterion("grid-correctness", 1.0, check)


def test_step_rule_fidelity():
    def check():
        spec = ParamSpec("n_estimators", "integer", 5, 100)  # no explicit step
        values = spec.grid_values()
        assert values == list(range(5, 101, 5))
        assert len(values) == 20

    _criterion("step-rule-fidelity", 1.0, check)


def test_cv_correctness():
    def check():
        for n in range(2, 101):
            # each row's label is its index, so the parts' rows read back
            rows = make_design_matrix(np.zeros((n, 1)), ("x",), np.arange(n))
            for k in (2, 3, 5):
                if k > n:
                    continue
                for seed in range(10):
                    folds = shuffle_kfold(rows, k, seed)
                    assert len(folds) == k
                    counts = np.array([eval_part.n_rows for _, eval_part in folds])
                    assert counts.sum() == n
                    held = np.concatenate([eval_part.labels for _, eval_part in folds])
                    assert np.array_equal(np.sort(held), np.arange(n))
                    for fit_part, eval_part in folds:
                        assert np.array_equal(np.union1d(fit_part.labels, eval_part.labels),
                                              np.arange(n))
                        assert fit_part.n_rows + eval_part.n_rows == n
                    assert counts.max() - counts.min() <= 1

    _criterion("cv-correctness", 5.0, check)


def test_classifier_oracles():
    def check():
        rng = np.random.default_rng(2024)
        # KNN against brute force, both weightings
        for trial in range(50):
            n = int(rng.integers(5, 200))
            d = int(rng.integers(1, 10))
            train_X = rng.normal(size=(n, d))
            train_y = rng.integers(0, 2, n)
            test_X = rng.normal(size=(15, d))
            k = int(rng.integers(1, min(n, 25) + 1))
            weighting = "uniform" if trial % 2 == 0 else "distance"
            model = KNearestNeighbors(n_neighbors=k, weighting=weighting).fit(train_X, train_y)
            assert np.array_equal(
                model.predict(test_X), knn_oracle(train_X, train_y, test_X, k, weighting)
            )
        # NB against exhaustive log-posterior
        done = 0
        while done < 20:
            n = int(rng.integers(6, 50))
            d = int(rng.integers(1, 5))
            X = rng.normal(size=(n, d))
            y = rng.integers(0, 2, n)
            if y.min() == y.max():
                continue
            exponent = float(rng.uniform(-12, -6))
            model = GaussianNaiveBayes(var_smoothing_exp=exponent).fit(X, y)
            assert np.array_equal(model.predict(X), nb_oracle(X, y, X, exponent))
            done += 1
        # LR gradient against central finite differences
        X = rng.normal(size=(40, 4))
        y = rng.integers(0, 2, 40)
        data = make_design_matrix(X, tuple(f"f{j}" for j in range(4)), y)
        h = 1e-5
        for _ in range(10):
            w = rng.normal(scale=0.8, size=5)
            l2 = float(rng.uniform(0.0, 2.0))
            grad = logloss_gradient(w, data, l2)
            for j in range(5):
                bumped = w.copy()
                bumped[j] += h
                up = logloss_value(bumped, data, l2)
                bumped[j] -= 2 * h
                down = logloss_value(bumped, data, l2)
                numeric = (up - down) / (2 * h)
                denom = max(abs(numeric), abs(grad[j]), 1e-8)
                assert abs(grad[j] - numeric) / denom < 1e-4
        # DT split search against brute-force threshold enumeration
        for trial in range(50):
            n = int(rng.integers(2, 50))
            x = np.round(rng.normal(size=n), 1)
            y = rng.integers(0, 2, n)
            criterion = "gini" if trial % 2 == 0 else "entropy"
            got = best_split(x, y, criterion)
            expected = brute_force_split(x, y, criterion)
            if expected is None:
                assert got is None
            else:
                assert got is not None
                assert got[0] == pytest.approx(expected[0])
                assert got[1] == pytest.approx(expected[1], abs=1e-12)

    _criterion("classifier-oracles", 60.0, check)


def test_improvement_claim():
    def check():
        seeds = (101, 202, 303, 404, 505)
        baseline_sums = {f: 0.0 for f in _ALL_FAMILIES}
        tuned_sums = {f: 0.0 for f in _ALL_FAMILIES}
        for seed in seeds:
            train, _ = _tuning_matrices(2000, seed)
            folds = shuffle_kfold(train, 3, seed)
            for family in _ALL_FAMILIES:
                space = space_from_config(family, _SPACES[family])
                baseline = evaluate_baseline(family, folds, seed)
                gs_best, _ = grid_search(family, space, folds, seed)
                rs_best, _ = random_search(family, space, min(grid_size(space), 8), folds, seed)
                baseline_sums[family] += baseline["mean_accuracy"]
                tuned_sums[family] += max(gs_best["mean_accuracy"], rs_best["mean_accuracy"])
        strictly_better = 0
        for family in _ALL_FAMILIES:
            avg_baseline = baseline_sums[family] / len(seeds)
            avg_tuned = tuned_sums[family] / len(seeds)
            assert avg_tuned >= avg_baseline - 0.005, (
                f"{family}: tuned {avg_tuned:.4f} vs baseline {avg_baseline:.4f}"
            )
            if avg_tuned > avg_baseline:
                strictly_better += 1
        assert strictly_better >= 4, f"only {strictly_better} of 7 improved strictly"

    _criterion("improvement-claim", 300.0, check)


def test_baseline_dominance():
    def check():
        train, _ = _tuning_matrices(1200, 77)
        folds = shuffle_kfold(train, 3, 77)
        for family in _ALL_FAMILIES:
            space = space_from_config(family, _SPACES[family])
            configs = grid_enumerate(space)
            assert classifiers.default_config(family) in configs, family
            baseline = evaluate_baseline(family, folds, 77)
            gs_best, _ = grid_search(family, space, folds, 77)
            assert gs_best["mean_accuracy"] >= baseline["mean_accuracy"], family

    _criterion("baseline-dominance", 180.0, check)


def test_determinism_and_parallel_soundness(tmp_path):
    def check():
        def config_doc(workers):
            return {
                "data": {"synthetic": {"rows": 400, "seed": 19, "positive_rate": 0.5}},
                "split": {"train_fraction": 0.75, "seed": 4},
                "tuner": {
                    "families": ["DT", "NB", "KNN"],
                    "spaces": {
                        "DT": {"max_depth": {"lo": 2, "hi": 8, "step": 3}},
                        "KNN": {"n_neighbors": {"lo": 3, "hi": 11, "step": 4}},
                    },
                    "k": 3,
                    "fold_seed": 6,
                    "search_seed": 8,
                    "workers": workers,
                },
                "output": {"report": str(tmp_path / "report.json")},
            }

        def run(doc, name):
            path = tmp_path / name
            path.write_text(json.dumps(doc), encoding="utf-8")
            assert main(["run", str(path)]) == 0
            return json.loads((tmp_path / "report.json").read_text())

        first = run(config_doc(workers=1), "sequential.json")
        second = run(config_doc(workers=1), "sequential.json")
        assert strip_volatile(first) == strip_volatile(second)
        parallel = run(config_doc(workers=2), "parallel.json")
        assert strip_volatile(first) == strip_volatile(parallel)

    _criterion("determinism-and-parallel-soundness", 300.0, check)


def test_end_to_end_run(tmp_path):
    def check():
        doc = {
            "data": {"csv": {"path": str(FIXTURES / "students_500.csv"), "target": "graduated"}},
            "preprocess": {"missing_threshold": 0.6, "scaling": "minmax"},
            "split": {"train_fraction": 0.75, "seed": 5},
            "tuner": {
                "families": list(_ALL_FAMILIES),
                "spaces": {
                    "DT": {"max_depth": {"lo": 4, "hi": 10, "step": 3}},
                    "RF": {"n_estimators": {"lo": 5, "hi": 15, "step": 5}},
                    "NB": {"var_smoothing_exp": {"lo": -12, "hi": -6, "step": 2}},
                    "LR": {"learning_rate": {"lo": 0.1, "hi": 0.9, "step": 0.4}},
                    "KNN": {"n_neighbors": {"lo": 3, "hi": 11, "step": 4}},
                    "SVM": {"c": {"lo": 0.5, "hi": 2.5, "step": 1.0}},
                    "GBT": {"n_estimators": {"lo": 5, "hi": 15, "step": 10}},
                },
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
        config_path = tmp_path / "e2e.json"
        config_path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["run", str(config_path)]) == 0

        import jsonschema

        report = json.loads((tmp_path / "report.json").read_text())
        schema = json.loads((SCHEMAS / "report.schema.json").read_text())
        jsonschema.validate(report, schema)
        assert len(report["families"]) == 7

        table_lines = (tmp_path / "table.md").read_text().splitlines()
        header = [c.strip() for c in table_lines[0].split("|")[1:-1]]
        assert header == ["Classifier", "Baseline", "GS", "RS"]
        assert len(table_lines) == 2 + 7  # header, separator, one row per family

        chart = (tmp_path / "chart.svg").read_text()
        assert chart.count('class="bar"') == 21

    _criterion("end-to-end", 120.0, check)


def test_gbt_monotonicity():
    def check():
        rng = np.random.default_rng(88)
        for _ in range(10):
            n = int(rng.integers(50, 150))
            d = int(rng.integers(2, 6))
            X = rng.normal(size=(n, d))
            noise = rng.random(n) < 0.15
            y = ((X[:, 0] - 0.5 * X[:, 1] > 0) ^ noise).astype(np.int64)
            if y.min() == y.max():
                y[0] = 1 - y[0]
            booster = GradientBoostedTrees(
                n_estimators=int(rng.integers(10, 60)),
                learning_rate=float(rng.uniform(0.05, 1.0)),
                max_depth=int(rng.integers(1, 5)),
            ).fit(X, y)
            losses = booster.stage_logloss_
            assert all(b <= a for a, b in zip(losses, losses[1:]))

    _criterion("gbt-monotonicity", 30.0, check)
