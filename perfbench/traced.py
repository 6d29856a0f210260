"""Run the tabtune CLI with a span recorded around each layer boundary.

Usage: python3 traced.py <spans_dir> run <config.json>

The wrappers are installed from outside the program: each public function
is replaced where it is looked up (``cli`` and ``tuner`` bind their imports
by name, so ``tabtune.cli.load_csv`` is wrapped, not
``tabtune.tabular.load_csv``), and model classes get wrapped ``fit`` and
``predict`` methods. Pool workers are forked and inherit the wrappers; they
leave through ``os._exit``, so no exit hook runs there and each worker
appends its spans to ``spans-<pid>.jsonl`` whenever its outermost span ends.
The main process writes its own file once the CLI returns.

A span line is ``[id, parent_id, name, start_ns, end_ns, attrs, error]``
where ids are ``"pid:n"`` strings and ``error`` is an exception type name or
null.
"""

from __future__ import annotations

import functools
import json
import multiprocessing
import os
import sys
import time


#: The model class each family code trains; model spans carry the code.
MODEL_CLASSES = {
    "DT": "DecisionTree",
    "RF": "RandomForest",
    "NB": "GaussianNaiveBayes",
    "LR": "LogisticRegression",
    "KNN": "KNearestNeighbors",
    "SVM": "LinearSVM",
    "GBT": "GradientBoostedTrees",
}


class Tracer:
    def __init__(self, spans_dir: str):
        self.spans_dir = spans_dir
        self.main_pid = os.getpid()
        self.root_parent = None
        self.stack = []
        self.done = []
        self.counter = 0
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self):
        # a forked worker starts inside the span that created its pool
        self.root_parent = self.stack[-1] if self.stack else self.root_parent
        self.stack = []
        self.done = []

    def wrap(self, fn, name, attrs=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.counter += 1
            span_id = f"{os.getpid()}:{tracer.counter}"
            parent = tracer.stack[-1] if tracer.stack else tracer.root_parent
            tracer.stack.append(span_id)
            result = error = None
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter_ns()
                tracer.stack.pop()
                extra = attrs(result, *args, **kwargs) if attrs else None
                tracer.done.append([span_id, parent, name, start, end, extra, error])
                if not tracer.stack and os.getpid() != tracer.main_pid:
                    tracer.flush()

        return traced

    def flush(self):
        if not self.done:
            return
        path = os.path.join(self.spans_dir, f"spans-{os.getpid()}.jsonl")
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("".join(json.dumps(span) + "\n" for span in self.done))
        self.done = []


def _family_of_first(result, family, *args, **kwargs):
    return {"family": family}


def _spec_family(result, spec, *args, **kwargs):
    return {"family": spec.family}


def _trial_attrs(result, spec, *args, **kwargs):
    return {"family": spec.family, "config": json.dumps(spec.config, sort_keys=True)}


def _evaluate_attrs(result, family, configs, train, folds, seed, workers):
    return {"family": family, "tasks": len(configs), "workers": workers}


def _model_attrs(family):
    def fit_attrs(result, *args, **kwargs):
        return {"family": family}

    def predict_attrs(result, model, X, *args, **kwargs):
        return {"family": family, "rows": len(X)}

    return fit_attrs, predict_attrs


def _start_method(result, *args, **kwargs):
    return {"start_method": multiprocessing.get_start_method()}


def _count(result, *args, **kwargs):
    return {"count": len(result) if result is not None else 0}


def install(tracer: Tracer) -> None:
    import tabtune.classifiers as classifiers
    import tabtune.cli as cli
    import tabtune.tuner as tuner
    from tabtune.preprocess import DesignMatrix

    def patch(owner, attr, name, attrs=None):
        setattr(owner, attr, tracer.wrap(getattr(owner, attr), name, attrs))

    patch(cli, "cmd_run", "cli.cmd_run", _start_method)
    for attr in ("load_csv", "filter_rows"):
        patch(cli, attr, f"tabular.{attr}")
    patch(cli, "split_train_test", "tabular.split")
    for attr in ("fit_plan", "apply_plan"):
        patch(cli, attr, f"preprocess.{attr}")
    for attr in ("render_table", "render_chart"):
        patch(cli, attr, f"report.{attr}")
    patch(cli, "grs_auto_hp", "tuner.grs_auto_hp")
    for attr in ("grid_search", "random_search", "evaluate_baseline"):
        patch(tuner, attr, f"tuner.{attr}", _family_of_first)
    patch(tuner, "_evaluate_configs", "tuner.evaluate_configs", _evaluate_attrs)
    patch(tuner, "cross_val_trial", "tuner.cross_val_trial", _trial_attrs)
    patch(tuner, "grid_enumerate", "hpspace.grid_enumerate", _count)
    patch(tuner, "random_sample", "hpspace.random_sample", _count)
    patch(classifiers, "train", "classifiers.train", _spec_family)
    patch(classifiers, "predict", "classifiers.predict")
    patch(DesignMatrix, "take", "preprocess.take")
    if set(MODEL_CLASSES) != set(classifiers.FAMILIES):
        raise SystemExit(f"traced.py: MODEL_CLASSES covers {sorted(MODEL_CLASSES)}, "
                         f"tabtune has {sorted(classifiers.FAMILIES)}")
    for family, cls_name in MODEL_CLASSES.items():
        cls = getattr(classifiers, cls_name)
        fit_attrs, predict_attrs = _model_attrs(family)
        patch(cls, "fit", "model.fit", fit_attrs)
        patch(cls, "predict", "model.predict", predict_attrs)


def main(argv) -> int:
    spans_dir, cli_args = argv[0], argv[1:]
    tracer = Tracer(spans_dir)
    install(tracer)
    import tabtune.cli as cli

    try:
        return cli.main(cli_args)
    finally:
        tracer.flush()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
