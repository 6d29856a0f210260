"""Shuffled k-fold cross-validation, grid/random search drivers with timing,
and the final model-selection loop across classifier families.

Every trial in one tuning run trains with the same seed, so an identical
config always scores identically: grid search provably dominates the
baseline whenever the default config lies on the grid, and trial order
(sequential or parallel) cannot change any result. Durations are the only
non-deterministic fields.

A run splits its training matrix into the k folds' fit and eval parts
once (``shuffle_kfold``), and every trial trains and scores on those parts.
It builds one plan first: per family, its default config, every grid
config and every random draw. Each family's plan is split into the groups
of ``classifiers.fit_groups``, whichever searches their configs come from,
and the trials of a group share each fold's fits (``classifiers.train``
with ``fits``), so most configs are read off a larger fit instead of
fitted. Every trial's numbers are those of fitting it alone. The groups of
all families share one process pool per run, or run in the main process
with one worker.
"""

from __future__ import annotations

import logging
import os
import time
from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

import numpy as np

from . import classifiers
from .classifiers import ModelSpec, SingleClassError
from .hpspace import SearchSpace, grid_enumerate, grid_size, random_sample, space_from_config
from .preprocess import DesignMatrix

logger = logging.getLogger(__name__)

#: Random search evaluates min(grid_size, this cap) configs unless overridden.
DEFAULT_RS_BUDGET_CAP = 200

#: A run with more grid and random trials than this reports no per-trial
#: records: ``trials`` is empty and ``trials_truncated`` is true.
MAX_REPORTED_TRIALS = 10_000


class TuningError(RuntimeError):
    """Tuning could not produce a report (every family failed, bad inputs)."""


def shuffle_kfold(train: DesignMatrix, k: int, seed: int) -> tuple:
    """The k ``(fit_part, eval_part)`` pairs of ``train``: a seeded shuffle
    deals its rows into k contiguous blocks, and fold i holds out block i.
    Both parts keep the rows in ``train`` order.

    Fold sizes differ by at most one; the first n_rows % k folds take the
    extra row.
    """
    n_rows = train.n_rows
    if k < 2:
        raise ValueError(f"k must be at least 2, got {k}")
    if k > n_rows:
        raise ValueError(f"k={k} exceeds the number of rows ({n_rows})")
    perm = np.random.default_rng(seed).permutation(n_rows)
    assignments = np.zeros(n_rows, dtype=np.int64)
    for fold, rows in enumerate(np.array_split(perm, k)):  # first blocks are longer
        assignments[rows] = fold
    return tuple((train.take(assignments != fold), train.take(assignments == fold))
                 for fold in range(k))


def cross_val_trial(
    spec: ModelSpec,
    folds: tuple,
    seed: int,
    trial_index: int = 0,
    fits=None,
) -> dict:
    """The trial's report record (``trial_index``, the validated ``config``,
    ``fold_accuracies``, their mean, wall time): a model trained on each
    fold's fit part of ``folds`` (``shuffle_kfold``), scored on its eval
    part. A fold whose fit part is single-class scores 0 with a warning
    instead of aborting the sweep. ``fits``, when given, holds one list per
    fold, which ``classifiers.train`` reads that fold's model off or
    appends its fit to.
    """
    config = classifiers.validate_config(spec.family, spec.config)
    validated = ModelSpec(spec.family, config)
    started = time.perf_counter()
    accuracies = []
    for fold, (fit_part, eval_part) in enumerate(folds):
        try:
            model = classifiers.train(validated, fit_part, seed,
                                      fits=None if fits is None else fits[fold])
        except SingleClassError:
            logger.warning(
                "%s fold %d: training part is single-class, scoring 0", spec.family, fold
            )
            accuracies.append(0.0)
            continue
        accuracies.append(classifiers.accuracy(
            classifiers.predict(model, eval_part.features), eval_part.labels))
    return {
        "trial_index": trial_index,
        "config": config,
        "fold_accuracies": accuracies,
        "mean_accuracy": float(np.mean(accuracies)),
        "duration_seconds": time.perf_counter() - started,
    }


#: (folds, seed) of the pool this worker process serves; set once per
#: worker by ``_init_worker``, so a task carries only its configs.
_worker_data = None


def _init_worker(folds, seed):
    global _worker_data
    _worker_data = (folds, seed)


def _group_task(task):
    family, members = task
    folds, seed = _worker_data
    return _evaluate_group(family, members, folds, seed)


def _evaluate_group(family, members, folds, seed):
    """The trials of one ``classifiers.fit_groups`` group's (config, index)
    members, in its order; the trials share one list of fits per fold."""
    fits = [[] for _ in folds]
    return [cross_val_trial(ModelSpec(family, config), folds, seed, trial_index=index, fits=fits)
            for config, index in members]


def _outcome(fn, *args):
    """``fn(*args)``, or the exception it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # the caller decides per family
        return exc


def _evaluate_plan(plan, folds, seed, workers):
    """Each family's trials of ``plan``, a list of ``(family, validated
    configs)``, in config order with ``trial_index`` their position; or, for
    a family with a failing group, the exception of its first failing group
    in plan order. Neither the order of evaluation nor parallelism can
    change a result, because configs are pre-generated and every trial
    shares the seed.

    Each family's configs are split once into ``classifiers.fit_groups``
    groups, each evaluated by ``_evaluate_group``; a trial read off another
    config's fits reports its own, shorter ``duration_seconds``.

    The groups of every family run in the main process, or in one pool of
    ``min(workers, groups, os.cpu_count())`` processes: a pool forks all of
    its processes when it starts, so more would sit idle. Each worker
    receives ``(folds, seed)`` once, through the pool's initializer, and
    each task carries one group, ``(family, [(config, index), ...])``, so
    fitted models never cross a process boundary. ``folds`` holds the k
    fit and eval parts that ``shuffle_kfold`` took once for the run, so no
    trial takes rows. A forked worker inherits them; under ``spawn`` or
    ``forkserver`` they are pickled once per worker. Results do not depend
    on the start method.
    """
    tasks = [(family, members) for family, configs in plan
             for members in classifiers.fit_groups(family, configs)]
    workers = min(workers, len(tasks), os.cpu_count() or 1)
    if workers <= 1:
        outcomes = [_outcome(_evaluate_group, family, members, folds, seed)
                    for family, members in tasks]
    else:
        with ProcessPoolExecutor(
            max_workers=workers, initializer=_init_worker, initargs=(folds, seed)
        ) as pool:
            futures = [pool.submit(_group_task, task) for task in tasks]
            outcomes = [_outcome(future.result) for future in futures]
        if any(isinstance(outcome, BrokenProcessPool) for outcome in outcomes):
            raise TuningError("a pool worker process died before its tasks finished: killed "
                              "(SIGKILL is often the out-of-memory killer) or crashed")
    trials, failures = {family: [] for family, _ in plan}, {}
    for (family, _), outcome in zip(tasks, outcomes):
        if isinstance(outcome, Exception):
            failures.setdefault(family, outcome)  # its first failing group in plan order
        else:
            trials[family] += outcome
    return {family: failures.get(family)
            or sorted(trials[family], key=lambda trial: trial["trial_index"])
            for family, _ in plan}


def _best_trial(trials):
    # max keeps the first of equal maxima: ties keep the lowest index
    return max(trials, key=lambda trial: trial["mean_accuracy"])


def _random_draws(space, budget, seed):
    if budget < 1:
        raise ValueError(f"random search budget must be at least 1, got {budget}")
    return random_sample(space, budget, seed)


def _evaluate_configs(family, configs, folds, seed, workers):
    """One search's configs evaluated as a plan of their own, results in
    trial-index order; the first failing group's exception is raised. No run
    calls it or the searches below: perfbench/traced.py patches them by name."""
    configs = [classifiers.validate_config(family, config) for config in configs]
    trials = _evaluate_plan([(family, configs)], folds, seed, workers)[family]
    if isinstance(trials, Exception):
        raise trials
    return trials


def grid_search(family, space, folds, seed, workers=1):
    """Evaluate every grid config; returns (best, all trials)."""
    trials = _evaluate_configs(family, grid_enumerate(space), folds, seed, workers)
    return _best_trial(trials), trials


def random_search(family, space, budget, folds, seed, workers=1):
    """Evaluate ``budget`` sampled configs; returns (best, all trials)."""
    configs = _random_draws(space, budget, seed)
    trials = _evaluate_configs(family, configs, folds, seed, workers)
    return _best_trial(trials), trials


def evaluate_baseline(family, folds, seed) -> dict:
    """The trial record of the family's default configuration."""
    return _evaluate_configs(family, [classifiers.default_config(family)], folds, seed, 1)[0]


def _search_summary(trials):
    return {"best": _best_trial(trials), "n_trials": len(trials),
            "total_seconds": sum(trial["duration_seconds"] for trial in trials)}


def default_rs_budget(space: SearchSpace) -> int:
    return max(1, min(grid_size(space), DEFAULT_RS_BUDGET_CAP))


def grs_auto_hp(
    families,
    spaces,
    train: DesignMatrix,
    test: DesignMatrix,
    k: int = 3,
    fold_seed: int = 0,
    search_seed: int = 0,
    rs_budget: int | None = None,
    workers: int = 1,
) -> dict:
    """Run baseline, grid search and random search per family, keep the
    better search per family (grid wins ties), pick the best family overall
    (earlier input order wins ties), refit it on the full training matrix,
    and score that single model once on the held-out test matrix.

    Returns the report's tuning fields as ``report.schema.json`` states them:
    ``k``, ``seeds``, ``families``, ``errors``, ``final``, ``trials`` and
    ``trials_truncated`` (the CLI adds ``tool``, ``created_unix`` and
    ``config``). Past ``MAX_REPORTED_TRIALS`` grid and random trials,
    ``trials`` is empty; each search's ``n_trials`` still counts them all.

    ``spaces`` maps family name to a SearchSpace; families without an entry
    search the single default configuration. A family requested twice
    raises TuningError before any work.

    Every family's default, grid and random configs form one plan
    (``_evaluate_plan``); the trials are scattered back into ``baseline``,
    ``grid`` and ``random``, each search indexing its own from 0, and a
    search's ``total_seconds`` is the sum of its trials' durations. A family
    whose plan or any group raises ValueError or ArithmeticError is skipped
    and recorded under ``errors`` as "<Type>: <message>" of its first
    failing group in plan order; any other exception fails the run with a
    TuningError naming the family and the exception type.
    """
    families = list(families)
    if not families:
        raise TuningError("no classifier families requested")
    repeated = next((f for i, f in enumerate(families) if f in families[:i]), None)
    if repeated is not None:
        raise TuningError(f"family {repeated} is requested more than once")
    if train.feature_names != test.feature_names:
        raise TuningError("train and test matrices disagree on feature names")
    folds = shuffle_kfold(train, k, fold_seed)  # once, before any pool forks

    # a family whose plan cannot be built fails with that error
    plan, grid_sizes, results = [], {}, {}
    for family in families:
        space = spaces.get(family) or space_from_config(family, {})
        try:
            grid = grid_enumerate(space)
            budget = rs_budget if rs_budget is not None else default_rs_budget(space)
            draws = _random_draws(space, budget, search_seed)
            configs = [classifiers.validate_config(family, config)
                       for config in [classifiers.default_config(family), *grid, *draws]]
        except Exception as exc:
            results[family] = exc
            continue
        plan.append((family, configs))
        grid_sizes[family] = len(grid)
    results.update(_evaluate_plan(plan, folds, search_seed, workers))

    entries = []
    searched = {}  # family -> {"grid": trials, "random": trials}
    errors = {}
    for family in families:
        trials = results[family]
        if isinstance(trials, (ValueError, ArithmeticError)):  # a data or config failure
            errors[family] = f"{type(trials).__name__}: {trials}"
            logger.warning("family %s failed: %s", family, errors[family])
            continue
        if isinstance(trials, Exception):  # a fault in the program: fail the run
            raise TuningError(
                f"family {family} failed with {type(trials).__name__}: {trials}"
            ) from trials
        # scatter the plan back into its searches, each indexed from 0
        n_grid = grid_sizes[family]
        baseline, gs_trials, rs_trials = trials[0], trials[1:1 + n_grid], trials[1 + n_grid:]
        for search in (gs_trials, rs_trials):
            for index, trial in enumerate(search):
                trial["trial_index"] = index
        gs, rs = _search_summary(gs_trials), _search_summary(rs_trials)
        entries.append({
            "family": family,
            "baseline": baseline,
            "grid": gs,
            "random": rs,
            "winner": ("grid" if gs["best"]["mean_accuracy"] >= rs["best"]["mean_accuracy"]
                       else "random"),
        })
        searched[family] = {"grid": gs_trials, "random": rs_trials}

    if not entries:
        raise TuningError(f"every family failed: {errors}")

    # max keeps the first of equal maxima: ties keep the earlier family
    overall = max(entries, key=lambda entry: entry[entry["winner"]]["best"]["mean_accuracy"])
    final_config = overall[overall["winner"]]["best"]["config"]
    final_model = classifiers.train(ModelSpec(overall["family"], final_config), train, search_seed)
    test_accuracy = classifiers.accuracy(
        classifiers.predict(final_model, test.features), test.labels
    )
    n_trials = sum(len(trials) for both in searched.values() for trials in both.values())
    return {
        "k": k,
        "seeds": {"fold": fold_seed, "search": search_seed},
        "families": entries,
        "errors": errors,
        "final": {
            "family": overall["family"],
            "config": dict(final_config),
            "test_accuracy": test_accuracy,
        },
        "trials": {} if n_trials > MAX_REPORTED_TRIALS else searched,
        "trials_truncated": n_trials > MAX_REPORTED_TRIALS,
    }
