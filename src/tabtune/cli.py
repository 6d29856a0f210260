"""Command-line pipeline: load or synthesize data, split, preprocess, tune
every requested classifier family, and write the report artifacts.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 tuning error,
5 artifact write error, 1 unexpected failure.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import logging
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .config import ConfigError, load_run_config
from .preprocess import add_derived_column, apply_plan, fit_plan
from .report import check_report, render_chart, render_table
from .tabular import filter_rows, generate_synthetic, load_csv, split_train_test, write_csv
from .tuner import TuningError, grs_auto_hp

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_UNEXPECTED = 1
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_TUNING = 4
EXIT_OUTPUT = 5


def _write_all(outputs) -> None:
    """Write every ``(path, text)`` pair, all or nothing.

    Each text goes to a temporary name next to its path; renames start only
    once every temporary file is written. On any failure the temporary
    files and every output already renamed into place are removed.
    """
    staged = []
    placed = []
    try:
        for path, text in outputs:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.with_name(f"{path.name}.tmp-{os.getpid()}")
            staged.append(tmp)
            tmp.write_text(text, encoding="utf-8")
        for tmp, (path, _) in zip(staged, outputs):
            os.replace(tmp, path)
            placed.append(path)
    except BaseException:
        for leftover in staged + placed:
            with contextlib.suppress(OSError):
                leftover.unlink(missing_ok=True)
        raise


def _load_table(config):
    if "csv" in config.data:
        section = config.data["csv"]
        table = load_csv(section["path"], section["target"])
        if "filter" in section:
            table = filter_rows(table, section["filter"]["column"], section["filter"]["allowed"])
    else:
        section = config.data["synthetic"]
        table = generate_synthetic(section["rows"], section["seed"], section["positive_rate"])
    if "derived" in config.preprocess:
        d = config.preprocess["derived"]
        table = add_derived_column(table, d["name"], d["kind"], d["left"], d["right"])
    return table


def cmd_run(args) -> int:
    """Each stage catches only the errors its input can cause; any other
    exception is a fault in the program and reaches ``main`` (exit 1)."""
    try:
        config = load_run_config(args.config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        table = _load_table(config)
        split = split_train_test(table, config.split["train_fraction"], config.split["seed"])
        target = split.train.target
        classes = np.unique(split.train.columns[target.name])
        if len(classes) < 2:
            raise ValueError(
                f"the {split.train.n_rows}-row training split holds a single class "
                f"({target.name} = {target.categories[classes[0]]!r}); tuning needs both"
            )
        if config.tuner["k"] > split.train.n_rows:
            raise ValueError(
                f"tuner.k={config.tuner['k']} exceeds the {split.train.n_rows} rows "
                f"of the training split"
            )
        plan = fit_plan(split.train, config.preprocess["missing_threshold"],
                        config.preprocess["scaling"])
        train_matrix = apply_plan(plan, split.train)
        test_matrix = apply_plan(plan, split.test)
        logger.info(
            "data ready: %d train rows, %d test rows, %d features",
            train_matrix.n_rows, test_matrix.n_rows, train_matrix.n_features,
        )
    except (ValueError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA

    tuner = config.tuner
    try:
        tuning = grs_auto_hp(
            tuner["families"],
            config.spaces,
            train_matrix,
            test_matrix,
            k=tuner["k"],
            fold_seed=tuner["fold_seed"],
            search_seed=tuner["search_seed"],
            rs_budget=tuner["rs_budget"],
            workers=tuner["workers"],
        )
    except (TuningError, ValueError, ArithmeticError) as exc:
        print(f"tuning error: {exc}", file=sys.stderr)
        return EXIT_TUNING

    report = {
        "tool": {"name": "tabtune", "version": __version__},
        "created_unix": time.time(),
        "config": config.echo(),
        **tuning,
    }
    try:
        paths = {key: Path(path) for key, path in config.output.items()}
        _write_all([
            (paths["report"], json.dumps(report, indent=2, sort_keys=True) + "\n"),
            (paths["table"], render_table(report)),
            (paths["chart"], render_chart(report)),
        ])
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_OUTPUT

    final = report["final"]
    print(
        f"final: family={final['family']} "
        f"config={json.dumps(final['config'], sort_keys=True)} "
        f"test_accuracy={final['test_accuracy']:.4f}"
    )
    return EXIT_OK


def cmd_render(args) -> int:
    """Like ``cmd_run``: only an unreadable or non-report input (exit 3) and
    a failed write (exit 5) are caught. An output path equal to the other
    output or to the report is refused (exit 2) before anything is read."""
    if not args.table and not args.chart:
        print("error: render needs --table and/or --chart", file=sys.stderr)
        return EXIT_CONFIG
    if args.table and args.chart and os.path.realpath(args.table) == os.path.realpath(args.chart):
        print(f"error: --table and --chart are the same path: {args.chart}", file=sys.stderr)
        return EXIT_CONFIG
    for flag, path in (("--table", args.table), ("--chart", args.chart)):
        if path and os.path.realpath(path) == os.path.realpath(args.report):
            print(f"error: {flag} is the same path as the report: {path}", file=sys.stderr)
            return EXIT_CONFIG
    try:
        report_dict = json.loads(Path(args.report).read_text(encoding="utf-8"))
        check_report(report_dict)
    except (OSError, ValueError) as exc:  # JSON and decoding errors are ValueErrors
        print(f"error: cannot read report: {exc}", file=sys.stderr)
        return EXIT_DATA
    outputs = []
    if args.table:
        outputs.append((Path(args.table), render_table(report_dict)))
    if args.chart:
        outputs.append((Path(args.chart), render_chart(report_dict)))
    try:
        _write_all(outputs)
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_OUTPUT
    return EXIT_OK


def cmd_synth(args) -> int:
    try:
        table = generate_synthetic(args.rows, args.seed, args.positive_rate)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    try:
        write_csv(table, args.out)
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_OUTPUT
    print(f"wrote {table.n_rows} rows to {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tabtune",
        description="Tune tabular classifiers with grid and random search.",
    )
    parser.add_argument("--version", action="version", version=f"tabtune {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the full pipeline from a JSON config")
    p_run.add_argument("config", help="path to the run configuration JSON")
    p_run.set_defaults(func=cmd_run)

    p_render = sub.add_parser("render", help="re-render artifacts from a report JSON")
    p_render.add_argument("report", help="path to a previously written report JSON")
    p_render.add_argument("--table", help="write the markdown table here")
    p_render.add_argument("--chart", help="write the SVG chart here")
    p_render.set_defaults(func=cmd_render)

    p_synth = sub.add_parser("synth", help="write a synthetic student-records CSV")
    p_synth.add_argument("--rows", type=int, required=True)
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--positive-rate", type=float, default=0.5, dest="positive_rate")
    p_synth.add_argument("--out", required=True)
    p_synth.set_defaults(func=cmd_synth)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(
        level=logging.INFO, format="%(levelname)s %(name)s: %(message)s", stream=sys.stderr
    )
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # argparse/system errors surface their own text
        print(f"unexpected error: {exc}", file=sys.stderr)
        return EXIT_UNEXPECTED


def main_entry() -> None:
    sys.exit(main())
