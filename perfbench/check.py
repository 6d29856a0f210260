"""Output check for one ``tabtune run``: exit code, artifacts, re-rendering,
the tuning rules the report must obey, and the behaviour digest.

The rule checks use only the report and the workload definition, so they
hold for any seed; the digest pins the exact report for the seeds recorded
in ``digests.json``.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

from tabtune.report import render_chart, render_table, strip_volatile
from workloads import K

DIGESTS_PATH = Path(__file__).with_name("digests.json")


def report_digest(report: dict) -> str:
    """sha256 of ``strip_volatile(report)`` without the run's own paths.

    The config echo holds the absolute CSV and output paths, which differ
    between work directories; they are removed before hashing.
    """
    stable = strip_volatile(report)
    config = stable.get("config", {})
    config.pop("output", None)
    config.get("data", {}).get("csv", {}).pop("path", None)
    text = json.dumps(stable, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_digests() -> dict:
    if not DIGESTS_PATH.exists():
        return {}
    return json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))


def _first_best(trials):
    best = trials[0]
    for trial in trials[1:]:
        if trial["mean_accuracy"] > best["mean_accuracy"]:
            best = trial
    return best


def _rule_problems(report: dict, workload) -> list:
    problems = []
    if report.get("errors"):
        problems.append(f"families failed: {report['errors']}")
    families = [entry["family"] for entry in report["families"]]
    if families != list(workload.families):
        return problems + [f"report families {families}, expected {list(workload.families)}"]
    winners = []
    for entry in report["families"]:
        family = entry["family"]
        grid_n, budget = workload.expected_trials[family]
        for method, expected in (("grid", grid_n), ("random", budget)):
            trials = report["trials"][family][method]
            if entry[method]["n_trials"] != expected or len(trials) != expected:
                problems.append(f"{family} {method}: {len(trials)} trials, expected {expected}")
                continue
            for trial in trials:
                folds = trial["fold_accuracies"]
                if len(folds) != K or not math.isclose(
                        trial["mean_accuracy"], sum(folds) / len(folds), abs_tol=1e-12):
                    problems.append(f"{family} {method} trial {trial['trial_index']}: "
                                    "mean accuracy does not match its folds")
            if strip_volatile(_first_best(trials)) != strip_volatile(entry[method]["best"]):
                problems.append(f"{family} {method}: best is not the first maximum")
        grid_best = entry["grid"]["best"]["mean_accuracy"]
        random_best = entry["random"]["best"]["mean_accuracy"]
        expected_winner = "grid" if grid_best >= random_best else "random"
        if entry["winner"] != expected_winner:
            problems.append(f"{family}: winner {entry['winner']}, expected {expected_winner}")
        winners.append(max(grid_best, random_best))
    final = families[winners.index(max(winners))]
    if report["final"]["family"] != final:
        problems.append(f"final family {report['final']['family']}, expected {final}")
    if not 0.0 <= report["final"]["test_accuracy"] <= 1.0:
        problems.append(f"test accuracy {report['final']['test_accuracy']} outside [0, 1]")
    return problems


def check_run(exit_code: int, out_dir: Path, workload) -> tuple:
    """(problems, report, digest) for one finished run writing to out_dir."""
    if exit_code != 0:
        return [f"exit code {exit_code}"], None, None
    paths = {name: out_dir / name for name in ("report.json", "table.md", "chart.svg")}
    problems = [f"{name} missing" for name, path in paths.items() if not path.is_file()]
    problems += [f"temporary file left: {p.name}" for p in out_dir.glob("*.tmp-*")]
    if problems:
        return problems, None, None
    report = json.loads(paths["report.json"].read_text(encoding="utf-8"))
    if render_table(report).encode("utf-8") != paths["table.md"].read_bytes():
        problems.append("table.md differs from render_table(report)")
    if render_chart(report).encode("utf-8") != paths["chart.svg"].read_bytes():
        problems.append("chart.svg differs from render_chart(report)")
    try:
        problems += _rule_problems(report, workload)
    except (KeyError, TypeError, ValueError) as exc:
        problems.append(f"report is malformed: {type(exc).__name__}: {exc}")
    return problems, report, report_digest(report)
