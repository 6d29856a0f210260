"""Benchmark of ``tabtune run``, end to end and layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload tree_sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload csv_pipeline --trace 1
    python3 perfbench/run.py --smoke                  # tiny sizes, self-check
    python3 perfbench/run.py --workload dense_sweep --seed 1 --record

Each measured run spawns ``python3 -m tabtune run <config>`` from ``src/``
as a user would, on a CSV and config written from the seed, and checks its
outputs (check.py). Runs repeat while the next one is expected to end
within ``--seconds`` (at least one runs); between them, set-up probes spawn
the same command and kill it once it logs ``data ready``, so set-up time
gets several samples per run. Every metric is a median over the run's
samples.

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json;
``--trace 1`` makes a traced run (traced.py) between two untraced ones and
reports the per-layer metrics (layers.py) and the tracing overhead. The last line
of standard output is the JSON result; the line before it records the
environment.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench-work"

#: Set-up samples per benchmark run: each measured run gives one, and
#: probes make up the rest.
SETUP_SAMPLES = 11
#: A spawned run that takes longer than this is killed and counted failed.
SPAWN_LIMIT_S = 150.0
#: Digests are recorded for this seed and for the held-out seed 7919, which
#: is kept out of tuning work so a gain can be rechecked on unseen inputs.
DEFAULT_SEED = 1

END_TO_END = (
    ("run_s", "s"),
    ("setup_s", "s"),
    ("trials_per_s", "1/s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
)


@dataclass
class Sample:
    exit_code: int
    run_s: float
    setup_s: float | None
    cpu_s: float
    peak_rss_mb: float
    stderr: str


def child_env() -> dict:
    """Environment of every spawned run: tabtune from src/, one BLAS thread
    per process (the pool supplies the parallelism), no worker cap."""
    env = dict(os.environ)
    env.pop("TABTUNE_MAX_WORKERS", None)
    env.update(PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    return env


def spawn(argv, cwd: Path, stop_at_ready: bool = False) -> Sample:
    """Run one child, timing it from spawn to exit and to its ``data ready``
    log line; CPU time and peak RSS come from wait4 and include the pool
    workers the child reaped. The child gets its own process group, so
    killing it also kills any pool workers it has."""
    started = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdin=subprocess.DEVNULL,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                            start_new_session=True)

    def stop():
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    timer = threading.Timer(SPAWN_LIMIT_S, stop)
    timer.start()
    setup_s = status = None
    lines = []
    try:
        for line in proc.stderr:
            lines.append(line)
            if setup_s is None and b"data ready" in line:
                setup_s = time.perf_counter() - started
                if stop_at_ready:
                    stop()
                    break
        _, status, usage = os.wait4(proc.pid, 0)
        run_s = time.perf_counter() - started
    finally:
        timer.cancel()
        if status is None:  # interrupted: take the child down before leaving
            stop()
            os.wait4(proc.pid, 0)
        proc.stderr.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(
        exit_code=proc.returncode,
        run_s=run_s,
        setup_s=setup_s,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        stderr=b"".join(lines).decode("utf-8", "replace"),
    )


class Bench:
    """One benchmark run of one workload and seed inside its own work dir."""

    def __init__(self, workload, seed: int, rows: int, digests: dict):
        self.workload = workload
        self.seed = seed
        self.work = WORK_ROOT / f"{workload.name}-{seed}-{os.getpid()}"
        self.work.mkdir(parents=True)
        self.csv_path = self.work / "students.csv"
        write_students_csv(self.csv_path, rows, seed, workload.positive_rate)
        # the recorded digest covers the full-size inputs only
        self.recorded = digests.get(workload.name, {}).get(str(seed)) \
            if rows == workload.rows else None
        self.digests = set()
        self.problems = []
        self.attempted = 0
        self.failed = 0
        self.runs = 0
        self.probe_config = self._config("probe", workers=1)

    def _config(self, name: str, workers=None) -> Path:
        out_dir = self.work / name
        out_dir.mkdir()
        path = self.work / f"{name}.json"
        write_run_config(path, self.workload, self.seed, self.csv_path, out_dir, workers)
        return path

    def _fail(self, what: str, problems) -> None:
        self.failed += 1
        self.problems.extend(f"{what}: {p}" for p in problems)

    def probe(self) -> float | None:
        """Set-up time of one spawn that is killed at ``data ready``; the
        probe config runs on one worker, so no pool exists yet to kill."""
        self.attempted += 1
        sample = spawn([sys.executable, "-m", "tabtune", "run", str(self.probe_config)],
                       self.work, stop_at_ready=True)
        if sample.setup_s is None:
            self._fail("probe", [f"no 'data ready' line (exit {sample.exit_code}): "
                                 f"{sample.stderr.strip()[-300:]}"])
        return sample.setup_s

    def full_run(self, traced_dir: Path | None = None):
        """One checked ``tabtune run``; returns (sample, report or None)."""
        self.attempted += 1
        self.runs += 1
        name = f"run{self.runs}" + ("-traced" if traced_dir else "")
        config = self._config(name)
        if traced_dir is None:
            argv = [sys.executable, "-m", "tabtune", "run", str(config)]
        else:
            traced_dir.mkdir()
            argv = [sys.executable, str(BENCH_DIR / "traced.py"), str(traced_dir),
                    "run", str(config)]
        sample = spawn(argv, self.work)
        problems, report, digest = check_run(sample.exit_code, self.work / name, self.workload)
        if sample.exit_code == 0 and sample.setup_s is None:
            problems.append("no 'data ready' line on stderr")
        if digest is not None:
            if self.recorded is not None and digest != self.recorded:
                problems.append(f"digest {digest[:16]} differs from recorded "
                                f"{self.recorded[:16]}")
            self.digests.add(digest)
            if len(self.digests) > 1:
                problems.append("report differs from an earlier run of the same inputs")
        if sample.exit_code != 0:
            problems.append(sample.stderr.strip()[-300:])
        if problems:
            self._fail(name, problems)
        return sample, report

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


def measure_end_to_end(bench: Bench, seconds: float) -> dict:
    bench.probe()  # warm-up: fills the bytecode and file caches, not timed
    samples, setups = [], []
    deadline = time.perf_counter() + seconds
    while True:
        began = time.perf_counter()
        sample, _ = bench.full_run()
        samples.append(sample)
        setups += [sample.setup_s, bench.probe()]
        # stop before a run that would likely end past the deadline
        now = time.perf_counter()
        if now + (now - began) > deadline:
            break
    setups.extend(bench.probe() for _ in range(SETUP_SAMPLES - len(setups)))
    setups = [s for s in setups if s is not None]
    good = [s for s in samples if s.setup_s is not None and s.exit_code == 0]
    if not good or not setups:
        return {}
    trials = bench.workload.trials()
    values = {
        "run_s": statistics.median(s.run_s for s in good),
        "setup_s": statistics.median(setups),
        "trials_per_s": statistics.median(trials / (s.run_s - s.setup_s) for s in good),
        "cpu_s": statistics.median(s.cpu_s for s in good),
        "peak_rss_mb": statistics.median(s.peak_rss_mb for s in good),
    }
    print(f"samples: {len(good)} runs (run_s {' '.join(f'{s.run_s:.3f}' for s in good)}), "
          f"{len(setups)} set-up samples", flush=True)
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def measure_layers(bench: Bench) -> tuple:
    """Per-layer metrics from one traced run, plus the trace self-check
    problems and what the traced child observed: its start method and the
    number of worker processes that ran trials."""
    bench.probe()
    before, _ = bench.full_run()
    spans_dir = bench.work / "spans"
    traced, report = bench.full_run(traced_dir=spans_dir)
    after, _ = bench.full_run()
    if report is None:
        return {}, ["traced run failed"], {}
    spans = load_spans(spans_dir)
    (cmd_run,) = [s for s in spans if s.name == "cli.cmd_run"]
    pool_used = bench.workload.workers > 1
    problems = self_check(spans, cmd_run.pid, report, pool_used)
    values = layer_metrics(spans)
    # untraced runs on both sides of the traced one cancel a linear drift
    # in host speed
    values["trace.overhead_s"] = traced.run_s - (before.run_s + after.run_s) / 2
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in LAYER_METRICS}
    observed = {"start_method_observed": cmd_run.attrs["start_method"],
                "worker_processes_seen": worker_processes(spans, cmd_run.pid)}
    return metrics, problems, observed


def environment(workload) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}: "
                f"{blas.get('openblas configuration', '')}".strip(),
        # the default of this interpreter, which every run uses too;
        # a traced run adds the method its child actually had
        "start_method_default": multiprocessing.get_start_method(),
        "threads_per_process": child_env()["OPENBLAS_NUM_THREADS"],
        "workers_requested": workload.workers,
    }


def run_once(workload, seed: int, seconds: float, trace: bool, rows: int,
             record: bool = False) -> dict:
    digests = load_digests()
    bench = Bench(workload, seed, rows, digests)
    try:
        observed = {}
        if trace:
            metrics, trace_problems, observed = measure_layers(bench)
            bench.problems += [f"trace self-check: {p}" for p in trace_problems]
        else:
            metrics = measure_end_to_end(bench, seconds)
        correct = bench.failed == 0 and not bench.problems and bool(metrics)
        if record and correct and rows == workload.rows:
            (digest,) = bench.digests
            digests.setdefault(workload.name, {})[str(seed)] = digest
            DIGESTS_PATH.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n",
                                    encoding="utf-8")
    finally:
        bench.close()
    for problem in bench.problems:
        print(f"problem: {problem}", file=sys.stderr)
    env = environment(workload)
    env.update(observed)
    env.update(workload=workload.name, seed=seed, rows=rows,
               digest=sorted(bench.digests), digest_recorded=bench.recorded)
    print("environment: " + json.dumps(env, sort_keys=True), flush=True)
    return {"correct": correct, "attempted": bench.attempted, "failed": bench.failed,
            "metrics": metrics}


def smoke() -> int:
    """Each workload once at tiny size, plus its traced run; every metric
    named in BENCHMARK.json must be emitted with its unit."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []
    for entry in spec["workloads"]:
        workload = WORKLOADS[entry["name"]]
        for trace in (False, True):
            result = run_once(workload, DEFAULT_SEED, 0, trace, workload.smoke_rows)
            label = f"{workload.name} trace={int(trace)}"
            if not result["correct"] or result["failed"]:
                failures.append(f"{label}: output check failed")
            emitted = {name: m["unit"] for name, m in result["metrics"].items()}
            if emitted != wanted[trace]:
                failures.append(f"{label}: metrics {sorted(set(emitted) ^ set(wanted[trace]))}"
                                " missing, extra or with another unit")
            print(f"smoke {label}: {json.dumps(result)}", flush=True)
    for failure in failures:
        print(f"smoke FAIL {failure}", file=sys.stderr)
    print("smoke " + ("FAIL" if failures else "ok"))
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one of: " + ", ".join(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload once at tiny size and check the metrics")
    parser.add_argument("--record", action="store_true",
                        help="store the report digest for this workload and seed")
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke()
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    workload = WORKLOADS[args.workload]
    result = run_once(workload, args.seed, args.seconds, bool(args.trace), workload.rows,
                      record=args.record)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    if not (SRC / "tabtune" / "cli.py").is_file():
        print(f"error: tabtune sources not found under {SRC}", file=sys.stderr)
        sys.exit(2)
    # a terminated benchmark still stops its children and removes its files
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.path.insert(0, str(SRC))
    os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    from check import DIGESTS_PATH, check_run, load_digests
    from layers import LAYER_METRICS, layer_metrics, load_spans, self_check, worker_processes
    from workloads import WORKLOADS, write_run_config, write_students_csv

    sys.exit(main())
