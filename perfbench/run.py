"""End-to-end benchmark of the ``friscov`` CLI.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sweep-power --seed 1 --seconds 40 --trace 0

Every measured run is a fresh ``python3 -m friscov.cli`` process with
``src`` on ``PYTHONPATH`` and one BLAS thread: the Monte Carlo gains are
cached per process, so a second call in one process would time nothing.
The workload seed reaches the program as ``--seed``.

``--trace 0`` alternates ``show-config`` (set-up time) with the
workload's command within ``--seconds`` (at least ``MIN_RUNS`` pairs) and
reports the end-to-end metrics as medians.
``--trace 1`` alternates untraced runs with runs of
``perfbench/traced_cli.py`` within ``--seconds`` and reports the per-layer
metrics from the spans, plus the tracing overhead.

Every run's outputs are checked (see ``checks.py``).  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the full record, with every sample and the
provenance, goes to ``perfbench/out/results/``.  The exit code is 0 when
every output check passed, 1 when one failed, and 2 on bad arguments or
when the program's sources are missing (then no result is printed).
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import checks

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# One BLAS thread per child.  On 2 cores, a second OpenBLAS thread gains
# at most 7% when the machine is idle, but one competing busy process
# makes 2-thread runs ~50% slower (threads wait on a descheduled peer)
# and leaves 1-thread runs unchanged: see README.md, "Load".
BLAS_THREADS = "1"
MIN_RUNS = 3
CHILD_TIMEOUT_S = 60


@dataclass(frozen=True)
class Workload:
    """One CLI command.  ``simulations`` distinct Monte Carlo configs each run ``trials`` trials."""

    command: tuple[str, ...]
    config: str | None
    trials: int
    simulations: int
    reference: str | None = None
    fris_dominates: bool = False


# Why each workload: see perfbench/README.md.
WORKLOADS = {
    "sweep-power": Workload(("sweep", "--plot", "--log-y"), "sweep-power.cfg", 25_000, 3,
                            reference="sweep-power.csv", fris_dominates=True),
    "sweep-ports": Workload(("sweep",), "sweep-ports.cfg", 2048, 39, reference="sweep-ports.csv"),
    "validate": Workload(("validate",), None, 40_000, 4),
}

END_TO_END_UNITS = {"wall_s": "s", "trials_per_s": "trials/s", "setup_s": "s", "peak_rss_mb": "MB"}

# Per-layer metric -> span names whose calls and self times it sums.
LAYER_SPANS = {
    "montecarlo.simulate_gains": ("montecarlo.simulate_gains",),
    "montecarlo.estimators": ("montecarlo.estimate_op", "montecarlo.estimate_cop", "montecarlo.estimate_success"),
    "montecarlo.ks_distance": ("montecarlo.ks_distance",),
    "analytics.gamma_cdf": ("analytics.gamma_cdf",),
    "specfun.reg_lower_incomplete_gamma": ("specfun.reg_lower_incomplete_gamma",),
    "surface.correlation_matrix": ("surface.correlation_matrix",),
    "surface.psd_sqrt": ("surface.psd_sqrt",),
    "analytics.gamma_moment_match": ("analytics.gamma_moment_match",),
    "cli.run_sweep": ("cli.run_sweep",),
    "cli.load_config": ("cli.load_config", "cli._resolve", "cli._from_resolved"),
    "cli.emit_csv": ("cli.emit_csv",),
    "cli.emit_plot": ("cli.emit_plot",),
}
# Layers whose call count is also reported.
LAYER_CALLS = ("montecarlo.simulate_gains", "montecarlo.estimators", "analytics.gamma_cdf",
               "specfun.reg_lower_incomplete_gamma", "surface.correlation_matrix", "surface.psd_sqrt",
               "analytics.gamma_moment_match")
OUTPUT_FILES = {"cli.emit_csv": "sweep.csv", "cli.emit_plot": "plot.svg"}
# Stands in for a traced run that wrote no summary, so every metric is still emitted.
EMPTY_SUMMARY = {"spans": {}, "simulate_gains": {"misses": 0, "miss_trials": 0}}


@dataclass
class ChildRun:
    wall_s: float
    rss_mb: float
    code: int
    stdout: str
    stderr: str


def run_child(argv: list[str], workdir: Path) -> ChildRun:
    """Run ``python3 argv`` to completion; time it from spawn to exit and read its own peak RSS."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # cache bytecode as a default interpreter does
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    out_path, err_path = workdir / "stdout.txt", workdir / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], stdout=out, stderr=err, env=env, cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall_s = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(wall_s, usage.ru_maxrss / 1024.0, proc.returncode,
                    out_path.read_text(errors="replace"), err_path.read_text(errors="replace"))


def cli_args(workload: Workload, seed: int, trials: int, out_dir: Path) -> list[str]:
    args = list(workload.command)
    if workload.config:
        args += ["--config", str(BENCH / "configs" / workload.config)]
    args += ["--seed", str(seed), "--trials", str(trials), "--workers", "1"]
    if workload.command[0] == "sweep":
        args += ["--out", str(out_dir)]
    return args


@dataclass(frozen=True)
class Expectations:
    columns: tuple[str, ...]
    grid: list[float] | None
    reference: checks.Rows | None


def expectations(workload: Workload) -> Expectations:
    sys.path.insert(0, str(SRC))
    from friscov.cli import CSV_COLUMNS

    grid = reference = None
    if workload.command[0] == "sweep":
        grid = checks.expected_grid(checks.read_config(BENCH / "configs" / workload.config))
    if workload.reference:
        reference = checks.read_csv(BENCH / "reference" / workload.reference)[1]
    return Expectations(tuple(CSV_COLUMNS), grid, reference)


def check_run(workload: Workload, run: ChildRun, out_dir: Path, expect: Expectations) -> tuple[list[str], int]:
    """Problems with one run's outputs, and its number of failing gates."""
    last_error = (run.stderr.strip().splitlines() or [""])[-1]
    if run.code in (2, 3) or run.code < 0 or "Traceback (most recent call last)" in run.stderr:
        return [f"exit code {run.code}: {last_error}"], 0
    if workload.command[0] == "validate":
        # A non-zero exit that only reports failing gates is not a failed run.
        problems, gates_failed = checks.parse_gates(run.stdout)
        if run.code != 0 and gates_failed == 0:
            problems.append(f"exit code {run.code} with every gate passing: {last_error}")
        return problems, gates_failed
    if run.code != 0:
        return [f"exit code {run.code}: {last_error}"], 0
    try:
        header, rows = checks.read_csv(out_dir / "sweep.csv")
    except (OSError, StopIteration, ValueError) as exc:
        return [f"unreadable sweep.csv: {exc!r}"], 0
    problems = checks.check_sweep(header, rows, expect.columns, expect.grid, expect.reference,
                                  workload.fris_dominates)
    if "--plot" in workload.command:
        problems += checks.check_svg(out_dir / "plot.svg")
    return problems, 0


def layer_metrics(summary: dict, out_dir: Path, gates_failed: int) -> dict[str, float]:
    spans = summary["spans"]
    metrics: dict[str, float] = {}
    for layer, names in LAYER_SPANS.items():
        entries = [spans[name] for name in names if name in spans]
        if layer in LAYER_CALLS:
            metrics[f"{layer}.calls"] = sum(entry["calls"] for entry in entries)
        metrics[f"{layer}.self_s"] = sum(entry["self_s"] for entry in entries)
    calls = metrics["montecarlo.simulate_gains.calls"]
    misses = summary["simulate_gains"]["misses"]
    busy = metrics["montecarlo.simulate_gains.self_s"]
    metrics["montecarlo.simulate_gains.misses"] = misses
    metrics["montecarlo.simulate_gains.hit_ratio"] = (calls - misses) / calls if calls else 0.0
    metrics["montecarlo.simulate_gains.trials_per_busy_s"] = (
        summary["simulate_gains"]["miss_trials"] / busy if busy else 0.0)
    for layer, filename in OUTPUT_FILES.items():
        path = out_dir / filename
        metrics[f"{layer}.bytes"] = path.stat().st_size if path.exists() else 0
    metrics["gates_failed"] = gates_failed
    return metrics


def blas_threads() -> int | None:
    """Thread count of numpy's bundled OpenBLAS in this process, when it exports the query."""
    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in libs.glob("*openblas*"):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            query = getattr(lib, symbol, None)
            if query is not None:
                return int(query())
    return None


def provenance(seed: int, runs: int) -> dict:
    import friscov
    import numpy

    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            commit = done.stdout.strip() if done.returncode == 0 else None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "friscov").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "friscov": friscov.__version__,
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "runs": runs,
    }


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def setup_run(workload: Workload, workdir: Path) -> float:
    args = ["-m", "friscov.cli", "show-config"]
    if workload.config:
        args += ["--config", str(BENCH / "configs" / workload.config)]
    run = run_child(args, workdir)
    if run.code != 0:
        raise SystemExit(f"show-config failed with exit code {run.code}:\n{run.stderr}")
    return run.wall_s


def measure(name: str, seed: int, seconds: float, trace: bool, trials: int | None, out: Path) -> dict:
    workload = WORKLOADS[name]
    trials = trials or workload.trials
    trial_count = workload.simulations * trials
    expect = expectations(workload)
    workdir = fresh_dir(out / name)
    run_dir = workdir / "run"
    args = ["-m", "friscov.cli", *cli_args(workload, seed, trials, run_dir)]

    setup_run(workload, workdir)  # warm-up: compiles the program's bytecode once
    setup_s: list[float] = []
    samples: dict[str, list[float]] = {"wall_s": [], "peak_rss_mb": [], "traced_wall_s": []}
    layers: list[dict[str, float]] = []
    gates: list[int] = []
    problems: list[str] = []
    attempted = failed = 0

    def attempt(argv: list[str]) -> tuple[ChildRun, int]:
        nonlocal attempted, failed
        fresh_dir(run_dir)
        run = run_child(argv, workdir)
        found, gates_failed = check_run(workload, run, run_dir, expect)
        attempted += 1
        if found:
            failed += 1
            problems.extend(f"run {attempted}: {problem}" for problem in found)
        return run, gates_failed

    # A lap is one set-up and workload run, or one untraced and traced pair.
    # The next lap starts only if a typical lap still ends within --seconds.
    start = time.perf_counter()
    laps: list[float] = []
    while len(laps) < (1 if trace else MIN_RUNS) or \
            time.perf_counter() - start + statistics.median(laps) <= seconds:
        lap_start = time.perf_counter()
        if not trace:
            setup_s.append(setup_run(workload, workdir))
        run, gates_failed = attempt(args)
        samples["wall_s"].append(run.wall_s)
        samples["peak_rss_mb"].append(run.rss_mb)
        gates.append(gates_failed)
        if trace:
            summary_path = workdir / "summary.json"
            summary_path.unlink(missing_ok=True)
            traced_args = [str(BENCH / "traced_cli.py"), str(summary_path), str(workdir / "spans.tsv"),
                           "--", *args[2:]]
            run, gates_failed = attempt(traced_args)
            samples["traced_wall_s"].append(run.wall_s)
            if summary_path.exists():
                layers.append(layer_metrics(json.loads(summary_path.read_text()), run_dir, gates_failed))
        laps.append(time.perf_counter() - lap_start)

    wall_s = statistics.median(samples["wall_s"])
    if trace:
        layers = layers or [layer_metrics(EMPTY_SUMMARY, run_dir, 0)]
        metrics = {key: statistics.median(m[key] for m in layers) for key in layers[0]}
        metrics["trace.overhead_s"] = statistics.median(samples["traced_wall_s"]) - wall_s
        units = {key: layer_unit(key) for key in metrics}
    else:
        metrics = {
            "wall_s": wall_s,
            "trials_per_s": trial_count / wall_s,
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": statistics.median(samples["peak_rss_mb"]),
        }
        units = END_TO_END_UNITS
    return {
        "workload": name,
        "trace": int(trace),
        "trial_count": trial_count,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "gates_failed": statistics.median(gates),
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
        "samples": {"setup_s": setup_s, **samples},
        "provenance": provenance(seed, attempted),
    }


def layer_unit(metric: str) -> str:
    for suffix, unit in ((".calls", "count"), (".misses", "count"), (".hit_ratio", "ratio"),
                         (".trials_per_busy_s", "trials/s"), (".bytes", "B"), ("_s", "s")):
        if metric.endswith(suffix):
            return unit
    return "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trials", type=int, default=None, help="override the workload's trials (smoke tests)")
    parser.add_argument("--out", type=Path, default=BENCH / "out", help="directory for outputs and results")
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must be a 64-bit unsigned integer, as friscov's mc.seed")
    os.environ["OPENBLAS_NUM_THREADS"] = BLAS_THREADS  # before numpy loads, here and in the children
    if not (SRC / "friscov" / "cli.py").is_file():
        print(f"error: the friscov sources are missing under {SRC}", file=sys.stderr)
        return 2
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.trials, args.out)
    results = args.out / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(result, indent=1))
    for problem in result["problems"]:
        print(f"CHECK FAILED: {problem}")
    for key, metric in result["metrics"].items():
        print(f"{key} = {metric['value']:.6g} {metric['unit']}")
    if not args.trace and args.workload == "validate":
        print(f"gates_failed = {result['gates_failed']:g} count")
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
