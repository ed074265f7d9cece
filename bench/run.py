"""Benchmark of the isingsweep experiments, end to end and layer by layer.

usage (from the root of a checkout):
    python3 bench/run.py --workload {table1,bath,modes,stepwise} --seed N \
        --seconds S --trace {0,1}

With ``--trace 0`` the workload's experiment runs repeatedly for about S
seconds, each execution in a fresh interpreter with tracing off, and
the end-to-end metrics are reported as medians over the executions.
With ``--trace 1`` two untraced and two traced executions alternate; the
per-layer metrics come from the traced ones, whose machine-independent
counts must agree exactly.  Every execution's outputs pass through the
workload's correctness gate.  Human-readable lines come first; the
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

See bench/README.md for the workloads, the metrics and what each
layer metric is expected to move.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent

# Pinned for every execution: the worker pool would spawn processes the
# tracer cannot see, and a second BLAS thread gave no measurable gain.
PINNED_ENV = {"ISINGSWEEP_WORKERS": "1", "OPENBLAS_NUM_THREADS": "1",
              "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
LANES = 2                 # concurrent executions in an untraced run, one per core
SAMPLE_TIMEOUT_S = 150    # one execution; the slowest takes about 15 s
# Counts that do not depend on the machine; two traced runs must agree.
DETERMINISTIC = ("quadrature.calls", "quadrature.panels", "quadrature.evaluations",
                 "dynamics.rhs_evals", "schedules.tabulation_rhs_evals",
                 "oracle.even_gap_calls")


class BenchError(RuntimeError):
    pass


def unit_of(name: str) -> str:
    if name.startswith("oracle.even_gap_ms."):
        return "ms"
    if ".us_per_" in name:
        return "us"
    if ".s_per_" in name:
        return "s"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("bytes_written"):
        return "B"
    if name.endswith(("_frac", "_per_call", "_per_amplitude", "max_norm_drift")):
        return "ratio"
    return "count"


class Runner:
    """Spawns executions of one workload config and checks their outputs."""

    def __init__(self, root: Path, tmp: Path, name: str, seed: int):
        self.root, self.tmp, self.name, self.seed = root, tmp, name, seed
        self.workload = WORKLOADS[name]
        self.config = self.workload.config(seed)
        self.env = dict(os.environ, **PINNED_ENV)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p)
        self.count = itertools.count(1)
        self.attempted = 0
        self.failed = 0
        self.notes: dict = {}
        self.environment: dict = {}

    def spawn(self, traced: bool = False) -> dict:
        """One execution in a fresh interpreter; returns its result record."""
        i = next(self.count)
        out_dir = self.tmp / f"out{i}"
        config_path = self.tmp / f"config{i}.json"
        result_path = self.tmp / f"result{i}.json"
        config_path.write_text(json.dumps(dict(self.config, output_dir=str(out_dir))))
        execution_id = f"{self.name}-seed{self.seed}-{i}"
        t_spawn = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(BENCH / "sample.py"), "trace" if traced else "run", str(config_path),
             str(result_path), execution_id],
            cwd=self.root, env=self.env, capture_output=True, text=True,
            timeout=SAMPLE_TIMEOUT_S)
        if proc.returncode != 0 or not result_path.exists():
            raise BenchError(f"execution {execution_id} failed "
                             f"(exit {proc.returncode}):\n{proc.stderr[-3000:]}")
        result = json.loads(result_path.read_text())
        if result["rc"] not in (0, 1):  # 1: a built-in check failed; gated by self.check
            raise BenchError(f"isingsweep exited with {result['rc']}:\n{proc.stderr[-3000:]}")
        result["setup_s"] = result["t_ready"] - t_spawn
        result["out_dir"] = out_dir
        return result

    def check(self, results: list) -> None:
        """Pass every execution's outputs through the workload's gate."""
        for result in results:
            failed, self.notes = self.workload.check(result["out_dir"], self.config, result)
            self.attempted += self.workload.results
            self.failed += failed
            self.environment = result["environment"]

    def measure(self, seconds: float) -> tuple[dict, list]:
        """Untraced executions for about ``seconds``: end-to-end metrics.

        Executions run in LANES concurrent lanes.  On a shared 2-core VM
        the speed can switch between two levels about 40% apart in phases
        a few seconds long, independently on each core, so the execution
        times of a run are bimodal.  Their median jumps between the two levels
        with the share of slow executions; their mean, the run's busy
        time per execution, moves in proportion to it.  ``wall_s`` is
        therefore the mean, with the median printed beside it.
        """
        start = time.monotonic()

        def lane(_):
            samples = []
            last = 0.0
            # Start another execution if it should end nearer the deadline
            # than stopping now would, so a run lasts about ``seconds``.
            while not samples or time.monotonic() - start + last / 2 <= seconds:
                t = time.monotonic()
                samples.append(self.spawn())
                last = time.monotonic() - t
            return samples

        with ThreadPoolExecutor(LANES) as pool:
            samples = [s for lane_samples in pool.map(lane, range(LANES)) for s in lane_samples]
        self.check(samples)
        walls = [s["wall_s"] for s in samples]
        wall = statistics.fmean(walls)
        metrics = {
            "wall_s": wall,
            "setup_s": statistics.median(s["setup_s"] for s in samples),
            "results_per_s": self.workload.results / wall,
            "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in samples),
        }
        lines = [f"wall_s: mean of {len(walls)} executions; their median is "
                 f"{statistics.median(walls):.4f} s, and no percentile has ten samples beyond it",
                 "wall_s per execution: " + " ".join(f"{w:.4f}" for w in walls),
                 "setup_s per execution: " + " ".join(f"{s['setup_s']:.4f}" for s in samples)]
        return metrics, lines

    def trace(self, dump_path: Path) -> tuple[dict, list, bool]:
        """Untraced and traced executions, alternated: per-layer metrics."""
        plain, traced = [], []
        for _ in range(2):
            plain.append(self.spawn())
            traced.append(self.spawn(traced=True))
        self.check(plain + traced)
        first, second = (t["metrics"] for t in traced)
        metrics = {k: statistics.median([first[k], second[k]]) for k in first}
        metrics["trace_overhead_frac"] = (statistics.median(t["wall_s"] for t in traced)
                                          / statistics.median(p["wall_s"] for p in plain) - 1.0)
        mismatched = [k for k in DETERMINISTIC if first[k] != second[k]]
        lines = [f"deterministic counts identical across two traced runs: {not mismatched}"]
        if mismatched:
            lines.append("  differing: " + ", ".join(
                f"{k} {first[k]} != {second[k]}" for k in mismatched))
        absent = traced[0]["trace"]["absent"]
        if absent:
            lines.append("absent wrapped names: " + ", ".join(absent))
        dump_path.parent.mkdir(exist_ok=True)
        dump_path.write_text(json.dumps([t["trace"] for t in traced]))
        lines.append(f"spans written to {dump_path.relative_to(self.root)}")
        return metrics, lines, not mismatched


def environment(root: Path, runner: Runner) -> dict:
    env = dict(runner.environment)
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=30)
        commit = git.stdout.strip() if git.returncode == 0 else "unknown (not a git checkout)"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown (git not available)"
    env.update(nproc=os.cpu_count(), affinity=len(os.sched_getaffinity(0)), commit=commit,
               seed=runner.seed, config=runner.config, pinned=PINNED_ENV)
    return env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "isingsweep" / "__init__.py").is_file():
        print(f"error: no isingsweep sources under {root / 'src'}; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix=".bench_tmp-", dir=root) as tmp:
        runner = Runner(root, Path(tmp), args.workload, args.seed)
        try:
            if args.trace:
                dump = root / ".bench_trace" / f"{args.workload}-seed{args.seed}.json"
                metrics, lines, consistent = runner.trace(dump)
            else:
                metrics, lines = runner.measure(args.seconds)
                consistent = True
        except (BenchError, subprocess.TimeoutExpired) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    env = environment(root, runner)

    wl = runner.workload
    print(f"workload {args.workload}: {wl.results} {wl.unit} per execution")
    print("environment: " + json.dumps(env, sort_keys=True))
    for name, value in metrics.items():
        print(f"  {name:40s} {value:.6g} {unit_of(name)}")
    print(f"  {'failed_frac':40s} {runner.failed / runner.attempted:.6g} ratio "
          f"({runner.failed} of {runner.attempted} results)")
    for line in lines:
        print(line)
    print("gate notes: " + json.dumps(runner.notes, sort_keys=True))
    correct = consistent and runner.failed == 0
    print(json.dumps({
        "correct": correct, "attempted": runner.attempted, "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
