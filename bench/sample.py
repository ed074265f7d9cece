"""One workload execution in a fresh interpreter, as a user's command runs.

usage: python3 bench/sample.py MODE CONFIG RESULT EXECUTION_ID

MODE is ``run`` (tracing off) or ``trace`` (layers wrapped by
:mod:`tracer`).  CONFIG is the ``--config`` file handed to
``isingsweep.cli.main``; RESULT is where the timestamps, peak memory
and, when traced, the per-layer metrics and spans are written as JSON.  ``bench/run.py`` puts ``src/``
on PYTHONPATH and pins the worker and thread counts.

Timestamps come from ``time.monotonic()``, which is CLOCK_MONOTONIC on
Linux and therefore comparable with the parent's clock: set-up time is
measured from the parent's spawn to the start of the experiment.
"""

from __future__ import annotations

import cmath
import json
import resource
import sys
import time
from pathlib import Path


def _capture_totals(decoherence, records: list) -> None:
    """Keep a summary of each bath-averaged result; no timing, three calls a run."""
    fn = getattr(decoherence, "total_excitation_probability", None)
    if fn is None:
        return

    def capture(spec, *args, **kwargs):
        res = fn(spec, *args, **kwargs)
        methods = getattr(res, "methods", {})
        failed = 0
        for k, amp in res.channel_amplitudes.items():
            failed += not cmath.isfinite(complex(amp)) or "bound" in methods.get(k, ())
        records.append({"n": spec.n, "p_total": float(res.p_total),
                        "channels": len(res.channel_amplitudes), "failed_channels": failed})
        return res

    decoherence.total_excitation_probability = capture


def _environment() -> dict:
    import numpy
    import scipy

    env = {"python": sys.version.split()[0], "numpy": numpy.__version__, "scipy": scipy.__version__}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        env["blas"] = "unknown"
    return env


def main() -> int:
    mode, config_path, result_path, execution_id = sys.argv[1:5]
    import isingsweep.cli as cli
    from isingsweep import decoherence

    config = json.loads(Path(config_path).read_text())
    out: dict = {}
    tracer = None
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer(execution_id)
        tracer.install()
    run_experiment = cli.run_experiment

    def timed_run(cfg):
        out["t_ready"] = time.monotonic()
        return run_experiment(cfg)

    cli.run_experiment = timed_run
    totals: list = []
    _capture_totals(decoherence, totals)

    argv = [config["kind"], "--config", config_path]
    t0 = time.monotonic()
    rc = tracer.root("cli.main", cli.main, argv) if tracer else cli.main(argv)
    t1 = time.monotonic()

    out.update(rc=rc, wall_s=t1 - t0, totals=totals,
               peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
               environment=_environment())
    if tracer is not None:
        written = sum(p.stat().st_size for p in Path(config["output_dir"]).rglob("*") if p.is_file())
        out["metrics"] = tracer.metrics(written)
        out["trace"] = tracer.dump()
    Path(result_path).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
