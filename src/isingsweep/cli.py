"""Command-line driver.

The experiment kind is the one positional argument; every kind takes
the same options, ``--config FILE`` (JSON) with flag overrides.  Exit
status is 1 when any built-in check fails or an integral does not
converge, and 2 when the configuration is invalid, the output directory
included.
"""

from __future__ import annotations

import argparse
import json
import sys

from .experiments import EXPERIMENT_KINDS, ConfigError, ExperimentConfig, run_experiment
from .quadrature import QuadratureError
from .schedules import _POWERS


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="isingsweep",
        description="Adiabatic sweeps of the transverse-field Ising chain: "
                    "spectra, mode dynamics, bath-induced excitation amplitudes, "
                    "scaling fits, and dense-diagonalization cross-checks.",
    )
    p.add_argument("kind", choices=EXPERIMENT_KINDS, help="the experiment to run")
    p.add_argument("--config", help="JSON config file; flags override its fields")
    p.add_argument("--n", type=int, nargs="+", dest="chain_sizes", help="chain sizes")
    p.add_argument("--T", type=float, dest="total_time", help="explicit run time")
    p.add_argument("--schedule", dest="schedule_kind", choices=tuple(_POWERS))
    p.add_argument("--epsilon-adiab", type=float, dest="epsilon_adiab",
                   help="adiabaticity target fixing T when --T is absent")
    p.add_argument("--omega", type=float, nargs="+", dest="omega_grid", help="frequency grid")
    p.add_argument("--coupling", type=float, help="bath coupling lambda")
    p.add_argument("--out", dest="output_dir", help="output directory")
    return p


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    base: dict = {}
    if args.config:
        try:
            with open(args.config) as fh:
                base = json.load(fh)
            if not isinstance(base, dict):
                raise ValueError(f"must hold a JSON object, got {type(base).__name__}")
        except (OSError, ValueError) as exc:
            raise ConfigError(f"--config {args.config}: {exc}") from None
    base["kind"] = args.kind
    for key, val in vars(args).items():  # every flag but the kind and --config is a field
        if key not in ("kind", "config") and val is not None:
            base[key] = tuple(val) if isinstance(val, list) else val
    return ExperimentConfig.from_dict(base)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = config_from_args(args)
        summary = run_experiment(config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except QuadratureError as exc:  # the message names the interval
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for name, ok in summary["checks"].items():
        print(f"[{'PASS' if ok else 'FAIL'}] {name}")
    print(f"outputs: {len(summary['outputs'])} files in {config.output_dir}")
    print(f"summary: {config.output_dir}/summary.json")
    return 0 if summary["all_checks_pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
